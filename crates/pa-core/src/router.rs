//! Connection lookup: cookie in the common case, connection
//! identification on first/unusual messages (§2.2).
//!
//! "When a message is received with an unknown cookie, and the
//! Connection Identification Present Bit cleared, it is dropped. If the
//! bit is set, the Connection Identification is used to find the
//! connection." Cookies make the common-case lookup one hash probe —
//! the paper cites the PathID work's 31% latency improvement from the
//! same idea.
//!
//! Churn-scale discipline (the million-connection endpoint rides on
//! these):
//!
//! - **Teardown is O(own entries)**, never a full-map scan: every
//!   forward map (`by_cookie`, `stale_cookies`, `by_ident`) has a
//!   reverse index keyed by connection, so [`Router::remove`] deletes
//!   exactly the victim's entries. Under churn (adds and removes
//!   interleaved at scale) a `retain` scan per teardown is quadratic in
//!   the live population; the reverse indices make it constant.
//! - **The stale set is bounded.** Re-keying retires the old cookie
//!   into the stale set for replay detection, but a long-lived
//!   connection that rotates forever must not leak one entry per epoch:
//!   each connection keeps at most [`Router::STALE_CAP`] retired
//!   cookies (oldest evicted first), and orphaned *tombstones* (stale
//!   cookies whose connection migrated to another demux shard) share a
//!   router-wide FIFO cap. Every entry that leaves the stale set is
//!   counted, so the stale ledger reconciles exactly:
//!   `retired == live + revived + evicted + removed`
//!   ([`Router::stale_ledger_reconciles`]).
//! - **Ident probes are O(#distinct ident lengths)**, not O(conns):
//!   ident bytes are keyed by full value, and the router tracks which
//!   lengths are registered so a frame prefix is probed once per
//!   length (in practice once — endpoints share a stack shape).

use pa_wire::Cookie;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Opaque connection key (slot index into the owner's connection table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnKey(pub usize);

/// Outcome of a cookie demux probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CookieLookup {
    /// The current cookie of a live connection.
    Hit(ConnKey),
    /// A cookie this connection *used to* have before it re-bound — a
    /// replay or splice of old traffic. Refused, never routed: the key
    /// is returned for accounting only (for a tombstone left behind by
    /// a migrated connection, the key may name a since-recycled slot).
    Stale(ConnKey),
    /// Never seen.
    Unknown,
}

/// One retired cookie: who retired it, and whether that connection is
/// still resident in this router (`owned`) or has migrated away
/// (`!owned` — a tombstone kept only so replays of the old route are
/// still refused as stale rather than unknown).
#[derive(Debug, Clone, Copy)]
struct StaleEntry {
    key: ConnKey,
    owned: bool,
    /// For tombstones, the push sequence of the matching FIFO entry
    /// (FIFO entries are lazily deleted: a revive only drops the map
    /// entry, so a FIFO entry is live iff its seq still matches). Zero
    /// for owned entries — FIFO seqs start at one.
    seq: u64,
}

/// Everything the router gives back when a connection is extracted for
/// migration to another demux shard.
#[derive(Debug)]
pub struct ExtractedRoute {
    /// The registered peer identification, to re-register at the
    /// destination.
    pub ident: Option<Vec<u8>>,
    /// The live cookie binding at extraction time, if any. It has been
    /// retired into this router's tombstone set (replays of it are
    /// still refused here, where the cookie hashes).
    pub cookie: Option<Cookie>,
}

/// Stale-set flow counters. The reconciliation identity
/// ([`Router::stale_ledger_reconciles`]):
/// `retired == live stale entries + revived + evicted + removed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StaleStats {
    /// Cookies retired into the stale set (re-key rotations, plus live
    /// cookies tombstoned when their connection migrated away).
    pub retired: u64,
    /// Stale entries that left because their cookie was re-bound live.
    pub revived: u64,
    /// Stale entries evicted by the per-connection cap or the
    /// tombstone cap (oldest first).
    pub evicted: u64,
    /// Stale entries deleted with their connection's teardown.
    pub removed: u64,
}

/// Maps cookies and connection identifications to connections.
///
/// Each connection has exactly one *current* incoming cookie ("the
/// receiver remembers for each connection what the current (incoming)
/// cookie is"). Re-binding a different cookie retires the old one into
/// the stale set: frames still carrying it are rejected and counted as
/// stale, so an attacker replaying pre-rebind traffic (or splicing it
/// from a capture) cannot reach the connection through a dead cookie.
#[derive(Debug, Default)]
pub struct Router {
    by_cookie: HashMap<u64, ConnKey>,
    /// Retired cookies: refused at demux, kept for attribution.
    stale_cookies: HashMap<u64, StaleEntry>,
    /// `ConnKey.0 → raw cookie` — the one live binding per connection.
    current_cookie: HashMap<usize, u64>,
    by_ident: HashMap<Vec<u8>, ConnKey>,
    /// Reverse of `by_ident`: the one registered ident per connection,
    /// so teardown never scans the ident map.
    ident_of: HashMap<usize, Vec<u8>>,
    /// Registered ident lengths → refcount: the probe set for
    /// ident-carrying frames.
    ident_lens: BTreeMap<usize, usize>,
    /// Reverse of the owned part of `stale_cookies`: each connection's
    /// retired cookies, oldest first (the eviction order).
    stale_of: HashMap<usize, VecDeque<u64>>,
    /// Orphaned stale cookies (connection migrated away), oldest first,
    /// tagged with their push seq. Entries whose cookie was since
    /// revived stay behind as *dead* weight (a revive must not scan the
    /// FIFO — an adversary re-binding tombstoned cookies would make the
    /// ident slow path O(cap)); they are skipped when they reach the
    /// front and purged in bulk once they outnumber the live entries.
    tombstones: VecDeque<(u64, u64)>,
    /// Monotonic FIFO push counter (disambiguates a re-tombstoned
    /// cookie from its own dead entry).
    tombstone_seq: u64,
    /// Live tombstones (FIFO entries whose seq still matches the map).
    tombstone_live: usize,
    /// Stale-set flow accounting.
    pub stale_stats: StaleStats,
    /// Lookups served by the cookie map.
    pub cookie_hits: u64,
    /// Lookups served by the ident map.
    pub ident_hits: u64,
    /// Lookups that matched only a retired cookie (refused).
    pub stale_hits: u64,
    /// Lookups that failed entirely.
    pub misses: u64,
}

impl Router {
    /// Retired-cookie cap per connection. Replay windows are short
    /// (frames in flight under the previous cookie); eight epochs of
    /// history is generous, and the cap is what turns "rotates forever"
    /// from a leak into a ring.
    pub const STALE_CAP: usize = 8;
    /// Router-wide tombstone cap. Reviving a tombstoned cookie stays
    /// amortized O(1) whatever the cap (the FIFO is lazily deleted), so
    /// the cap costs memory, not demux time.
    pub const TOMBSTONE_CAP: usize = 1024;

    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the connection identification we expect from the peer.
    /// A connection has at most one registered ident: re-registering
    /// replaces the previous one.
    pub fn register_ident(&mut self, ident: Vec<u8>, key: ConnKey) {
        self.unregister_ident(key);
        *self.ident_lens.entry(ident.len()).or_insert(0) += 1;
        self.ident_of.insert(key.0, ident.clone());
        self.by_ident.insert(ident, key);
    }

    /// Drops `key`'s registered ident, if any.
    fn unregister_ident(&mut self, key: ConnKey) -> Option<Vec<u8>> {
        let prev = self.ident_of.remove(&key.0)?;
        self.by_ident.remove(&prev);
        if let Some(n) = self.ident_lens.get_mut(&prev.len()) {
            *n -= 1;
            if *n == 0 {
                self.ident_lens.remove(&prev.len());
            }
        }
        Some(prev)
    }

    /// Removes `raw` from the stale set, fixing whichever reverse index
    /// holds it. Returns the entry if one existed.
    fn drop_stale(&mut self, raw: u64) -> Option<StaleEntry> {
        let entry = self.stale_cookies.remove(&raw)?;
        if entry.owned {
            if let Some(dq) = self.stale_of.get_mut(&entry.key.0) {
                dq.retain(|&c| c != raw);
                if dq.is_empty() {
                    self.stale_of.remove(&entry.key.0);
                }
            }
        } else {
            // Lazy deletion: the FIFO entry is now dead (its seq no
            // longer matches the map) and will be skipped at the front
            // or purged by compaction. Scanning the whole FIFO here
            // would make every revive-bind O(tombstone cap).
            self.tombstone_live -= 1;
            self.compact_tombstones();
        }
        Some(entry)
    }

    /// Purges dead FIFO entries in bulk once they outnumber the live
    /// ones (and the FIFO is big enough to matter). Amortized O(1) per
    /// revive: a purge costs O(len) only after ≥ len/2 revives.
    fn compact_tombstones(&mut self) {
        if self.tombstones.len() < 64 || self.tombstones.len() < self.tombstone_live * 2 {
            return;
        }
        let stale = &self.stale_cookies;
        self.tombstones
            .retain(|&(raw, seq)| matches!(stale.get(&raw), Some(e) if !e.owned && e.seq == seq));
    }

    /// Retires `raw` as an owned stale of `key`, evicting the oldest
    /// retired cookie past the per-connection cap.
    fn retire_owned(&mut self, raw: u64, key: ConnKey) {
        self.stale_stats.retired += 1;
        self.stale_cookies.insert(
            raw,
            StaleEntry {
                key,
                owned: true,
                seq: 0,
            },
        );
        let dq = self.stale_of.entry(key.0).or_default();
        dq.push_back(raw);
        while dq.len() > Router::STALE_CAP {
            let oldest = dq.pop_front().expect("len > cap ≥ 1");
            self.stale_cookies.remove(&oldest);
            self.stale_stats.evicted += 1;
        }
    }

    /// Retires `raw` as a tombstone (its connection migrated away).
    fn retire_tombstone(&mut self, raw: u64, key: ConnKey) {
        self.stale_stats.retired += 1;
        self.tombstone_seq += 1;
        let seq = self.tombstone_seq;
        self.stale_cookies.insert(
            raw,
            StaleEntry {
                key,
                owned: false,
                seq,
            },
        );
        self.tombstones.push_back((raw, seq));
        self.tombstone_live += 1;
        self.enforce_tombstone_cap();
    }

    fn enforce_tombstone_cap(&mut self) {
        while self.tombstone_live > Router::TOMBSTONE_CAP {
            // Every live tombstone has a FIFO entry, so live > cap ≥ 0
            // implies the FIFO is non-empty.
            let (raw, seq) = self.tombstones.pop_front().expect("live > cap");
            match self.stale_cookies.get(&raw) {
                Some(e) if !e.owned && e.seq == seq => {
                    self.stale_cookies.remove(&raw);
                    self.stale_stats.evicted += 1;
                    self.tombstone_live -= 1;
                }
                // Dead entry — the cookie was revived (and possibly
                // re-tombstoned under a newer seq) since this push.
                _ => {}
            }
        }
    }

    /// Binds an incoming cookie to a connection ("the receiver remembers
    /// for each connection what the current (incoming) cookie is"). A
    /// *different* cookie for the same connection retires the previous
    /// one into the stale set (bounded per connection — the oldest
    /// retired cookie is evicted past [`Router::STALE_CAP`]);
    /// re-binding a retired cookie revives it.
    pub fn bind_cookie(&mut self, cookie: Cookie, key: ConnKey) {
        let raw = cookie.raw();
        if let Some(&prev) = self.current_cookie.get(&key.0) {
            if prev == raw {
                return;
            }
            self.by_cookie.remove(&prev);
            self.retire_owned(prev, key);
        }
        if self.drop_stale(raw).is_some() {
            self.stale_stats.revived += 1;
        }
        // If the cookie was live on another connection, that binding is
        // taken over wholesale — its reverse index must not keep naming
        // a cookie it no longer owns, or a later O(1) remove of the
        // victim would delete *our* binding. (The endpoint refuses this
        // as CookieConflict before ever calling us; router-level
        // callers get last-writer-wins.)
        if let Some(prev_owner) = self.by_cookie.insert(raw, key) {
            if prev_owner != key {
                self.current_cookie.remove(&prev_owner.0);
            }
        }
        self.current_cookie.insert(key.0, raw);
    }

    /// Cookie demux: live hit, stale (refused, accounted), or unknown.
    pub fn demux_cookie(&mut self, cookie: Cookie) -> CookieLookup {
        if let Some(&k) = self.by_cookie.get(&cookie.raw()) {
            self.cookie_hits += 1;
            return CookieLookup::Hit(k);
        }
        if let Some(e) = self.stale_cookies.get(&cookie.raw()) {
            self.stale_hits += 1;
            return CookieLookup::Stale(e.key);
        }
        self.misses += 1;
        CookieLookup::Unknown
    }

    /// Like [`Router::demux_cookie`], but without moving any counter:
    /// a pure probe for conflict checks (is this cookie already the
    /// live route of some connection?).
    pub fn demux_cookie_peek(&self, cookie: Cookie) -> CookieLookup {
        if let Some(&k) = self.by_cookie.get(&cookie.raw()) {
            return CookieLookup::Hit(k);
        }
        if let Some(e) = self.stale_cookies.get(&cookie.raw()) {
            return CookieLookup::Stale(e.key);
        }
        CookieLookup::Unknown
    }

    /// Probes a frame prefix against every registered ident length
    /// (shortest first), returning the matched connection and the
    /// ident length consumed. One map probe per *distinct length* —
    /// O(1) in practice — instead of a scan over every connection.
    pub fn probe_ident_prefix(&self, frame: &[u8]) -> Option<(ConnKey, usize)> {
        for (&len, _) in self.ident_lens.iter() {
            if let Some(candidate) = frame.get(..len) {
                if let Some(&key) = self.by_ident.get(candidate) {
                    return Some((key, len));
                }
            }
        }
        None
    }

    /// The shortest registered ident length (frames shorter than this
    /// cannot carry any registered ident).
    pub fn min_ident_len(&self) -> usize {
        self.ident_lens.keys().next().copied().unwrap_or(usize::MAX)
    }

    /// Removes a connection's entries (teardown): its registered ident,
    /// its live cookie binding, and its retired cookies. O(own entries)
    /// — the reverse indices point straight at them.
    pub fn remove(&mut self, key: ConnKey) {
        self.unregister_ident(key);
        if let Some(raw) = self.current_cookie.remove(&key.0) {
            self.by_cookie.remove(&raw);
        }
        if let Some(dq) = self.stale_of.remove(&key.0) {
            for raw in dq {
                self.stale_cookies.remove(&raw);
                self.stale_stats.removed += 1;
            }
        }
    }

    /// Extracts a connection's route for migration to another demux
    /// shard: the ident and live binding leave (returned for
    /// re-registration at the destination), while the live cookie and
    /// any retired cookies stay behind as *tombstones* — they hash to
    /// this router, so replays of the old route must still be refused
    /// here as stale, bounded by the tombstone cap.
    pub fn extract(&mut self, key: ConnKey) -> ExtractedRoute {
        let ident = self.unregister_ident(key);
        // Retired history first, then the live cookie: the tombstone
        // FIFO evicts oldest-first, and the live cookie is the youngest
        // route worth refusing longest.
        if let Some(dq) = self.stale_of.remove(&key.0) {
            for raw in dq {
                self.tombstone_seq += 1;
                let seq = self.tombstone_seq;
                // Already counted as retired when it entered the stale
                // set; flip ownership without re-counting.
                if let Some(e) = self.stale_cookies.get_mut(&raw) {
                    e.owned = false;
                    e.seq = seq;
                    self.tombstones.push_back((raw, seq));
                    self.tombstone_live += 1;
                }
            }
            self.enforce_tombstone_cap();
        }
        let cookie = self.current_cookie.remove(&key.0).map(|raw| {
            self.by_cookie.remove(&raw);
            self.retire_tombstone(raw, key);
            Cookie::from_raw(raw)
        });
        ExtractedRoute { ident, cookie }
    }

    /// Number of live cookie bindings (at most one per connection).
    pub fn cookie_count(&self) -> usize {
        self.by_cookie.len()
    }

    /// Number of retired cookies still tracked for stale accounting
    /// (owned + tombstones).
    pub fn stale_count(&self) -> usize {
        self.stale_cookies.len()
    }

    /// Number of tombstoned stale cookies (connection migrated away).
    pub fn tombstone_count(&self) -> usize {
        self.tombstone_live
    }

    /// Number of registered identifications.
    pub fn ident_count(&self) -> usize {
        self.by_ident.len()
    }

    /// The stale-set conservation identity: every retirement is still
    /// visible — live in the stale set, revived by a re-bind, evicted
    /// by a cap, or removed with its connection. Exact `==`, checked by
    /// the churn suites after every wave.
    pub fn stale_ledger_reconciles(&self) -> bool {
        self.stale_stats.retired
            == self.stale_count() as u64
                + self.stale_stats.revived
                + self.stale_stats.evicted
                + self.stale_stats.removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_then_cookie_flow() {
        let mut r = Router::new();
        let key = ConnKey(3);
        r.register_ident(b"ident-bytes".to_vec(), key);

        // First message: unknown cookie, ident present.
        let c = Cookie::from_raw(42);
        assert_eq!(r.demux_cookie(c), CookieLookup::Unknown);
        assert_eq!(
            r.probe_ident_prefix(b"ident-bytes+body"),
            Some((key, b"ident-bytes".len()))
        );
        r.bind_cookie(c, key);

        // Subsequent messages: cookie hits.
        assert_eq!(r.demux_cookie(c), CookieLookup::Hit(key));
        assert_eq!(r.cookie_hits, 1);
        assert_eq!(r.misses, 1);
    }

    #[test]
    fn rebinding_cookie_retires_the_old_one() {
        // A peer restarting picks a new cookie; the ident re-finds the
        // connection and the new cookie binds. The *old* cookie must
        // not keep routing — replayed pre-restart frames are stale.
        let mut r = Router::new();
        let key = ConnKey(0);
        r.bind_cookie(Cookie::from_raw(1), key);
        r.bind_cookie(Cookie::from_raw(2), key);
        assert_eq!(r.demux_cookie(Cookie::from_raw(2)), CookieLookup::Hit(key));
        assert_eq!(
            r.demux_cookie(Cookie::from_raw(1)),
            CookieLookup::Stale(key),
            "retired"
        );
        assert_eq!(r.demux_cookie(Cookie::from_raw(3)), CookieLookup::Unknown);
        assert_eq!(r.cookie_count(), 1, "one live binding per connection");
        assert_eq!(r.stale_count(), 1);
        assert_eq!(r.stale_hits, 1);
        assert_eq!(r.misses, 1);

        // Re-binding the retired cookie revives it and retires the other.
        r.bind_cookie(Cookie::from_raw(1), key);
        assert_eq!(r.demux_cookie(Cookie::from_raw(1)), CookieLookup::Hit(key));
        assert_eq!(
            r.demux_cookie(Cookie::from_raw(2)),
            CookieLookup::Stale(key)
        );
        assert_eq!(r.cookie_count(), 1);
        assert_eq!(r.stale_stats.revived, 1);
        assert!(r.stale_ledger_reconciles());
    }

    #[test]
    fn stale_cookie_of_one_conn_never_routes_to_another() {
        let mut r = Router::new();
        r.bind_cookie(Cookie::from_raw(10), ConnKey(0));
        r.bind_cookie(Cookie::from_raw(20), ConnKey(1));
        // Conn 0 re-binds; its old cookie is stale, conn 1 untouched.
        r.bind_cookie(Cookie::from_raw(11), ConnKey(0));
        assert_eq!(
            r.demux_cookie(Cookie::from_raw(10)),
            CookieLookup::Stale(ConnKey(0))
        );
        assert_eq!(
            r.demux_cookie(Cookie::from_raw(20)),
            CookieLookup::Hit(ConnKey(1))
        );
        r.remove(ConnKey(0));
        assert_eq!(r.demux_cookie(Cookie::from_raw(10)), CookieLookup::Unknown);
        assert_eq!(r.demux_cookie(Cookie::from_raw(11)), CookieLookup::Unknown);
    }

    #[test]
    fn remove_clears_both_maps() {
        let mut r = Router::new();
        r.register_ident(b"a".to_vec(), ConnKey(1));
        r.bind_cookie(Cookie::from_raw(9), ConnKey(1));
        r.register_ident(b"b".to_vec(), ConnKey(2));
        r.remove(ConnKey(1));
        assert_eq!(r.probe_ident_prefix(b"a"), None);
        assert_eq!(r.demux_cookie(Cookie::from_raw(9)), CookieLookup::Unknown);
        assert_eq!(r.probe_ident_prefix(b"b"), Some((ConnKey(2), 1)));
    }

    /// Pin of the O(1)-removal refactor: a randomized interleaving of
    /// binds, rotations, and removals must leave the indexed router in
    /// exactly the state a brute-force model predicts — same lookups,
    /// same counts — so the reverse indices cannot drift from the
    /// forward maps.
    #[test]
    fn indexed_removal_matches_brute_force_model() {
        // A tiny model: the naive retain-based router (the pre-fix
        // shape), its stale set one list in retirement order, capped per
        // connection by evicting that connection's oldest entry.
        #[derive(Default)]
        struct Model {
            by_cookie: HashMap<u64, ConnKey>,
            stale: Vec<(u64, ConnKey)>,
            current: HashMap<usize, u64>,
            by_ident: HashMap<Vec<u8>, ConnKey>,
        }
        impl Model {
            fn bind(&mut self, raw: u64, key: ConnKey) {
                if let Some(&prev) = self.current.get(&key.0) {
                    if prev == raw {
                        return;
                    }
                    self.by_cookie.remove(&prev);
                    self.stale.push((prev, key));
                    if self.stale.iter().filter(|&&(_, k)| k == key).count() > Router::STALE_CAP {
                        let oldest = self.stale.iter().position(|&(_, k)| k == key).unwrap();
                        self.stale.remove(oldest);
                    }
                }
                self.stale.retain(|&(c, _)| c != raw);
                if let Some(victim) = self.by_cookie.insert(raw, key) {
                    if victim != key {
                        self.current.remove(&victim.0);
                    }
                }
                self.current.insert(key.0, raw);
            }
            fn remove(&mut self, key: ConnKey) {
                self.by_cookie.retain(|_, &mut v| v != key);
                self.stale.retain(|&(_, k)| k != key);
                self.current.remove(&key.0);
                self.by_ident.retain(|_, &mut v| v != key);
            }
        }

        let mut r = Router::new();
        let mut m = Model::default();
        // How often a connection held more retired cookies than the cap.
        let mut capped = 0;
        let mut state = 0x5EEDu64;
        let mut rng = move || {
            // splitmix64 step (offline determinism, no std rand).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for step in 0..4000u64 {
            let key = ConnKey((rng() % 16) as usize);
            match rng() % 10 {
                0..=5 => {
                    let raw = 1 + rng() % 64;
                    let evicted = r.stale_stats.evicted;
                    r.bind_cookie(Cookie::from_raw(raw), key);
                    m.bind(raw, key);
                    capped += (r.stale_stats.evicted > evicted) as u32;
                }
                6..=7 => {
                    let ident = format!("ident-{}", key.0).into_bytes();
                    r.register_ident(ident.clone(), key);
                    m.by_ident.insert(ident, key);
                }
                _ => {
                    r.remove(key);
                    m.remove(key);
                }
            }
            // Equivalence: every cookie and ident resolves identically.
            for raw in 1..=64u64 {
                assert_eq!(
                    r.demux_cookie_peek(Cookie::from_raw(raw)),
                    match (
                        m.by_cookie.get(&raw),
                        m.stale.iter().find(|&&(c, _)| c == raw),
                    ) {
                        (Some(&k), _) => CookieLookup::Hit(k),
                        (None, Some(&(_, k))) => CookieLookup::Stale(k),
                        (None, None) => CookieLookup::Unknown,
                    },
                    "step {step} cookie {raw}"
                );
            }
            assert_eq!(r.cookie_count(), m.by_cookie.len(), "step {step}");
            assert_eq!(r.stale_count(), m.stale.len(), "step {step}");
            assert_eq!(r.ident_count(), m.by_ident.len(), "step {step}");
            assert!(r.stale_ledger_reconciles(), "step {step}");
        }
        assert!(capped > 0, "the sequence never reached the stale cap");
    }

    /// Pin of the stale-set bound: endless re-keying must not leak.
    /// Pre-fix, `stale_count` grew by one per rotation forever.
    #[test]
    fn rotation_storm_is_bounded_by_the_stale_cap() {
        let mut r = Router::new();
        let key = ConnKey(0);
        for epoch in 0..10_000u64 {
            r.bind_cookie(Cookie::from_raw(1 + epoch), key);
        }
        assert_eq!(r.stale_count(), Router::STALE_CAP);
        assert_eq!(r.stale_stats.retired, 9_999);
        assert_eq!(r.stale_stats.evicted, 9_999 - Router::STALE_CAP as u64);
        assert!(r.stale_ledger_reconciles());
        // Eviction is oldest-first: the newest retirees are the ones
        // still refusing replays.
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(9_999)),
            CookieLookup::Stale(key)
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(1)),
            CookieLookup::Unknown
        );
        // Removal accounts the survivors.
        r.remove(key);
        assert_eq!(r.stale_count(), 0);
        assert!(r.stale_ledger_reconciles());
    }

    #[test]
    fn per_conn_caps_are_independent() {
        let mut r = Router::new();
        // One rotation past the cap on each connection.
        let rotations = Router::STALE_CAP as u64 + 1;
        for epoch in 0..=rotations {
            r.bind_cookie(Cookie::from_raw(100 + epoch), ConnKey(0));
            r.bind_cookie(Cookie::from_raw(200 + epoch), ConnKey(1));
        }
        assert_eq!(
            r.stale_count(),
            2 * Router::STALE_CAP,
            "a full cap per connection"
        );
        assert_eq!(r.stale_stats.evicted, 2, "one eviction per connection");
        // Each connection lost its own oldest retiree and kept the rest:
        // conn 1's history is untouched by conn 0's rotations.
        for (base, key) in [(100, ConnKey(0)), (200, ConnKey(1))] {
            assert_eq!(
                r.demux_cookie_peek(Cookie::from_raw(base)),
                CookieLookup::Unknown
            );
            assert_eq!(
                r.demux_cookie_peek(Cookie::from_raw(base + 1)),
                CookieLookup::Stale(key)
            );
        }
        assert!(r.stale_ledger_reconciles());
    }

    #[test]
    fn extract_leaves_tombstones_that_still_refuse_replays() {
        let mut r = Router::new();
        let key = ConnKey(4);
        r.register_ident(b"mover".to_vec(), key);
        r.bind_cookie(Cookie::from_raw(7), key);
        r.bind_cookie(Cookie::from_raw(8), key); // 7 retired
        let route = r.extract(key);
        assert_eq!(route.ident.as_deref(), Some(&b"mover"[..]));
        assert_eq!(route.cookie, Some(Cookie::from_raw(8)));
        // Ident and live binding are gone; both cookies refuse as stale.
        assert_eq!(r.probe_ident_prefix(b"mover"), None);
        assert_eq!(r.cookie_count(), 0);
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(8)),
            CookieLookup::Stale(key)
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(7)),
            CookieLookup::Stale(key)
        );
        assert_eq!(r.tombstone_count(), 2);
        assert!(r.stale_ledger_reconciles());
        // Tombstones obey their own cap: one migration past it evicts
        // the oldest.
        migrate_away(&mut r, 1_000, Router::TOMBSTONE_CAP - 1);
        assert_eq!(r.tombstone_count(), Router::TOMBSTONE_CAP);
        assert_eq!(r.stale_stats.evicted, 1);
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(7)),
            CookieLookup::Unknown,
            "oldest tombstone evicted first"
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(8)),
            CookieLookup::Stale(key)
        );
        assert!(r.stale_ledger_reconciles());
        // A tombstoned cookie re-bound by a new connection revives.
        r.bind_cookie(Cookie::from_raw(8), ConnKey(9));
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(8)),
            CookieLookup::Hit(ConnKey(9))
        );
        assert_eq!(r.tombstone_count(), Router::TOMBSTONE_CAP - 1);
        assert!(r.stale_ledger_reconciles());
    }

    /// Binds and extracts `n` connections (keys and cookies `base..`):
    /// `n` fresh tombstones, oldest first.
    fn migrate_away(r: &mut Router, base: usize, n: usize) {
        for i in base..base + n {
            r.bind_cookie(Cookie::from_raw(i as u64), ConnKey(i));
            r.extract(ConnKey(i));
        }
    }

    /// Revive-then-re-tombstone churn on the same cookie: the revive
    /// leaves a dead FIFO entry behind (lazy deletion — no O(cap)
    /// scan), and cap enforcement must skip it rather than confuse it
    /// with the fresh tombstone of the same raw, keeping the ledger
    /// exact and the eviction order oldest-live-first.
    #[test]
    fn tombstone_revive_rebind_churn_stays_exact() {
        const CAP: usize = Router::TOMBSTONE_CAP;
        let mut r = Router::new();
        for i in 0..3u64 {
            let key = ConnKey(i as usize);
            r.bind_cookie(Cookie::from_raw(100 + i), key);
            r.extract(key);
        }
        // Fillers bring the live count to one past the cap.
        migrate_away(&mut r, 1_000, CAP - 2);
        assert_eq!(r.tombstone_count(), CAP);
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(100)),
            CookieLookup::Unknown,
            "oldest evicted past the cap"
        );
        assert!(r.stale_ledger_reconciles());

        // Revive a tombstoned cookie: only the map entry goes.
        r.bind_cookie(Cookie::from_raw(102), ConnKey(7));
        assert_eq!(r.tombstone_count(), CAP - 1);
        assert!(r.stale_ledger_reconciles());

        // Re-tombstone the same raw, then push more tombstones: the
        // dead duplicate near the front must be skipped, not double
        // counted, and must not shield younger live entries.
        r.extract(ConnKey(7)); // 102 tombstoned again, fresh seq
        assert_eq!(r.tombstone_count(), CAP);
        r.bind_cookie(Cookie::from_raw(200), ConnKey(8));
        r.extract(ConnKey(8)); // cap pops: evicts 101 (oldest live)
        assert_eq!(r.tombstone_count(), CAP);
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(101)),
            CookieLookup::Unknown,
            "oldest live tombstone evicted"
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(102)),
            CookieLookup::Stale(ConnKey(7)),
            "re-tombstoned cookie survives its own dead FIFO entry"
        );
        assert!(r.stale_ledger_reconciles());

        // One more: the cap pop now lands on 102's dead entry first,
        // skips it, and evicts the oldest live entry (the first filler)
        // without touching the live re-tombstone, which is younger.
        r.bind_cookie(Cookie::from_raw(300), ConnKey(9));
        r.extract(ConnKey(9));
        assert_eq!(r.tombstone_count(), CAP);
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(1_000)),
            CookieLookup::Unknown,
            "the oldest live tombstone evicts"
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(102)),
            CookieLookup::Stale(ConnKey(7)),
            "the dead entry was skipped, not taken for 102's live one"
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(200)),
            CookieLookup::Stale(ConnKey(8))
        );
        assert_eq!(
            r.demux_cookie_peek(Cookie::from_raw(300)),
            CookieLookup::Stale(ConnKey(9))
        );
        assert!(r.stale_ledger_reconciles());
    }

    /// Heavy revive churn with the cap never binding: dead FIFO entries
    /// must be compacted away, not accumulate one per revive.
    #[test]
    fn tombstone_fifo_compacts_under_revive_churn() {
        let mut r = Router::new();
        for i in 0..10_000u64 {
            let key = ConnKey(i as usize);
            r.bind_cookie(Cookie::from_raw(500), key);
            r.extract(key); // tombstones 500 … then the next bind revives it
        }
        assert_eq!(r.tombstone_count(), 1);
        assert!(
            r.tombstones.len() <= 64,
            "dead FIFO entries must be purged, got {}",
            r.tombstones.len()
        );
        assert!(r.stale_ledger_reconciles());
    }

    #[test]
    fn ident_prefix_probe_matches_by_length() {
        let mut r = Router::new();
        r.register_ident(b"shorty".to_vec(), ConnKey(0));
        r.register_ident(b"a-much-longer-ident".to_vec(), ConnKey(1));
        assert_eq!(r.min_ident_len(), 6);
        let frame = b"a-much-longer-ident+payload";
        assert_eq!(r.probe_ident_prefix(frame), Some((ConnKey(1), 19)));
        assert_eq!(r.probe_ident_prefix(b"shortyXX"), Some((ConnKey(0), 6)));
        assert_eq!(r.probe_ident_prefix(b"zzz"), None);
        // Re-registering replaces; unused lengths leave the probe set.
        r.register_ident(b"shorty2".to_vec(), ConnKey(0));
        assert_eq!(r.probe_ident_prefix(b"shortyXX"), None);
        assert_eq!(r.min_ident_len(), 7);
        r.remove(ConnKey(1));
        assert_eq!(r.min_ident_len(), 7);
        assert_eq!(r.probe_ident_prefix(frame), None);
    }
}
