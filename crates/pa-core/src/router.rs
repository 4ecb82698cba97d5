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
//! - **One record per connection**, a `Route` at its slot index: its
//!   current cookie, registered peer ident and retired cookies. The
//!   keyed tables point at slots and the record points back, so
//!   [`Router::remove`] deletes exactly the victim's entries and a
//!   recycled slot reuses the record's ident buffer: a connection's
//!   lifecycle neither scans a table nor allocates.
//! - **One table type**, `CookieMap`, for the live cookies, the stale
//!   set and the ident index: it grows only when its count crosses ¾,
//!   so its allocations follow the population alone.
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
//!   a frame prefix is hashed and probed once per registered length (in
//!   practice once — endpoints share a stack shape).

use pa_wire::Cookie;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, VecDeque};
use std::hash::BuildHasher;

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

/// One retired cookie: `(key, seq)`, the slot that retired it and, if
/// that connection has migrated away, the push sequence of the cookie's
/// tombstone FIFO entry. A tombstone is kept only so replays of the old
/// route are still refused as stale rather than unknown. FIFO entries
/// are lazily deleted: a revive only drops the map entry, so a FIFO
/// entry is live iff its seq still matches. `seq` is zero while the
/// connection is resident (it owns the entry); FIFO seqs start at one.
#[derive(Debug, Default, Clone, Copy)]
struct StaleEntry(u32, u64);

/// A key as the tables store it: a slot index fits 32 bits.
fn slot(key: ConnKey) -> u32 {
    u32::try_from(key.0).expect("a connection key is a slot index")
}

/// The router's one keyed table, `u64` → `V`, keyed by the std map's
/// SipHash: open addressed with linear probing over a power-of-two
/// array of `(key, value, hash)` entries, a live cookie's four to a
/// cache line, so a probe is one line found before it is read; the low
/// half of the hash is kept so a removal or a growth moves entries
/// without hashing them again. Key 0 marks an empty slot; the zero key
/// itself (refused at the endpoint's front, but [`Router::bind_cookie`]
/// is public) is kept beside the array. A removal shifts the rest of
/// its cluster back instead of leaving a tombstone, so a table that
/// churns probes as short as a fresh one. The load stays at or below
/// ¾: at ½ a shard of more than 2 048 connections would take 128 KiB,
/// past glibc's mmap threshold (EXPERIMENTS.md E-stage).
#[derive(Debug, Default)]
pub(crate) struct CookieMap<S = RandomState, V = u32> {
    hasher: S,
    slots: Vec<(u64, V, u32)>,
    /// Non-zero keys in `slots`.
    len: usize,
    zero: Option<V>,
}

impl<S: BuildHasher, V: Copy + Default> CookieMap<S, V> {
    /// The hash every probe of `raw` starts from.
    #[inline]
    fn hash(&self, raw: u64) -> u64 {
        self.hasher.hash_one(raw)
    }

    /// `raw`'s slot (`Ok`), or the empty slot that ends its probe
    /// sequence (`Err`). The array must not be empty; the load bound
    /// keeps an empty slot in it.
    #[inline]
    fn find(&self, raw: u64, hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i].0 {
                c if c == raw => return Ok(i),
                0 => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[inline]
    fn get(&self, raw: u64, hash: u64) -> Option<V> {
        if raw == 0 {
            return self.zero;
        }
        if self.slots.is_empty() {
            return None;
        }
        self.find(raw, hash).ok().map(|i| self.slots[i].1)
    }

    /// [`CookieMap::get`], hashing `raw` itself: the control path's probe.
    fn lookup(&self, raw: u64) -> Option<V> {
        self.get(raw, self.hash(raw))
    }

    /// Binds `raw` to `value`, returning the value it was bound to before.
    fn insert(&mut self, raw: u64, value: V) -> Option<V> {
        if raw == 0 {
            return self.zero.replace(value);
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = self.hash(raw);
        match self.find(raw, hash) {
            Ok(i) => Some(std::mem::replace(&mut self.slots[i].1, value)),
            Err(i) => {
                self.slots[i] = (raw, value, hash as u32);
                self.len += 1;
                None
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(0, V::default(), 0); cap]);
        for entry in old.into_iter().filter(|&(raw, ..)| raw != 0) {
            let i = self.find(entry.0, entry.2 as u64).unwrap_err();
            self.slots[i] = entry;
        }
    }

    /// Unbinds `raw`. The entries after it in its cluster move back into
    /// the hole, each as far as its own probe sequence allows.
    fn remove(&mut self, raw: u64) -> Option<V> {
        if raw == 0 {
            return self.zero.take();
        }
        if self.slots.is_empty() {
            return None;
        }
        let mut hole = self.find(raw, self.hash(raw)).ok()?;
        let value = self.slots[hole].1;
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (c, _, hash) = self.slots[i];
            if c == 0 {
                break;
            }
            // The entry at `i` may fill the hole unless its home slot
            // lies (cyclically) after the hole: then a probe for it
            // would start past the hole and never find it there.
            let home = hash as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
        }
        self.slots[hole] = (0, V::default(), 0);
        self.len -= 1;
        Some(value)
    }

    fn len(&self) -> usize {
        self.len + self.zero.is_some() as usize
    }

    /// Starts fetching the line a probe of `hash` begins on.
    #[inline]
    fn prefetch(&self, hash: u64) {
        let i = hash as usize & self.slots.len().wrapping_sub(1);
        crate::prefetch(self.slots.as_ptr().wrapping_add(i));
    }
}

/// What the router knows of one connection, at its slot index: the
/// record every table entry of the connection points back to.
#[derive(Debug, Default)]
struct Route {
    /// The current incoming cookie.
    cookie: Option<u64>,
    /// The registered peer ident's keyed hash, its key in `by_ident`.
    ident_hash: Option<u64>,
    /// The registered peer ident. Cleared, not freed, with the slot, so
    /// the slot's next connection registers without allocating.
    ident: Vec<u8>,
    /// Retired cookies, out of line: only a connection that re-keys
    /// has any. Emptied, not freed, with the slot.
    retired: Option<Box<Retired>>,
}

/// A connection's retired cookies, oldest first (the eviction order):
/// `cookies[..len]`.
#[derive(Debug, Default)]
struct Retired {
    cookies: [u64; Router::STALE_CAP],
    len: usize,
}

impl Route {
    /// `key`'s record, made on first use.
    fn at(routes: &mut Vec<Route>, key: ConnKey) -> &mut Route {
        if key.0 >= routes.len() {
            routes.resize_with(key.0 + 1, Route::default);
        }
        &mut routes[key.0]
    }

    /// Appends `raw` to the retired history; a full one gives up its
    /// oldest cookie, which is returned.
    fn retire(&mut self, raw: u64) -> Option<u64> {
        let r = self.retired.get_or_insert_with(Box::default);
        if r.len < Router::STALE_CAP {
            r.cookies[r.len] = raw;
            r.len += 1;
            return None;
        }
        r.cookies.rotate_left(1);
        Some(std::mem::replace(
            &mut r.cookies[Router::STALE_CAP - 1],
            raw,
        ))
    }

    /// Drops `raw` from the retired history.
    fn forget(&mut self, raw: u64) {
        let Some(r) = self.retired.as_deref_mut() else {
            return;
        };
        let n = r.len;
        if let Some(i) = r.cookies[..n].iter().position(|&c| c == raw) {
            r.cookies[i..n].rotate_left(1);
            r.len -= 1;
        }
    }

    /// The retired history, oldest first, leaving it empty.
    fn take_retired(&mut self) -> &[u64] {
        match self.retired.as_deref_mut() {
            Some(r) => &r.cookies[..std::mem::take(&mut r.len)],
            None => &[],
        }
    }
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
    by_cookie: CookieMap,
    /// Retired cookies: refused at demux, kept for attribution.
    stale_cookies: CookieMap<RandomState, StaleEntry>,
    /// Registered idents by their keyed hash (this map's own hasher).
    /// A hit names a candidate; its `Route`'s bytes decide.
    by_ident: CookieMap,
    /// Each connection's record, at its slot index.
    routes: Vec<Route>,
    /// Registered ident lengths → refcount: the probe set for
    /// ident-carrying frames.
    ident_lens: BTreeMap<usize, usize>,
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
    pub(crate) const STALE_CAP: usize = 8;
    /// Router-wide tombstone cap. Reviving a tombstoned cookie stays
    /// amortized O(1) whatever the cap (the FIFO is lazily deleted), so
    /// the cap costs memory, not demux time.
    pub(crate) const TOMBSTONE_CAP: usize = 1024;

    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the connection identification we expect from the peer,
    /// replacing `key`'s previous one. The newest registration owns the
    /// entry of equal idents (a peer restart's pair) and of equal hashes
    /// alike; a removal deletes it only if it names the removed key. Two
    /// of 16 384 idents share a 64-bit keyed hash with probability ≈ 2⁻³⁷.
    pub(crate) fn register_ident(&mut self, ident: &[u8], key: ConnKey) {
        self.unregister_ident(key);
        let hash = self.by_ident.hasher.hash_one(ident);
        *self.ident_lens.entry(ident.len()).or_insert(0) += 1;
        let route = Route::at(&mut self.routes, key);
        route.ident.extend_from_slice(ident);
        route.ident_hash = Some(hash);
        self.by_ident.insert(hash, slot(key));
    }

    /// Drops `key`'s registered ident, if any.
    fn unregister_ident(&mut self, key: ConnKey) {
        let route = Route::at(&mut self.routes, key);
        let Some(hash) = route.ident_hash.take() else {
            return;
        };
        if self.by_ident.lookup(hash) == Some(slot(key)) {
            self.by_ident.remove(hash);
        }
        let len = route.ident.len();
        route.ident.clear();
        if let Some(n) = self.ident_lens.get_mut(&len) {
            *n -= 1;
            if *n == 0 {
                self.ident_lens.remove(&len);
            }
        }
    }

    /// Removes `raw` from the stale set (and its owner's history): was it?
    fn drop_stale(&mut self, raw: u64) -> bool {
        let Some(entry) = self.stale_cookies.remove(raw) else {
            return false;
        };
        if entry.1 == 0 {
            self.routes[entry.0 as usize].forget(raw);
        } else {
            // Lazy deletion: the FIFO entry is now dead (its seq no
            // longer matches the map) and will be skipped at the front
            // or purged by compaction. Scanning the whole FIFO here
            // would make every revive-bind O(tombstone cap).
            self.tombstone_live -= 1;
            self.compact_tombstones();
        }
        true
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
            .retain(|&(raw, seq)| matches!(stale.lookup(raw), Some(e) if e.1 == seq));
    }

    fn enforce_tombstone_cap(&mut self) {
        while self.tombstone_live > Router::TOMBSTONE_CAP {
            // Every live tombstone has a FIFO entry, so live > cap ≥ 0
            // implies the FIFO is non-empty.
            let (raw, seq) = self.tombstones.pop_front().expect("live > cap");
            // A dead entry — the cookie was revived (and possibly
            // re-tombstoned under a newer seq) since this push — is
            // skipped.
            if matches!(self.stale_cookies.lookup(raw), Some(e) if e.1 == seq) {
                self.stale_cookies.remove(raw);
                self.stale_stats.evicted += 1;
                self.tombstone_live -= 1;
            }
        }
    }

    /// Binds an incoming cookie to a connection ("the receiver remembers
    /// for each connection what the current (incoming) cookie is"). A
    /// *different* cookie for the same connection retires the previous
    /// one into the stale set (bounded per connection — the oldest
    /// retired cookie is evicted past [`Router::STALE_CAP`]);
    /// re-binding a retired cookie revives it. `key` fits 32 bits, as a
    /// table's slot index does.
    pub fn bind_cookie(&mut self, cookie: Cookie, key: ConnKey) {
        let raw = cookie.raw();
        let route = Route::at(&mut self.routes, key);
        if let Some(prev) = route.cookie {
            if prev == raw {
                return;
            }
            self.by_cookie.remove(prev);
            self.stale_stats.retired += 1;
            self.stale_cookies.insert(prev, StaleEntry(slot(key), 0));
            if let Some(oldest) = route.retire(prev) {
                self.stale_cookies.remove(oldest);
                self.stale_stats.evicted += 1;
            }
        }
        if self.drop_stale(raw) {
            self.stale_stats.revived += 1;
        }
        // If the cookie was live on another connection, that binding is
        // taken over wholesale — its record must not keep naming a
        // cookie it no longer owns, or a later O(1) remove of the
        // victim would delete *our* binding. (The endpoint refuses this
        // as CookieConflict before ever calling us; router-level
        // callers get last-writer-wins.)
        if let Some(prev_owner) = self.by_cookie.insert(raw, slot(key)) {
            self.routes[prev_owner as usize].cookie = None;
        }
        self.routes[key.0].cookie = Some(raw);
    }

    /// The hash a probe of `cookie` in this router starts from: computed
    /// once a frame and handed to [`Router::prefetch_cookie`],
    /// [`Router::live_key`] and [`Router::demux_cookie`].
    #[inline]
    pub(crate) fn cookie_hash(&self, cookie: Cookie) -> u64 {
        self.by_cookie.hash(cookie.raw())
    }

    /// Starts fetching the line a live-cookie probe of `hash` begins on.
    /// A hint: nothing is read and nothing is counted.
    #[inline]
    pub(crate) fn prefetch_cookie(&self, hash: u64) {
        self.by_cookie.prefetch(hash);
    }

    /// The connection `cookie` is live on, if any, without moving a
    /// counter: what a hint pass looks up.
    #[inline]
    pub(crate) fn live_key(&self, cookie: Cookie, hash: u64) -> Option<ConnKey> {
        self.by_cookie
            .get(cookie.raw(), hash)
            .map(|k| ConnKey(k as usize))
    }

    /// Cookie demux: live hit, stale (refused, accounted), or unknown.
    /// `hash` is [`Router::cookie_hash`] of `cookie`.
    #[inline]
    pub(crate) fn demux_cookie(&mut self, cookie: Cookie, hash: u64) -> CookieLookup {
        if let Some(k) = self.by_cookie.get(cookie.raw(), hash) {
            self.cookie_hits += 1;
            return CookieLookup::Hit(ConnKey(k as usize));
        }
        if let Some(e) = self.stale_cookies.lookup(cookie.raw()) {
            self.stale_hits += 1;
            return CookieLookup::Stale(ConnKey(e.0 as usize));
        }
        self.misses += 1;
        CookieLookup::Unknown
    }

    /// Like [`Router::demux_cookie`], but without moving any counter:
    /// a pure probe for conflict checks (is this cookie already the
    /// live route of some connection?).
    pub fn demux_cookie_peek(&self, cookie: Cookie) -> CookieLookup {
        if let Some(k) = self.live_key(cookie, self.cookie_hash(cookie)) {
            return CookieLookup::Hit(k);
        }
        if let Some(e) = self.stale_cookies.lookup(cookie.raw()) {
            return CookieLookup::Stale(ConnKey(e.0 as usize));
        }
        CookieLookup::Unknown
    }

    /// Probes a frame prefix against every registered ident length
    /// (shortest first), returning the matched connection and the ident
    /// length consumed: one hash and one probe per *distinct length* —
    /// O(1) in practice — instead of a scan over every connection. The
    /// found connection's bytes decide, not the hash.
    pub(crate) fn probe_ident_prefix(&self, frame: &[u8]) -> Option<(ConnKey, usize)> {
        self.ident_lens.keys().find_map(|&len| {
            let candidate = frame.get(..len)?;
            let hash = self.by_ident.hasher.hash_one(candidate);
            let key = self.by_ident.lookup(hash)? as usize;
            (self.routes[key].ident == candidate).then_some((ConnKey(key), len))
        })
    }

    /// The shortest registered ident length (frames shorter than this
    /// cannot carry any registered ident).
    pub(crate) fn min_ident_len(&self) -> usize {
        self.ident_lens.keys().next().copied().unwrap_or(usize::MAX)
    }

    /// Removes a connection's entries (teardown): its registered ident,
    /// its live cookie binding, and its retired cookies. O(own entries)
    /// — its record names them.
    pub(crate) fn remove(&mut self, key: ConnKey) {
        self.unregister_ident(key);
        let route = &mut self.routes[key.0];
        if let Some(raw) = route.cookie.take() {
            self.by_cookie.remove(raw);
        }
        for &raw in route.take_retired() {
            self.stale_cookies.remove(raw);
            self.stale_stats.removed += 1;
        }
    }

    /// Extracts a connection for migration to another demux shard: its
    /// ident and live binding leave, while the live cookie and any
    /// retired cookies stay behind as *tombstones* — they hash to this
    /// router, so replays of the old route must still be refused here as
    /// stale, bounded by the tombstone cap.
    pub(crate) fn extract(&mut self, key: ConnKey) {
        self.unregister_ident(key);
        let route = &mut self.routes[key.0];
        let cookie = route.cookie.take();
        if let Some(raw) = cookie {
            self.by_cookie.remove(raw);
            self.stale_stats.retired += 1;
        }
        // Retired history first, then the live cookie: the tombstone
        // FIFO evicts oldest-first, and the live cookie is the youngest
        // route worth refusing longest.
        let history = route.take_retired().iter();
        for &raw in history.chain(&cookie) {
            self.tombstone_seq += 1;
            let seq = self.tombstone_seq;
            self.stale_cookies.insert(raw, StaleEntry(slot(key), seq));
            self.tombstones.push_back((raw, seq));
            self.tombstone_live += 1;
        }
        self.enforce_tombstone_cap();
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
    use std::collections::HashMap;

    /// A counting probe, hashed the way the endpoint hashes it.
    fn demux(r: &mut Router, cookie: Cookie) -> CookieLookup {
        let hash = r.cookie_hash(cookie);
        r.demux_cookie(cookie, hash)
    }

    #[test]
    fn a_route_keeps_its_retired_cookies_out_of_line() {
        // 128 B while the eight-cookie history was inline: every
        // connection paid for what only one that re-keys fills.
        let size = std::mem::size_of::<Route>();
        assert!(size <= 64, "size_of::<Route>() = {size}");
    }

    #[test]
    fn ident_then_cookie_flow() {
        let mut r = Router::new();
        let key = ConnKey(3);
        r.register_ident(b"ident-bytes", key);

        // First message: unknown cookie, ident present.
        let c = Cookie::from_raw(42);
        assert_eq!(demux(&mut r, c), CookieLookup::Unknown);
        assert_eq!(
            r.probe_ident_prefix(b"ident-bytes+body"),
            Some((key, b"ident-bytes".len()))
        );
        r.bind_cookie(c, key);

        // Subsequent messages: cookie hits.
        assert_eq!(demux(&mut r, c), CookieLookup::Hit(key));
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
        assert_eq!(demux(&mut r, Cookie::from_raw(2)), CookieLookup::Hit(key));
        assert_eq!(
            demux(&mut r, Cookie::from_raw(1)),
            CookieLookup::Stale(key),
            "retired"
        );
        assert_eq!(demux(&mut r, Cookie::from_raw(3)), CookieLookup::Unknown);
        assert_eq!(r.cookie_count(), 1, "one live binding per connection");
        assert_eq!(r.stale_count(), 1);
        assert_eq!(r.stale_hits, 1);
        assert_eq!(r.misses, 1);

        // Re-binding the retired cookie revives it and retires the other.
        r.bind_cookie(Cookie::from_raw(1), key);
        assert_eq!(demux(&mut r, Cookie::from_raw(1)), CookieLookup::Hit(key));
        assert_eq!(demux(&mut r, Cookie::from_raw(2)), CookieLookup::Stale(key));
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
            demux(&mut r, Cookie::from_raw(10)),
            CookieLookup::Stale(ConnKey(0))
        );
        assert_eq!(
            demux(&mut r, Cookie::from_raw(20)),
            CookieLookup::Hit(ConnKey(1))
        );
        r.remove(ConnKey(0));
        assert_eq!(demux(&mut r, Cookie::from_raw(10)), CookieLookup::Unknown);
        assert_eq!(demux(&mut r, Cookie::from_raw(11)), CookieLookup::Unknown);
    }

    #[test]
    fn remove_clears_both_maps() {
        let mut r = Router::new();
        r.register_ident(b"a", ConnKey(1));
        r.bind_cookie(Cookie::from_raw(9), ConnKey(1));
        r.register_ident(b"b", ConnKey(2));
        r.remove(ConnKey(1));
        assert_eq!(r.probe_ident_prefix(b"a"), None);
        assert_eq!(demux(&mut r, Cookie::from_raw(9)), CookieLookup::Unknown);
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
                    // Four idents over sixteen keys: a peer restart's
                    // pair (two connections expecting one ident) is
                    // the common case here, not the exception.
                    let ident = format!("ident-{}", key.0 % 4).into_bytes();
                    r.register_ident(&ident, key);
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
            for i in 0..4 {
                let ident = format!("ident-{i}").into_bytes();
                assert_eq!(
                    r.probe_ident_prefix(&ident),
                    m.by_ident.get(&ident).map(|&k| (k, ident.len())),
                    "step {step} ident {i}"
                );
            }
            assert!(r.stale_ledger_reconciles(), "step {step}");
        }
        assert!(capped > 0, "the sequence never reached the stale cap");
    }

    /// The live-cookie table at scale: 50 000 random 64-bit cookies
    /// bound to fresh connections, rebound and removed through every
    /// growth from 8 slots to 64 Ki, against a std `HashMap` model. After
    /// every operation the cookie it touched, a sample of other live
    /// ones and a never-bound one resolve as the model says, the count
    /// agrees and the load is at most ¾; at every growth and at the end,
    /// every cookie ever bound is looked up.
    #[test]
    fn cookie_table_matches_a_std_map_at_scale() {
        let mut rng = Rng(0x0C00_C1E5);
        let mut r = Router::new();
        let mut model: HashMap<u64, ConnKey> = HashMap::new();
        // Live connections and their current cookies; every cookie bound.
        let mut live: Vec<(ConnKey, u64)> = Vec::new();
        let mut seen: Vec<u64> = Vec::new();
        let check = |r: &Router, model: &HashMap<u64, ConnKey>, raw: u64| {
            let got = match r.demux_cookie_peek(Cookie::from_raw(raw)) {
                CookieLookup::Hit(k) => Some(k),
                _ => None,
            };
            assert_eq!(got, model.get(&raw).copied(), "cookie {raw:#x}");
        };
        let (mut next_key, mut growths, mut slots) = (0, 0, 0);
        while seen.len() < 50_000 {
            let raw = rng.next();
            if model.contains_key(&raw) {
                continue;
            }
            let touched = match rng.next() % 20 {
                0..=11 => {
                    let key = ConnKey(next_key);
                    next_key += 1;
                    live.push((key, raw));
                    r.bind_cookie(Cookie::from_raw(raw), key);
                    model.insert(raw, key);
                    seen.push(raw);
                    raw
                }
                12..=16 if !live.is_empty() => {
                    let i = (rng.next() % live.len() as u64) as usize;
                    let (key, old) = live[i];
                    live[i].1 = raw;
                    r.bind_cookie(Cookie::from_raw(raw), key);
                    model.remove(&old);
                    model.insert(raw, key);
                    seen.push(raw);
                    check(&r, &model, old);
                    raw
                }
                _ if !live.is_empty() => {
                    let i = (rng.next() % live.len() as u64) as usize;
                    let (key, old) = live.swap_remove(i);
                    r.remove(key);
                    model.remove(&old);
                    old
                }
                _ => continue,
            };
            check(&r, &model, touched);
            for _ in 0..4 {
                if let Some(&(_, other)) = live.get(rng.next() as usize % live.len().max(1)) {
                    check(&r, &model, other);
                }
            }
            check(&r, &model, rng.next() | 1);
            assert_eq!(r.cookie_count(), model.len());
            let map = &r.by_cookie;
            assert!(map.len * 4 <= map.slots.len() * 3, "load over 3/4");
            if map.slots.len() != slots {
                (slots, growths) = (map.slots.len(), growths + 1);
                seen.iter().for_each(|&raw| check(&r, &model, raw));
            }
        }
        seen.iter().for_each(|&raw| check(&r, &model, raw));
        assert!(growths >= 10, "{growths} growths");
        assert!(r.stale_ledger_reconciles());
    }

    /// A removal where the probe sequence wraps from the last slot to
    /// the first: the entries after the hole shift back across the wrap,
    /// each only as far as its own home allows. The keys are hashed
    /// with a fixed-key SipHash so the positions are known.
    #[test]
    fn cookie_table_removal_shifts_back_across_the_wrap() {
        use std::hash::{BuildHasherDefault, DefaultHasher};
        let mut map = CookieMap::<BuildHasherDefault<DefaultHasher>>::default();
        // 8 slots, which 4 entries keep.
        map.grow();
        let home = |map: &CookieMap<_>, raw: u64| map.hash(raw) as usize & 7;
        let with_home = |map: &CookieMap<_>, h: usize, skip: u64| {
            (skip + 1..).find(|&raw| home(map, raw) == h).unwrap()
        };
        let a = with_home(&map, 7, 0);
        let b = with_home(&map, 7, a);
        let c = with_home(&map, 1, 0);
        let d = with_home(&map, 0, 0);
        for (i, raw) in [a, b, c, d].into_iter().enumerate() {
            assert_eq!(map.insert(raw, i as u32), None);
        }
        let at = |map: &CookieMap<_>| map.slots.iter().map(|&(raw, ..)| raw).collect::<Vec<_>>();
        assert_eq!(
            at(&map),
            [b, c, d, 0, 0, 0, 0, a],
            "b wrapped; d probed past c"
        );
        assert_eq!(map.remove(a), Some(0));
        // b moves back to its home across the wrap, c stays at its own,
        // d fills the hole at slot 0.
        assert_eq!(at(&map), [d, c, 0, 0, 0, 0, 0, b]);
        for (raw, key) in [(b, 1), (c, 2), (d, 3)] {
            assert_eq!(map.get(raw, map.hash(raw)), Some(key));
        }
        assert_eq!(map.get(a, map.hash(a)), None);
        // A removal at slot 0 with the cluster starting at 7.
        assert_eq!(map.remove(d), Some(3));
        assert_eq!(at(&map), [0, c, 0, 0, 0, 0, 0, b]);
        assert_eq!(map.get(c, map.hash(c)), Some(2));
        assert_eq!(map.len(), 2);
        // The zero cookie lives beside the array.
        assert_eq!(map.insert(0, 5), None);
        assert_eq!((map.get(0, map.hash(0)), map.len()), (Some(5), 3));
        assert_eq!(map.remove(0), Some(5));
        assert_eq!(map.get(0, map.hash(0)), None);
    }

    /// splitmix64 (offline determinism, no std rand).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
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
        r.register_ident(b"mover", key);
        r.bind_cookie(Cookie::from_raw(7), key);
        r.bind_cookie(Cookie::from_raw(8), key); // 7 retired
        r.extract(key);
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
        r.register_ident(b"shorty", ConnKey(0));
        r.register_ident(b"a-much-longer-ident", ConnKey(1));
        assert_eq!(r.min_ident_len(), 6);
        let frame = b"a-much-longer-ident+payload";
        assert_eq!(r.probe_ident_prefix(frame), Some((ConnKey(1), 19)));
        assert_eq!(r.probe_ident_prefix(b"shortyXX"), Some((ConnKey(0), 6)));
        assert_eq!(r.probe_ident_prefix(b"zzz"), None);
        // Re-registering replaces; unused lengths leave the probe set.
        r.register_ident(b"shorty2", ConnKey(0));
        assert_eq!(r.probe_ident_prefix(b"shortyXX"), None);
        assert_eq!(r.min_ident_len(), 7);
        r.remove(ConnKey(1));
        assert_eq!(r.min_ident_len(), 7);
        assert_eq!(r.probe_ident_prefix(frame), None);
    }
}
