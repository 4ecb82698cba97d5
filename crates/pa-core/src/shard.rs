//! The endpoint: the per-host object that owns connections, routes
//! incoming frames to them (Figure 2's "Router") and multiplexes their
//! outgoing frames toward the network interface — a demux sharded by
//! cookie hash, so the same type serves one connection or a million.
//!
//! The paper's cookie demux (§2.2) makes per-packet lookup one hash
//! probe; this module scales that probe to production populations by
//! splitting the endpoint into `N` independent shards (power of two;
//! `1` is the single-table host), each a crate-private table owning its own
//! connection slots, [`Router`] and buffer pool — no
//! locks, no shared mutable state on the fast path. A cookie-only frame
//! touches exactly one shard: `shard = mix(cookie) & (N-1)`, then that
//! shard's one probe. The cost per frame is flat in `N`
//! (`BENCH_shard.json` gates this).
//!
//! ## One way from the wire to a connection
//!
//! Every entry — [`ShardedEndpoint::from_network`],
//! [`ShardedEndpoint::ingest_wire`],
//! [`ShardedEndpoint::from_network_burst`] — runs the same front,
//! `ShardedEndpoint::front`, over the frame's bytes: decode the
//! preamble, refuse a truncated one and the reserved zero cookie, and
//! for an identified frame find the owning connection, refuse a cookie
//! that is live on a different one, and resolve `(shard, key,
//! ident_len)`. The front is the only code that does any of this; a
//! shard is handed the resolved frame and never probes an ident. The
//! entries differ in where the buffer comes from (the caller's `Msg`,
//! or the home shard's pool), in whether outcomes are returned or
//! tallied, and in that the burst collects cookie-only frames into
//! per-shard segments, so each shard demuxes its frames back to back.
//! Every cookie-only frame, whichever entry it came through, is one
//! probe of its shard's router, and a probe is one cache line, keyed by
//! the router's SipHash as before.
//!
//! A burst fetches ahead: before it ingests its first frame, hint
//! passes over all of them fetch each frame's table line, slot and
//! write targets, so their cache misses overlap (DESIGN.md "A burst
//! stages its demux"). The per-frame step then probes and decides again.
//!
//! ## Finding work
//!
//! Each shard keeps ready sets of the connections that may hold a
//! delivery, a transmit or post work. The drains walk every shard's set
//! in shard order; an empty set costs one test.
//!
//! ## Handles
//!
//! A [`ShardHandle`] names a connection for as long as it is admitted,
//! across migrations. The `Directory` is the only generational slab:
//! it maps a live handle to `(shard, slot)`, and each table slot stores
//! its occupant's handle for the way back (deliveries, idle evictions,
//! migrations). A handle whose connection was removed is refused and
//! counted ([`ShardFrontStats::stale_handle_rejects`]), also after its
//! directory slot is reused.
//!
//! ## Placement and migration
//!
//! The inbound cookie is minted by the *peer*, so a connection's home
//! shard cannot be chosen at admit time — it is wherever its current
//! inbound cookie hashes. New connections are placed provisionally by
//! ident hash; the first verified ident frame binds the real cookie,
//! and if that cookie hashes to a different shard the connection
//! *migrates* there (slow path — ident frames are already the
//! router-mutating slow path; cookie-only traffic never migrates).
//! Retired cookies stay behind as bounded *tombstones* in the shard
//! they hash to, so replays of a dead route are still refused as stale
//! by whichever shard actually receives them.
//!
//! ## Ledger discipline
//!
//! The front keeps its own frame count and reject ledger (frames
//! refused before any shard saw them: truncated preambles, zero
//! cookies, unroutable idents, cookie conflicts). Conservation is exact
//! and checked as `==`:
//!
//! `front_frames == Σ shard.frames_seen + front_rejects.total()`
//!
//! and each shard's own ledger balances (`frames_seen == routed +
//! rejects`), so summing the shard ledgers (the way the telemetry plane
//! folds domain deltas) accounts for every frame globally.

use crate::conn::{Connection, DeliverOutcome, DropReason, SendOutcome};
use crate::router::{ConnKey, CookieLookup, Router};
use crate::table::{AdmitError, BurstDemux, ShardTable, StaleHandle};
use crate::Nanos;
use pa_buf::{Msg, PoolStats};
use pa_obs::RejectLedger;
use pa_wire::{Cookie, EndpointAddr, Preamble, PREAMBLE_LEN};

/// SplitMix64 finalizer: the shard hash. Cookies are random 62-bit
/// values already, but peers mint them — the mix keeps an adversarial
/// peer from steering its own connections onto one shard cheaply.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash ident bytes for provisional placement (FNV-1a folded through
/// the same finalizer).
fn ident_hash(ident: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in ident {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h)
}

/// Stable handle to a connection in a [`ShardedEndpoint`]. It survives
/// migration between shards; it goes stale (refused, counted) when the
/// connection is removed. Opaque: a directory slot in the low half,
/// that slot's generation in the high half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardHandle(u64);

impl ShardHandle {
    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Where a connection lives: `(shard, slot in that shard's table)`.
type Location = (usize, usize);

/// The handle directory: a generational slab mapping each live
/// [`ShardHandle`] to its connection's [`Location`]. Control path only —
/// cookie-only frames never touch it.
#[derive(Debug, Default)]
struct Directory {
    /// `(generation, location)`; the location is `None` while free.
    slots: Vec<(u32, Option<Location>)>,
    free: Vec<u32>,
}

impl Directory {
    fn insert(&mut self, loc: Location) -> ShardHandle {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            self.slots.len() as u32 - 1
        });
        let (generation, slot) = &mut self.slots[idx as usize];
        *slot = Some(loc);
        ShardHandle((*generation as u64) << 32 | idx as u64)
    }

    fn get(&self, h: ShardHandle) -> Option<Location> {
        let &(generation, loc) = self.slots.get(h.slot())?;
        loc.filter(|_| generation == h.generation())
    }

    /// Records that live handle `h`'s connection moved to `loc`.
    fn relocate(&mut self, h: ShardHandle, loc: Location) {
        debug_assert!(self.get(h).is_some(), "relocating a stale handle");
        self.slots[h.slot()].1 = Some(loc);
    }

    /// Frees `h`'s slot under a bumped generation, so `h` goes stale.
    fn remove(&mut self, h: ShardHandle) {
        if self.get(h).is_some() {
            let (generation, loc) = &mut self.slots[h.slot()];
            *generation = generation.wrapping_add(1);
            *loc = None;
            self.free.push(h.slot() as u32);
        }
    }
}

/// An application message delivered by some connection.
#[derive(Debug)]
pub struct ShardDelivery {
    /// The connection it arrived on.
    pub conn: ShardHandle,
    /// The shard that delivered it (recycle the buffer there).
    pub shard: usize,
    /// The message payload.
    pub msg: Msg,
}

/// Front counters (everything that happens before a frame reaches a
/// shard, plus lifecycle the shards cannot see).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardFrontStats {
    /// Frames handed to the endpoint.
    pub frames: u64,
    /// Connections migrated between shards (re-key landed elsewhere).
    pub migrations: u64,
    /// Operations refused through a stale [`ShardHandle`] (the misroute
    /// the generational handles exist to stop).
    pub stale_handle_rejects: u64,
}

/// What the front resolved about one frame, from its bytes alone.
struct Routed {
    preamble: Preamble,
    /// The shard the frame's cookie hashes to: where a cookie-only
    /// frame is demuxed, and where an identified frame's connection
    /// belongs once the frame is verified.
    home: usize,
    /// For an identified frame: the shard that owns the connection now,
    /// its key there, and the ident's length.
    ident: Option<(usize, ConnKey, usize)>,
}

/// A host endpoint: `N` shard tables behind one wire-facing front.
#[derive(Debug)]
pub struct ShardedEndpoint {
    shards: Vec<ShardTable>,
    mask: u64,
    dir: Directory,
    /// Frames refused at the front, before any shard saw them.
    front_rejects: RejectLedger,
    front: ShardFrontStats,
    /// Per-shard cookie segments for the burst path: each frame with
    /// its cookie's hash in its home router (kept across bursts so
    /// steady state allocates nothing).
    seg_scratch: Vec<Vec<(Preamble, u64, Msg)>>,
    /// `(shard, slot)` of every segment frame whose cookie is live: what
    /// the burst's later hint passes fetch for (kept across bursts).
    hint_scratch: Vec<(usize, usize)>,
    /// Shard the next [`ShardedEndpoint::poll_transmit_burst`] starts
    /// at: the one after the shard the last call was cut off in.
    tx_next: usize,
}

impl ShardedEndpoint {
    /// Creates an endpoint with `shards` shards (a power of two; `1`
    /// for a host whose population fits one table).
    pub fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        ShardedEndpoint {
            shards: (0..shards).map(|_| ShardTable::new()).collect(),
            mask: shards as u64 - 1,
            dir: Directory::default(),
            front_rejects: RejectLedger::default(),
            front: ShardFrontStats::default(),
            seg_scratch: (0..shards).map(|_| Vec::new()).collect(),
            hint_scratch: Vec::new(),
            tx_next: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a cookie hashes to.
    #[inline]
    pub fn shard_of(&self, cookie: Cookie) -> usize {
        (mix(cookie.raw()) & self.mask) as usize
    }

    fn shard_of_ident(&self, ident: &[u8]) -> usize {
        (ident_hash(ident) & self.mask) as usize
    }

    /// Read access to one shard (ledgers, router stats).
    pub fn shard(&self, i: usize) -> &ShardTable {
        &self.shards[i]
    }

    /// One shard's buffer-pool counters.
    pub fn shard_pool_stats(&self, i: usize) -> PoolStats {
        self.shards[i].pool.stats()
    }

    /// One shard's idle (free-list) buffer count.
    pub fn shard_pool_idle(&self, i: usize) -> usize {
        self.shards[i].pool.idle()
    }

    /// Front counters.
    pub fn front_stats(&self) -> &ShardFrontStats {
        &self.front
    }

    /// Frames refused at the front, before any shard saw them.
    pub fn front_rejects(&self) -> &RejectLedger {
        &self.front_rejects
    }

    // ---- lifecycle ---------------------------------------------------

    /// Evict connections idle strictly longer than `timeout` on each
    /// [`ShardedEndpoint::tick`] (`None` disables the sweep). Activity
    /// is a routed inbound frame or an application send.
    pub fn set_idle_timeout(&mut self, timeout: Option<Nanos>) {
        for s in &mut self.shards {
            s.set_idle_timeout(timeout);
        }
    }

    /// Caps accepts per tick *per shard* (accept-storm valve; `None` =
    /// unbudgeted).
    pub fn set_accept_budget_per_shard(&mut self, budget: Option<u32>) {
        for s in &mut self.shards {
            s.set_accept_budget(budget);
        }
    }

    /// Adds a connection (trusted local path, unbudgeted), provisionally
    /// placed by ident hash until its first verified frame reveals
    /// where its cookie lives.
    pub fn add_connection(&mut self, conn: Connection) -> ShardHandle {
        let shard = self.shard_of_ident(conn.expected_ident());
        let dir = &mut self.dir;
        self.shards[shard].add(conn, |slot| dir.insert((shard, slot)))
    }

    /// Admission-controlled accept: refuses past the placement shard's
    /// budget for this tick ([`AdmitError::Deferred`]), handing the
    /// connection back for a retry. A refusal is counted.
    // The Err variant carries the refused Connection back on purpose.
    #[allow(clippy::result_large_err)]
    pub fn try_accept(&mut self, conn: Connection) -> Result<ShardHandle, AdmitError> {
        let shard = self.shard_of_ident(conn.expected_ident());
        let dir = &mut self.dir;
        self.shards[shard].try_accept(conn, |slot| dir.insert((shard, slot)))
    }

    /// Where live handle `h`'s connection is; a stale handle is counted
    /// and refused.
    fn resolve(&mut self, h: ShardHandle) -> Result<Location, StaleHandle> {
        self.dir.get(h).ok_or_else(|| {
            self.front.stale_handle_rejects += 1;
            StaleHandle
        })
    }

    /// Removes a connection, wherever it currently lives, and returns
    /// it for draining. Its router entries go (O(its own entries)), its
    /// stats fold into the shard's retired accumulator so endpoint
    /// totals stay exact, and `h` goes stale.
    pub fn remove_connection(&mut self, h: ShardHandle) -> Result<Connection, StaleHandle> {
        let (shard, slot) = self.resolve(h)?;
        self.dir.remove(h);
        Ok(self.shards[shard].remove(slot))
    }

    /// Sends `payload` on connection `h`; a stale handle is counted and
    /// refused.
    pub fn try_send(&mut self, h: ShardHandle, payload: &[u8]) -> Result<SendOutcome, StaleHandle> {
        let (shard, slot) = self.resolve(h)?;
        Ok(self.shards[shard].send(slot, payload))
    }

    /// Access a connection through a live handle (`None` if stale).
    pub fn try_conn(&self, h: ShardHandle) -> Option<&Connection> {
        let (shard, slot) = self.dir.get(h)?;
        Some(self.shards[shard].conn(slot))
    }

    /// Mutable access through a live handle; a stale handle is counted
    /// and refused.
    pub fn try_conn_mut(&mut self, h: ShardHandle) -> Result<&mut Connection, StaleHandle> {
        let (shard, slot) = self.resolve(h)?;
        Ok(self.shards[shard].conn_mut(slot))
    }

    /// The shard a live connection currently occupies.
    pub fn shard_of_conn(&self, h: ShardHandle) -> Option<usize> {
        self.dir.get(h).map(|(s, _)| s)
    }

    /// Live connections across all shards.
    pub fn connection_count(&self) -> usize {
        self.shards.iter().map(|s| s.connection_count()).sum()
    }

    /// Advances time on every shard: per-connection timers, idle
    /// eviction (an evicted connection's handle goes stale), and the
    /// per-tick accept budgets reset.
    pub fn tick(&mut self, now: Nanos) {
        let mut evicted = Vec::new();
        for shard in &mut self.shards {
            shard.tick(now, &mut evicted);
        }
        for h in evicted {
            self.dir.remove(h);
        }
    }

    // ---- demux -------------------------------------------------------

    fn front_reject(&mut self, reason: DropReason) -> DeliverOutcome {
        self.front_rejects.bump(reason);
        DeliverOutcome::Dropped(reason)
    }

    /// The demux front — the one place a frame is judged by its bytes
    /// (`bytes` starts at the preamble). Counts the frame, then either
    /// refuses it (counted in the front ledger; the `Err` is the
    /// outcome to report) or resolves where it goes.
    fn front(&mut self, bytes: &[u8]) -> Result<Routed, DeliverOutcome> {
        self.front.frames += 1;
        let Ok(preamble) = Preamble::decode(bytes) else {
            return Err(self.front_reject(DropReason::TruncatedPreamble));
        };
        // The reserved all-zero cookie cannot be minted by a legitimate
        // sender; a frame carrying it is a forgery regardless of what
        // else it claims.
        if preamble.cookie.is_zero() {
            return Err(self.front_reject(DropReason::ZeroCookie));
        }
        let home = self.shard_of(preamble.cookie);
        if !preamble.conn_ident_present {
            return Ok(Routed {
                preamble,
                home,
                ident: None,
            });
        }
        // Ident length depends on the connection's layout; connections
        // share a stack shape in practice, but we must not assume it.
        // Each router keeps the set of registered ident lengths, so the
        // probe is one map lookup per distinct length per shard.
        let body = &bytes[PREAMBLE_LEN..];
        let owner = self.shards.iter().enumerate().find_map(|(s, shard)| {
            let (key, len) = shard.router().probe_ident_prefix(body)?;
            Some((s, key, len))
        });
        let Some((owner, key, ident_len)) = owner else {
            // The frame *claimed* an ident; if it is even too short to
            // carry any registered one, call it truncated rather than
            // foreign.
            let min_ident = self.shards.iter().map(|s| s.router().min_ident_len()).min();
            let truncated = min_ident.is_some_and(|min| min != usize::MAX && body.len() < min);
            return Err(self.front_reject(if truncated {
                DropReason::TruncatedIdent
            } else {
                DropReason::ForeignIdent
            }));
        };
        // A cookie already bound to a *different* live connection must
        // not be re-bound on the say-so of an ident frame: idents are
        // replayable public bytes, and honoring the rebind would let a
        // forger squat connection Y's cookie route from connection X's
        // ident (and retire Y's real cookie as stale). Legitimate
        // rebinds (peer restart, new epoch) always mint a fresh, unbound
        // cookie. The cookie can only be live in the shard it hashes to.
        if let CookieLookup::Hit(bound) = self.shards[home]
            .router()
            .demux_cookie_peek(preamble.cookie)
        {
            if (home, bound) != (owner, key) {
                return Err(self.front_reject(DropReason::CookieConflict));
            }
        }
        Ok(Routed {
            preamble,
            home,
            ident: Some((owner, key, ident_len)),
        })
    }

    /// Hands one resolved frame (preamble still in front) to its shard.
    /// An identified frame takes the slow path: processed by the shard
    /// that owns the connection, and only once the connection has
    /// *verified* it is its cookie bound (`Connection::bind_verified`,
    /// the one rule) and, if that cookie hashes elsewhere, the
    /// connection migrated. Migrating first would let any frame that
    /// merely replays a public ident force migrations without ever
    /// passing verification.
    fn hand_off(&mut self, routed: Routed, frame: Msg) -> DeliverOutcome {
        let Routed {
            preamble,
            home,
            ident,
        } = routed;
        let Some((owner, key, ident_len)) = ident else {
            let hash = self.shards[home].router().cookie_hash(preamble.cookie);
            return self.shards[home].ingest_cookie(preamble, hash, frame);
        };
        let outcome = self.shards[owner].ingest_ident(key, ident_len, preamble, frame);
        if self.shards[owner].bind_verified(preamble.cookie, key, &outcome) && home != owner {
            self.migrate(owner, key, home, preamble.cookie);
        }
        outcome
    }

    /// Moves a connection to the shard its freshly-bound cookie hashes
    /// to. The old shard keeps the connection's dead cookies as bounded
    /// tombstones (they hash there; replays must be refused there); the
    /// new cookie binds in the target shard's router. Queued work
    /// travels with the connection.
    fn migrate(&mut self, from: usize, key: ConnKey, to: usize, cookie: Cookie) {
        let (conn, handle) = self.shards[from].extract(key);
        let dir = &mut self.dir;
        self.shards[to].adopt(conn, cookie, |slot| {
            dir.relocate(handle, (to, slot));
            handle
        });
        self.front.migrations += 1;
    }

    /// Routes and processes one frame from the network (Figure 3's
    /// `from_network()`; the connection it routes to does the rest). A
    /// cookie-only frame touches exactly one shard — one mix plus that
    /// shard's hash probe.
    pub fn from_network(&mut self, frame: Msg) -> DeliverOutcome {
        match self.front(frame.as_slice()) {
            Ok(routed) => self.hand_off(routed, frame),
            Err(refused) => refused,
        }
    }

    /// [`ShardedEndpoint::from_network`] for wire bytes: the frame
    /// buffer comes from the pool of the shard the cookie hashes to
    /// (per-shard recycling — no cross-shard buffer traffic on the fast
    /// path), and a frame the front refuses never takes one.
    pub fn ingest_wire(&mut self, bytes: &[u8]) -> DeliverOutcome {
        match self.front(bytes) {
            Ok(routed) => {
                let frame = self.shards[routed.home].pool.take_with(bytes);
                self.hand_off(routed, frame)
            }
            Err(refused) => refused,
        }
    }

    /// Returns a delivered buffer to the pool of the shard that
    /// delivered it (completes the per-shard recycle loop).
    pub fn recycle_delivery(&mut self, d: ShardDelivery) {
        self.shards[d.shard].pool.put(d.msg);
    }

    /// Demuxes every open cookie segment. Hint passes over the whole
    /// burst come first, each prefetching what the next one reads, so
    /// the frames' cache misses overlap instead of queueing one behind
    /// another; then each shard's frames take the per-frame step back to
    /// back in arrival order. The front's loop was the first pass: each
    /// frame's table line is in flight. A lone frame has no other
    /// frame's misses to overlap, and skips the passes.
    fn flush_segments(&mut self, segs: &mut [Vec<(Preamble, u64, Msg)>], report: &mut BurstDemux) {
        // Second: probe each cookie (its line fetched) and fetch the slot.
        let hits = &mut self.hint_scratch;
        hits.clear();
        if segs.iter().map(Vec::len).sum::<usize>() > 1 {
            for (s, (shard, seg)) in self.shards.iter().zip(segs.iter()).enumerate() {
                for &(preamble, hash, _) in seg.iter() {
                    hits.extend(shard.hint_slot(preamble.cookie, hash).map(|idx| (s, idx)));
                }
            }
        }
        // Third: the heap lines a fast delivery writes; fourth: the image
        // buffer whose free-list entry the third fetched.
        for image in [false, true] {
            for &(s, idx) in hits.iter() {
                self.shards[s].hint_delivery(idx, image);
            }
        }
        for (shard, seg) in self.shards.iter_mut().zip(segs) {
            if seg.is_empty() {
                continue;
            }
            let routed = shard.routed_frames();
            for (preamble, hash, frame) in seg.drain(..) {
                report.tally(&shard.ingest_cookie(preamble, hash, frame));
            }
            report.routed += shard.routed_frames() - routed;
        }
    }

    /// Routes and processes a whole burst (draining `frames` front to
    /// back). Every frame passes the same front as
    /// [`ShardedEndpoint::from_network`], takes the same per-frame step
    /// and gets the same outcome, and every counter moves exactly as if
    /// it had been called frame by frame (asserted by exact `==`).
    /// Cookie-only frames are bucketed into per-shard segments, each with
    /// its cookie's hash and its table line in flight; the hint passes
    /// then fetch every frame's slot and write targets, and each shard
    /// demuxes its segment back to back, one probe a frame (a plain loop
    /// over `from_network` measured slower: DESIGN.md, "Why burst is the
    /// body"; the hints, EXPERIMENTS.md E-stage). An ident frame can
    /// rebind routers and migrate connections, so every open segment is
    /// flushed before it is handed off: per-connection order holds.
    pub fn from_network_burst(&mut self, frames: &mut Vec<Msg>) -> BurstDemux {
        let mut report = BurstDemux {
            frames: frames.len() as u64,
            ..Default::default()
        };
        // Detached so `self` stays borrowable; capacity is retained
        // across bursts.
        let mut segs = std::mem::take(&mut self.seg_scratch);
        for frame in frames.drain(..) {
            match self.front(frame.as_slice()) {
                Err(refused) => report.tally(&refused),
                Ok(Routed {
                    preamble,
                    home,
                    ident: None,
                }) => {
                    let router = self.shards[home].router();
                    let hash = router.cookie_hash(preamble.cookie);
                    router.prefetch_cookie(hash);
                    segs[home].push((preamble, hash, frame));
                }
                Ok(routed) => {
                    self.flush_segments(&mut segs, &mut report);
                    report.routed += 1;
                    let outcome = self.hand_off(routed, frame);
                    report.tally(&outcome);
                }
            }
        }
        self.flush_segments(&mut segs, &mut report);
        self.seg_scratch = segs;
        report
    }

    // ---- drains ------------------------------------------------------

    /// Drains delivered application messages into `out`, tagged with
    /// their stable handle and delivering shard; returns how many.
    /// Every shard is visited once, in shard order, and within a shard
    /// only the connections on its delivery ready set, so the call costs
    /// one emptiness test a shard plus what the traffic touched — not
    /// O(connections). Messages of one connection keep their order;
    /// within a shard, connections come out in the order they became
    /// ready.
    pub fn drain_deliveries(&mut self, out: &mut Vec<ShardDelivery>) -> usize {
        let mut n = 0;
        for (si, shard) in self.shards.iter_mut().enumerate() {
            n += shard.drain_deliveries(si, out);
        }
        n
    }

    /// Drains up to `max` outgoing frames into `out` (caller-owned
    /// scratch), each with its destination; returns how many were
    /// appended. Every shard is visited once, and within a shard only
    /// the connections on its transmit ready set, in the order they
    /// became ready; all frames of one connection come out in its queue
    /// order. A connection cut off at
    /// `max` stays at the head of its shard's set, and the next call
    /// starts at the following shard: a host with a bounded `max` per
    /// loop serves the shards in turn, whichever of them keep refilling.
    pub fn poll_transmit_burst(&mut self, max: usize, out: &mut Vec<(EndpointAddr, Msg)>) -> usize {
        let mut n = 0;
        for i in 0..self.shards.len() {
            if n == max {
                break;
            }
            let si = (self.tx_next + i) & self.mask as usize;
            n += self.shards[si].poll_transmit_burst(max - n, out);
            if n == max {
                self.tx_next = (si + 1) & self.mask as usize;
            }
        }
        n
    }

    /// Runs deferred post-processing on every connection that may owe
    /// any.
    pub fn process_all_pending(&mut self) {
        for shard in &mut self.shards {
            shard.process_all_pending();
        }
    }

    // ---- conservation ------------------------------------------------

    /// Total frames handed to shards (each shard's own ledger accounts
    /// for them from there).
    pub fn shard_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_seen()).sum()
    }

    /// The demux conservation law, exact: every frame the front saw was
    /// either refused at the front or handed to exactly one shard, and
    /// every shard's own demux ledger balances (routed to exactly one
    /// connection, or refused with exactly one reason).
    pub fn demux_balanced(&self) -> bool {
        self.front.frames == self.shard_frames() + self.front_rejects.total()
            && self.shards.iter().all(|s| s.demux_balanced())
    }

    /// The progress invariant, by full scan (a harness check, not a
    /// hot-path call): in every shard, each live connection holding a
    /// delivery, a transmit or post work is on the matching ready set —
    /// so the next drain of that queue reaches it — and no slot is
    /// queued twice. Conservation ledgers cannot see a stranded
    /// delivery; this can.
    pub fn ready_balanced(&self) -> bool {
        self.shards.iter().all(|s| s.ready_balanced())
    }

    /// All demux-level rejections: front refusals plus each shard's
    /// ledger, folded the way the telemetry plane folds domain deltas.
    pub fn global_rejects(&self) -> RejectLedger {
        let mut total = self.front_rejects;
        for s in &self.shards {
            total.merge(s.rejects());
        }
        total
    }

    /// What every connection this endpoint has held did off the fast
    /// path: live connections and removed ones, folded over the shards.
    /// Its attribution totals equal the `endpoint` scope's `slow_sends +
    /// queued_sends + slow_deliveries` of
    /// [`ShardedEndpoint::metrics_snapshot`]; render it with
    /// [`pa_obs::Fleet::report`] (fields stay positional — stacks may
    /// differ across the fleet).
    pub fn fleet(&self) -> pa_obs::Fleet {
        let mut fleet = pa_obs::Fleet::default();
        for shard in &self.shards {
            shard.fold_into(&mut fleet);
        }
        fleet
    }

    /// Captures every counter this endpoint can see into one unified
    /// [`pa_obs::MetricsSnapshot`]: each connection's [`ConnStats`]
    /// under scope `conn<N>` (`N` is the handle's directory slot, stable
    /// across migrations), the routers' demux counters summed under
    /// `router`, frame and lifecycle accounting under `demux`,
    /// cross-connection totals under `endpoint` (live connections plus
    /// the retired accumulators, so churn never loses a count), and the
    /// process-wide stack-plan registry under `plan` (`plans_live`,
    /// `plan_hits`, `plan_builds`: a host whose builds keep pace with
    /// its admissions is compiling a stack per connection).
    /// Snapshot twice and call [`pa_obs::MetricsSnapshot::delta`] to
    /// see what one phase of a run did.
    ///
    /// [`ConnStats`]: crate::ConnStats
    pub fn metrics_snapshot(&self, at: Nanos) -> pa_obs::MetricsSnapshot {
        let mut snap = pa_obs::MetricsSnapshot::new(at);
        // Cross-connection totals, accumulated positionally
        // (`ConnStats::fields()` order is the contract), seeded with
        // the retired accumulators so removed connections still count.
        let mut sums = [0u64; crate::ConnStats::FIELD_COUNT];
        for shard in &self.shards {
            for (h, conn) in shard.conns() {
                record_conn(&mut snap, &format!("conn{}", h.slot()), conn);
                for (acc, (_, v)) in sums.iter_mut().zip(conn.stats().fields()) {
                    *acc += v;
                }
            }
            for (acc, v) in sums.iter_mut().zip(shard.retired_stats()) {
                *acc += v;
            }
        }
        let router = |f: fn(&Router) -> u64| self.shards.iter().map(|s| f(s.router())).sum();
        snap.record("router", "cookie_hits", router(|r| r.cookie_hits));
        snap.record("router", "ident_hits", router(|r| r.ident_hits));
        snap.record("router", "stale_hits", router(|r| r.stale_hits));
        snap.record("router", "misses", router(|r| r.misses));
        snap.record(
            "router",
            "cookie_bindings",
            router(|r| r.cookie_count() as u64),
        );
        snap.record(
            "router",
            "stale_cookies",
            router(|r| r.stale_count() as u64),
        );
        snap.record(
            "router",
            "ident_bindings",
            router(|r| r.ident_count() as u64),
        );
        snap.record("router", "stale_retired", router(|r| r.stale_stats.retired));
        snap.record("router", "stale_revived", router(|r| r.stale_stats.revived));
        snap.record("router", "stale_evicted", router(|r| r.stale_stats.evicted));
        snap.record("router", "stale_removed", router(|r| r.stale_stats.removed));
        snap.record(
            "router",
            "stale_tombstones",
            router(|r| r.tombstone_count() as u64),
        );
        // Demux-level accounting: frames refused before any connection
        // saw them, scoped apart from the per-connection ledgers.
        snap.record("demux", "frames_seen", self.front.frames);
        let routed = self.shards.iter().map(|s| s.routed_frames()).sum();
        snap.record("demux", "routed", routed);
        self.global_rejects().record_into(&mut snap, "demux");
        // Lifecycle accounting (scoped under "demux" to keep the
        // "endpoint" scope an exact positional sum of ConnStats fields).
        let life = |f: fn(&crate::LifecycleStats) -> u64| {
            self.shards.iter().map(|s| f(s.lifecycle())).sum::<u64>()
        };
        snap.record("demux", "conns_live", self.connection_count() as u64);
        snap.record("demux", "conns_admitted", life(|l| l.admitted));
        snap.record("demux", "conns_removed", life(|l| l.removed));
        snap.record("demux", "conns_evicted_idle", life(|l| l.evicted_idle));
        snap.record("demux", "conns_migrated_out", life(|l| l.migrated_out));
        snap.record("demux", "conns_migrated_in", life(|l| l.migrated_in));
        snap.record(
            "demux",
            "admission_deferred",
            life(|l| l.admission_deferred),
        );
        snap.record(
            "demux",
            "stale_handle_rejects",
            self.front.stale_handle_rejects,
        );
        let names = crate::ConnStats::default().fields();
        for ((name, _), sum) in names.iter().zip(sums) {
            snap.record("endpoint", name, sum);
        }
        crate::plan::record_into(&mut snap, "plan");
        snap
    }
}

/// One connection's rows of [`ShardedEndpoint::metrics_snapshot`].
fn record_conn(snap: &mut pa_obs::MetricsSnapshot, scope: &str, conn: &Connection) {
    conn.stats().record_into(snap, scope);
    // Buffer-pool economics (§6 recycling) and fused-filter compile
    // accounting ride the same registry so one snapshot answers both
    // "what did the wire do" and "what did it cost in buffers".
    let ps = conn.pool_stats();
    snap.record(scope, "pool_hits", ps.hits);
    snap.record(scope, "pool_misses", ps.misses);
    snap.record(scope, "pool_returns", ps.returns);
    snap.record(scope, "pool_idle", conn.pool_idle() as u64);
    let (fuses, sf, rf) = conn.fuse_stats();
    snap.record(scope, "filter_fuses", fuses);
    snap.record(scope, "filter_fused_ops", (sf.ops + rf.ops) as u64);
    snap.record(
        scope,
        "filter_bit_fallback_ops",
        (sf.bit_fallback + rf.bit_fallback) as u64,
    );
    // Trace-ring overflow: a probe ring quietly overwriting its oldest
    // records is lost forensic data — surface it in the registry like
    // every other bounded structure.
    if let Some(ring) = conn.probe().trace_ring() {
        snap.record(scope, "trace_records_retained", ring.len() as u64);
        snap.record(scope, "trace_records_overwritten", ring.overwritten());
    }
}

#[cfg(test)]
mod tests {
    //! The endpoint suite. Every case runs at one shard (the
    //! single-table host) and at eight, from [`at_each_shard_count`]:
    //! the behaviour is one endpoint's, whatever the shard count.

    use super::*;
    use crate::config::PaConfig;
    use crate::conn::ConnectionParams;
    use crate::layer::NullLayer;
    use pa_obs::XrayOp;

    fn at_each_shard_count(case: impl Fn(usize)) {
        for shards in [1, 8] {
            case(shards);
        }
    }

    fn conn_with(config: PaConfig, a: u64, b: u64, seed: u64) -> Connection {
        Connection::new(
            vec![Box::new(NullLayer)],
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(a, 1),
                EndpointAddr::from_parts(b, 1),
                seed,
            ),
        )
        .unwrap()
    }

    fn null_conn(a: u64, b: u64, seed: u64) -> Connection {
        conn_with(PaConfig::paper_default(), a, b, seed)
    }

    /// The server address every case uses.
    const SERVER: u64 = 10;

    /// The remote half of a connection to [`SERVER`], and the server's
    /// half to admit.
    fn pair(peer: u64) -> (Connection, Connection) {
        (
            null_conn(peer, SERVER, peer * 7 + 1),
            null_conn(SERVER, peer, peer * 7 + 2),
        )
    }

    /// Sends `payload` from a client and returns the one frame it puts
    /// on the wire, with the client's post work done.
    fn frame_of(client: &mut Connection, payload: &[u8]) -> Msg {
        client.send(payload);
        let f = client.poll_transmit().expect("one frame per send");
        client.process_pending();
        f
    }

    fn drain(server: &mut ShardedEndpoint) -> Vec<ShardDelivery> {
        let mut out = Vec::new();
        server.drain_deliveries(&mut out);
        out
    }

    /// A router counter summed over the shards.
    fn routers(server: &ShardedEndpoint, f: fn(&Router) -> u64) -> u64 {
        (0..server.shard_count())
            .map(|i| f(server.shard(i).router()))
            .sum()
    }

    /// The live route of `cookie`, looked up where it hashes.
    fn route_of(server: &ShardedEndpoint, cookie: Cookie) -> CookieLookup {
        server
            .shard(server.shard_of(cookie))
            .router()
            .demux_cookie_peek(cookie)
    }

    /// Rewrites the cookie of an encoded frame, keeping its flag bits.
    fn with_cookie(frame: &Msg, cookie: u64) -> Vec<u8> {
        let mut bytes = frame.to_wire();
        let word = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        let flags = word & (0b11u64 << 62);
        bytes[..8].copy_from_slice(&(flags | cookie).to_be_bytes());
        bytes
    }

    #[test]
    fn roundtrip_places_the_connection_where_its_cookie_hashes() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            let sh = server.add_connection(twin);

            // First frame (ident): routes wherever the conn was placed,
            // then the verified cookie decides the real home shard.
            let out = server.from_network(frame_of(&mut c, b"hello"));
            assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
            let home = server.shard_of(c.local_cookie());
            assert_eq!(server.shard_of_conn(sh), Some(home));

            // Cookie-only traffic: exactly the home shard sees it.
            let before = server.shard(home).frames_seen();
            let out = server.from_network(frame_of(&mut c, b"steady"));
            assert!(!matches!(out, DeliverOutcome::Dropped(_)));
            assert_eq!(server.shard(home).frames_seen(), before + 1);

            let got = drain(&mut server);
            assert_eq!(got.len(), 2);
            assert!(got.iter().all(|d| d.conn == sh && d.shard == home));
            assert_eq!(got[0].msg.as_slice(), b"hello");
            assert_eq!(got[1].msg.as_slice(), b"steady");

            // And the way back: the server's reply reaches the client.
            server.try_send(sh, b"hello yourself").unwrap();
            let mut tx = Vec::new();
            assert_eq!(server.poll_transmit_burst(usize::MAX, &mut tx), 1);
            let (dest, frame) = tx.pop().unwrap();
            assert_eq!(dest, EndpointAddr::from_parts(1, 1));
            c.deliver_frame(frame);
            assert_eq!(c.poll_delivery().unwrap().as_slice(), b"hello yourself");
            assert!(server.demux_balanced() && server.ready_balanced());
        });
    }

    #[test]
    fn cookie_learned_after_first_identified_frame() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            server.add_connection(twin);

            server.from_network(frame_of(&mut c, b"one"));
            assert_eq!(routers(&server, |r| r.ident_hits), 1);
            assert_eq!(routers(&server, |r| r.cookie_hits), 0);

            let out = server.from_network(frame_of(&mut c, b"two"));
            assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
            assert_eq!(routers(&server, |r| r.ident_hits), 1);
            assert_eq!(routers(&server, |r| r.cookie_hits), 1);
        });
    }

    #[test]
    fn frames_for_nobody_are_refused_with_one_reason_each() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (_, twin) = pair(1);
            server.add_connection(twin);

            // A cookie-only frame with no prior ident: the first,
            // identified frame is lost (§2.2's "lost first message").
            let mut mute = conn_with(PaConfig::paper_default(), 1, SERVER, 3);
            drop(frame_of(&mut mute, b"lost"));
            assert_eq!(
                server.from_network(frame_of(&mut mute, b"who?")),
                DeliverOutcome::Dropped(DropReason::UnknownCookie)
            );
            // A connection addressed to endpoint 9, not the server.
            let mut eve = null_conn(1, 9, 4);
            let misdelivered = frame_of(&mut eve, b"misdelivered");
            assert_eq!(
                server.from_network(misdelivered.clone()),
                DeliverOutcome::Dropped(DropReason::ForeignIdent)
            );
            // The same claim, cut off inside the ident.
            let mut cut = misdelivered.to_wire();
            cut.truncate(PREAMBLE_LEN + 3);
            assert_eq!(
                server.ingest_wire(&cut),
                DeliverOutcome::Dropped(DropReason::TruncatedIdent)
            );
            assert_eq!(
                server.from_network(Msg::from_wire(vec![1, 2, 3])),
                DeliverOutcome::Dropped(DropReason::TruncatedPreamble)
            );
            assert_eq!(
                server.from_network(Msg::from_wire(vec![0; 32])),
                DeliverOutcome::Dropped(DropReason::ZeroCookie)
            );
            assert_eq!(server.global_rejects().total(), 5);
            // Only the unknown cookie reached a shard.
            assert_eq!(server.front_rejects().total(), 4);
            assert!(server.demux_balanced());
        });
    }

    /// Regression (found by the pa-fuzz splice mutator): an ident frame
    /// carrying a cookie already bound to a *different* connection used
    /// to rebind it — squatting the victim's cookie route and retiring
    /// its real cookie as stale, so the victim's traffic could be
    /// steered or starved with nothing but replayed public idents.
    #[test]
    fn cookie_bound_to_another_conn_cannot_be_rebound_by_ident() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c1, twin1) = pair(1);
            let (mut c2, twin2) = pair(2);
            server.add_connection(twin1);
            let victim = server.add_connection(twin2);

            // Both clients establish; their cookies bind.
            server.from_network(frame_of(&mut c1, b"one"));
            server.from_network(frame_of(&mut c2, b"two"));
            let c2_cookie = c2.local_cookie();
            let route = route_of(&server, c2_cookie);
            assert!(matches!(route, CookieLookup::Hit(_)));
            let migrations = server.front_stats().migrations;

            // Forgery: client 1's next ident frame, rewritten to carry
            // client 2's live cookie in the preamble.
            c1.force_ident_next();
            let forged = with_cookie(&frame_of(&mut c1, b"hijack attempt"), c2_cookie.raw());
            assert_ne!(forged[0] & 0x80, 0, "forged frame must claim an ident");
            let out = server.from_network(Msg::from_wire(forged));
            assert_eq!(out, DeliverOutcome::Dropped(DropReason::CookieConflict));

            // Client 2's route is untouched: not retired, still live,
            // still its own.
            assert_eq!(route_of(&server, c2_cookie), route);
            assert_eq!(server.front_stats().migrations, migrations);
            drain(&mut server);
            server.from_network(frame_of(&mut c2, b"still mine"));
            let got = drain(&mut server);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].conn, victim);
            assert!(server.demux_balanced());
        });
    }

    /// Regression (same fuzz campaign): the demux used to bind the
    /// preamble cookie *before* the connection verified the frame, so
    /// a replayed ident with an attacker-chosen cookie and a garbage
    /// body would still squat the cookie route (and retire the real
    /// cookie as stale) even though the frame itself was refused.
    #[test]
    fn rejected_ident_frame_does_not_bind_its_cookie_or_migrate() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            let sh = server.add_connection(twin);

            // Establish: the real cookie binds.
            server.from_network(frame_of(&mut c, b"legit"));
            let real = c.local_cookie();
            assert!(matches!(route_of(&server, real), CookieLookup::Hit(_)));
            let (home, migrations) = (server.shard_of_conn(sh), server.front_stats().migrations);

            // Attack: replay the ident under forged cookies (enough of
            // them to hash to every shard) with a body that cannot pass
            // the connection's checks: preamble + ident only.
            c.force_ident_next();
            let replay = frame_of(&mut c, b"replayable public bytes");
            for i in 0..32u64 {
                let forged_cookie = (0x0BAD_5EED_0BAD_5EED + i * 0x0101) & !(0b11u64 << 62);
                let mut bytes = with_cookie(&replay, forged_cookie);
                bytes.truncate(PREAMBLE_LEN + c.expected_ident().len());
                let out = server.from_network(Msg::from_wire(bytes));
                // The front *routes* it (ident matches) but the
                // connection refuses the bodyless frame — the exact
                // reason depends on the class layout; what matters is
                // that the rejection happens after routing.
                assert!(
                    matches!(
                        out,
                        DeliverOutcome::Dropped(DropReason::ShortFrame)
                            | DeliverOutcome::Dropped(DropReason::MalformedPackInfo)
                    ),
                    "mangled frame must be refused post-routing: {out:?}"
                );
                assert_eq!(
                    route_of(&server, Cookie::from_raw(forged_cookie)),
                    CookieLookup::Unknown,
                    "a forged cookie bound"
                );
            }
            assert!(matches!(route_of(&server, real), CookieLookup::Hit(_)));
            assert_eq!(server.shard_of_conn(sh), home, "a forgery migrated it");
            assert_eq!(server.front_stats().migrations, migrations);
            assert!(server.demux_balanced());
        });
    }

    #[test]
    fn rekey_rebinds_and_the_old_cookie_refuses_as_stale() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            let sh = server.add_connection(twin);
            server.from_network(frame_of(&mut c, b"v1"));
            let old_cookie = c.local_cookie();
            let old_home = server.shard_of(old_cookie);
            let migrations = server.front_stats().migrations;

            // Re-key; with more than one shard, until the fresh cookie
            // hashes elsewhere (each rotation is a fair coin across the
            // shards).
            let mut seed = 9;
            loop {
                c.rotate_cookie(seed);
                seed += 1;
                if n == 1 || server.shard_of(c.local_cookie()) != old_home {
                    break;
                }
            }
            let new_home = server.shard_of(c.local_cookie());
            let out = server.from_network(frame_of(&mut c, b"v2"));
            assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
            assert_eq!(server.shard_of_conn(sh), Some(new_home));
            assert_eq!(
                server.front_stats().migrations - migrations,
                (n > 1) as u64,
                "a re-key that lands elsewhere migrates, once"
            );

            // A replay under the old cookie hashes to the old shard and
            // is refused there as stale — retired in place, or left
            // behind as a tombstone — not as unknown.
            let mut replay = old_cookie.raw().to_be_bytes().to_vec();
            replay.extend_from_slice(b"ghost of the old route");
            let before_stale = server.shard(old_home).router().stale_hits;
            let out = server.from_network(Msg::from_wire(replay));
            assert_eq!(out, DeliverOutcome::Dropped(DropReason::StaleCookie));
            assert_eq!(server.shard(old_home).router().stale_hits, before_stale + 1);

            // New-route traffic flows in the new home.
            let out = server.from_network(frame_of(&mut c, b"v2 steady"));
            assert!(!matches!(out, DeliverOutcome::Dropped(_)));
            assert!(server.demux_balanced());
            assert_eq!(server.global_rejects().get(DropReason::StaleCookie), 1);
            assert_eq!(server.global_rejects().total(), 1);
        });
    }

    /// The burst contract: same bytes, same counters and the same
    /// drained sequence as the per-frame path, shard by shard and reason
    /// by reason, over a hostile mix — ident frames that bind cookies
    /// (and migrate), then interleaved live flows, a mid-burst ident
    /// frame that re-binds a cookie between segments, a truncated frame,
    /// a zero cookie and an unknown cookie. Two bursts, each drained: a
    /// connection's first message after a drain puts it on its shard's
    /// delivery set, so the second drain shows the order each segment
    /// was demuxed in.
    #[test]
    fn burst_matches_the_per_frame_path_counter_for_counter() {
        at_each_shard_count(|n| {
            let peers: Vec<u64> = (1..=5).collect();
            let build = || {
                let mut server = ShardedEndpoint::new(n);
                let handles: Vec<ShardHandle> = peers
                    .iter()
                    .map(|&p| server.add_connection(pair(p).1))
                    .collect();
                (server, handles)
            };
            let mut clients: Vec<Connection> = peers.iter().map(|&p| pair(p).0).collect();
            let establish: Vec<Vec<u8>> = clients
                .iter_mut()
                .map(|c| frame_of(c, b"ident frame").to_wire())
                .collect();
            // Interleaved steady traffic across all peers.
            let mut steady: Vec<Vec<u8>> = Vec::new();
            for round in 0..4u8 {
                for c in clients.iter_mut() {
                    steady.push(frame_of(c, &[round; 16]).to_wire());
                }
            }
            // Two connections of one shard send their first steady frames
            // out of raw-cookie order, so demuxing a segment in any other
            // order than arrival's would show in the drained sequence.
            let first: Vec<Cookie> = steady[..peers.len()]
                .iter()
                .map(|f| Preamble::decode(f).unwrap().cookie)
                .collect();
            let layout = ShardedEndpoint::new(n);
            assert!(
                first.iter().enumerate().any(|(i, a)| first[i + 1..]
                    .iter()
                    .any(|b| layout.shard_of(*a) == layout.shard_of(*b) && a.raw() > b.raw())),
                "no shard sees two connections out of cookie order"
            );
            // A mid-burst re-key (ident frame between cookie segments).
            clients[2].rotate_cookie(424242);
            steady.push(frame_of(&mut clients[2], b"rekeyed").to_wire());
            steady.push(frame_of(&mut clients[2], b"post-rekey steady").to_wire());
            // Hostile filler.
            steady.push(vec![0xEE; 3]); // truncated preamble
            steady.push(vec![0u8; 24]); // zero cookie
            let mut unknown = steady[0].clone();
            unknown[7] ^= 0x77; // cookie-only frame, mangled cookie
            steady.push(unknown);

            // Deliveries: the same (connection, message) sequence in the
            // same order — a segment is demuxed in arrival order, and
            // the drain goes in shard order.
            let drained = |s: &mut ShardedEndpoint| -> Vec<(ShardHandle, Vec<u8>)> {
                drain(s)
                    .into_iter()
                    .map(|d| (d.conn, d.msg.to_wire()))
                    .collect()
            };
            let (mut per_frame, handles) = build();
            let (mut burst, _) = build();
            let mut report = BurstDemux::default();
            for part in [&establish, &steady] {
                for f in part {
                    per_frame.from_network(Msg::from_wire(f.clone()));
                }
                let mut msgs: Vec<Msg> = part.iter().map(|f| Msg::from_wire(f.clone())).collect();
                let part_report = burst.from_network_burst(&mut msgs);
                report.frames += part_report.frames;
                report.routed += part_report.routed;
                report.dropped += part_report.dropped;
                assert!(msgs.is_empty(), "burst input is drained");
                assert!(per_frame.ready_balanced() && burst.ready_balanced());
                assert_eq!(drained(&mut burst), drained(&mut per_frame));
            }

            assert!(per_frame.demux_balanced() && burst.demux_balanced());
            assert_eq!(report.frames, (establish.len() + steady.len()) as u64);
            assert_eq!(report.routed + report.dropped, report.frames);
            assert_eq!(report.dropped, 3);
            assert_eq!(burst.front_stats(), per_frame.front_stats());
            assert_eq!(burst.front_rejects(), per_frame.front_rejects());
            for si in 0..n {
                let (a, b) = (per_frame.shard(si), burst.shard(si));
                assert_eq!(b.frames_seen(), a.frames_seen(), "shard {si} frames");
                assert_eq!(b.routed_frames(), a.routed_frames(), "shard {si} routed");
                assert_eq!(b.rejects(), a.rejects(), "shard {si} rejects");
                assert_eq!(b.lifecycle(), a.lifecycle(), "shard {si} lifecycle");
                let (ra, rb) = (a.router(), b.router());
                assert_eq!(rb.cookie_hits, ra.cookie_hits, "shard {si}");
                assert_eq!(rb.ident_hits, ra.ident_hits, "shard {si}");
                assert_eq!(rb.stale_hits, ra.stale_hits, "shard {si}");
                assert_eq!(rb.misses, ra.misses, "shard {si}");
                assert_eq!(rb.stale_stats, ra.stale_stats, "shard {si}");
            }
            for &h in &handles {
                let (a, b) = (per_frame.try_conn(h).unwrap(), burst.try_conn(h).unwrap());
                assert_eq!(b.stats(), a.stats());
                assert!(b.stats().delivery_balanced());
                assert_eq!(burst.shard_of_conn(h), per_frame.shard_of_conn(h));
            }
        });
    }

    /// The steady-state burst: nothing but cookie frames, whose
    /// deliveries the next drain returns (regression: when drains
    /// followed a list of touched shards, the end-of-burst segment flush
    /// left its shards off the list and the deliveries stranded).
    #[test]
    fn cookie_only_burst_deliveries_drain() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            server.add_connection(twin);

            // Establish per-frame and drain, so nothing is pending.
            server.from_network(frame_of(&mut c, b"establish"));
            assert_eq!(drain(&mut server).len(), 1);
            assert!(drain(&mut server).is_empty());

            let mut msgs: Vec<Msg> = (0..3u8).map(|r| frame_of(&mut c, &[r; 8])).collect();
            let report = server.from_network_burst(&mut msgs);
            assert_eq!(report.routed, 3);
            assert_eq!(
                drain(&mut server).len(),
                3,
                "cookie-only burst deliveries must surface on the next drain"
            );
            assert!(server.demux_balanced());
        });
    }

    #[test]
    fn deliveries_carry_the_handle_of_their_connection() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c1, twin1) = pair(1);
            let (mut c2, twin2) = pair(2);
            let h1 = server.add_connection(twin1);
            let h2 = server.add_connection(twin2);

            server.from_network(frame_of(&mut c2, b"from two"));
            server.from_network(frame_of(&mut c1, b"from one"));
            let mut got: Vec<(ShardHandle, Vec<u8>)> = drain(&mut server)
                .into_iter()
                .map(|d| (d.conn, d.msg.to_wire()))
                .collect();
            got.sort();
            assert_eq!(
                got,
                [(h1, b"from one".to_vec()), (h2, b"from two".to_vec())]
            );
        });
    }

    /// `poll_transmit_burst`: connections in the order they became
    /// ready, each connection's frames in its queue order, `max`
    /// respected, and a connection cut off at `max` still at the head
    /// for the next call.
    #[test]
    fn transmit_poll_serves_connections_in_readiness_order() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            // Three connections that stay in one shard (no inbound
            // traffic, so none migrates): across shards the order is
            // shard order, which is not what this case is about.
            let mut handles = Vec::new();
            let mut peer = 1;
            while handles.len() < 3 {
                let twin = pair(peer).1;
                if server.shard_of_ident(twin.expected_ident()) == 0 {
                    handles.push((server.add_connection(twin), peer));
                }
                peer += 1;
            }
            // Readiness order is admit order; sends in another order do
            // not change it. Two frames each: the second send finds post
            // work pending, so flush it through the handed-out
            // connection.
            for &(h, _) in handles.iter().rev() {
                for msg in [b"first ", b"second"] {
                    server.try_send(h, msg).unwrap();
                    server.try_conn_mut(h).unwrap().process_pending();
                }
            }
            let dests: Vec<EndpointAddr> = handles
                .iter()
                .map(|&(_, p)| EndpointAddr::from_parts(p, 1))
                .collect();
            let mut out = Vec::new();
            // Cut off inside the second connection.
            assert_eq!(server.poll_transmit_burst(3, &mut out), 3, "max respected");
            assert!(server.ready_balanced());
            assert_eq!(server.poll_transmit_burst(0, &mut out), 0);
            // The second connection is still at the head.
            assert_eq!(server.poll_transmit_burst(1, &mut out), 1);
            assert_eq!(server.poll_transmit_burst(usize::MAX, &mut out), 2);
            assert_eq!(server.poll_transmit_burst(usize::MAX, &mut out), 0);
            let got: Vec<EndpointAddr> = out.iter().map(|&(to, _)| to).collect();
            assert_eq!(
                got,
                [dests[0], dests[0], dests[1], dests[1], dests[2], dests[2]]
            );
            // Queue order within a connection: the peer accepts them in
            // sequence.
            let mut c = pair(handles[0].1).0;
            for (_, f) in out.drain(..2) {
                c.deliver_frame(f);
            }
            assert_eq!(c.poll_delivery().unwrap().as_slice(), b"first ");
            assert_eq!(c.poll_delivery().unwrap().as_slice(), b"second");
            assert!(server.ready_balanced());
        });
    }

    /// A host that polls with a small `max` per loop serves the shards
    /// in turn: a shard that refills between calls cannot starve the
    /// one after it.
    #[test]
    fn bounded_transmit_poll_rotates_over_the_shards() {
        let mut server = ShardedEndpoint::new(2);
        // One connection per shard; no inbound traffic, so neither
        // migrates.
        let mut by_shard = [None, None];
        let mut peer = 1;
        while by_shard.iter().any(Option::is_none) {
            let twin = pair(peer).1;
            let si = server.shard_of_ident(twin.expected_ident());
            if by_shard[si].is_none() {
                by_shard[si] = Some((server.add_connection(twin), peer));
            }
            peer += 1;
        }
        let [(busy, busy_peer), (quiet, quiet_peer)] = by_shard.map(Option::unwrap);
        let send = |server: &mut ShardedEndpoint, h| {
            server.try_send(h, b"frame").unwrap();
            server.try_conn_mut(h).unwrap().process_pending();
        };
        send(&mut server, quiet);
        let mut out = Vec::new();
        for _ in 0..4 {
            // Shard 0 has a frame queued before every call.
            send(&mut server, busy);
            assert_eq!(server.poll_transmit_burst(1, &mut out), 1);
            assert!(server.ready_balanced());
        }
        let to = |p| EndpointAddr::from_parts(p, 1);
        let got: Vec<EndpointAddr> = out.iter().map(|&(dest, _)| dest).collect();
        assert_eq!(
            got,
            [to(busy_peer), to(quiet_peer), to(busy_peer), to(busy_peer)],
            "shard 1's one frame leaves on the second call"
        );
    }

    /// A handle held across removal and reuse of its directory slot
    /// must NOT address the connection that recycled the slot.
    #[test]
    fn stale_handle_across_slot_reuse_is_refused_not_misrouted() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let h_old = server.add_connection(pair(1).1);
            assert_eq!(server.connection_count(), 1);
            let removed = server.remove_connection(h_old).unwrap();
            assert_eq!(removed.peer_addr(), EndpointAddr::from_parts(1, 1));
            assert_eq!(server.connection_count(), 0);

            // The directory slot is reused by a different peer's
            // connection.
            let h_new = server.add_connection(pair(2).1);
            assert_eq!(h_new.slot(), h_old.slot(), "slot is recycled");
            assert_ne!(h_new, h_old, "but the handle is not");

            // Every access path refuses the stale handle, counted.
            assert!(server.try_conn(h_old).is_none());
            assert_eq!(server.try_conn_mut(h_old).unwrap_err(), StaleHandle);
            assert_eq!(server.try_send(h_old, b"late write"), Err(StaleHandle));
            assert_eq!(server.remove_connection(h_old).unwrap_err(), StaleHandle);
            assert_eq!(server.shard_of_conn(h_old), None);
            assert_eq!(server.front_stats().stale_handle_rejects, 3);
            // The new tenant is untouched and reachable through its own
            // handle.
            assert_eq!(
                server.try_conn(h_new).unwrap().peer_addr(),
                EndpointAddr::from_parts(2, 1)
            );
            let life = |f: fn(&crate::LifecycleStats) -> u64| -> u64 {
                (0..n).map(|i| f(server.shard(i).lifecycle())).sum()
            };
            assert_eq!(life(|l| l.admitted), 2);
            assert_eq!(life(|l| l.removed), 1);
        });
    }

    #[test]
    fn double_remove_is_an_error_and_router_entries_are_gone() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            let sh = server.add_connection(twin);

            // Establish so a cookie binds.
            server.from_network(frame_of(&mut c, b"hello"));
            assert!(matches!(
                route_of(&server, c.local_cookie()),
                CookieLookup::Hit(_)
            ));

            server.remove_connection(sh).unwrap();
            assert_eq!(server.remove_connection(sh).unwrap_err(), StaleHandle);
            assert_eq!(server.try_send(sh, b"late"), Err(StaleHandle));
            assert_eq!(server.front_stats().stale_handle_rejects, 2);
            assert_eq!(server.connection_count(), 0);
            assert_eq!(routers(&server, |r| r.cookie_count() as u64), 0);
            assert_eq!(routers(&server, |r| r.ident_count() as u64), 0);
            // Post-removal traffic on the dead cookie is a counted
            // unknown in the cookie's shard.
            assert_eq!(
                server.from_network(frame_of(&mut c, b"ghost")),
                DeliverOutcome::Dropped(DropReason::UnknownCookie)
            );
            assert!(server.demux_balanced());
        });
    }

    #[test]
    fn metrics_snapshot_reconciles_with_conn_stats() {
        at_each_shard_count(|n| {
            let mut alice = ShardedEndpoint::new(n);
            let mut bob = ShardedEndpoint::new(n);
            let a2b = alice.add_connection(null_conn(1, 2, 11));
            bob.add_connection(null_conn(2, 1, 22));

            let before = alice.metrics_snapshot(0);
            let mut tx = Vec::new();
            for i in 0..4u8 {
                alice.try_send(a2b, &[i; 4]).unwrap();
                alice.poll_transmit_burst(usize::MAX, &mut tx);
                for (_, f) in tx.drain(..) {
                    bob.from_network(f);
                }
                alice.process_all_pending();
            }
            let after = alice.metrics_snapshot(1);

            // Every conn0 entry equals the live ConnStats counter.
            let stats = *alice.try_conn(a2b).unwrap().stats();
            for (name, value) in stats.fields() {
                assert_eq!(after.get("conn0", name), Some(value), "{name}");
                assert_eq!(
                    after.get("endpoint", name),
                    Some(value),
                    "single conn: totals match"
                );
            }
            // The delta shows only what changed.
            let delta = after.delta(&before);
            assert_eq!(delta.get("conn0", "fast_sends"), Some(stats.fast_sends));
            assert_eq!(
                delta.get("conn0", "frames_in"),
                None,
                "unchanged counters omitted"
            );
            // Router and demux counters on the receiving side, folded
            // over the shards.
            let bsnap = bob.metrics_snapshot(1);
            assert_eq!(
                bsnap.get("router", "ident_hits").unwrap()
                    + bsnap.get("router", "cookie_hits").unwrap(),
                stats.frames_out
            );
            assert_eq!(bsnap.get("demux", "frames_seen"), Some(stats.frames_out));
            assert_eq!(bsnap.get("demux", "routed"), Some(stats.frames_out));
            assert_eq!(bsnap.get("demux", "conns_live"), Some(1));

            // An ident nobody registered is refused at the front: it is
            // a `demux` reject and a frame seen, and no shard's router
            // (`router.misses` counts unknown cookies only) or reject
            // ledger hears of it.
            let mut stranger = null_conn(9, 2, 99);
            assert_eq!(
                bob.from_network(frame_of(&mut stranger, b"who?")),
                DeliverOutcome::Dropped(DropReason::ForeignIdent)
            );
            let foreign = bob.metrics_snapshot(2).delta(&bsnap);
            assert_eq!(foreign.get("demux", "frames_seen"), Some(1));
            assert_eq!(foreign.get("demux", "reject_foreign_ident"), Some(1));
            assert_eq!(foreign.get("router", "misses"), None);
            assert_eq!(foreign.get("demux", "routed"), None);
            assert_eq!(bob.front_rejects().total(), 1);
            assert!((0..n).all(|i| bob.shard(i).rejects().total() == 0));
            assert!(bob.demux_balanced());
        });
    }

    /// Endpoint totals must be exact across churn: removing a
    /// connection folds its stats and its fleet view — attribution,
    /// leaks, phase meters — into the retired accumulators instead of
    /// dropping them.
    #[test]
    fn endpoint_totals_survive_removal() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let mut c = null_conn(1, SERVER, 8);
            // No prediction, eager posts: every delivery the twin takes
            // is slow and every post phase it runs is a leak.
            let mut off_path = PaConfig::paper_default();
            off_path.predict = false;
            off_path.lazy_post = false;
            let sh = server.add_connection(conn_with(off_path, SERVER, 1, 9));
            for i in 0..3u8 {
                server.from_network(frame_of(&mut c, &[i; 4]));
            }
            let frames_in_before = server.try_conn(sh).unwrap().stats().frames_in;
            assert_eq!(frames_in_before, 3);
            let before = server.fleet();
            assert_eq!(before.conns, 1);
            assert_eq!(before.attribution.total(XrayOp::SlowDeliver), 3);
            assert!(!before.leaks.is_empty(), "eager posts leak");
            assert!(before.meters.iter().any(|(_, m)| m.total_calls() > 0));
            server.remove_connection(sh).unwrap();
            let snap = server.metrics_snapshot(0);
            assert_eq!(
                snap.get("endpoint", "frames_in"),
                Some(frames_in_before),
                "retired stats keep counting in endpoint totals"
            );
            assert_eq!(snap.get("demux", "conns_removed"), Some(1));
            assert_eq!(snap.get("demux", "conns_live"), Some(0));
            let after = server.fleet();
            assert_eq!(after, before, "the fleet view outlives the connection");
            let slow = ["slow_sends", "queued_sends", "slow_deliveries"]
                .map(|name| snap.get("endpoint", name).unwrap());
            let attributed = [XrayOp::SlowSend, XrayOp::QueuedSend, XrayOp::SlowDeliver]
                .map(|op| after.attribution.total(op));
            assert_eq!(attributed, slow, "attribution reconciles at the endpoint");
        });
    }

    #[test]
    fn idle_eviction_is_driven_from_tick() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            server.set_idle_timeout(Some(1_000));
            let ha = server.add_connection(pair(1).1);
            let hb = server.add_connection(pair(2).1);
            let evicted = |s: &ShardedEndpoint| -> u64 {
                (0..n).map(|i| s.shard(i).lifecycle().evicted_idle).sum()
            };

            // Both admitted at clock 0. A stays active; B goes idle.
            server.tick(600); // idle 600 each: both survive
            assert_eq!(server.connection_count(), 2);
            server.try_send(ha, b"keepalive").unwrap(); // a.last_active = 600
            server.tick(1_500); // b idle 1500 > 1000: evicted; a idle 900
            assert!(server.try_conn(hb).is_none(), "idle conn evicted");
            assert_eq!(server.try_send(hb, b"late"), Err(StaleHandle));
            assert!(server.try_conn(ha).is_some(), "active conn survives");
            assert_eq!(evicted(&server), 1);

            // Steady activity keeps surviving sweeps forever.
            for t in 0..5u64 {
                server.try_send(ha, b"steady").unwrap();
                server.tick(1_500 + (t + 1) * 900);
            }
            assert!(server.try_conn(ha).is_some());
            assert_eq!(evicted(&server), 1);
            assert!(server.ready_balanced());
        });
    }

    #[test]
    fn accept_storm_is_bounded_by_budget() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            server.set_accept_budget_per_shard(Some(2));
            // The budget is per shard: storm one shard.
            let mut storm = (1..)
                .map(|p| pair(p).1)
                .filter(|c| ShardedEndpoint::new(n).shard_of_ident(c.expected_ident()) == 0);
            let life = |s: &ShardedEndpoint| *s.shard(0).lifecycle();

            // Tick 1: budget admits 2 of the storm.
            let mut deferred = Vec::new();
            for conn in storm.by_ref().take(4) {
                match server.try_accept(conn) {
                    Ok(_) => {}
                    Err(AdmitError::Deferred(c)) => deferred.push(c),
                }
            }
            assert_eq!(server.connection_count(), 2);
            assert_eq!(life(&server).admission_deferred, 2);

            // Tick 2: the budget refreshes and admits the two deferred;
            // a third accept in the same tick is deferred again.
            server.tick(1);
            for conn in deferred {
                assert!(server.try_accept(conn).is_ok(), "budget was refreshed");
            }
            assert!(server.try_accept(storm.next().unwrap()).is_err());
            assert_eq!(server.connection_count(), 4);
            assert_eq!(life(&server).admission_deferred, 3);
            assert_eq!(life(&server).admitted, 4);
        });
    }

    #[test]
    fn per_shard_pools_recycle_without_cross_traffic() {
        at_each_shard_count(|n| {
            let mut server = ShardedEndpoint::new(n);
            let (mut c, twin) = pair(1);
            server.add_connection(twin);

            // Establish, then steady wire-bytes traffic through the
            // pools.
            server.ingest_wire(&frame_of(&mut c, b"establish").to_wire());
            let home = server.shard_of(c.local_cookie());
            for d in drain(&mut server) {
                server.recycle_delivery(d);
            }
            let idle_baseline = server.shard_pool_idle(home);
            for round in 0..50u8 {
                server.ingest_wire(&frame_of(&mut c, &[round; 32]).to_wire());
                for d in drain(&mut server) {
                    assert_eq!(d.shard, home);
                    server.recycle_delivery(d);
                }
                assert_eq!(
                    server.shard_pool_idle(home),
                    idle_baseline,
                    "round {round}: pool idle returns to baseline"
                );
            }
            for other in (0..n).filter(|&s| s != home) {
                let ps = server.shard_pool_stats(other);
                assert_eq!(
                    ps.hits + ps.misses,
                    0,
                    "cookie traffic never touches another shard's pool"
                );
            }
            // A frame the front refuses never takes a buffer.
            let before = server.shard_pool_stats(home);
            let mut forged = frame_of(&mut c, b"x").to_wire();
            forged[..8].copy_from_slice(&0u64.to_be_bytes());
            server.ingest_wire(&forged);
            assert_eq!(server.shard_pool_stats(home), before);
            // Flux identity on the home pool.
            let ps = server.shard_pool_stats(home);
            assert_eq!(
                server.shard_pool_idle(home) as u64,
                ps.returns - ps.hits - ps.capped
            );
            assert!(server.demux_balanced());
        });
    }
}
