//! pa-shard: a million-connection demux, sharded by cookie hash.
//!
//! The paper's cookie demux (§2.2) makes per-packet lookup one hash
//! probe; this module scales that probe to production populations by
//! splitting the endpoint into `N` independent shards (power of two),
//! each owning its own connection table, [`Router`], and [`MsgPool`] —
//! no locks, no shared mutable state on the fast path. A cookie-only
//! frame touches exactly one shard: `shard = mix(cookie) & (N-1)`,
//! then that shard's ordinary demux. The cost per frame is one extra
//! integer mix over the single-table endpoint — flat in `N`
//! (`BENCH_shard.json` gates this).
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
//! The front distributor keeps its own frame count and reject ledger
//! (frames refused before any shard saw them: truncated preambles,
//! zero cookies, unroutable idents, cross-shard cookie conflicts).
//! Conservation is exact and checked as `==`:
//!
//! `front_frames == Σ shard.frames_seen + front_rejects.total()`
//!
//! and each shard's own [`Endpoint::demux_balanced`] holds, so summing
//! the shard ledgers (the way the telemetry plane folds domain deltas)
//! accounts for every frame globally.

use crate::conn::{Connection, DeliverOutcome, DropReason, SendOutcome};
use crate::endpoint::{AdmitError, BurstDemux, ConnHandle, Delivery, Endpoint, StaleHandle};
use crate::router::{ConnKey, CookieLookup};
use crate::Nanos;
use pa_buf::{Msg, MsgPool, PoolStats};
use pa_obs::RejectLedger;
use pa_wire::{Cookie, Preamble};
use std::collections::HashSet;

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

/// Stable handle to a connection in a [`ShardedEndpoint`]. Unlike the
/// per-shard [`ConnHandle`] it survives migration between shards; it
/// goes stale (refused, counted) when the connection is removed.
/// Opaque: a directory slot in the low half, that slot's generation in
/// the high half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardHandle(u64);

/// The handle directory: a generational slab mapping each live
/// [`ShardHandle`] to the shard its connection occupies and its handle
/// there. Control path only — cookie-only frames never touch it.
#[derive(Debug, Default)]
struct Directory {
    /// `(generation, location)`; the location is `None` while free.
    slots: Vec<(u32, Option<(usize, ConnHandle)>)>,
    free: Vec<u32>,
}

impl Directory {
    fn insert(&mut self, loc: (usize, ConnHandle)) -> ShardHandle {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            self.slots.len() as u32 - 1
        });
        let (generation, slot) = &mut self.slots[idx as usize];
        *slot = Some(loc);
        ShardHandle((*generation as u64) << 32 | idx as u64)
    }

    fn get(&self, h: ShardHandle) -> Option<(usize, ConnHandle)> {
        let &(generation, loc) = self.slots.get(h.0 as u32 as usize)?;
        loc.filter(|_| generation == (h.0 >> 32) as u32)
    }

    fn get_mut(&mut self, h: ShardHandle) -> Option<&mut (usize, ConnHandle)> {
        let (generation, loc) = self.slots.get_mut(h.0 as u32 as usize)?;
        loc.as_mut().filter(|_| *generation == (h.0 >> 32) as u32)
    }

    /// Frees `h`'s slot under a bumped generation, so `h` goes stale.
    fn remove(&mut self, h: ShardHandle) {
        if self.get(h).is_some() {
            let (generation, loc) = &mut self.slots[h.0 as u32 as usize];
            *generation = generation.wrapping_add(1);
            *loc = None;
            self.free.push(h.0 as u32);
        }
    }
}

/// An application message delivered by some sharded connection.
#[derive(Debug)]
pub struct ShardDelivery {
    /// The connection it arrived on.
    pub conn: ShardHandle,
    /// The shard that delivered it (recycle the buffer there).
    pub shard: usize,
    /// The message payload.
    pub msg: Msg,
}

/// One shard: an ordinary [`Endpoint`] plus its private buffer pool.
#[derive(Debug)]
struct Shard {
    endpoint: Endpoint,
    pool: MsgPool,
}

/// Front-distributor counters (everything that happens before a frame
/// reaches a shard, plus lifecycle the shards cannot see).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardFrontStats {
    /// Frames handed to the sharded endpoint.
    pub frames: u64,
    /// Connections migrated between shards (re-key landed elsewhere).
    pub migrations: u64,
    /// Operations refused through a stale [`ShardHandle`].
    pub stale_handle_rejects: u64,
}

/// A demux sharded by cookie hash: `N` independent [`Endpoint`]s behind
/// one wire-facing front.
#[derive(Debug)]
pub struct ShardedEndpoint {
    shards: Vec<Shard>,
    mask: u64,
    /// Where each [`ShardHandle`] lives now. The reverse direction
    /// needs no map: every connection carries its handle as the owner
    /// tag in its shard slot, echoed in each [`Delivery`].
    dir: Directory,
    /// Pre-registered idents: peers we expect but have not admitted
    /// (the accept path consumes them). Directory only — no Connection
    /// exists until admission.
    expected: HashSet<Vec<u8>>,
    /// Frames refused at the front, before any shard saw them.
    front_rejects: RejectLedger,
    front: ShardFrontStats,
    /// Per-shard cookie segments for the burst path (kept across
    /// bursts so steady state allocates nothing).
    seg_scratch: Vec<Vec<(Preamble, Msg)>>,
    delivery_scratch: Vec<Delivery>,
    /// Shards that may hold undrained deliveries: marked as frames
    /// route into a shard, cleared by [`ShardedEndpoint::drain_deliveries`].
    /// Keeps the drain proportional to the shards actually *hit* since
    /// the last drain, not to the shard count.
    dirty: Vec<usize>,
    dirty_flag: Vec<bool>,
}

impl ShardedEndpoint {
    /// Creates a sharded endpoint with `shards` shards (power of two).
    pub fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        ShardedEndpoint {
            shards: (0..shards)
                .map(|_| Shard {
                    endpoint: Endpoint::new(),
                    pool: MsgPool::with_defaults(),
                })
                .collect(),
            mask: shards as u64 - 1,
            dir: Directory::default(),
            expected: HashSet::new(),
            front_rejects: RejectLedger::default(),
            front: ShardFrontStats::default(),
            seg_scratch: (0..shards).map(|_| Vec::new()).collect(),
            delivery_scratch: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; shards],
        }
    }

    #[inline]
    fn mark_dirty(&mut self, si: usize) {
        if !self.dirty_flag[si] {
            self.dirty_flag[si] = true;
            self.dirty.push(si);
        }
    }

    fn mark_all_dirty(&mut self) {
        for si in 0..self.shards.len() {
            self.mark_dirty(si);
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

    /// Read access to one shard's endpoint (ledgers, router stats).
    pub fn shard(&self, i: usize) -> &Endpoint {
        &self.shards[i].endpoint
    }

    /// One shard's buffer-pool counters.
    pub fn shard_pool_stats(&self, i: usize) -> PoolStats {
        self.shards[i].pool.stats()
    }

    /// One shard's idle (free-list) buffer count.
    pub fn shard_pool_idle(&self, i: usize) -> usize {
        self.shards[i].pool.idle()
    }

    /// Front-distributor counters.
    pub fn front_stats(&self) -> &ShardFrontStats {
        &self.front
    }

    /// Frames refused at the front, before any shard saw them.
    pub fn front_rejects(&self) -> &RejectLedger {
        &self.front_rejects
    }

    // ---- lifecycle ---------------------------------------------------

    /// Applies an idle timeout to every shard (see
    /// [`Endpoint::set_idle_timeout`]).
    pub fn set_idle_timeout(&mut self, timeout: Option<Nanos>) {
        for s in &mut self.shards {
            s.endpoint.set_idle_timeout(timeout);
        }
    }

    /// Caps live connections *per shard* for [`ShardedEndpoint::try_accept`].
    pub fn set_max_live_per_shard(&mut self, max: Option<usize>) {
        for s in &mut self.shards {
            s.endpoint.set_max_live(max);
        }
    }

    /// Caps accepts per tick *per shard* (accept-storm valve).
    pub fn set_accept_budget_per_shard(&mut self, budget: Option<u32>) {
        for s in &mut self.shards {
            s.endpoint.set_accept_budget(budget);
        }
    }

    /// Pre-registers an ident we expect to connect later. Directory
    /// entry only — costs one hash-set slot, not a connection.
    pub fn preregister_ident(&mut self, ident: Vec<u8>) {
        self.expected.insert(ident);
    }

    /// Whether `ident` is pre-registered (admission-path check).
    pub fn is_expected(&self, ident: &[u8]) -> bool {
        self.expected.contains(ident)
    }

    /// Consumes a pre-registered ident at admission. Returns whether it
    /// was present.
    pub fn take_expected(&mut self, ident: &[u8]) -> bool {
        self.expected.remove(ident)
    }

    /// Number of pre-registered (not yet admitted) idents.
    pub fn expected_count(&self) -> usize {
        self.expected.len()
    }

    fn enroll(&mut self, shard: usize, h: ConnHandle) -> ShardHandle {
        let sh = self.dir.insert((shard, h));
        self.shards[shard].endpoint.set_tag(h, sh.0);
        sh
    }

    /// Adds a connection (trusted local path, uncapped), provisionally
    /// placed by ident hash until its first verified frame reveals
    /// where its cookie lives.
    pub fn add_connection(&mut self, conn: Connection) -> ShardHandle {
        let shard = self.shard_of_ident(conn.expected_ident());
        // The connection may arrive with messages already queued.
        self.mark_dirty(shard);
        let h = self.shards[shard].endpoint.add_connection(conn);
        self.enroll(shard, h)
    }

    /// Admission-controlled accept: subject to the placement shard's
    /// live cap and per-tick budget (see [`Endpoint::try_accept`]).
    // The Err variant carries the refused Connection back on purpose.
    #[allow(clippy::result_large_err)]
    pub fn try_accept(&mut self, conn: Connection) -> Result<ShardHandle, AdmitError> {
        let shard = self.shard_of_ident(conn.expected_ident());
        let h = self.shards[shard].endpoint.try_accept(conn)?;
        self.mark_dirty(shard);
        Ok(self.enroll(shard, h))
    }

    fn resolve(&mut self, h: ShardHandle) -> Result<(usize, ConnHandle), StaleHandle> {
        match self.dir.get(h) {
            Some(loc) => Ok(loc),
            None => {
                self.front.stale_handle_rejects += 1;
                Err(StaleHandle)
            }
        }
    }

    /// Removes a connection, wherever it currently lives.
    pub fn remove_connection(&mut self, h: ShardHandle) -> Result<Connection, StaleHandle> {
        let (shard, ch) = self.resolve(h)?;
        let conn = self.shards[shard].endpoint.remove_connection(ch)?;
        self.dir.remove(h);
        Ok(conn)
    }

    /// Sends `payload` on connection `h`; a stale handle is counted and
    /// refused.
    pub fn try_send(&mut self, h: ShardHandle, payload: &[u8]) -> Result<SendOutcome, StaleHandle> {
        let (shard, ch) = self.resolve(h)?;
        self.mark_dirty(shard);
        self.shards[shard].endpoint.try_send(ch, payload)
    }

    /// Access a connection through a live handle.
    pub fn try_conn(&self, h: ShardHandle) -> Option<&Connection> {
        let (shard, ch) = self.dir.get(h)?;
        self.shards[shard].endpoint.try_conn(ch)
    }

    /// Mutable access through a live handle.
    pub fn try_conn_mut(&mut self, h: ShardHandle) -> Result<&mut Connection, StaleHandle> {
        let (shard, ch) = self.resolve(h)?;
        // The caller can drive the connection directly (deliver, poll);
        // anything it leaves queued must still be drainable.
        self.mark_dirty(shard);
        self.shards[shard].endpoint.try_conn_mut(ch)
    }

    /// The shard a live connection currently occupies.
    pub fn shard_of_conn(&self, h: ShardHandle) -> Option<usize> {
        self.dir.get(h).map(|(s, _)| s)
    }

    /// Live connections across all shards.
    pub fn connection_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.endpoint.connection_count())
            .sum()
    }

    /// Advances time on every shard (timers, idle eviction, accept
    /// budgets), then reconciles the handle directory with any
    /// evictions the shards performed.
    pub fn tick(&mut self, now: Nanos) {
        for s in &mut self.shards {
            s.endpoint.tick(now);
            // Idle eviction happens inside the shard; drop the evicted
            // connections' directory entries so their ShardHandles
            // answer StaleHandle, not a dangling slot.
            for tag in s.endpoint.evicted_tags() {
                self.dir.remove(ShardHandle(tag));
            }
        }
        // Timers (retransmits, deferred post-work) can surface
        // deliveries on any shard.
        self.mark_all_dirty();
    }

    // ---- demux -------------------------------------------------------

    fn front_reject(&mut self, reason: DropReason) -> DeliverOutcome {
        self.front_rejects.bump(reason);
        DeliverOutcome::Dropped(reason)
    }

    /// Routes one frame: cookie-only frames touch exactly one shard
    /// (one mix + that shard's hash probe); ident frames take the slow
    /// path and may migrate their connection to the shard its new
    /// cookie hashes to.
    pub fn from_network(&mut self, mut frame: Msg) -> DeliverOutcome {
        self.front.frames += 1;
        let preamble = match Preamble::pop_from(&mut frame) {
            Ok(p) => p,
            Err(_) => return self.front_reject(DropReason::TruncatedPreamble),
        };
        if preamble.cookie.is_zero() {
            return self.front_reject(DropReason::ZeroCookie);
        }
        if preamble.conn_ident_present {
            self.route_ident_frame(preamble, frame, &mut BurstDemux::default())
        } else {
            let s = self.shard_of(preamble.cookie);
            self.mark_dirty(s);
            self.shards[s].endpoint.ingest_preambled(preamble, frame)
        }
    }

    /// Wire-bytes entry: decodes the preamble to pick the shard, takes
    /// the frame buffer from *that shard's* pool (per-shard recycling —
    /// no cross-shard buffer traffic on the fast path), and routes it.
    pub fn ingest_wire(&mut self, bytes: &[u8]) -> DeliverOutcome {
        let preamble = match Preamble::decode(bytes) {
            Ok(p) => p,
            Err(_) => {
                self.front.frames += 1;
                return self.front_reject(DropReason::TruncatedPreamble);
            }
        };
        if preamble.cookie.is_zero() {
            self.front.frames += 1;
            return self.front_reject(DropReason::ZeroCookie);
        }
        let s = self.shard_of(preamble.cookie);
        let msg = self.shards[s].pool.take_with(bytes);
        self.from_network(msg)
    }

    /// Returns a delivered buffer to the pool of the shard that
    /// delivered it (completes the per-shard recycle loop).
    pub fn recycle_delivery(&mut self, d: ShardDelivery) {
        self.shards[d.shard].pool.put(d.msg);
    }

    /// The slow path: find the owning shard by ident, guard the cookie
    /// against cross-shard squatting, process in the owner, and migrate
    /// if the (verified) new cookie hashes elsewhere. Counts the frame
    /// in `report.routed` if the owner's demux routed it.
    fn route_ident_frame(
        &mut self,
        preamble: Preamble,
        frame: Msg,
        report: &mut BurstDemux,
    ) -> DeliverOutcome {
        let owner = (0..self.shards.len()).find_map(|s| {
            self.shards[s]
                .endpoint
                .router()
                .probe_ident_prefix(frame.as_slice())
                .map(|(key, _)| (s, key))
        });
        let Some((s, key)) = owner else {
            // Same refusal taxonomy as the single endpoint: too short
            // to carry any registered ident is truncation, otherwise
            // the ident is foreign.
            let min_ident = self
                .shards
                .iter()
                .map(|s| s.endpoint.router().min_ident_len())
                .min()
                .unwrap_or(usize::MAX);
            if min_ident != usize::MAX && frame.len() < min_ident {
                return self.front_reject(DropReason::TruncatedIdent);
            }
            return self.front_reject(DropReason::ForeignIdent);
        };
        let target = self.shard_of(preamble.cookie);
        if target != s {
            // The cookie's home shard is not the connection's shard: if
            // anything is live there under this cookie, it belongs to a
            // *different* connection — same squatting refusal the
            // single endpoint makes for its own table.
            if let CookieLookup::Hit(_) = self.shards[target]
                .endpoint
                .router()
                .demux_cookie_peek(preamble.cookie)
            {
                return self.front_reject(DropReason::CookieConflict);
            }
        }
        self.mark_dirty(s);
        let owner = &mut self.shards[s].endpoint;
        let routed_before = owner.routed_frames();
        let outcome = owner.ingest_preambled(preamble, frame);
        report.routed += owner.routed_frames() - routed_before;
        // Migrate only after the owner shard verified the frame (the
        // same bind-after-verify discipline: a forged ident must not be
        // able to force migrations).
        if target != s && !matches!(outcome, DeliverOutcome::Dropped(_)) {
            self.migrate(s, key, target, preamble.cookie);
        }
        outcome
    }

    /// Moves a connection to the shard its freshly-bound cookie hashes
    /// to. The old shard keeps the connection's dead cookies as bounded
    /// tombstones (they hash there; replays must be refused there); the
    /// new cookie binds in the target shard's router.
    fn migrate(&mut self, from: usize, key: ConnKey, to: usize, cookie: Cookie) {
        let h = self.shards[from]
            .endpoint
            .handle_at(key.0)
            .expect("migration source must be live");
        let tag = self.shards[from]
            .endpoint
            .tag_of(h)
            .expect("checked live above");
        let (conn, _route) = self.shards[from]
            .endpoint
            .extract_connection(h)
            .expect("checked live above");
        let nh = self.shards[to].endpoint.adopt_connection(conn);
        self.shards[to].endpoint.set_tag(nh, tag);
        // The frame was verified in the source shard, which bound the
        // cookie there before extraction tombstoned it; the live
        // binding belongs here, where the cookie hashes.
        self.shards[to]
            .endpoint
            .router_mut()
            .bind_cookie(cookie, ConnKey(nh.slot()));
        *self
            .dir
            .get_mut(ShardHandle(tag))
            .expect("a live connection is enrolled") = (to, nh);
        self.front.migrations += 1;
        // Undrained deliveries travel with the connection.
        self.mark_dirty(to);
    }

    /// Routes a whole burst: cookie-only frames are bucketed into
    /// per-shard segments and each shard demuxes its segment as sorted
    /// runs ([`Endpoint::from_network_burst`]'s amortization, applied
    /// per shard); an ident frame flushes every open segment first so
    /// no run spans a router mutation, preserving per-connection order
    /// and exact counter equivalence with the per-frame path.
    pub fn from_network_burst(&mut self, frames: &mut Vec<Msg>) -> BurstDemux {
        let mut report = BurstDemux {
            frames: frames.len() as u64,
            ..Default::default()
        };
        let mut segs = std::mem::take(&mut self.seg_scratch);
        for mut frame in frames.drain(..) {
            self.front.frames += 1;
            let preamble = match Preamble::pop_from(&mut frame) {
                Ok(p) => p,
                Err(_) => {
                    let out = self.front_reject(DropReason::TruncatedPreamble);
                    report.tally(&out);
                    continue;
                }
            };
            if preamble.cookie.is_zero() {
                let out = self.front_reject(DropReason::ZeroCookie);
                report.tally(&out);
                continue;
            }
            if preamble.conn_ident_present {
                // Ident frames can rebind routers and migrate
                // connections; drain every open segment so no sorted
                // run spans the mutation (and per-conn order holds).
                for (si, seg) in segs.iter_mut().enumerate() {
                    if seg.is_empty() {
                        continue;
                    }
                    self.mark_dirty(si);
                    self.shards[si]
                        .endpoint
                        .ingest_cookie_segment(seg, &mut report);
                }
                let out = self.route_ident_frame(preamble, frame, &mut report);
                report.tally(&out);
            } else {
                let s = self.shard_of(preamble.cookie);
                segs[s].push((preamble, frame));
            }
        }
        for (si, seg) in segs.iter_mut().enumerate() {
            if seg.is_empty() {
                continue;
            }
            // Dirty before ingesting, exactly like the mid-burst flush:
            // a cookie-only burst (the steady state) must leave its
            // deliveries findable by the next drain.
            self.mark_dirty(si);
            self.shards[si]
                .endpoint
                .ingest_cookie_segment(seg, &mut report);
        }
        self.seg_scratch = segs;
        report
    }

    /// Drains delivered application messages into `out`, tagged with
    /// their stable handle and delivering shard. Visits only the shards
    /// frames have routed into since the last drain (the dirty list),
    /// and within each only the connections on its delivery ready set,
    /// so the call costs what the traffic touched — not O(shards), not
    /// O(connections). Messages of one connection keep their order;
    /// connections come out in the order they became ready.
    pub fn drain_deliveries(&mut self, out: &mut Vec<ShardDelivery>) -> usize {
        let mut n = 0;
        let mut scratch = std::mem::take(&mut self.delivery_scratch);
        let mut dirty = std::mem::take(&mut self.dirty);
        for si in dirty.drain(..) {
            self.dirty_flag[si] = false;
            loop {
                scratch.clear();
                if self.shards[si]
                    .endpoint
                    .poll_delivery_burst(256, &mut scratch)
                    == 0
                {
                    break;
                }
                n += scratch.len();
                out.extend(scratch.drain(..).map(|d| ShardDelivery {
                    conn: ShardHandle(d.tag),
                    shard: si,
                    msg: d.msg,
                }));
            }
        }
        self.delivery_scratch = scratch;
        self.dirty = dirty;
        n
    }

    /// Runs deferred post-processing on every shard.
    pub fn process_all_pending(&mut self) {
        for s in &mut self.shards {
            s.endpoint.process_all_pending();
        }
        // Post-work can surface held deliveries anywhere.
        self.mark_all_dirty();
    }

    // ---- conservation ------------------------------------------------

    /// Total frames handed to shards (each shard's own
    /// `demux_balanced` accounts for them from there).
    pub fn shard_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.endpoint.frames_seen()).sum()
    }

    /// The sharded conservation law, exact: every frame the front saw
    /// was either refused at the front or handed to exactly one shard,
    /// and every shard's own demux ledger balances.
    pub fn demux_balanced(&self) -> bool {
        self.front.frames == self.shard_frames() + self.front_rejects.total()
            && self.shards.iter().all(|s| s.endpoint.demux_balanced())
    }

    /// The sharded progress invariant, by full scan (a harness check):
    /// every shard's [`Endpoint::ready_balanced`] holds, a shard with a
    /// deliverable message is on the dirty list — so the next
    /// [`ShardedEndpoint::drain_deliveries`] reaches it — and the dirty
    /// list names each flagged shard once.
    pub fn ready_balanced(&self) -> bool {
        self.shards.iter().enumerate().all(|(si, s)| {
            let ep = &s.endpoint;
            let listed = self.dirty.iter().filter(|&&d| d == si).count();
            listed == self.dirty_flag[si] as usize
                && ep.ready_balanced()
                && (listed == 1 || !ep.handles().any(|h| ep.conn(h).has_delivery()))
        })
    }

    /// All rejections, global: front refusals plus each shard's demux
    /// ledger, folded the way the telemetry plane folds domain deltas.
    pub fn global_rejects(&self) -> RejectLedger {
        let mut total = self.front_rejects;
        for s in &self.shards {
            total.merge(s.endpoint.rejects());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaConfig;
    use crate::conn::ConnectionParams;
    use crate::layer::NullLayer;
    use pa_wire::EndpointAddr;

    fn null_conn(a: u64, b: u64, seed: u64) -> Connection {
        Connection::new(
            vec![Box::new(NullLayer)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(a, 1),
                EndpointAddr::from_parts(b, 1),
                seed,
            ),
        )
        .unwrap()
    }

    /// One client endpoint per peer, all talking to one sharded server.
    fn client(peer: u64) -> (Endpoint, ConnHandle) {
        let mut ep = Endpoint::new();
        let h = ep.add_connection(null_conn(peer, 10, peer * 7 + 1));
        (ep, h)
    }

    #[test]
    fn sharded_roundtrip_with_migration() {
        let mut server = ShardedEndpoint::new(4);
        let sh = server.add_connection(null_conn(10, 1, 100));
        let (mut c, hc) = client(1);

        // First frame (ident): routes wherever the conn was placed,
        // then the verified cookie decides the real home shard.
        c.send(hc, b"hello");
        let (_, f) = c.poll_transmit().unwrap();
        let out = server.from_network(f);
        assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
        let cookie = c.conn(hc).local_cookie();
        let home = server.shard_of(cookie);
        assert_eq!(
            server.shard_of_conn(sh),
            Some(home),
            "connection lives where its cookie hashes"
        );

        // Cookie-only traffic: exactly the home shard sees it.
        c.conn_mut(hc).process_pending();
        c.send(hc, b"steady");
        let (_, f) = c.poll_transmit().unwrap();
        let before = server.shard(home).frames_seen();
        let out = server.from_network(f);
        assert!(!matches!(out, DeliverOutcome::Dropped(_)));
        assert_eq!(server.shard(home).frames_seen(), before + 1);

        let mut got = Vec::new();
        server.drain_deliveries(&mut got);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|d| d.conn == sh && d.shard == home));
        assert_eq!(got[0].msg.as_slice(), b"hello");
        assert_eq!(got[1].msg.as_slice(), b"steady");
        assert!(server.demux_balanced());
    }

    #[test]
    fn rekey_migrates_and_old_cookie_refuses_as_stale() {
        let mut server = ShardedEndpoint::new(8);
        let sh = server.add_connection(null_conn(10, 1, 100));
        let (mut c, hc) = client(1);

        // Establish.
        c.send(hc, b"v1");
        let (_, f) = c.poll_transmit().unwrap();
        server.from_network(f);
        let old_cookie = c.conn(hc).local_cookie();
        let old_home = server.shard_of(old_cookie);

        // Re-key until the fresh cookie hashes to a different shard
        // (bounded: each rotation is a fair coin across 8 shards).
        let mut seed = 9;
        loop {
            c.conn_mut(hc).process_pending();
            c.conn_mut(hc).rotate_cookie(seed);
            seed += 1;
            if server.shard_of(c.conn(hc).local_cookie()) != old_home {
                break;
            }
        }
        let new_cookie = c.conn(hc).local_cookie();
        let new_home = server.shard_of(new_cookie);
        c.send(hc, b"v2");
        let (_, f) = c.poll_transmit().unwrap();
        let out = server.from_network(f);
        assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
        assert_eq!(server.shard_of_conn(sh), Some(new_home), "migrated");
        assert_eq!(server.front_stats().migrations, 1);

        // Replay under the old cookie hashes to the old shard and is
        // refused there as stale (tombstone), not unknown.
        let mut replay = Vec::new();
        replay.extend_from_slice(&old_cookie.raw().to_be_bytes());
        replay.extend_from_slice(b"ghost of the old route");
        let before_stale = server.shard(old_home).router().stale_hits;
        let out = server.from_network(Msg::from_wire(replay));
        assert_eq!(out, DeliverOutcome::Dropped(DropReason::StaleCookie));
        assert_eq!(server.shard(old_home).router().stale_hits, before_stale + 1);

        // New-route traffic flows in the new home.
        c.conn_mut(hc).process_pending();
        c.send(hc, b"v2 steady");
        let (_, f) = c.poll_transmit().unwrap();
        assert!(!matches!(
            server.from_network(f),
            DeliverOutcome::Dropped(_)
        ));
        assert!(server.demux_balanced());
        // Global ledgers: exactly one stale refusal on record.
        assert_eq!(server.global_rejects().get(DropReason::StaleCookie), 1);
    }

    /// Burst equivalence across shards: same bytes, same counters as
    /// the per-frame path — including mid-burst ident frames and
    /// hostile filler.
    #[test]
    fn sharded_burst_matches_per_frame_path() {
        let peers: Vec<u64> = (1..=5).collect();
        let build = || ShardedEndpoint::new(4);
        let script = || {
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut clients: Vec<(Endpoint, ConnHandle)> =
                peers.iter().map(|&p| client(p)).collect();
            // Ident frames first.
            for (c, h) in clients.iter_mut() {
                c.send(*h, b"ident frame");
                while let Some((_, f)) = c.poll_transmit() {
                    frames.push(f.to_wire());
                }
                c.conn_mut(*h).process_pending();
            }
            // Interleaved steady traffic across all peers.
            for round in 0..4u8 {
                for (c, h) in clients.iter_mut() {
                    c.send(*h, &[round; 16]);
                    while let Some((_, f)) = c.poll_transmit() {
                        frames.push(f.to_wire());
                    }
                    c.conn_mut(*h).process_pending();
                }
            }
            // A mid-burst re-key (ident frame between cookie segments).
            let (c, h) = &mut clients[2];
            c.conn_mut(*h).rotate_cookie(424242);
            c.send(*h, b"rekeyed");
            while let Some((_, f)) = c.poll_transmit() {
                frames.push(f.to_wire());
            }
            c.conn_mut(*h).process_pending();
            c.send(*h, b"post-rekey steady");
            while let Some((_, f)) = c.poll_transmit() {
                frames.push(f.to_wire());
            }
            // Hostile filler.
            frames.push(vec![0xEE; 3]); // truncated preamble
            frames.push(vec![0u8; 24]); // zero cookie
            let mut unknown = frames[peers.len()].clone();
            unknown[7] ^= 0x77; // cookie-only frame, mangled cookie
            frames.push(unknown);
            frames
        };

        let frames = script();
        let mut per_frame = build();
        for (p, f) in frames.iter().enumerate() {
            let _ = p;
            per_frame.from_network(Msg::from_wire(f.clone()));
        }
        let mut burst = build();
        let mut msgs: Vec<Msg> = frames.iter().map(|f| Msg::from_wire(f.clone())).collect();
        let report = burst.from_network_burst(&mut msgs);
        assert!(msgs.is_empty());

        assert!(per_frame.demux_balanced() && burst.demux_balanced());
        assert_eq!(report.frames, frames.len() as u64);
        assert_eq!(burst.front_stats().frames, per_frame.front_stats().frames);
        assert_eq!(report.routed + report.dropped, report.frames);
        // Per-shard ledgers identical, shard by shard, counter by
        // counter.
        for si in 0..burst.shard_count() {
            let (a, b) = (per_frame.shard(si), burst.shard(si));
            assert_eq!(b.frames_seen(), a.frames_seen(), "shard {si} frames");
            assert_eq!(b.routed_frames(), a.routed_frames(), "shard {si} routed");
            assert_eq!(
                b.rejects().total(),
                a.rejects().total(),
                "shard {si} rejects"
            );
            let (ra, rb) = (a.router(), b.router());
            assert_eq!(rb.cookie_hits, ra.cookie_hits, "shard {si}");
            assert_eq!(rb.ident_hits, ra.ident_hits, "shard {si}");
            assert_eq!(rb.stale_hits, ra.stale_hits, "shard {si}");
            assert_eq!(rb.misses, ra.misses, "shard {si}");
        }
        // Global fold identical too.
        assert_eq!(
            burst.global_rejects().total(),
            per_frame.global_rejects().total()
        );
        assert_eq!(
            burst.front_stats().migrations,
            per_frame.front_stats().migrations
        );
        // Deliveries: same multiset per connection, per-conn order
        // preserved.
        let drain = |s: &mut ShardedEndpoint| {
            let mut out = Vec::new();
            s.drain_deliveries(&mut out);
            let mut got: Vec<(ShardHandle, Vec<u8>)> =
                out.into_iter().map(|d| (d.conn, d.msg.to_wire())).collect();
            got.sort();
            got
        };
        assert_eq!(drain(&mut burst), drain(&mut per_frame));
        // The run amortization still applies within shards.
        assert!(report.run_lookups < report.frames - 3, "{report:?}");
    }

    /// The steady-state burst: nothing but cookie frames. The final
    /// segment flush must dirty the shards it ingests into, or the
    /// routed deliveries are stranded until some unrelated event
    /// happens to re-dirty the shard (regression: the mid-burst ident
    /// flush dirtied, the end-of-burst flush did not).
    #[test]
    fn cookie_only_burst_deliveries_drain() {
        let mut server = ShardedEndpoint::new(4);
        server.add_connection(null_conn(10, 1, 100));
        let (mut c, hc) = client(1);

        // Establish per-frame and drain, so no shard is left dirty.
        c.send(hc, b"establish");
        let (_, f) = c.poll_transmit().unwrap();
        server.from_network(f);
        c.conn_mut(hc).process_pending();
        let mut out = Vec::new();
        server.drain_deliveries(&mut out);
        assert_eq!(out.len(), 1);
        out.clear();

        // A burst of only cookie frames — no ident frame to pre-dirty
        // anything.
        let mut msgs = Vec::new();
        for round in 0..3u8 {
            c.send(hc, &[round; 8]);
            while let Some((_, f)) = c.poll_transmit() {
                msgs.push(f);
            }
            c.conn_mut(hc).process_pending();
        }
        let sent = msgs.len();
        let report = server.from_network_burst(&mut msgs);
        assert_eq!(report.routed, sent as u64);

        let drained = server.drain_deliveries(&mut out);
        assert_eq!(
            drained, sent,
            "cookie-only burst deliveries must surface on the next drain"
        );
        assert!(server.demux_balanced());
    }

    #[test]
    fn per_shard_pools_recycle_without_cross_traffic() {
        let mut server = ShardedEndpoint::new(2);
        server.add_connection(null_conn(10, 1, 100));
        let (mut c, hc) = client(1);

        // Establish, then steady wire-bytes traffic through the pools.
        c.send(hc, b"establish");
        let (_, f) = c.poll_transmit().unwrap();
        server.ingest_wire(&f.to_wire());
        c.conn_mut(hc).process_pending();
        let home = server.shard_of(c.conn(hc).local_cookie());

        let mut deliveries = Vec::new();
        server.drain_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            server.recycle_delivery(d);
        }
        let idle_baseline = server.shard_pool_idle(home);
        for round in 0..50u8 {
            c.send(hc, &[round; 32]);
            let (_, f) = c.poll_transmit().unwrap();
            server.ingest_wire(&f.to_wire());
            c.conn_mut(hc).process_pending();
            server.drain_deliveries(&mut deliveries);
            for d in deliveries.drain(..) {
                assert_eq!(d.shard, home);
                server.recycle_delivery(d);
            }
            assert_eq!(
                server.shard_pool_idle(home),
                idle_baseline,
                "round {round}: pool idle returns to baseline"
            );
        }
        let other = 1 - home;
        assert_eq!(
            server.shard_pool_stats(other).hits + server.shard_pool_stats(other).misses,
            0,
            "cookie traffic never touches the other shard's pool"
        );
        // Flux identity on the home pool.
        let ps = server.shard_pool_stats(home);
        assert_eq!(
            server.shard_pool_idle(home) as u64,
            ps.returns + ps.burst_refills - ps.hits - ps.capped
        );
        assert!(server.demux_balanced());
    }

    #[test]
    fn removed_sharded_conn_goes_stale_globally() {
        let mut server = ShardedEndpoint::new(4);
        let sh = server.add_connection(null_conn(10, 1, 100));
        let (mut c, hc) = client(1);
        c.send(hc, b"hello");
        let (_, f) = c.poll_transmit().unwrap();
        server.from_network(f);

        let conn = server.remove_connection(sh).unwrap();
        assert_eq!(conn.peer_addr(), EndpointAddr::from_parts(1, 1));
        assert_eq!(server.connection_count(), 0);
        assert_eq!(server.try_send(sh, b"late"), Err(StaleHandle));
        assert!(server.remove_connection(sh).is_err());
        assert_eq!(server.front_stats().stale_handle_rejects, 2);

        // Dead-cookie traffic is a counted unknown in the cookie's
        // shard.
        c.conn_mut(hc).process_pending();
        c.send(hc, b"ghost");
        let (_, f) = c.poll_transmit().unwrap();
        assert_eq!(
            server.from_network(f),
            DeliverOutcome::Dropped(DropReason::UnknownCookie)
        );
        assert!(server.demux_balanced());
    }

    #[test]
    fn idle_eviction_reconciles_the_directory() {
        let mut server = ShardedEndpoint::new(2);
        server.set_idle_timeout(Some(100));
        let sh = server.add_connection(null_conn(10, 1, 100));
        server.tick(500);
        assert_eq!(server.connection_count(), 0, "evicted in its shard");
        assert!(server.try_conn(sh).is_none());
        assert_eq!(server.try_send(sh, b"late"), Err(StaleHandle));
        let evicted: u64 = (0..server.shard_count())
            .map(|i| server.shard(i).lifecycle().evicted_idle)
            .sum();
        assert_eq!(evicted, 1);
    }

    #[test]
    fn preregistered_idents_are_directory_only() {
        let mut server = ShardedEndpoint::new(2);
        for i in 0..1000u64 {
            server.preregister_ident(format!("expected-peer-{i}").into_bytes());
        }
        assert_eq!(server.expected_count(), 1000);
        assert_eq!(server.connection_count(), 0);
        assert!(server.is_expected(b"expected-peer-7"));
        assert!(server.take_expected(b"expected-peer-7"));
        assert!(!server.is_expected(b"expected-peer-7"));
        assert_eq!(server.expected_count(), 999);
    }
}
