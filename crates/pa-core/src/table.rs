//! One shard's connection table: the slots, ready sets, router, buffer
//! pool and lifecycle counters behind [`crate::ShardedEndpoint`].
//!
//! The table is crate-private plumbing. It never sees a raw frame — the
//! endpoint's front has decoded the preamble, refused what can be
//! refused from the bytes alone and resolved an identified frame to
//! `(key, ident_len)` before anything is handed down — and it never
//! validates a handle: the endpoint's directory is the one generational
//! slab, and a slot index that reaches the table names a live slot.
//! Each slot stores the [`ShardHandle`] of its occupant, so deliveries,
//! idle evictions and migrations name their connection without a
//! reverse map.
//!
//! Churn-scale lifecycle: teardown folds the departing connection's
//! [`crate::ConnStats`] and its fleet view into retired accumulators so
//! totals and attribution stay exact across any amount of churn,
//! admission is budgetable (accept storms defer instead of stampeding
//! the table), and [`ShardTable::tick`] evicts idle connections under a
//! configurable timeout.
//!
//! Work proportional to the traffic, not the table: the drains never
//! walk the slots. Each consumes a *ready set* — a FIFO of slot indices
//! plus a per-slot "queued" bit. Membership is conservative: a slot is
//! enqueued whenever connection code runs on it or a `&mut Connection`
//! is handed out, and a consumer that finds the connection empty (or
//! the slot freed or reused) clears the bit and moves on.
//! Per-connection order is the connection's own queue order; across
//! connections the order is readiness order; the endpoint visits the
//! tables in shard order.

use crate::conn::{Connection, DeliverOutcome, DropReason, SendOutcome};
use crate::router::{ConnKey, CookieLookup, Router};
use crate::shard::{ShardDelivery, ShardHandle};
use crate::Nanos;
use pa_buf::{Msg, MsgPool};
use pa_obs::{Fleet, RejectLedger, RejectReason};
use pa_wire::{Cookie, EndpointAddr, Preamble, PREAMBLE_LEN};
use std::collections::VecDeque;

/// The error for operations through a stale [`ShardHandle`] (its
/// connection was removed, and the directory slot possibly reused,
/// since the handle was minted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleHandle;

impl std::fmt::Display for StaleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stale connection handle (connection removed)")
    }
}

impl std::error::Error for StaleHandle {}

/// Why [`crate::ShardedEndpoint::try_accept`] refused a connection. The
/// connection is handed back so the caller can retry after the
/// condition clears.
#[derive(Debug)]
pub enum AdmitError {
    /// The live-connection cap is reached; retry after removals.
    TableFull(Connection),
    /// This tick's accept budget is spent; retry next tick. This is the
    /// accept-storm valve: a flash crowd is admitted at a bounded rate
    /// instead of stampeding the table in one tick.
    Deferred(Connection),
}

impl AdmitError {
    /// Recovers the refused connection for a later retry.
    pub fn into_connection(self) -> Connection {
        match self {
            AdmitError::TableFull(c) | AdmitError::Deferred(c) => c,
        }
    }
}

/// Connection-lifecycle counters of one shard. `admitted == live +
/// removed` always (migrations count on both sides), and `removed`
/// includes the idle-evicted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Connections admitted (including migrations in).
    pub admitted: u64,
    /// Connections removed (including idle evictions and migrations
    /// out).
    pub removed: u64,
    /// Removals initiated by the idle-timeout sweep of a tick.
    pub evicted_idle: u64,
    /// Connections migrated out to another shard.
    pub migrated_out: u64,
    /// Connections adopted from another shard.
    pub migrated_in: u64,
    /// Accept refusals due to the live cap.
    pub admission_denied: u64,
    /// Accept refusals due to the per-tick budget.
    pub admission_deferred: u64,
}

/// Per-outcome tally of one
/// [`crate::ShardedEndpoint::from_network_burst`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BurstDemux {
    /// Frames handed in.
    pub frames: u64,
    /// Frames that demuxed to a connection.
    pub routed: u64,
    /// Frames refused (demux-level or by the connection).
    pub dropped: u64,
    /// Application messages delivered across the burst.
    pub msgs: u64,
}

impl BurstDemux {
    pub(crate) fn tally(&mut self, outcome: &DeliverOutcome) {
        match outcome {
            DeliverOutcome::Fast { msgs } | DeliverOutcome::Slow { msgs } => {
                self.msgs += *msgs as u64;
            }
            DeliverOutcome::Dropped(_) => self.dropped += 1,
        }
    }

    /// Folds another burst report into this one.
    pub fn merge(&mut self, other: &BurstDemux) {
        self.frames += other.frames;
        self.routed += other.routed;
        self.dropped += other.dropped;
        self.msgs += other.msgs;
    }
}

/// The per-connection queues a host drains. Each has a ready set on the
/// table: a FIFO of slot indices that *may* hold something on that
/// queue, plus a bit in [`Slot::queued`] so a slot sits in each FIFO at
/// most once.
#[derive(Debug, Clone, Copy)]
enum Ready {
    Delivery = 0,
    Transmit = 1,
    Post = 2,
}

impl Ready {
    const ALL: u8 = 0b111;

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// Exactly which of `conn`'s queues are non-empty, as [`Ready`] bits.
fn ready_mask(conn: &Connection) -> u8 {
    let post = conn.has_pending() || conn.backlog_len() > 0;
    (conn.has_delivery() as u8) << Ready::Delivery as u8
        | (conn.has_transmit() as u8) << Ready::Transmit as u8
        | (post as u8) << Ready::Post as u8
}

/// One connection slot. `handle` is the occupant's stable handle
/// (meaningful while `conn` is `Some`), `last_active` drives idle
/// eviction, `queued` holds the [`Ready`] bits of the ready sets this
/// slot index currently sits in (it outlives the connection: a freed or
/// reused slot stays queued until a consumer reaches it).
#[derive(Debug)]
struct Slot {
    conn: Option<Connection>,
    handle: ShardHandle,
    last_active: Nanos,
    queued: u8,
}

/// One shard of a [`crate::ShardedEndpoint`]. Hosts reach it read-only
/// through [`crate::ShardedEndpoint::shard`], for its ledgers and
/// router statistics.
#[derive(Debug)]
pub struct ShardTable {
    slots: Vec<Slot>,
    /// Freed slot indices awaiting reuse.
    free: Vec<u32>,
    /// Live connections (slots minus free).
    live: usize,
    router: Router,
    /// The shard's private buffer pool: wire-bytes ingest takes from
    /// it, recycled deliveries return to it.
    pub(crate) pool: MsgPool,
    /// Frames handed to this shard.
    frames_seen: u64,
    /// Frames that demuxed to a connection (the rest are in `rejects`).
    routed: u64,
    /// Frames this shard refused before reaching any connection, so no
    /// `ConnStats` counter moved for them. Together with `routed` they
    /// account for every frame seen ([`ShardTable::demux_balanced`]).
    rejects: RejectLedger,
    /// The ready sets, indexed by [`Ready`].
    ready: [VecDeque<u32>; 3],
    /// Virtual clock, advanced by [`ShardTable::tick`]; stamps
    /// `last_active`.
    clock: Nanos,
    /// Evict connections idle strictly longer than this, if set.
    idle_timeout: Option<Nanos>,
    /// Refuse [`ShardTable::try_accept`] past this many live
    /// connections.
    max_live: Option<usize>,
    /// Per-tick [`ShardTable::try_accept`] budget (accept-storm valve).
    accept_budget: Option<u32>,
    accepts_this_tick: u32,
    lifecycle: LifecycleStats,
    /// `ConnStats` of removed connections, folded positionally
    /// (`ConnStats::fields()` order) so totals stay exact across churn.
    retired_stats: [u64; crate::ConnStats::FIELD_COUNT],
    /// What removed connections did off the fast path
    /// ([`Connection::fold_into`]), so the endpoint's fleet view
    /// survives churn as its totals do.
    retired: Fleet,
}

impl ShardTable {
    pub(crate) fn new() -> Self {
        ShardTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            router: Router::new(),
            pool: MsgPool::with_defaults(),
            frames_seen: 0,
            routed: 0,
            rejects: RejectLedger::default(),
            ready: Default::default(),
            clock: 0,
            idle_timeout: None,
            max_live: None,
            accept_budget: None,
            accepts_this_tick: 0,
            lifecycle: LifecycleStats::default(),
            retired_stats: [0; crate::ConnStats::FIELD_COUNT],
            retired: Fleet::default(),
        }
    }

    // ---- what a host reads through `ShardedEndpoint::shard` ----------

    /// The shard's router (statistics).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The shard's lifecycle counters.
    pub fn lifecycle(&self) -> &LifecycleStats {
        &self.lifecycle
    }

    /// Frames handed to this shard.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Frames that demuxed to a connection.
    pub fn routed_frames(&self) -> u64 {
        self.routed
    }

    /// Frames this shard refused before any connection saw them.
    pub fn rejects(&self) -> &RejectLedger {
        &self.rejects
    }

    // ---- lifecycle ---------------------------------------------------

    pub(crate) fn set_idle_timeout(&mut self, timeout: Option<Nanos>) {
        self.idle_timeout = timeout;
    }

    pub(crate) fn set_max_live(&mut self, max: Option<usize>) {
        self.max_live = max;
    }

    pub(crate) fn set_accept_budget(&mut self, budget: Option<u32>) {
        self.accept_budget = budget;
    }

    /// Seats `conn` in a slot (a freed one before the table grows) and
    /// registers its expected peer identification. `enroll` is told the
    /// slot index and answers with the connection's handle — the
    /// directory entry is written at the moment the location is known.
    fn admit(&mut self, conn: Connection, enroll: impl FnOnce(usize) -> ShardHandle) -> usize {
        let idx = self.free.pop().map_or(self.slots.len(), |i| i as usize);
        self.router
            .register_ident(conn.expected_ident().to_vec(), ConnKey(idx));
        let (handle, clock) = (enroll(idx), self.clock);
        match self.slots.get_mut(idx) {
            Some(slot) => {
                slot.conn = Some(conn);
                slot.handle = handle;
                slot.last_active = clock;
            }
            None => self.slots.push(Slot {
                conn: Some(conn),
                handle,
                last_active: clock,
                queued: 0,
            }),
        }
        self.live += 1;
        self.lifecycle.admitted += 1;
        // The connection may arrive with work already queued.
        self.enqueue(idx, Ready::ALL);
        idx
    }

    /// Adds a connection (the trusted local path, not subject to the
    /// cap or the budget) and returns the handle `enroll` minted.
    pub(crate) fn add(
        &mut self,
        conn: Connection,
        enroll: impl FnOnce(usize) -> ShardHandle,
    ) -> ShardHandle {
        let idx = self.admit(conn, enroll);
        self.slots[idx].handle
    }

    /// Admission-controlled [`ShardTable::add`]: refuses past the live
    /// cap ([`AdmitError::TableFull`]) or this tick's budget
    /// ([`AdmitError::Deferred`]), handing the connection back for a
    /// retry. Both refusals are counted; `enroll` runs only on success.
    // The Err variant carries the refused Connection back on purpose —
    // a denied accept must not destroy the connection.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_accept(
        &mut self,
        conn: Connection,
        enroll: impl FnOnce(usize) -> ShardHandle,
    ) -> Result<ShardHandle, AdmitError> {
        if self.max_live.is_some_and(|max| self.live >= max) {
            self.lifecycle.admission_denied += 1;
            return Err(AdmitError::TableFull(conn));
        }
        if self
            .accept_budget
            .is_some_and(|budget| self.accepts_this_tick >= budget)
        {
            self.lifecycle.admission_deferred += 1;
            return Err(AdmitError::Deferred(conn));
        }
        self.accepts_this_tick += 1;
        Ok(self.add(conn, enroll))
    }

    /// Adopts a connection migrated from another shard and binds the
    /// verified cookie that brought it here (it was verified in the
    /// source shard, whose extraction tombstoned it there; the live
    /// binding belongs where the cookie hashes). `relocate` is
    /// [`ShardTable::admit`]'s `enroll`.
    pub(crate) fn adopt(
        &mut self,
        conn: Connection,
        cookie: Cookie,
        relocate: impl FnOnce(usize) -> ShardHandle,
    ) {
        self.lifecycle.migrated_in += 1;
        let idx = self.admit(conn, relocate);
        self.router.bind_cookie(cookie, ConnKey(idx));
    }

    /// Empties slot `idx` for reuse.
    fn vacate(&mut self, idx: usize) -> (Connection, ShardHandle) {
        let slot = &mut self.slots[idx];
        let conn = slot
            .conn
            .take()
            .expect("the directory and the router name live slots");
        self.free.push(idx as u32);
        self.live -= 1;
        (conn, slot.handle)
    }

    /// Removes the connection in slot `idx`: clears its router entries
    /// (O(its own entries) — reverse-indexed, no map scans), folds its
    /// stats into the retired accumulator so totals stay exact, frees
    /// the slot, and returns the connection for draining.
    pub(crate) fn remove(&mut self, idx: usize) -> Connection {
        self.router.remove(ConnKey(idx));
        let (conn, _) = self.vacate(idx);
        self.lifecycle.removed += 1;
        for (acc, (_, v)) in self.retired_stats.iter_mut().zip(conn.stats().fields()) {
            *acc += v;
        }
        conn.fold_into(&mut self.retired);
        conn
    }

    /// Extracts a connection for migration to another shard: the router
    /// keeps its retired and live cookies as *tombstones* (they hash
    /// here, so replays must still be refused here), the slot is freed,
    /// and the connection travels with its stats and its handle —
    /// nothing is folded into the retired accumulator, because the
    /// connection still exists (globally, totals stay exact when shard
    /// ledgers are summed).
    pub(crate) fn extract(&mut self, key: ConnKey) -> (Connection, ShardHandle) {
        self.router.extract(key);
        self.lifecycle.migrated_out += 1;
        self.vacate(key.0)
    }

    /// Live connections.
    pub(crate) fn connection_count(&self) -> usize {
        self.live
    }

    /// Every live connection with its handle, slot order.
    pub(crate) fn conns(&self) -> impl Iterator<Item = (ShardHandle, &Connection)> {
        self.slots
            .iter()
            .filter_map(|s| Some((s.handle, s.conn.as_ref()?)))
    }

    /// `ConnStats` of removed connections, `ConnStats::fields()` order.
    pub(crate) fn retired_stats(&self) -> &[u64; crate::ConnStats::FIELD_COUNT] {
        &self.retired_stats
    }

    /// Folds this shard's connections, removed and live, into `fleet`.
    pub(crate) fn fold_into(&self, fleet: &mut Fleet) {
        fleet.merge(&self.retired);
        for (_, conn) in self.conns() {
            conn.fold_into(fleet);
        }
    }

    /// The connection in live slot `idx`.
    pub(crate) fn conn(&self, idx: usize) -> &Connection {
        self.slots[idx]
            .conn
            .as_ref()
            .expect("the directory names live slots")
    }

    /// Mutable access to the connection in live slot `idx`. The caller
    /// can drive it directly; whatever it leaves queued must still be
    /// found by the drains, so the slot goes on every ready set.
    pub(crate) fn conn_mut(&mut self, idx: usize) -> &mut Connection {
        self.enqueue(idx, Ready::ALL);
        self.slots[idx]
            .conn
            .as_mut()
            .expect("the directory names live slots")
    }

    /// Sends `payload` on the connection in live slot `idx`.
    pub(crate) fn send(&mut self, idx: usize, payload: &[u8]) -> SendOutcome {
        self.routed_conn_mut(ConnKey(idx)).send(payload)
    }

    // ---- ready sets --------------------------------------------------

    /// Adds slot `idx` to every ready set in `want` it is not already
    /// in. `Ready::ALL` is the conservative "connection code ran here";
    /// a caller that has just visited the connection passes its exact
    /// [`ready_mask`] instead.
    #[inline]
    fn enqueue(&mut self, idx: usize, want: u8) {
        let slot = &mut self.slots[idx];
        let add = want & !slot.queued;
        if add == 0 {
            return;
        }
        slot.queued |= add;
        for (kind, fifo) in self.ready.iter_mut().enumerate() {
            if add & (1 << kind) != 0 {
                fifo.push_back(idx as u32);
            }
        }
    }

    /// Walks ready set `kind` from its head. `visit` drains what it
    /// wants from a queued live connection and returns `true` if it
    /// found the queue empty — the slot is then dequeued, as is a freed
    /// slot — or `false` to stop with the slot still at the head.
    #[inline]
    fn consume(
        &mut self,
        kind: Ready,
        mut visit: impl FnMut(ShardHandle, &mut Connection) -> bool,
    ) {
        while let Some(&idx) = self.ready[kind as usize].front() {
            let slot = &mut self.slots[idx as usize];
            if let Some(conn) = slot.conn.as_mut() {
                if !visit(slot.handle, conn) {
                    return;
                }
            }
            slot.queued &= !kind.bit();
            self.ready[kind as usize].pop_front();
        }
        debug_assert!(
            self.slots.iter().all(|s| s.queued & kind.bit() == 0
                && s.conn.as_ref().map_or(0, ready_mask) & kind.bit() == 0),
            "{kind:?} ready set reported empty with a connection still holding work"
        );
    }

    /// The demux accounting invariant: every frame handed to this shard
    /// either routed to exactly one connection (which then accounts for
    /// it in its own `delivery_balanced()` ledger) or was refused with
    /// exactly one demux-level [`RejectReason`].
    pub(crate) fn demux_balanced(&self) -> bool {
        self.frames_seen == self.routed + self.rejects.total()
    }

    /// The progress invariant, by full scan (a harness check, not a
    /// hot-path call): every live connection holding a delivery, a
    /// transmit or post work is on the matching ready set — so the
    /// drains will reach it — and every slot sits in each set exactly as
    /// often as its queued bit says, which is at most once.
    pub(crate) fn ready_balanced(&self) -> bool {
        let mut seen = vec![0u8; self.slots.len()];
        for (kind, fifo) in self.ready.iter().enumerate() {
            for &idx in fifo {
                if seen[idx as usize] & (1 << kind) != 0 {
                    return false;
                }
                seen[idx as usize] |= 1 << kind;
            }
        }
        self.slots.iter().zip(seen).all(|(slot, seen)| {
            seen == slot.queued && slot.conn.as_ref().map_or(0, ready_mask) & !slot.queued == 0
        })
    }

    // ---- demux: what the front hands down ----------------------------

    /// Counts one demux-level rejection.
    fn reject(&mut self, reason: RejectReason) -> DeliverOutcome {
        self.rejects.bump(reason);
        DeliverOutcome::Dropped(reason)
    }

    /// The live connection behind a router key (the router never holds
    /// keys for freed slots), about to run: stamps its activity and puts
    /// it on every ready set.
    fn routed_conn_mut(&mut self, key: ConnKey) -> &mut Connection {
        let clock = self.clock;
        self.enqueue(key.0, Ready::ALL);
        let slot = &mut self.slots[key.0];
        slot.last_active = clock;
        slot.conn
            .as_mut()
            .expect("router key must name a live slot")
    }

    /// One cookie-only frame (preamble still in front): one router
    /// probe, then Figure 3's `from_network()` from the point where the
    /// connection is known. Every entry demuxes a cookie-only frame
    /// here, the burst included, so each frame is probed and counted
    /// once.
    #[inline]
    pub(crate) fn ingest_cookie(&mut self, preamble: Preamble, mut frame: Msg) -> DeliverOutcome {
        self.frames_seen += 1;
        match self.router.demux_cookie(preamble.cookie) {
            CookieLookup::Hit(key) => {
                self.routed += 1;
                frame.skip_front(PREAMBLE_LEN);
                self.routed_conn_mut(key).handle_routed(preamble, frame)
            }
            CookieLookup::Stale(_) => self.reject(DropReason::StaleCookie),
            CookieLookup::Unknown => self.reject(DropReason::UnknownCookie),
        }
    }

    /// One identified frame (preamble and ident still in front) for the
    /// connection the front resolved it to. The cookie it carries is
    /// *not* bound here: the front binds it once the returned outcome
    /// says the connection verified the frame
    /// ([`ShardTable::bind_verified`]).
    pub(crate) fn ingest_ident(
        &mut self,
        key: ConnKey,
        ident_len: usize,
        preamble: Preamble,
        mut frame: Msg,
    ) -> DeliverOutcome {
        self.frames_seen += 1;
        self.router.ident_hits += 1;
        self.routed += 1;
        frame.skip_front(PREAMBLE_LEN + ident_len);
        self.routed_conn_mut(key).handle_routed(preamble, frame)
    }

    /// Binds `cookie` as `key`'s current inbound cookie — in the
    /// connection's own record and in the router, which therefore
    /// agree — if `outcome` says the connection verified the frame that
    /// carried it ([`Connection::bind_verified`], the one rule).
    /// Returns whether it bound.
    pub(crate) fn bind_verified(
        &mut self,
        cookie: Cookie,
        key: ConnKey,
        outcome: &DeliverOutcome,
    ) -> bool {
        let bound = self.routed_conn_mut(key).bind_verified(cookie, outcome);
        if bound {
            self.router.bind_cookie(cookie, key);
        }
        bound
    }

    // ---- drains ------------------------------------------------------

    /// Drains up to `max` outgoing frames into `out` (caller-owned
    /// scratch), visiting only connections on the transmit ready set.
    /// Returns how many were appended. All frames of one connection go
    /// to that connection's peer, in its queue order; connections are
    /// served in the order they became ready. A connection cut off at
    /// `max` stays at the head for the next call.
    pub(crate) fn poll_transmit_burst(
        &mut self,
        max: usize,
        out: &mut Vec<(EndpointAddr, Msg)>,
    ) -> usize {
        let mut n = 0;
        self.consume(Ready::Transmit, |_, conn| {
            let peer = conn.peer_addr();
            while n < max {
                match conn.poll_transmit() {
                    Some(f) => out.push((peer, f)),
                    None => return true,
                }
                n += 1;
            }
            false
        });
        n
    }

    /// Drains every delivered application message into `out`, tagged
    /// with its connection's handle and `shard` (this shard's index),
    /// visiting only connections on the delivery ready set: each
    /// connection's messages in its queue order, connections in the
    /// order they became ready. Returns how many were appended. A table
    /// with nothing to deliver answers with one emptiness test.
    #[inline]
    pub(crate) fn drain_deliveries(&mut self, shard: usize, out: &mut Vec<ShardDelivery>) -> usize {
        let before = out.len();
        self.consume(Ready::Delivery, |conn, c| {
            while let Some(msg) = c.poll_delivery() {
                out.push(ShardDelivery { conn, shard, msg });
            }
            true
        });
        out.len() - before
    }

    /// Runs deferred post-processing on every connection that may owe
    /// any (the post ready set), once each. A connection whose post work
    /// cannot finish yet goes back on the set for the next call.
    pub(crate) fn process_all_pending(&mut self) {
        for _ in 0..self.ready[Ready::Post as usize].len() {
            let Some(idx) = self.ready[Ready::Post as usize].pop_front() else {
                break;
            };
            let slot = &mut self.slots[idx as usize];
            slot.queued &= !Ready::Post.bit();
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            while conn.has_pending() || conn.backlog_len() > 0 {
                let report = conn.process_pending();
                if report.is_empty() {
                    break;
                }
            }
            // Post work can release held deliveries and send the
            // backlog; the connection was just visited, so the test is
            // exact.
            let want = ready_mask(conn);
            self.enqueue(idx as usize, want);
        }
    }

    /// Advances time: each connection's timers, then — for a connection
    /// inactive strictly longer than the idle timeout — eviction, with
    /// its handle pushed on `evicted` for the directory to forget. The
    /// per-tick accept budget resets.
    pub(crate) fn tick(&mut self, now: Nanos, evicted: &mut Vec<ShardHandle>) {
        self.clock = now;
        self.accepts_this_tick = 0;
        for idx in 0..self.slots.len() {
            let slot = &mut self.slots[idx];
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            conn.tick(now);
            if self
                .idle_timeout
                .is_some_and(|t| now.saturating_sub(slot.last_active) > t)
            {
                evicted.push(slot.handle);
                self.remove(idx);
                self.lifecycle.evicted_idle += 1;
            } else {
                // Timers retransmit and release; exact for the same
                // reason as in `process_all_pending`.
                let want = ready_mask(conn);
                self.enqueue(idx, want);
            }
        }
    }
}
