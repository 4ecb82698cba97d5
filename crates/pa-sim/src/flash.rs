//! Flash-crowd scenario: a million expected peers, a hundred thousand
//! live at once, and the storms in between.
//!
//! §6's "Maximum Load" analysis asks what happens when a server carries
//! one PA per client at real populations. [`FlashCrowd`] drives a
//! [`ShardedEndpoint`] through the whole arc of such an event, with
//! exact bookkeeping at every step:
//!
//! 1. **Directory**: pre-register the full expected population
//!    (`idents` entries — at full scale ≥ 1M) so admission can verify
//!    arrivals against it;
//! 2. **Accept storm**: the live population (`live`, at full scale
//!    ~100k) arrives at once and is admitted through the per-shard
//!    accept budget over several ticks (a counted, bounded ramp — not a
//!    stampede into the tables);
//! 3. **Establish**: every client's first (ident-carrying) frame
//!    verifies, binds its cookie, and *migrates* the connection to the
//!    shard that cookie hashes to;
//! 4. **Steady state**: rounds of cookie-only traffic over rotating
//!    windows of the population, alternating the zero-copy burst path
//!    and the per-shard-pool wire path;
//! 5. **Re-key storm**: a slice of clients rotates cookies mid-flight
//!    (more migrations, bounded tombstones), then replays every retired
//!    cookie — each replay must be refused as **stale**, exactly;
//! 6. **Adversarial storm**: unknown cookies, foreign and truncated
//!    idents, zero cookies, truncated preambles — every category
//!    counted against a known send count, `==` not `>=`;
//! 7. **Departure**: explicit removals plus idle eviction drain the
//!    crowd to zero, with every ledger still reconciling.
//!
//! Telemetry rides on one [`TelemetryDomain`] per shard (the pa-mcobs
//! plane): each phase folds per-shard counter *deltas* into that
//! shard's domain, and the final [`SnapshotCoordinator::collect`] must
//! reproduce the endpoint's own ledgers exactly when the domains are
//! merged — the same fold-the-deltas discipline the multi-core
//! observability plane uses, applied to demux sharding.

use crate::Nanos;
use pa_buf::Msg;
use pa_core::conn::{Connection, ConnectionParams, DeliverOutcome, DropReason};
use pa_core::layer::NullLayer;
use pa_core::shard::{ShardDelivery, ShardHandle, ShardedEndpoint};
use pa_core::{AdmitError, PaConfig};
use pa_obs::rng::{Rng, SplitMix64};
use pa_obs::{
    DomainCounter, GlobalSnapshot, RejectLedger, SketchConfig, SnapshotCoordinator, TelemetryDomain,
};
use pa_wire::{ByteOrder, Cookie, EndpointAddr, Preamble};
use std::collections::HashSet;

/// Scale knobs of a flash-crowd run.
#[derive(Debug, Clone)]
pub struct FlashConfig {
    /// Shard count (power of two).
    pub shards: usize,
    /// Expected-population directory size (real idents + filler).
    pub idents: usize,
    /// Live connections admitted.
    pub live: usize,
    /// Per-shard accepts per tick during the admission storm.
    pub accept_budget: u32,
    /// Steady-traffic rounds (each over one rotating window).
    pub rounds: usize,
    /// Clients active per steady round.
    pub window: usize,
    /// Frames per ingest burst.
    pub burst: usize,
    /// Clients re-keyed (then replayed) in the rotation storm.
    pub rekeys: usize,
    /// Unknown-cookie frames in the adversarial storm.
    pub storm_unknown: usize,
    /// Foreign-ident frames (full-length, unregistered) in the storm.
    pub storm_foreign: usize,
    /// Truncated-ident frames (shorter than any registered ident).
    pub storm_trunc_ident: usize,
    /// Zero-cookie frames.
    pub storm_zero: usize,
    /// Truncated-preamble frames.
    pub storm_trunc_preamble: usize,
    /// Connections removed explicitly at departure (the rest are
    /// idle-evicted).
    pub removals: usize,
    /// Seed for the adversarial streams.
    pub seed: u64,
}

impl FlashConfig {
    /// A debug-build smoke scale: 8 shards, 20k directory, 2k live.
    pub fn smoke() -> FlashConfig {
        FlashConfig {
            shards: 8,
            idents: 20_000,
            live: 2_000,
            accept_budget: 64,
            rounds: 3,
            window: 256,
            burst: 512,
            rekeys: 128,
            storm_unknown: 1_000,
            storm_foreign: 400,
            storm_trunc_ident: 200,
            storm_zero: 200,
            storm_trunc_preamble: 200,
            removals: 200,
            seed: 0xF1A5_4C04D,
        }
    }

    /// The acceptance scale of ROADMAP item 1: a ≥1M-ident directory,
    /// ~100k live connections, 64 shards. Release builds only.
    pub fn full() -> FlashConfig {
        FlashConfig {
            shards: 64,
            idents: 1_000_000,
            live: 100_000,
            accept_budget: 512,
            rounds: 2,
            window: 8_192,
            burst: 1_024,
            rekeys: 2_048,
            storm_unknown: 50_000,
            storm_foreign: 20_000,
            storm_trunc_ident: 10_000,
            storm_zero: 10_000,
            storm_trunc_preamble: 10_000,
            removals: 10_000,
            seed: 0xF1A5_4C04D,
        }
    }
}

/// What one flash-crowd run did, and whether every ledger held.
#[derive(Debug, Clone)]
pub struct FlashReport {
    /// Idents in the expected directory at its peak.
    pub idents_preregistered: usize,
    /// Connections admitted.
    pub admitted: usize,
    /// Ticks the admission storm took under the accept budget.
    pub admission_ticks: u64,
    /// Accepts deferred (refused this tick, admitted a later one).
    pub deferred: u64,
    /// Establish-time migrations (cookie hashed off the provisional
    /// shard).
    pub migrations: u64,
    /// Cookie-only frames routed in steady state.
    pub steady_frames: u64,
    /// Application messages delivered and recycled.
    pub delivered: u64,
    /// Cookies retired by the re-key storm.
    pub rekeyed: usize,
    /// Replays of retired cookies refused as stale (must equal
    /// `rekeyed`).
    pub stale_refusals: u64,
    /// Connections removed explicitly at departure.
    pub removed: usize,
    /// Connections idle-evicted at departure.
    pub evicted: u64,
    /// Frames each shard demuxed (the balance distribution).
    pub per_shard_frames: Vec<u64>,
    /// Every reject, front + all shards, folded.
    pub rejects: RejectLedger,
    /// [`ShardedEndpoint::demux_balanced`] — front conservation plus
    /// every shard's own demux ledger.
    pub demux_balanced: bool,
    /// Every storm category matched its send count exactly, and the
    /// benign phases contributed zero rejects.
    pub rejects_reconcile: bool,
    /// Each shard router's stale ledger identity held.
    pub stale_ledgers_ok: bool,
    /// Each shard pool's flux identity held.
    pub pools_ok: bool,
    /// The merged per-shard telemetry domains reproduced the demux
    /// ledgers exactly.
    pub fold_exact: bool,
    /// Stack plans compiled while the run built its connections — the
    /// growth of the endpoint's `plan.plan_builds`, a process-wide
    /// counter: every connection is over one stack, so one.
    pub plan_builds: u64,
    /// Builds that found that plan (`plan.plan_hits`' growth).
    pub plan_hits: u64,
}

impl FlashReport {
    /// Max/min per-shard frame counts (how even the hash spread was).
    pub fn shard_spread(&self) -> (u64, u64) {
        let max = self.per_shard_frames.iter().copied().max().unwrap_or(0);
        let min = self.per_shard_frames.iter().copied().min().unwrap_or(0);
        (max, min)
    }
}

struct Client {
    conn: Connection,
    handle: ShardHandle,
    /// Cookie raws this client has retired (re-key storm replays them).
    retired: Vec<u64>,
}

/// The flash-crowd driver. Build with [`FlashCrowd::new`], run with
/// [`FlashCrowd::run`].
pub struct FlashCrowd {
    cfg: FlashConfig,
    server: ShardedEndpoint,
    /// The expected-peer directory: idents pre-registered but not yet
    /// admitted (admission consumes them). No connection exists for
    /// an entry until it is admitted.
    expected: HashSet<Vec<u8>>,
    clients: Vec<Client>,
    coordinator: SnapshotCoordinator,
    domains: Vec<TelemetryDomain>,
    /// Per-shard (frames, routed, rejects) at the last domain fold.
    folded: Vec<(u64, u64, u64)>,
    clock: Nanos,
    report: FlashReport,
    delivery_scratch: Vec<ShardDelivery>,
    /// `(plan_builds, plan_hits)` before the run.
    plan_counts0: (u64, u64),
}

const SERVER_HOST: u64 = 0xFEED;
const TICK: Nanos = 1_000_000; // 1 ms of virtual time per tick

/// `(plan_builds, plan_hits)` as `endpoint`'s snapshot reports them.
fn plan_counts(endpoint: &ShardedEndpoint) -> (u64, u64) {
    let snap = endpoint.metrics_snapshot(0);
    let get = |name| {
        snap.get("plan", name)
            .expect("an endpoint records the plan scope")
    };
    (get("plan_builds"), get("plan_hits"))
}

impl FlashCrowd {
    /// Builds the server, the telemetry plane, and an empty report.
    pub fn new(cfg: FlashConfig) -> FlashCrowd {
        let mut coordinator = SnapshotCoordinator::new(SketchConfig::default());
        let domains = (0..cfg.shards)
            .map(|i| coordinator.domain(&format!("shard{i:02}")))
            .collect();
        let mut server = ShardedEndpoint::new(cfg.shards);
        server.set_accept_budget_per_shard(Some(cfg.accept_budget));
        FlashCrowd {
            plan_counts0: plan_counts(&server),
            folded: vec![(0, 0, 0); cfg.shards],
            server,
            expected: HashSet::new(),
            clients: Vec::new(),
            coordinator,
            domains,
            clock: 0,
            delivery_scratch: Vec::new(),
            report: FlashReport {
                idents_preregistered: 0,
                admitted: 0,
                admission_ticks: 0,
                deferred: 0,
                migrations: 0,
                steady_frames: 0,
                delivered: 0,
                rekeyed: 0,
                stale_refusals: 0,
                removed: 0,
                evicted: 0,
                per_shard_frames: vec![0; cfg.shards],
                rejects: RejectLedger::new(),
                demux_balanced: false,
                rejects_reconcile: false,
                stale_ledgers_ok: false,
                pools_ok: false,
                fold_exact: false,
                plan_builds: 0,
                plan_hits: 0,
            },
            cfg,
        }
    }

    fn conn_pair(&self, i: usize) -> (Connection, Connection) {
        let host = i as u64 + 1;
        let mk = |local: u64, peer: u64, seed: u64| {
            Connection::new(
                vec![Box::new(NullLayer)],
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(local, 1),
                    EndpointAddr::from_parts(peer, 1),
                    seed,
                ),
            )
            .expect("null stack always builds")
        };
        let client = mk(host, SERVER_HOST, host.wrapping_mul(2) + 1);
        let server = mk(SERVER_HOST, host, host.wrapping_mul(2) + 2);
        (client, server)
    }

    /// Folds each shard's demux-counter growth since the last fold into
    /// that shard's telemetry domain — the delta discipline that makes
    /// the final merged snapshot reproduce the ledgers exactly.
    fn fold_domains(&mut self, burst_phase: bool) {
        for i in 0..self.cfg.shards {
            let ep = self.server.shard(i);
            let now = (ep.frames_seen(), ep.routed_frames(), ep.rejects().total());
            let last = self.folded[i];
            let d = &mut self.domains[i];
            d.set_now(self.clock);
            d.add_stat("demux", "frames", now.0 - last.0);
            d.add_stat("demux", "routed", now.1 - last.1);
            d.add_stat("demux", "rejects", now.2 - last.2);
            if burst_phase && now.0 > last.0 {
                d.bump(DomainCounter::Bursts);
                d.add(DomainCounter::BurstFrames, now.0 - last.0);
            }
            self.folded[i] = now;
        }
    }

    fn drain_and_recycle(&mut self) -> u64 {
        let mut scratch = std::mem::take(&mut self.delivery_scratch);
        scratch.clear();
        self.server.drain_deliveries(&mut scratch);
        let n = scratch.len() as u64;
        for d in scratch.drain(..) {
            self.server.recycle_delivery(d);
        }
        self.delivery_scratch = scratch;
        n
    }

    /// Phase 1+2: build the expected directory, then admit the live
    /// population through the per-shard accept budget.
    fn admission_storm(&mut self) {
        let mut arrivals = Vec::with_capacity(self.cfg.live);
        for i in 0..self.cfg.live {
            let (client, server_side) = self.conn_pair(i);
            self.expected.insert(server_side.expected_ident().to_vec());
            arrivals.push((client, server_side));
        }
        // Filler: the rest of the million-peer directory, expected but
        // never arriving this event.
        for i in self.cfg.live..self.cfg.idents {
            self.expected
                .insert(format!("expected-peer-{i:08x}").into_bytes());
        }
        self.report.idents_preregistered = self.expected.len();

        // The storm: everyone at the door at once, admitted only as
        // fast as the budget allows; deferred arrivals retry next tick.
        while !arrivals.is_empty() {
            self.clock += TICK;
            self.server.tick(self.clock);
            self.report.admission_ticks += 1;
            let mut retry = Vec::new();
            for (client, server_side) in arrivals {
                assert!(
                    self.expected.remove(server_side.expected_ident()),
                    "every arrival is in the expected directory"
                );
                match self.server.try_accept(server_side) {
                    Ok(handle) => self.clients.push(Client {
                        conn: client,
                        handle,
                        retired: Vec::new(),
                    }),
                    Err(AdmitError::Deferred(conn)) => {
                        // Back in the directory, back in the queue.
                        self.expected.insert(conn.expected_ident().to_vec());
                        self.report.deferred += 1;
                        retry.push((client, conn));
                    }
                }
            }
            arrivals = retry;
        }
        self.report.admitted = self.clients.len();
    }

    /// Phase 3: every client's first frame carries its ident, verifies,
    /// binds the cookie, and (usually) migrates the connection to the
    /// cookie's home shard.
    fn establish(&mut self) {
        let mut batch: Vec<Msg> = Vec::with_capacity(self.cfg.burst);
        for start in (0..self.clients.len()).step_by(self.cfg.burst) {
            let end = (start + self.cfg.burst).min(self.clients.len());
            batch.clear();
            for c in &mut self.clients[start..end] {
                c.conn.send(b"establish");
                batch.push(c.conn.poll_transmit().expect("first send always emits"));
            }
            let report = self.server.from_network_burst(&mut batch);
            assert_eq!(report.routed, (end - start) as u64, "establish all routes");
            for c in &mut self.clients[start..end] {
                c.conn.process_pending();
            }
            self.report.delivered += self.drain_and_recycle();
        }
        self.report.migrations = self.server.front_stats().migrations;
        self.fold_domains(true);
    }

    /// Phase 4: rounds of cookie-only traffic over rotating windows,
    /// alternating the burst path and the per-shard-pool wire path.
    fn steady_traffic(&mut self) {
        let live = self.clients.len();
        let mut batch: Vec<Msg> = Vec::with_capacity(self.cfg.burst);
        for round in 0..self.cfg.rounds {
            let base = round * self.cfg.window;
            let payload = [round as u8; 16];
            if round % 2 == 0 {
                // Burst path: frames batched, demuxed as per-shard
                // segments.
                for w in (0..self.cfg.window).step_by(self.cfg.burst) {
                    let n = self.cfg.burst.min(self.cfg.window - w);
                    batch.clear();
                    for k in 0..n {
                        let c = &mut self.clients[(base + w + k) % live];
                        c.conn.send(&payload);
                        batch.push(c.conn.poll_transmit().expect("steady send emits"));
                    }
                    self.report.steady_frames += n as u64;
                    let rep = self.server.from_network_burst(&mut batch);
                    assert_eq!(rep.routed, n as u64, "steady bursts all route");
                    for k in 0..n {
                        self.clients[(base + w + k) % live].conn.process_pending();
                    }
                    self.report.delivered += self.drain_and_recycle();
                }
            } else {
                // Wire path: each frame's bytes enter through the home
                // shard's pool (take → route → deliver → recycle).
                for k in 0..self.cfg.window {
                    let c = &mut self.clients[(base + k) % live];
                    c.conn.send(&payload);
                    let frame = c.conn.poll_transmit().expect("steady send emits");
                    let out = self.server.ingest_wire(frame.as_slice());
                    assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
                    c.conn.process_pending();
                    self.report.steady_frames += 1;
                }
                self.report.delivered += self.drain_and_recycle();
            }
            self.clock += TICK;
            self.server.tick(self.clock);
            self.fold_domains(round % 2 == 0);
        }
    }

    /// Phase 5: re-key a slice of the population (bounded tombstones,
    /// possibly more migrations), then replay every retired cookie and
    /// demand a stale refusal for each.
    fn rekey_storm(&mut self) {
        let live = self.clients.len();
        let stride = (live / self.cfg.rekeys.max(1)).max(1);
        let mut rekeyed = Vec::new();
        for k in 0..self.cfg.rekeys.min(live) {
            let i = (k * stride) % live;
            if self.clients[i].retired.len() >= 4 {
                continue; // stride wrapped onto an already-stormed client
            }
            let c = &mut self.clients[i];
            let old = c.conn.local_cookie().raw();
            c.conn.rotate_cookie(self.cfg.seed ^ (k as u64) << 17);
            c.retired.push(old);
            c.conn.send(b"rekeyed");
            let frame = c.conn.poll_transmit().expect("rekey send emits");
            let out = self.server.from_network(frame);
            assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
            c.conn.process_pending();
            rekeyed.push(i);
        }
        self.report.rekeyed = rekeyed.len();
        self.report.delivered += self.drain_and_recycle();

        // Replay every retired cookie: each hashes to the shard that
        // tombstoned it and must be refused as stale there — exactly
        // one refusal per retirement, no misses, no misroutes.
        let stale_before = self.server.global_rejects().get(DropReason::StaleCookie);
        for &i in &rekeyed {
            let old = *self.clients[i].retired.last().expect("just retired");
            let mut wire = Preamble::common(Cookie::from_raw(old), ByteOrder::Big)
                .encode()
                .to_vec();
            wire.extend_from_slice(b"replay of a retired route");
            let out = self.server.from_network(Msg::from_wire(wire));
            assert_eq!(out, DeliverOutcome::Dropped(DropReason::StaleCookie));
        }
        self.report.stale_refusals =
            self.server.global_rejects().get(DropReason::StaleCookie) - stale_before;
        self.fold_domains(false);
    }

    /// Phase 6: the adversarial storm — every hostile category at a
    /// known count, fed through the burst path mixed together.
    fn adversarial_storm(&mut self) {
        let mut rng = SplitMix64::new(self.cfg.seed);
        // Cookie raws that must NOT be used as "unknown": everything
        // live or retired (retired raws are stale, not unknown).
        let mut taken: HashSet<u64> = HashSet::new();
        for c in &self.clients {
            taken.insert(c.conn.local_cookie().raw());
            taken.extend(c.retired.iter().copied());
        }
        let ident_len = self.clients[0].conn.expected_ident().len();

        let mut frames: Vec<Msg> = Vec::new();
        for _ in 0..self.cfg.storm_unknown {
            let raw = loop {
                let r = rng.next_u64() & ((1 << 62) - 1);
                if r != 0 && !taken.contains(&r) {
                    break r;
                }
            };
            let mut wire = Preamble::common(Cookie::from_raw(raw), ByteOrder::Big)
                .encode()
                .to_vec();
            wire.extend_from_slice(b"nobody home");
            frames.push(Msg::from_wire(wire));
        }
        for _ in 0..self.cfg.storm_foreign {
            // Full-length ident that matches no registered connection.
            let mut wire =
                Preamble::with_conn_ident(Cookie::from_raw(rng.next_u64() | 1), ByteOrder::Big)
                    .encode()
                    .to_vec();
            wire.extend((0..ident_len + 8).map(|_| 0xEEu8));
            frames.push(Msg::from_wire(wire));
        }
        for _ in 0..self.cfg.storm_trunc_ident {
            // Ident flag set, but too short to carry any registered
            // ident.
            let mut wire =
                Preamble::with_conn_ident(Cookie::from_raw(rng.next_u64() | 1), ByteOrder::Big)
                    .encode()
                    .to_vec();
            wire.extend_from_slice(&[0xEE; 4]);
            frames.push(Msg::from_wire(wire));
        }
        for _ in 0..self.cfg.storm_zero {
            let mut wire = Preamble::common(Cookie::from_raw(0), ByteOrder::Big)
                .encode()
                .to_vec();
            wire.extend_from_slice(b"anonymous");
            frames.push(Msg::from_wire(wire));
        }
        for _ in 0..self.cfg.storm_trunc_preamble {
            frames.push(Msg::from_wire(vec![0xAB; 5]));
        }
        // Deterministic interleave.
        let n = frames.len();
        for i in (1..n).rev() {
            frames.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let before = *self.server.front_stats();
        let ledger_before = self.server.global_rejects();
        for chunk_start in (0..n).step_by(self.cfg.burst) {
            let end = (chunk_start + self.cfg.burst).min(n);
            let mut chunk: Vec<Msg> = frames.drain(..end - chunk_start).collect();
            let rep = self.server.from_network_burst(&mut chunk);
            assert_eq!(rep.routed, 0, "nothing in the storm routes");
        }
        assert_eq!(self.server.front_stats().frames - before.frames, n as u64);
        let delta = self.server.global_rejects().delta(&ledger_before);
        // Exact per-category accounting, == not >=.
        assert_eq!(
            delta.get(DropReason::UnknownCookie),
            self.cfg.storm_unknown as u64
        );
        assert_eq!(
            delta.get(DropReason::ForeignIdent),
            self.cfg.storm_foreign as u64
        );
        assert_eq!(
            delta.get(DropReason::TruncatedIdent),
            self.cfg.storm_trunc_ident as u64
        );
        assert_eq!(
            delta.get(DropReason::ZeroCookie),
            self.cfg.storm_zero as u64
        );
        assert_eq!(
            delta.get(DropReason::TruncatedPreamble),
            self.cfg.storm_trunc_preamble as u64
        );
        self.fold_domains(true);
    }

    /// Phase 7: the crowd leaves — explicit removals for a slice, idle
    /// eviction for the rest — and every handle goes stale.
    fn departure(&mut self) {
        for k in 0..self.cfg.removals.min(self.clients.len()) {
            let h = self.clients[k].handle;
            self.server
                .remove_connection(h)
                .expect("live handle removes");
            self.report.removed += 1;
        }
        self.server.set_idle_timeout(Some(TICK));
        self.clock += 1_000 * TICK;
        self.server.tick(self.clock);
        self.report.evicted = (0..self.cfg.shards)
            .map(|i| self.server.shard(i).lifecycle().evicted_idle)
            .sum();
        assert_eq!(self.server.connection_count(), 0, "the crowd left");
        // Every handle is now stale — refused and counted, never
        // misrouted.
        for k in [0usize, self.clients.len() / 2, self.clients.len() - 1] {
            assert!(self
                .server
                .try_send(self.clients[k].handle, b"late")
                .is_err());
        }
        self.fold_domains(false);
    }

    /// Final ledger audit: demux conservation, exact reject taxonomy,
    /// stale ledgers, pool flux, and the telemetry fold.
    fn audit(&mut self) {
        let ((builds, hits), (builds0, hits0)) = (plan_counts(&self.server), self.plan_counts0);
        (self.report.plan_builds, self.report.plan_hits) = (builds - builds0, hits - hits0);
        self.report.demux_balanced = self.server.demux_balanced();
        self.report.rejects = self.server.global_rejects();
        for i in 0..self.cfg.shards {
            self.report.per_shard_frames[i] = self.server.shard(i).frames_seen();
        }

        // The benign phases contributed zero rejects, so the global
        // taxonomy is exactly the storms: re-key replays (stale) plus
        // the five adversarial categories.
        let r = &self.report.rejects;
        self.report.rejects_reconcile = r.get(DropReason::StaleCookie)
            == self.report.rekeyed as u64
            && r.get(DropReason::UnknownCookie) == self.cfg.storm_unknown as u64
            && r.get(DropReason::ForeignIdent) == self.cfg.storm_foreign as u64
            && r.get(DropReason::TruncatedIdent) == self.cfg.storm_trunc_ident as u64
            && r.get(DropReason::ZeroCookie) == self.cfg.storm_zero as u64
            && r.get(DropReason::TruncatedPreamble) == self.cfg.storm_trunc_preamble as u64
            && r.total()
                == (self.report.rekeyed
                    + self.cfg.storm_unknown
                    + self.cfg.storm_foreign
                    + self.cfg.storm_trunc_ident
                    + self.cfg.storm_zero
                    + self.cfg.storm_trunc_preamble) as u64;

        self.report.stale_ledgers_ok =
            (0..self.cfg.shards).all(|i| self.server.shard(i).router().stale_ledger_reconciles());

        self.report.pools_ok = (0..self.cfg.shards).all(|i| {
            let s = self.server.shard_pool_stats(i);
            self.server.shard_pool_idle(i) as u64 == s.returns - s.hits - s.capped
        });

        // The telemetry fold: publish every shard domain, collect the
        // epoch-consistent snapshot, and the merged rows must equal the
        // endpoint's own ledgers — exactly, the pa-mcobs discipline.
        let snap = self.collect_snapshot();
        let stats = snap.merged_stats();
        self.report.fold_exact = stats.total("frames") == self.server.shard_frames()
            && stats.total("routed")
                == (0..self.cfg.shards)
                    .map(|i| self.server.shard(i).routed_frames())
                    .sum::<u64>()
            && stats.total("rejects")
                == (0..self.cfg.shards)
                    .map(|i| self.server.shard(i).rejects().total())
                    .sum::<u64>();
    }

    fn collect_snapshot(&mut self) -> GlobalSnapshot {
        let epoch = self.coordinator.advance();
        for d in &mut self.domains {
            d.set_now(self.clock);
            d.publish();
        }
        self.coordinator.collect(epoch)
    }

    /// Runs the whole event and returns the report.
    pub fn run(mut self) -> FlashReport {
        self.admission_storm();
        self.establish();
        self.steady_traffic();
        self.rekey_storm();
        self.adversarial_storm();
        self.departure();
        self.audit();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_flash_crowd_reconciles_end_to_end() {
        let cfg = FlashConfig::smoke();
        let report = FlashCrowd::new(cfg.clone()).run();
        assert_eq!(report.idents_preregistered, cfg.idents);
        assert_eq!(report.admitted, cfg.live);
        // The accept budget made the storm a ramp: 2000 arrivals over 8
        // shards at 64/shard/tick cannot land in one tick.
        assert!(report.admission_ticks > 1, "{report:?}");
        assert!(report.deferred > 0, "{report:?}");
        // Most establishes migrate (the cookie rarely hashes to the
        // provisional ident-placed shard): expect ≈ (1 - 1/shards).
        assert!(report.migrations as usize >= cfg.live / 2, "{report:?}");
        assert_eq!(report.rekeyed, cfg.rekeys);
        assert_eq!(report.stale_refusals, report.rekeyed as u64);
        assert_eq!(report.removed + report.evicted as usize, cfg.live);
        // Every shard carried real traffic.
        let (max, min) = report.shard_spread();
        assert!(min > 0, "no idle shards: {:?}", report.per_shard_frames);
        assert!(max < report.steady_frames, "no single-shard hotspots");
        assert!(report.demux_balanced, "{report:?}");
        assert!(report.rejects_reconcile, "{report:?}");
        assert!(report.stale_ledgers_ok, "{report:?}");
        assert!(report.pools_ok, "{report:?}");
        assert!(report.fold_exact, "{report:?}");
    }
}
