//! pa-pipeline: the batched wire + pipelined pre/post engine.
//!
//! PR 8 made the §3.1 mask *spatial* one connection at a time: post
//! phases run on a [`PostDrainWorker`] thread while the application
//! thread keeps sending. This module makes it a *pipeline over bursts*:
//! the application thread runs pre phases + fused filters inline over a
//! whole burst of messages (queue drains and telemetry flushes once per
//! burst; each message's sends and pool takes are its own), then hands
//! the connection's post phases to the drain thread and immediately
//! starts the *other* endpoint's pre work — so round `r`'s post phases
//! overlap round `r`'s remaining pre phases in wall-clock time.
//!
//! The contract that keeps this honest:
//!
//! - **burst=1 is the seed engine.** Every burst entry point runs the
//!   identical per-message inner logic in a loop, so a
//!   [`BurstPipeline`] at burst 1 with inline posts produces the same
//!   wire bytes and the same counters as a hand-written per-packet
//!   loop ([`per_packet_reference`] pins this).
//! - **refuse, don't block.** A full drain pipeline hands the
//!   connection back and the posts run inline, bracketed into the
//!   application domain ([`PipelineReport::inline_fallbacks`] counts
//!   them) — backpressure, never loss.
//! - **ledgers conserve across the burst boundary.** Each thread folds
//!   `current − checkpoint` meter deltas into its own
//!   [`TelemetryDomain`] exactly as in PR 8; bursting only changes how
//!   *often* the brackets close (once per burst, not once per
//!   message), not what they sum to, so the merged masking ledger
//!   still conserves by exact `==`.

use crate::cost::CostModel;
use crate::drain::{seal_ledger, Bracket, PostDrainWorker};
use crate::Nanos;
use pa_buf::Msg;
use pa_core::{ConnStats, Connection, ConnectionParams, PaConfig, SendOutcome};
use pa_obs::critpath::{CritDag, CritNode, WorkClass};
use pa_obs::domain::{DomainCounter, DomainEventKind, TelemetryDomain};
use pa_obs::{GlobalSnapshot, JourneySet, ProbeSink, SketchConfig, SnapshotCoordinator, TraceRing};
use pa_stack::StackSpec;
use pa_wire::EndpointAddr;
use std::collections::VecDeque;
use std::time::Instant;

/// Configuration of a [`BurstPipeline`] run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Burst rounds to run (each round offers `burst` payloads).
    pub rounds: u64,
    /// Messages offered per round. 1 = the seed per-packet engine.
    pub burst: usize,
    /// Post phases on the drain thread (`true`) or inline (`false`).
    pub threaded_post: bool,
    /// Bracket and fold meter/stat deltas into telemetry domains. Off
    /// for pure-throughput benchmarking of the engine alone.
    pub telemetry: bool,
    /// Capture every wire frame (the golden-bytes image). Costly;
    /// identity tests only.
    pub capture_frames: bool,
    /// Stamp wall-clock offer→completion latencies per message.
    pub measure_wall: bool,
    /// Drain-pipeline depth before `submit` refuses.
    pub worker_capacity: usize,
    /// PA configuration for both endpoints.
    pub pa: PaConfig,
    /// Stack on both endpoints.
    pub stack: StackSpec,
    /// Attach trace rings (journeys need `pa.trace_ctx` too).
    pub trace: bool,
    /// Trace-ring capacity per endpoint.
    pub ring_capacity: usize,
    /// Virtual ns per round.
    pub round_ns: Nanos,
    /// Payload bytes per message.
    pub payload_len: usize,
}

impl PipelineConfig {
    /// The default batched run: posts on the drain thread, telemetry
    /// on, no frame capture.
    pub fn batched(rounds: u64, burst: usize) -> PipelineConfig {
        PipelineConfig {
            rounds,
            burst,
            threaded_post: true,
            telemetry: true,
            capture_frames: false,
            measure_wall: false,
            worker_capacity: 4,
            pa: PaConfig::paper_default(),
            stack: StackSpec::paper(),
            trace: false,
            ring_capacity: 0,
            round_ns: 200_000,
            payload_len: 32,
        }
    }

    /// The seed reference arm: burst 1, posts inline — the engine
    /// exactly as every pre-PR-9 harness drives it.
    pub fn per_packet(rounds: u64) -> PipelineConfig {
        PipelineConfig {
            threaded_post: false,
            ..PipelineConfig::batched(rounds, 1)
        }
    }

    /// A traced batched run (journeys on).
    pub fn traced(rounds: u64, burst: usize) -> PipelineConfig {
        PipelineConfig {
            pa: PaConfig {
                trace_ctx: true,
                ..PaConfig::paper_default()
            },
            trace: true,
            ring_capacity: 1 << 15,
            ..PipelineConfig::batched(rounds, burst)
        }
    }

    /// A benchmarking arm: telemetry and capture off, wall-clock
    /// latencies on.
    pub fn bench(rounds: u64, burst: usize, threaded_post: bool) -> PipelineConfig {
        PipelineConfig {
            threaded_post,
            telemetry: false,
            measure_wall: true,
            ..PipelineConfig::batched(rounds, burst)
        }
    }
}

/// What a [`BurstPipeline`] run produced.
#[derive(Debug)]
pub struct PipelineReport {
    /// The epoch-consistent merged snapshot.
    pub snapshot: GlobalSnapshot,
    /// Journeys stitched from both endpoints' trace rings (empty when
    /// tracing was off).
    pub journeys: JourneySet,
    /// Every wire frame in transmit order (`(sender, bytes)`; sender
    /// 0 = requester, 1 = echoer). Empty unless `capture_frames`.
    pub frames: Vec<(u32, Vec<u8>)>,
    /// Payload messages offered by the requester.
    pub offered: u64,
    /// Echo replies delivered back to the requester.
    pub completed: u64,
    /// Messages echoed by the responder.
    pub echoed: u64,
    /// Frames dropped by either endpoint's demux/stack.
    pub dropped: u64,
    /// Requester sends that took the fast path.
    pub fast_sends: u64,
    /// Requester sends parked in the backlog (packed on drain, §3.4).
    pub queued_sends: u64,
    /// Post drains that ran inline because the drain pipeline refused.
    pub inline_fallbacks: u64,
    /// Burst rounds completed.
    pub rounds: u64,
    /// Wire bursts flushed (both directions).
    pub bursts: u64,
    /// Frames carried by those bursts.
    pub burst_frames: u64,
    /// Wall-clock offer→completion ns per message (only when
    /// `measure_wall`; in completion order).
    pub latencies_ns: Vec<u64>,
    /// Requester connection counters at teardown.
    pub stats_a: ConnStats,
    /// Echoer connection counters at teardown.
    pub stats_b: ConnStats,
    /// The cost model that priced the ledgers.
    pub cost: CostModel,
}

impl PipelineReport {
    /// True if the merged masking ledger conserves exactly — calls and
    /// ns `==` — against the merged phase table. Meaningful only for
    /// runs with `telemetry` on.
    pub fn conserves(&self) -> bool {
        match self.snapshot.merged_ledger() {
            Some(ml) => {
                let rows = self.snapshot.phase_rows(|l, p| self.cost.phase_cost(l, p));
                ml.conserves(&rows)
            }
            None => false,
        }
    }

    /// The cross-thread critical-path DAG: handoff and drain events as
    /// nodes (application thread on lane 0, drain thread on lane 2 —
    /// its own Perfetto track), `HandoffSent → HandoffReceived` and
    /// `DrainStart → DrainDone` happens-before edges stitching the two
    /// threads.
    pub fn crit_dag(&self) -> CritDag {
        let mut dag = CritDag::new();
        let mut sent: Vec<(u64, usize)> = Vec::new();
        let mut started: Vec<(u64, usize)> = Vec::new();
        let mut last_on_lane: [Option<usize>; 2] = [None, None];
        for ev in &self.snapshot.events {
            let (label, lane, class) = match ev.kind {
                DomainEventKind::HandoffSent { job } => {
                    (format!("handoff/{job}"), 0u32, WorkClass::OnPath)
                }
                DomainEventKind::HandoffReceived { job } => {
                    (format!("pickup/{job}"), 2, WorkClass::Masked)
                }
                DomainEventKind::DrainStart { job } => {
                    (format!("drain/{job}"), 2, WorkClass::Masked)
                }
                DomainEventKind::DrainDone { job, .. } => {
                    (format!("drained/{job}"), 2, WorkClass::Masked)
                }
                DomainEventKind::Published { .. } => continue,
            };
            let idx = dag.node(CritNode {
                label,
                host: 0,
                lane,
                class,
                start: ev.at,
                dur: 1,
            });
            // Program order within each thread.
            let lane_slot = if lane == 0 { 0 } else { 1 };
            if let Some(prev) = last_on_lane[lane_slot] {
                dag.edge(prev, idx);
            }
            last_on_lane[lane_slot] = Some(idx);
            match ev.kind {
                DomainEventKind::HandoffSent { job } => sent.push((job, idx)),
                DomainEventKind::HandoffReceived { job } => {
                    if let Some(&(_, s)) = sent.iter().find(|(j, _)| *j == job) {
                        dag.edge(s, idx);
                    }
                }
                DomainEventKind::DrainStart { job } => started.push((job, idx)),
                DomainEventKind::DrainDone { job, .. } => {
                    if let Some(&(_, s)) = started.iter().find(|(j, _)| *j == job) {
                        dag.edge(s, idx);
                    }
                }
                DomainEventKind::Published { .. } => {}
            }
        }
        dag
    }

    /// Achieved frames per wire flush (the batching the engine actually
    /// saw, as opposed to the configured burst).
    pub fn batching_factor(&self) -> f64 {
        if self.bursts == 0 {
            return 0.0;
        }
        self.burst_frames as f64 / self.bursts as f64
    }

    /// The p-quantile of the wall-clock latencies (`0.0..=1.0`), in ns.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Side {
    A,
    B,
}

/// An echo pair driven burst-at-a-time: pre phases inline over whole
/// bursts, post phases pipelined onto the PR 8 drain thread.
///
/// Call [`BurstPipeline::step`] once per round (benchmarks time exactly
/// this) and [`BurstPipeline::finish`] to quiesce, seal the ledgers and
/// collect the merged report. Both run the one round body; at burst 1
/// with `threaded_post` this is the instrumented two-thread echo
/// (`PipelineConfig::traced(n, 1)`).
#[derive(Debug)]
pub struct BurstPipeline {
    cfg: PipelineConfig,
    cost: CostModel,
    coord: SnapshotCoordinator,
    app: TelemetryDomain,
    worker: Option<PostDrainWorker>,
    a: Option<Box<Connection>>,
    b: Option<Box<Connection>>,
    a_seq: Option<u64>,
    b_seq: Option<u64>,
    // The app-thread side of the PR 8 bracketing discipline.
    bracket: Bracket,
    // Reusable burst scratch: frames in flight and delivered messages.
    wire: Vec<Msg>,
    msgs: Vec<Msg>,
    payload: Vec<u8>,
    offered_at: VecDeque<Instant>,
    latencies_ns: Vec<u64>,
    frames: Vec<(u32, Vec<u8>)>,
    offered: u64,
    completed: u64,
    echoed: u64,
    dropped: u64,
    fast_sends: u64,
    queued_sends: u64,
    inline_fallbacks: u64,
    bursts: u64,
    burst_frames: u64,
    rounds_done: u64,
    now: Nanos,
}

/// What still sits in `conn` — for the did-not-quiesce panics.
fn pending(who: &str, conn: &Connection) -> String {
    format!(
        "{who}: backlog {}, post work {}, frames {}, deliveries {}",
        conn.backlog_len(),
        conn.has_pending(),
        conn.has_transmit(),
        conn.has_delivery()
    )
}

fn connect(
    cfg: &PipelineConfig,
    local: u64,
    peer: u64,
    seed: u64,
    ring_conn: u32,
) -> Box<Connection> {
    let mut conn = Box::new(
        Connection::new(
            cfg.stack.build(),
            cfg.pa,
            ConnectionParams::new(
                EndpointAddr::from_parts(local, 7),
                EndpointAddr::from_parts(peer, 7),
                seed,
            ),
        )
        .expect("pipeline stack must compile"),
    );
    if cfg.trace {
        let mut probe = ProbeSink::ring(cfg.ring_capacity);
        if let Some(r) = probe.trace_ring_mut() {
            r.set_conn(ring_conn);
        }
        conn.set_probe(probe);
    }
    conn
}

impl BurstPipeline {
    /// Builds the echo pair (requester `a`, echoer `b`), the telemetry
    /// domains and — when `threaded_post` — the drain worker.
    pub fn new(cfg: PipelineConfig) -> BurstPipeline {
        let layer_names: Vec<String> = cfg
            .stack
            .build()
            .iter()
            .map(|l| l.name().to_string())
            .collect();
        let cost = CostModel::paper_ml(layer_names);
        let mut coord = SnapshotCoordinator::new(SketchConfig::default_scope());
        let app = coord.domain("app");
        let worker = if cfg.threaded_post {
            let drain_domain = coord.domain("drain");
            Some(PostDrainWorker::spawn(
                drain_domain,
                cost.clone(),
                cfg.worker_capacity,
            ))
        } else {
            None
        };
        let a = connect(&cfg, 1, 2, 0xEC_0A, 1);
        let b = connect(&cfg, 2, 1, 0xEC_0B, 2);
        let expect = (cfg.rounds as usize).saturating_mul(cfg.burst);
        let payload: Vec<u8> = (0..cfg.payload_len).map(|i| i as u8).collect();
        BurstPipeline {
            cost,
            coord,
            app,
            worker,
            a: Some(a),
            b: Some(b),
            a_seq: None,
            b_seq: None,
            bracket: Bracket::default(),
            wire: Vec::with_capacity(cfg.burst.max(1) * 2),
            msgs: Vec::with_capacity(cfg.burst.max(1) * 2),
            payload,
            offered_at: VecDeque::with_capacity(if cfg.measure_wall {
                expect.min(1 << 20)
            } else {
                0
            }),
            latencies_ns: Vec::with_capacity(if cfg.measure_wall {
                expect.min(1 << 20)
            } else {
                0
            }),
            frames: Vec::new(),
            offered: 0,
            completed: 0,
            echoed: 0,
            dropped: 0,
            fast_sends: 0,
            queued_sends: 0,
            inline_fallbacks: 0,
            bursts: 0,
            burst_frames: 0,
            rounds_done: 0,
            now: 0,
            cfg,
        }
    }

    fn bracket(&mut self, conn: &Connection) {
        if self.cfg.telemetry {
            self.bracket.open(conn);
        }
    }

    fn fold(&mut self, conn: &Connection) {
        if self.cfg.telemetry {
            self.bracket.fold(&mut self.app, conn);
        }
    }

    fn slot(&mut self, side: Side) -> &mut Option<Box<Connection>> {
        match side {
            Side::A => &mut self.a,
            Side::B => &mut self.b,
        }
    }

    /// Post phases for `conn`: ship to the drain thread, or — when the
    /// pipeline refuses or `threaded_post` is off — run inline,
    /// bracketed into the application domain.
    fn dispatch(&mut self, conn: Box<Connection>, now: Nanos, side: Side) {
        let mut conn = if let (true, Some(worker)) = (self.cfg.threaded_post, self.worker.as_mut())
        {
            match worker.submit(&mut self.app, conn, now) {
                Ok(seq) => {
                    match side {
                        Side::A => self.a_seq = Some(seq),
                        Side::B => self.b_seq = Some(seq),
                    }
                    return;
                }
                Err(conn) => {
                    self.inline_fallbacks += 1;
                    conn
                }
            }
        } else {
            conn
        };
        self.bracket(&conn);
        conn.set_now(now);
        conn.process_pending();
        self.fold(&conn);
        *self.slot(side) = Some(conn);
    }

    /// Takes `side`'s connection in hand, waiting for the drain thread
    /// to return it if need be (drained connections can come back in
    /// either order; route by sequence number).
    fn take(&mut self, side: Side) -> Box<Connection> {
        loop {
            if let Some(conn) = self.slot(side).take() {
                return conn;
            }
            let worker = self
                .worker
                .as_mut()
                .expect("conn must be in the drain pipeline");
            let d = worker.recv().expect("worker returns every connection");
            if self.a_seq == Some(d.seq) {
                self.a_seq = None;
                self.a = Some(d.conn);
            } else if self.b_seq == Some(d.seq) {
                self.b_seq = None;
                self.b = Some(d.conn);
            } else {
                unreachable!("drained conn with unknown handoff seq");
            }
        }
    }

    /// Ends one leg of a round for `conn`: closes its bracket, flushes
    /// what it queued to the wire as `wire_from` (the reply leg has
    /// nothing to flush) and hands its post phases on. A live round
    /// dispatches them *behind* the flush, to overlap the other
    /// endpoint's pre work; a quiescing round runs them inline *ahead*
    /// of it, so what they release (packed backlogs, §3.4) leaves in
    /// this pass. Returns the frames flushed.
    fn end_leg(
        &mut self,
        mut conn: Box<Connection>,
        side: Side,
        posts_at: Nanos,
        live: bool,
        wire_from: Option<u32>,
    ) -> usize {
        if !live {
            conn.set_now(posts_at);
            conn.process_pending();
        }
        self.fold(&conn);
        let mut flushed = 0;
        if let Some(sender) = wire_from {
            flushed = conn.poll_transmit_burst(usize::MAX, &mut self.wire);
            if self.cfg.capture_frames {
                for f in &self.wire {
                    self.frames.push((sender, f.as_slice().to_vec()));
                }
            }
            if live {
                self.bursts += 1;
                self.burst_frames += flushed as u64;
                if self.cfg.telemetry {
                    self.app.bump(DomainCounter::Bursts);
                    self.app.add(DomainCounter::BurstFrames, flushed as u64);
                }
            }
        }
        if live {
            self.dispatch(conn, posts_at, side);
        } else {
            *self.slot(side) = Some(conn);
        }
        flushed
    }

    /// The round body: request → echo → reply. A `live` round offers a
    /// burst and pipelines the posts — the requester's post drain runs
    /// while the echoer delivers and echoes, and the echoer's runs
    /// while the requester takes its replies; a quiescing round offers
    /// nothing and drains inline. Returns how many frames + messages
    /// moved. The steady state allocates nothing: scratch vectors, the
    /// bracket and the drain rings are all reused.
    fn round(&mut self, live: bool) -> usize {
        self.now += self.cfg.round_ns;
        let now = self.now;
        if self.cfg.telemetry {
            self.app.set_now(now);
        }

        // --- requester pre: offer a burst, flush it to the wire.
        let mut a = self.take(Side::A);
        self.bracket(&a);
        a.set_now(now);
        if live {
            for _ in 0..self.cfg.burst.max(1) {
                if self.cfg.measure_wall {
                    self.offered_at.push_back(Instant::now());
                }
                match a.send(&self.payload) {
                    SendOutcome::FastPath => self.fast_sends += 1,
                    SendOutcome::Queued => self.queued_sends += 1,
                    _ => {}
                }
                self.offered += 1;
            }
        }
        let mut moved = self.end_leg(a, Side::A, now, live, Some(0));

        // --- echoer pre: deliver the burst, echo every message.
        let mut b = self.take(Side::B);
        self.bracket(&b);
        b.set_now(now);
        let rep = b.deliver_burst(&mut self.wire);
        self.dropped += rep.dropped as u64;
        moved += rep.msgs;
        b.poll_delivery_burst(usize::MAX, &mut self.msgs);
        for m in self.msgs.drain(..) {
            b.send(m.as_slice());
            self.echoed += 1;
            b.recycle(m);
        }
        moved += self.end_leg(b, Side::B, now + 1, live, Some(1));

        // --- requester: take the replies.
        let mid = now + self.cfg.round_ns / 2;
        if self.cfg.telemetry {
            self.app.set_now(mid);
        }
        let mut a = self.take(Side::A);
        self.bracket(&a);
        a.set_now(mid);
        let rep = a.deliver_burst(&mut self.wire);
        self.dropped += rep.dropped as u64;
        moved += rep.msgs;
        a.poll_delivery_burst(usize::MAX, &mut self.msgs);
        for m in self.msgs.drain(..) {
            if self.cfg.measure_wall {
                if let Some(t) = self.offered_at.pop_front() {
                    self.latencies_ns.push(t.elapsed().as_nanos() as u64);
                }
            }
            self.completed += 1;
            a.recycle(m);
        }
        self.end_leg(a, Side::A, mid + 1, live, None);
        moved
    }

    /// One burst round (benchmarks time exactly this).
    pub fn step(&mut self) {
        self.round(true);
        self.rounds_done += 1;
        if self.cfg.telemetry {
            // One flush decision per burst, not per message.
            self.app.maybe_publish();
        }
    }

    /// Quiesces the pipeline (messages still windowed/backlogged get
    /// packed, flushed and delivered), seals both domains' ledger
    /// shards, and collects the epoch-consistent merged report.
    ///
    /// # Panics
    /// If 256 quiescing rounds do not bring the pair to rest — a
    /// partial run is never reported as a complete one.
    pub fn finish(mut self) -> PipelineReport {
        let (mut idle_passes, mut passes) = (0, 0);
        while idle_passes < 2 {
            if passes == 256 {
                let (a, b) = (self.take(Side::A), self.take(Side::B));
                panic!(
                    "pipeline did not quiesce in {passes} rounds: {} of {} offers completed; {}; {}",
                    self.completed,
                    self.offered,
                    pending("requester", &a),
                    pending("echoer", &b)
                );
            }
            passes += 1;
            idle_passes = if self.round(false) == 0 {
                idle_passes + 1
            } else {
                0
            };
        }

        if let Some(worker) = self.worker.as_mut() {
            worker.shutdown();
        }
        seal_ledger(&mut self.app, &self.cost);
        self.app.set_now(self.now);
        let epoch = self.coord.advance();
        self.app.publish();
        let snapshot = self.coord.collect(epoch);

        let (a, b) = (self.take(Side::A), self.take(Side::B));
        let mut rings: Vec<TraceRing> = Vec::new();
        if self.cfg.trace {
            for conn in [&a, &b] {
                if let Some(r) = conn.probe().trace_ring() {
                    rings.push(r.clone());
                }
            }
        }
        let ring_refs: Vec<&TraceRing> = rings.iter().collect();
        let journeys = JourneySet::reconstruct(&ring_refs);

        PipelineReport {
            snapshot,
            journeys,
            frames: self.frames,
            offered: self.offered,
            completed: self.completed,
            echoed: self.echoed,
            dropped: self.dropped,
            fast_sends: self.fast_sends,
            queued_sends: self.queued_sends,
            inline_fallbacks: self.inline_fallbacks,
            rounds: self.rounds_done,
            bursts: self.bursts,
            burst_frames: self.burst_frames,
            latencies_ns: self.latencies_ns,
            stats_a: *a.stats(),
            stats_b: *b.stats(),
            cost: self.cost,
        }
    }

    /// Runs `cfg.rounds` steps and finishes.
    pub fn run(cfg: PipelineConfig) -> PipelineReport {
        let rounds = cfg.rounds;
        let mut p = BurstPipeline::new(cfg);
        for _ in 0..rounds {
            p.step();
        }
        p.finish()
    }
}

/// The seed per-packet engine driven through the *pre-PR-9* entry
/// points (`send` / `poll_transmit` / `deliver_frame` / `poll_delivery`
/// / `process_pending`), with the exact clock schedule and operation
/// order of a [`BurstPipeline`] at burst 1 with inline posts — the
/// single reference image: the burst=1 identity gate, the threaded
/// all-off wire identity and `--bench throughput` all compare the
/// pipeline against it, so it shares none of the pipeline's code.
/// Returns the captured wire frames and both endpoints' final counters.
pub fn per_packet_reference(cfg: &PipelineConfig) -> (Vec<(u32, Vec<u8>)>, ConnStats, ConnStats) {
    let mut a = connect(cfg, 1, 2, 0xEC_0A, 1);
    let mut b = connect(cfg, 2, 1, 0xEC_0B, 2);
    let payload: Vec<u8> = (0..cfg.payload_len).map(|i| i as u8).collect();
    let mut frames: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut wire: Vec<Msg> = Vec::new();
    let mut now: Nanos = 0;

    let pass = |a: &mut Box<Connection>,
                b: &mut Box<Connection>,
                frames: &mut Vec<(u32, Vec<u8>)>,
                wire: &mut Vec<Msg>,
                now: Nanos,
                send: bool|
     -> usize {
        let mut moved = 0usize;
        a.set_now(now);
        if send {
            a.send(&payload);
        } else {
            a.process_pending();
        }
        while let Some(f) = a.poll_transmit() {
            frames.push((0, f.as_slice().to_vec()));
            wire.push(f);
            moved += 1;
        }
        if send {
            a.set_now(now);
            a.process_pending();
        }
        b.set_now(now);
        for f in wire.drain(..) {
            b.deliver_frame(f);
        }
        while let Some(m) = b.poll_delivery() {
            b.send(m.as_slice());
            b.recycle(m);
            moved += 1;
        }
        b.set_now(now + 1);
        b.process_pending();
        while let Some(f) = b.poll_transmit() {
            frames.push((1, f.as_slice().to_vec()));
            wire.push(f);
            moved += 1;
        }
        let mid = now + cfg.round_ns / 2;
        a.set_now(mid);
        for f in wire.drain(..) {
            a.deliver_frame(f);
        }
        while let Some(m) = a.poll_delivery() {
            a.recycle(m);
            moved += 1;
        }
        a.set_now(mid + 1);
        a.process_pending();
        moved
    };

    for round in 0..cfg.rounds {
        now = (round + 1) * cfg.round_ns;
        pass(&mut a, &mut b, &mut frames, &mut wire, now, true);
    }
    let (mut idle_passes, mut passes) = (0, 0);
    while idle_passes < 2 {
        assert!(
            passes < 256,
            "reference did not quiesce in {passes} rounds: {}; {}",
            pending("requester", &a),
            pending("echoer", &b)
        );
        passes += 1;
        now += cfg.round_ns;
        idle_passes = if pass(&mut a, &mut b, &mut frames, &mut wire, now, false) == 0 {
            idle_passes + 1
        } else {
            0
        };
    }
    (frames, *a.stats(), *b.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_one_inline_is_identical_to_the_seed_per_packet_engine() {
        // The tentpole identity gate: a burst-1 pipeline with inline
        // posts is the seed engine — same wire bytes, same counters.
        let cfg = PipelineConfig {
            capture_frames: true,
            ..PipelineConfig::per_packet(12)
        };
        let report = BurstPipeline::run(cfg.clone());
        let (ref_frames, ref_a, ref_b) = per_packet_reference(&cfg);
        assert!(!report.frames.is_empty());
        assert_eq!(report.frames, ref_frames, "wire bytes must be identical");
        assert_eq!(
            report.stats_a, ref_a,
            "requester counters must be identical"
        );
        assert_eq!(report.stats_b, ref_b, "echoer counters must be identical");
        assert_eq!(report.completed, report.offered);
    }

    #[test]
    fn threaded_burst_run_is_byte_identical_to_inline_burst_run() {
        // Moving the posts to the drain thread must not change what
        // goes on the wire, at any burst size.
        for burst in [1usize, 8, 32] {
            let inline_cfg = PipelineConfig {
                threaded_post: false,
                capture_frames: true,
                ..PipelineConfig::batched(6, burst)
            };
            let threaded_cfg = PipelineConfig {
                capture_frames: true,
                ..PipelineConfig::batched(6, burst)
            };
            let inline = BurstPipeline::run(inline_cfg);
            let threaded = BurstPipeline::run(threaded_cfg);
            assert_eq!(
                inline.frames, threaded.frames,
                "burst {burst}: threaded posts changed the wire bytes"
            );
            assert_eq!(inline.completed, threaded.completed);
        }
    }

    #[test]
    fn batched_threaded_run_conserves_exactly_and_completes() {
        for burst in [8usize, 32, 64] {
            let report = BurstPipeline::run(PipelineConfig::batched(10, burst));
            assert_eq!(report.offered, 10 * burst as u64);
            assert_eq!(
                report.completed, report.offered,
                "burst {burst}: every offer completes"
            );
            assert_eq!(report.echoed, report.offered);
            assert_eq!(report.dropped, 0);
            assert!(
                report.conserves(),
                "burst {burst}: merged ledger must conserve:\n{}",
                report.snapshot.render()
            );
            assert!(report.batching_factor() >= 1.0);
        }
    }

    #[test]
    fn over_window_bursts_pack_the_backlog() {
        // Bursts past the window park in the backlog and leave packed
        // on the drain (§3.4) — fewer wire frames than messages.
        let report = BurstPipeline::run(PipelineConfig::batched(8, 64));
        assert_eq!(report.completed, report.offered);
        assert!(report.queued_sends > 0, "over-window sends must queue");
        assert!(
            report.burst_frames < report.offered * 2,
            "packing must compress the wire: {} frames for {} msgs each way",
            report.burst_frames,
            report.offered
        );
    }

    #[test]
    fn capacity_one_worker_forces_inline_fallbacks_and_still_conserves() {
        // Refuse-don't-block: with a depth-1 drain pipeline the second
        // dispatch of a round often refuses; the posts must run inline
        // and the ledger must still conserve exactly.
        let cfg = PipelineConfig {
            worker_capacity: 1,
            ..PipelineConfig::batched(12, 8)
        };
        let report = BurstPipeline::run(cfg);
        assert_eq!(report.completed, report.offered);
        assert!(
            report.inline_fallbacks > 0,
            "a depth-1 pipeline must refuse at least once"
        );
        assert!(report.conserves(), "fallbacks must not break conservation");
    }

    #[test]
    fn traced_burst_journeys_complete() {
        let report = BurstPipeline::run(PipelineConfig::traced(10, 8));
        assert!(!report.journeys.is_empty(), "journeys must be observed");
        assert!(
            report.journeys.completeness() >= 0.99,
            "journeys incomplete: {}",
            report.journeys.completeness()
        );
        assert!(report.conserves());
    }

    #[test]
    fn burst_counters_roll_up_into_the_snapshot() {
        let report = BurstPipeline::run(PipelineConfig::batched(5, 16));
        let app = report
            .snapshot
            .domains
            .iter()
            .find(|d| d.label == "app")
            .expect("app domain");
        assert_eq!(app.counter(DomainCounter::Bursts), report.bursts);
        assert_eq!(app.counter(DomainCounter::BurstFrames), report.burst_frames);
        assert!(report.bursts >= 2 * report.rounds);
    }
}
