//! The virtual-time experiment driver.
//!
//! A [`World`] is [`NodeSim`]s over one [`SimNet`], with a global
//! virtual clock, the one next-event loop ([`World::step`]), a queue of
//! application events (workload generators schedule sends), and built-in
//! behaviours: an **echo** responder (the §5 round-trip server), a
//! **sink** (one-way streaming receiver), and a **closed-loop** client
//! (sends the next request the moment the reply lands — the saturated,
//! dashed-line case of Figure 4). [`TwoNodeSim`] is the world of two
//! one-connection hosts every §5 experiment runs on, plus the telemetry
//! that watches a run.
//!
//! Every message payload begins with an 8-byte big-endian id assigned by
//! the sim; that is how round-trip and one-way latencies are matched up
//! (and why the smallest payload is 8 bytes — conveniently, the paper's
//! message size).

use crate::cost::CostModel;
use crate::gc::GcModel;
use crate::metrics::Series;
use crate::node::{NodeEvent, NodeSim, PostSchedule, Stamp};
use crate::Nanos;
use pa_buf::Msg;
use pa_core::{Connection, ConnectionParams, PaConfig};
use pa_obs::{
    CritDag, CritNode, FlightRecorder, Journey, JourneySet, MaskDomain, MaskingLedger,
    MetricsSnapshot, Phase, ProbeSink, ScopeConfig, ScopeKey, ScopePlane, WatchInput, Watchdog,
    WatchdogConfig, WorkClass, XrayTag,
};
use pa_stack::StackSpec;
use pa_unet::{FaultConfig, LinkProfile, Netif, SimNet};
use pa_wire::EndpointAddr;
use std::collections::HashMap;

/// What a node's application does with deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppBehavior {
    /// Count them.
    Sink,
    /// Send each payload straight back (the RPC server).
    Echo,
    /// On each delivery, send a fresh request of the same size
    /// immediately (closed-loop load generator).
    CloseLoop,
}

/// Configuration of a two-node simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol stack on both nodes.
    pub stack: StackSpec,
    /// PA configuration on both nodes.
    pub pa: PaConfig,
    /// Cost model template (layer names filled in automatically).
    pub cost: fn(Vec<String>) -> CostModel,
    /// GC policy per node.
    pub gc: [crate::gc::GcPolicy; 2],
    /// Post-processing schedule per node.
    pub schedule: [PostSchedule; 2],
    /// Link timing.
    pub profile: LinkProfile,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Retransmission-tick period (None = no ticks; enable when faults
    /// drop frames).
    pub tick_every: Option<Nanos>,
    /// Turn the cost model into a no-PA baseline (framework overhead).
    pub baseline: bool,
    /// Compiled packet filters (cost side of the ablation).
    pub compiled_filter: bool,
}

impl SimConfig {
    /// The paper's measured configuration: 4-layer stack, PA on, ML
    /// costs, GC after every reception, U-Net/ATM link.
    pub fn paper() -> SimConfig {
        SimConfig {
            stack: StackSpec::paper(),
            pa: PaConfig::paper_default(),
            cost: CostModel::paper_ml,
            gc: [crate::gc::GcPolicy::EveryReception; 2],
            schedule: [PostSchedule::AfterDelivery; 2],
            profile: LinkProfile::atm_unet(),
            faults: FaultConfig::none(),
            tick_every: None,
            baseline: false,
            compiled_filter: false,
        }
    }

    /// The paper config with the in-band trace context on: frames
    /// carry journey ids, so a traced run can be reconstructed into
    /// causal journeys (call [`TwoNodeSim::enable_tracing`] too).
    pub fn traced() -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.pa.trace_ctx = true;
        cfg
    }

    /// The forced-leak regression scenario: the paper config with lazy
    /// post-processing off, so every post phase runs synchronously
    /// inside the send/deliver/tick that triggered it — §3.1's masking
    /// rule broken on purpose, pinning post-phase work onto the
    /// critical path. The leak detector must charge all of it to
    /// `(layer, eager-post)` and the masking ratio must collapse.
    pub fn forced_leak() -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.pa.lazy_post = false;
        cfg
    }

    /// One host under this config: `local`'s address, a connection per
    /// `(peer, seed)`, `n_cpus` processors.
    pub fn host(
        &self,
        local: EndpointAddr,
        peers: &[(EndpointAddr, u64)],
        n_cpus: usize,
        gc: GcModel,
        schedule: PostSchedule,
    ) -> NodeSim {
        let conns: Vec<Connection> = peers
            .iter()
            .map(|&(peer, seed)| {
                Connection::new(
                    self.stack.build(),
                    self.pa,
                    ConnectionParams::new(local, peer, seed),
                )
                .expect("valid stack")
            })
            .collect();
        let names = conns[0].layer_names();
        let mut cost = (self.cost)(names.iter().map(|l| l.to_string()).collect());
        cost.baseline_framework = self.baseline;
        cost.compiled_filter = self.compiled_filter;
        NodeSim::new(conns, n_cpus, cost, gc, schedule)
    }
}

/// A timestamped event for the Figure 4 timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Completion time.
    pub at: Nanos,
    /// Node index.
    pub node: usize,
    /// What completed.
    pub event: NodeEvent,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AppEvent {
    at: Nanos,
    seq: u64,
    node: usize,
    size: usize,
}

/// Hosts over one [`SimNet`] under one virtual clock: the next-event
/// loop, the application behaviours and the closed-loop ledger every
/// virtual-time scenario runs on. [`TwoNodeSim`] is two one-connection
/// hosts; [`crate::multi::ClusterSim`] is N closed-loop clients and an
/// echoing N-connection server.
pub struct World {
    /// The hosts; application sends go out on a host's connection 0.
    pub nodes: Vec<NodeSim>,
    /// The network between them.
    pub net: SimNet,
    host_of: HashMap<EndpointAddr, usize>,
    behaviors: Vec<AppBehavior>,
    clock: Nanos,
    app_events: std::collections::BinaryHeap<std::cmp::Reverse<AppEvent>>,
    next_seq: u64,
    next_id: u64,
    sent_at: HashMap<u64, (Nanos, usize)>,
    /// Round-trip latencies, all origins pooled.
    pub rtt: Series,
    /// Round-trip latencies per originating node.
    pub rtt_by_node: Vec<Series>,
    /// One-way latencies of first deliveries.
    pub one_way: Series,
    /// Deliveries per node.
    pub delivered: Vec<u64>,
    /// Round trips completed.
    pub round_trips: u64,
    next_tick: Option<Nanos>,
    tick_every: Option<Nanos>,
    /// Closed-loop requests still to issue, per node.
    closeloop_remaining: Vec<u64>,
    closeloop_size: usize,
    /// Blocking-RPC mode for node 0: at most one request outstanding;
    /// offered requests queue at the client (Figure 5's semantics).
    rpc_mode: bool,
    rpc_outstanding: bool,
    rpc_queue: std::collections::VecDeque<(Nanos, usize)>,
    /// The pa-scope roll-up plane, if attached, and each node's series
    /// key: per-connection → per-endpoint → cluster mergeable latency
    /// sketches with sampled exemplars, fed one sample per completed
    /// latency measurement at a node that has a key.
    scope: Option<(ScopePlane, Vec<ScopeKey>)>,
}

impl World {
    /// A world of `nodes` (all sinks until told otherwise) over `net`.
    pub fn new(nodes: Vec<NodeSim>, net: SimNet, tick_every: Option<Nanos>) -> World {
        let n = nodes.len();
        World {
            host_of: nodes
                .iter()
                .enumerate()
                .map(|(h, n)| (n.addr(), h))
                .collect(),
            nodes,
            net,
            behaviors: vec![AppBehavior::Sink; n],
            clock: 0,
            app_events: Default::default(),
            next_seq: 0,
            next_id: 1,
            sent_at: HashMap::new(),
            rtt: Series::new(),
            rtt_by_node: vec![Series::new(); n],
            one_way: Series::new(),
            delivered: vec![0; n],
            round_trips: 0,
            next_tick: tick_every,
            tick_every,
            closeloop_remaining: vec![0; n],
            closeloop_size: 8,
            rpc_mode: false,
            rpc_outstanding: false,
            rpc_queue: Default::default(),
            scope: None,
        }
    }

    /// Attaches a pa-scope roll-up plane with one `(endpoint, series)`
    /// per node, in node order (nodes past the end of `series` record
    /// nothing). The plane is telemetry *beside* the stack — attaching
    /// it never changes wire bytes or connection behaviour.
    pub fn attach_scope_series(&mut self, cfg: ScopeConfig, series: &[(String, String)]) {
        let mut plane = ScopePlane::new(cfg);
        let keys = series
            .iter()
            .map(|(endpoint, conn)| plane.register(endpoint, conn))
            .collect();
        self.scope = Some((plane, keys));
    }

    /// The attached scope plane, if any.
    pub fn scope_plane(&self) -> Option<&ScopePlane> {
        self.scope.as_ref().map(|(plane, _)| plane)
    }

    /// Puts node 0 in blocking-RPC mode: one request outstanding at a
    /// time; further offered requests wait in a client-side queue, and
    /// the measured RTT includes that queueing delay.
    pub fn set_rpc_mode(&mut self, on: bool) {
        self.rpc_mode = on;
    }

    /// Disables per-event logging on every node (long sweeps).
    pub fn set_logging(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.record_log = on;
            if !on {
                n.log.clear();
            }
        }
    }

    /// Sets a node's application behaviour.
    pub fn set_behavior(&mut self, node: usize, b: AppBehavior) {
        self.behaviors[node] = b;
    }

    /// Arms a closed-loop client on `node`: `n` request-reply cycles of
    /// `size`-byte messages, starting at `start`.
    pub fn arm_client(&mut self, node: usize, n: u64, size: usize, start: Nanos) {
        self.behaviors[node] = AppBehavior::CloseLoop;
        self.closeloop_remaining[node] = n.saturating_sub(1);
        self.closeloop_size = size;
        self.schedule_send(node, start, size);
    }

    /// Schedules an application send of `size` bytes on `node` at `at`.
    pub fn schedule_send(&mut self, node: usize, at: Nanos, size: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.app_events.push(std::cmp::Reverse(AppEvent {
            at,
            seq,
            node,
            size,
        }));
    }

    /// Schedules `count` sends on `node` spaced `interval` apart.
    pub fn schedule_stream(
        &mut self,
        node: usize,
        start: Nanos,
        interval: Nanos,
        count: u64,
        size: usize,
    ) {
        for i in 0..count {
            self.schedule_send(node, start + i * interval, size);
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Gathers every node's log into one ordered timeline.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        let mut out: Vec<TimelineEvent> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            out.extend(node.log.iter().map(|&Stamp { at, event }| TimelineEvent {
                at,
                node: i,
                event,
            }));
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// Clears measurements (after warm-up).
    pub fn reset_measurements(&mut self) {
        self.rtt = Series::new();
        self.rtt_by_node.fill(Series::new());
        self.one_way = Series::new();
        self.delivered.fill(0);
        self.round_trips = 0;
        for n in &mut self.nodes {
            n.log.clear();
        }
    }

    /// Mints the next message id and a `size`-byte payload carrying it.
    fn request(&mut self, size: usize) -> (u64, Vec<u8>) {
        let id = self.next_id;
        self.next_id += 1;
        let mut p = vec![0u8; size.max(8)];
        p[..8].copy_from_slice(&id.to_be_bytes());
        (id, p)
    }

    /// A fresh request from `node` at `t`, its latency clock starting
    /// when the CPU takes it.
    fn do_send(&mut self, node: usize, t: Nanos, size: usize) {
        if node == 0 && self.rpc_mode {
            if self.rpc_outstanding {
                // Blocking client: queue the request; its latency clock
                // is already running.
                self.rpc_queue.push_back((t, size));
                return;
            }
            self.rpc_outstanding = true;
        }
        let (id, payload) = self.request(size);
        self.sent_at
            .insert(id, (t.max(self.nodes[node].cpu_free_at(0)), node));
        self.nodes[node].app_send(0, t, &payload, &mut self.net);
    }

    /// RPC mode: records arrival-time latency for queued requests.
    fn rpc_send_queued(&mut self, now: Nanos) {
        let Some((t_arrival, size)) = self.rpc_queue.pop_front() else {
            self.rpc_outstanding = false;
            return;
        };
        let (id, payload) = self.request(size);
        // Latency measured from the offered-arrival instant.
        self.sent_at.insert(id, (t_arrival, 0));
        self.nodes[0].app_send(0, now, &payload, &mut self.net);
    }

    /// Records one completed latency sample into the scope plane (a
    /// no-op when none is attached or the node has no series). The
    /// exemplar carries the delivering connection's last received
    /// journey id (0 when the trace context is off) and its last
    /// deliver-explain tag, so an aggregate anomaly drills down to a
    /// causal trace.
    fn record_scope(&mut self, node: usize, conn: usize, value: Nanos, at: Nanos) {
        let Some((plane, keys)) = &mut self.scope else {
            return;
        };
        let Some(&key) = keys.get(node) else {
            return;
        };
        let conn = &self.nodes[node].conns[conn];
        let journey = conn.last_recv_trace().map(|(j, _)| j).unwrap_or(0);
        plane.record(key, value, at, journey, conn.last_deliver_explain());
    }

    /// The application's reaction to what connection `conn` of `node`
    /// delivered at `done`: the closed-loop ledger (8-byte id →
    /// `sent_at` → RTT or one-way sample → scope record), then the
    /// node's behaviour.
    fn handle_deliveries(&mut self, node: usize, conn: usize, done: Nanos, delivered: Vec<Msg>) {
        self.delivered[node] += delivered.len() as u64;
        for msg in delivered {
            let id = msg
                .get(0, 8)
                .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
                .unwrap_or(0);
            // Latency bookkeeping is behaviour-independent: a message
            // arriving back at its originator completes a round trip;
            // anywhere else it is a one-way delivery.
            match self.sent_at.get(&id) {
                Some(&(t0, origin)) if origin == node => {
                    self.rtt.push_nanos(done - t0);
                    self.rtt_by_node[node].push_nanos(done - t0);
                    self.round_trips += 1;
                    self.sent_at.remove(&id);
                    self.record_scope(node, conn, done - t0, done);
                    if node == 0 && self.rpc_mode {
                        self.rpc_send_queued(done);
                    }
                }
                Some(&(t0, _)) => {
                    self.one_way.push_nanos(done - t0);
                    self.record_scope(node, conn, done - t0, done);
                }
                None => {}
            }
            match self.behaviors[node] {
                AppBehavior::Sink => {}
                AppBehavior::Echo => {
                    self.nodes[node].app_send(conn, done, msg.as_slice(), &mut self.net);
                }
                AppBehavior::CloseLoop => {
                    if self.closeloop_remaining[node] > 0 {
                        self.closeloop_remaining[node] -= 1;
                        self.do_send(node, done, self.closeloop_size);
                    }
                }
            }
            // The application is done with the buffer: recycle it (§6
            // explicit pools; bookwork, free in virtual time).
            self.nodes[node].conns[conn].recycle(msg);
        }
        self.nodes[node].after_reply(conn);
    }

    /// One iteration of the next-event loop: advances the clock to the
    /// earliest pending event at or before `horizon` and runs everything
    /// due then — arrivals, wake-ups, application sends, ticks, in that
    /// order. `None` once nothing remains to do (the clock stays at the
    /// last event, so rates computed against [`World::now`] reflect
    /// actual activity, not the horizon) or the next event lies past
    /// the horizon.
    pub fn step(&mut self, horizon: Nanos) -> Option<Nanos> {
        let t_next = (self.net.next_arrival_at().into_iter())
            .chain(self.app_events.peek().map(|std::cmp::Reverse(e)| e.at))
            .chain(self.nodes.iter().filter_map(NodeSim::next_wakeup))
            .chain(self.next_tick)
            .min();
        let Some(t_next) = t_next else {
            // Quiescent. Progress, not just conservation: nothing may
            // be left sitting in any connection's queues.
            for (h, node) in self.nodes.iter().enumerate() {
                for (i, c) in node.conns.iter().enumerate() {
                    assert!(
                        !c.has_delivery() && !c.has_transmit(),
                        "quiescent with node {h} conn {i} holding a delivery or a frame"
                    );
                }
            }
            return None;
        };
        if t_next > horizon {
            self.clock = self.clock.max(horizon);
            return None;
        }
        self.clock = self.clock.max(t_next);
        let now = self.clock;

        // 1. Network arrivals due now (frames for nobody are dropped).
        while let Some(arr) = self.net.poll_arrival(now) {
            let Some(&node) = self.host_of.get(&arr.to) else {
                continue;
            };
            let Some(conn) = self.nodes[node].conn_to(arr.from) else {
                continue;
            };
            let (done, delivered) =
                self.nodes[node].on_frame(conn, arr.at, arr.frame, &mut self.net);
            self.handle_deliveries(node, conn, done, delivered);
        }

        // 2. Wake-ups due now. A backlog drain can release queued
        // receive frames, so deliveries may surface here too.
        for node in 0..self.nodes.len() {
            for conn in 0..self.nodes[node].conns.len() {
                if self.nodes[node].wakeup_at(conn).is_some_and(|w| w <= now) {
                    let (done, delivered) = self.nodes[node].run_wakeup(conn, now, &mut self.net);
                    self.handle_deliveries(node, conn, done, delivered);
                }
            }
        }

        // 3. Application sends due now.
        while self
            .app_events
            .peek()
            .is_some_and(|std::cmp::Reverse(e)| e.at <= now)
        {
            let std::cmp::Reverse(e) = self.app_events.pop().expect("peeked");
            self.do_send(e.node, e.at.max(now), e.size);
        }

        // 4. Retransmission ticks.
        if self.next_tick.is_some_and(|t| t <= now) {
            for node in &mut self.nodes {
                node.tick(now, &mut self.net);
            }
            self.next_tick = self.tick_every.map(|dt| now + dt);
        }
        Some(now)
    }

    /// Runs until `horizon` or until nothing remains to do.
    pub fn run_until(&mut self, horizon: Nanos) {
        while self.step(horizon).is_some() {}
    }
}

/// The attached critical-path telemetry: a *dedicated* scope plane
/// (masking permille samples merged into the latency plane's cluster
/// sketch would wreck its quantiles and its roll-up reconciliation)
/// holding one masking-ratio series per node under the `mask`
/// endpoint and one on-path-cost series per (layer, node) under
/// `onpath/<layer>`.
struct CritState {
    plane: ScopePlane,
    /// Sampling cadence in virtual ns.
    cadence: Nanos,
    /// Last sample instant.
    last_at: Option<Nanos>,
    /// Per-node masking-ratio series (each sample is a permille).
    mask_keys: [ScopeKey; 2],
    /// Per-node `(layer name, series key)` on-path-cost series (each
    /// sample is the on-path ns that layer accrued since the previous
    /// sample).
    layer_keys: [Vec<(String, ScopeKey)>; 2],
    /// Cumulative per-layer on-path ns at the previous sample.
    last_onpath: [Vec<u64>; 2],
}

/// The two-node simulator: a [`World`] of two one-connection hosts
/// (node 0 conventionally the client, node 1 echoing) plus the
/// telemetry that watches a run — flight recorder, watchdog,
/// critical-path plane.
pub struct TwoNodeSim {
    world: World,
    /// The time-series flight recorder, if attached.
    recorder: Option<FlightRecorder>,
    /// The health watchdog, if attached: samples progress/backlog/
    /// ledger/p99 on its own virtual-time cadence.
    watchdog: Option<Watchdog>,
    /// The critical-path masking telemetry, if attached.
    critpath: Option<CritState>,
    /// Consecutive flight-recorder samples each node's send path has
    /// been wedged (backlog non-empty, prediction disabled, nothing
    /// pending to re-enable it) — the disable-counter invariant.
    wedge_samples: [u32; 2],
}

impl std::ops::Deref for TwoNodeSim {
    type Target = World;
    fn deref(&self) -> &World {
        &self.world
    }
}

impl std::ops::DerefMut for TwoNodeSim {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

impl TwoNodeSim {
    /// Builds the simulation from a config.
    pub fn new(cfg: &SimConfig) -> TwoNodeSim {
        let addr = |host| EndpointAddr::from_parts(host, 7);
        let node = |idx: usize, local, peer| {
            cfg.host(
                addr(local),
                &[(addr(peer), 0xC0FFEE + idx as u64)],
                1,
                GcModel::paper(cfg.gc[idx], 77 + idx as u64),
                cfg.schedule[idx],
            )
        };
        let mut world = World::new(
            vec![node(0, 1, 2), node(1, 2, 1)],
            SimNet::new(cfg.profile, cfg.faults),
            cfg.tick_every,
        );
        world.set_behavior(1, AppBehavior::Echo);
        TwoNodeSim {
            world,
            recorder: None,
            watchdog: None,
            critpath: None,
            wedge_samples: [0, 0],
        }
    }

    // ------------------------------------------------------------------
    // Telemetry: journeys and the flight recorder
    // ------------------------------------------------------------------

    /// Installs ring trace probes (capacity `ring_capacity` records) on
    /// both nodes. With [`SimConfig::traced`] (or `pa.trace_ctx = true`)
    /// every frame carries a journey id and the run's rings can be
    /// joined back into causal journeys by [`TwoNodeSim::journeys`].
    pub fn enable_tracing(&mut self, ring_capacity: usize) {
        for node in &mut self.nodes {
            node.conns[0].set_probe(ProbeSink::ring(ring_capacity));
        }
    }

    /// Reconstructs the causal journeys observed by both nodes' trace
    /// rings (empty if [`TwoNodeSim::enable_tracing`] was not called).
    pub fn journeys(&self) -> JourneySet {
        let rings: Vec<&pa_obs::TraceRing> = self
            .nodes
            .iter()
            .filter_map(|n| n.conns[0].probe().trace_ring())
            .collect();
        JourneySet::reconstruct(&rings)
    }

    /// Renders the per-hop latency waterfall of the traced run.
    pub fn waterfall(&self) -> String {
        self.journeys().waterfall()
    }

    /// Attaches a flight recorder sampling both nodes' counters every
    /// `interval` virtual nanoseconds, retaining `capacity` points per
    /// series. Sampling happens inside [`TwoNodeSim::run_until`]; it
    /// also watches the run's invariants (per-node delivery ledger,
    /// wedged disable counters) and freezes a post-mortem on the first
    /// break.
    pub fn attach_flight_recorder(&mut self, interval: Nanos, capacity: usize) {
        self.recorder = Some(FlightRecorder::new(interval, capacity));
        self.wedge_samples = [0, 0];
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Attaches a pa-scope roll-up plane: every completed latency
    /// measurement (round trip at its origin, one-way at the receiver)
    /// is recorded into the owning node's connection sketch, its
    /// endpoint sketch, and the cluster sketch, with reservoir-sampled
    /// exemplars carrying the delivery's journey id and
    /// [`pa_obs::XrayTag`].
    pub fn attach_scope(&mut self, cfg: ScopeConfig) {
        let series = ["node0", "node1"].map(|n| (n.to_string(), format!("{n}/conn0")));
        self.world.attach_scope_series(cfg, &series);
    }

    /// Attaches a health watchdog sampling the run on its own
    /// virtual-time cadence: progress = total deliveries + round trips,
    /// backlog = both nodes' send backlogs, ledger = both delivery
    /// ledgers, p99 = the scope plane's cluster sketch (0 when no plane
    /// is attached, which keeps SLO-burn detection off). Alerts are
    /// forwarded to the flight recorder as post-mortems when one is
    /// attached.
    pub fn attach_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = Some(Watchdog::new(cfg));
    }

    /// The attached watchdog, if any.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    // ------------------------------------------------------------------
    // Critical-path masking analysis
    // ------------------------------------------------------------------

    /// Attaches the critical-path telemetry plane: every `cadence`
    /// virtual ns (and on [`TwoNodeSim::force_critpath_sample`]) each
    /// node's cumulative masking ratio is sampled as a permille into
    /// the `mask` endpoint, and each layer's freshly accrued on-path
    /// cost into `onpath/<layer>`. A dedicated plane — never the
    /// latency plane from [`TwoNodeSim::attach_scope`] — so the two
    /// unit domains cannot pollute each other's quantiles. Attaching
    /// it changes no wire bytes and no engine decisions.
    pub fn attach_critpath(&mut self, cfg: ScopeConfig, cadence: Nanos) {
        let mut plane = ScopePlane::new(cfg);
        let mask_keys = [
            plane.register("mask", "mask/node0"),
            plane.register("mask", "mask/node1"),
        ];
        let names = self.nodes[0].conns[0].layer_names();
        let mk = |plane: &mut ScopePlane, node: usize| {
            names
                .iter()
                .map(|l| {
                    let key =
                        plane.register(&format!("onpath/{l}"), &format!("onpath/{l}/node{node}"));
                    (l.to_string(), key)
                })
                .collect::<Vec<_>>()
        };
        let layer_keys = [mk(&mut plane, 0), mk(&mut plane, 1)];
        self.critpath = Some(CritState {
            plane,
            cadence,
            last_at: None,
            mask_keys,
            layer_keys,
            last_onpath: [vec![0; names.len()], vec![0; names.len()]],
        });
    }

    /// The attached critical-path plane, if any.
    pub fn critpath_plane(&self) -> Option<&ScopePlane> {
        self.critpath.as_ref().map(|c| &c.plane)
    }

    /// The masking ledger of one node in the virtual-time domain:
    /// every priced phase call attributed to exactly one of {on-path,
    /// masked, leaked}, from the same priced phase table that
    /// [`TwoNodeSim::xray_report`] renders — so
    /// [`MaskingLedger::conserves`] against that table is exact. On
    /// top of the per-layer rows it adds *engine* rows (marked so
    /// conservation skips them): the fast-path engine cost of every
    /// send and delivery as on-path work, and any mid-stream receive
    /// re-fuses the engine charged to the leak ledger.
    pub fn masking_ledger(&self, node: usize) -> MaskingLedger {
        let report = self.nodes[node].xray_report(0);
        let mut ml =
            MaskingLedger::from_phases(&format!("node{node}"), &report.phases, MaskDomain::Virtual);
        let stats = self.nodes[node].conns[0].stats();
        let cost = &self.nodes[node].cost;
        let sends = stats.fast_sends + stats.slow_sends;
        let delivers = stats.fast_deliveries + stats.slow_deliveries;
        ml.push_engine(
            "engine/send",
            Phase::PreSend,
            WorkClass::OnPath,
            sends,
            sends * cost.fast_send(),
        );
        ml.push_engine(
            "engine/deliver",
            Phase::PreDeliver,
            WorkClass::OnPath,
            delivers,
            delivers * cost.fast_deliver(),
        );
        // Engine-level leaks (receive re-fuse) have no virtual price in
        // the cost model; the call counts still surface in the ledger.
        for e in &self.nodes[node].conns[0].leaks().entries {
            if e.layer == "pa" {
                ml.push_engine("engine/refuse", e.phase, WorkClass::Leaked, e.calls, 0);
            }
        }
        ml
    }

    /// Both nodes' masking ledgers merged.
    pub fn masking_ledger_all(&self) -> MaskingLedger {
        let mut ml = self.masking_ledger(0);
        ml.merge(&self.masking_ledger(1));
        ml
    }

    /// The run's current critical-path leak rate in permille of all
    /// attributed work (both nodes).
    pub fn leak_permille(&self) -> u64 {
        self.masking_ledger_all().leak_permille()
    }

    /// One cadence-gated critical-path sampling pass.
    fn sample_critpath(&mut self, now: Nanos) {
        let due = match &self.critpath {
            Some(cs) => cs.last_at.is_none_or(|t| now >= t + cs.cadence),
            None => false,
        };
        if due {
            self.force_critpath_sample(now);
        }
    }

    /// Takes one critical-path telemetry sample right now (also runs
    /// on the attached cadence inside [`TwoNodeSim::run_until`]; call
    /// this after a run ends to capture the final state). No-op when
    /// [`TwoNodeSim::attach_critpath`] was never called.
    pub fn force_critpath_sample(&mut self, now: Nanos) {
        if self.critpath.is_none() {
            return;
        }
        let ledgers = [self.masking_ledger(0), self.masking_ledger(1)];
        let cs = self.critpath.as_mut().expect("checked above");
        cs.last_at = Some(now);
        for (node, ml) in ledgers.iter().enumerate() {
            cs.plane.record(
                cs.mask_keys[node],
                ml.masked_permille(),
                now,
                0,
                XrayTag::none(),
            );
            for (i, (layer, key)) in cs.layer_keys[node].iter().enumerate() {
                let cum: u64 = ml
                    .rows
                    .iter()
                    .filter(|r| !r.engine && r.layer == *layer)
                    .map(|r| r.on_path_ns)
                    .sum();
                let delta = cum.saturating_sub(cs.last_onpath[node][i]);
                cs.last_onpath[node][i] = cum;
                // Zero-delta windows mean the layer stayed entirely off
                // the critical path — the healthy steady state. Only
                // actual on-path work becomes a sample, so the series
                // quantiles describe the cost *when it happens*.
                if delta > 0 {
                    cs.plane.record(*key, delta, now, 0, XrayTag::none());
                }
            }
        }
    }

    /// Reconstructs per-message causal DAGs from the traced journeys
    /// (at most `limit`, in reconstruction order; empty when
    /// [`TwoNodeSim::enable_tracing`] was off). Each observed hop
    /// contributes the on-path chain *send → wire → demux+deliver*
    /// with the cost model's fast-path durations anchored to the
    /// hop's trace timestamps, the deferred post-send/post-deliver
    /// work as masked nodes on lane 1 with happens-before edges from
    /// their trigger, and a deliver→send edge into the next hop. In a
    /// forced-leak run ([`SimConfig::forced_leak`]) the post nodes
    /// instead sit *on* the chain as leaked work — exactly how the
    /// leak looked to the wire.
    pub fn critpath_dags(&self, limit: usize) -> Vec<CritDag> {
        let set = self.journeys();
        let eager = !self.nodes[0].conns[0].config().lazy_post;
        // Trace rings are labelled with the connection's host id.
        let host0 = self.nodes[0].conns[0].local_addr().host_id() as u32;
        set.journeys()
            .iter()
            .take(limit)
            .map(|j| self.journey_dag(j, eager, host0))
            .collect()
    }

    fn journey_dag(&self, j: &Journey, eager: bool, host0: u32) -> CritDag {
        let host = |label: u32| usize::from(label != host0);
        let mut dag = CritDag::new();
        // Tail of the on-path chain from the previous hop (the deliver
        // node, or in eager mode the leaked post-deliver it waits on).
        let mut prev: Option<usize> = None;
        for leg in &j.hops {
            let sender = host(leg.sent_conn);
            let cost = &self.nodes[sender].cost;
            let (fs, ps) = (cost.fast_send(), cost.post_send_frame());
            let send_end = if eager {
                leg.sent_at.saturating_sub(ps)
            } else {
                leg.sent_at
            };
            let send = dag.node(CritNode {
                label: format!("send-pre+filter h{}", leg.hop),
                host: sender as u32,
                lane: 0,
                class: WorkClass::OnPath,
                start: send_end.saturating_sub(fs),
                dur: fs,
            });
            if let Some(p) = prev {
                dag.edge(p, send);
            }
            let mut chain = send;
            if eager {
                // Post-send ran synchronously before the frame left.
                let post = dag.node(CritNode {
                    label: format!("post-send h{} (leaked)", leg.hop),
                    host: sender as u32,
                    lane: 0,
                    class: WorkClass::Leaked,
                    start: send_end,
                    dur: ps,
                });
                dag.edge(send, post);
                chain = post;
            } else {
                let post = dag.node(CritNode {
                    label: format!("post-send h{}", leg.hop),
                    host: sender as u32,
                    lane: 1,
                    class: WorkClass::Masked,
                    start: leg.sent_at,
                    dur: ps,
                });
                dag.edge(send, post);
            }
            let Some(recv_at) = leg.recv_at else {
                // Lost on the wire: the chain ends here.
                prev = None;
                continue;
            };
            let receiver = leg.recv_conn.map(host).unwrap_or(1 - sender);
            let rcost = &self.nodes[receiver].cost;
            let (fd, pd) = (rcost.fast_deliver(), rcost.post_deliver_frame());
            let wire = dag.node(CritNode {
                label: format!("wire h{}", leg.hop),
                host: sender as u32,
                lane: 0,
                class: WorkClass::OnPath,
                start: leg.sent_at,
                dur: recv_at.saturating_sub(fd).saturating_sub(leg.sent_at),
            });
            dag.edge(chain, wire);
            let deliver = dag.node(CritNode {
                label: format!("demux+filter+deliver h{}", leg.hop),
                host: receiver as u32,
                lane: 0,
                class: WorkClass::OnPath,
                start: recv_at.saturating_sub(fd),
                dur: fd,
            });
            dag.edge(wire, deliver);
            if eager {
                let post = dag.node(CritNode {
                    label: format!("post-deliver h{} (leaked)", leg.hop),
                    host: receiver as u32,
                    lane: 0,
                    class: WorkClass::Leaked,
                    start: recv_at,
                    dur: pd,
                });
                dag.edge(deliver, post);
                prev = Some(post);
            } else {
                let post = dag.node(CritNode {
                    label: format!("post-deliver h{}", leg.hop),
                    host: receiver as u32,
                    lane: 1,
                    class: WorkClass::Masked,
                    start: recv_at,
                    dur: pd,
                });
                dag.edge(deliver, post);
                prev = Some(deliver);
            }
        }
        dag
    }

    /// A priced [`pa_obs::XrayReport`] for one node, joined with the
    /// flight recorder when one is attached: the report's notes gain
    /// the recorder's sample count, any frozen post-mortem, and the
    /// latest slow-path sample — the "why is this connection off the
    /// fast path" diagnosis in one artifact.
    pub fn xray_report(&self, node: usize) -> pa_obs::XrayReport {
        let mut r = self.nodes[node].xray_report(0);
        r.scope = format!("node{node} ({})", r.scope);
        if let Some(fr) = &self.recorder {
            r.notes
                .push(format!("flight recorder: {} samples", fr.samples()));
            if let Some((at, v)) = fr.get("fast_path_ratio").and_then(|ts| ts.last()) {
                r.notes.push(format!(
                    "last sample: fast-path ratio {:.1}% at {at} ns",
                    v * 100.0
                ));
            }
            if let Some((at, v)) = fr
                .get(&format!("backlog_depth_node{node}"))
                .and_then(|ts| ts.last())
            {
                r.notes
                    .push(format!("last sample: backlog depth {v:.0} at {at} ns"));
            }
            if let Some(pm) = fr.postmortem() {
                r.notes
                    .push(format!("POST-MORTEM at {} ns: {}", pm.at, pm.reason));
            }
        }
        r
    }

    /// A unified metrics snapshot of the whole simulation at `at`:
    /// per-node connection counters under scopes `node0` / `node1`,
    /// plus sim-level delivery totals under `sim`.
    pub fn metrics_snapshot(&self, at: Nanos) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(at);
        for (i, node) in self.nodes.iter().enumerate() {
            node.conns[0]
                .stats()
                .record_into(&mut snap, &format!("node{i}"));
        }
        snap.record("sim", "delivered_node0", self.delivered[0]);
        snap.record("sim", "delivered_node1", self.delivered[1]);
        snap.record("sim", "round_trips", self.round_trips);
        if let Some(plane) = self.scope_plane() {
            plane.record_into(&mut snap, "scope");
        }
        if let Some(fr) = &self.recorder {
            fr.record_into(&mut snap, "recorder");
        }
        if let Some(wd) = &self.watchdog {
            snap.record("watchdog", "samples", wd.samples());
            snap.record("watchdog", "alerts_total", wd.alerts_total());
            snap.record("watchdog", "ledger_broken", wd.ledger_broken() as u64);
        }
        snap
    }

    /// One flight-recorder sampling pass at `now`: counter deltas plus
    /// instantaneous gauges (backlog depth, in-flight frames), and the
    /// invariant watch.
    fn sample_flight_recorder(&mut self, now: Nanos) {
        if !self.recorder.as_ref().is_some_and(|fr| fr.due(now)) {
            return;
        }
        let snap = self.metrics_snapshot(now);
        let gauges = [
            (
                "backlog_depth_node0",
                self.nodes[0].conns[0].backlog_len() as f64,
            ),
            (
                "backlog_depth_node1",
                self.nodes[1].conns[0].backlog_len() as f64,
            ),
            ("net_in_flight", self.net.in_flight() as f64),
        ];
        let mut failures: Vec<String> = Vec::new();
        for (i, node) in self.world.nodes.iter().enumerate() {
            if !node.conns[0].stats().delivery_balanced() {
                failures.push(format!("delivery ledger out of balance on node{i}"));
            }
            // Disable-counter watch: a backlog that cannot drain
            // because the send prediction stays disabled with no
            // pending work left to re-enable it. One sample can be a
            // legitimate wait (window full, ack in flight); three
            // consecutive samples with nothing in flight — and no
            // retransmission timer armed that could recover — is a
            // wedge.
            let wedged = self.world.tick_every.is_none()
                && node.conns[0].backlog_len() > 0
                && !node.conns[0].send_prediction().enabled()
                && !node.conns[0].has_pending()
                && self.world.net.in_flight() == 0;
            if wedged {
                self.wedge_samples[i] += 1;
                if self.wedge_samples[i] >= 3 {
                    // The attributed hold table names the culprit.
                    let hold = node.conns[0]
                        .send_prediction()
                        .top_hold()
                        .map(|(layer, reason)| format!(" (held by {layer}: {reason})"))
                        .unwrap_or_default();
                    failures.push(format!(
                        "send path wedged on node{i}: disable count {} with {} backlogged{hold}",
                        node.conns[0].send_prediction().disable_count(),
                        node.conns[0].backlog_len()
                    ));
                }
            } else {
                self.wedge_samples[i] = 0;
            }
        }
        let fr = self.recorder.as_mut().expect("checked above");
        fr.maybe_sample(&snap, &gauges);
        for reason in failures {
            fr.trigger_postmortem(now, &reason, &snap);
        }
    }

    /// Arms the closed-loop client on node 0 (node 1 echoing): `n`
    /// request-reply cycles of `size`-byte messages, starting at
    /// `start`.
    pub fn arm_closed_loop(&mut self, n: u64, size: usize, start: Nanos) {
        self.world.set_behavior(1, AppBehavior::Echo);
        self.world.arm_client(0, n, size, start);
    }

    /// Runs until `horizon` or until nothing remains to do, sampling
    /// the attached telemetry (no-ops when not attached) after every
    /// step of the world's loop.
    pub fn run_until(&mut self, horizon: Nanos) {
        while let Some(now) = self.world.step(horizon) {
            if self.recorder.is_some() {
                self.sample_flight_recorder(now);
            }
            if self.watchdog.is_some() {
                self.observe_watchdog(now);
            }
            if self.critpath.is_some() {
                self.sample_critpath(now);
            }
        }
    }

    /// One watchdog pass at `now` (gated by the watchdog's own
    /// cadence). Fired alerts become flight-recorder post-mortems when
    /// a recorder is attached; either way they stay queryable through
    /// [`TwoNodeSim::watchdog`].
    fn observe_watchdog(&mut self, now: Nanos) {
        if !self.watchdog.as_ref().is_some_and(|wd| wd.due(now)) {
            return;
        }
        // Ledger construction allocates; only pay for it when someone
        // consumes the leak rate (the mask-leak detector, or the
        // critpath plane is attached and an operator will look).
        let leak_permille = if self.critpath.is_some()
            || self
                .watchdog
                .as_ref()
                .is_some_and(|wd| wd.config().max_leak_permille > 0)
        {
            self.leak_permille()
        } else {
            0
        };
        let input = WatchInput {
            at: now,
            progress: self.delivered[0] + self.delivered[1] + self.round_trips,
            backlog: (self.nodes[0].conns[0].backlog_len() + self.nodes[1].conns[0].backlog_len())
                as u64,
            ledger_ok: self
                .nodes
                .iter()
                .all(|n| n.conns[0].stats().delivery_balanced()),
            p99_ns: self
                .scope_plane()
                .map(|plane| plane.cluster().sketch().p99())
                .unwrap_or(0),
            leak_permille,
        };
        let alerts = self
            .watchdog
            .as_mut()
            .expect("checked above")
            .observe(input);
        if !alerts.is_empty() && self.recorder.is_some() {
            let snap = self.metrics_snapshot(now);
            if let Some(fr) = self.recorder.as_mut() {
                for alert in &alerts {
                    fr.trigger_postmortem(now, &format!("watchdog: {alert}"), &snap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::GcPolicy;

    #[test]
    fn single_round_trip_is_about_170us() {
        // The headline number of the paper. A *cold* round trip pays
        // ~19 µs extra for the 75-byte identification on both legs;
        // warm round trips land at ~174 µs (see the fig4 experiment).
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.set_behavior(0, AppBehavior::CloseLoop);
        sim.arm_closed_loop(1, 8, 0);
        sim.run_until(10_000_000);
        assert_eq!(sim.round_trips, 1);
        let rtt = sim.rtt.summary().mean;
        assert!((160_000.0..=200_000.0).contains(&rtt), "RTT = {} ns", rtt);
    }

    #[test]
    fn one_way_latency_is_about_85us() {
        // Cold first message: ~96 µs (carries the ident); the steady
        // state of Table 4 is measured by experiments::table4.
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.set_behavior(1, AppBehavior::Sink);
        sim.schedule_send(0, 0, 8);
        sim.run_until(10_000_000);
        assert_eq!(sim.delivered[1], 1);
        let ow = sim.one_way.summary().mean;
        assert!((80_000.0..=100_000.0).contains(&ow), "one-way = {} ns", ow);
    }

    #[test]
    fn spaced_round_trips_stay_at_170us() {
        // Below ~1650 rt/s the paper says 170 µs is maintained: space
        // requests 1 ms apart (1000 rt/s).
        let mut cfg = SimConfig::paper();
        cfg.gc = [GcPolicy::EveryReception; 2];
        let mut sim = TwoNodeSim::new(&cfg);
        sim.set_behavior(1, AppBehavior::Echo);
        sim.set_behavior(0, AppBehavior::CloseLoop);
        for i in 0..20 {
            sim.schedule_send(0, i * 1_000_000, 8);
        }
        sim.run_until(100_000_000);
        assert_eq!(sim.round_trips, 20);
        let s = sim.rtt.summary();
        assert!(
            (160_000.0..=185_000.0).contains(&s.mean),
            "mean RTT {}",
            s.mean
        );
    }

    #[test]
    fn saturated_round_trips_pay_post_and_gc() {
        // Back-to-back round trips: the dashed case of Figure 4 — the
        // paper reports ~400 µs average, ~550 worst, ≲1900/s.
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.arm_closed_loop(100, 8, 0);
        sim.run_until(200_000_000);
        assert_eq!(sim.round_trips, 100);
        let s = sim.rtt.summary();
        assert!(
            s.mean > 250_000.0,
            "saturated RTT must exceed 170 µs: {}",
            s.mean
        );
        let rate = sim.round_trips as f64 / (sim.now() as f64 / 1e9);
        assert!((1_200.0..=2_600.0).contains(&rate), "rate {rate} rt/s");
    }

    #[test]
    fn occasional_gc_raises_the_ceiling() {
        let mut cfg = SimConfig::paper();
        cfg.gc = [GcPolicy::EveryN(64); 2];
        let mut sim = TwoNodeSim::new(&cfg);
        sim.arm_closed_loop(200, 8, 0);
        sim.run_until(200_000_000);
        assert_eq!(sim.round_trips, 200);
        let rate = sim.round_trips as f64 / (sim.now() as f64 / 1e9);
        assert!(rate > 3_000.0, "occasional GC rate {rate} rt/s");
    }

    #[test]
    fn deliveries_and_ids_match_under_streaming() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 100_000, 50, 8);
        sim.run_until(100_000_000);
        assert_eq!(sim.delivered[1], 50);
        assert_eq!(sim.one_way.len(), 50);
    }

    #[test]
    fn timeline_records_both_nodes() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.arm_closed_loop(1, 8, 0);
        sim.run_until(10_000_000);
        let tl = sim.timeline();
        assert!(tl
            .iter()
            .any(|e| e.node == 0 && matches!(e.event, NodeEvent::Send(_))));
        assert!(tl
            .iter()
            .any(|e| e.node == 1 && matches!(e.event, NodeEvent::Deliver(_))));
        assert!(tl.iter().any(|e| matches!(e.event, NodeEvent::GcDone)));
        // Ordered.
        assert!(tl.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn rpc_mode_limits_outstanding_to_one() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.set_behavior(0, AppBehavior::Sink);
        sim.set_behavior(1, AppBehavior::Echo);
        sim.set_rpc_mode(true);
        // Offer 5 requests at the same instant: they must serialize.
        for _ in 0..5 {
            sim.schedule_send(0, 1000, 8);
        }
        sim.run_until(100_000_000);
        assert_eq!(sim.round_trips, 5, "queued requests all complete");
        let s = sim.rtt.summary();
        // The last request waited behind four whole round trips: its
        // latency (measured from the offered instant) must reflect it.
        assert!(
            s.max > s.min * 3.0,
            "queueing visible: min {} max {}",
            s.min,
            s.max
        );
    }

    #[test]
    fn drop_accounting_reconciles_under_fault_storm() {
        // The drop-accounting invariant under drop/corrupt/duplicate/
        // reorder faults: every frame the receiver saw is either a
        // delivery (fast or slow) or exactly one entry drop. By-layer
        // drops (checksum discards, duplicate suppression) happen inside
        // slow traversals and ride within `slow_deliveries`.
        let mut cfg = SimConfig::paper();
        cfg.faults = FaultConfig::harsh(11);
        cfg.tick_every = Some(2_000_000);
        let mut sim = TwoNodeSim::new(&cfg);
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 500_000, 200, 8);
        sim.run_until(30_000_000_000);
        let f = sim.net.fault_stats();
        assert!(
            f.corrupted > 0 && f.dropped > 0,
            "storm must actually storm"
        );
        for (i, node) in sim.nodes.iter().enumerate() {
            let s = node.conns[0].stats();
            assert!(
                s.delivery_balanced(),
                "node {i} ledger out of balance:\n{s}"
            );
        }
        let rx = sim.nodes[1].conns[0].stats();
        assert!(
            rx.drops_by_layer > 0 || rx.recv_filter_misses > 0,
            "faults must exercise the drop paths:\n{rx}"
        );
    }

    #[test]
    fn traced_run_reconstructs_every_delivered_journey() {
        // The tentpole acceptance: a traced 2-node run joins ≥ 99% of
        // its delivered messages into complete journeys.
        let mut sim = TwoNodeSim::new(&SimConfig::traced());
        sim.enable_tracing(4096);
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 100, 8);
        sim.run_until(200_000_000);
        assert_eq!(sim.delivered[1], 100);
        let set = sim.journeys();
        // One journey per wired frame (packed frames carry several
        // messages under one journey; control acks journey too).
        let frames_out =
            sim.nodes[0].conns[0].stats().frames_out + sim.nodes[1].conns[0].stats().frames_out;
        assert_eq!(set.len() as u64, frames_out, "one journey per frame");
        assert!(
            set.completeness() >= 0.99,
            "completeness {} ({}/{} complete, {} orphans)",
            set.completeness(),
            set.complete_count(),
            set.len(),
            set.orphan_delivers
        );
        assert_eq!(set.orphan_delivers, 0);
        // Hop latencies are the sim's one-way times: fast one-ways sit
        // near the paper's ~87 µs envelope.
        let lats: Vec<u64> = set
            .journeys()
            .iter()
            .filter_map(|j| j.total_latency())
            .collect();
        let min = *lats.iter().min().unwrap();
        assert!(
            (60_000..=120_000).contains(&min),
            "fastest hop ≈ 87 µs, got {min}"
        );
        // The waterfall renders one line per hop plus a header.
        let w = sim.waterfall();
        assert_eq!(w.lines().count(), set.len() + 1, "{w}");
        assert!(w.contains("1→2"), "{w}");
    }

    #[test]
    fn traced_round_trips_pair_each_direction() {
        let mut sim = TwoNodeSim::new(&SimConfig::traced());
        sim.enable_tracing(1024);
        sim.arm_closed_loop(10, 8, 0);
        sim.run_until(100_000_000);
        assert_eq!(sim.round_trips, 10);
        let set = sim.journeys();
        // Each round trip is two journeys (request and echo are
        // separate frames, each minting its own id at its sender).
        assert!(set.len() >= 20, "{} journeys", set.len());
        assert!(set.completeness() >= 0.99, "{}", set.completeness());
    }

    #[test]
    fn untraced_config_yields_no_journeys() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.enable_tracing(256);
        sim.schedule_send(0, 0, 8);
        sim.run_until(10_000_000);
        assert_eq!(sim.delivered[1], 1);
        assert!(sim.journeys().is_empty(), "no trace_ctx, no journeys");
    }

    #[test]
    fn flight_recorder_samples_a_streaming_run() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.attach_flight_recorder(1_000_000, 256); // 1 ms cadence
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 100, 8);
        sim.run_until(200_000_000);
        let fr = sim.flight_recorder().unwrap();
        assert!(fr.samples() >= 10, "{} samples", fr.samples());
        let ratio = fr.get("fast_path_ratio").expect("ratio series");
        assert!(ratio.last().unwrap().1 > 0.5, "{:?}", ratio.last());
        assert!(fr.get("frames").is_some());
        assert!(fr.get("backlog_depth_node0").is_some());
        assert!(fr.postmortem().is_none(), "healthy run, no postmortem");
        let prom = fr.to_prometheus();
        assert!(prom.contains("pa_fast_path_ratio"), "{prom}");
        let json = fr.to_json_lines();
        assert!(json.lines().count() >= 30, "{}", json.lines().count());
    }

    #[test]
    fn flight_recorder_survives_fault_storm_without_postmortem() {
        // The ledger holds under faults (drop_accounting test proves
        // it); the recorder must agree and keep quiet.
        let mut cfg = SimConfig::paper();
        cfg.faults = FaultConfig::harsh(11);
        cfg.tick_every = Some(2_000_000);
        let mut sim = TwoNodeSim::new(&cfg);
        // Ticks keep sampling long past the stream; the capacity must
        // retain the interesting (stormy) window too.
        sim.attach_flight_recorder(5_000_000, 4096);
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 500_000, 100, 8);
        sim.run_until(10_000_000_000);
        let fr = sim.flight_recorder().unwrap();
        assert!(fr.samples() > 0);
        assert!(
            fr.postmortem().is_none(),
            "{}",
            fr.postmortem()
                .map(|p| p.reason.clone())
                .unwrap_or_default()
        );
        // The storm shows up in the drop series instead.
        let drops = fr.get("drops").expect("drops series");
        assert!(drops.points().iter().any(|&(_, v)| v > 0.0));
    }

    #[test]
    fn wedged_send_path_freezes_a_postmortem() {
        // A network that swallows everything and no retransmission
        // timer: once the window fills, the send prediction stays
        // disabled, the backlog can never drain, and the recorder's
        // invariant watch must freeze a post-mortem naming the wedge.
        let mut cfg = SimConfig::paper();
        cfg.faults = FaultConfig {
            drop: 1.0,
            seed: 3,
            ..FaultConfig::none()
        };
        let mut sim = TwoNodeSim::new(&cfg);
        sim.attach_flight_recorder(100_000, 128);
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 60, 8);
        sim.run_until(60_000_000);
        let fr = sim.flight_recorder().unwrap();
        let pm = fr.postmortem().expect("wedge detected");
        assert!(pm.reason.contains("wedged"), "{}", pm.reason);
        assert!(pm.report.contains("POSTMORTEM"), "{}", pm.report);
        assert!(pm.report.contains("flight-recorder series"));
    }

    #[test]
    fn scope_plane_rolls_up_per_delivery_latencies() {
        // Traced streaming run with a scope plane attached: every
        // one-way completion lands in the per-conn, per-endpoint, and
        // cluster sketches, the roll-up reconciles exactly, and the
        // exemplars carry journey ids that resolve to real journeys.
        let mut sim = TwoNodeSim::new(&SimConfig::traced());
        sim.enable_tracing(4096);
        sim.attach_scope(pa_obs::ScopeConfig::default());
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 100, 8);
        sim.run_until(200_000_000);
        assert_eq!(sim.delivered[1], 100);
        let plane = sim.scope_plane().expect("attached");
        assert_eq!(plane.records(), 100);
        assert_eq!(plane.cluster().sketch().count(), 100);
        // All samples were receiver-side one-ways on node1.
        let node1 = plane.conn("node1/conn0").expect("registered");
        assert_eq!(node1.sketch().count(), 100);
        assert!(plane.rollup_reconciles(), "roll-up must reconcile");
        assert!(plane.within_budget(), "{} bytes", plane.mem_bytes());
        // The fastest delivery sits in the one-way envelope (~87 µs);
        // the stream saturates the receiver, so the upper quantiles
        // include queueing and must order correctly above it.
        let sk = plane.cluster().sketch();
        let min = sk.min();
        assert!((60_000..=120_000).contains(&min), "min = {min} ns");
        assert!(sk.p50() >= min && sk.p99() >= sk.p50());
        // Exemplar drill-down: each sampled exemplar names a journey
        // the trace rings actually reconstruct.
        let set = sim.journeys();
        let exemplars: Vec<_> = plane.cluster().exemplars().iter().collect();
        assert!(!exemplars.is_empty(), "exemplars sampled");
        for ex in exemplars {
            assert!(ex.journey != 0, "traced run mints journey ids");
            assert!(
                set.journeys().iter().any(|j| j.id == ex.journey),
                "exemplar journey {} resolves",
                pa_obs::render_journey_id(ex.journey)
            );
        }
    }

    #[test]
    fn scope_plane_is_inert_on_the_measurements() {
        // Attaching the plane is telemetry beside the stack: an
        // identical seeded run with and without it produces identical
        // latencies and connection counters.
        let run = |with_scope: bool| {
            let mut sim = TwoNodeSim::new(&SimConfig::paper());
            if with_scope {
                sim.attach_scope(pa_obs::ScopeConfig::default());
            }
            sim.arm_closed_loop(20, 8, 0);
            sim.run_until(100_000_000);
            (
                sim.rtt.summary().mean,
                sim.nodes[0].conns[0].stats().frames_out,
                sim.nodes[1].conns[0].stats().fast_deliveries,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn watchdog_stays_healthy_on_a_clean_run() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.attach_scope(pa_obs::ScopeConfig::default());
        sim.attach_watchdog(pa_obs::WatchdogConfig::default());
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 100, 8);
        sim.run_until(200_000_000);
        let wd = sim.watchdog().expect("attached");
        assert!(wd.samples() > 0, "watchdog sampled");
        assert!(wd.healthy(), "alerts: {:?}", wd.alerts());
        assert_eq!(wd.alerts_total(), 0);
    }

    #[test]
    fn watchdog_stall_freezes_a_postmortem() {
        // The wedge scenario again, but detected by the generic
        // watchdog (flat progress + standing backlog) rather than the
        // recorder's bespoke disable-counter watch: the recorder's own
        // cadence is set far past the horizon so the post-mortem can
        // only come from the watchdog.
        let mut cfg = SimConfig::paper();
        cfg.faults = FaultConfig {
            drop: 1.0,
            seed: 3,
            ..FaultConfig::none()
        };
        let mut sim = TwoNodeSim::new(&cfg);
        sim.attach_flight_recorder(1_000_000_000, 16);
        sim.attach_watchdog(pa_obs::WatchdogConfig {
            cadence: 100_000,
            ..Default::default()
        });
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 60, 8);
        sim.run_until(60_000_000);
        let wd = sim.watchdog().expect("attached");
        assert!(!wd.healthy());
        assert!(
            wd.alerts()
                .iter()
                .any(|(_, a)| matches!(a, pa_obs::WatchAlert::Stall { .. })),
            "{:?}",
            wd.alerts()
        );
        let pm = sim.flight_recorder().unwrap().postmortem().expect("frozen");
        assert!(pm.reason.contains("watchdog"), "{}", pm.reason);
        assert!(pm.reason.contains("stall"), "{}", pm.reason);
    }

    #[test]
    fn watchdog_slo_burn_needs_a_scope_plane() {
        // An absurdly tight SLO burns immediately — but only when a
        // scope plane supplies the p99; without one the signal stays 0
        // and the watchdog keeps quiet.
        let run = |with_scope: bool| {
            let mut sim = TwoNodeSim::new(&SimConfig::paper());
            if with_scope {
                sim.attach_scope(pa_obs::ScopeConfig::default());
            }
            sim.attach_watchdog(pa_obs::WatchdogConfig {
                cadence: 1_000_000,
                slo_p99_ns: 1_000, // 1 µs: every delivery busts it
                burn_windows: 2,
                ..Default::default()
            });
            sim.set_behavior(1, AppBehavior::Sink);
            sim.nodes[0].schedule = PostSchedule::WhenIdle;
            sim.schedule_stream(0, 0, 200_000, 50, 8);
            sim.run_until(200_000_000);
            sim.watchdog().unwrap().alerts_total()
        };
        assert_eq!(run(false), 0, "no plane, no p99, no burn");
        assert!(run(true) > 0, "plane-fed p99 trips the burn alert");
    }

    #[test]
    fn metrics_snapshot_exports_the_telemetry_plane() {
        let mut sim = TwoNodeSim::new(&SimConfig::paper());
        sim.attach_scope(pa_obs::ScopeConfig::default());
        sim.attach_flight_recorder(1_000_000, 64);
        sim.attach_watchdog(pa_obs::WatchdogConfig::default());
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 200_000, 20, 8);
        sim.run_until(100_000_000);
        let snap = sim.metrics_snapshot(sim.now());
        assert_eq!(snap.get("scope", "records"), Some(20));
        assert!(snap.get("scope", "mem_bytes").is_some_and(|v| v > 0));
        assert!(snap.get("recorder", "samples").is_some_and(|v| v > 0));
        assert_eq!(snap.get("recorder", "postmortems"), Some(0));
        assert!(snap.get("watchdog", "samples").is_some_and(|v| v > 0));
        assert_eq!(snap.get("watchdog", "ledger_broken"), Some(0));
    }

    #[test]
    fn lossy_network_with_ticks_still_completes() {
        let mut cfg = SimConfig::paper();
        cfg.faults = FaultConfig {
            drop: 0.1,
            seed: 5,
            ..FaultConfig::none()
        };
        cfg.tick_every = Some(2_000_000);
        let mut sim = TwoNodeSim::new(&cfg);
        sim.set_behavior(1, AppBehavior::Sink);
        sim.nodes[0].schedule = PostSchedule::WhenIdle;
        sim.schedule_stream(0, 0, 500_000, 40, 8);
        sim.run_until(3_000_000_000);
        assert_eq!(sim.delivered[1], 40, "reliability layer recovers drops");
    }
}
