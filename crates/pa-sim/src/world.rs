//! The virtual-time world: hosts, one network, one clock, one loop.
//!
//! A [`World`] is [`NodeSim`]s over one [`SimNet`], with a global
//! virtual clock, the one next-event loop ([`World::step`]), a queue of
//! application events (workload generators schedule sends), and built-in
//! behaviours: an **echo** responder (the §5 round-trip server), a
//! **sink** (one-way streaming receiver), and a **closed-loop** client
//! (sends the next request the moment the reply lands — the saturated,
//! dashed-line case of Figure 4). What watches a run — latency plane,
//! flight recorder, watchdog — is a [`pa_obs::Watch`] the world owns
//! and steps after every event, whatever the node count.
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
    Fleet, FlightRecorder, MaskingLedger, MetricsSnapshot, ScopeConfig, ScopeKey, ScopePlane,
    Watch, WatchInput, Watchdog, WatchdogConfig,
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
    /// causal journeys (call [`crate::TwoNodeSim::enable_tracing`] too).
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
/// virtual-time scenario runs on, and the [`Watch`] over it.
/// [`crate::TwoNodeSim`] is two one-connection hosts;
/// [`crate::multi::ClusterSim`] is N closed-loop clients and an echoing
/// N-connection server.
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
    /// What watches the run; nothing attached until a host asks. The
    /// plane is fed one sample per completed latency measurement at a
    /// node that has a series key; recorder and watchdog are stepped by
    /// [`World::run_until`] after every event.
    pub watch: Watch,
    /// Each node's series key in the plane, in node order.
    scope_keys: Vec<ScopeKey>,
    /// Consecutive recorder samples each node's send path has been
    /// wedged (backlog non-empty, prediction disabled, nothing pending
    /// to re-enable it) — the disable-counter invariant.
    wedge_samples: Vec<u32>,
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
            watch: Watch::default(),
            scope_keys: Vec::new(),
            wedge_samples: vec![0; n],
        }
    }

    /// Attaches a pa-scope roll-up plane with one `(endpoint, series)`
    /// per node, in node order (nodes past the end of `series` record
    /// nothing). The plane is telemetry *beside* the stack — attaching
    /// it never changes wire bytes or connection behaviour.
    pub fn attach_scope_series(&mut self, cfg: ScopeConfig, series: &[(String, String)]) {
        let mut plane = ScopePlane::new(cfg);
        self.scope_keys = series
            .iter()
            .map(|(endpoint, conn)| plane.register(endpoint, conn))
            .collect();
        self.watch.plane = Some(plane);
    }

    /// The attached scope plane, if any.
    pub fn scope_plane(&self) -> Option<&ScopePlane> {
        self.watch.plane.as_ref()
    }

    /// Attaches a flight recorder sampling every `interval` virtual
    /// nanoseconds, retaining `capacity` points per series (what a
    /// sample holds: [`World::run_until`] steps the watch).
    pub fn attach_flight_recorder(&mut self, interval: Nanos, capacity: usize) {
        self.watch.recorder = Some(FlightRecorder::new(interval, capacity));
        self.wedge_samples.fill(0);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.watch.recorder.as_ref()
    }

    /// Attaches a health watchdog sampling the run on its own
    /// virtual-time cadence.
    pub fn attach_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watch.watchdog = Some(Watchdog::new(cfg));
    }

    /// The attached watchdog, if any.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watch.watchdog.as_ref()
    }

    /// What every connection of every host did off the fast path, hosts
    /// in node order.
    pub fn fleet(&self) -> Fleet {
        let mut fleet = Fleet::default();
        for conn in self.nodes.iter().flat_map(|n| &n.conns) {
            conn.fold_into(&mut fleet);
        }
        fleet
    }

    /// The masking ledger of one node in the virtual-time domain (see
    /// [`NodeSim::masking_ledger`]): conserves exactly against that
    /// node's priced phase table.
    pub fn masking_ledger(&self, node: usize) -> MaskingLedger {
        self.nodes[node].masking_ledger(&format!("node{node}"))
    }

    /// Every node's masking ledger merged.
    pub fn masking_ledger_all(&self) -> MaskingLedger {
        let mut ml = self.masking_ledger(0);
        for node in 1..self.nodes.len() {
            ml.merge(&self.masking_ledger(node));
        }
        ml
    }

    /// The run's current critical-path leak rate in permille of all
    /// attributed work (every node).
    pub fn leak_permille(&self) -> u64 {
        self.masking_ledger_all().leak_permille()
    }

    /// True while every connection's delivery ledger balances.
    pub fn ledgers_ok(&self) -> bool {
        let mut conns = self.nodes.iter().flat_map(|n| &n.conns);
        conns.all(|c| c.stats().delivery_balanced())
    }

    /// A unified metrics snapshot of the whole simulation at `at`: each
    /// host's connection counters summed under scope `node<i>`,
    /// sim-level delivery totals under `sim`, the watch's rows, and the
    /// recorder's own bookkeeping under `recorder`.
    pub fn metrics_snapshot(&self, at: Nanos) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(at);
        for (i, node) in self.nodes.iter().enumerate() {
            let scope = format!("node{i}");
            for (name, v) in node.conns.iter().flat_map(|c| c.stats().fields()) {
                snap.add(&scope, name, v);
            }
            snap.record("sim", &format!("delivered_node{i}"), self.delivered[i]);
        }
        snap.record("sim", "round_trips", self.round_trips);
        self.watch.record_into(&mut snap);
        if let Some(fr) = &self.watch.recorder {
            fr.record_into(&mut snap, "recorder");
        }
        snap
    }

    /// One watch step at `now`, if the recorder or the watchdog is due.
    /// The recorder samples every host's counters and per-host backlog
    /// gauges and watches the run's invariants
    /// ([`World::invariant_breaks`]); the watchdog sees progress = total
    /// deliveries + round trips, backlog = every connection's send
    /// backlog, ledger = every delivery ledger, p99 = the scope plane's
    /// cluster sketch (0 when no plane is attached, which keeps SLO-burn
    /// detection off). A break or an alert freezes a post-mortem when a
    /// recorder is attached.
    pub(crate) fn watch_step(&mut self, now: Nanos) {
        if !self.watch.due(now) {
            return;
        }
        let mut snap = self.metrics_snapshot(now);
        let mut gauges: Vec<(String, f64)> = (self.nodes.iter().enumerate())
            .map(|(i, n)| (format!("backlog_depth_node{i}"), n.backlog() as f64))
            .collect();
        gauges.push(("net_in_flight".into(), self.net.in_flight() as f64));
        let gauges: Vec<(&str, f64)> = gauges.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let broken = self.invariant_breaks(now);
        let input = WatchInput {
            at: now,
            progress: self.delivered.iter().sum::<u64>() + self.round_trips,
            backlog: self.nodes.iter().map(NodeSim::backlog).sum::<usize>() as u64,
            ledger_ok: self.ledgers_ok(),
            p99_ns: self.watch.p99(),
            leak_permille: match self.watch.wants_leak_rate() {
                true => self.leak_permille(),
                false => 0,
            },
        };
        self.watch.observe(&mut snap, &gauges, input, &broken);
    }

    /// The recorder's invariant watch, one pass per recorder sample: a
    /// delivery ledger out of balance, or a send path wedged — a
    /// backlog that cannot drain because the send prediction stays
    /// disabled with no pending work left to re-enable it. One sample
    /// can be a legitimate wait (window full, ack in flight); three
    /// consecutive samples with nothing in flight — and no
    /// retransmission timer armed that could recover — is a wedge.
    fn invariant_breaks(&mut self, now: Nanos) -> Vec<String> {
        let mut broken = Vec::new();
        if !self.watch.recorder.as_ref().is_some_and(|r| r.due(now)) {
            return broken;
        }
        let quiet = self.tick_every.is_none() && self.net.in_flight() == 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.conns.iter().all(|c| c.stats().delivery_balanced()) {
                broken.push(format!("delivery ledger out of balance on node{i}"));
            }
            let wedged = (node.conns.iter())
                .find(|c| c.backlog_len() > 0 && !c.send_prediction().enabled() && !c.has_pending())
                .filter(|_| quiet);
            let Some(conn) = wedged else {
                self.wedge_samples[i] = 0;
                continue;
            };
            self.wedge_samples[i] += 1;
            if self.wedge_samples[i] >= 3 {
                // The attributed hold table names the culprit.
                let hold = (conn.send_prediction().top_hold())
                    .map(|(layer, reason)| format!(" (held by {layer}: {reason})"))
                    .unwrap_or_default();
                broken.push(format!(
                    "send path wedged on node{i}: disable count {} with {} backlogged{hold}",
                    conn.send_prediction().disable_count(),
                    conn.backlog_len()
                ));
            }
        }
        broken
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
        let (Some(plane), Some(&key)) = (&mut self.watch.plane, self.scope_keys.get(node)) else {
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

    /// Runs until `horizon` or until nothing remains to do, stepping
    /// the watch (a no-op with nothing attached) after every event.
    pub fn run_until(&mut self, horizon: Nanos) {
        while let Some(now) = self.step(horizon) {
            self.watch_step(now);
        }
    }
}
