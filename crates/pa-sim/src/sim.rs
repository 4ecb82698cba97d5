//! The two-node simulator every §5 experiment runs on: a [`World`] of
//! two one-connection hosts, plus what only a traced pair has — journey
//! reconstruction, the critical-path plane and per-message causal DAGs.
//! The event loop, the behaviours, the latency ledger and the watch are
//! the world's ([`crate::world`]) and read through `Deref`.

use crate::gc::GcModel;
use crate::Nanos;
use pa_obs::{
    CritDag, CritNode, Journey, JourneySet, ProbeSink, ScopeConfig, ScopeKey, ScopePlane,
    WorkClass, XrayTag,
};
use pa_unet::SimNet;
use pa_wire::EndpointAddr;

pub use crate::world::{AppBehavior, SimConfig, TimelineEvent, World};

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
    nodes: Vec<NodeSeries>,
}

/// One node's series in the critical-path plane.
struct NodeSeries {
    /// Its masking ratio (each sample is a permille).
    mask: ScopeKey,
    /// Per layer: name, on-path-cost series (each sample is the on-path
    /// ns the layer accrued since the previous one), and the cumulative
    /// on-path ns at the previous sample.
    layers: Vec<(String, ScopeKey, u64)>,
}

/// The two-node simulator: a [`World`] of two one-connection hosts
/// (node 0 conventionally the client, node 1 echoing) plus the
/// critical-path plane.
pub struct TwoNodeSim {
    world: World,
    /// The critical-path masking telemetry, if attached.
    critpath: Option<CritState>,
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
            critpath: None,
        }
    }

    // ------------------------------------------------------------------
    // Telemetry: journeys and the latency plane
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
        let names = self.nodes[0].conns[0].layer_names();
        let nodes = (0..self.nodes.len())
            .map(|node| NodeSeries {
                mask: plane.register("mask", &format!("mask/node{node}")),
                layers: (names.iter())
                    .map(|l| {
                        let series = format!("onpath/{l}/node{node}");
                        let key = plane.register(&format!("onpath/{l}"), &series);
                        (l.to_string(), key, 0)
                    })
                    .collect(),
            })
            .collect();
        self.critpath = Some(CritState {
            plane,
            cadence,
            last_at: None,
            nodes,
        });
    }

    /// The attached critical-path plane, if any.
    pub fn critpath_plane(&self) -> Option<&ScopePlane> {
        self.critpath.as_ref().map(|c| &c.plane)
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
        let ledgers: Vec<_> = (0..self.nodes.len())
            .map(|node| self.masking_ledger(node))
            .collect();
        let cs = self.critpath.as_mut().expect("checked above");
        cs.last_at = Some(now);
        for (node, ml) in cs.nodes.iter_mut().zip(&ledgers) {
            cs.plane
                .record(node.mask, ml.masked_permille(), now, 0, XrayTag::none());
            for (layer, key, last) in &mut node.layers {
                let cum: u64 = ml
                    .rows
                    .iter()
                    .filter(|r| !r.engine && r.layer == *layer)
                    .map(|r| r.on_path_ns)
                    .sum();
                let delta = cum.saturating_sub(*last);
                *last = cum;
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
        use WorkClass::{Leaked, Masked, OnPath};
        fn node(
            dag: &mut CritDag,
            label: String,
            host: usize,
            class: WorkClass,
            at: (Nanos, Nanos),
        ) -> usize {
            dag.node(CritNode {
                label,
                host: host as u32,
                // Masked work runs on the deferred lane.
                lane: u32::from(class == Masked),
                class,
                start: at.0,
                dur: at.1,
            })
        }
        let host = |label: u32| usize::from(label != host0);
        // Post work is deferred to the masked lane — or, eager, it ran
        // synchronously and sits on the chain as a leak.
        let (post, tag) = if eager {
            (Leaked, " (leaked)")
        } else {
            (Masked, "")
        };
        let mut dag = CritDag::new();
        // Tail of the on-path chain from the previous hop (the deliver
        // node, or in eager mode the leaked post-deliver it waits on).
        let mut prev: Option<usize> = None;
        for leg in &j.hops {
            let sent_at = leg.sent_at;
            let name = |what: &str, tag: &str| format!("{what} h{}{tag}", leg.hop);
            let sender = host(leg.sent_conn);
            let cost = &self.nodes[sender].cost;
            let (fs, ps) = (cost.fast_send(), cost.post_send_frame());
            // Eager post-send ran before the frame left.
            let send_end = sent_at.saturating_sub(if eager { ps } else { 0 });
            let pre = (send_end.saturating_sub(fs), fs);
            let send = node(&mut dag, name("send-pre+filter", ""), sender, OnPath, pre);
            if let Some(p) = prev {
                dag.edge(p, send);
            }
            let after = node(
                &mut dag,
                name("post-send", tag),
                sender,
                post,
                (send_end, ps),
            );
            dag.edge(send, after);
            let chain = if eager { after } else { send };
            let Some(recv_at) = leg.recv_at else {
                // Lost on the wire: the chain ends here.
                prev = None;
                continue;
            };
            let receiver = leg.recv_conn.map(host).unwrap_or(1 - sender);
            let rcost = &self.nodes[receiver].cost;
            let (fd, pd) = (rcost.fast_deliver(), rcost.post_deliver_frame());
            let arrive = recv_at.saturating_sub(fd);
            let flight = (sent_at, arrive.saturating_sub(sent_at));
            let wire = node(&mut dag, name("wire", ""), sender, OnPath, flight);
            dag.edge(chain, wire);
            let landed = (arrive, fd);
            let deliver = node(
                &mut dag,
                name("demux+filter+deliver", ""),
                receiver,
                OnPath,
                landed,
            );
            dag.edge(wire, deliver);
            let after = node(
                &mut dag,
                name("post-deliver", tag),
                receiver,
                post,
                (recv_at, pd),
            );
            dag.edge(deliver, after);
            prev = Some(if eager { after } else { deliver });
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
        if let Some(fr) = self.flight_recorder() {
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

    /// Arms the closed-loop client on node 0 (node 1 echoing): `n`
    /// request-reply cycles of `size`-byte messages, starting at
    /// `start`.
    pub fn arm_closed_loop(&mut self, n: u64, size: usize, start: Nanos) {
        self.world.set_behavior(1, AppBehavior::Echo);
        self.world.arm_client(0, n, size, start);
    }

    /// Exits the process with status 1, printing the offending ledger,
    /// unless every node's masking ledger conserves exactly against its
    /// priced phase table — the gate the masking bench and the critpath
    /// report both stand on.
    pub fn conservation_gate(&self, name: &str) {
        for node in 0..self.nodes.len() {
            let ml = self.masking_ledger(node);
            if !ml.conserves(&self.xray_report(node).phases) {
                eprintln!("FAIL: {name}: masking ledger does not conserve on node{node}");
                eprintln!("{}", ml.render());
                std::process::exit(1);
            }
        }
    }

    /// Runs until `horizon` or until nothing remains to do, stepping
    /// the world's watch and the critical-path plane (no-ops when not
    /// attached) after every step of the world's loop.
    pub fn run_until(&mut self, horizon: Nanos) {
        while let Some(now) = self.world.step(horizon) {
            self.world.watch_step(now);
            self.sample_critpath(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::GcPolicy;
    use crate::node::{NodeEvent, PostSchedule};
    use pa_unet::FaultConfig;

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
        let w = set.waterfall();
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
