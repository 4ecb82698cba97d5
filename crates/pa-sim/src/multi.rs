//! Multi-client simulation: one server, N clients (§6, "Maximum
//! Load").
//!
//! "Consider a server that uses a PA for each client … Even with
//! multiple clients, a server cannot process more than 6000 requests
//! per second total, because the post-processing will consume all the
//! server's available CPU cycles." And the proposed remedy: "modern
//! servers are likely to be multi-processors. The protocol stacks for
//! different connections may be divided among the processors. Since the
//! protocol stacks are independent, there will be no synchronization
//! necessary."
//!
//! [`ClusterSim`] is a [`World`] of N one-connection closed-loop client
//! hosts and one echoing server host — the same [`crate::node::NodeSim`]
//! every other scenario uses — holding one real connection per client
//! over one or more virtual CPUs, each connection pinned to a CPU
//! (`conn_index mod cpus`), exactly the §6 partitioning argument.

use crate::gc::{GcModel, GcPolicy};
use crate::node::{NodeSim, PostSchedule};
use crate::sim::{AppBehavior, SimConfig, World};
use crate::Nanos;
use pa_core::Connection;
use pa_obs::ScopeConfig;
use pa_unet::SimNet;
use pa_wire::EndpointAddr;

/// One server, N closed-loop clients: nodes `0..N` are the clients,
/// node `N` the server. Pooled and per-client round-trip latencies are
/// the world's `rtt` and `rtt_by_node`.
pub struct ClusterSim {
    world: World,
}

impl std::ops::Deref for ClusterSim {
    type Target = World;
    fn deref(&self) -> &World {
        &self.world
    }
}

impl std::ops::DerefMut for ClusterSim {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

impl ClusterSim {
    /// Builds a cluster: `n_clients` clients, a server with `n_cpus`
    /// processors, everything from `cfg` (stack, PA config, costs, GC).
    pub fn new(cfg: &SimConfig, n_clients: usize, n_cpus: usize) -> ClusterSim {
        let server_addr = EndpointAddr::from_parts(1000, 7);
        let client_addr = |k: usize| EndpointAddr::from_parts(1 + k as u64, 7);
        let mut nodes: Vec<NodeSim> = (0..n_clients)
            .map(|k| {
                cfg.host(
                    client_addr(k),
                    &[(server_addr, 6000 + k as u64)],
                    1,
                    GcModel::paper(cfg.gc[0], 7000 + k as u64),
                    PostSchedule::WhenIdle,
                )
            })
            .collect();
        let peers: Vec<_> = (0..n_clients)
            .map(|k| (client_addr(k), 5000 + k as u64))
            .collect();
        nodes.push(cfg.host(
            server_addr,
            &peers,
            n_cpus,
            GcModel::paper(cfg.gc[1], 4242),
            PostSchedule::AfterReply,
        ));
        let mut world = World::new(nodes, SimNet::new(cfg.profile, cfg.faults), None);
        world.set_logging(false);
        world.set_behavior(n_clients, AppBehavior::Echo);
        ClusterSim { world }
    }

    /// Attaches a pa-scope roll-up plane: every client connection gets
    /// its own sketch series, rolled up per server CPU (endpoint =
    /// `cpuN`, the §6 partitioning unit) and into one cluster sketch.
    /// Clients beyond the plane's slot budget degrade explicitly into
    /// the overflow series — counted, never silently dropped.
    pub fn attach_scope(&mut self, cfg: ScopeConfig) {
        let n_cpus = self.nodes[self.nodes.len() - 1].n_cpus();
        let series: Vec<_> = (0..self.clients().len())
            .map(|k| (format!("cpu{}", k % n_cpus), format!("client{k:04}")))
            .collect();
        self.world.attach_scope_series(cfg, &series);
    }

    /// The client hosts, one connection each.
    pub fn clients(&self) -> &[NodeSim] {
        &self.nodes[..self.nodes.len() - 1]
    }

    /// The server-side connections, one per client (ledger checks,
    /// reject/attribution aggregation).
    pub fn server_conns(&self) -> &[Connection] {
        &self.nodes[self.nodes.len() - 1].conns
    }

    /// Convenience: the paper's config with occasional GC (the §6
    /// 6000 rpc/s analysis assumes the higher ceiling).
    pub fn paper_occasional_gc() -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.gc = [GcPolicy::EveryN(64); 2];
        cfg
    }

    /// Runs `per_client` closed-loop requests on every client.
    pub fn run(&mut self, per_client: u64, horizon: Nanos) {
        for k in 0..self.clients().len() {
            self.world.arm_client(k, per_client, 8, 0);
        }
        self.world.run_until(horizon);
    }

    /// Total completed requests per second of virtual time.
    pub fn rate(&self) -> f64 {
        if self.now() == 0 {
            return 0.0;
        }
        self.round_trips as f64 / (self.now() as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cluster(n_clients: usize, n_cpus: usize, per_client: u64) -> ClusterSim {
        let cfg = ClusterSim::paper_occasional_gc();
        let mut c = ClusterSim::new(&cfg, n_clients, n_cpus);
        c.run(per_client, 30_000_000_000);
        c
    }

    #[test]
    fn single_client_matches_two_node_rate() {
        let c = run_cluster(1, 1, 300);
        assert_eq!(c.round_trips, 300);
        assert!((4_000.0..=7_000.0).contains(&c.rate()), "{}", c.rate());
    }

    #[test]
    fn total_rate_is_capped_by_the_server_cpu() {
        // §6: "Even with multiple clients, a server cannot process more
        // than 6000 requests per second total."
        let one = run_cluster(1, 1, 200);
        let four = run_cluster(4, 1, 200);
        assert_eq!(four.round_trips, 800);
        assert!(
            four.rate() < one.rate() * 1.6,
            "4 clients: {} vs 1 client: {} — no magic capacity",
            four.rate(),
            one.rate()
        );
    }

    #[test]
    fn multiprocessor_server_scales() {
        // §6: "the maximum number of RPCs per second is multiplied by
        // the number of processors."
        let uni = run_cluster(4, 1, 150);
        let quad = run_cluster(4, 4, 150);
        assert!(
            quad.rate() > uni.rate() * 2.0,
            "4 cpus {} vs 1 cpu {}",
            quad.rate(),
            uni.rate()
        );
    }

    #[test]
    fn every_request_answered_under_load() {
        let c = run_cluster(8, 2, 100);
        assert_eq!(c.round_trips, 800);
        assert_eq!(c.rtt.len(), 800);
        assert_eq!(c.clients().len(), 8);
        assert!(c.rtt_by_node[..8].iter().all(|s| s.len() == 100));
    }

    #[test]
    fn watched_cluster_reports_the_fleet_a_one_wave_churn_reports() {
        use crate::churn::{ChurnConfig, ChurnSim};
        let cfg = ChurnConfig {
            waves: 1,
            ..ChurnConfig::small()
        };
        let mut churn = ChurnSim::new(cfg.clone());
        churn.run();

        // The same wave as a bare cluster with the world's watch on.
        let mut c = ClusterSim::new(
            &ClusterSim::paper_occasional_gc(),
            cfg.clients_per_wave,
            cfg.n_cpus,
        );
        c.attach_scope(cfg.scope);
        c.attach_flight_recorder(1_000_000, 64);
        c.attach_watchdog(pa_obs::WatchdogConfig::default());
        c.run(cfg.per_client, cfg.wave_horizon);

        let fleet = c.fleet();
        assert_eq!(fleet, churn.fleet, "one fold, whoever drives it");
        assert_eq!(fleet.conns, 2 * cfg.clients_per_wave as u64);
        let (ml, want) = (c.masking_ledger_all(), &churn.masking);
        assert_eq!(ml.masked_permille(), want.masked_permille());
        assert_eq!(ml.total_ns(), want.total_ns());
        let plane = c.scope_plane().expect("attached");
        assert_eq!(plane.cluster().sketch(), churn.plane().cluster().sketch());

        // And the watch stepped with the world's loop.
        let wd = c.watchdog().expect("attached");
        assert!(wd.samples() > 1 && wd.healthy(), "{:?}", wd.alerts());
        let fr = c.flight_recorder().expect("attached");
        assert!(fr.samples() > 1 && fr.postmortem().is_none());
        assert!(fr.get("backlog_depth_node0").is_some());
        let snap = c.metrics_snapshot(c.now());
        assert_eq!(snap.get("watchdog", "samples"), Some(wd.samples()));
        assert_eq!(snap.get("sim", "round_trips"), Some(c.round_trips));
        assert!(fleet
            .report("cluster", c.now(), pa_obs::positional)
            .reconciles());
        let text = c.watch.render(c.now(), &fleet, &ml, 3);
        assert!(text.contains("-- watchdog --"), "{text}");
    }

    #[test]
    fn cluster_scope_rolls_up_per_cpu_and_per_client() {
        let cfg = ClusterSim::paper_occasional_gc();
        let mut c = ClusterSim::new(&cfg, 8, 2);
        c.attach_scope(ScopeConfig::default());
        c.run(50, 30_000_000_000);
        assert_eq!(c.round_trips, 400);
        let plane = c.scope_plane().expect("attached");
        assert_eq!(plane.records(), 400);
        assert_eq!(plane.cluster().sketch().count(), 400);
        assert!(plane.rollup_reconciles());
        assert!(plane.within_budget(), "{} bytes", plane.mem_bytes());
        // Every client got a dedicated series (8 ≤ default slots) and
        // its sketch count matches its exact per-client series.
        for k in 0..8 {
            let s = plane.conn(&format!("client{k:04}")).expect("dedicated");
            assert_eq!(s.sketch().count() as usize, c.rtt_by_node[k].len());
        }
        // The plane's cluster max is the same sample the pooled exact
        // series saw (sketches keep exact min/max).
        assert_eq!(plane.cluster().sketch().max(), c.rtt.summary().max as u64);
        // Top-N ranking is well-formed: 8 entries, descending p99.
        let top = plane.top_conns(0.99, 8);
        assert_eq!(top.len(), 8);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
