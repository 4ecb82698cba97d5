//! The storm soaks: the mutation campaign over both transports, plus a
//! `TwoNodeSim` fault soak — the "no input byte sequence can panic,
//! wedge, mis-deliver, or un-account a connection" guarantee, end to
//! end.

use pa_fuzz::{run_campaign, run_udp_campaign, FuzzConfig, Mutation};

/// The in-memory storm: tens of thousands of mutated frames against a
/// live two-connection endpoint, invariants asserted after every
/// injection, liveness proved after the storm.
#[test]
fn sim_transport_storm() {
    let report = run_campaign(&FuzzConfig::new(0x5701_2026, 12_000));
    assert!(report.recovered, "connections wedged:\n{report}");
    assert!(report.injected >= 12_000, "{report}");
    assert!(report.delivered > 0, "{report}");
    // Every mutation class actually ran.
    for m in Mutation::ALL {
        assert!(
            report.mutation_counts[m.index()] > 0,
            "mutation {} never drawn:\n{report}",
            m.name()
        );
    }
    // The storm was hostile enough to exercise the reject taxonomy.
    assert!(report.demux_rejects > 0, "{report}");
}

/// The same storm with the attacker→server leg crossing real UDP
/// loopback sockets (kernel truncation sentinel included).
#[test]
fn udp_loopback_storm() {
    let report = run_udp_campaign(&FuzzConfig::new(0x0DD_BA11, 2_500));
    assert!(report.recovered, "connections wedged:\n{report}");
    assert!(report.injected > 1_000, "{report}");
    assert!(report.delivered > 0, "{report}");
    assert!(report.demux_rejects > 0, "{report}");
}

/// A different failure geometry: `TwoNodeSim`'s own fault injector
/// (drop/corrupt/duplicate/reorder at the network layer) against the
/// paper schedule, then a clean tail to prove progress after the storm.
#[test]
fn two_node_sim_fault_soak_reconciles_and_recovers() {
    use pa_sim::{SimConfig, TwoNodeSim};
    use pa_unet::faults::FaultConfig;

    let mut cfg = SimConfig::paper();
    cfg.faults = FaultConfig::harsh(0xFA_57);
    cfg.tick_every = Some(2_000_000);
    let mut sim = TwoNodeSim::new(&cfg);
    sim.schedule_stream(0, 1_000, 2_000_000, 200, 64);
    sim.run_until(600_000_000);

    for (i, node) in sim.nodes.iter().enumerate() {
        let s = node.conns[0].stats();
        assert!(s.delivery_balanced(), "node {i}: {s}");
        assert!(s.rejects_reconcile(), "node {i}: {s}");
    }
    let delivered_during_storm = sim.delivered[1];
    assert!(delivered_during_storm > 0, "storm starved the stream");

    // Clean tail: the connection must still move once the network
    // behaves (retransmission drains whatever the storm destroyed).
    sim.run_until(5_000_000_000);
    assert!(
        sim.delivered[1] >= 200,
        "stream never completed: {} of 200 delivered",
        sim.delivered[1]
    );
    for (i, node) in sim.nodes.iter().enumerate() {
        let s = node.conns[0].stats();
        assert!(s.delivery_balanced(), "node {i} after recovery: {s}");
        assert!(s.rejects_reconcile(), "node {i} after recovery: {s}");
    }
}

/// Lifecycle soak: the churn campaign in hostile mode — ~50k seeded
/// bind / traffic / re-key / remove cycles with one frame in five
/// mutated in flight. The demux conservation law, stale ledgers, and
/// pool baselines must hold at every checkpoint *while the population
/// itself churns*, and the final teardown must still empty the router.
#[test]
fn hostile_churn_soak_reconciles_through_lifecycle_storm() {
    use pa_fuzz::churn::{run_churn_campaign, ChurnConfig};

    let mut cfg = ChurnConfig::new(0x50A_BC4E4, 50_000);
    cfg.mutate_ratio = 0.2;
    let report = run_churn_campaign(&cfg);
    assert!(report.mutated > 3_000, "{report}");
    assert_eq!(report.removed, report.admitted, "{report}");
    assert_eq!(report.stale_replays, report.rekeys, "{report}");
    assert!(report.delivered > 10_000, "{report}");
}
