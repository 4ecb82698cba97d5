//! Critical-path masking analysis: DAG well-formedness, exact cycle
//! conservation, determinism, and the forced-leak regression.
//!
//! The load-bearing invariant throughout is *conservation by
//! construction*: on-path + masked + leaked cycles must equal the
//! phase meters' totals with `==`, not a tolerance — in the virtual
//! domain under a fault storm, and in the wall-clock cycle domain on a
//! real connection with measurable post work.

use pa::obs::{
    validate_trace_json, LeakCause, MaskDomain, MaskingLedger, Phase, ScopeConfig, WatchdogConfig,
    WorkClass,
};
use pa::sim::{AppBehavior, SimConfig, TwoNodeSim};
use pa::stack::MeterLayer;

fn drive(cfg: &SimConfig, trips: u64) -> TwoNodeSim {
    let mut sim = TwoNodeSim::new(cfg);
    sim.enable_tracing(4096);
    sim.attach_critpath(ScopeConfig::default(), 1_000_000);
    sim.set_behavior(0, AppBehavior::CloseLoop);
    sim.arm_closed_loop(trips, 8, 0);
    sim.run_until(2_000_000_000);
    let now = sim.now();
    sim.force_critpath_sample(now);
    sim
}

fn fault_storm() -> SimConfig {
    let mut cfg = SimConfig::traced();
    cfg.faults.drop = 0.08;
    cfg.faults.corrupt = 0.02;
    cfg.faults.duplicate = 0.03;
    cfg.faults.reorder = 0.05;
    cfg.faults.reorder_delay = 40_000;
    cfg.faults.seed = 0xFA11;
    cfg.tick_every = Some(2_000_000);
    cfg
}

// ---------------------------------------------------------------- DAGs

#[test]
fn journey_dags_are_acyclic_and_timestamped() {
    let sim = drive(&SimConfig::traced(), 20);
    let dags = sim.critpath_dags(usize::MAX);
    assert!(!dags.is_empty(), "traced run must yield journeys");
    for dag in &dags {
        assert!(dag.is_acyclic(), "journey DAG must be acyclic");
        assert!(!dag.critical_path().is_empty());
        // Edges respect the hop timestamps: no node starts before an
        // on-path predecessor starts.
        for &(from, to) in dag.edges() {
            assert!(
                dag.nodes[to].start + dag.nodes[to].dur
                    >= dag.nodes[from].start.min(dag.nodes[to].start),
                "edge violates happens-before"
            );
        }
        // On-path and masked work both present in a healthy run.
        assert!(dag.class_ns(WorkClass::OnPath) > 0);
        assert!(dag.class_ns(WorkClass::Masked) > 0);
        assert_eq!(
            dag.class_ns(WorkClass::Leaked),
            0,
            "healthy run leaks nothing"
        );
    }
}

#[test]
fn dags_and_ledgers_are_deterministic_under_a_fixed_seed() {
    let a = drive(&fault_storm(), 40);
    let b = drive(&fault_storm(), 40);
    let render = |sim: &TwoNodeSim| {
        let dags = sim.critpath_dags(usize::MAX);
        let mut s = String::new();
        for d in &dags {
            s.push_str(&d.render());
        }
        s.push_str(&sim.masking_ledger(0).render());
        s.push_str(&sim.masking_ledger(1).render());
        s
    };
    assert_eq!(
        render(&a),
        render(&b),
        "identical seeds must reproduce exactly"
    );
}

#[test]
fn exported_trace_json_is_well_formed() {
    let sim = drive(&SimConfig::traced(), 10);
    let dags = sim.critpath_dags(8);
    let trace = pa::obs::perfetto_trace(&dags);
    let events = validate_trace_json(&trace).expect("valid trace JSON");
    assert!(events > 0, "trace must contain events");
}

// ------------------------------------------------------- conservation

/// On-path + masked + leaked == the priced phase table, exactly, in
/// calls and in ns — per node, under a fault storm that exercises
/// drops, corruption, duplication, reordering, retransmission ticks,
/// backlog drains, and re-identification.
#[test]
fn conservation_is_exact_under_a_fault_storm() {
    let sim = drive(&fault_storm(), 60);
    assert!(sim.round_trips > 0, "storm must still make progress");
    for node in 0..2 {
        let ml = sim.masking_ledger(node);
        let report = sim.xray_report(node);
        assert!(
            ml.conserves(&report.phases),
            "node{node} does not conserve:\n{}",
            ml.render()
        );
        assert!(ml.total_ns() > 0);
    }
}

#[test]
fn conservation_is_exact_in_the_forced_leak_run() {
    let mut cfg = SimConfig::forced_leak();
    cfg.pa.trace_ctx = true;
    let sim = drive(&cfg, 50);
    for node in 0..2 {
        let ml = sim.masking_ledger(node);
        assert!(ml.conserves(&sim.xray_report(node).phases));
    }
}

/// The wall-clock cycle domain on a real (unsimulated) connection: a
/// meter layer with measurable post work, cycle meters on, posts run
/// eagerly so every one is leak-scoped. The leak ledger and the phase
/// meters must reconcile exactly.
#[test]
fn cycle_domain_conserves_on_a_real_connection() {
    use pa::core::{Connection, ConnectionParams, PaConfig};
    use pa::wire::EndpointAddr;

    let spin = std::time::Duration::from_micros(30);
    let mk = |l: u64, p: u64, s: u64| {
        let ml = MeterLayer::with_post_spin(spin);
        let mut conn = Connection::new(
            vec![Box::new(ml)],
            PaConfig {
                lazy_post: false,
                ..PaConfig::paper_default()
            },
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 9),
                EndpointAddr::from_parts(p, 9),
                s,
            ),
        )
        .unwrap();
        conn.enable_cycle_meter();
        conn
    };
    let (mut a, mut b) = (mk(1, 2, 71), mk(2, 1, 72));
    for _ in 0..16 {
        a.send(b"cycle-domain");
        while let Some(f) = a.poll_transmit() {
            b.deliver_frame(f);
        }
        while let Some(m) = b.poll_delivery() {
            b.recycle(m);
        }
    }
    for conn in [&a, &b] {
        let report = conn.xray_report();
        let ml = MaskingLedger::from_phases("cycles", &report.phases, MaskDomain::Cycles);
        assert!(ml.conserves(&report.phases), "cycle domain must conserve");
        // Eager posts were leak-scoped: the leak ledger mirrors the
        // meters' leaked sub-buckets exactly.
        let meter_leak_ns: u64 = conn
            .phase_meters()
            .map(|m| m.leaked_cycle_ns.iter().sum::<u64>())
            .sum();
        let meter_leak_calls: u64 = conn
            .phase_meters()
            .map(|m| m.leaked_calls.iter().sum::<u64>())
            .sum();
        let ledger = conn.leaks();
        assert_eq!(ledger.total_cycle_ns(), meter_leak_ns);
        assert_eq!(ledger.total_calls(), meter_leak_calls);
    }
    // The sender's spun post-send really was measured as leaked.
    assert!(
        a.leaks().total_cycle_ns() >= spin.as_nanos() as u64 / 2,
        "spun post work invisible to the leak ledger: {} ns",
        a.leaks().total_cycle_ns()
    );
}

// ------------------------------------------------------- forced leak

#[test]
fn forced_leak_is_detected_and_attributed() {
    let mut forced_cfg = SimConfig::forced_leak();
    forced_cfg.pa.trace_ctx = true;
    let forced = drive(&forced_cfg, 50);
    let healthy = drive(&SimConfig::traced(), 50);

    let fml = forced.masking_ledger_all();
    let hml = healthy.masking_ledger_all();

    // The ratio collapses.
    assert!(
        fml.masking_ratio() < hml.masking_ratio() / 2.0,
        "forced {:.3} vs healthy {:.3}",
        fml.masking_ratio(),
        hml.masking_ratio()
    );
    assert!(
        fml.leaked_share() > 0.5,
        "post work must be charged as leaked"
    );
    assert_eq!(hml.leaked_ns(), 0, "healthy run must not leak");

    // The detector names the right cause on every leaked bucket: all
    // eager-post, on real layers, in post phases.
    let mut eager_calls = 0;
    for node in &forced.nodes {
        let leaks = node.conns[0].leaks();
        assert!(!leaks.is_empty());
        for e in &leaks.entries {
            assert_eq!(e.cause, LeakCause::EagerPost);
            assert!(matches!(e.phase, Phase::PostSend | Phase::PostDeliver));
            assert!(
                ["bottom", "checksum", "window", "frag"].contains(&e.layer.as_str()),
                "unexpected layer {}",
                e.layer
            );
            eager_calls += e.calls;
        }
    }
    assert!(eager_calls > 0);

    // The top leaked bucket is a post phase of a real layer, and the
    // DAG shows leaked nodes on the critical path.
    let (layer, phase, ns, _) = fml.top_leaked().remove(0);
    assert!(ns > 0);
    assert!(
        matches!(phase, Phase::PostSend | Phase::PostDeliver),
        "{layer}/{}",
        phase.label()
    );
    let dag = &forced.critpath_dags(1)[0];
    assert!(
        !dag.leaks_on_path().is_empty(),
        "leak must sit on the critical path"
    );
}

#[test]
fn mask_leak_watchdog_fires_on_the_forced_run_only() {
    let wd_cfg = WatchdogConfig {
        max_leak_permille: 100,
        ..WatchdogConfig::default()
    };
    let run = |cfg: &SimConfig| {
        let mut sim = TwoNodeSim::new(cfg);
        sim.attach_critpath(ScopeConfig::default(), 1_000_000);
        sim.attach_watchdog(wd_cfg);
        sim.set_behavior(0, AppBehavior::CloseLoop);
        sim.arm_closed_loop(60, 8, 0);
        sim.run_until(2_000_000_000);
        sim.watchdog()
            .expect("attached")
            .alerts()
            .iter()
            .filter(|(_, a)| a.label() == "mask-leak")
            .count()
    };
    assert_eq!(run(&SimConfig::paper()), 0, "healthy run must not alert");
    assert!(run(&SimConfig::forced_leak()) > 0, "forced leak must alert");
}

// ---------------------------------------------- §5 consistency + inertness

/// The paper's §5 breakdown: the post-phase work moved off the
/// critical path is at least as large as the pre-phase share that
/// stays on it. On the standard fast-path run the pre share is zero
/// and everything deferred — the masked fraction must dominate.
#[test]
fn fast_path_masking_is_consistent_with_section_5() {
    let sim = drive(&SimConfig::traced(), 100);
    let ml = sim.masking_ledger_all();
    let pre_on_path: u64 = ml
        .rows
        .iter()
        .filter(|r| !r.engine)
        .map(|r| r.on_path_ns)
        .sum();
    assert!(
        ml.masked_ns() >= pre_on_path,
        "masked {} < on-path pre {}",
        ml.masked_ns(),
        pre_on_path
    );
    assert!(ml.masking_ratio() > 0.5, "ratio {:.3}", ml.masking_ratio());
    assert_eq!(ml.leaked_ns(), 0);
}

/// Attaching the whole analyzer changes no measured behaviour: same
/// RTT anchor, same wire traffic, no leaks invented.
#[test]
fn analyzer_is_inert_on_the_paper_anchors() {
    let mut plain = TwoNodeSim::new(&SimConfig::paper());
    plain.set_behavior(0, AppBehavior::CloseLoop);
    plain.arm_closed_loop(1, 8, 0);
    plain.run_until(100_000_000);

    let mut watched = TwoNodeSim::new(&SimConfig::paper());
    watched.attach_critpath(ScopeConfig::default(), 500_000);
    watched.attach_watchdog(WatchdogConfig {
        max_leak_permille: 1,
        ..WatchdogConfig::default()
    });
    watched.set_behavior(0, AppBehavior::CloseLoop);
    watched.arm_closed_loop(1, 8, 0);
    watched.run_until(100_000_000);
    let now = watched.now();
    watched.force_critpath_sample(now);

    assert_eq!(plain.round_trips, watched.round_trips);
    assert_eq!(plain.rtt.summary().mean, watched.rtt.summary().mean);
    let rtt = watched.rtt.summary().mean;
    assert!((160_000.0..=200_000.0).contains(&rtt), "RTT = {rtt} ns");
    assert_eq!(watched.leak_permille(), 0);
    assert!(watched.critpath_plane().expect("attached").records() > 0);
}
