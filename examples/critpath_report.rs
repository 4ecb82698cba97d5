//! Critical-path masking report: the operator view of §3.1.
//!
//! Reconstructs where every measured cycle of a run went — **on-path**
//! (a delivery waited on it), **masked** (deferred behind the critical
//! path, the paper's whole trick), or **leaked** (post-phase work a
//! later delivery had to wait on after all) — and renders:
//!
//! - the masking ledger of a lossy traced [`TwoNodeSim`] run (drops,
//!   retransmission ticks, backlog drains), with its exact
//!   conservation check against the per-layer phase meters,
//! - a per-message causal DAG with the critical path marked, from the
//!   run's reconstructed journeys,
//! - the forced-leak regression ([`SimConfig::forced_leak`]): the same
//!   workload with lazy post off — the masking ratio collapses, the
//!   leak detector names `(layer, eager-post)`, and the mask-leak
//!   watchdog fires,
//! - the high-cardinality view: a [`ChurnSim`] run's merged masking
//!   ledger and leak table,
//! - a Chrome/Perfetto trace-event export of the DAGs (open in
//!   `ui.perfetto.dev`), validated for JSON well-formedness.
//!
//! Exits nonzero on any conservation violation (1), an invalid trace
//! export (2), or a forced leak the detector failed to attribute (3) —
//! the CI critpath smoke gate.
//!
//! ```sh
//! cargo run --release --example critpath_report
//! PA_CRIT_TRACE_OUT=/tmp/trace.json cargo run --example critpath_report
//! ```

use pa::obs::{perfetto_trace, validate_trace_json, LeakCause, ScopeConfig, WatchdogConfig};
use pa::sim::churn::{ChurnConfig, ChurnSim};
use pa::sim::metrics::{us, Table};
use pa::sim::{AppBehavior, SimConfig, TwoNodeSim};

/// Closed-loop round trips with the critpath plane attached.
fn drive(cfg: &SimConfig, trips: u64) -> TwoNodeSim {
    let mut sim = TwoNodeSim::new(cfg);
    sim.enable_tracing(4096);
    sim.attach_critpath(ScopeConfig::default(), 1_000_000);
    sim.attach_watchdog(WatchdogConfig {
        max_leak_permille: 100,
        ..WatchdogConfig::default()
    });
    sim.set_behavior(0, AppBehavior::CloseLoop);
    sim.arm_closed_loop(trips, 8, 0);
    sim.run_until(2_000_000_000);
    let now = sim.now();
    sim.force_critpath_sample(now);
    sim
}

fn ratio_row(name: &str, sim: &TwoNodeSim) {
    let ml = sim.masking_ledger_all();
    println!(
        "{name:<12} ratio {:.3}   on-path {:>10}   masked {:>10}   leaked {:>10} ({}‰)",
        ml.masking_ratio(),
        us(ml.on_path_ns()),
        us(ml.masked_ns()),
        us(ml.leaked_ns()),
        ml.leak_permille()
    );
}

fn main() {
    println!("== critical-path masking report ==\n");

    // ---- 1. A lossy traced run: the healthy case under stress. ----
    let mut cfg = SimConfig::traced();
    cfg.faults.drop = 0.05;
    cfg.faults.seed = 0xC217;
    cfg.tick_every = Some(2_000_000);
    let lossy = drive(&cfg, 100);
    lossy.conservation_gate("lossy");

    println!(
        "-- lossy two-node run ({} trips, 5% drop, retransmission ticks) --",
        lossy.round_trips
    );
    ratio_row("lossy", &lossy);
    println!();
    println!("{}", lossy.masking_ledger(0).render());

    // One message's causal DAG, critical path marked `*`.
    let dags = lossy.critpath_dags(4);
    if let Some(dag) = dags.first() {
        println!("-- one journey's causal DAG (critical path marked) --");
        println!("{}", dag.render());
        println!(
            "critical path {}   on-path {}   masked {}   leaked {}\n",
            us(dag.critical_path_ns()),
            us(dag.class_ns(pa::obs::WorkClass::OnPath)),
            us(dag.class_ns(pa::obs::WorkClass::Masked)),
            us(dag.class_ns(pa::obs::WorkClass::Leaked)),
        );
    }

    // ---- 2. The forced-leak regression. ----
    let mut forced_cfg = SimConfig::forced_leak();
    forced_cfg.pa.trace_ctx = true;
    let forced = drive(&forced_cfg, 100);
    forced.conservation_gate("forced");

    println!("-- forced leak (lazy post off: §3.1 broken on purpose) --");
    ratio_row("forced", &forced);
    let forced_ml = forced.masking_ledger_all();
    let top = forced_ml.top_leaked();
    if top.is_empty() {
        eprintln!("FAIL: forced-leak run produced no leak attribution");
        std::process::exit(3);
    }
    println!("top leaked buckets:");
    let mut t = Table::new(&["layer", "phase", "leaked", "calls"]);
    for (layer, phase, ns, calls) in top.iter().take(6) {
        t.row(&[
            layer.clone(),
            phase.label().to_string(),
            us(*ns),
            calls.to_string(),
        ]);
    }
    println!("{}", t.render());
    let mask_alerts = forced
        .watchdog()
        .map(|wd| {
            wd.alerts()
                .iter()
                .filter(|(_, a)| a.label() == "mask-leak")
                .count()
        })
        .unwrap_or(0);
    println!("mask-leak watchdog alerts: {mask_alerts}");
    let leaked_dag = forced.critpath_dags(1);
    if let Some(dag) = leaked_dag.first() {
        let on_path = dag.leaks_on_path();
        println!(
            "leaked nodes on the critical path of one journey: {}",
            on_path.len()
        );
    }
    // The gate: the leak scopes in the engine must have attributed the
    // eager post phases, and the ratio must have collapsed below the
    // healthy run's.
    let eager_leaks = forced
        .nodes
        .iter()
        .flat_map(|n| n.conns[0].leaks().entries.iter())
        .filter(|e| e.cause == LeakCause::EagerPost)
        .map(|e| e.calls)
        .sum::<u64>();
    if eager_leaks == 0 || forced_ml.masking_ratio() >= lossy.masking_ledger_all().masking_ratio() {
        eprintln!("FAIL: forced leak not detected (eager-post calls {eager_leaks})");
        std::process::exit(3);
    }
    println!("eager-post phase calls attributed: {eager_leaks}\n");

    // ---- 3. High cardinality: the churn run's merged ledger. ----
    let mut churn = ChurnSim::new(ChurnConfig::small());
    churn.run();
    println!("-- churn run ({} conns) --", churn.config().total_conns());
    println!(
        "{:<12} ratio {:.3}   leaked {}‰   leak buckets {}",
        "churn",
        churn.masking.masking_ratio(),
        churn.masking.leak_permille(),
        churn.fleet.leaks.entries.len()
    );
    if let Some(e) = churn.fleet.leaks.top() {
        println!(
            "top leak: {}/{} ({}, {} calls)",
            e.layer,
            e.phase.label(),
            e.cause.label(),
            e.calls
        );
    }
    println!();

    // ---- 4. Perfetto export of the causal DAGs. ----
    let mut all = dags;
    all.extend(forced.critpath_dags(2));
    let trace = perfetto_trace(&all);
    match validate_trace_json(&trace) {
        Ok(events) => println!("perfetto export: {} DAGs, {events} trace events", all.len()),
        Err(e) => {
            eprintln!("FAIL: exported trace JSON is malformed: {e}");
            std::process::exit(2);
        }
    }
    let out = std::env::var("PA_CRIT_TRACE_OUT").unwrap_or("critpath-trace.json".into());
    match std::fs::write(&out, &trace) {
        Ok(()) => println!(
            "wrote {out} ({} bytes) — open in ui.perfetto.dev",
            trace.len()
        ),
        Err(e) => println!("warning: could not write {out}: {e}"),
    }

    // Prometheus exposition of the critpath plane (mask permille and
    // per-layer on-path series).
    let prom = lossy
        .critpath_plane()
        .expect("attached")
        .to_prometheus("critpath_sample", 24);
    println!(
        "critpath plane: {} series records, {} Prometheus lines",
        lossy.critpath_plane().expect("attached").records(),
        prom.lines().count()
    );

    println!("\nok: conservation exact, leak detector attributed the forced leak, trace valid");
}
