//! The masking ledger, benchmarked: how much protocol work the PA
//! keeps off the critical path, and whether the leak detector notices
//! when it stops doing so.
//!
//! Every row here is computed in *virtual* time (the pa-sim cost
//! model), so the numbers are deterministic across machines and the
//! tolerances can be tight — this is the hardware-independent masking
//! gate the CI bench-smoke runs.
//!
//! Arms:
//! - **fastpath** — the paper's standard configuration, closed-loop
//!   round trips: pre phases never run, every post phase is deferred.
//!   The masked fraction must at least match the share the paper's §5
//!   breakdown moves off-path (post ≥ pre).
//! - **slowpath** — prediction off: every operation pays its pre
//!   phases on-path. The per-layer on-path p50/p99 come from this
//!   run's critpath plane.
//! - **forced leak** — [`SimConfig::forced_leak`]: lazy post off, so
//!   post phases run synchronously. The detector must charge that
//!   work as leaked and the masking ratio must collapse.
//!
//! Cycle conservation (`MaskingLedger::conserves`) is asserted for
//! every arm; a violation fails the bench outright.

use pa_bench::{BenchReport, Better};
use pa_sim::{AppBehavior, SimConfig, TwoNodeSim};

const TRIPS: u64 = 200;
const HORIZON: u64 = 400_000_000;

/// Runs `TRIPS` closed-loop round trips under `cfg` with the critpath
/// plane attached and returns the sim at quiescence.
fn run(cfg: &SimConfig) -> TwoNodeSim {
    let mut sim = TwoNodeSim::new(cfg);
    sim.attach_critpath(pa_obs::ScopeConfig::default(), 1_000_000);
    sim.set_behavior(0, AppBehavior::CloseLoop);
    sim.arm_closed_loop(TRIPS, 8, 0);
    sim.run_until(HORIZON);
    let now = sim.now();
    sim.force_critpath_sample(now);
    sim
}

fn main() {
    println!("masking ratio and leak detection (virtual time; deterministic)");
    println!("{}", "-".repeat(100));

    // Fast path: the shipping configuration.
    let fast = run(&SimConfig::paper());
    fast.conservation_gate("fastpath");
    let fast_ml = fast.masking_ledger_all();
    println!(
        "fastpath : ratio {:.4}  leaked {:.4}  ({} trips)",
        fast_ml.masking_ratio(),
        fast_ml.leaked_share(),
        fast.round_trips
    );

    // Slow path: prediction off, every pre phase on-path.
    let mut slow_cfg = SimConfig::paper();
    slow_cfg.pa.predict = false;
    let slow = run(&slow_cfg);
    slow.conservation_gate("slowpath");
    let slow_ml = slow.masking_ledger_all();
    println!(
        "slowpath : ratio {:.4}  leaked {:.4}",
        slow_ml.masking_ratio(),
        slow_ml.leaked_share()
    );

    // Forced leak: post phases pinned to the critical path.
    let forced = run(&SimConfig::forced_leak());
    forced.conservation_gate("forced");
    let forced_ml = forced.masking_ledger_all();
    println!(
        "forced   : ratio {:.4}  leaked {:.4}  top {:?}",
        forced_ml.masking_ratio(),
        forced_ml.leaked_share(),
        forced_ml
            .top_leaked()
            .first()
            .map(|(l, p, ns, _)| (l.clone(), p.label(), *ns))
    );

    let mut report = BenchReport::new("masking");
    report
        .push_tol(
            "mask_ratio_fastpath",
            fast_ml.masking_ratio(),
            Better::Higher,
            0.02,
        )
        .push_tol(
            "leaked_share_fastpath",
            fast_ml.leaked_share(),
            Better::Lower,
            0.02,
        )
        .push_tol(
            "mask_ratio_slowpath",
            slow_ml.masking_ratio(),
            Better::Higher,
            0.02,
        )
        .push_tol(
            "mask_ratio_forced",
            forced_ml.masking_ratio(),
            Better::Lower,
            0.05,
        )
        .push_tol(
            "leaked_share_forced",
            forced_ml.leaked_share(),
            Better::Higher,
            0.02,
        );

    // Per-layer on-path cost, from the slow-path run's critpath plane
    // (the fast path has no on-path layer work to sample — that is the
    // point). Virtual time: exact across machines.
    let plane = slow.critpath_plane().expect("attached");
    let mut onpath: Vec<(String, u64, u64)> = plane
        .endpoints()
        .filter_map(|(name, series)| {
            let layer = name.strip_prefix("onpath/")?;
            let s = series.sketch().summary();
            (s.count > 0).then(|| (layer.to_string(), s.p50, s.p99))
        })
        .collect();
    onpath.sort();
    for (layer, p50, p99) in &onpath {
        println!("on-path {layer:>10}: p50 {p50} ns  p99 {p99} ns");
        report
            .push_tol(
                &format!("onpath_p50_{layer}_ns"),
                *p50 as f64,
                Better::Lower,
                0.05,
            )
            .push_tol(
                &format!("onpath_p99_{layer}_ns"),
                *p99 as f64,
                Better::Lower,
                0.05,
            );
    }

    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
