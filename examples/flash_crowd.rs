//! The flash-crowd acceptance run: a million-peer expected directory,
//! ~100k live connections over 64 shards, driven through admission,
//! establishment (with migration), steady traffic, a re-key storm, an
//! adversarial storm, and departure — every ledger reconciling exactly.
//!
//! Run in release (`cargo run --release --example flash_crowd`); pass
//! `smoke` to run the reduced debug-friendly scale. Exits 1 if any
//! ledger breaks, and 2 if the run compiled more stack plans than it ran
//! stacks — a connection that compiles its own — so CI can gate on it.

use pa::sim::{FlashConfig, FlashCrowd};
use std::time::Instant;

/// Distinct stacks the run builds its connections over.
const STACKS: u64 = 1;

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let cfg = if smoke {
        FlashConfig::smoke()
    } else {
        FlashConfig::full()
    };
    println!(
        "flash crowd: {} shards, {} expected idents, {} live connections",
        cfg.shards, cfg.idents, cfg.live
    );
    let wall = Instant::now();
    let report = FlashCrowd::new(cfg.clone()).run();
    let elapsed = wall.elapsed();

    println!(
        "  directory        {:>10} idents",
        report.idents_preregistered
    );
    println!(
        "  admission        {:>10} conns in {} ticks ({} deferred by budget)",
        report.admitted, report.admission_ticks, report.deferred
    );
    println!(
        "  establish        {:>10} migrations to cookie-home shards",
        report.migrations
    );
    println!(
        "  steady           {:>10} cookie frames, {} messages delivered",
        report.steady_frames, report.delivered
    );
    println!(
        "  re-key storm     {:>10} rotations, {} replays refused stale",
        report.rekeyed, report.stale_refusals
    );
    println!(
        "  rejects          {:>10} total, all accounted",
        report.rejects.total()
    );
    println!(
        "  departure        {:>10} removed + {} idle-evicted",
        report.removed, report.evicted
    );
    let (max, min) = report.shard_spread();
    println!("  shard spread     {min}..{max} frames/shard");
    println!(
        "  plan             {:>10} builds, {} hits ({STACKS} stack)",
        report.plan_builds, report.plan_hits
    );
    println!("  wall time        {elapsed:.2?}");

    let checks = [
        ("demux_balanced", report.demux_balanced),
        ("rejects_reconcile", report.rejects_reconcile),
        ("stale_ledgers_ok", report.stale_ledgers_ok),
        ("pools_ok", report.pools_ok),
        ("fold_exact", report.fold_exact),
    ];
    let mut ok = true;
    for (name, held) in checks {
        println!("  {:<18} {}", name, if held { "OK" } else { "BROKEN" });
        ok &= held;
    }
    ok &= report.admitted == cfg.live;
    ok &= report.stale_refusals == report.rekeyed as u64;
    ok &= report.removed + report.evicted as usize == cfg.live;
    if !ok {
        eprintln!("flash crowd: ledger breakage (see above)");
        std::process::exit(1);
    }
    if report.plan_builds > STACKS {
        eprintln!(
            "flash crowd: {} stack plans compiled for {STACKS} stack",
            report.plan_builds
        );
        std::process::exit(2);
    }
    println!("flash crowd: all ledgers reconcile");
}
