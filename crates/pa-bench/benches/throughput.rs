//! Saturation throughput of the batched pipeline (PR 9's tentpole
//! gate): open-loop offered load through a [`BurstPipeline`] at burst
//! sizes 1/8/32/64, batched+threaded vs the seed per-packet engine.
//!
//! Wall-clock msg/s and p99 latencies are hardware-dependent: they
//! are printed, not gated (a tolerance loose enough to survive another
//! machine is one no regression can exceed; `benchmark/`'s cu-normalised
//! metrics are where absolute speed is judged). The
//! *hardware-independent* rows gate, and still time the pipeline's
//! round body:
//!
//! - `batched_vs_unbatched_ratio` — burst-32 batched throughput over
//!   the burst-1 inline engine, the two arms stepped in interleaved
//!   batches and each summarised by its five fastest (as `--bench
//!   micro`'s ratio rows are). The committed baseline's tolerance
//!   encodes the acceptance floor (≥ 1.3×).
//! - `burst1_identical` — 1.0 iff a burst-1 pipeline with inline posts
//!   produced wire bytes and counters identical to the seed per-packet
//!   engine (tolerance 0: any divergence fails).
//! - `batching_factor_burst32` — frames per wire flush, deterministic
//!   in virtual time (packing, §3.4).

use pa_bench::{fastest, BenchReport, Better};
use pa_sim::{per_packet_reference, BurstPipeline, PipelineConfig, PipelineReport};
use std::time::Instant;

/// Messages offered per arm (rounds = TOTAL / burst).
const TOTAL_MSGS: u64 = 32_768;
/// Batches the ratio's two arms are each timed in, interleaved.
const BATCHES: u64 = 32;

struct Arm {
    report: PipelineReport,
    msgs_per_sec: f64,
}

fn run_arm(burst: usize, threaded: bool, total_msgs: u64) -> Arm {
    let rounds = (total_msgs / burst as u64).max(1);
    let cfg = PipelineConfig::bench(rounds, burst, threaded);
    let mut p = BurstPipeline::new(cfg);
    let t0 = Instant::now();
    for _ in 0..rounds {
        p.step();
    }
    let report = p.finish();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.completed, report.offered,
        "open loop must drain completely at quiescence"
    );
    Arm {
        msgs_per_sec: report.completed as f64 / dt,
        report,
    }
}

/// Steps `p` for `rounds` rounds of `burst` and returns ns per message.
fn timed_rounds(p: &mut BurstPipeline, rounds: u64, burst: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..rounds {
        p.step();
    }
    t.elapsed().as_nanos() as f64 / (rounds * burst as u64) as f64
}

/// The ratio's two arms — burst 32 with posts on the drain thread, and
/// the burst-1 inline engine — each offering [`TOTAL_MSGS`], stepped a
/// batch of one and then a batch of the other so whatever the box is
/// doing hits both alike, each arm's rate taken from its [`fastest`]
/// batches. Returns `(batched, unbatched)`.
fn interleaved_ratio_arms() -> (Arm, Arm) {
    let rounds = |burst: u64| TOTAL_MSGS / burst / BATCHES;
    let mut batched = BurstPipeline::new(PipelineConfig::bench(TOTAL_MSGS / 32, 32, true));
    let mut unbatched = BurstPipeline::new(PipelineConfig::bench(TOTAL_MSGS, 1, false));
    let (mut batched_ns, mut unbatched_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        batched_ns.push(timed_rounds(&mut batched, rounds(32), 32));
        unbatched_ns.push(timed_rounds(&mut unbatched, rounds(1), 1));
    }
    let finish = |p: BurstPipeline, ns: &mut [f64]| {
        let report = p.finish();
        assert_eq!(
            report.completed, report.offered,
            "open loop must drain completely at quiescence"
        );
        Arm {
            msgs_per_sec: 1e9 / fastest(ns),
            report,
        }
    };
    (
        finish(batched, &mut batched_ns),
        finish(unbatched, &mut unbatched_ns),
    )
}

fn main() {
    pa_bench::banner("pa-pipeline — saturation throughput, batched vs per-packet");

    // Warm the allocator, the pools and the thread machinery off the
    // record.
    let _ = run_arm(32, true, 2_048);
    let _ = run_arm(1, false, 2_048);

    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "arm", "msgs/s", "p50 µs", "p99 µs", "frames/flush", "queued"
    );
    let (burst32, unbatched) = interleaved_ratio_arms();
    print_arm("per-packet (burst 1)", &unbatched);
    for burst in [8usize, 64] {
        print_arm(
            &format!("batched (burst {burst})"),
            &run_arm(burst, true, TOTAL_MSGS),
        );
    }
    print_arm("batched (burst 32)", &burst32);

    // The identity gate: burst=1 inline pipeline == seed per-packet
    // engine, bytes and counters.
    let ident_cfg = PipelineConfig {
        capture_frames: true,
        ..PipelineConfig::per_packet(64)
    };
    let pipeline_run = BurstPipeline::run(ident_cfg.clone());
    let (ref_frames, ref_a, ref_b) = per_packet_reference(&ident_cfg);
    let identical = pipeline_run.frames == ref_frames
        && pipeline_run.stats_a == ref_a
        && pipeline_run.stats_b == ref_b;
    println!(
        "burst=1 identity vs seed engine: {} ({} frames compared)",
        if identical { "IDENTICAL" } else { "DIVERGED" },
        ref_frames.len()
    );

    let ratio = burst32.msgs_per_sec / unbatched.msgs_per_sec;
    println!("batched(32) vs per-packet ratio: {ratio:.2}x (floor 1.3x)");

    let mut report = BenchReport::new("throughput");
    report.push_tol(
        "batched_vs_unbatched_ratio",
        ratio,
        Better::Higher,
        ratio_tolerance(ratio),
    );
    report.push_tol(
        "batching_factor_burst32",
        burst32.report.batching_factor(),
        Better::Higher,
        0.01,
    );
    report.push_tol(
        "burst1_identical",
        if identical { 1.0 } else { 0.0 },
        Better::Higher,
        0.0,
    );

    if !identical {
        eprintln!("FAIL: burst=1 pipeline diverged from the seed per-packet engine");
        std::process::exit(1);
    }
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}

/// The tolerance that makes the committed baseline's ratio row gate at
/// the 1.3× acceptance floor: a current ratio below 1.3 regresses no
/// matter what this machine measured at baseline time.
fn ratio_tolerance(baseline_ratio: f64) -> f64 {
    if baseline_ratio <= 1.3 {
        return 0.0;
    }
    (1.0 - 1.3 / baseline_ratio) * 0.999
}

fn print_arm(label: &str, arm: &Arm) {
    println!(
        "{:<22} {:>12.0} {:>10.1} {:>10.1} {:>10.2} {:>10}",
        label,
        arm.msgs_per_sec,
        arm.report.latency_quantile(0.50) as f64 / 1_000.0,
        arm.report.latency_quantile(0.99) as f64 / 1_000.0,
        arm.report.batching_factor(),
        arm.report.queued_sends,
    );
}
