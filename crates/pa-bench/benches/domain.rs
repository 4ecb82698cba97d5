//! Telemetry-domain overhead: what thread-ownership costs per record.
//!
//! The multi-core design claims per-thread [`TelemetryDomain`] shards
//! make cross-thread telemetry free *where it counts*: the owner-thread
//! `record_value()` is a plain counter bump plus a sketch bucket
//! increment — no atomics, no locks, no sharing — so it must price
//! within a sliver of recording into a bare single-threaded
//! [`QuantileSketch`]. The hardware-independent ratio row gates that
//! claim at ≤ 1.15× in CI; the raw ns rows carry loose tolerances and
//! only track the machine.
//!
//! `snapshot_collect_ns` prices the *coordinator* side — advance the
//! epoch, publish four live domains, collect and merge the frozen
//! views — the cost a supervisor pays per scrape, not a hot-path cost.

use pa_bench::{BenchReport, Better};
use pa_obs::{QuantileSketch, SketchConfig, SnapshotCoordinator, TelemetryDomain};
use std::hint::black_box;
use std::time::Instant;

const BATCH: u64 = 64 * 1024;

/// Spread values across sketch buckets the way real latencies do.
#[inline]
fn value(i: u64) -> u64 {
    (i.wrapping_mul(2_654_435_761)) % 1_000_000 + 1
}

/// Both record arms, interleaved batch by batch so scheduler noise on
/// a busy (or single-core) machine hits both the same — the *ratio* is
/// the gated row and must not depend on which arm ran first.
fn bench_record_pair(domain: &mut TelemetryDomain) -> (f64, f64) {
    let mut sketch = QuantileSketch::new(SketchConfig::default_scope());
    let mut i = 0u64;
    // Warm both arms until their sketch shapes are settled.
    let warm_until = Instant::now() + std::time::Duration::from_millis(20);
    while Instant::now() < warm_until {
        i += 1;
        sketch.record(black_box(value(i)));
        domain.record_value(black_box(value(i)));
    }
    let mut best_single = f64::MAX;
    let mut best_domain = f64::MAX;
    for _ in 0..16 {
        let t = Instant::now();
        for _ in 0..BATCH {
            i += 1;
            sketch.record(black_box(value(i)));
        }
        best_single = best_single.min(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        for _ in 0..BATCH {
            i += 1;
            domain.record_value(black_box(value(i)));
        }
        best_domain = best_domain.min(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    black_box(sketch);
    println!(
        "{:<44} {best_single:>8.1} ns/record",
        "sketch/single_thread"
    );
    println!("{:<44} {best_domain:>8.1} ns/record", "domain/owner_thread");
    (best_single, best_domain)
}

/// One full scrape: advance the epoch, publish every live domain,
/// collect the epoch-consistent merged snapshot.
fn bench_collect(coord: &mut SnapshotCoordinator, domains: &mut [TelemetryDomain]) -> f64 {
    let scrape = |coord: &mut SnapshotCoordinator, domains: &mut [TelemetryDomain]| {
        let epoch = coord.advance();
        for d in domains.iter_mut() {
            d.publish();
        }
        black_box(coord.collect(epoch));
    };
    for _ in 0..64 {
        scrape(coord, domains);
    }
    const SCRAPES: u32 = 512;
    let mut best = f64::MAX;
    for _ in 0..8 {
        let t = Instant::now();
        for _ in 0..SCRAPES {
            scrape(coord, domains);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / SCRAPES as f64);
    }
    println!(
        "{:<44} {best:>8.0} ns/scrape ({} domains)",
        "coordinator/advance+publish+collect",
        domains.len()
    );
    best
}

fn main() {
    println!("telemetry-domain overhead (owner-thread record vs bare sketch)");
    println!("{}", "-".repeat(100));

    let mut coord = SnapshotCoordinator::new(SketchConfig::default_scope());
    let mut domains: Vec<TelemetryDomain> =
        (0..4).map(|k| coord.domain(&format!("d{k}"))).collect();
    // Realistic shard content so publish/collect clone real state.
    for (k, d) in domains.iter_mut().enumerate() {
        for i in 0..4096u64 {
            d.record_value(value(i * 4 + k as u64));
        }
        d.add_stat("conn", "frames_in", 1 + k as u64);
        d.add_stat("conn", "frames_out", 1 + k as u64);
    }
    let (single, domain) = bench_record_pair(&mut domains[0]);
    let collect = bench_collect(&mut coord, &mut domains);

    let ratio = domain / single;
    println!("{:<44} {ratio:>8.3}", "domain_vs_single_ratio");

    // Raw ns rows track the machine: reported, not gated (the baseline
    // holds none of them). The ratio row is the hardware-independent
    // gate: thread-owned recording must stay within 1.15x of the bare
    // sketch. Its tolerance lives in the committed baseline.
    let mut report = BenchReport::new("domain");
    report
        .push("record_single_ns", single, Better::Lower)
        .push("record_domain_ns", domain, Better::Lower)
        .push_tol("domain_vs_single_ratio", ratio, Better::Lower, 0.15)
        .push("snapshot_collect_ns", collect, Better::Lower);
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
