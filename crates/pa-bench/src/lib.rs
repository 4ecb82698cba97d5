//! Benchmark harnesses for the paper's tables and figures.
//!
//! Each `[[bench]]` target with `harness = false` regenerates one paper
//! artifact by running the corresponding `pa_sim::experiments` driver
//! and printing the paper-versus-measured table (see EXPERIMENTS.md).
//! The `micro` bench is a conventional Criterion suite measuring the
//! *real* Rust-native cost of each PA mechanism — packed vs padded
//! header access, fused vs interpreted filters, fast path vs
//! layered traversal, packing — the honest numbers for this
//! implementation on today's hardware (shapes, not 1996 values).
//!
//! The `table4` and `fig4` benches additionally emit
//! `BENCH_table4.json` / `BENCH_fig4.json` reports and run the
//! [`report`] comparator against the committed baselines in
//! `baselines/` — the CI bench-smoke regression gate.

pub mod report;

pub use report::{compare, emit_and_compare, BenchReport, Better, Comparison, Delta, Metric};

/// Mean of the five fastest batches: on a shared box noise only ever
/// adds time, and five is enough that one lucky clock read does not set
/// the figure. The summary of every interleaved ratio row.
pub fn fastest(batches: &mut [f64]) -> f64 {
    batches.sort_by(f64::total_cmp);
    batches[..5].iter().sum::<f64>() / 5.0
}

/// Prints a standard banner for a paper-artifact bench.
pub fn banner(what: &str) {
    println!("\n================================================================");
    println!("  {what}");
    println!("================================================================\n");
}
