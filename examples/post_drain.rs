//! Post-drain demo: the §3.1 mask made *spatial*.
//!
//! Runs the threaded echo — the burst pipeline at burst 1: pre phases
//! on this thread, every live round's `process_pending` on a dedicated
//! drain thread fed over a wait-free SPSC ring — and proves the
//! telemetry survived the thread boundary:
//!
//! - the epoch-consistent [`GlobalSnapshot`] merges both
//!   [`TelemetryDomain`]s; the merged masking ledger conserves
//!   **exactly** (`==` in calls and ns) against the merged phase
//!   table, because each thread folded delta-partitioned meter shards,
//! - cross-thread journeys (in-band trace context, stitched from both
//!   endpoints' rings) are ≥ 99 % complete,
//! - the handoff/drain event timeline forms an acyclic cross-thread
//!   happens-before DAG, exported as a Perfetto trace with the drain
//!   thread on its own track,
//! - the all-off configuration's wire bytes are byte-identical to the
//!   per-packet (single-threaded) reference engine.
//!
//! Exits nonzero on any violation — the CI threaded-observability
//! smoke gate:
//!
//! ```sh
//! cargo run --release --example post_drain
//! PA_DRAIN_TRACE_OUT=/tmp/drain-trace.json cargo run --example post_drain
//! ```

use pa::obs::{perfetto_trace, validate_trace_json, DomainCounter};
use pa::sim::{per_packet_reference, BurstPipeline, PipelineConfig};

fn main() {
    let rounds = 64;

    // ---- 1. The instrumented threaded run. ----
    let report = BurstPipeline::run(PipelineConfig::traced(rounds, 1));
    println!(
        "threaded echo: {} round trips over 2 threads",
        report.completed
    );
    println!("{}", report.snapshot.render());
    if report.completed != rounds {
        eprintln!(
            "FAIL: {} of {rounds} round trips completed",
            report.completed
        );
        std::process::exit(1);
    }

    // ---- 2. Exact merged conservation. ----
    let ml = report
        .snapshot
        .merged_ledger()
        .expect("both domains sealed ledger shards");
    println!("{}", ml.render());
    if !report.conserves() {
        eprintln!("FAIL: merged masking ledger does not conserve");
        std::process::exit(1);
    }
    println!("merged ledger conserves exactly against the merged phase table");
    let drain = report
        .snapshot
        .domains
        .iter()
        .find(|d| d.label == "drain")
        .expect("drain domain present");
    let posts = drain.counter(DomainCounter::PostSendPhases)
        + drain.counter(DomainCounter::PostDeliverPhases);
    if posts == 0 {
        eprintln!("FAIL: no post phases landed on the drain thread");
        std::process::exit(1);
    }
    println!("drain thread ran {posts} post phases off the critical path");
    if report.snapshot.events_lost() != 0 {
        eprintln!(
            "FAIL: {} domain events refused",
            report.snapshot.events_lost()
        );
        std::process::exit(1);
    }

    // ---- 3. Cross-thread journeys. ----
    let completeness = report.journeys.completeness();
    println!(
        "journeys: {} observed, {:.1}% complete",
        report.journeys.len(),
        completeness * 100.0
    );
    if report.journeys.is_empty() || completeness < 0.99 {
        eprintln!("FAIL: cross-thread journeys below the 99% gate");
        std::process::exit(1);
    }

    // ---- 4. The cross-thread DAG + Perfetto export. ----
    let dag = report.crit_dag();
    if !dag.is_acyclic() {
        eprintln!("FAIL: cross-thread event graph has a cycle");
        std::process::exit(1);
    }
    let lanes: Vec<u32> = {
        let mut l: Vec<u32> = dag.nodes.iter().map(|n| n.lane).collect();
        l.sort_unstable();
        l.dedup();
        l
    };
    println!(
        "crit dag: {} nodes on lanes {lanes:?}, critical path {} nodes",
        dag.nodes.len(),
        dag.critical_path().len()
    );
    if !lanes.contains(&2) {
        eprintln!("FAIL: drain thread missing from the DAG");
        std::process::exit(1);
    }
    let trace = perfetto_trace(&[dag]);
    match validate_trace_json(&trace) {
        Ok(events) => {
            println!("perfetto export: {events} trace events (drain thread on its own track)")
        }
        Err(e) => {
            eprintln!("FAIL: exported trace JSON is malformed: {e}");
            std::process::exit(2);
        }
    }
    if !trace.contains("drain thread") {
        eprintln!("FAIL: trace must name the drain-thread track");
        std::process::exit(2);
    }
    let out = std::env::var("PA_DRAIN_TRACE_OUT").unwrap_or("drain-trace.json".into());
    match std::fs::write(&out, &trace) {
        Ok(()) => println!(
            "wrote {out} ({} bytes) — open in ui.perfetto.dev",
            trace.len()
        ),
        Err(e) => println!("warning: could not write {out}: {e}"),
    }

    // ---- 5. All-off wire bytes are untouched. ----
    let off = PipelineConfig {
        capture_frames: true,
        ..PipelineConfig::batched(16, 1)
    };
    let threaded = BurstPipeline::run(off.clone());
    let (inline, _, _) = per_packet_reference(&off);
    if threaded.frames != inline {
        eprintln!("FAIL: threaded all-off run changed wire bytes");
        std::process::exit(3);
    }
    println!(
        "all-off run: {} frames byte-identical to the per-packet reference",
        threaded.frames.len()
    );
    println!("post-drain smoke: all gates passed");
}
