//! Cross-thread telemetry integration: the tentpole gates of the
//! multi-core observability layer, end to end on real OS threads.
//!
//! The threaded echo is the burst pipeline at burst 1 with every post
//! phase on the drain thread (`PipelineConfig::traced(n, 1)`).
//!
//! - the merged [`GlobalSnapshot`] of a threaded echo run conserves
//!   its masking ledger **exactly** (`==` in calls and in ns) against
//!   the merged phase table, with both domains' PhaseMeters
//!   contributing;
//! - the per-domain stats deltas partition the connection totals, so
//!   `delivery_balanced` / `rejects_reconcile` hold on the merged cut;
//! - cross-thread journeys stitch to ≥ 99 % completeness;
//! - per-domain flight-recorder overflow accounting sums exactly to
//!   the merged drop count;
//! - sketch shards recorded on two threads merge `==` the sketch a
//!   single thread would build from the pooled samples;
//! - the all-off threaded run is wire-byte-identical to the per-packet
//!   reference engine.

use pa::obs::domain::price_meters;
use pa::obs::{
    DomainCounter, FlightRecorder, MetricsSnapshot, QuantileSketch, SketchConfig,
    SnapshotCoordinator,
};
use pa::sim::{per_packet_reference, BurstPipeline, PipelineConfig, PipelineReport};

fn traced(rounds: u64) -> PipelineReport {
    BurstPipeline::run(PipelineConfig::traced(rounds, 1))
}

// ---------------------------------------------------------------------
// Merged masking conservation
// ---------------------------------------------------------------------

#[test]
fn merged_ledger_conserves_exactly_in_calls_and_ns() {
    let report = traced(32);
    assert_eq!(report.completed, 32);
    let ml = report.snapshot.merged_ledger().expect("ledger shards");
    let rows = report
        .snapshot
        .phase_rows(|l, p| report.cost.phase_cost(l, p));
    assert!(
        ml.conserves(&rows),
        "merged conservation broken:\n{}",
        ml.render()
    );
    // And it is not vacuous: the drain thread masked real post work.
    assert!(ml.masked_ns() > 0);
    assert_eq!(ml.leaked_ns(), 0, "healthy run must not leak");
}

#[test]
fn both_domains_phase_meters_feed_the_merged_ledger() {
    let report = traced(16);
    let app = report
        .snapshot
        .domains
        .iter()
        .find(|d| d.label == "app")
        .unwrap();
    let drain = report
        .snapshot
        .domains
        .iter()
        .find(|d| d.label == "drain")
        .unwrap();
    // Post phases live on the drain domain, not the app domain.
    assert!(drain.counter(DomainCounter::PostSendPhases) > 0);
    assert!(drain.counter(DomainCounter::PostDeliverPhases) > 0);
    assert_eq!(app.counter(DomainCounter::PostSendPhases), 0);
    // Each domain's priced shard conserves against its own meters
    // (a domain that folded no phase work seals no shard — on the
    // all-fast-path echo every layer pre phase is skipped, so the app
    // domain's shard is legitimately empty), and the merged ledger
    // equals the sum — pricing is linear.
    let mut sum_ns = 0;
    for d in [app, drain] {
        let rows = price_meters(&d.meters, |l, p| report.cost.phase_cost(l, p));
        if let Some(shard) = d.ledger.as_ref() {
            assert!(shard.conserves(&rows), "domain {} shard", d.label);
            sum_ns += shard.total_ns();
        } else {
            assert!(rows.is_empty(), "domain {} has unpriced work", d.label);
        }
    }
    let merged = report.snapshot.merged_ledger().unwrap();
    assert_eq!(merged.total_ns(), sum_ns);
}

// ---------------------------------------------------------------------
// Stats deltas partition: ledger invariants on the merged cut
// ---------------------------------------------------------------------

#[test]
fn merged_stats_satisfy_delivery_and_reject_invariants() {
    let report = traced(24);
    assert!(
        report.snapshot.delivery_balanced("conn"),
        "delivery accounting must balance on the merged cut:\n{}",
        report.snapshot.render()
    );
    assert!(report.snapshot.rejects_reconcile("conn"));
    // Deltas really partition: the merged frames_in equals what the
    // two connections actually received (2 frames per round trip).
    let s = report.snapshot.merged_stats();
    assert_eq!(s.get("conn", "frames_in"), Some(2 * report.completed));
}

// ---------------------------------------------------------------------
// Journeys across threads
// ---------------------------------------------------------------------

#[test]
fn cross_thread_journeys_are_at_least_99_percent_complete() {
    let report = traced(50);
    assert!(report.journeys.len() >= 100, "two journeys per round");
    assert!(
        report.journeys.completeness() >= 0.99,
        "completeness {}",
        report.journeys.completeness()
    );
    assert_eq!(report.journeys.orphan_delivers, 0);
}

#[test]
fn handoff_events_pair_and_the_dag_is_acyclic() {
    let report = traced(10);
    let sent = report.snapshot.counter(DomainCounter::HandoffsOut);
    let recv = report.snapshot.counter(DomainCounter::HandoffsIn);
    assert_eq!(sent, recv, "every handoff observed on both sides");
    assert_eq!(report.snapshot.events_lost(), 0);
    let dag = report.crit_dag();
    assert!(dag.is_acyclic());
    // Happens-before edges actually cross the thread boundary.
    let crossing = dag
        .edges()
        .iter()
        .filter(|(f, t)| dag.nodes[*f].lane != dag.nodes[*t].lane)
        .count();
    assert!(crossing as u64 >= sent, "one cross edge per handoff");
}

// ---------------------------------------------------------------------
// Per-domain flight-recorder overflow accounting
// ---------------------------------------------------------------------

#[test]
fn recorder_drops_sum_exactly_across_domains() {
    let mut coord = SnapshotCoordinator::new(SketchConfig::default_scope());
    let mut d1 = coord.domain("t1");
    let mut d2 = coord.domain("t2");
    let drive_recorder = |d: &mut pa::obs::TelemetryDomain, domain_id: u32, samples: usize| {
        // A recorder capped at one series: every additional series'
        // points drop, counted per domain by ownership.
        let mut rec = FlightRecorder::with_limits(1, 8, 1);
        rec.set_domain(domain_id);
        let snap = MetricsSnapshot::default();
        for _ in 0..samples {
            rec.sample(&snap, &[("extra_gauge", 1.0)]);
        }
        let dropped = rec.dropped_points();
        let mut out = MetricsSnapshot::default();
        rec.record_into(&mut out, &format!("rec{domain_id}"));
        for (scope, name, v) in out.iter() {
            d.add_stat(scope, name, v);
        }
        d.add(DomainCounter::RecorderDrops, dropped);
        dropped
    };
    let drop1 = drive_recorder(&mut d1, 1, 100);
    let drop2 = drive_recorder(&mut d2, 2, 37);
    assert!(drop1 > 0 && drop2 > 0);
    let t = std::thread::spawn(move || {
        d2.retire();
    });
    t.join().unwrap();
    let epoch = coord.advance();
    d1.publish();
    let snap = coord.collect(epoch);
    assert_eq!(snap.recorder_drops(), drop1 + drop2, "drops sum exactly");
    assert!(snap.recorder_drops_reconcile());
}

// ---------------------------------------------------------------------
// Sketch shards merge exactly
// ---------------------------------------------------------------------

#[test]
fn two_thread_sketch_shards_merge_equal_to_pooled_recording() {
    let cfg = SketchConfig::default_scope();
    let mut coord = SnapshotCoordinator::new(cfg);
    let mut main_domain = coord.domain("main");
    let mut worker = coord.domain("worker");
    let samples: Vec<u64> = (0..5000u64)
        .map(|i| (i * 2654435761) % 1_000_000 + 1)
        .collect();
    let (left, right) = samples.split_at(samples.len() / 2);
    for &v in left {
        main_domain.record_value(v);
    }
    let right_owned: Vec<u64> = right.to_vec();
    let t = std::thread::spawn(move || {
        for &v in &right_owned {
            worker.record_value(v);
        }
        worker.retire();
    });
    t.join().unwrap();
    let epoch = coord.advance();
    main_domain.publish();
    let snap = coord.collect(epoch);
    let mut pooled = QuantileSketch::new(cfg);
    for &v in &samples {
        pooled.record(v);
    }
    assert_eq!(
        snap.merged_sketch(),
        pooled,
        "sharded merge must equal pooled recording, canonically"
    );
    assert_eq!(snap.counter(DomainCounter::Records), samples.len() as u64);
}

// ---------------------------------------------------------------------
// All-off: wire bytes and inline equivalence
// ---------------------------------------------------------------------

#[test]
fn threaded_all_off_run_stays_byte_identical_on_the_wire() {
    let cfg = PipelineConfig {
        capture_frames: true,
        ..PipelineConfig::batched(12, 1)
    };
    let threaded = BurstPipeline::run(cfg.clone());
    let (inline, _, _) = per_packet_reference(&cfg);
    assert_eq!(threaded.completed, 12);
    assert!(!threaded.frames.is_empty());
    assert_eq!(threaded.frames, inline, "threading must not touch the wire");
}
