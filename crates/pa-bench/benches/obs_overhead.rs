//! Telemetry overhead: the pa-scope plane against the bare hot path.
//!
//! The scale-ready observability plane records one sketch sample plus
//! one reservoir offer per completed operation. The claim: that costs
//! one logarithm and a couple of array writes — the hot path with
//! telemetry on stays within a few percent of telemetry off, and the
//! ratio (hardware-independent) is the row CI gates tightly.
//!
//! Arms, all on the paper 4-layer stack, echo round trips (2 sends +
//! 2 delivers per trip), measured like `micro.rs`'s hot-ops: only the
//! critical-path spans are timed, the deferred drain stays untimed.
//!
//! - `hot_op_off_ns` — no telemetry at all (the shipping default);
//! - `hot_op_scope_ns` — a [`pa_obs::ScopePlane`] records every round
//!   trip's latency (client side) with an exemplar offer;
//! - `scope_record_ns` — the plane's record path alone, microbenched;
//! - `scope_on_vs_off_ratio` — the gated row: on/off, ~1.0 expected.

use pa_bench::{BenchReport, Better};
use pa_core::{Connection, ConnectionParams, PaConfig};
use pa_obs::{QuantileSketch, ScopeConfig, ScopePlane, XrayTag};
use pa_stack::StackSpec;
use pa_wire::EndpointAddr;
use std::hint::black_box;
use std::time::Instant;

fn echo_pair() -> (Connection, Connection) {
    let mk = |local: u64, peer: u64| {
        Connection::new(
            StackSpec::paper().build(),
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(local, 1),
                EndpointAddr::from_parts(peer, 1),
                local,
            ),
        )
        .unwrap()
    };
    (mk(30, 31), mk(31, 30))
}

fn echo_round_trip(a: &mut Connection, b: &mut Connection) {
    a.send(black_box(&[7u8; 8]));
    while let Some(f) = a.poll_transmit() {
        b.deliver_frame(f);
    }
    while let Some(m) = b.poll_delivery() {
        b.send(m.as_slice());
        b.recycle(m);
    }
    while let Some(f) = b.poll_transmit() {
        a.deliver_frame(f);
    }
    while let Some(m) = a.poll_delivery() {
        a.recycle(m);
    }
    a.process_pending();
    b.process_pending();
}

/// Hot-op cost per operation (4 per round trip), deferred drain
/// untimed, batches beyond 2x the fastest dropped as scheduler noise.
/// When `plane` is set, the
/// timed region additionally records the trip's latency into it — the
/// telemetry cost rides exactly where it would in production.
fn bench_hot_ops(name: &str, mut plane: Option<(&mut ScopePlane, pa_obs::ScopeKey)>) -> f64 {
    let (mut a, mut b) = echo_pair();
    for _ in 0..256 {
        echo_round_trip(&mut a, &mut b);
    }
    // Shared calibration helper — the same one that de-biases the
    // engine's cycle meters.
    let span_overhead = pa_obs::timer::span_overhead();
    const BATCH: u64 = 256;
    let mut histo = QuantileSketch::default();
    let mut batches = Vec::with_capacity(40);
    let mut trip = 0u64;
    for _ in 0..40 {
        let mut hot = std::time::Duration::ZERO;
        for _ in 0..BATCH {
            let t = Instant::now();
            a.send(black_box(&[7u8; 8]));
            let f = a.poll_transmit().expect("request frame");
            b.deliver_frame(f);
            let m = b.poll_delivery().expect("request delivered");
            b.send(black_box(m.as_slice()));
            let fr = b.poll_transmit().expect("echo frame");
            a.deliver_frame(fr);
            if let Some((plane, key)) = plane.as_mut() {
                // One sample per completed trip: latency value (the
                // running trip count keeps values spread across
                // buckets), virtual timestamp, journey id, tag.
                trip += 1;
                plane.record(*key, 100_000 + trip % 4096, trip, trip, XrayTag::none());
            }
            hot += t.elapsed();
            b.recycle(m);
            if let Some(m) = a.poll_delivery() {
                a.recycle(m);
            }
            a.process_pending();
            b.process_pending();
        }
        let hot = hot.saturating_sub(span_overhead * BATCH as u32);
        let per_op = hot.as_nanos() as u64 / (BATCH * 4);
        histo.record(per_op);
        batches.push(per_op);
    }
    let s = histo.summary();
    let best = *batches.iter().min().expect("40 batches");
    let kept: Vec<u64> = batches.into_iter().filter(|&v| v <= best * 2).collect();
    let trimmed = kept.iter().sum::<u64>() as f64 / kept.len() as f64;
    println!(
        "{name:<44} {trimmed:>8.0} ns/op   (min {best} / p99 {}; {}/{} batches)",
        s.p99,
        kept.len(),
        s.count
    );
    trimmed
}

/// The plane's record path alone: one key_of logarithm, three keyed
/// bucket increments, one reservoir offer.
fn bench_record_alone(plane: &mut ScopePlane, key: pa_obs::ScopeKey) -> f64 {
    let warm_until = Instant::now() + std::time::Duration::from_millis(20);
    let mut i = 0u64;
    while Instant::now() < warm_until {
        i += 1;
        plane.record(key, 50_000 + i % 8192, i, i, XrayTag::none());
    }
    const BATCH: u64 = 64 * 1024;
    let mut best = f64::MAX;
    for _ in 0..8 {
        let t = Instant::now();
        for _ in 0..BATCH {
            i += 1;
            plane.record(key, 50_000 + i % 8192, i, i, XrayTag::none());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    println!("{:<44} {best:>8.1} ns/op", "scope_plane/record");
    best
}

fn main() {
    println!("telemetry overhead (ns per hot operation; drain untimed)");
    println!("{}", "-".repeat(100));
    let off = bench_hot_ops("hot_ops/telemetry_off", None);
    let mut plane = ScopePlane::new(ScopeConfig::default());
    let key = plane.register("bench", "bench/conn0");
    let on = bench_hot_ops("hot_ops/scope_plane_on", Some((&mut plane, key)));
    let record = bench_record_alone(&mut plane, key);
    println!(
        "scope plane after run: {} records, {} bytes (cap {})",
        plane.records(),
        plane.mem_bytes(),
        plane.config().byte_cap
    );

    // Raw ns rows track the machine: reported, not gated (the baseline
    // holds none of them). The on/off ratio is hardware-independent and
    // gates tightly; its tolerance lives in the committed baseline file.
    let mut report = BenchReport::new("obs_overhead");
    report
        .push("hot_op_off_ns", off, Better::Lower)
        .push("hot_op_scope_ns", on, Better::Lower)
        .push("scope_record_ns", record, Better::Lower)
        .push_tol("scope_on_vs_off_ratio", on / off, Better::Lower, 0.15);
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
