//! Microbenchmarks: real Rust-native costs of the PA mechanisms. These
//! are *this implementation on this machine* — the interesting output
//! is the relative shape (packed vs padded, fused engine vs interpreting
//! oracle, fast vs slow path), mirroring the ablation knobs.
//!
//! Hand-rolled harness (`harness = false`, no external deps): each case
//! is warmed up, then timed over enough iterations to fill ~200 ms, and
//! reported as ns/op with a pa-obs quantile sketch supplying p50/p99
//! across timing batches.

use pa_bench::{fastest, BenchReport, Better};
use pa_buf::{ByteOrder, Msg};
use pa_core::layer::NullLayer;
use pa_core::{Connection, ConnectionParams, Layer, PaConfig};
use pa_filter::{DigestKind, Frame, FusedProgram, Op, ProgramBuilder};
use pa_obs::QuantileSketch;
use pa_stack::StackSpec;
use pa_wire::{Class, EndpointAddr, LayoutBuilder, LayoutMode, Preamble};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` in batches, prints `name: <ns/op> (p50/p99 across
/// batches)`, and returns the mean ns/op for report emission.
fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Warm-up: ~20 ms.
    let warm_until = Instant::now() + std::time::Duration::from_millis(20);
    while Instant::now() < warm_until {
        f();
    }
    // Calibrate a batch to ~1 ms.
    let t0 = Instant::now();
    let mut probe_iters = 0u64;
    while t0.elapsed() < std::time::Duration::from_millis(5) {
        f();
        probe_iters += 1;
    }
    let per = (t0.elapsed().as_nanos() as u64 / probe_iters.max(1)).max(1);
    let batch = (1_000_000 / per).clamp(1, 1_000_000);
    // Measure ~40 batches.
    let mut histo = QuantileSketch::default();
    for _ in 0..40 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        histo.record(t.elapsed().as_nanos() as u64 / batch);
    }
    let s = histo.summary();
    println!(
        "{name:<44} {:>8.0} ns/op   (p50 {} / p99 {} over {} batches of {})",
        s.mean, s.p50, s.p99, s.count, batch
    );
    s.mean
}

fn bench_header_access() {
    for mode in [LayoutMode::Packed, LayoutMode::Traditional] {
        let mut b = LayoutBuilder::new();
        b.begin_layer("w");
        let seq = b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        let ty = b.add_field(Class::Protocol, "mtype", 2, None).unwrap();
        let ack = b.add_field(Class::Gossip, "ack", 32, None).unwrap();
        let layout = b.compile(mode).unwrap();
        let mut proto = vec![0u8; layout.class_len(Class::Protocol)];
        let mut gossip = vec![0u8; layout.class_len(Class::Gossip)];
        bench(
            &format!("header_access/{mode:?}_write_read_3_fields"),
            || {
                layout.write_field(seq, &mut proto, ByteOrder::Big, black_box(12345));
                layout.write_field(ty, &mut proto, ByteOrder::Big, black_box(1));
                layout.write_field(ack, &mut gossip, ByteOrder::Big, black_box(99));
                let a = layout.read_field(seq, &proto, ByteOrder::Big);
                let b = layout.read_field(ty, &proto, ByteOrder::Big);
                let c = layout.read_field(ack, &gossip, ByteOrder::Big);
                black_box(a + b + c);
            },
        );
    }
}

/// The declare → place half of a plan's build, alone: the engine's own
/// conn-ident fields, then every paper-stack layer's shape declared (its
/// `add_field`s; the filter fragments land in throw-away builders), then
/// the packer. What the first connection of a stack adds to this is
/// verify + fuse; a connection over a known stack does none of it.
fn bench_layout_compile() {
    let layers = StackSpec::paper().build();
    bench("layout_compile_paper_stack", || {
        let mut b = LayoutBuilder::new();
        let (mut send, mut recv) = (ProgramBuilder::new(), ProgramBuilder::new());
        b.begin_layer("pa");
        let addr_bits = (EndpointAddr::WIRE_LEN * 8) as u32;
        b.add_field(Class::ConnId, "src_endpoint", addr_bits, None)
            .unwrap();
        b.add_field(Class::ConnId, "dst_endpoint", addr_bits, None)
            .unwrap();
        b.add_field(Class::ConnId, "stack_fingerprint", 64, None)
            .unwrap();
        for layer in &layers {
            layer
                .shape()
                .declare_into(layer.name(), &mut b, &mut send, &mut recv)
                .unwrap();
        }
        black_box(b.compile(LayoutMode::Packed).unwrap());
    });
}

fn filter_fixture() -> (pa_wire::CompiledLayout, pa_filter::Program) {
    let mut b = LayoutBuilder::new();
    b.begin_layer("ck");
    let len_f = b.add_field(Class::Message, "len", 16, None).unwrap();
    let ck_f = b.add_field(Class::Message, "ck", 16, None).unwrap();
    let layout = b.compile(LayoutMode::Packed).unwrap();
    let mut pb = ProgramBuilder::new();
    pb.extend(vec![
        Op::PushField(len_f),
        Op::PushSize,
        Op::Ne,
        Op::Abort(1),
        Op::PushField(ck_f),
        Op::Digest(DigestKind::InternetChecksum),
        Op::Ne,
        Op::Abort(2),
        Op::Return(0),
    ]);
    (layout, pb.build().unwrap())
}

/// The fused engine, and beside it the interpreter it is checked
/// against (informational: the interpreter runs only in differential
/// tests and slow-path forensics). Returns the fused ns/op.
fn bench_filter() -> f64 {
    let (layout, program) = filter_fixture();
    let fused = FusedProgram::fuse(&program, &layout, ByteOrder::Big);
    let make_msg = || {
        let mut m = Msg::from_payload(&[7u8; 64]);
        m.push_front_zeroed(layout.class_len(Class::Message));
        m
    };
    {
        let mut m = make_msg();
        bench("packet_filter/interpreted", || {
            let mut f = Frame::new(&mut m, &layout, ByteOrder::Big);
            black_box(pa_filter::run(&program, &mut f));
        });
    }
    {
        let mut m = make_msg();
        bench("packet_filter/fused", || {
            black_box(fused.run(program.slots(), &mut m));
        })
    }
}

fn paper_conn(config: PaConfig, seed: u64) -> Connection {
    Connection::new(
        StackSpec::paper().build(),
        config,
        ConnectionParams::new(
            EndpointAddr::from_parts(seed, 1),
            EndpointAddr::from_parts(seed + 1, 1),
            seed,
        ),
    )
    .unwrap()
}

fn bench_send_paths() {
    {
        let mut conn = paper_conn(PaConfig::paper_default(), 1);
        bench("send_path/fast_path", || {
            conn.send(black_box(&[7u8; 8]));
            while conn.poll_transmit().is_some() {}
            conn.process_pending();
        });
    }
    {
        let mut conn = paper_conn(
            PaConfig {
                predict: false,
                lazy_post: false,
                ..PaConfig::paper_default()
            },
            3,
        );
        bench("send_path/layered_slow_path", || {
            conn.send(black_box(&[7u8; 8]));
            while conn.poll_transmit().is_some() {}
        });
    }
}

/// A warm peer pair over `stack` for hot-path measurements.
fn echo_pair_over(
    stack: &dyn Fn() -> Vec<Box<dyn Layer>>,
    config: PaConfig,
) -> (Connection, Connection) {
    let mk = |local: u64, peer: u64| {
        Connection::new(
            stack(),
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(local, 1),
                EndpointAddr::from_parts(peer, 1),
                local,
            ),
        )
        .unwrap()
    };
    (mk(20, 21), mk(21, 20))
}

/// A warm peer pair over the paper stack.
fn echo_pair(config: PaConfig) -> (Connection, Connection) {
    echo_pair_over(&|| StackSpec::paper().build(), config)
}

/// One request/echo round trip — two fast sends + two fast deliveries
/// with host-side recycling, then the deferred post drain. This is the
/// native wall-clock shape of the PA's steady state: window credit
/// piggybacks on the echo, so no pure acks and no retransmissions.
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

/// The native fast path as whole round trips (4 hot operations each),
/// deferred drain included; printed only.
fn bench_hot_path() {
    let (mut a, mut b) = echo_pair(PaConfig::paper_default());
    bench("hot_path/echo_rtt_pooled_fused", || {
        echo_round_trip(&mut a, &mut b);
    });
}

const BATCH: u32 = 256;
const BATCHES: usize = 40;

/// One batch of [`BATCH`] round trips with the two halves timed apart:
/// the four critical-path calls (two sends, two delivers), and the
/// deferred drain (both sides' `process_pending`) that the PA masks
/// (§3.1). Masked is not free — the drain is what bounds throughput — so
/// it gets its own number instead of riding inside the hot one.
/// Recycling stays untimed. Mirrors the measurement windows of
/// `tests/hotpath_alloc.rs`. Three `Instant` spans per round trip, whose
/// clock cost (`span_overhead`) is subtracted: both arms of a ratio pay
/// it identically, which *compresses* the ratio, and the comparison
/// should be code vs code, not clock vs clock.
///
/// Returns `(ns per hot operation, drain ns per round trip)`.
fn timed_batch(
    a: &mut Connection,
    b: &mut Connection,
    span_overhead: std::time::Duration,
) -> (f64, f64) {
    let mut hot = std::time::Duration::ZERO;
    let mut drain = std::time::Duration::ZERO;
    for _ in 0..BATCH {
        // Request: hot send + hot deliver.
        let t = Instant::now();
        a.send(black_box(&[7u8; 8]));
        let f = a.poll_transmit().expect("request frame");
        b.deliver_frame(f);
        hot += t.elapsed();
        let m = b.poll_delivery().expect("request delivered");
        // Echo: hot send + hot deliver.
        let t = Instant::now();
        b.send(black_box(m.as_slice()));
        let f = b.poll_transmit().expect("echo frame");
        a.deliver_frame(f);
        hot += t.elapsed();
        b.recycle(m);
        if let Some(m) = a.poll_delivery() {
            a.recycle(m);
        }
        // Deferred drain, off the hot path and timed on its own.
        let t = Instant::now();
        a.process_pending();
        b.process_pending();
        drain += t.elapsed();
    }
    // Per hot *operation*: 4 per round trip, 2 timed spans per round
    // trip. Per drain: one span per round trip.
    let hot = hot.saturating_sub(span_overhead * (2 * BATCH));
    let drain = drain.saturating_sub(span_overhead * BATCH);
    (
        hot.as_nanos() as f64 / (BATCH * 4) as f64,
        drain.as_nanos() as f64 / BATCH as f64,
    )
}

/// A pair over `stack`, warmed until pools and predictions are settled.
fn warm_pair(
    stack: &dyn Fn() -> Vec<Box<dyn Layer>>,
    config: PaConfig,
) -> (Connection, Connection) {
    let (mut a, mut b) = echo_pair_over(stack, config);
    for _ in 0..256 {
        echo_round_trip(&mut a, &mut b);
    }
    (a, b)
}

/// [`timed_batch`] over [`BATCHES`] batches of one pair: the hot
/// operations and the drain interleaved round trip by round trip, each
/// half summarised by its [`fastest`] batches, as
/// [`bench_phase_dispatch`]'s two arms are.
///
/// Returns `(ns per hot operation, drain ns per round trip)`.
fn bench_hot_and_drain(
    name: &str,
    stack: &dyn Fn() -> Vec<Box<dyn Layer>>,
    config: PaConfig,
) -> (f64, f64) {
    let (mut a, mut b) = warm_pair(stack, config);
    // The same helper de-biases the engine's cycle meters.
    let span_overhead = pa_obs::timer::span_overhead();
    let (mut hots, mut drains): (Vec<f64>, Vec<f64>) = (0..BATCHES)
        .map(|_| timed_batch(&mut a, &mut b, span_overhead))
        .unzip();
    let (hot, drain) = (fastest(&mut hots), fastest(&mut drains));
    println!(
        "{:<44} {hot:>8.0} ns/op   (5 fastest of {BATCHES} batches of {})",
        format!("hot_ops/{name}"),
        BATCH * 4
    );
    println!(
        "{:<44} {drain:>8.0} ns/rtt  (5 fastest of {BATCHES} batches of {BATCH})",
        format!("post_drain/{name}")
    );
    (hot, drain)
}

/// The drain of a 4 × `NullLayer` stack against a 1 × `NullLayer` one,
/// the two arms interleaved batch by batch so whatever the box is doing
/// hits both alike (as `--bench domain` does for its ratio). The drain
/// is ≈ 55 ns timed in batches of 256: with the arms run minutes apart,
/// a quiet spell under one of them moved the ratio by a third. The ratio
/// is formed from each arm's [`fastest`] batches.
fn bench_phase_dispatch() -> f64 {
    let (mut a4, mut b4) = warm_pair(&|| null_stack(4), PaConfig::paper_default());
    let (mut a1, mut b1) = warm_pair(&|| null_stack(1), PaConfig::paper_default());
    let span_overhead = pa_obs::timer::span_overhead();
    let (mut x4, mut x1) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        x4.push(timed_batch(&mut a4, &mut b4, span_overhead).1);
        x1.push(timed_batch(&mut a1, &mut b1, span_overhead).1);
    }
    let (drain4, drain1) = (fastest(&mut x4), fastest(&mut x1));
    println!(
        "{:<44} {drain4:>8.0} ns/rtt  (5 fastest of {BATCHES} interleaved batches of {BATCH})",
        "post_drain/null_x4"
    );
    println!("{:<44} {drain1:>8.0} ns/rtt", "post_drain/null_x1");
    drain4 / drain1
}

/// What a connection costs to set up, in hot operations: build the paper
/// stack's layers, `Connection::new` over them, drop — the fixed cost of
/// every `add_connection` — against the pooled + fused hot operation,
/// interleaved and summarised like [`bench_phase_dispatch`]. The warm
/// pair holds the paper stack's plan, so every build here finds it: the
/// ratio is the gate on a connection compiling anything of its own.
///
/// Returns `(ns per connection, connections in hot operations)`.
fn bench_setup_vs_hot() -> (f64, f64) {
    const NEW_BATCH: u64 = 64;
    let (mut a, mut b) = warm_pair(&|| StackSpec::paper().build(), PaConfig::paper_default());
    let span_overhead = pa_obs::timer::span_overhead();
    let (mut news, mut hots) = (Vec::new(), Vec::new());
    for batch in 0..BATCHES as u64 {
        let t = Instant::now();
        for i in 0..NEW_BATCH {
            black_box(paper_conn(
                PaConfig::paper_default(),
                1 + batch * NEW_BATCH + i,
            ));
        }
        news.push(t.elapsed().as_nanos() as f64 / NEW_BATCH as f64);
        hots.push(timed_batch(&mut a, &mut b, span_overhead).0);
    }
    let (conn_new, hot) = (fastest(&mut news), fastest(&mut hots));
    println!(
        "{:<44} {conn_new:>8.0} ns/conn (5 fastest of {BATCHES} batches of {NEW_BATCH}, against {hot:.0} ns/op)",
        "conn_new/paper_stack"
    );
    (conn_new, conn_new / hot)
}

/// What the large-message path costs, in passes over the message: one
/// 16 KiB message through the paper stack — send (five fragments), the
/// frames carried over, reassembled delivery, the acknowledgements back,
/// both sides' post phases — against one copy plus one Internet-checksum
/// pass of the same 16 KiB, which is what a byte of it owes each owner.
/// The pass is the 16-bit word loop (`digest::internet_checksum`, the
/// tests' oracle), not the kernel the filter runs: a faster kernel would
/// otherwise make the unit cheaper and the journey look dearer.
/// Interleaved and summarised like [`bench_phase_dispatch`].
///
/// Returns `(ns per message, messages in copy + checksum passes)`.
fn bench_bulk_vs_pass() -> (f64, f64) {
    const LEN: usize = 16 * 1024;
    const BULK_BATCH: u32 = 32;
    let (mut a, mut b) = echo_pair(PaConfig::paper_default());
    let payload: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let (mut wire, mut msgs) = (Vec::with_capacity(16), Vec::with_capacity(4));
    let mut transfer = |a: &mut Connection, b: &mut Connection| {
        a.send(black_box(&payload));
        // Twice: the window's acknowledgement of the last fragments
        // leaves with the receiver's second post.
        for _ in 0..2 {
            a.poll_transmit_burst(usize::MAX, &mut wire);
            b.deliver_burst(&mut wire);
            b.poll_delivery_burst(usize::MAX, &mut msgs);
            b.recycle_burst(msgs.drain(..));
            b.process_pending();
            b.poll_transmit_burst(usize::MAX, &mut wire);
            a.deliver_burst(&mut wire);
            a.process_pending();
        }
    };
    for _ in 0..256 {
        transfer(&mut a, &mut b);
    }
    let delivered = b.stats().msgs_delivered;
    let mut copy = vec![0u8; LEN];
    let (mut bulks, mut passes) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..BULK_BATCH {
            transfer(&mut a, &mut b);
        }
        bulks.push(t.elapsed().as_nanos() as f64 / BULK_BATCH as f64);
        let t = Instant::now();
        for _ in 0..BULK_BATCH {
            copy.copy_from_slice(black_box(&payload));
            black_box(pa_filter::digest::internet_checksum(black_box(&copy)));
        }
        passes.push(t.elapsed().as_nanos() as f64 / BULK_BATCH as f64);
    }
    assert_eq!(
        b.stats().msgs_delivered - delivered,
        (BATCHES as u64) * BULK_BATCH as u64,
        "every timed message was delivered"
    );
    let (bulk, pass) = (fastest(&mut bulks), fastest(&mut passes));
    println!(
        "{:<44} {bulk:>8.0} ns/msg  (5 fastest of {BATCHES} batches of {BULK_BATCH}, against {pass:.0} ns a copy + checksum)",
        "bulk_16k/paper_stack"
    );
    (bulk, bulk / pass)
}

/// What the filter's digest costs, in copies: one `InternetChecksum`
/// digest of 16 KiB — the kernel `DIGEST` runs, once a side — against
/// one `copy_from_slice` of it. Interleaved and summarised like
/// [`bench_phase_dispatch`].
fn bench_digest_vs_copy() -> f64 {
    const LEN: usize = 16 * 1024;
    const BATCH: u32 = 256;
    let payload: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let mut copy = vec![0u8; LEN];
    let (mut digests, mut copies) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(DigestKind::InternetChecksum.compute(black_box(&payload)));
        }
        digests.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        for _ in 0..BATCH {
            copy.copy_from_slice(black_box(&payload));
            black_box(&mut copy);
        }
        copies.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    let (digest, copy) = (fastest(&mut digests), fastest(&mut copies));
    println!(
        "{:<44} {digest:>8.0} ns      (5 fastest of {BATCHES} batches of {BATCH}, against {copy:.0} ns a copy)",
        "digest_16k/inet16"
    );
    digest / copy
}

/// A stack of `n` layers that do nothing: what is left of the drain is
/// the engine's dispatch around the phase calls.
fn null_stack(n: usize) -> Vec<Box<dyn Layer>> {
    (0..n)
        .map(|_| Box::new(NullLayer) as Box<dyn Layer>)
        .collect()
}

fn bench_roundtrip() {
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
    let mut a = mk(10, 11);
    let mut b = mk(11, 10);
    bench("engine_roundtrip_fast", || {
        a.send(&[1u8; 8]);
        while let Some(f) = a.poll_transmit() {
            b.deliver_frame(f);
        }
        while b.poll_delivery().is_some() {}
        while let Some(f) = b.poll_transmit() {
            a.deliver_frame(f);
        }
        a.process_pending();
        b.process_pending();
    });
}

fn bench_packing() {
    let msgs: Vec<Msg> = (0..64).map(|i| Msg::from_payload(&[i as u8; 8])).collect();
    bench("packing/pack_64x8B", || {
        black_box(pa_core::packing::pack(black_box(&msgs)));
    });
    let packed = pa_core::packing::pack(&msgs);
    bench("packing/unpack_64x8B", || {
        let mut m = packed.clone();
        let info = pa_core::PackInfo::pop_from(&mut m).unwrap();
        black_box(pa_core::packing::unpack(&info, m).unwrap());
    });
}

fn bench_preamble() {
    let p = Preamble::common(pa_wire::Cookie::from_raw(0x1234_5678), ByteOrder::Big);
    bench("preamble_encode_decode", || {
        let e = black_box(&p).encode();
        black_box(Preamble::decode(&e).unwrap());
    });
}

fn main() {
    println!("microbenchmarks (ns/op; hand-rolled harness, sketch percentiles across batches)");
    println!("{}", "-".repeat(100));
    bench_header_access();
    bench_layout_compile();
    let filter_fused_ns = bench_filter();
    bench_send_paths();
    bench_hot_path();
    let paper = || StackSpec::paper().build();
    let (pooled_fused, post_drain) =
        bench_hot_and_drain("pooled_fused", &paper, PaConfig::paper_default());
    let phase_dispatch = bench_phase_dispatch();
    let (conn_new, setup_vs_hot) = bench_setup_vs_hot();
    let (bulk_16k, bulk_vs_pass) = bench_bulk_vs_pass();
    let digest_vs_copy = bench_digest_vs_copy();
    bench_roundtrip();
    bench_packing();
    bench_preamble();

    // Report: the ratios gate — they cancel machine speed, so the
    // committed baseline survives CI hardware variance. Raw ns rows
    // track the machine, not the code: reported, not gated (the
    // baseline holds none of them; `benchmark/`'s cu-normalised metrics
    // are where absolute cost is compared). `post_vs_hot_ratio` is the
    // paper's own 130 us : 50 us = 2.6 in this implementation's terms;
    // `phase_dispatch_ratio` is what three more do-nothing layers add
    // to the drain, which is all engine dispatch; `setup_vs_hot_ratio`
    // is how many hot operations one `Connection::new` costs — setup
    // gated hardware-independently; `bulk_vs_pass_ratio` is how many
    // copy + checksum passes over a 16 KiB message its whole journey
    // through the paper stack costs, the checksum pass being the
    // 16-bit word loop whatever kernel the filter runs;
    // `digest_vs_copy_ratio` is that kernel against a copy. The tolerances
    // attached here are informational — the ones the CI comparator
    // honors live in the committed baseline file.
    let post_vs_hot = post_drain / (4.0 * pooled_fused);
    println!(
        "{:<44} {post_vs_hot:>8.3}",
        "post_vs_hot_ratio (drain / 4 hot ops)"
    );
    println!(
        "{:<44} {phase_dispatch:>8.3}",
        "phase_dispatch_ratio (4 / 1 null layers)"
    );
    println!(
        "{:<44} {setup_vs_hot:>8.3}",
        "setup_vs_hot_ratio (conn_new / hot op)"
    );
    println!(
        "{:<44} {bulk_vs_pass:>8.3}",
        "bulk_vs_pass_ratio (16 KiB msg / copy+cksum)"
    );
    println!(
        "{:<44} {digest_vs_copy:>8.3}",
        "digest_vs_copy_ratio (16 KiB digest / copy)"
    );
    let mut report = BenchReport::new("micro");
    report
        .push("hot_op_pooled_fused_ns", pooled_fused, Better::Lower)
        .push("filter_fused_ns", filter_fused_ns, Better::Lower)
        .push("post_drain_ns", post_drain, Better::Lower)
        .push_tol("post_vs_hot_ratio", post_vs_hot, Better::Lower, 0.5)
        .push_tol("phase_dispatch_ratio", phase_dispatch, Better::Lower, 0.25)
        .push("conn_new_ns", conn_new, Better::Lower)
        .push_tol("setup_vs_hot_ratio", setup_vs_hot, Better::Lower, 0.45)
        .push("bulk_16k_ns", bulk_16k, Better::Lower)
        .push_tol("bulk_vs_pass_ratio", bulk_vs_pass, Better::Lower, 0.2)
        .push_tol("digest_vs_copy_ratio", digest_vs_copy, Better::Lower, 0.5);
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
