//! The native fast path allocates nothing — enforced at the allocator.
//!
//! §6 of the paper credits explicit message recycling with most of the
//! Horus PA's garbage-collection win: "allocating and deallocating
//! high-bandwidth objects explicitly ... the number of garbage
//! collections reduce dramatically". Our Rust translation of that claim
//! is stronger and checkable: a warm connection's `send()` and
//! `deliver_frame()` perform **zero heap allocations** — not "few",
//! zero — because every hot-path buffer is borrowed from the
//! per-connection [`pa_buf::MsgPool`] and every header is prepended
//! into pre-reserved headroom.
//!
//! The run is a two-node ping-pong (request, echo, recycle) because
//! buffer flux must balance: one-way traffic drains the sender's pool
//! onto the wire and the claim would silently hold only via pool
//! misses. Ping-pong plus host-side `recycle()` is the steady state the
//! paper's Figure 4 measures. The deferred post phases are held to the
//! same zero (the layers keep what they keep in pooled buffers), and
//! the one-way 16 KiB arm states what one-way traffic does cost: the
//! receiver nothing, the sender the frames that left for good.

use std::sync::atomic::{AtomicUsize, Ordering};

use pa::buf::Msg;
use pa::core::{
    Connection, ConnectionParams, DeliverAction, DeliverOutcome, Handles, Layer, LayerCtx,
    LayerShape, PaConfig, SendAction, SendOutcome,
};
use pa::stack::StackSpec;
use pa::wire::{ByteOrder, EndpointAddr};

mod common;
use common::{allocations, count_this_thread_into, CountingAlloc};

// Integration-test binaries get their own global allocator. It counts
// per thread, so the gates below do not see the tests libtest runs
// beside them.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn paper_conn(pa: PaConfig, l: u64, p: u64, seed: u64) -> Connection {
    Connection::new(
        StackSpec::paper().build(),
        pa,
        ConnectionParams {
            local: EndpointAddr::from_parts(l, 3),
            peer: EndpointAddr::from_parts(p, 3),
            seed,
            order: ByteOrder::Big,
        },
    )
    .expect("paper stack is valid")
}

/// One request/echo round trip. Measures the four hot-path operations
/// (two sends, two delivers) when `measure` is on and returns the heap
/// allocations they performed. Post-processing and recycling run
/// between rounds, unmeasured — they are the deferred work the PA
/// masks, not the critical path.
fn round_trip(a: &mut Connection, b: &mut Connection, measure: bool) -> usize {
    let mut hot = 0usize;
    let meter = |hot: &mut usize, before: usize| {
        *hot += allocations() - before;
    };

    // Request.
    let t0 = allocations();
    let out = a.send(b"ping-msg");
    if measure {
        meter(&mut hot, t0);
        assert_eq!(out, SendOutcome::FastPath, "warm send left the fast path");
    }
    let f = a.poll_transmit().expect("request frame");
    assert!(a.poll_transmit().is_none(), "one frame per request");

    let t0 = allocations();
    let out = b.deliver_frame(f);
    if measure {
        meter(&mut hot, t0);
        assert!(
            matches!(out, DeliverOutcome::Fast { msgs: 1 }),
            "warm deliver left the fast path: {out:?}"
        );
    }
    let m = b.poll_delivery().expect("request delivered");

    // Echo from the delivered bytes, then recycle the buffer (§6).
    let t0 = allocations();
    let out = b.send(m.as_slice());
    if measure {
        meter(&mut hot, t0);
        assert_eq!(out, SendOutcome::FastPath);
    }
    b.recycle(m);
    let f = b.poll_transmit().expect("echo frame");
    assert!(b.poll_transmit().is_none(), "no pure acks in ping-pong");

    let t0 = allocations();
    let out = a.deliver_frame(f);
    if measure {
        meter(&mut hot, t0);
        assert!(matches!(out, DeliverOutcome::Fast { msgs: 1 }));
    }
    let m = a.poll_delivery().expect("echo delivered");
    a.recycle(m);

    // Deferred post phases + pool returns, off the measured path.
    a.process_pending();
    b.process_pending();
    hot
}

#[test]
fn steady_state_fast_path_is_allocation_free() {
    let cfg = PaConfig::paper_default();
    let mut a = paper_conn(cfg, 1, 2, 0x9601);
    let mut b = paper_conn(cfg, 2, 1, 0x9602);

    // Warm-up: identification, pool growth to working-set size,
    // predictions settling. Generous so the measured window is pure
    // steady state.
    for _ in 0..64 {
        round_trip(&mut a, &mut b, false);
    }

    // 10_000 messages cross the wire measured (2_500 round trips × 4
    // hot operations); every one must stay on the heap-silent path.
    let mut hot = 0usize;
    for _ in 0..2_500 {
        hot += round_trip(&mut a, &mut b, true);
    }
    assert_eq!(
        hot, 0,
        "steady-state fast-path send/deliver allocated {hot} times over 10k messages"
    );

    // Pool economics reconcile. Takes are hits + misses by definition;
    // what must hold is that after the final drain nothing is lost:
    // every idle buffer is a return that was not re-taken, and across
    // both pools every take was eventually matched by a return
    // (buffers migrate A→B on the wire, so only the sum reconciles).
    for (name, c) in [("a", &a), ("b", &b)] {
        let ps = c.pool_stats();
        assert_eq!(
            c.pool_idle() as u64,
            ps.returns - ps.hits,
            "pool {name}: idle buffers must be exactly returns - hits"
        );
        let takes = ps.hits + ps.misses;
        let rate = ps.hits as f64 / takes as f64;
        assert!(
            rate >= 0.99,
            "pool {name}: hit rate {rate:.4} < 99% (hits {} misses {})",
            ps.hits,
            ps.misses
        );
    }
    // The window's copy of a frame the peer has not acknowledged yet
    // is the image taken for the frame's post phases, put back when the
    // ack comes in: what the layers hold closes the ledger.
    let (pa, pb) = (a.pool_stats(), b.pool_stats());
    let held = (a.bufs_held_by_layers() + b.bufs_held_by_layers()) as u64;
    assert_eq!(
        pa.hits + pa.misses + pb.hits + pb.misses,
        pa.returns + pb.returns + held,
        "after the final drain every taken buffer must be back in a pool or held by a layer"
    );

    // The masked half is held to the same standard: a whole round
    // trip — the four hot operations and both sides' post phases, where
    // the window files its retransmission copy — allocates nothing.
    let before = allocations();
    for _ in 0..2_500 {
        round_trip(&mut a, &mut b, false);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm round trips allocated, post phases included"
    );

    // The fused filters were compiled twice at construction and once
    // more when each side learned its peer's byte order — never on the
    // per-message path.
    let (fuses_a, send_fused, recv_fused) = a.fuse_stats();
    assert!(fuses_a <= 3, "filters re-fused on the hot path: {fuses_a}");
    assert!(send_fused.ops > 0 && recv_fused.ops > 0);
}

// ---------------------------------------------------------------------------
// The threaded build: same zero, with the drain worker live
// ---------------------------------------------------------------------------

/// One round trip with every `process_pending` shipped to the drain
/// thread. The four hot operations are measured exactly as in
/// [`round_trip`]; the handoffs and the worker-side folds run between
/// the measured windows (submit → recv is a barrier, so the drain
/// thread is idle whenever a hot op is on the clock — a worker-side
/// allocation in its steady state would still trip the whole-window
/// assertion in the test below).
#[allow(clippy::type_complexity)]
fn threaded_round_trip(
    worker: &mut pa::sim::PostDrainWorker,
    app: &mut pa::obs::TelemetryDomain,
    mut a: Box<Connection>,
    mut b: Box<Connection>,
    now: u64,
    measure: bool,
) -> (Box<Connection>, Box<Connection>, usize) {
    let mut hot = 0usize;

    let t0 = allocations();
    let out = a.send(b"ping-msg");
    if measure {
        hot += allocations() - t0;
        assert_eq!(out, SendOutcome::FastPath, "warm send left the fast path");
    }
    let f = a.poll_transmit().expect("request frame");

    let t0 = allocations();
    let out = b.deliver_frame(f);
    if measure {
        hot += allocations() - t0;
        assert!(matches!(out, DeliverOutcome::Fast { msgs: 1 }));
    }
    let m = b.poll_delivery().expect("request delivered");

    let t0 = allocations();
    let out = b.send(m.as_slice());
    if measure {
        hot += allocations() - t0;
        assert_eq!(out, SendOutcome::FastPath);
    }
    b.recycle(m);
    let f = b.poll_transmit().expect("echo frame");

    let t0 = allocations();
    let out = a.deliver_frame(f);
    if measure {
        hot += allocations() - t0;
        assert!(matches!(out, DeliverOutcome::Fast { msgs: 1 }));
    }
    let m = a.poll_delivery().expect("echo delivered");
    a.recycle(m);

    // Post phases drain on the worker thread; recv is the barrier that
    // keeps the boxes round-tripping (no fresh Box per handoff).
    a = match worker.submit(app, a, now) {
        Ok(_) => worker.recv().expect("a returns").conn,
        Err(mut c) => {
            c.process_pending();
            c
        }
    };
    b = match worker.submit(app, b, now + 1) {
        Ok(_) => worker.recv().expect("b returns").conn,
        Err(mut c) => {
            c.process_pending();
            c
        }
    };
    (a, b, hot)
}

/// Allocations made on the drain thread of the threaded gate.
static DRAIN_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// A transparent layer whose post-send phase registers the thread that
/// runs it as the threaded gate's worker. Post phases are the one place
/// a test's own code runs on the drain thread.
struct CountDrainThread;

impl Layer for CountDrainThread {
    fn name(&self) -> &'static str {
        "count-drain-thread"
    }
    fn shape(&self) -> LayerShape {
        LayerShape::NONE
    }
    fn bind(&mut self, _: Handles<'_>) {}
    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }
    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        count_this_thread_into(&DRAIN_ALLOCS);
    }
    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }
    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

#[test]
fn threaded_steady_state_fast_path_is_allocation_free() {
    use pa::obs::{SketchConfig, SnapshotCoordinator};
    use pa::sim::{CostModel, PostDrainWorker};

    let cfg = PaConfig::paper_default();
    let mut coord = SnapshotCoordinator::new(SketchConfig::default_scope());
    // Events drain only at collect, so the ring must hold the whole
    // run: 2 batches/round x 4 events/batch over 564 rounds per side.
    let mut app = coord.domain_with_capacity("app", 8192);
    let drain = coord.domain_with_capacity("drain", 8192);
    let layer_names: Vec<String> = StackSpec::paper()
        .build()
        .iter()
        .map(|l| l.name().to_string())
        .collect();
    // The worker thread exists *before* any measured window: thread
    // spawn, ring allocation, and domain setup all happen during
    // warm-up.
    let mut worker = PostDrainWorker::spawn(drain, CostModel::paper_ml(layer_names), 4);
    // The allocator counts per thread, so the drain thread must join
    // this gate's count: a throwaway connection carries the
    // registering layer over and owes it one post-send phase.
    let mut registrar = Box::new(
        Connection::new(
            vec![Box::new(CountDrainThread)],
            cfg,
            ConnectionParams::new(
                EndpointAddr::from_parts(3, 3),
                EndpointAddr::from_parts(4, 3),
                0x9603,
            ),
        )
        .expect("a one-layer stack is valid"),
    );
    registrar.send(b"register");
    assert!(registrar.has_pending_send());
    worker
        .submit(&mut app, registrar, 0)
        .expect("an empty pipeline accepts");
    worker.recv().expect("registrar returns");
    let mut a = Box::new(paper_conn(cfg, 1, 2, 0x9601));
    let mut b = Box::new(paper_conn(cfg, 2, 1, 0x9602));

    // Warm-up: pools grow, predictions settle, the worker's bracket
    // buffer / name cache / fold rows all reach their steady shapes.
    let mut now = 0u64;
    for _ in 0..64 {
        now += 10;
        let (na, nb, _) = threaded_round_trip(&mut worker, &mut app, a, b, now, false);
        a = na;
        b = nb;
    }

    // Engine baseline: the same steady-state workload inline (zero,
    // by the gate above); what the threaded build must prove is that
    // the telemetry machinery — domains, rings, handoffs, worker folds
    // — adds *zero* on top of it.
    let mut ia = paper_conn(cfg, 1, 2, 0x9601);
    let mut ib = paper_conn(cfg, 2, 1, 0x9602);
    for _ in 0..64 {
        round_trip(&mut ia, &mut ib, false);
    }
    let base0 = allocations();
    for _ in 0..500 {
        round_trip(&mut ia, &mut ib, false);
    }
    let baseline = allocations() - base0;
    assert!(
        DRAIN_ALLOCS.load(Ordering::Relaxed) > 0,
        "the drain thread's warm-up post phases allocate, so it must have registered"
    );

    // Measured: the four hot ops stay heap-silent per operation, and
    // the *whole* threaded window — hot ops, submits, recvs, and every
    // worker-side fold on the drain thread — allocates exactly what
    // the inline engine does and not one time more.
    // (Relaxed suffices: every drain-thread allocation of a round
    // happens before that round's `recv` returns.)
    let window0 = allocations() + DRAIN_ALLOCS.load(Ordering::Relaxed);
    let mut hot = 0usize;
    for _ in 0..500 {
        now += 10;
        let (na, nb, h) = threaded_round_trip(&mut worker, &mut app, a, b, now, true);
        a = na;
        b = nb;
        hot += h;
    }
    let window = allocations() + DRAIN_ALLOCS.load(Ordering::Relaxed) - window0;
    assert_eq!(
        hot, 0,
        "threaded steady-state hot path allocated {hot} times over 2k messages"
    );
    assert_eq!(
        window, baseline,
        "cross-thread telemetry must add zero steady-state allocations \
         (threaded window {window} vs inline engine baseline {baseline})"
    );

    // The worker really did the post work: collect the merged snapshot
    // and check the drain domain carried the batches.
    worker.shutdown();
    let epoch = coord.advance();
    app.publish();
    let snap = coord.collect(epoch);
    let d = snap.domains.iter().find(|d| d.label == "drain").unwrap();
    assert!(d.counter(pa::obs::DomainCounter::DrainBatches) >= 2 * 564);
    assert_eq!(snap.events_lost(), 0, "event ring must not overflow");
}

// ---------------------------------------------------------------------------
// The large-message arm: 16 KiB one way, five fragments a message
// ---------------------------------------------------------------------------

/// One 16 KiB message from `a` to `b` and `b`'s acknowledgements back,
/// posts and recycling included. Returns the allocations made inside
/// `a`'s calls, inside `b`'s calls, and the frames `a` put on the wire.
fn bulk_transfer(
    a: &mut Connection,
    b: &mut Connection,
    payload: &[u8],
    wire: &mut Vec<Msg>,
    msgs: &mut Vec<Msg>,
) -> (usize, usize, usize) {
    let (mut by_a, mut by_b, mut frames) = (0, 0, 0);
    let t0 = allocations();
    let out = a.send(payload);
    by_a += allocations() - t0;
    assert_eq!(
        out,
        SendOutcome::SlowPath,
        "over the MTU: the layers fragment"
    );
    for _ in 0..4 {
        let t0 = allocations();
        frames += a.poll_transmit_burst(usize::MAX, wire);
        by_a += allocations() - t0;

        let t0 = allocations();
        b.deliver_burst(wire);
        b.poll_delivery_burst(usize::MAX, msgs);
        for m in msgs.iter() {
            assert_eq!(m.as_slice(), payload, "reassembled intact");
        }
        b.recycle_burst(msgs.drain(..));
        b.process_pending();
        b.poll_transmit_burst(usize::MAX, wire);
        by_b += allocations() - t0;

        let t0 = allocations();
        a.deliver_burst(wire);
        a.process_pending();
        by_a += allocations() - t0;
    }
    (by_a, by_b, frames)
}

#[test]
fn one_way_bulk_costs_the_receiver_nothing_and_the_sender_its_frames() {
    let cfg = PaConfig::paper_default();
    let mut a = paper_conn(cfg, 1, 2, 0x9601);
    let mut b = paper_conn(cfg, 2, 1, 0x9602);
    let payload: Vec<u8> = (0..16 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut wire: Vec<Msg> = Vec::with_capacity(64);
    let mut msgs: Vec<Msg> = Vec::with_capacity(8);

    // Warm-up: the receiver's pool fills with the sender's frames (it
    // keeps 64) and the buffers each side reuses grow to their sizes.
    for _ in 0..64 {
        bulk_transfer(&mut a, &mut b, &payload, &mut wire, &mut msgs);
    }
    let delivered0 = b.stats().msgs_delivered;
    let takes = |c: &Connection| c.pool_stats().hits + c.pool_stats().misses;
    let takes0 = takes(&a);
    let (mut by_a, mut by_b, mut frames) = (0, 0, 0);
    const MESSAGES: usize = 256;
    for _ in 0..MESSAGES {
        let (x, y, f) = bulk_transfer(&mut a, &mut b, &payload, &mut wire, &mut msgs);
        by_a += x;
        by_b += y;
        frames += f;
    }
    assert_eq!(b.stats().msgs_delivered - delivered0, MESSAGES as u64);
    assert_eq!(
        frames,
        5 * MESSAGES,
        "16 KiB and a packing byte: five frames"
    );
    // Reassembly lands in a buffer that already grew to 16 KiB, the
    // acknowledgements leave in pooled ones, nothing makes an image of
    // the reassembled message: the receiver never asks the allocator.
    assert_eq!(by_b, 0, "the receiver allocated");
    // The sender's frames do not come back (the acknowledgements do,
    // a quarter as many), so it pays for them — and for nothing else
    // but the list `SendAction::Split` carries the fragments in: not
    // the staging buffer, not the images, not the window's copies.
    assert!(
        by_a <= frames,
        "the sender allocated {by_a} times for {frames} frames"
    );
    assert!(by_a >= frames / 2, "and it cannot do without them: {by_a}");
    // What the sender takes from its pool, exactly: a message's staging
    // buffer, a buffer a fragment, an image a frame — which the window
    // then keeps as its retransmission copy instead of taking another
    // five buffers to copy the images into. (An acknowledgement that
    // comes back is consumed in the buffer it arrived in.)
    assert_eq!(
        takes(&a) - takes0,
        (1 + 5 + 5) * MESSAGES as u64,
        "pool takes a message"
    );
    assert_eq!(a.stats().fast_sends, 0);
    assert!(a.stats().delivery_balanced() && b.stats().delivery_balanced());
}

// ---------------------------------------------------------------------------
// The burst arm: same zero, through the burst APIs
// ---------------------------------------------------------------------------

/// One burst-mode round: `send_burst` → `poll_transmit_burst` →
/// `deliver_burst` → `poll_delivery_burst` → echo → recycle, all
/// through caller-owned scratch. Returns the allocations the burst
/// operations performed; post phases (and the §3.4 backlog pack they
/// trigger) run between rounds, off the measured window, exactly like
/// the per-packet arm.
fn burst_round(
    a: &mut Connection,
    b: &mut Connection,
    payloads: &[&[u8]],
    wire: &mut Vec<pa::buf::Msg>,
    msgs: &mut Vec<pa::buf::Msg>,
) -> (usize, usize) {
    let t0 = allocations();
    let rep = a.send_burst(payloads);
    assert_eq!(rep.rejected, 0, "burst send must not reject");
    a.poll_transmit_burst(usize::MAX, wire);
    b.deliver_burst(wire);
    b.poll_delivery_burst(usize::MAX, msgs);
    b.prepare_burst(msgs.len());
    for m in msgs.drain(..) {
        let _ = b.send(m.as_slice());
        b.recycle(m);
    }
    b.poll_transmit_burst(usize::MAX, wire);
    a.deliver_burst(wire);
    a.poll_delivery_burst(usize::MAX, msgs);
    let echoed = msgs.len();
    a.recycle_burst(msgs.drain(..));
    let hot = allocations() - t0;
    a.process_pending();
    b.process_pending();
    (hot, echoed)
}

#[test]
fn burst_steady_state_is_allocation_free_and_flux_reconciles() {
    // Burst 1 is the per-message verbs reached through the burst names;
    // 32 is the benchmark's burst and half the pool's retention cap.
    for burst in [1, 8, 32] {
        burst_steady_state(burst);
    }
}

fn burst_steady_state(burst: usize) {
    let cfg = PaConfig::paper_default();
    let mut a = paper_conn(cfg, 1, 2, 0x9601);
    let mut b = paper_conn(cfg, 2, 1, 0x9602);

    // Caller-owned scratch: grown to the high-water mark during
    // warm-up, then reused — the burst path never asks the allocator.
    let mut wire: Vec<pa::buf::Msg> = Vec::new();
    let mut msgs: Vec<pa::buf::Msg> = Vec::new();
    let payloads: Vec<&[u8]> = vec![b"ping-msg"; burst];

    // Warm-up: pools refill to burst depth (`refill_n` populates
    // `burst_refills`), scratch vectors reach capacity, predictions
    // settle, the backlog queue reaches its steady shape.
    let mut echoed = 0usize;
    for _ in 0..64 {
        echoed += burst_round(&mut a, &mut b, &payloads, &mut wire, &mut msgs).1;
    }

    let mut hot = 0usize;
    const ROUNDS: usize = 512;
    for _ in 0..ROUNDS {
        let (h, e) = burst_round(&mut a, &mut b, &payloads, &mut wire, &mut msgs);
        hot += h;
        echoed += e;
    }
    // The echoing side holds a delivered piece and a staging buffer per
    // message. Under the pool's retention cap (64 buffers: bursts up to
    // 31) nothing is allocated at all. At 32 the two meet the cap: three
    // returns a round are dropped there and allocated again — a
    // constant per round, not per message. The pool is sized for bursts
    // under half its cap; the 32 arm pins what a larger one costs.
    let fits = 2 * burst < 64;
    let allowed = if fits { 0 } else { 3 * ROUNDS };
    assert!(
        hot <= allowed,
        "burst {burst}: the burst path allocated {hot} times over {} messages ({allowed} allowed)",
        ROUNDS * burst
    );
    // The open loop really moved traffic (echoes may lag a round behind
    // the offered bursts — posts drain queued echoes between rounds).
    assert!(
        echoed >= (64 + ROUNDS - 2) * burst,
        "burst {burst}: rounds stalled: {echoed} echoes"
    );

    // Flux identity, per pool: every free-list buffer arrived through
    // `put` (returns, minus the capped drops) or `refill_n`
    // (burst_refills), every departure was a hit — so
    // idle == returns + burst_refills - hits - capped, exactly. The
    // `capped` term is live here: unpacked §3.4 bodies are donated
    // returns with no matching take, so the sender's pool rides its
    // retention cap in steady state.
    for (name, c) in [("a", &a), ("b", &b)] {
        let ps = c.pool_stats();
        assert_eq!(
            c.pool_idle() as u64,
            ps.returns + ps.burst_refills - ps.hits - ps.capped,
            "burst {burst}, pool {name}: flux identity broke (returns {} refills {} hits {} capped {})",
            ps.returns,
            ps.burst_refills,
            ps.hits,
            ps.capped
        );
        let takes = ps.hits + ps.misses;
        let rate = ps.hits as f64 / takes as f64;
        let floor = if fits { 0.99 } else { 0.98 };
        assert!(
            rate >= floor,
            "burst {burst}, pool {name}: hit rate {rate:.4} < {floor} under burst refill"
        );
    }
    // The burst pre-provisioning ran where there was a burst — at least
    // one pool was topped up by refill_n rather than growing through
    // misses — and a burst of one is a bare send: nothing provisioned.
    let refills = a.pool_stats().burst_refills + b.pool_stats().burst_refills;
    assert_eq!(refills > 0, burst > 1, "burst {burst}: {refills} refills");
}

#[test]
fn packed_backlog_delivery_reconciles_the_pools() {
    // Force sends to queue (post-serialization) so the backlog packs,
    // then deliver the packed frame: the pooled unpack arm hands each
    // piece out of the pool and the frame itself moves to the post
    // queue. Afterwards both pools must still balance.
    let cfg = PaConfig::paper_default();
    let mut a = paper_conn(cfg, 1, 2, 0x11);
    let mut b = paper_conn(cfg, 2, 1, 0x22);

    // First send occupies the post queue; the rest queue behind it
    // (§3.4 serialization rule) and pack on the drain.
    for _ in 0..8 {
        let _ = a.send(b"burst-of-eight!!");
    }
    a.process_pending(); // drains the backlog into packed frame(s)
    let mut delivered = 0;
    while let Some(f) = a.poll_transmit() {
        b.deliver_frame(f);
        while let Some(m) = b.poll_delivery() {
            assert_eq!(m.as_slice(), b"burst-of-eight!!");
            delivered += 1;
            b.recycle(m);
        }
    }
    b.process_pending();
    a.process_pending();
    assert_eq!(delivered, 8, "all packed messages delivered");
    assert!(
        a.stats().packed_frames >= 1,
        "the burst must actually have packed"
    );
    let (pa, pb) = (a.pool_stats(), b.pool_stats());
    // A packed body is assembled fresh by `packing::pack` (amortized
    // path, one allocation per *frame*), so it was never a pool take —
    // but after its post-deliver phase B's pool absorbs it anyway.
    // Every packed frame therefore shows up as exactly one donated
    // return on top of the take/return balance — and the sender's
    // window still holds its copy of every frame, none acknowledged.
    let held = (a.bufs_held_by_layers() + b.bufs_held_by_layers()) as u64;
    assert_eq!(
        held,
        a.stats().frames_out,
        "one retransmission copy a frame"
    );
    assert_eq!(
        pa.hits + pa.misses + pb.hits + pb.misses + a.stats().packed_frames,
        pa.returns + pb.returns + held,
        "pool flux must balance up to one donated packed body per frame"
    );
    assert_eq!(pb.returns - pb.hits, b.pool_idle() as u64);
}

/// The paper stack's layers and the parameters of a connection over
/// them; `seed` tells the connections of one test apart.
fn paper_setup(seed: u64) -> (Vec<Box<dyn Layer>>, ConnectionParams) {
    let params = ConnectionParams {
        local: EndpointAddr::from_parts(1, 3),
        peer: EndpointAddr::from_parts(2, 3),
        seed,
        order: ByteOrder::Big,
    };
    (StackSpec::paper().build(), params)
}

/// Setup is not free, but it is counted: once a stack's plan exists,
/// building another connection over it allocates for the state that
/// connection goes on to own and for nothing else. The 7:
///
/// - 2 the local and expected connection identification;
/// - 4 two predictions' protocol and gossip images;
/// - 1 the per-layer phase meters.
///
/// The plan is found by the stack's shape — each layer's name and
/// `LayerShape`, compared in place — and nothing is declared: the
/// layout, the placements, the verified and fused filters and every
/// layer's handles are the plan's, found and shared. The paper stack's
/// filters have no patchable slots, so the two slot arrays are empty;
/// the pool, the queues, the effects scratch and the attribution tables
/// start empty and allocate on first use.
#[test]
fn connection_setup_allocates_only_what_it_keeps() {
    let (layers, params) = paper_setup(7);
    let first = Connection::new(layers, PaConfig::paper_default(), params).expect("valid stack");
    let (layers, params) = paper_setup(8);
    let before = allocations();
    let conn = Connection::new(layers, PaConfig::paper_default(), params);
    let made = allocations() - before;
    let conn = conn.expect("valid stack");
    assert!(conn.shares_plan_with(&first), "the second build is a hit");
    assert!(made <= 7, "Connection::new made {made} allocations");
}

/// The first connection of a stack pays for the plan as well, once. The
/// stack below is the paper's with `trace_ctx` on — no other test here
/// builds it, so this build is a miss whatever ran before. Everything
/// declared goes into the plan; nothing is kept for the next build. The
/// 32:
///
/// - 8 the connection's own: the 7 above and the send filter's slot
///   array (the trace context's two slots);
/// - 8 the declarations, which the plan keeps: the three declaration
///   tables (the layout's), each filter's instructions and span table,
///   the send filter's slots;
/// - 6 the layout: four placement lists, the packer's two scratch
///   buffers;
/// - 4 the filters: per direction the two fused forms' shared
///   instruction arrays — one allocation each, source indices included,
///   scheduled in place: the schedule allocates nothing;
/// - 3 the handles: the fields, the send filter's slots, where each
///   layer's run ends;
/// - 1 the plan's `Arc`, 1 its key in the registry (the layers' names
///   and shapes), and at most 1 the registry's list growing.
#[test]
fn first_connection_of_a_stack_pays_for_the_plan_once() {
    let config = PaConfig {
        trace_ctx: true,
        ..PaConfig::paper_default()
    };
    let (layers, params) = paper_setup(9);
    let before = allocations();
    let conn = Connection::new(layers, config, params);
    let made = allocations() - before;
    assert!(conn.is_ok());
    assert!(
        made <= 32,
        "the first Connection::new made {made} allocations"
    );
    assert!(made > 7, "a miss compiles: {made} allocations");
}
