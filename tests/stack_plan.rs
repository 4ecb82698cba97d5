//! Stack plans: shared where the stack's shape is equal, private where
//! the state is.
//!
//! What a stack compiles to — the header layout, the two verified packet
//! filters, their fused forms — is built once per distinct stack and
//! held by every connection over it. This suite checks both edges of
//! that sharing. One stack shape means one plan, and *anything*
//! declared differently means another: a stack, the trace context, the
//! layout mode, and the near-misses a hash or a lazy comparison would let
//! through (one field's width, one filter constant, where one layer's
//! instructions end and the next one's begin, another layer type under
//! the same name and words, a layer whose name is its field's). A stack
//! shape is declared once while its plan lives. And nothing a
//! connection does at run time reaches its neighbours through the plan:
//! a filter slot rewritten by a post phase, the trace context's armed
//! slots, a peer's byte order.
//!
//! Where a case drives an endpoint it runs at one shard and at eight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pa::buf::Msg;
use pa::core::{
    Connection, ConnectionParams, Declare, DeliverAction, DeliverOutcome, Handles, Layer, LayerCtx,
    LayerShape, PaConfig, SendAction, SendOutcome, ShardedEndpoint,
};
use pa::filter::{Op, SlotId};
use pa::obs::{journey_id, AttrCause, ProbeSink, TraceEvent, XrayOp};
use pa::stack::StackSpec;
use pa::wire::{ByteOrder, Class, EndpointAddr, Field, LayoutError, LayoutMode};

#[path = "common/shards.rs"]
mod shards;
use shards::at_each_shard_count;

/// The plan registry and its counters are the process's, and libtest
/// runs this binary's tests on parallel threads. Every test here holds
/// this lock, so the counts it reads are its own.
static REGISTRY_TESTS: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    REGISTRY_TESTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// `(plans_live, plan_hits, plan_builds)` as an endpoint reports them.
fn plan_counters(endpoint: &ShardedEndpoint) -> (u64, u64, u64) {
    let snap = endpoint.metrics_snapshot(0);
    let get = |name| snap.get("plan", name).expect("the plan scope is recorded");
    (get("plans_live"), get("plan_hits"), get("plan_builds"))
}

fn params(local: u64, peer: u64, order: ByteOrder) -> ConnectionParams {
    ConnectionParams {
        local: EndpointAddr::from_parts(local, 9),
        peer: EndpointAddr::from_parts(peer, 9),
        seed: local * 31 + peer,
        order,
    }
}

fn conn_over(layers: Vec<Box<dyn Layer>>, config: PaConfig, local: u64, peer: u64) -> Connection {
    Connection::new(layers, config, params(local, peer, ByteOrder::native())).expect("valid stack")
}

fn paper_conn(config: PaConfig, local: u64, peer: u64) -> Connection {
    conn_over(StackSpec::paper().build(), config, local, peer)
}

/// Refuses bodies above a fixed cap and above a bound that slides: the
/// bound lives in a patchable slot of each filter, and this layer's post
/// phases move *its connection's* bound to `slide_to`. `width`, `cap`
/// and `limit` are declarations; `slide_to` is state.
struct Quota {
    width: u32,
    cap: i64,
    limit: i64,
    slide_to: Option<i64>,
    slots: Option<(SlotId, SlotId)>,
}

/// Verdicts of the send filter's cap and bound checks; the delivery
/// filter's are ten higher.
const OVER_CAP: i64 = 41;
const OVER_BOUND: i64 = 42;
/// Where those two checks' deciding instructions sit in either filter.
const CAP_PC: u16 = 3;
const BOUND_PC: u16 = 7;

impl Quota {
    fn new(slide_to: Option<i64>) -> Quota {
        Quota {
            width: 16,
            cap: 64,
            limit: 32,
            slide_to,
            slots: None,
        }
    }
}

/// `quota_len` in `class`, `words[0]` bits wide, and the cap (`words[1]`)
/// and sliding-bound (first value `words[2]`) checks in both filters.
fn declare_quota(d: &mut Declare<'_>, class: Class, words: &[i64]) -> Result<(), LayoutError> {
    let &[width, cap, limit] = words else {
        panic!("a quota's shape is three words")
    };
    d.add_field(class, "quota_len", width as u32, None)?;
    let send = d.send_slot(limit);
    let recv = d.recv_slot(limit);
    let checks = |slot, base| {
        [
            Op::PushBodySize,
            Op::PushConst(cap),
            Op::Gt,
            Op::Abort(OVER_CAP + base),
            Op::PushBodySize,
            Op::PushSlot(slot),
            Op::Gt,
            Op::Abort(OVER_BOUND + base),
        ]
    };
    d.send_filter(checks(send, 0));
    d.recv_filter(checks(recv, 10));
    Ok(())
}

impl Layer for Quota {
    fn name(&self) -> &'static str {
        "quota"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(
            |d, words| declare_quota(d, Class::Message, words),
            [self.width as i64, self.cap, self.limit],
        )
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let ([send], [recv]) = (handles.send_slots(), handles.recv_slots());
        self.slots = Some((send, recv));
    }

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }

    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        if let (Some(bound), Some((send, _))) = (self.slide_to, self.slots) {
            ctx.patch_send_slot(send, bound);
        }
    }

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        if let (Some(bound), Some((_, recv))) = (self.slide_to, self.slots) {
            ctx.patch_recv_slot(recv, bound);
        }
    }
}

/// Contributes `pairs` do-nothing instruction pairs to the send filter
/// and declares nothing: two of these in a row can split the same
/// instructions at different places.
struct Pad {
    name: &'static str,
    pairs: usize,
}

impl Layer for Pad {
    fn name(&self) -> &'static str {
        self.name
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(
            |d, words| {
                for _ in 0..words[0] {
                    d.send_filter([Op::PushConst(0), Op::Drop]);
                }
                Ok(())
            },
            [self.pairs as i64],
        )
    }

    fn bind(&mut self, _: Handles<'_>) {}

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

/// Another layer type under [`Quota`]'s name with its words, declaring
/// the same things but the field in the Protocol class: the two differ
/// in their declare functions alone.
struct Guard(Quota);

impl Layer for Guard {
    fn name(&self) -> &'static str {
        "quota"
    }

    fn shape(&self) -> LayerShape {
        let quota = &self.0;
        LayerShape::new(
            |d, words| declare_quota(d, Class::Protocol, words),
            [quota.width as i64, quota.cap, quota.limit],
        )
    }

    fn bind(&mut self, handles: Handles<'_>) {
        self.0.bind(handles)
    }

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

/// [`Tagged`] declarations run and [`Tagged`] layers bound, process-wide.
static DECLARED: AtomicUsize = AtomicUsize::new(0);
static BOUND: AtomicUsize = AtomicUsize::new(0);

/// Declares one byte named after the layer, as `tests/phase_effects.rs`'s
/// scripted layers do, and counts its declarations and bindings.
struct Tagged {
    name: &'static str,
    tag: Option<Field>,
}

impl Tagged {
    fn boxed(name: &'static str) -> Box<dyn Layer> {
        Box::new(Tagged { name, tag: None })
    }

    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        DECLARED.fetch_add(1, Ordering::Relaxed);
        d.add_field(Class::Message, d.layer_name(), 8, None)?;
        Ok(())
    }
}

impl Layer for Tagged {
    fn name(&self) -> &'static str {
        self.name
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(Tagged::declare, [])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [tag] = handles.fields();
        self.tag = Some(tag);
        BOUND.fetch_add(1, Ordering::Relaxed);
    }

    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        ctx.frame(msg).write(self.tag.expect("bound"), 0x7A);
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

fn quota_conn(slide_to: Option<i64>, local: u64, peer: u64) -> Connection {
    let mut conn = conn_over(
        vec![Box::new(Quota::new(slide_to))],
        PaConfig::paper_default(),
        local,
        peer,
    );
    conn.set_probe(ProbeSink::ring(64));
    conn
}

/// Sends one payload, runs the post phases, and returns the outcome and
/// whatever reached the wire.
fn send_one(conn: &mut Connection, len: usize) -> (SendOutcome, Vec<Msg>) {
    let outcome = conn.send(&vec![0xA5; len]);
    let mut frames = Vec::new();
    conn.poll_transmit_burst(usize::MAX, &mut frames);
    conn.process_pending();
    conn.poll_transmit_burst(usize::MAX, &mut frames);
    (outcome, frames)
}

/// Delivers one frame, runs the post phases, hands the messages back.
fn deliver_one(conn: &mut Connection, frame: Msg) -> DeliverOutcome {
    let outcome = conn.deliver_frame(frame);
    while let Some(msg) = conn.poll_delivery() {
        conn.recycle(msg);
    }
    conn.process_pending();
    outcome
}

/// The `pc` of every filter-reject event in `conn`'s trace ring, which
/// is then cleared.
fn reject_pcs(conn: &mut Connection) -> Vec<u16> {
    let ring = conn.probe_mut().trace_ring_mut().expect("a ring probe");
    let pcs = ring
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FilterReject { pc, .. } => Some(pc),
            _ => None,
        })
        .collect();
    ring.clear();
    pcs
}

fn charged(conn: &Connection, op: XrayOp) -> u64 {
    conn.attribution()
        .entries()
        .iter()
        .filter(|e| e.op == op && e.layer == "quota" && e.cause == AttrCause::FilterReject)
        .map(|e| e.count)
        .sum()
}

#[test]
fn one_stack_one_plan_and_every_other_declaration_its_own() {
    let _alone = alone();
    at_each_shard_count(|shards| {
        let mut server = ShardedEndpoint::new(shards);
        let (live0, hits0, builds0) = plan_counters(&server);

        let paper = PaConfig::paper_default();
        let traced = PaConfig {
            trace_ctx: true,
            ..paper
        };
        let traditional = PaConfig {
            layout_mode: LayoutMode::Traditional,
            ..paper
        };
        let doubled = |l, p| conn_over(StackSpec::paper_doubled_window().build(), paper, l, p);

        // Two of each, one half of each pair inside the endpoint.
        let kinds = [
            (paper_conn(paper, 1, 2), paper_conn(paper, 2, 1)),
            (doubled(3, 4), doubled(4, 3)),
            (paper_conn(traced, 5, 6), paper_conn(traced, 6, 5)),
            (paper_conn(traditional, 7, 8), paper_conn(traditional, 8, 7)),
        ];
        let mut outside = Vec::new();
        let mut inside = Vec::new();
        for (client, twin) in kinds {
            assert!(client.shares_plan_with(&twin));
            outside.push(client);
            inside.push(server.add_connection(twin));
        }
        for (i, a) in outside.iter().enumerate() {
            for (j, h) in inside.iter().enumerate() {
                let b = server.try_conn(*h).expect("admitted");
                assert_eq!(a.shares_plan_with(b), i == j, "kinds {i} and {j}");
            }
        }
        let (live, hits, builds) = plan_counters(&server);
        assert_eq!(
            (live - live0, hits - hits0, builds - builds0),
            (4, 4, 4),
            "four stacks compiled once each, four builds answered by a live plan"
        );

        // The endpoint's halves alone keep all four plans alive.
        drop(outside);
        assert_eq!(plan_counters(&server).0 - live0, 4);
        for h in inside {
            server.remove_connection(h).expect("live handle");
        }
        assert_eq!(plan_counters(&server).0, live0);
    });
}

#[test]
fn a_patched_slot_is_the_patching_connections_own() {
    let _alone = alone();
    // Every connection below declares the same thing; only what their
    // post phases go on to do differs.
    let mut slider = quota_conn(Some(12), 1, 2);
    let mut steady = quota_conn(None, 3, 4);
    assert!(slider.shares_plan_with(&steady));

    // The first send's post phase slides the slider's bound from 32
    // down to 12. Bodies are the payload plus a one-byte packing header.
    for conn in [&mut slider, &mut steady] {
        assert_eq!(send_one(conn, 8).0, SendOutcome::FastPath);
    }
    assert_eq!(slider.filter_slots().0, [12]);
    assert_eq!(steady.filter_slots().0, [32]);
    // What `filters()` returns is the plan's: the values as declared.
    assert_eq!(slider.filters().0.slots(), [32]);
    assert!(std::ptr::eq(slider.filters().0, steady.filters().0));

    // 20 bytes: over the slider's bound, under everyone else's.
    assert_eq!(send_one(&mut slider, 20).0, SendOutcome::SlowPath);
    assert_eq!(send_one(&mut steady, 20).0, SendOutcome::FastPath);
    let pcs = reject_pcs(&mut slider);
    assert!(!pcs.is_empty() && pcs.iter().all(|&pc| pc == BOUND_PC));
    assert!(reject_pcs(&mut steady).is_empty());
    assert_eq!(charged(&slider, XrayOp::SlowSend), 1);
    assert_eq!(charged(&steady, XrayOp::SlowSend), 0);

    // The steady connection still refuses exactly what its own
    // declarations say, at the instructions they say: 40 bytes at the
    // bound (its 32, not the slider's 12), 100 at the cap.
    for (len, pc) in [(40, BOUND_PC), (100, CAP_PC)] {
        let (outcome, frames) = send_one(&mut steady, len);
        assert_eq!(outcome, SendOutcome::SlowPath);
        assert!(frames.is_empty(), "a refused body never reaches the wire");
        let pcs = reject_pcs(&mut steady);
        assert!(!pcs.is_empty() && pcs.iter().all(|&at| at == pc), "{pcs:?}");
    }
    assert_eq!(steady.stats().fast_sends, 2);

    // The delivery filter the same way: two receivers of one plan, one
    // of which slides its bound after the first delivery.
    let mut recv_slider = quota_conn(Some(12), 12, 11);
    let mut recv_steady = quota_conn(None, 14, 13);
    let mut to_slider = quota_conn(None, 11, 12);
    let mut to_steady = quota_conn(None, 13, 14);
    assert!(recv_slider.shares_plan_with(&slider) && recv_steady.shares_plan_with(&slider));
    for len in [8, 20] {
        for (tx, rx) in [
            (&mut to_slider, &mut recv_slider),
            (&mut to_steady, &mut recv_steady),
        ] {
            let (_, mut frames) = send_one(tx, len);
            let frame = frames.pop().expect("one frame per send");
            let outcome = deliver_one(rx, frame);
            // Only the slid bound diverts a delivery, and it still
            // delivers: the filter picks the path, the layers decide.
            let slid = len == 20 && rx.filter_slots().1[0] == 12;
            match outcome {
                DeliverOutcome::Slow { msgs: 1 } if slid => {}
                DeliverOutcome::Fast { msgs: 1 } if !slid => {}
                other => panic!("{len} B, slid = {slid}: {other:?}"),
            }
        }
    }
    assert_eq!(recv_slider.stats().recv_filter_misses, 1);
    assert_eq!(recv_steady.stats().recv_filter_misses, 0);
    assert_eq!(reject_pcs(&mut recv_slider), [BOUND_PC]);
    assert!(reject_pcs(&mut recv_steady).is_empty());
    assert_eq!(charged(&recv_slider, XrayOp::SlowDeliver), 1);
    assert_eq!(recv_steady.filter_slots(), (&[32][..], &[32][..]));
}

#[test]
fn armed_trace_slots_are_per_connection() {
    let _alone = alone();
    let traced = PaConfig {
        trace_ctx: true,
        ..PaConfig::paper_default()
    };
    let mut busy = paper_conn(traced, 1, 2);
    let mut quiet = paper_conn(traced, 3, 4);
    assert!(busy.shares_plan_with(&quiet));
    for _ in 0..3 {
        send_one(&mut busy, 8);
    }
    send_one(&mut quiet, 8);
    // Each stamps its own sequence from its own origin: the quiet one's
    // first journey is number 1 whatever the busy one armed before it.
    let stamp = |c: &Connection, seq| Some((journey_id(c.trace_origin(), seq), 0));
    assert_eq!(busy.last_sent_trace(), stamp(&busy, 3));
    assert_eq!(quiet.last_sent_trace(), stamp(&quiet, 1));
    assert_ne!(busy.filter_slots().0, quiet.filter_slots().0);
    assert_eq!(
        busy.filters().0.slots(),
        [0, 0],
        "the plan's stay as declared"
    );
}

#[test]
fn a_peers_byte_order_rebinds_only_the_connection_that_learned_it() {
    let _alone = alone();
    at_each_shard_count(|shards| {
        let paper = PaConfig::paper_default();
        let little = |l, p| {
            let layers = StackSpec::paper().build();
            Connection::new(layers, paper, params(l, p, ByteOrder::Little)).expect("valid stack")
        };
        let mut big_client = Connection::new(
            StackSpec::paper().build(),
            paper,
            params(1, 10, ByteOrder::Big),
        )
        .expect("valid stack");
        let mut little_client = little(2, 10);
        let mut server = ShardedEndpoint::new(shards);
        let taught = server.add_connection(little(10, 1));
        let untaught = server.add_connection(little(10, 2));
        let shared = |s: &ShardedEndpoint, client: &Connection| {
            let (a, b) = (s.try_conn(taught).unwrap(), s.try_conn(untaught).unwrap());
            a.shares_plan_with(b) && a.shares_plan_with(client)
        };
        assert!(shared(&server, &big_client));

        // Interleave the two clients; every frame must be delivered, and
        // from the second round on by the fast path: the checksum
        // layer's delivery filter reads a 16-bit length, which only
        // comes out right in the sender's own byte order.
        for round in 0..4 {
            for client in [&mut big_client, &mut little_client] {
                let (_, frames) = send_one(client, 24);
                for frame in frames {
                    let outcome = server.from_network(frame);
                    assert!(
                        matches!(
                            outcome,
                            DeliverOutcome::Fast { msgs: 1 } | DeliverOutcome::Slow { msgs: 1 }
                        ),
                        "round {round}: {outcome:?}"
                    );
                }
                let mut delivered = Vec::new();
                server.drain_deliveries(&mut delivered);
                for d in delivered {
                    server.recycle_delivery(d);
                }
                server.process_all_pending();
                let mut acks = Vec::new();
                server.poll_transmit_burst(usize::MAX, &mut acks);
                for (_, ack) in acks {
                    deliver_one(client, ack);
                }
            }
        }
        let (a, b) = (
            server.try_conn(taught).unwrap(),
            server.try_conn(untaught).unwrap(),
        );
        // Each learned its own peer's order from that peer's first
        // preamble — one binding each on top of the two at setup — and
        // each one's filter went on reading its own peer's frames right.
        assert_eq!((a.fuse_stats().0, b.fuse_stats().0), (3, 3));
        for c in [a, b] {
            assert_eq!(c.stats().recv_filter_misses, 0);
            assert_eq!(c.stats().msgs_delivered, 4);
            assert!(c.stats().fast_deliveries >= 3, "{:?}", c.stats());
        }
        assert!(
            shared(&server, &big_client),
            "a learn takes the plan's other program, not another plan"
        );
    });
}

#[test]
fn the_last_connection_takes_the_plan_with_it_and_the_next_build_recompiles() {
    let _alone = alone();
    at_each_shard_count(|shards| {
        let mut server = ShardedEndpoint::new(shards);
        let (live0, hits0, builds0) = plan_counters(&server);
        let build = |l, p| quota_conn(None, l, p);

        let first = build(1, 2);
        let layout = first.layout().clone();
        let (send, recv) = first.filters();
        let programs = (send.clone(), recv.clone());
        let fused = first.fuse_stats();
        let h = server.add_connection(build(2, 1));
        assert_eq!(
            plan_counters(&server),
            (live0 + 1, hits0 + 1, builds0 + 1),
            "one compile, one hit"
        );

        drop(first);
        assert_eq!(plan_counters(&server).0, live0 + 1, "the twin holds it");
        drop(server.remove_connection(h).expect("live handle"));
        assert_eq!(plan_counters(&server).0, live0, "nobody does");

        let again = build(1, 2);
        assert_eq!(
            plan_counters(&server),
            (live0 + 1, hits0 + 1, builds0 + 2),
            "a miss: compiled again"
        );
        assert_eq!(again.layout(), &layout);
        assert_eq!(again.filters(), (&programs.0, &programs.1));
        assert_eq!(again.fuse_stats(), fused);
    });
}

#[test]
fn one_declaration_apart_is_another_plan() {
    let _alone = alone();
    let stack = |quota: Quota, pads: (usize, usize)| {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(quota),
            Box::new(Pad {
                name: "pad_a",
                pairs: pads.0,
            }),
            Box::new(Pad {
                name: "pad_b",
                pairs: pads.1,
            }),
        ];
        conn_over(layers, PaConfig::paper_default(), 1, 2)
    };
    let base = stack(Quota::new(None), (2, 1));
    assert!(base.shares_plan_with(&stack(Quota::new(Some(5)), (2, 1))));

    let mutants = [
        (
            "a field's width",
            stack(
                Quota {
                    width: 24,
                    ..Quota::new(None)
                },
                (2, 1),
            ),
        ),
        (
            "a filter constant",
            stack(
                Quota {
                    cap: 65,
                    ..Quota::new(None)
                },
                (2, 1),
            ),
        ),
        (
            "a slot's first value",
            stack(
                Quota {
                    limit: 33,
                    ..Quota::new(None)
                },
                (2, 1),
            ),
        ),
        // The same three instruction pairs, the same declarations; only
        // the boundary between the two layers' spans moved.
        ("a span boundary", stack(Quota::new(None), (1, 2))),
    ];
    for (what, mutant) in &mutants {
        assert!(!mutant.shares_plan_with(&base), "{what} changed");
    }
    // The boundary mutant really is the near-miss it claims to be.
    let moved = &mutants[3].1;
    assert_eq!(moved.layout(), base.layout());
    assert_eq!(moved.filters(), base.filters());

    // Another layer type under the same name, with the same words: the
    // key holds the declare function, not only what the layer is called
    // and configured with.
    let guarded = conn_over(
        vec![
            Box::new(Guard(Quota::new(None))),
            Box::new(Pad {
                name: "pad_a",
                pairs: 2,
            }),
            Box::new(Pad {
                name: "pad_b",
                pairs: 1,
            }),
        ],
        PaConfig::paper_default(),
        1,
        2,
    );
    assert_eq!(guarded.layer_names(), base.layer_names());
    assert!(
        !guarded.shares_plan_with(&base),
        "the declaring type changed"
    );
    assert_ne!(guarded.layout(), base.layout());
    assert_eq!(guarded.filters().1, base.filters().1);

    // One shape under two names, each of which names its field too: the
    // filters are equal, the layouts differ in the name alone.
    let tagged = |name| conn_over(vec![Tagged::boxed(name)], PaConfig::paper_default(), 1, 2);
    let (left, right) = (tagged("left"), tagged("right"));
    assert!(!left.shares_plan_with(&right), "the name changed");
    assert_eq!(left.filters(), right.filters());
    assert_eq!(left.layout().field_name(Class::Message, 0), Some("left"));
    assert_eq!(right.layout().field_name(Class::Message, 0), Some("right"));
}

#[test]
fn a_stack_shape_is_declared_once_while_its_plan_lives() {
    let _alone = alone();
    let stack = || vec![Tagged::boxed("count_a"), Tagged::boxed("count_b")];
    let paper = PaConfig::paper_default();
    let (declared0, bound0) = (
        DECLARED.load(Ordering::Relaxed),
        BOUND.load(Ordering::Relaxed),
    );
    let declared = || DECLARED.load(Ordering::Relaxed) - declared0;
    let bound = || BOUND.load(Ordering::Relaxed) - bound0;

    let first = conn_over(stack(), paper, 1, 2);
    assert_eq!(declared(), 2, "the first build declares each layer");
    for i in 0..1_000 {
        let mut conn = conn_over(stack(), paper, 3 + i, 2);
        assert!(conn.shares_plan_with(&first));
        // Its layers were handed their handles all the same.
        let (_, frames) = send_one(&mut conn, 8);
        assert!(!frames.is_empty());
    }
    assert_eq!(declared(), 2, "1 000 builds more, once per layer still");
    assert_eq!(bound(), 2 * 1_001, "every build binds every layer");

    drop(first);
    let again = conn_over(stack(), paper, 1, 2);
    assert_eq!(declared(), 4, "the plan left with its last connection");
    assert_eq!(bound(), 2 * 1_002);
    drop(again);
}

#[test]
fn a_connection_is_its_own_state() {
    // 2 168 B before the layout, the programs, their fused forms and the
    // span tables moved into the plan.
    let size = std::mem::size_of::<Connection>();
    assert!(size <= 1700, "size_of::<Connection>() = {size}");
    // Of which the introspection record, held by value (352 B, the
    // probe 128 of them): what boxing it would take off the connection,
    // less a pointer.
    let intro = std::mem::size_of::<pa::core::conn::Introspection>();
    assert!(intro <= 360, "size_of::<Introspection>() = {intro}");
}
