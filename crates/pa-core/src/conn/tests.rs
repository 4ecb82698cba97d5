#![cfg(test)]
//! The engine's unit tests: one instrumented sequence-number layer
//! over a connection pair, driven through every path.

use super::*;
use crate::layer::{Declare, DeliverAction, Handles, LayerCtx, LayerShape, NullLayer, SendAction};
use crate::packing::MAX_EMPTY_PIECES;
use pa_filter::{DigestKind, Op};
use pa_obs::{SlowCause, TraceEvent};
use pa_wire::{Class, Field, LayoutError};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

// `Layer: Send` exists so a whole connection can be shipped to a
// drain thread; pin that property at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Connection>();
};

/// A sequence-number layer instrumented with call counters —
/// exercises fields, filters, prediction, disable, and the
/// canonical-form split.
struct SeqLayer {
    seq_f: Option<Field>,
    len_f: Option<Field>,
    ck_f: Option<Field>,
    next_send: u64,
    next_recv: u64,
    pre_sends: Arc<AtomicU32>,
    post_sends: Arc<AtomicU32>,
    pre_delivers: Arc<AtomicU32>,
    post_delivers: Arc<AtomicU32>,
}

struct Counters {
    pre_sends: Arc<AtomicU32>,
    post_sends: Arc<AtomicU32>,
    pre_delivers: Arc<AtomicU32>,
    post_delivers: Arc<AtomicU32>,
}

impl SeqLayer {
    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Protocol, "seq", 32, None)?;
        let len = d.add_field(Class::Message, "len", 16, None)?;
        let ck = d.add_field(Class::Message, "ck", 16, None)?;
        d.send_filter([
            Op::PushSize,
            Op::PopField(len),
            Op::Digest(DigestKind::InternetChecksum),
            Op::PopField(ck),
        ]);
        d.recv_filter([
            Op::PushField(len),
            Op::PushSize,
            Op::Ne,
            Op::Abort(1),
            Op::PushField(ck),
            Op::Digest(DigestKind::InternetChecksum),
            Op::Ne,
            Op::Abort(2),
        ]);
        Ok(())
    }
}

fn seq_layer() -> (SeqLayer, Counters) {
    let c = Counters {
        pre_sends: Arc::new(AtomicU32::new(0)),
        post_sends: Arc::new(AtomicU32::new(0)),
        pre_delivers: Arc::new(AtomicU32::new(0)),
        post_delivers: Arc::new(AtomicU32::new(0)),
    };
    let l = SeqLayer {
        seq_f: None,
        len_f: None,
        ck_f: None,
        next_send: 0,
        next_recv: 0,
        pre_sends: c.pre_sends.clone(),
        post_sends: c.post_sends.clone(),
        pre_delivers: c.pre_delivers.clone(),
        post_delivers: c.post_delivers.clone(),
    };
    (l, c)
}

impl Layer for SeqLayer {
    fn name(&self) -> &'static str {
        "seq-test"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(SeqLayer::declare, [])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [seq, len, ck] = handles.fields();
        self.seq_f = Some(seq);
        self.len_f = Some(len);
        self.ck_f = Some(ck);
    }

    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        self.pre_sends.fetch_add(1, Ordering::Relaxed);
        let f = self.seq_f.unwrap();
        ctx.frame(msg).write(f, self.next_send);
        SendAction::Continue
    }

    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.post_sends.fetch_add(1, Ordering::Relaxed);
        self.next_send += 1;
        let f = self.seq_f.unwrap();
        ctx.send_predict.set(ctx.layout, f, self.next_send);
    }

    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        self.pre_delivers.fetch_add(1, Ordering::Relaxed);
        let f = self.seq_f.unwrap();
        let seq = ctx.frame(msg).read(f);
        if seq == self.next_recv {
            DeliverAction::Continue
        } else {
            DeliverAction::Drop("out of sequence")
        }
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.post_delivers.fetch_add(1, Ordering::Relaxed);
        let f = self.seq_f.unwrap();
        let mut m = msg.clone();
        let seq = ctx.frame(&mut m).read(f);
        if seq == self.next_recv {
            self.next_recv += 1;
            ctx.recv_predict.set(ctx.layout, f, self.next_recv);
        }
    }
}

fn pair(config: PaConfig) -> (Connection, Connection, Counters, Counters) {
    let (la, ca) = seq_layer();
    let (lb, cb) = seq_layer();
    let a = Connection::new(
        vec![Box::new(la)],
        config,
        ConnectionParams::new(
            EndpointAddr::from_parts(1, 7),
            EndpointAddr::from_parts(2, 7),
            1,
        ),
    )
    .unwrap();
    let b = Connection::new(
        vec![Box::new(lb)],
        config,
        ConnectionParams::new(
            EndpointAddr::from_parts(2, 7),
            EndpointAddr::from_parts(1, 7),
            2,
        ),
    )
    .unwrap();
    (a, b, ca, cb)
}

/// Shuttles all queued frames from `from` to `to`, returning
/// delivered payloads.
fn shuttle(from: &mut Connection, to: &mut Connection) -> Vec<Vec<u8>> {
    while let Some(frame) = from.poll_transmit() {
        to.deliver_frame(frame);
    }
    let mut out = Vec::new();
    while let Some(m) = to.poll_delivery() {
        out.push(m.to_wire());
    }
    out
}

#[test]
fn rotate_cookie_mints_fresh_reannounces_ident_and_stales_the_old() {
    let (mut a, mut b, _ca, _cb) = pair(PaConfig::paper_default());
    a.send(b"m0");
    a.process_pending();
    shuttle(&mut a, &mut b);
    let old = a.local_cookie();

    // Steady state: cookie-only frames. Capture one for replay.
    a.send(b"m1");
    a.process_pending();
    let captured = a.poll_transmit().unwrap().to_wire();
    assert_eq!(captured[0] & 0x80, 0, "steady state is cookie-only");
    b.deliver_frame(Msg::from_wire(captured.clone()));
    while b.poll_delivery().is_some() {}

    a.rotate_cookie(0x5EED);
    assert_ne!(a.local_cookie(), old, "rotation mints a fresh cookie");
    a.send(b"m2");
    a.process_pending();
    let bytes = a.poll_transmit().unwrap().to_wire();
    assert_ne!(bytes[0] & 0x80, 0, "rotation re-announces the ident");
    let word = u64::from_be_bytes(bytes[..8].try_into().unwrap());
    assert_eq!(
        word & !(0b11u64 << 62),
        a.local_cookie().raw(),
        "the re-announcement carries the new cookie"
    );
    b.deliver_frame(Msg::from_wire(bytes));
    assert_eq!(b.peer_cookie(), Some(a.local_cookie()));

    // A pre-rotation capture replays as stale, not unknown — and
    // the ledger accounts it.
    let out = b.deliver_frame(Msg::from_wire(captured));
    assert_eq!(out, DeliverOutcome::Dropped(RejectReason::StaleCookie));
    assert!(b.stats().delivery_balanced());
    assert!(b.stats().rejects_reconcile());
}

#[test]
fn first_send_is_fast_and_carries_ident() {
    let (mut a, mut b, ca, _cb) = pair(PaConfig::paper_default());
    assert_eq!(a.send(b"m0"), SendOutcome::FastPath);
    assert_eq!(
        ca.pre_sends.load(Ordering::Relaxed),
        0,
        "fast path entered no layer"
    );
    assert_eq!(a.stats().ident_frames_out, 1);
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got, vec![b"m0".to_vec()]);
}

#[test]
fn fast_path_sequence_with_lazy_posts() {
    let (mut a, mut b, ca, cb) = pair(PaConfig::paper_default());
    for i in 0..5u8 {
        let outcome = a.send(&[i]);
        assert_eq!(outcome, SendOutcome::FastPath, "send {i}");
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![vec![i]]);
        // Posts are lazy: run them now, out of the "critical path".
        a.process_pending();
        b.process_pending();
    }
    assert_eq!(ca.pre_sends.load(Ordering::Relaxed), 0);
    assert_eq!(ca.post_sends.load(Ordering::Relaxed), 5);
    assert_eq!(
        cb.pre_delivers.load(Ordering::Relaxed),
        0,
        "all deliveries predicted"
    );
    assert_eq!(cb.post_delivers.load(Ordering::Relaxed), 5);
    assert_eq!(b.stats().fast_deliveries, 5);
}

#[test]
fn sends_without_post_processing_backlog_and_pack() {
    let (mut a, mut b, _ca, _cb) = pair(PaConfig::paper_default());
    assert_eq!(a.send(b"aaaa"), SendOutcome::FastPath);
    // Post-processing hasn't run: these must queue.
    assert_eq!(a.send(b"bbbb"), SendOutcome::Queued);
    assert_eq!(a.send(b"cccc"), SendOutcome::Queued);
    assert_eq!(a.send(b"dddd"), SendOutcome::Queued);
    assert_eq!(a.backlog_len(), 3);

    let report = a.process_pending();
    assert_eq!(report.backlog_drained, 3);
    assert!(report.packed, "same-size run packs into one frame");
    assert_eq!(a.stats().packed_frames, 1);
    assert_eq!(a.stats().frames_out, 2, "one plain + one packed frame");

    let got = shuttle(&mut a, &mut b);
    assert_eq!(
        got,
        vec![
            b"aaaa".to_vec(),
            b"bbbb".to_vec(),
            b"cccc".to_vec(),
            b"dddd".to_vec()
        ]
    );
    assert_eq!(b.stats().msgs_delivered, 4);
}

#[test]
fn different_size_backlog_drains_same_size_runs() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    a.send(b"x");
    a.send(b"yy"); // queued, size 2
    a.send(b"zz"); // queued, size 2
    a.send(b"w"); // queued, size 1
    assert_eq!(a.backlog_len(), 3);
    let r = a.process_pending(); // the [yy,zz] run, packed; w is not of it
    assert_eq!((r.backlog_drained, r.packed), (2, true));
    let r = a.process_pending(); // [w], alone
    assert_eq!((r.backlog_drained, r.packed), (1, false));
    a.process_pending();
    assert_eq!(a.backlog_len(), 0);
    let got = shuttle(&mut a, &mut b);
    assert_eq!(
        got,
        vec![b"x".to_vec(), b"yy".to_vec(), b"zz".to_vec(), b"w".to_vec()]
    );

    // A same-size run longer than `max_pack` is cut at it and the rest
    // drains next; with packing off (`max_pack` 1), or `max_pack` 0,
    // every drain still takes one message. Every case delivers first
    // in, first out.
    for (max_pack, drains) in [(3, vec![3, 2, 1]), (0, vec![1; 6]), (1, vec![1; 6])] {
        let cfg = PaConfig {
            max_pack,
            ..PaConfig::paper_default()
        };
        let (mut a, mut b, ..) = pair(cfg);
        let sent: Vec<Vec<u8>> = (0..6u8)
            .map(|i| vec![i; 4])
            .chain([b"tail!".to_vec()])
            .collect();
        for m in &sent {
            a.send(m);
        }
        assert_eq!(a.backlog_len(), 6, "the first send went out fast");
        let got: Vec<u64> = std::iter::from_fn(|| {
            let n = a.process_pending().backlog_drained;
            (n > 0).then_some(n)
        })
        .collect();
        assert_eq!(got, drains, "max_pack {max_pack}");
        assert_eq!(
            a.stats().packed_frames,
            drains.iter().filter(|&&n| n > 1).count() as u64
        );
        assert_eq!(shuttle(&mut a, &mut b), sent);
    }
}

/// Queues `count` sends of `size` bytes behind a first one over a null
/// stack with `max_pack` set, drains the backlog, and checks that every
/// message arrives in order, with no frame refused. Returns the drains.
fn drain_a_long_backlog(count: usize, size: usize, max_pack: usize) -> Vec<u64> {
    let cfg = PaConfig {
        max_pack,
        ..PaConfig::paper_default()
    };
    let (mut a, mut b) = null_pair(cfg);
    let sent: Vec<Vec<u8>> = (0..=count).map(|i| vec![i as u8; size]).collect();
    for m in &sent {
        a.send(m);
    }
    assert_eq!(a.backlog_len(), count, "the first send went out fast");
    let drains: Vec<u64> = std::iter::from_fn(|| {
        let n = a.process_pending().backlog_drained;
        (n > 0).then_some(n)
    })
    .collect();
    assert_eq!(shuttle(&mut a, &mut b), sent);
    assert!(b.stats().delivery_balanced());
    assert_eq!(b.stats().rejects.get(RejectReason::MalformedPackInfo), 0);
    drains
}

#[test]
fn a_run_longer_than_a_header_can_count_is_cut_at_65_535() {
    let drains = drain_a_long_backlog(70_000, 8, 100_000);
    assert_eq!(drains, [65_535, 70_000 - 65_535]);
}

#[test]
fn a_run_of_empty_messages_is_cut_where_the_receiver_takes_it() {
    let drains = drain_a_long_backlog(2_000, 0, 4096);
    assert_eq!(
        drains,
        [MAX_EMPTY_PIECES as u64, 2_000 - MAX_EMPTY_PIECES as u64]
    );
}

#[test]
fn eager_mode_never_queues() {
    let cfg = PaConfig {
        lazy_post: false,
        ..PaConfig::paper_default()
    };
    let (mut a, mut b, ca, _cb) = pair(cfg);
    for i in 0..4u8 {
        let outcome = a.send(&[i; 8]);
        assert!(
            matches!(outcome, SendOutcome::FastPath | SendOutcome::Queued),
            "{outcome:?}"
        );
        assert!(!a.has_pending(), "eager mode drains immediately");
    }
    assert_eq!(ca.post_sends.load(Ordering::Relaxed), 4);
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got.len(), 4);
}

#[test]
fn no_predict_takes_slow_path() {
    let cfg = PaConfig {
        predict: false,
        lazy_post: false,
        ..PaConfig::paper_default()
    };
    let (mut a, mut b, ca, cb) = pair(cfg);
    a.send(b"slow");
    assert_eq!(ca.pre_sends.load(Ordering::Relaxed), 1, "layer entered");
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got, vec![b"slow".to_vec()]);
    assert!(cb.pre_delivers.load(Ordering::Relaxed) >= 1);
    assert_eq!(a.stats().slow_sends, 1);
}

#[test]
fn baseline_config_works_end_to_end() {
    let (mut a, mut b, ..) = pair(PaConfig::no_pa_baseline());
    for i in 0..3u8 {
        a.send(&[i]);
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![vec![i]]);
    }
    assert_eq!(a.stats().fast_sends, 0);
    assert_eq!(b.stats().fast_deliveries, 0);
    assert_eq!(a.stats().ident_frames_out, 3, "ident on every frame");
}

#[test]
fn corrupted_frame_rejected_by_filter_then_layer() {
    let (mut a, mut b, _ca, cb) = pair(PaConfig::paper_default());
    a.send(b"fragile payload");
    let mut frame = a.poll_transmit().unwrap();
    let n = frame.len() - 1;
    frame.set_byte_at(n, frame.byte_at(n) ^ 0xFF);
    let out = b.deliver_frame(frame);
    // The delivery filter catches the checksum mismatch, forcing the
    // slow path; the layer (which has no checksum logic) continues,
    // so the corrupt message is delivered by this minimal stack —
    // what matters here is the path taken.
    assert!(matches!(out, DeliverOutcome::Slow { .. }), "{out:?}");
    assert_eq!(b.stats().recv_filter_misses, 1);
    let _ = cb;
}

#[test]
fn out_of_order_sequence_dropped_by_layer() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    // First frame delivered normally (teaches b the cookie).
    a.send(b"first");
    shuttle(&mut a, &mut b);
    a.process_pending();
    b.process_pending();
    // Second frame lost; third arrives out of sequence.
    a.send(b"second");
    a.process_pending();
    a.send(b"third");
    let _lost = a.poll_transmit().unwrap();
    let frame = a.poll_transmit().unwrap();
    let out = b.deliver_frame(frame);
    assert!(matches!(out, DeliverOutcome::Slow { msgs: 0 }), "{out:?}");
    assert_eq!(b.stats().predict_misses, 1);
    assert_eq!(b.stats().drops_by_layer, 1);
    assert!(b.poll_delivery().is_none());
}

#[test]
fn arrival_defers_send_posts_but_drains_recv_posts() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    // b sends something so it has pending *send-side* post work.
    b.send(b"outbound");
    assert!(b.has_pending_send());
    // Two inbound frames: the second arrival must drain the first
    // frame's post-deliver (receive state currency) while leaving
    // b's post-send deferred (Figure 4's sender-side laziness).
    a.send(b"inbound-1");
    let f1 = a.poll_transmit().unwrap();
    b.deliver_frame(f1);
    assert_eq!(b.stats().post_delivers, 0, "recv post deferred");
    assert_eq!(b.stats().post_sends, 0, "send post still deferred");
    a.process_pending();
    a.send(b"inbound-2");
    let f2 = a.poll_transmit().unwrap();
    b.deliver_frame(f2);
    assert_eq!(b.stats().post_delivers, 1, "first recv post drained");
    assert_eq!(b.stats().post_sends, 0, "send post still deferred");
    b.process_pending();
    assert_eq!(b.stats().post_sends, 1);
    assert_eq!(b.poll_delivery().unwrap().as_slice(), b"inbound-1");
    assert_eq!(b.poll_delivery().unwrap().as_slice(), b"inbound-2");
}

#[test]
fn cross_byte_order_peers_interoperate() {
    let (la, _ca) = seq_layer();
    let (lb, _cb) = seq_layer();
    let mut a = Connection::new(
        vec![Box::new(la)],
        PaConfig::paper_default(),
        ConnectionParams {
            local: EndpointAddr::from_parts(1, 7),
            peer: EndpointAddr::from_parts(2, 7),
            seed: 1,
            order: ByteOrder::Little,
        },
    )
    .unwrap();
    let mut b = Connection::new(
        vec![Box::new(lb)],
        PaConfig::paper_default(),
        ConnectionParams {
            local: EndpointAddr::from_parts(2, 7),
            peer: EndpointAddr::from_parts(1, 7),
            seed: 2,
            order: ByteOrder::Big,
        },
    )
    .unwrap();
    for i in 0..3u8 {
        a.send(&[i, i]);
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![vec![i, i]], "message {i}");
        a.process_pending();
        b.process_pending();
    }
    // After the first (ident-carrying, slow-ish) message, fast
    // deliveries should kick in despite the order difference.
    assert!(b.stats().fast_deliveries >= 2, "{:?}", b.stats());
}

/// A connection pair over a stack of one [`NullLayer`].
fn null_pair(config: PaConfig) -> (Connection, Connection) {
    let conn = |local, peer, seed| {
        Connection::new(
            vec![Box::new(NullLayer)],
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(local, 1),
                EndpointAddr::from_parts(peer, 1),
                seed,
            ),
        )
        .unwrap()
    };
    (conn(1, 2, 5), conn(2, 1, 6))
}

#[test]
fn null_stack_connection_works() {
    let (mut a, mut b) = null_pair(PaConfig::paper_default());
    a.send(b"empty stack");
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got, vec![b"empty stack".to_vec()]);
}

#[test]
fn stack_fingerprint_mismatch_drops_frames() {
    // A peer with a different stack computes a different layout
    // fingerprint, hence a different conn-ident: frames don't match.
    let (la, _) = seq_layer();
    let mut a = Connection::new(
        vec![Box::new(la)],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(1, 1),
            EndpointAddr::from_parts(2, 1),
            5,
        ),
    )
    .unwrap();
    let mut b = Connection::new(
        vec![Box::new(NullLayer)], // different stack!
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(2, 1),
            EndpointAddr::from_parts(1, 1),
            6,
        ),
    )
    .unwrap();
    a.send(b"hello?");
    let frame = a.poll_transmit().unwrap();
    let out = b.deliver_frame(frame);
    assert!(matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
}

#[test]
fn empty_payload_roundtrips() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    a.send(b"");
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got, vec![Vec::<u8>::new()]);
}

#[test]
fn large_payload_without_frag_layer_still_travels() {
    // The SeqLayer stack has no fragmentation and no size filter, so
    // a large message simply rides a large frame.
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    let big = vec![0x5Au8; 10_000];
    a.send(&big);
    let got = shuttle(&mut a, &mut b);
    assert_eq!(got, vec![big]);
}

#[test]
fn interleaved_bidirectional_fast_paths() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    for i in 0..10u8 {
        a.send(&[b'a', i]);
        b.send(&[b'b', i]);
        // Exchange both directions.
        while let Some(f) = a.poll_transmit() {
            b.deliver_frame(f);
        }
        while let Some(f) = b.poll_transmit() {
            a.deliver_frame(f);
        }
        a.process_pending();
        b.process_pending();
    }
    let mut got_b = Vec::new();
    while let Some(m) = b.poll_delivery() {
        got_b.push(m.to_wire());
    }
    let mut got_a = Vec::new();
    while let Some(m) = a.poll_delivery() {
        got_a.push(m.to_wire());
    }
    assert_eq!(got_b.len(), 10);
    assert_eq!(got_a.len(), 10);
    assert!(a.stats().fast_send_ratio() > 0.8);
    assert!(b.stats().fast_send_ratio() > 0.8);
}

#[test]
fn counting_probe_mirrors_stats_and_noop_stays_inert() {
    // The same workload through a Noop probe and a counting probe:
    // the Noop connection must record nothing (no ring, no counts),
    // and the counting connection's event tallies must reconcile
    // with its ConnStats counters exactly.
    let run = |probe: Option<pa_obs::ProbeSink>| {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        if let Some(p) = probe.clone() {
            a.set_probe(p.clone());
            b.set_probe(p);
        }
        for i in 0..6u8 {
            a.send(&[i; 4]);
            a.send(&[i; 4]); // queued (post pending)
            shuttle(&mut a, &mut b);
            a.process_pending();
            a.process_pending();
            shuttle(&mut a, &mut b);
            b.process_pending();
        }
        (a, b)
    };

    let (a, b) = run(None);
    assert!(!a.probe().enabled());
    assert!(a.probe().counts().is_none());
    assert!(a.probe().trace_ring().is_none());
    assert!(a.stats().fast_sends > 0 && a.stats().queued_sends > 0);

    let (a2, b2) = run(Some(pa_obs::ProbeSink::counting()));
    let ca = a2.probe().counts().unwrap();
    assert_eq!(ca.fast_sends, a2.stats().fast_sends);
    assert_eq!(ca.queued, a2.stats().queued_sends);
    assert_eq!(ca.slow_sends, a2.stats().slow_sends);
    assert!(ca.backlog_drains > 0);
    let cb = b2.probe().counts().unwrap();
    assert_eq!(cb.fast_delivers, b2.stats().fast_deliveries);
    assert_eq!(cb.slow_delivers, b2.stats().slow_deliveries);
    // Workload identical with probes attached.
    assert_eq!(a.stats(), a2.stats());
    assert_eq!(b.stats(), b2.stats());
}

#[test]
fn dropped_outcome_increments_exactly_one_drop_counter() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    a.send(b"hello");
    shuttle(&mut a, &mut b);
    a.process_pending();
    b.process_pending();

    // Checks one bad frame: the outcome names a reason, frames_in
    // advances by one, NO delivery is counted, and exactly one drop
    // counter moves — by exactly one.
    let case = |b: &mut Connection, frame: Msg, expect: DropReason, counter: &str| {
        let before = *b.stats();
        let out = b.deliver_frame(frame);
        assert_eq!(out, DeliverOutcome::Dropped(expect), "{counter}");
        let after = *b.stats();
        assert_eq!(after.frames_in, before.frames_in + 1, "{counter}");
        assert_eq!(after.fast_deliveries, before.fast_deliveries, "{counter}");
        assert_eq!(after.slow_deliveries, before.slow_deliveries, "{counter}");
        let drop_names = [
            "drops_unknown_cookie",
            "drops_by_layer",
            "drops_malformed",
            "drops_send_rejected",
        ];
        for ((name, v0), (_, v1)) in before.fields().iter().zip(after.fields()) {
            if drop_names.contains(name) {
                let want = if *name == counter { *v0 + 1 } else { *v0 };
                assert_eq!(v1, want, "{counter}: counter {name}");
            }
        }
        assert!(after.delivery_balanced(), "{counter}:\n{after}");
        // The structured ledger moved by exactly one, in exactly
        // the named reason, and still reconciles with the coarse
        // drop counters.
        assert_eq!(
            after.rejects.get(expect),
            before.rejects.get(expect) + 1,
            "{counter}: reject ledger"
        );
        assert_eq!(
            after.rejects.total(),
            before.rejects.total() + 1,
            "{counter}: exactly one reject counted"
        );
        assert!(after.rejects_reconcile(), "{counter}:\n{after}");
    };

    // Malformed: too short for even a preamble.
    case(
        &mut b,
        Msg::from_wire(vec![1, 2, 3]),
        DropReason::TruncatedPreamble,
        "drops_malformed",
    );

    // Unknown cookie: a real frame whose cookie bits got flipped
    // (byte 7 is pure cookie; no conn-ident to recover by).
    a.send(b"again");
    let mut f = a.poll_transmit().unwrap();
    f.set_byte_at(7, f.byte_at(7) ^ 0xFF);
    case(&mut b, f, DropReason::UnknownCookie, "drops_unknown_cookie");

    // Foreign ident: the first frame of an unrelated connection
    // carries a conn-ident naming other endpoints.
    let (third, _) = seq_layer();
    let mut c = Connection::new(
        vec![Box::new(third)],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(8, 7),
            EndpointAddr::from_parts(9, 7),
            77,
        ),
    )
    .unwrap();
    c.send(b"not for b");
    let foreign = c.poll_transmit().unwrap();
    case(
        &mut b,
        foreign,
        DropReason::ForeignIdent,
        "drops_unknown_cookie",
    );
}

#[test]
fn ring_probe_carries_miss_cause_before_slow_event() {
    use pa_obs::TraceEvent as E;
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    b.set_probe(pa_obs::ProbeSink::ring(64));
    // Teach b the cookie, then skip a frame to force a predict miss.
    a.send(b"first");
    shuttle(&mut a, &mut b);
    a.process_pending();
    b.process_pending();
    a.send(b"second");
    a.process_pending();
    a.send(b"third");
    let _lost = a.poll_transmit().unwrap();
    let frame = a.poll_transmit().unwrap();
    b.deliver_frame(frame);

    let ring = b.probe().trace_ring().unwrap();
    let records = ring.records();
    let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    let miss = kinds
        .iter()
        .position(|k| *k == "predict-miss")
        .expect("miss diagnosed");
    let slow = kinds
        .iter()
        .position(|k| *k == "slow-deliver")
        .expect("slow path taken");
    assert!(miss < slow, "cause precedes the slow event: {kinds:?}");
    // The diagnosed field carries the observed vs expected values.
    let Some(E::PredictMiss { expected, got, .. }) = records
        .iter()
        .map(|r| r.event)
        .find(|e| matches!(e, E::PredictMiss { .. }))
    else {
        panic!("no predict-miss event");
    };
    assert_ne!(expected, got);
    // The out-of-sequence drop is also recorded with its layer.
    assert!(records.iter().any(|r| matches!(
        r.event,
        E::Drop {
            reason: pa_obs::DropCause::ByLayer(_)
        }
    )));
}

#[test]
fn filter_reject_event_names_deciding_instruction() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    b.set_probe(pa_obs::ProbeSink::ring(32));
    a.send(b"fragile payload");
    let mut frame = a.poll_transmit().unwrap();
    let n = frame.len() - 1;
    frame.set_byte_at(n, frame.byte_at(n) ^ 0xFF);
    b.deliver_frame(frame);
    let ring = b.probe().trace_ring().unwrap();
    let reject = ring
        .records()
        .iter()
        .find_map(|r| match r.event {
            pa_obs::TraceEvent::FilterReject { pc, op } => Some((pc, op)),
            _ => None,
        })
        .expect("filter reject recorded");
    assert_eq!(reject.1, "ABORT", "checksum mismatch fires an ABORT");
}

#[test]
fn stats_fast_ratio_reflects_paths() {
    let (mut a, mut b, ..) = pair(PaConfig::paper_default());
    for _ in 0..10 {
        a.send(b"payload!");
        shuttle(&mut a, &mut b);
        a.process_pending();
        b.process_pending();
    }
    assert!(a.stats().fast_send_ratio() > 0.9);
    assert!(b.stats().fast_delivery_ratio() > 0.9);
}

// ------------------------------------------------------------------
// In-band trace context (journeys)
// ------------------------------------------------------------------

fn traced_config() -> PaConfig {
    let mut c = PaConfig::paper_default();
    c.trace_ctx = true;
    c
}

#[test]
fn trace_ctx_off_declares_nothing() {
    let (a, ..) = pair(PaConfig::paper_default());
    assert!(a.last_sent_trace().is_none());
    // And the layout is identical to an untraced stack (the golden
    // byte-for-byte check lives in tests/wire_format.rs).
    let (t, ..) = pair(traced_config());
    assert!(
        t.layout().class_len(Class::Message) > a.layout().class_len(Class::Message),
        "trace fields widen the Message class only when opted in"
    );
}

#[test]
fn fast_path_stamps_a_fresh_journey_per_frame() {
    let (mut a, mut b, ..) = pair(traced_config());
    a.set_probe(pa_obs::ProbeSink::ring(64));
    b.set_probe(pa_obs::ProbeSink::ring(64));

    assert_eq!(a.send(b"m0"), SendOutcome::FastPath);
    let (j0, h0) = a.last_sent_trace().unwrap();
    assert_ne!(j0, 0);
    assert_eq!(h0, 0);
    assert_eq!(pa_obs::journey_origin(j0), a.trace_origin());
    assert_eq!(pa_obs::journey_seq(j0), 1, "minting starts at 1");

    shuttle(&mut a, &mut b);
    assert_eq!(b.last_recv_trace(), Some((j0, 0)));
    a.process_pending();

    assert_eq!(a.send(b"m1"), SendOutcome::FastPath);
    let (j1, _) = a.last_sent_trace().unwrap();
    assert_eq!(pa_obs::journey_seq(j1), 2, "each frame mints anew");
    shuttle(&mut a, &mut b);

    // Both rings join into complete journeys.
    let set = pa_obs::JourneySet::reconstruct(&[
        a.probe().trace_ring().unwrap(),
        b.probe().trace_ring().unwrap(),
    ]);
    assert_eq!(set.len(), 2);
    assert_eq!(set.complete_count(), 2);
    assert_eq!(set.orphan_delivers, 0);
}

#[test]
fn slow_and_queued_paths_stamp_too() {
    let mut config = traced_config();
    config.predict = false; // every send takes the slow path
    let (mut a, mut b, ..) = pair(config);
    a.set_probe(pa_obs::ProbeSink::ring(64));
    b.set_probe(pa_obs::ProbeSink::ring(64));
    assert_eq!(a.send(b"slow"), SendOutcome::SlowPath);
    shuttle(&mut a, &mut b);
    let set = pa_obs::JourneySet::reconstruct(&[
        a.probe().trace_ring().unwrap(),
        b.probe().trace_ring().unwrap(),
    ]);
    assert_eq!(set.complete_count(), 1, "slow path carries the stamp");
}

#[test]
fn untraced_peer_frame_diverts_to_slow_path() {
    // A tracing receiver never fast-delivers a journey-0 frame: the
    // delivery filter aborts with TRACE_MISSING and the layered
    // traversal handles it. (Same-fingerprint peers always agree on
    // trace_ctx; this exercises the defensive check with a frame
    // whose trace field was zeroed in flight.)
    let (mut a, mut b, ..) = pair(traced_config());
    b.set_probe(pa_obs::ProbeSink::ring(64));
    a.send(b"payload");
    let mut frame = a.poll_transmit().unwrap();
    // Zero the journey field bytes in the Message class. The frame
    // starts with preamble + conn-ident (first frame), so locate the
    // Message class from the back: [... proto | message | gossip |
    // packing+payload].
    let layout = a.layout().clone();
    let jf = (0..layout.class(Class::Message).field_count())
        .find(|&i| layout.field_name(Class::Message, i) == Some("trace_journey"))
        .map(|i| Field::new(Class::Message, i))
        .expect("the trace pseudo-layer declared it");
    let msg_len = layout.class_len(Class::Message);
    let gossip = layout.class_len(Class::Gossip);
    let body = b"payload".len() + 1; // packing byte
    let msg_start = frame.len() - body - gossip - msg_len;
    let mut class = frame.get(msg_start, msg_len).unwrap().to_vec();
    layout.write_field(jf, &mut class, a.order, 0);
    for (i, byte) in class.iter().enumerate() {
        frame.set_byte_at(msg_start + i, *byte);
    }
    // The checksum does not cover the Message class, so the frame
    // is otherwise valid.
    let outcome = b.deliver_frame(frame);
    assert!(matches!(outcome, DeliverOutcome::Slow { msgs: 1 }));
    assert!(b.last_recv_trace().is_none(), "journey 0 is not recorded");
    let ring = b.probe().trace_ring().unwrap();
    assert!(
        ring.records().iter().any(|r| matches!(
            r.event,
            TraceEvent::SlowDeliver {
                cause: SlowCause::FilterReject
            }
        )),
        "diverted by the delivery filter"
    );
}

#[test]
fn journeys_cost_nothing_without_probe() {
    // trace_ctx on but probe off: frames carry stamps (the wire
    // format is a contract with the peer), yet no events are
    // emitted anywhere.
    let (mut a, mut b, ..) = pair(traced_config());
    a.send(b"m");
    shuttle(&mut a, &mut b);
    assert!(a.last_sent_trace().is_some());
    assert!(b.last_recv_trace().is_some());
    assert!(a.probe().counts().is_none() && a.probe().trace_ring().is_none());
}
