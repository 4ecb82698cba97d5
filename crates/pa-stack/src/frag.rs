//! Fragmentation / reassembly (§6).
//!
//! "The PA does not fragment messages. Therefore, the pre-processing of
//! large messages needs to be handled by the protocol stack. The
//! fragmentation/reassembly layer adds code to the send packet filter to
//! reject messages over a certain size to accomplish this. Also, by
//! using a protocol-specific bit that is non-zero if and only if the
//! message is a fragment of a larger message, it makes sure that the
//! receiving PA does not 'predict' the header, so that it is passed to
//! the protocol stack for reassembly."
//!
//! This layer sits **above** the window layer, so fragments are
//! individually sequenced, retransmitted, and delivered in order —
//! which makes reassembly a simple append.
//!
//! Every buffer here is the connection's (§6: messages are allocated
//! and freed explicitly). Fragments are cut into pooled buffers and the
//! engine takes the fragmented original back; reassembly appends each
//! fragment's body to one pooled buffer, taken when the first fragment
//! arrives and handed upward as the message when the last one does.

use pa_buf::Msg;
use pa_core::{
    Declare, DeliverAction, DisableReason, Handles, Layer, LayerCtx, LayerShape, SendAction,
};
use pa_filter::Op;
use pa_wire::{Class, Field, LayoutError};

/// Filter failure code: message exceeds the fragmentation threshold
/// (forces the slow path, where this layer splits it).
pub const ERR_TOO_BIG: i64 = 0x20;

/// Most fragments one message may arrive in (or be cut into). A peer
/// that keeps sending fragments and never a last one would otherwise
/// grow the reassembly buffer without limit and keep the delivery fast
/// path shut for good; at the paper stack's 4 KiB MTU this is 4 MiB a
/// message.
pub const MAX_FRAGMENTS: usize = 1024;

/// The fragmentation/reassembly layer.
#[derive(Debug)]
pub struct FragLayer {
    /// Maximum body (packing header + payload) bytes per frame.
    mtu: usize,
    f_flag: Option<Field>,
    f_last: Option<Field>,
    /// The message under reassembly: the body bytes of the fragments
    /// seen so far (they arrive in order thanks to the window below),
    /// in the buffer that will be delivered.
    partial: Option<Msg>,
    /// Fragments appended to `partial` so far.
    fragments: usize,
    /// The message arriving overran [`MAX_FRAGMENTS`]: its remaining
    /// fragments are dropped, up to its last one (or the next
    /// unfragmented message — the window below delivers in order, so
    /// either ends it).
    discarding: bool,
    /// Body bytes of the last message reassembled: what the next one is
    /// asked room for, so a stream of large messages keeps landing in
    /// buffers that already grew to their size.
    last_len: usize,
    fragments_sent: u64,
    messages_reassembled: u64,
    reassembly_overflows: u64,
}

impl FragLayer {
    /// Creates a fragmentation layer with the given body MTU.
    pub fn new(mtu: usize) -> FragLayer {
        assert!(mtu >= 8, "mtu must fit at least a packing header + data");
        FragLayer {
            mtu,
            f_flag: None,
            f_last: None,
            partial: None,
            fragments: 0,
            discarding: false,
            last_len: 0,
            fragments_sent: 0,
            messages_reassembled: 0,
            reassembly_overflows: 0,
        }
    }

    /// Fragments produced on the send side so far.
    pub fn fragments_sent(&self) -> u64 {
        self.fragments_sent
    }

    /// Large messages reassembled on the receive side so far.
    pub fn messages_reassembled(&self) -> u64 {
        self.messages_reassembled
    }

    /// Messages discarded mid-reassembly because they arrived in more
    /// than [`MAX_FRAGMENTS`] fragments.
    pub fn reassembly_overflows(&self) -> u64 {
        self.reassembly_overflows
    }

    /// Two protocol bits; the send filter rejects bodies over the MTU
    /// (`words[0]`), diverting them to the slow path where `pre_send`
    /// fragments them.
    fn declare(d: &mut Declare<'_>, words: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Protocol, "frag_flag", 1, None)?;
        d.add_field(Class::Protocol, "frag_last", 1, None)?;
        d.send_filter([
            Op::PushBodySize,
            Op::PushConst(words[0]),
            Op::Gt,
            Op::Abort(ERR_TOO_BIG),
        ]);
        Ok(())
    }

    fn header_len(&self, ctx: &LayerCtx<'_>) -> usize {
        ctx.layout.class_len(Class::Protocol)
            + ctx.layout.class_len(Class::Message)
            + ctx.layout.class_len(Class::Gossip)
    }
}

impl Layer for FragLayer {
    fn name(&self) -> &'static str {
        "frag"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(FragLayer::declare, [self.mtu as i64])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [f_flag, f_last] = handles.fields();
        self.f_flag = Some(f_flag);
        self.f_last = Some(f_last);
    }

    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        let hdr = self.header_len(ctx);
        let body_len = msg.len() - hdr;
        if body_len <= self.mtu {
            // Small message: frag fields stay zero (the predicted
            // common case).
            return SendAction::Continue;
        }
        // Split the body into MTU-sized fragment frames.
        let (f_flag, f_last) = (self.f_flag.expect("bound"), self.f_last.expect("bound"));
        let total = body_len.div_ceil(self.mtu);
        if total > MAX_FRAGMENTS {
            return SendAction::Reject("more fragments than the peer reassembles");
        }
        let mut parts = Vec::with_capacity(total);
        let mut off = hdr;
        for i in 0..total {
            let take = self.mtu.min(msg.len() - off);
            let mut part = ctx.buf_with(msg.get(off, take).expect("sized above"));
            off += take;
            part.push_front_zeroed(hdr);
            {
                let mut frame = ctx.frame(&mut part);
                frame.write(f_flag, 1);
                frame.write(f_last, (i + 1 == total) as u64);
            }
            parts.push(part);
        }
        self.fragments_sent += parts.len() as u64;
        SendAction::Split(parts)
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        let f_flag = self.f_flag.expect("bound");
        let flag = ctx.frame(msg).read(f_flag);
        if flag == 0 {
            DeliverAction::Continue
        } else {
            // Fragment: consumed here, reassembled in post.
            DeliverAction::Consume
        }
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        let (f_flag, f_last) = (self.f_flag.expect("bound"), self.f_last.expect("bound"));
        let (flag, last) = (ctx.read_field(msg, f_flag), ctx.read_field(msg, f_last));
        if flag == 0 || self.discarding {
            self.discarding = flag == 1 && last == 0;
            return;
        }
        let hdr = self.header_len(ctx);
        let body = &msg.as_slice()[hdr..];
        match &mut self.partial {
            Some(partial) => partial.push_back(body),
            None => {
                // First fragment: hold the delivery fast path shut until the
                // whole message is rebuilt, and say why. Every in-between
                // fragment would miss prediction anyway (frag_flag = 1), but
                // the attributed hold makes the episode legible: the xray
                // report shows `frag / frag-pending` instead of a pile of
                // per-fragment field misses.
                ctx.disable_recv(DisableReason::FragPending);
                let room = self.last_len.saturating_sub(body.len());
                self.partial = Some(ctx.buf_with_room(body, room));
            }
        }
        self.fragments += 1;
        if last == 0 && self.fragments < MAX_FRAGMENTS {
            return;
        }
        self.fragments = 0;
        ctx.enable_recv(DisableReason::FragPending);
        let mut whole = self.partial.take().expect("a fragment was just appended");
        if last == 1 {
            // Put a frame around the reassembled body — zeroed headers
            // in the buffer's headroom, frag fields zero: an
            // ordinary-looking frame — and hand it upward.
            self.last_len = whole.len();
            whole.push_front_zeroed(hdr);
            self.messages_reassembled += 1;
            ctx.emit_up(whole);
        } else {
            // The cap, and still no last fragment: give the message up
            // and the fast path back.
            self.reassembly_overflows += 1;
            self.discarding = true;
            ctx.put_buf(whole);
        }
    }

    fn bufs_held(&self) -> usize {
        self.partial.is_some() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Shared;
    use crate::window::{WindowConfig, WindowLayer};
    use pa_core::{Connection, ConnectionParams, DeliverOutcome, PaConfig, SendOutcome};
    use pa_wire::EndpointAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A connection over a window (acknowledging every frame) under
    /// `frag`.
    fn conn(frag: Box<dyn Layer>, config: PaConfig, l: u64, p: u64, seed: u64) -> Connection {
        let window = WindowLayer::new(WindowConfig {
            ack_every: 1,
            ..WindowConfig::default()
        });
        Connection::new(
            vec![Box::new(window), frag],
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 3),
                EndpointAddr::from_parts(p, 3),
                seed,
            ),
        )
        .unwrap()
    }

    fn pair(mtu: usize) -> (Connection, Connection) {
        let mk = |l, p, s| {
            conn(
                Box::new(FragLayer::new(mtu)),
                PaConfig::paper_default(),
                l,
                p,
                s,
            )
        };
        (mk(1, 2, 31), mk(2, 1, 32))
    }

    /// Every buffer taken from either pool is back in one or held by a
    /// layer — nothing else allocates a buffer on this path, and
    /// `converge` recycles what it delivers.
    fn assert_pools_balance(a: &Connection, b: &Connection) {
        let (pa, pb) = (a.pool_stats(), b.pool_stats());
        let held = (a.bufs_held_by_layers() + b.bufs_held_by_layers()) as u64;
        assert_eq!(
            pa.hits + pa.misses + pb.hits + pb.misses,
            pa.returns + pb.returns + held,
            "a {pa:?}, b {pb:?}, held {held}"
        );
    }

    fn converge(a: &mut Connection, b: &mut Connection) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for _ in 0..128 {
            let mut moved = false;
            while let Some(f) = a.poll_transmit() {
                b.deliver_frame(f);
                moved = true;
            }
            while let Some(f) = b.poll_transmit() {
                a.deliver_frame(f);
                moved = true;
            }
            a.process_pending();
            b.process_pending();
            if !moved && !a.has_pending() && !b.has_pending() {
                break;
            }
        }
        while let Some(m) = b.poll_delivery() {
            got.push(m.to_wire());
            b.recycle(m);
        }
        got
    }

    #[test]
    fn small_messages_pass_unfragmented() {
        let (mut a, mut b) = pair(64);
        let out = a.send(b"small");
        assert_eq!(out, SendOutcome::FastPath, "under MTU stays fast");
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![b"small".to_vec()]);
    }

    #[test]
    fn oversized_message_takes_slow_path_and_reassembles() {
        let (mut a, mut b) = pair(32);
        let payload: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        let out = a.send(&payload);
        assert_eq!(
            out,
            SendOutcome::SlowPath,
            "filter rejected, layer fragments"
        );
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![payload]);
        assert!(a.stats().frames_out > 3, "several fragments went out");
    }

    #[test]
    fn fragment_boundary_exact_multiple() {
        let (mut a, mut b) = pair(32);
        // Body = packing header (1) + payload; make payload such that
        // body is an exact multiple of mtu.
        let payload = vec![7u8; 63]; // body 64 = 2 × 32
        a.send(&payload);
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![payload]);
        assert_eq!(a.stats().frames_out, 2);
        assert_pools_balance(&a, &b);
    }

    #[test]
    fn one_byte_over_the_mtu_is_a_second_fragment() {
        let (mut a, mut b) = pair(32);
        let payload: Vec<u8> = (0..32u8).collect(); // body 33 = 32 + 1
        assert_eq!(a.send(&payload), SendOutcome::SlowPath);
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![payload]);
        assert_eq!(a.stats().frames_out, 2);
        assert_pools_balance(&a, &b);
        // One byte fewer fits a frame and is not fragmented at all.
        assert_eq!(a.send(&[7u8; 31]), SendOutcome::FastPath);
        assert_eq!(converge(&mut a, &mut b), vec![vec![7u8; 31]]);
        assert_eq!(a.stats().frames_out, 3);
        assert_pools_balance(&a, &b);
    }

    #[test]
    fn interleaved_small_and_large() {
        let (mut a, mut b) = pair(32);
        a.send(b"first-small");
        converge(&mut a, &mut b);
        let big = vec![9u8; 150];
        a.send(&big);
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![big]);
        a.send(b"last-small");
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![b"last-small".to_vec()]);
        assert_pools_balance(&a, &b);
        assert_eq!(a.bufs_held_by_layers() + b.bufs_held_by_layers(), 0);
    }

    /// A sender's fragmentation layer gone wrong: while `on` is set,
    /// every message leaves marked a fragment, and never the last.
    struct NeverLast {
        inner: FragLayer,
        on: Arc<AtomicBool>,
    }

    impl Layer for NeverLast {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn shape(&self) -> LayerShape {
            self.inner.shape()
        }
        fn bind(&mut self, handles: Handles<'_>) {
            self.inner.bind(handles)
        }
        fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
            if self.on.load(Ordering::Relaxed) {
                ctx.frame(msg).write(self.inner.f_flag.expect("bound"), 1);
            }
            SendAction::Continue
        }
        fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
        fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
            self.inner.pre_deliver(ctx, msg)
        }
        fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
            self.inner.post_deliver(ctx, msg)
        }
    }

    #[test]
    fn a_message_that_never_ends_is_given_up_at_the_cap() {
        let on = Arc::new(AtomicBool::new(true));
        let never_last = NeverLast {
            inner: FragLayer::new(32),
            on: on.clone(),
        };
        // Prediction off: every send runs the layers, so the flag is set.
        let layered = PaConfig {
            predict: false,
            ..PaConfig::paper_default()
        };
        let mut a = conn(Box::new(never_last), layered, 1, 2, 31);
        let (shared, frag) = Shared::new(FragLayer::new(32));
        let mut b = conn(Box::new(shared), PaConfig::paper_default(), 2, 1, 32);

        for i in 0..MAX_FRAGMENTS {
            assert_eq!(frag.lock().unwrap().reassembly_overflows(), 0, "at {i}");
            a.send(&[i as u8; 8]);
            assert!(converge(&mut a, &mut b).is_empty());
        }
        assert_eq!(frag.lock().unwrap().reassembly_overflows(), 1);
        assert_eq!(b.bufs_held_by_layers(), 0, "the partial message went back");
        assert!(b.recv_prediction().enabled(), "and the hold with it");
        // The run goes on; what follows the cap is dropped, not piled up.
        for _ in 0..3 {
            a.send(b"more");
            assert!(converge(&mut a, &mut b).is_empty());
        }
        assert_eq!(b.bufs_held_by_layers(), 0);
        assert!(b.recv_prediction().enabled());
        assert_eq!(frag.lock().unwrap().reassembly_overflows(), 1);

        // An ordinary message ends it, and takes the fast path.
        on.store(false, Ordering::Relaxed);
        a.send(b"small");
        a.process_pending();
        let out = b.deliver_frame(a.poll_transmit().expect("one frame"));
        assert_eq!(out, DeliverOutcome::Fast { msgs: 1 });
        assert_eq!(converge(&mut a, &mut b), vec![b"small".to_vec()]);
        assert!(b.stats().delivery_balanced());
        assert!(a.stats().delivery_balanced());
        assert_eq!(frag.lock().unwrap().messages_reassembled(), 0);
    }

    #[test]
    fn a_message_of_more_fragments_than_the_cap_is_refused_at_the_sender() {
        let (mut a, mut b) = pair(8);
        a.send(&vec![1u8; 8 * MAX_FRAGMENTS]); // body is one byte more
        assert_eq!(a.stats().drops_send_rejected, 1);
        assert_eq!(a.stats().frames_out, 0);
        assert!(converge(&mut a, &mut b).is_empty());
        // The largest that fits goes through whole.
        let payload = vec![2u8; 8 * MAX_FRAGMENTS - 1];
        a.send(&payload);
        assert_eq!(converge(&mut a, &mut b), vec![payload]);
        assert_eq!(a.stats().frames_out, MAX_FRAGMENTS as u64);
        assert_pools_balance(&a, &b);
    }

    #[test]
    fn lost_fragment_recovered_by_window_below() {
        let (mut a, mut b) = pair(32);
        let payload: Vec<u8> = (0..100u8).collect();
        a.send(&payload);
        a.process_pending();
        // Drop the second fragment frame.
        let f0 = a.poll_transmit().unwrap();
        let _lost = a.poll_transmit().unwrap();
        b.deliver_frame(f0);
        b.process_pending();
        converge(&mut a, &mut b);
        assert!(b.poll_delivery().is_none(), "incomplete without fragment");
        // Retransmission timer recovers it.
        a.tick(50_000_000);
        let got = converge(&mut a, &mut b);
        assert_eq!(got, vec![payload]);
    }

    #[test]
    fn fragment_counters() {
        let mut frag = FragLayer::new(32);
        assert_eq!(frag.fragments_sent(), 0);
        assert_eq!(frag.messages_reassembled(), 0);
        let _ = &mut frag;
    }

    #[test]
    #[should_panic(expected = "mtu")]
    fn tiny_mtu_rejected() {
        FragLayer::new(4);
    }
}
