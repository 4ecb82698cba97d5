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
use pa_core::{DeliverAction, DisableReason, InitCtx, Layer, LayerCtx, SendAction};
use pa_filter::Op;
use pa_wire::{Class, Field};

/// Filter failure code: message exceeds the fragmentation threshold
/// (forces the slow path, where this layer splits it).
pub const ERR_TOO_BIG: i64 = 0x20;

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
    /// Body bytes of the last message reassembled: what the next one is
    /// asked room for, so a stream of large messages keeps landing in
    /// buffers that already grew to their size.
    last_len: usize,
    fragments_sent: u64,
    messages_reassembled: u64,
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
            last_len: 0,
            fragments_sent: 0,
            messages_reassembled: 0,
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

    fn init(&mut self, ctx: &mut InitCtx<'_>) {
        let f_flag = ctx
            .layout
            .add_field(Class::Protocol, "frag_flag", 1, None)
            .expect("valid field");
        let f_last = ctx
            .layout
            .add_field(Class::Protocol, "frag_last", 1, None)
            .expect("valid field");
        self.f_flag = Some(f_flag);
        self.f_last = Some(f_last);
        // The send filter rejects oversized bodies, diverting them to
        // the slow path where pre_send fragments them.
        ctx.send_filter.extend([
            Op::PushBodySize,
            Op::PushConst(self.mtu as i64),
            Op::Gt,
            Op::Abort(ERR_TOO_BIG),
        ]);
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
        let (f_flag, f_last) = (
            self.f_flag.expect("init ran"),
            self.f_last.expect("init ran"),
        );
        let total = body_len.div_ceil(self.mtu);
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
        let f_flag = self.f_flag.expect("init ran");
        let flag = ctx.frame(msg).read(f_flag);
        if flag == 0 {
            DeliverAction::Continue
        } else {
            // Fragment: consumed here, reassembled in post.
            DeliverAction::Consume
        }
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        let (f_flag, f_last) = (
            self.f_flag.expect("init ran"),
            self.f_last.expect("init ran"),
        );
        let (flag, last) = (ctx.read_field(msg, f_flag), ctx.read_field(msg, f_last));
        if flag == 0 {
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
        if last == 1 {
            // Put a frame around the reassembled body — zeroed headers
            // in the buffer's headroom, frag fields zero: an
            // ordinary-looking frame — and hand it upward.
            let mut whole = self.partial.take().expect("a fragment was just appended");
            self.last_len = whole.len();
            whole.push_front_zeroed(hdr);
            self.messages_reassembled += 1;
            ctx.enable_recv(DisableReason::FragPending);
            ctx.emit_up(whole);
        }
    }

    fn bufs_held(&self) -> usize {
        self.partial.is_some() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowConfig, WindowLayer};
    use pa_core::{Connection, ConnectionParams, PaConfig, SendOutcome};
    use pa_wire::EndpointAddr;

    fn stack(mtu: usize) -> Vec<Box<dyn Layer>> {
        vec![
            Box::new(WindowLayer::new(WindowConfig {
                ack_every: 1,
                ..WindowConfig::default()
            })),
            Box::new(FragLayer::new(mtu)),
        ]
    }

    fn pair(mtu: usize) -> (Connection, Connection) {
        let mk = |l: u64, p: u64, s: u64| {
            Connection::new(
                stack(mtu),
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(l, 3),
                    EndpointAddr::from_parts(p, 3),
                    s,
                ),
            )
            .unwrap()
        };
        (mk(1, 2, 31), mk(2, 1, 32))
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
