//! Length + checksum in the message-specific class.
//!
//! This layer is the paper's showcase for packet filters (§3.3): its
//! entire fast-path behaviour is two filter fragments. On send, the
//! filter writes the body length and digest into the message-specific
//! header; on delivery it recomputes and compares, forcing the slow path
//! on mismatch. The layer's own pre-deliver repeats the check on every
//! frame the filter did not pass (the slow path must stand alone) and
//! *drops* corrupt messages — the PA merely diverts them, the stack
//! decides. A frame the filter passed but prediction missed — every
//! fragment of a large message — was verified by that run and is not
//! digested a second time.
//!
//! The digest uses the `DIGEST_HDRS` instruction: it covers the
//! protocol header, the gossip header and the body — everything except
//! the message-specific header the digest itself lives in. Covering the
//! control fields matters: a corrupted piggybacked acknowledgement that
//! slipped through a body-only checksum could falsely acknowledge data
//! the peer never received, and no retransmission would ever repair the
//! loss.

use pa_buf::Msg;
use pa_core::{Declare, DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
use pa_filter::{DigestKind, Op};
use pa_wire::{Class, Field, LayoutError};

/// Filter failure code for a length mismatch.
pub const ERR_LENGTH: i64 = 0x10;
/// Filter failure code for a checksum mismatch.
pub const ERR_CHECKSUM: i64 = 0x11;

/// The digests a checksum layer declares for, indexed by its shape's
/// word.
const KINDS: [DigestKind; 3] = [
    DigestKind::InternetChecksum,
    DigestKind::Crc32,
    DigestKind::Xor8,
];

/// The checksum layer.
#[derive(Debug)]
pub struct ChecksumLayer {
    kind: DigestKind,
    f_len: Option<Field>,
    f_ck: Option<Field>,
    /// Digest mismatches seen by the slow path.
    corrupt_seen: u64,
}

impl ChecksumLayer {
    /// Creates a checksum layer using `kind` as the digest.
    pub fn new(kind: DigestKind) -> ChecksumLayer {
        ChecksumLayer {
            kind,
            f_len: None,
            f_ck: None,
            corrupt_seen: 0,
        }
    }

    /// Number of messages the slow path has dropped for a digest
    /// mismatch (a length-only mismatch is dropped but not counted).
    pub fn corrupt_seen(&self) -> u64 {
        self.corrupt_seen
    }

    fn declare(d: &mut Declare<'_>, words: &[i64]) -> Result<(), LayoutError> {
        let kind = KINDS[words[0] as usize];
        // The checksum field must hold the full digest: 32 bits for
        // CRC-32, 16 otherwise.
        let ck_bits = match kind {
            DigestKind::Crc32 => 32,
            DigestKind::InternetChecksum => 16,
            DigestKind::Xor8 => 8,
        };
        let f_len = d.add_field(Class::Message, "body_len", 16, None)?;
        let f_ck = d.add_field(Class::Message, "checksum", ck_bits, None)?;
        // Send: fill both fields from the message. DIGEST_HDRS must run
        // last in this fragment so every header it covers is final.
        d.send_filter([
            Op::PushBodySize,
            Op::PopField(f_len),
            Op::DigestHeaders(kind),
            Op::PopField(f_ck),
        ]);
        // Delivery: verify both.
        d.recv_filter([
            Op::PushField(f_len),
            Op::PushBodySize,
            Op::Ne,
            Op::Abort(ERR_LENGTH),
            Op::PushField(f_ck),
            Op::DigestHeaders(kind),
            Op::Ne,
            Op::Abort(ERR_CHECKSUM),
        ]);
        Ok(())
    }
}

impl Default for ChecksumLayer {
    fn default() -> Self {
        ChecksumLayer::new(DigestKind::InternetChecksum)
    }
}

impl Layer for ChecksumLayer {
    fn name(&self) -> &'static str {
        "checksum"
    }

    fn shape(&self) -> LayerShape {
        let word = KINDS.iter().position(|&k| k == self.kind);
        LayerShape::new(
            ChecksumLayer::declare,
            [word.expect("every kind is listed") as i64],
        )
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [f_len, f_ck] = handles.fields();
        self.f_len = Some(f_len);
        self.f_ck = Some(f_ck);
    }

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        // Nothing: the engine runs the send filter at the bottom of the
        // slow path too, so the fields are filled either way.
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        if ctx.filter_passed {
            // The delivery filter's fragment above is this very check,
            // and it ran over this frame to its end.
            return DeliverAction::Continue;
        }
        // The slow path re-verifies: a message can reach us down the
        // slow path precisely because the filter rejected it.
        let f_len = self.f_len.expect("bound");
        let f_ck = self.f_ck.expect("bound");
        let frame = ctx.frame(msg);
        let claimed_len = frame.read(f_len);
        let claimed_ck = frame.read(f_ck);
        let actual_len = frame.body_size() as u64;
        let actual_ck =
            self.kind
                .compute_multi(&[frame.proto_hdr(), frame.gossip_hdr(), frame.body()]);
        if claimed_ck != actual_ck {
            // Counted where the verdict is made: every corrupt frame
            // comes through here (the delivery filter diverts it to the
            // slow path), so post-deliver need not digest the body again.
            self.corrupt_seen += 1;
        }
        if claimed_len != actual_len || claimed_ck != actual_ck {
            DeliverAction::Drop("checksum/length mismatch")
        } else {
            DeliverAction::Continue
        }
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Shared;
    use pa_core::{Connection, ConnectionParams, DeliverOutcome, PaConfig};
    use pa_wire::{EndpointAddr, Preamble, PREAMBLE_LEN};

    fn conn(layers: Vec<Box<dyn Layer>>, config: PaConfig, l: u64, p: u64, s: u64) -> Connection {
        let (local, peer) = (
            EndpointAddr::from_parts(l, 9),
            EndpointAddr::from_parts(p, 9),
        );
        Connection::new(layers, config, ConnectionParams::new(local, peer, s)).unwrap()
    }

    fn pair(config: PaConfig) -> (Connection, Connection) {
        let mk = |l, p, s| conn(vec![Box::new(ChecksumLayer::default())], config, l, p, s);
        (mk(1, 2, 11), mk(2, 1, 22))
    }

    #[test]
    fn clean_messages_fast_deliver() {
        let (mut a, mut b) = pair(PaConfig::paper_default());
        a.send(b"intact");
        let f = a.poll_transmit().unwrap();
        assert!(matches!(
            b.deliver_frame(f),
            DeliverOutcome::Fast { msgs: 1 }
        ));
        assert_eq!(b.poll_delivery().unwrap().as_slice(), b"intact");
    }

    #[test]
    fn corrupt_payload_dropped_by_slow_path() {
        let (mut a, mut b) = pair(PaConfig::paper_default());
        a.send(b"will be corrupted");
        let mut f = a.poll_transmit().unwrap();
        let n = f.len() - 3;
        f.set_byte_at(n, f.byte_at(n) ^ 0x55);
        let out = b.deliver_frame(f);
        assert!(matches!(out, DeliverOutcome::Slow { msgs: 0 }), "{out:?}");
        assert_eq!(b.stats().recv_filter_misses, 1);
        assert_eq!(b.stats().drops_by_layer, 1);
        assert!(b.poll_delivery().is_none());
    }

    #[test]
    fn corrupt_header_checksum_field_detected() {
        let (mut a, mut b) = pair(PaConfig::paper_default());
        a.send(b"header corruption");
        let mut f = a.poll_transmit().unwrap();
        // Flip a byte in the header region (after preamble+ident).
        let off = 8 + b.layout().class_len(Class::ConnId) + 1;
        f.set_byte_at(off, f.byte_at(off) ^ 0x01);
        let out = b.deliver_frame(f);
        // Either the checksum layer or a malformed-frame check must stop
        // it — never a clean delivery.
        assert!(b.poll_delivery().is_none(), "{out:?}");
    }

    /// A layer whose delivery-filter fragment refuses every frame, so
    /// that each one reaches the layers below it as one the filter did
    /// not pass.
    struct RefuseAll;

    impl Layer for RefuseAll {
        fn name(&self) -> &'static str {
            "refuse-all"
        }
        fn shape(&self) -> LayerShape {
            LayerShape::new(
                |d, _| {
                    d.recv_filter([Op::PushConst(1), Op::Abort(0x7F)]);
                    Ok(())
                },
                [],
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

    #[test]
    fn slow_path_verification_matches_filter() {
        // Every frame is refused by another layer's fragment, so the
        // checksum layer's own check runs on each: it must accept what
        // the send filter filled in, and nothing else.
        let mk = |l, p, s| {
            let layers: Vec<Box<dyn Layer>> =
                vec![Box::new(ChecksumLayer::default()), Box::new(RefuseAll)];
            conn(layers, PaConfig::paper_default(), l, p, s)
        };
        let (mut a, mut b) = (mk(1, 2, 11), mk(2, 1, 22));
        for i in 0..6u8 {
            a.send(&[i; 32]);
            let mut f = a.poll_transmit().unwrap();
            a.process_pending();
            if i == 5 {
                flip_body_byte(&b, &ChecksumLayer::default(), &mut f);
            }
            let out = b.deliver_frame(f);
            let msgs = (i < 5) as usize;
            assert_eq!(out, DeliverOutcome::Slow { msgs }, "frame {i}");
            b.process_pending();
        }
        assert_eq!(b.stats().recv_filter_misses, 6);
        assert_eq!(b.stats().msgs_delivered, 5);
        assert_eq!(b.stats().drops_by_layer, 1);
    }

    #[test]
    fn the_filters_pass_stands_in_for_the_layers_own_check() {
        // The contract of `LayerCtx::filter_passed`, driven directly:
        // told the filter passed the frame, the layer does not look at
        // it; told nothing, it verifies and counts.
        use pa_core::layer::Effects;
        use pa_core::predict::Prediction;
        use pa_wire::ByteOrder;
        // A layer bound by a connection, and that connection's layout.
        let (shared, layer) = Shared::new(ChecksumLayer::default());
        let conn = conn(vec![Box::new(shared)], PaConfig::paper_default(), 1, 2, 11);
        let layout = conn.layout();
        let mut layer = layer.lock().unwrap();
        let (mut sp, mut rp) = (
            Prediction::new(layout, ByteOrder::Big),
            Prediction::new(layout, ByteOrder::Big),
        );
        let mut effects = Effects::default();
        let mut pool = pa_buf::MsgPool::with_defaults();
        // Zeroed length and checksum fields over a non-empty body: a
        // frame the layer's own check refuses.
        let mut frame = Msg::from_payload(b"body the zero checksum does not cover");
        frame.push_front_zeroed(layout.class_len(Class::Message));
        for (filter_passed, dropped) in [(true, false), (false, true)] {
            let mut ctx = LayerCtx {
                layout,
                order: ByteOrder::Big,
                now: 0,
                send_predict: &mut sp,
                recv_predict: &mut rp,
                effects: &mut effects,
                pool: &mut pool,
                filter_passed,
                image_wanted: false,
            };
            let action = layer.pre_deliver(&mut ctx, &mut frame);
            assert_eq!(matches!(action, DeliverAction::Drop(_)), dropped);
            assert_eq!(layer.corrupt_seen(), dropped as u64);
        }
    }

    #[test]
    fn corrupt_fragment_is_dropped_by_the_layer_and_retransmitted() {
        // Fragments miss prediction but pass the filter, and are not
        // digested twice; a damaged one fails the filter and still
        // meets the layer's own check, which drops and counts it.
        use crate::frag::FragLayer;
        use crate::window::{WindowConfig, WindowLayer};
        let window = WindowConfig {
            ack_every: 1,
            ..WindowConfig::default()
        };
        let (shared, layer) = Shared::new(ChecksumLayer::default());
        let mut stacks: Vec<Vec<Box<dyn Layer>>> = vec![
            vec![Box::new(ChecksumLayer::default())],
            vec![Box::new(shared)],
        ];
        let mut mk = |l: u64, p: u64, s: u64| {
            let mut layers = stacks.remove(0);
            layers.push(Box::new(WindowLayer::new(window)));
            layers.push(Box::new(FragLayer::new(32)));
            conn(layers, PaConfig::paper_default(), l, p, s)
        };
        let (mut a, mut b) = (mk(1, 2, 11), mk(2, 1, 22));
        let payload: Vec<u8> = (0..100u8).collect();
        a.send(&payload);
        a.process_pending();
        let mut frames = Vec::new();
        while let Some(f) = a.poll_transmit() {
            frames.push(f);
        }
        assert_eq!(frames.len(), 4, "101 body bytes in 32-byte fragments");
        flip_body_byte(&b, &layer.lock().unwrap(), &mut frames[1]);
        for f in frames {
            b.deliver_frame(f);
            b.process_pending();
        }
        while let Some(ack) = b.poll_transmit() {
            a.deliver_frame(ack);
        }
        a.process_pending();
        assert_eq!(b.stats().recv_filter_misses, 1);
        assert_eq!(b.stats().drops_by_layer, 1);
        assert_eq!(layer.lock().unwrap().corrupt_seen(), 1);
        assert!(b.poll_delivery().is_none(), "a fragment is missing");
        // The window below frag recovers the dropped fragment.
        a.tick(50_000_000);
        for _ in 0..8 {
            while let Some(f) = a.poll_transmit() {
                b.deliver_frame(f);
            }
            b.process_pending();
            while let Some(f) = b.poll_transmit() {
                a.deliver_frame(f);
            }
            a.process_pending();
        }
        assert_eq!(b.poll_delivery().unwrap().as_slice(), &payload[..]);
        assert_eq!(layer.lock().unwrap().corrupt_seen(), 1);
    }

    /// Sends eight frames from a plain sender to a receiver whose
    /// checksum layer stays readable, passing the fourth through
    /// `damage` (which gets the receiver's layout, its layer and the
    /// frame), and returns `(corrupt_seen, msgs_delivered)`.
    fn corrupt_seen_after(
        config: PaConfig,
        damage: impl Fn(&Connection, &ChecksumLayer, &mut Msg),
    ) -> (u64, u64) {
        let (mut a, _) = pair(config);
        let (shared, layer) = Shared::new(ChecksumLayer::default());
        let mut b = conn(vec![Box::new(shared)], config, 2, 1, 22);
        for i in 0..8u8 {
            a.send(&[i; 24]);
            let mut f = a.poll_transmit().unwrap();
            a.process_pending();
            if i == 3 {
                damage(&b, &layer.lock().unwrap(), &mut f);
            }
            b.deliver_frame(f);
            b.process_pending();
            while b.poll_delivery().is_some() {}
        }
        let seen = layer.lock().unwrap().corrupt_seen();
        (seen, b.stats().msgs_delivered)
    }

    fn flip_body_byte(_: &Connection, _: &ChecksumLayer, f: &mut Msg) {
        let n = f.len() - 3;
        f.set_byte_at(n, f.byte_at(n) ^ 0x55);
    }

    /// Flips the low bit of the `body_len` field: the digest does not
    /// cover the message-specific header, so only the length disagrees.
    fn flip_length_field(b: &Connection, layer: &ChecksumLayer, f: &mut Msg) {
        let ident = Preamble::decode(f.as_slice()).unwrap().conn_ident_present;
        let (_, end) = b.layout().field_byte_span(layer.f_len.unwrap());
        let off = PREAMBLE_LEN
            + if ident {
                b.layout().class_len(Class::ConnId)
            } else {
                0
            }
            + b.layout().class_len(Class::Protocol)
            + end
            - 1;
        f.set_byte_at(off, f.byte_at(off) ^ 0x01);
    }

    #[test]
    fn one_corrupt_frame_is_counted_exactly_once() {
        // As a fast-path candidate: the delivery filter diverts it.
        let fast = PaConfig::paper_default();
        assert_eq!(corrupt_seen_after(fast, flip_body_byte), (1, 7));
        // With prediction disabled: every frame takes the layered path.
        let slow = PaConfig {
            predict: false,
            ..PaConfig::paper_default()
        };
        assert_eq!(corrupt_seen_after(slow, flip_body_byte), (1, 7));
    }

    #[test]
    fn length_only_mismatch_is_dropped_but_not_counted_corrupt() {
        let cfg = PaConfig::paper_default();
        assert_eq!(corrupt_seen_after(cfg, flip_length_field), (0, 7));
    }

    #[test]
    fn clean_stream_counts_no_corruption() {
        for predict in [true, false] {
            let cfg = PaConfig {
                predict,
                ..PaConfig::paper_default()
            };
            assert_eq!(corrupt_seen_after(cfg, |_, _, _| {}), (0, 8));
        }
    }

    #[test]
    fn crc32_variant_works() {
        let mk = |l: u64, p: u64| {
            Connection::new(
                vec![Box::new(ChecksumLayer::new(DigestKind::Crc32))],
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(l, 9),
                    EndpointAddr::from_parts(p, 9),
                    l,
                ),
            )
            .unwrap()
        };
        let (mut a, mut b) = (mk(1, 2), mk(2, 1));
        a.send(b"crc me");
        let f = a.poll_transmit().unwrap();
        assert!(matches!(
            b.deliver_frame(f),
            DeliverOutcome::Fast { msgs: 1 }
        ));
    }
}
