//! The sliding-window layer: reliability, ordering, flow control.
//!
//! This is the protocol the paper's measured stack implements ("a basic
//! sliding window protocol, with a window size of 16 entries", §5), and
//! the layer that exercises every PA mechanism at once:
//!
//! - its sequence number and message type live in the
//!   **protocol-specific** class and are *predicted* (§3.2) — the
//!   post-send phase predicts `seq+1`, the post-deliver phase predicts
//!   the next expected sequence number,
//! - its cumulative acknowledgement rides in the **gossip** class,
//!   piggybacked on every outgoing data message (§2.1's fourth class),
//! - a full send window **disables** the predicted send header via the
//!   §3.2 counter, re-enabling it when acknowledgements open the window,
//! - retransmissions are *unusual* messages carrying the connection
//!   identification (§2.2), driven by the host's tick,
//! - out-of-order arrivals are consumed into a reorder buffer and
//!   released in sequence.
//!
//! What the layer keeps, it keeps in buffers of the connection's pool
//! and puts back when the acknowledgement comes in. Its copy of an
//! unacknowledged frame is the image its post-send phase was shown,
//! asked for there ([`LayerCtx::keep_image`]) and handed over once the
//! layers below have seen it too — not a second copy; an early arrival
//! is copied ([`LayerCtx::buf_with`]) and the released stash travels
//! upward in its own buffer.

use pa_buf::Msg;
use pa_core::{
    Declare, DeliverAction, DisableReason, Handles, Layer, LayerCtx, LayerShape, Nanos, SendAction,
};
use pa_wire::{Class, Field, LayoutError};
use std::collections::{BTreeMap, VecDeque};

/// Message types carried in the 2-bit `mtype` field.
pub mod mtype {
    /// Ordinary data (the predicted common case — deliberately 0 so the
    /// zero-initialized prediction is correct from the first message).
    pub const DATA: u64 = 0;
    /// Pure cumulative acknowledgement.
    pub const ACK: u64 = 1;
}

/// Tuning knobs for the window layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Send-window size in messages (the paper uses 16).
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto: Nanos,
    /// Retransmission timeout cap (exponential backoff stops here).
    pub max_rto: Nanos,
    /// Send a pure ack after this many unacknowledged deliveries
    /// (piggybacked acks cover chatty traffic; this bounds one-way
    /// streams).
    pub ack_every: u32,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window: 16,
            rto: 5_000_000,       // 5 ms
            max_rto: 640_000_000, // 640 ms
            ack_every: 4,
        }
    }
}

#[derive(Debug)]
struct InFlight {
    seq: u64,
    frame: Msg,
    sent_at: Nanos,
    rto: Nanos,
    retransmits: u32,
}

/// The sliding-window layer.
#[derive(Debug)]
pub struct WindowLayer {
    cfg: WindowConfig,
    /// `seq`, `mtype` and `ack_upto`, once bound.
    fields: Option<[Field; 3]>,
    // --- send state ---
    next_seq: u64,
    /// Highest cumulative ack seen from the peer. A reply's ack can
    /// arrive while our post-send is still deferred (the engine keeps
    /// the two directions independent); frames already acked must not
    /// enter the retransmit buffer late.
    acked_upto: u64,
    inflight: VecDeque<InFlight>,
    wait_q: VecDeque<Msg>,
    fast_disabled: bool,
    /// The newest in-flight entry's frame is still to come: post-send
    /// asked for the image, [`Layer::keep_image`] has not filed it yet.
    awaiting_image: bool,
    /// Messages whose sequence number is assigned (pre-send or wait-q
    /// drain) but whose post-send has not yet stored them — keeps
    /// sequence assignment collision-free across the lazy-post gap.
    drained: u32,
    // --- receive state ---
    expected: u64,
    reorder: BTreeMap<u64, Msg>,
    since_ack: u32,
    // --- counters ---
    retransmits: u64,
    acks_sent: u64,
    dups_dropped: u64,
}

impl WindowLayer {
    /// Creates a window layer with the given configuration.
    pub fn new(cfg: WindowConfig) -> WindowLayer {
        WindowLayer {
            cfg,
            fields: None,
            next_seq: 0,
            acked_upto: 0,
            inflight: VecDeque::new(),
            wait_q: VecDeque::new(),
            fast_disabled: false,
            awaiting_image: false,
            drained: 0,
            expected: 0,
            reorder: BTreeMap::new(),
            since_ack: 0,
            retransmits: 0,
            acks_sent: 0,
            dups_dropped: 0,
        }
    }

    /// Retransmissions performed so far.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmits
    }

    /// Pure acknowledgements sent so far.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Duplicate data messages dropped so far.
    pub fn dups_dropped(&self) -> u64 {
        self.dups_dropped
    }

    /// Messages currently unacknowledged.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Protocol, "seq", 32, None)?;
        d.add_field(Class::Protocol, "mtype", 2, None)?;
        d.add_field(Class::Gossip, "ack_upto", 32, None)?;
        Ok(())
    }

    fn fields(&self) -> [Field; 3] {
        self.fields.expect("bound")
    }

    /// Emits a pure cumulative acknowledgement.
    fn send_ack(&mut self, ctx: &mut LayerCtx<'_>) {
        let [f_seq, f_type, f_ack] = self.fields();
        let mut ack = ctx.control_frame(&[]);
        {
            // Control frames travel in *our* byte order even when the
            // triggering message arrived in the peer's.
            let mut frame = pa_filter::Frame::new(&mut ack, ctx.layout, ctx.send_predict.order());
            frame.write(f_type, mtype::ACK);
            frame.write(f_seq, 0);
            frame.write(f_ack, self.expected);
        }
        ctx.emit_down(ack);
        self.acks_sent += 1;
        self.since_ack = 0;
    }

    /// Processes a cumulative acknowledgement (`ackno` = next sequence
    /// number the peer expects).
    fn process_ack(&mut self, ctx: &mut LayerCtx<'_>, ackno: u64) {
        // Sanity: an acknowledgement for data we never sent is
        // corruption or confusion; accepting it would erase live
        // retransmission state (TCP applies the same rule).
        if ackno > self.next_seq {
            return;
        }
        self.acked_upto = self.acked_upto.max(ackno);
        let before = self.inflight.len();
        while matches!(self.inflight.front(), Some(f) if f.seq < ackno) {
            let acked = self.inflight.pop_front().expect("front matched");
            ctx.put_buf(acked.frame);
        }
        if self.inflight.len() == before {
            return;
        }
        // Window reopened: release waiting slow-path messages, then
        // re-enable the predicted send header.
        let [f_seq, f_type, f_ack] = self.fields();
        while self.inflight.len() + self.drained_pending() < self.cfg.window
            && !self.wait_q.is_empty()
        {
            let mut msg = self.wait_q.pop_front().expect("checked non-empty");
            let seq = self.next_seq + self.drained_pending() as u64;
            {
                let mut frame =
                    pa_filter::Frame::new(&mut msg, ctx.layout, ctx.send_predict.order());
                frame.write(f_seq, seq);
                frame.write(f_type, mtype::DATA);
                frame.write(f_ack, self.expected);
            }
            self.drained += 1;
            ctx.emit_down(msg);
        }
        if self.fast_disabled && self.inflight.len() + self.drained_pending() < self.cfg.window {
            ctx.enable_send(DisableReason::FullWindow);
            self.fast_disabled = false;
        }
    }

    fn drained_pending(&self) -> usize {
        self.drained as usize
    }
}

impl Layer for WindowLayer {
    fn name(&self) -> &'static str {
        "window"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(WindowLayer::declare, [])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        self.fields = Some(handles.fields());
    }

    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        // "any layer may buffer the message until later instead."
        if self.inflight.len() + self.drained_pending() >= self.cfg.window {
            self.wait_q.push_back(std::mem::take(msg));
            return SendAction::Buffered;
        }
        let [f_seq, f_type, f_ack] = self.fields();
        let seq = self.next_seq + self.drained_pending() as u64;
        let mut frame = ctx.frame(msg);
        frame.write(f_seq, seq);
        frame.write(f_type, mtype::DATA);
        frame.write(f_ack, self.expected);
        // Several messages can pass pre-send before any post-send runs —
        // a fragmented message is Split into a batch below us. The
        // shadow counter keeps their sequence numbers distinct; each
        // post-send consumes one unit. (Protocol state proper —
        // `next_seq` — still only advances in post, preserving the
        // canonical-form contract.)
        self.drained += 1;
        SendAction::Continue
    }

    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        let [f_seq, f_type, f_ack] = self.fields();
        let (ty, seq) = (ctx.read_field(msg, f_type), ctx.read_field(msg, f_seq));
        if ty != mtype::DATA {
            return;
        }
        if seq != self.next_seq {
            // A retransmission passing through again: state already
            // reflects it.
            return;
        }
        if self.drained > 0 {
            self.drained -= 1;
        }
        if seq >= self.acked_upto {
            // The retransmission copy is this image itself, filed by
            // `keep_image` below; until then the entry holds no buffer.
            ctx.keep_image();
            self.awaiting_image = true;
            self.inflight.push_back(InFlight {
                seq,
                frame: Msg::from_wire(Vec::new()),
                sent_at: ctx.now,
                rto: self.cfg.rto,
                retransmits: 0,
            });
        }
        self.next_seq = seq + 1;
        // This data message piggybacked our cumulative ack (gossip), so
        // no pure ack is owed for anything delivered so far.
        self.since_ack = 0;
        // Predict the next send header (§3.2: post-processing "predicts
        // the next protocol header immediately").
        ctx.send_predict.set(ctx.layout, f_seq, self.next_seq);
        ctx.send_predict.set(ctx.layout, f_type, mtype::DATA);
        ctx.send_predict.set(ctx.layout, f_ack, self.expected);
        if self.inflight.len() >= self.cfg.window && !self.fast_disabled {
            ctx.disable_send(DisableReason::FullWindow);
            self.fast_disabled = true;
        }
    }

    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        let [f_seq, f_type, _] = self.fields();
        let frame = ctx.frame(msg);
        let ty = frame.read(f_type);
        if ty == mtype::ACK {
            return DeliverAction::Consume;
        }
        let seq = frame.read(f_seq);
        if seq == self.expected {
            DeliverAction::Continue
        } else if seq < self.expected {
            DeliverAction::Drop("duplicate")
        } else if seq < self.expected + self.cfg.window as u64 {
            DeliverAction::Consume
        } else {
            DeliverAction::Drop("beyond receive window")
        }
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        let [f_seq, f_type, f_ack] = self.fields();
        let (ty, seq, ackno) = (
            ctx.read_field(msg, f_type),
            ctx.read_field(msg, f_seq),
            ctx.read_field(msg, f_ack),
        );
        // Cumulative acks arrive both as pure acks and as gossip on
        // data messages.
        self.process_ack(ctx, ackno);
        if ty == mtype::ACK {
            return;
        }
        let mut delivered_new = false;
        if seq == self.expected {
            self.expected += 1;
            delivered_new = true;
            // Release consecutive reorder-buffer entries.
            while let Some(stash) = self.reorder.remove(&self.expected) {
                self.expected += 1;
                ctx.emit_up(stash);
            }
        } else if seq > self.expected && seq < self.expected + self.cfg.window as u64 {
            self.reorder
                .entry(seq)
                .or_insert_with(|| ctx.buf_with(msg.as_slice()));
        } else if seq < self.expected {
            self.dups_dropped += 1;
            // Re-ack so the sender stops retransmitting.
            self.send_ack(ctx);
        }
        // Predict the next delivery and piggyback the new ack level.
        ctx.recv_predict.set(ctx.layout, f_seq, self.expected);
        ctx.recv_predict.set(ctx.layout, f_type, mtype::DATA);
        ctx.send_predict.set(ctx.layout, f_ack, self.expected);
        if delivered_new {
            self.since_ack += 1;
            let gap = !self.reorder.is_empty();
            if self.since_ack >= self.cfg.ack_every || gap {
                self.send_ack(ctx);
            }
        } else if seq > self.expected {
            // Out-of-order arrival: ack immediately to signal the gap.
            self.send_ack(ctx);
        }
    }

    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, now: Nanos) {
        let Some(head) = self.inflight.front_mut() else {
            return;
        };
        if now.saturating_sub(head.sent_at) < head.rto {
            return;
        }
        head.sent_at = now;
        head.rto = (head.rto * 2).min(self.cfg.max_rto);
        head.retransmits += 1;
        self.retransmits += 1;
        // Retransmissions are "unusual" — they carry the connection
        // identification so a receiver that lost the first message can
        // still find the connection (§2.2).
        let again = ctx.buf_with(head.frame.as_slice());
        ctx.emit_down_unusual(again);
    }

    fn keep_image(&mut self, image: Msg) -> Option<Msg> {
        if !std::mem::take(&mut self.awaiting_image) {
            return Some(image);
        }
        let filed = self
            .inflight
            .back_mut()
            .expect("pushed by the post-send that asked");
        filed.frame = image;
        None
    }

    fn bufs_held(&self) -> usize {
        self.inflight.len() + self.wait_q.len() + self.reorder.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Connection, ConnectionParams, DeliverOutcome, PaConfig, SendOutcome};
    use pa_wire::EndpointAddr;

    fn mk(cfg: WindowConfig, l: u64, p: u64, s: u64) -> Connection {
        Connection::new(
            vec![Box::new(WindowLayer::new(cfg))],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 4),
                EndpointAddr::from_parts(p, 4),
                s,
            ),
        )
        .unwrap()
    }

    fn pair(cfg: WindowConfig) -> (Connection, Connection) {
        (mk(cfg, 1, 2, 111), mk(cfg, 2, 1, 222))
    }

    /// Delivers every queued frame from `from` into `to` and vice versa
    /// until quiescent, running post-processing as we go. Returns the
    /// payloads delivered to `to` in order.
    fn converge(a: &mut Connection, b: &mut Connection) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut to_b = Vec::new();
        let mut to_a = Vec::new();
        for _ in 0..64 {
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
            to_b.push(m.to_wire());
        }
        while let Some(m) = a.poll_delivery() {
            to_a.push(m.to_wire());
        }
        (to_b, to_a)
    }

    #[test]
    fn in_order_stream_delivers() {
        let (mut a, mut b) = pair(WindowConfig::default());
        for i in 0..10u8 {
            a.send(&[i]);
            let (got, _) = converge(&mut a, &mut b);
            assert_eq!(got, vec![vec![i]]);
        }
        assert_eq!(b.stats().msgs_delivered, 10);
    }

    #[test]
    fn window_fills_and_disables_fast_path() {
        let cfg = WindowConfig {
            ack_every: 1000,
            ..WindowConfig::default()
        }; // no acks
        let (mut a, mut b) = pair(cfg);
        let mut queued_at = None;
        for i in 0..32u32 {
            let out = a.send(&i.to_be_bytes());
            a.process_pending();
            // Push frames to b but *swallow b's acks* (never returned).
            while let Some(f) = a.poll_transmit() {
                b.deliver_frame(f);
                b.process_pending();
            }
            if out == SendOutcome::Queued && queued_at.is_none() {
                queued_at = Some(i);
            }
        }
        let queued_at = queued_at.expect("window must eventually fill");
        assert!(
            (16..=17).contains(&queued_at),
            "fast path disabled near window size 16, got {queued_at}"
        );
        assert!(!a.send_prediction().enabled());
    }

    #[test]
    fn acks_reopen_window_and_backlog_drains() {
        let cfg = WindowConfig {
            ack_every: 1,
            ..WindowConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        // Burst 40 sends with no intervening processing: most backlog.
        for i in 0..40u8 {
            a.send(&[i]);
        }
        let (got, _) = converge(&mut a, &mut b);
        assert_eq!(got.len(), 40, "all messages delivered after ack flow");
        assert_eq!(got[39], vec![39]);
        assert!(a.stats().packed_frames > 0, "backlog drained packed");
        assert!(a.send_prediction().enabled(), "window reopened");
    }

    #[test]
    fn piggybacked_acks_clear_inflight_on_bidirectional_traffic() {
        let cfg = WindowConfig {
            ack_every: 1000,
            ..WindowConfig::default()
        }; // only gossip acks
        let (mut a, mut b) = pair(cfg);
        for i in 0..8u8 {
            a.send(&[i]);
            converge(&mut a, &mut b);
            b.send(&[100 + i]); // b's data gossips its ack level
            converge(&mut a, &mut b);
        }
        // a's inflight should be (nearly) clear thanks to gossip alone.
        // Window never filled:
        assert!(a.send_prediction().enabled());
        assert_eq!(b.stats().msgs_delivered, 8);
        assert_eq!(a.stats().msgs_delivered, 8);
    }

    #[test]
    fn lost_frame_recovered_by_retransmission() {
        let cfg = WindowConfig {
            ack_every: 1,
            rto: 1_000,
            ..WindowConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        a.send(b"one");
        converge(&mut a, &mut b);
        assert_eq!(b.poll_delivery(), None); // drained by converge
        a.send(b"two");
        a.process_pending();
        let _lost = a.poll_transmit().unwrap(); // drop it
        a.send(b"three");
        a.process_pending();
        // "three" arrives out of order → stashed, gap acked.
        converge(&mut a, &mut b);
        assert!(b.poll_delivery().is_none(), "nothing deliverable yet");
        // Fire the retransmission timer.
        a.tick(10_000_000);
        let (got, _) = converge(&mut a, &mut b);
        assert_eq!(got, vec![b"two".to_vec(), b"three".to_vec()]);
    }

    #[test]
    fn retransmission_carries_conn_ident() {
        let cfg = WindowConfig {
            rto: 1_000,
            ..WindowConfig::default()
        };
        let (mut a, _b) = pair(cfg);
        a.send(b"payload");
        a.process_pending();
        let ident_before = a.stats().ident_frames_out;
        let _ = a.poll_transmit().unwrap(); // lost
        a.tick(10_000_000);
        let frame = a.poll_transmit().expect("retransmission queued");
        assert_eq!(a.stats().ident_frames_out, ident_before + 1);
        let preamble = pa_wire::Preamble::decode(frame.as_slice()).unwrap();
        assert!(preamble.conn_ident_present, "retransmission is unusual");
    }

    #[test]
    fn duplicate_reacked_and_dropped() {
        let cfg = WindowConfig {
            ack_every: 1,
            ..WindowConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        a.send(b"original");
        a.process_pending();
        let frame = a.poll_transmit().unwrap();
        b.deliver_frame(frame.clone());
        b.process_pending();
        assert_eq!(b.poll_delivery().unwrap().as_slice(), b"original");
        let acks_before = b.stats().control_msgs;
        // Replay the same frame: dropped, re-acked.
        let out = b.deliver_frame(frame);
        b.process_pending();
        assert!(matches!(out, DeliverOutcome::Slow { msgs: 0 }), "{out:?}");
        assert!(b.poll_delivery().is_none());
        assert!(
            b.stats().control_msgs > acks_before,
            "duplicate triggered re-ack"
        );
    }

    #[test]
    fn reordered_frames_released_in_sequence() {
        let cfg = WindowConfig {
            ack_every: 100,
            ..WindowConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        // Establish the cookie first — an out-of-order *first* frame
        // would be dropped as unknown (§2.2), which is its own test.
        a.send(b"hi");
        converge(&mut a, &mut b);
        for w in [b"aa", b"bb", b"cc"] {
            a.send(w);
            a.process_pending();
        }
        let f0 = a.poll_transmit().unwrap();
        let f1 = a.poll_transmit().unwrap();
        let f2 = a.poll_transmit().unwrap();
        // Deliver 2, 0, 1.
        b.deliver_frame(f2);
        b.process_pending();
        assert!(b.poll_delivery().is_none());
        b.deliver_frame(f0);
        b.process_pending();
        b.deliver_frame(f1);
        b.process_pending();
        let mut got = Vec::new();
        while let Some(m) = b.poll_delivery() {
            got.push(m.to_wire());
        }
        assert_eq!(got, vec![b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]);
    }

    #[test]
    fn fast_paths_dominate_in_steady_state() {
        let cfg = WindowConfig {
            ack_every: 4,
            ..WindowConfig::default()
        };
        let (mut a, mut b) = pair(cfg);
        for i in 0..50u8 {
            a.send(&[i]);
            converge(&mut a, &mut b);
        }
        assert_eq!(b.stats().msgs_delivered, 50);
        assert!(a.stats().fast_send_ratio() > 0.8, "{:?}", a.stats());
        assert!(b.stats().fast_delivery_ratio() > 0.8, "{:?}", b.stats());
    }
}
