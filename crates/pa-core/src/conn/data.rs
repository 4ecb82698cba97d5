//! The data path: what runs per message — Figure 3's `send()` and
//! `from_network()`, the layered traversal they fall back to, the
//! deferred post drain (§3.1) with the backlog drain (§3.4), and the
//! polls and recycles. Every verb has one body: a burst form is the
//! per-message form in a loop and nothing more — same outcomes, wire
//! bytes, counters and allocations at every burst size.

use super::{
    Connection, DeliverBurstReport, DeliverOutcome, DeliverWork, PostWorkReport, PushSized,
    RecvPost, SendBurstReport, SendOutcome, SendWork,
};
use crate::layer::{DeliverAction, Effect, Effects, Layer, LayerCtx, SendAction};
use crate::packing::{self, PackInfo, MAX_EMPTY_PIECES};
use pa_buf::{ByteOrder, Msg, MsgPool};
use pa_obs::{AttrCause, DropCause, LeakCause, Phase, RejectReason, SlowCause, TraceEvent};
use pa_wire::Preamble;
use std::collections::VecDeque;

/// Maps a packing decode error to its wire-taxonomy reason.
fn pack_reject_reason(e: &packing::PackError) -> RejectReason {
    match e {
        packing::PackError::BadHeader => RejectReason::MalformedPackInfo,
        packing::PackError::LengthMismatch { .. } => RejectReason::LengthMismatch,
    }
}

/// Moves up to `max` items off the front of `queue` onto `out`; returns
/// how many. A pop loop: hosts poll an empty queue more often than a
/// full one, and a `drain(..0)` is not free.
fn drain_front(queue: &mut VecDeque<Msg>, max: usize, out: &mut Vec<Msg>) -> usize {
    let mut n = 0;
    while n < max {
        let Some(msg) = queue.pop_front() else { break };
        out.push(msg);
        n += 1;
    }
    n
}

impl Connection {
    /// Pops the next frame to hand to the network, if any.
    pub fn poll_transmit(&mut self) -> Option<Msg> {
        self.out.pop_front()
    }

    /// Pops the next application message delivered by the stack, if any.
    pub fn poll_delivery(&mut self) -> Option<Msg> {
        self.deliveries.pop_front()
    }

    /// Drains up to `max` outgoing frames into `out` (caller-owned
    /// scratch, reused across bursts for an allocation-free steady
    /// state). Returns how many were appended.
    pub fn poll_transmit_burst(&mut self, max: usize, out: &mut Vec<Msg>) -> usize {
        drain_front(&mut self.out, max, out)
    }

    /// Drains up to `max` delivered application messages into `out`.
    /// Returns how many were appended.
    pub fn poll_delivery_burst(&mut self, max: usize, out: &mut Vec<Msg>) -> usize {
        drain_front(&mut self.deliveries, max, out)
    }

    /// Returns a delivered (or otherwise finished) buffer to this
    /// connection's message pool (§6 explicit recycling). A host that
    /// hands back what it polls, once the application is done with it,
    /// keeps a steady-state connection at zero allocations per message.
    #[inline]
    pub fn recycle(&mut self, msg: Msg) {
        self.pool.put(msg);
    }

    /// Returns a whole burst of finished buffers to the pool.
    pub fn recycle_burst<I: IntoIterator<Item = Msg>>(&mut self, msgs: I) {
        for msg in msgs {
            self.recycle(msg);
        }
    }

    // ------------------------------------------------------------------
    // Send path (Figure 3, send())
    // ------------------------------------------------------------------

    /// Sends a whole burst of payloads, tallying the per-message
    /// outcomes: [`Connection::send`] for each.
    pub fn send_burst(&mut self, payloads: &[&[u8]]) -> SendBurstReport {
        let mut rep = SendBurstReport::default();
        for p in payloads {
            match self.send(p) {
                SendOutcome::FastPath => rep.fast += 1,
                SendOutcome::SlowPath => rep.slow += 1,
                SendOutcome::Queued => rep.queued += 1,
                SendOutcome::Rejected(_) => rep.rejected += 1,
            }
        }
        rep
    }

    /// Sends `payload` to the peer.
    pub fn send(&mut self, payload: &[u8]) -> SendOutcome {
        self.send_from(None, payload)
    }

    /// [`Connection::send`], with the body of a message that leaves at
    /// once taken from `wire` when one is given: a shard table's pool,
    /// which the table's recycled deliveries refill. That body is the
    /// one buffer a send puts on the wire for good; everything else the
    /// send takes — a backlog slot, the frame image — comes back to
    /// this connection and is taken from its own pool.
    pub(crate) fn send_from(&mut self, wire: Option<&mut MsgPool>, payload: &[u8]) -> SendOutcome {
        // "if (con->send.disable > 0) { add_to_backlog; return; }" —
        // plus the serialization rule of §3.4: a message may not be
        // pre-processed until the post-processing of every previous
        // message has completed.
        let outcome = if !self.send_predict.enabled()
            || !self.pending_send.is_empty()
            || !self.backlog.is_empty()
        {
            self.record_queued_send();
            let staged = self.pool.take_with(payload);
            self.backlog.push_back(staged);
            SendOutcome::Queued
        } else {
            self.prefetch_send(wire.as_deref());
            let mut body = wire.unwrap_or(&mut self.pool).take_with(payload);
            PackInfo::Single.push_onto(&mut body);
            self.send_body(body)
        };
        self.finish_op();
        outcome
    }

    /// Cache hints for a fast send's heap writes, read from this
    /// connection's own fields and from `wire`'s, the pool its body
    /// comes from when one is given: the filter slots, the send
    /// prediction's bytes, where `pending_send` and `out` push next;
    /// then, one load of the pools' free-list entries later, the lines
    /// the body and image takes write — the body's payload line and the
    /// line its headers are pushed into, the image's first line.
    fn prefetch_send(&self, wire: Option<&MsgPool>) {
        crate::prefetch(self.send_slots.as_ptr());
        crate::prefetch(self.send_predict.proto().as_ptr());
        crate::prefetch(self.pending_send.as_slices().0.as_ptr());
        crate::prefetch(self.out.as_slices().0.as_ptr());
        let [mine, second] = self.pool.next_small_writes();
        let (body, image) = match wire {
            Some(wire) => (wire.next_small_writes()[0], mine),
            None => (mine, second),
        };
        if let Some(body) = body {
            crate::prefetch(body);
            crate::prefetch(body.wrapping_sub(self.hdr_len + 1));
        }
        if let Some(image) = image {
            crate::prefetch(image);
        }
    }

    /// Ends an operation on an eager host (`lazy_post` off): nothing is
    /// left pending — paid for on the critical path, which the meters
    /// record as leaked.
    #[inline]
    pub(super) fn finish_op(&mut self) {
        if !self.config.lazy_post {
            self.with_leak_scope(LeakCause::EagerPost, |c| {
                c.process_pending();
            });
        }
    }

    /// Sends a body that already carries its packing header. Used by
    /// `send` (kind 0) and by the backlog drain (packed bodies).
    fn send_body(&mut self, body: Msg) -> SendOutcome {
        if self.config.predict {
            self.fast_send(body)
        } else {
            self.record_slow_send("pa", AttrCause::PredictOff, SlowCause::PredictOff);
            self.slow_send(body);
            SendOutcome::SlowPath
        }
    }

    /// The fast path: predicted headers + send filter, no layers.
    fn fast_send(&mut self, mut msg: Msg) -> SendOutcome {
        // Push predicted gossip, zeroed message-specific, predicted
        // protocol header — building the Figure 1 frame front-to-back.
        msg.push_front(self.send_predict.gossip());
        msg.push_front_zeroed(self.msg_len);
        msg.push_front(self.send_predict.proto());

        let (verdict, rejected_at) = self.run_send_filter(&mut msg);
        if verdict == pa_filter::PASS {
            self.record_fast_send();
            self.wire_out(msg, false, "pa");
            SendOutcome::FastPath
        } else {
            // Charge the layer whose filter fragment contains the
            // instruction the run stopped on.
            let layer = match rejected_at {
                Some(pc) => {
                    self.emit_filter_reject(pc, self.plan.send.op_at(pc));
                    self.plan.send.layer_at(pc)
                }
                None => "pa",
            };
            self.record_slow_send(layer, AttrCause::FilterReject, SlowCause::FilterReject);
            // Fall back: strip the speculative headers and run the
            // layered pre-send on the original body.
            msg.skip_front(self.hdr_len);
            self.slow_send(msg);
            SendOutcome::SlowPath
        }
    }

    /// The layered pre-send traversal, top → bottom, over a frame of
    /// zeroed class headers around the packing-prefixed `body`.
    fn slow_send(&mut self, mut body: Msg) {
        body.push_front_zeroed(self.hdr_len);
        self.send_work.push_sized(SendWork {
            next: self.layers.len() as isize - 1,
            msg: body,
            unusual: false,
            origin: "pa",
        });
        self.run_work();
    }

    /// Runs the fused send filter over `msg`'s frame: the verdict and,
    /// when it is not a PASS, the instruction that decided it.
    fn run_send_filter(&mut self, msg: &mut Msg) -> (pa_filter::Verdict, Option<u16>) {
        self.arm_trace_slots();
        self.send_fused.run_located(&self.send_slots, msg)
    }

    /// Final send step: schedule post-processing, announce (cookie
    /// preamble, conn-ident if due), queue the frame for the network.
    fn wire_out(&mut self, mut msg: Msg, unusual: bool, origin: &'static str) {
        self.note_sent_trace();

        // Post-processing operates on the frame image (protocol header
        // first), captured before preamble/ident are pushed: a pooled
        // copy, back in the pool once its post phase has run, while the
        // caller's buffer goes to the wire untouched.
        let image = self.pool.take_with(msg.as_slice());
        self.pending_send.push_sized((image, origin));

        self.announce(&mut msg, unusual);
        self.stats.frames_out += 1;
        self.out.push_sized(msg);
    }

    // ------------------------------------------------------------------
    // Delivery path (Figure 3, from_network())
    // ------------------------------------------------------------------

    /// Delivers a whole burst of frames (draining `frames` front to
    /// back), tallying the per-frame outcomes of
    /// [`Connection::deliver_frame`].
    pub fn deliver_burst(&mut self, frames: &mut Vec<Msg>) -> DeliverBurstReport {
        let mut rep = DeliverBurstReport::default();
        for frame in frames.drain(..) {
            rep.frames += 1;
            match self.deliver_frame(frame) {
                DeliverOutcome::Fast { msgs } => {
                    rep.fast_frames += 1;
                    rep.msgs += msgs;
                }
                DeliverOutcome::Slow { msgs } => {
                    rep.slow_frames += 1;
                    rep.msgs += msgs;
                }
                DeliverOutcome::Dropped(_) => rep.dropped += 1,
            }
        }
        rep
    }

    /// Handles a raw frame from the network (single-connection hosts;
    /// multi-connection hosts route via [`crate::ShardedEndpoint`],
    /// which hands the connection the frame it routed): admits its
    /// preamble, conn-ident and cookie, processes it, and — for an
    /// identified frame — binds the cookie it carried once the outcome
    /// says it was verified.
    pub fn deliver_frame(&mut self, mut frame: Msg) -> DeliverOutcome {
        self.prefetch_delivery();
        self.prefetch_delivery_image();
        self.stats.frames_in += 1;
        let preamble = match self.admit(&mut frame) {
            Ok(p) => p,
            Err(reason) => return self.reject(reason),
        };
        let outcome = self.routed_inner(preamble, frame);
        if preamble.conn_ident_present {
            self.bind_verified(preamble.cookie, &outcome);
        }
        outcome
    }

    /// Handles a frame whose preamble (and conn-ident, if present) have
    /// been consumed by the router. `frame` starts at the protocol
    /// header. Counts the frame into `frames_in` — router-demuxed
    /// frames participate in this connection's `delivery_balanced()`
    /// ledger exactly like directly delivered ones.
    pub(crate) fn handle_routed(&mut self, preamble: Preamble, frame: Msg) -> DeliverOutcome {
        self.stats.frames_in += 1;
        self.routed_inner(preamble, frame)
    }

    fn routed_inner(&mut self, preamble: Preamble, mut frame: Msg) -> DeliverOutcome {
        // Correctness before speed: the *delivery-side* protocol state
        // must be current before this message's headers are checked
        // against it, so pending post-deliver work drains first —
        // leaked, not masked: under saturation this arrival pays for it
        // (the dashed-line case of Figure 4). Pending post-*send* work
        // stays deferred — the two directions have independent state
        // (Table 3 keeps two tables), which is what lets Figure 4's
        // sender run its post-processing after the reply is delivered.
        if !self.pending_recv.is_empty() {
            self.with_leak_scope(LeakCause::ArrivalDrain, |c| {
                c.drain_recv_posts();
            });
        }

        if let Err(reason) = self.learn_peer_order(&preamble) {
            return self.reject(reason);
        }
        if frame.len() < self.hdr_len {
            return self.reject(RejectReason::ShortFrame);
        }
        self.note_recv_trace(&frame);

        let (verdict, rejected_at) = self.recv_fused.run_located(&self.recv_slots, &mut frame);
        let filter_passed = verdict == pa_filter::PASS;
        let predicted = self.config.predict
            && self.recv_predict.enabled()
            && frame
                .get(0, self.proto_len)
                .is_some_and(|hdr| hdr == self.recv_predict.proto());

        let outcome = if filter_passed && predicted {
            // Fast delivery: strip headers, unpack, deliver; the stack
            // is not entered.
            match self.deliver_and_defer(frame, 0) {
                Ok(msgs) => {
                    self.record_fast_deliver(msgs);
                    DeliverOutcome::Fast { msgs }
                }
                Err((frame, reason)) => {
                    self.pool.put(frame);
                    return self.reject(reason);
                }
            }
        } else {
            self.record_slow_deliver(filter_passed, rejected_at, &frame);
            let msgs = self.slow_deliver(frame, filter_passed);
            DeliverOutcome::Slow { msgs }
        };
        self.finish_op();
        outcome
    }

    /// Cache hints for a fast delivery's heap writes, read from this
    /// connection's own fields: the recv prediction's bytes, the filter
    /// slots, the free-list entry of the pool's next small take (the
    /// image), and where `pending_recv` and `deliveries` push next.
    pub(crate) fn prefetch_delivery(&self) {
        crate::prefetch(self.recv_predict.proto().as_ptr());
        crate::prefetch(self.recv_slots.as_ptr());
        if let Some(next) = self.pool.next_small() {
            crate::prefetch(next);
        }
        crate::prefetch(self.pending_recv.as_slices().0.as_ptr());
        crate::prefetch(self.deliveries.as_slices().0.as_ptr());
    }

    /// The bytes the image take writes, once
    /// [`Connection::prefetch_delivery`] has fetched their free-list
    /// entry.
    pub(crate) fn prefetch_delivery_image(&self) {
        if let [Some(image), _] = self.pool.next_small_writes() {
            crate::prefetch(image);
        }
    }

    /// Strips the stack headers off `frame`, unpacks the body into
    /// application deliveries, and queues a frame image for the
    /// deferred post-deliver phases. Shared by the fast path and the
    /// top of the layered slow path — the two differ only in `start`
    /// (which post phases still owe work). A message the top layer
    /// emitted upward (a reassembled one) owes none: no image is made
    /// of it and nothing is queued.
    ///
    /// The steady state allocates nothing. `Single`: the application
    /// receives the *original network buffer* with the headers skipped
    /// in place (zero-copy) and the post phases a pooled image copy.
    /// Packed runs: each piece is a pooled copy of its body slice and
    /// the frame itself *moves* into the post queue.
    ///
    /// A total function over arbitrary frame bytes: every read past the
    /// header boundary is bounded by an explicit length check first. On
    /// a malformed packing header/body the buffer comes back as
    /// `Err((frame, reason))` for the caller to count and recycle.
    fn deliver_and_defer(
        &mut self,
        mut frame: Msg,
        start: usize,
    ) -> Result<usize, (Msg, RejectReason)> {
        let stop = self.layers.len().saturating_sub(1);
        let owes_post = start <= stop;
        let owed = |msg| RecvPost { msg, start, stop };
        let hdr = self.hdr_len;
        // The slow path re-checks the length checked at entry:
        // layers may have reshaped the message in between, and this
        // function must stay total either way.
        if frame.len() < hdr {
            return Err((frame, RejectReason::ShortFrame));
        }
        let (info, used) = match PackInfo::decode(&frame.as_slice()[hdr..]) {
            Ok(x) => x,
            Err(e) => return Err((frame, pack_reject_reason(&e))),
        };
        let body_off = hdr + used;
        // `decode` consumed `used` bytes out of `frame[hdr..]`, so
        // `body_off <= frame.len()` — checked, not assumed.
        let Some(body_len) = frame.len().checked_sub(body_off) else {
            return Err((frame, RejectReason::MalformedPackInfo));
        };
        match info {
            PackInfo::Single => {
                if owes_post {
                    let image = self.pool.take_with(frame.as_slice());
                    self.pending_recv.push_sized(owed(image));
                }
                frame.skip_front(body_off);
                self.stats.msgs_delivered += 1;
                self.deliveries.push_back(frame);
                Ok(1)
            }
            PackInfo::SameSize { count, size } => {
                if body_len != info.body_len() {
                    return Err((frame, RejectReason::LengthMismatch));
                }
                // The equality above proves the piece walk fits the
                // body exactly; the walk is total anyway — it counts
                // what it delivered.
                let mut delivered = 0usize;
                for bytes in packing::pieces(&frame.as_slice()[body_off..], count, size) {
                    self.deliveries.push_back(self.pool.take_with(bytes));
                    delivered += 1;
                }
                debug_assert_eq!(delivered, info.count(), "walk matched the validated body");
                self.stats.msgs_delivered += delivered as u64;
                if owes_post {
                    self.pending_recv.push_sized(owed(frame));
                } else {
                    self.pool.put(frame);
                }
                Ok(delivered)
            }
        }
    }

    /// Layered pre-deliver traversal, bottom → top.
    fn slow_deliver(&mut self, frame: Msg, filter_passed: bool) -> usize {
        let before = self.stats.msgs_delivered;
        self.deliver_work.push_sized(DeliverWork {
            next: 0,
            start: 0,
            msg: frame,
            filter_passed,
        });
        self.run_work();
        (self.stats.msgs_delivered - before) as usize
    }

    // ------------------------------------------------------------------
    // The traversal engine
    // ------------------------------------------------------------------

    /// Drains the send/deliver work queues: the layered slow paths plus
    /// any layer-emitted traffic.
    pub(super) fn run_work(&mut self) {
        loop {
            if let Some(work) = self.send_work.pop_front() {
                self.step_send(work);
            } else if let Some(work) = self.deliver_work.pop_front() {
                self.step_deliver(work);
            } else {
                break;
            }
        }
    }

    fn step_send(&mut self, work: SendWork) {
        let SendWork {
            next,
            mut msg,
            unusual,
            origin,
        } = work;
        if next < 0 {
            // Below the bottom layer: filter, preamble, wire.
            let (verdict, rejected_at) = self.run_send_filter(&mut msg);
            if verdict != pa_filter::PASS {
                // A message the stack let through but the filter refuses
                // (oversized with no frag layer, etc.).
                self.stats.drops_send_rejected += 1;
                self.stats.rejects.bump(RejectReason::FilterReject);
                if let Some(pc) = rejected_at {
                    self.emit_filter_reject(pc, self.plan.send.op_at(pc));
                }
                self.emit(TraceEvent::Drop {
                    reason: DropCause::FilterRefused,
                });
                self.recycle(msg);
                return;
            }
            self.wire_out(msg, unusual, origin);
            return;
        }
        let i = next as usize;
        let action = self.run_phase(i, Phase::PreSend, false, self.order, |layer, ctx| {
            layer.pre_send(ctx, &mut msg)
        });
        let below = |msg| SendWork {
            next: next - 1,
            msg,
            unusual,
            origin,
        };
        match action {
            SendAction::Continue => self.send_work.push_sized(below(msg)),
            SendAction::Split(parts) => {
                self.send_work.extend(parts.into_iter().map(below));
                // The parts are copies; the original is done.
                self.recycle(msg);
            }
            SendAction::Buffered => {
                // The layer took the contents (mem::take) and will
                // re-emit via emit_down later.
            }
            SendAction::Reject(_) => {
                self.stats.drops_send_rejected += 1;
                self.emit(TraceEvent::Drop {
                    reason: DropCause::ByLayer(self.layers[i].name()),
                });
                self.recycle(msg);
            }
        }
    }

    fn step_deliver(&mut self, work: DeliverWork) {
        let DeliverWork {
            next,
            start,
            mut msg,
            filter_passed,
        } = work;
        if next >= self.layers.len() {
            // Above the top layer: strip headers, unpack, deliver. A
            // malformed packing here is the "deliberate exception" of
            // `delivery_balanced()`: the frame already counted a slow
            // delivery, and also counts one structured reject.
            if let Err((frame, reason)) = self.deliver_and_defer(msg, start) {
                let _ = self.reject(reason);
                self.pool.put(frame);
            }
            return;
        }
        let order = self.peer_order;
        let action = self.run_phase(next, Phase::PreDeliver, false, order, |layer, ctx| {
            ctx.filter_passed = filter_passed;
            layer.pre_deliver(ctx, &mut msg)
        });
        match action {
            DeliverAction::Continue => {
                self.deliver_work.push_sized(DeliverWork {
                    next: next + 1,
                    start,
                    msg,
                    filter_passed,
                });
            }
            // Consumed or dropped, the layers that saw it still owe
            // their post phases.
            stopped => {
                if let DeliverAction::Drop(why) = stopped {
                    self.stats.drops_by_layer += 1;
                    // The window layer's duplicate verdict is the replay
                    // case of the wire taxonomy; other layer verdicts
                    // stay outside it (policy, not wire structure).
                    if why == "duplicate" {
                        self.stats.rejects.bump(RejectReason::ReplayedSeq);
                    }
                    self.emit(TraceEvent::Drop {
                        reason: DropCause::ByLayer(self.layers[next].name()),
                    });
                }
                self.pending_recv.push_sized(RecvPost {
                    msg,
                    start,
                    stop: next,
                });
            }
        }
    }

    /// The one phase dispatcher: runs `call` on layer `i` with a
    /// [`LayerCtx`] built in place over the connection's own fields,
    /// records the meter, and applies whatever the layer asked for —
    /// after the phase returns and before any other phase runs. `whole`
    /// says the traversal the call belongs to was counted once for every
    /// layer ([`Connection::meter_whole`]): the call is not metered
    /// again. A phase that asked for nothing costs at most a meter bump
    /// and an emptiness check.
    #[inline]
    pub(super) fn run_phase<R>(
        &mut self,
        i: usize,
        phase: Phase,
        whole: bool,
        order: ByteOrder,
        call: impl FnOnce(&mut dyn Layer, &mut LayerCtx<'_>) -> R,
    ) -> R {
        let t0 = self.meter_start();
        let mut ctx = LayerCtx {
            layout: &self.plan.layout,
            order,
            now: self.now,
            send_predict: &mut self.send_predict,
            recv_predict: &mut self.recv_predict,
            effects: &mut self.effects_scratch,
            pool: &mut self.pool,
            filter_passed: false,
            image_wanted: false,
        };
        let out = call(self.layers[i].as_mut(), &mut ctx);
        if !whole {
            self.meter_record(i, phase, t0);
        }
        if !self.effects_scratch.is_empty() {
            // `apply_effects` needs `&mut self`, so the scratch leaves
            // the connection for the apply and comes back drained, its
            // vector capacity intact.
            let mut effects = std::mem::take(&mut self.effects_scratch);
            self.apply_effects(i, &mut effects);
            self.effects_scratch = effects;
        }
        out
    }

    /// Applies a layer's requested side effects. `layer_idx` is the
    /// emitting layer; downward messages enter below it, upward ones
    /// above it.
    fn apply_effects(&mut self, layer_idx: usize, effects: &mut Effects) {
        // Only entered for a non-empty `effects` (`run_phase` checks).
        // Drains (rather than consumes) so `run_phase` can put the
        // scratch back with its vector capacity intact — post phases
        // that patch filter slots every batch would otherwise pay one
        // heap allocation per phase forever.
        let name = self.layers[layer_idx].name();
        for effect in effects.drain_in_order() {
            match effect {
                Effect::DisableSend(reason) => self.hold(name, reason, true),
                Effect::EnableSend(reason) => self.release(name, reason, true),
                Effect::DisableRecv(reason) => self.hold(name, reason, false),
                Effect::EnableRecv(reason) => self.release(name, reason, false),
                Effect::PatchSend(slot, v) => self.send_slots[slot.0 as usize] = v,
                Effect::PatchRecv(slot, v) => self.recv_slots[slot.0 as usize] = v,
                Effect::Down(msg, unusual) => {
                    self.stats.control_msgs += 1;
                    self.emit(TraceEvent::Control { layer: name });
                    self.send_work.push_sized(SendWork {
                        next: layer_idx as isize - 1,
                        msg,
                        unusual,
                        origin: name,
                    });
                }
                Effect::Up(msg) => self.deliver_work.push_sized(DeliverWork {
                    next: layer_idx + 1,
                    start: layer_idx + 1,
                    msg,
                    filter_passed: false,
                }),
            }
        }
    }

    // ------------------------------------------------------------------
    // Post-processing (§3.1) and the backlog drain (§3.4)
    // ------------------------------------------------------------------

    /// Runs all deferred post-processing, then drains the backlog (with
    /// packing) if the send path is usable again. Hosts call this when
    /// the application is idle or blocked — "out of the critical path".
    pub fn process_pending(&mut self) -> PostWorkReport {
        if self.has_pending() {
            self.prefetch_posts();
        }
        let frames_before = self.stats.frames_out;
        let mut report = self.drain_posts(true);

        // "After the post-processing of a send operation completes, the
        // PA checks to see if there are messages waiting."
        if !self.backlog.is_empty() && self.send_predict.enabled() {
            self.drain_backlog(&mut report);
        }

        report.frames_sent = self.stats.frames_out - frames_before;
        report
    }

    /// Cache hints for a post drain: every line of every layer object,
    /// then the heap lines each names ([`Layer::heap_lines`]), read from
    /// the objects the first pass fetched.
    fn prefetch_posts(&self) {
        for layer in &self.layers {
            crate::prefetch_all(layer.as_ref());
        }
        for layer in &self.layers {
            layer.heap_lines(&mut |line| crate::prefetch(line));
        }
    }

    /// Drains only the delivery-side post queue (called on arrival so
    /// the receive state is current; send-side posts stay deferred).
    /// Returns the work done for cost accounting.
    fn drain_recv_posts(&mut self) -> PostWorkReport {
        self.drain_posts(false)
    }

    /// The post drain: every queued post-deliver, and with `send_side`
    /// every queued post-send ahead of each of them (a post phase's
    /// control frame queues another post-send, which runs before the
    /// next post-deliver does).
    fn drain_posts(&mut self, send_side: bool) -> PostWorkReport {
        let mut report = PostWorkReport::default();
        loop {
            if send_side {
                if let Some((image, _origin)) = self.pending_send.pop_front() {
                    self.run_post_send(image, &mut report);
                    continue;
                }
            }
            let Some(post) = self.pending_recv.pop_front() else {
                break;
            };
            self.run_post_deliver(post, &mut report);
        }
        report
    }

    /// Runs post-send phases for one wired frame, top → bottom
    /// (mirroring pre-send), over its image — which then goes to the
    /// layer that asked to keep it ([`LayerCtx::keep_image`]: the
    /// window's retransmission copy is the buffer it was shown, not a
    /// copy of it), or back to the pool. One of several askers is
    /// handed the image, after the last phase; the others a pooled copy.
    fn run_post_send(&mut self, image: Msg, report: &mut PostWorkReport) {
        report.post_send_phases += self.layers.len() as u64;
        report.post_send_frames += 1;
        self.stats.post_sends += 1;
        let mut keeper = None;
        let whole = self.meter_whole(Phase::PostSend);
        for i in (0..self.layers.len()).rev() {
            let asked = self.run_phase(i, Phase::PostSend, whole, self.order, |layer, ctx| {
                layer.post_send(ctx, &image);
                ctx.image_wanted
            });
            if asked {
                if let Some(earlier) = keeper.replace(i) {
                    let copy = self.pool.take_with(image.as_slice());
                    self.hand_image(earlier, copy);
                }
            }
        }
        match keeper {
            Some(i) => self.hand_image(i, image),
            None => self.pool.put(image),
        }
        self.run_work();
    }

    fn hand_image(&mut self, i: usize, image: Msg) {
        if let Some(declined) = self.layers[i].keep_image(image) {
            self.pool.put(declined);
        }
    }

    /// Runs post-deliver phases for one received frame, bottom → top.
    fn run_post_deliver(&mut self, post: RecvPost, report: &mut PostWorkReport) {
        let RecvPost { msg, start, stop } = post;
        debug_assert!(
            start <= stop,
            "queued only for layers that owe a post phase"
        );
        report.post_deliver_phases += (stop - start + 1) as u64;
        report.post_deliver_frames += 1;
        self.stats.post_delivers += 1;
        let (order, top) = (self.peer_order, self.layers.len() - 1);
        let whole = (start, stop) == (0, top) && self.meter_whole(Phase::PostDeliver);
        for i in start..=stop {
            self.run_phase(i, Phase::PostDeliver, whole, order, |layer, ctx| {
                layer.post_deliver(ctx, &msg)
            });
        }
        self.pool.put(msg);
        self.run_work();
    }

    /// Drains one frame's worth of backlog: the run of same-size
    /// messages at its head, at most `max_pack` long (one message when
    /// `max_pack` is 0 or 1: packing off) and no longer than a packing
    /// header can carry. A run of one leaves under the kind-0 byte in
    /// its own buffer; a longer one is packed straight off the queue
    /// under one header (§3.4), and its staged buffers go back to the
    /// pool.
    fn drain_backlog(&mut self, report: &mut PostWorkReport) {
        let Some(head) = self.backlog.front() else {
            return;
        };
        let size = head.len();
        // A header counts at most 65 535 pieces, and a receiver takes at
        // most `MAX_EMPTY_PIECES` empty ones.
        let cap = if size == 0 {
            MAX_EMPTY_PIECES
        } else {
            u16::MAX as usize
        };
        let max = self.config.max_pack.min(cap).max(1);
        let n = self
            .backlog
            .iter()
            .take(max)
            .take_while(|m| m.len() == size)
            .count();
        report.backlog_drained = n as u64;
        report.packed = n > 1;
        let frames_before = self.stats.frames_out;
        let body = if n == 1 {
            // A lone backlogged message needs no assembly: prepend the
            // packing byte into its headroom and wire it as-is.
            let mut m = self.backlog.pop_front().expect("head exists");
            PackInfo::Single.push_onto(&mut m);
            m
        } else {
            self.stats.packed_frames += 1;
            self.stats.packed_msgs += n as u64;
            let body = packing::pack_run(self.backlog.range(..n), size);
            // Donate the staged run buffers back: the pool keeps their
            // capacity for the next burst of sends.
            for staged in self.backlog.drain(..n) {
                self.pool.put(staged);
            }
            body
        };
        self.send_body(body);
        self.emit(TraceEvent::BacklogDrain {
            frames: (self.stats.frames_out - frames_before) as u32,
            msgs: n as u32,
        });
    }
}
