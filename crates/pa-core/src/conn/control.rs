//! The control path: what changes a connection's standing, one function
//! per transition — build ([`Connection::new`]), `admit` a raw frame's
//! cookie or identification, `announce` ours (and what changes what is
//! due: `force_ident_next`, `rotate_cookie`), bind the peer's cookie
//! (`bind_verified`), `learn_peer_order`, `hold` / `release` a predicted
//! header, `tick`.
//! The data path calls them where a message meets one; a fast send or a
//! fast cookie-only delivery meets `announce`'s two pushes and nothing
//! else.

use super::introspect::{Introspection, TraceCtx};
use super::{Connection, ConnectionParams, DeliverOutcome, SetupError};
use crate::config::PaConfig;
use crate::layer::{Effects, Layer};
use crate::plan;
use crate::predict::Prediction;
use crate::stats::ConnStats;
use crate::Nanos;
use pa_buf::{ByteOrder, Msg, MsgPool};
use pa_obs::rng::SplitMix64;
use pa_obs::{DisableReason, Invariant, Phase, RejectReason, TraceEvent};
use pa_wire::{Class, Cookie, Preamble};
use std::collections::VecDeque;

impl Connection {
    /// Builds a connection: takes the stack's plan — the compiled header
    /// layout and both filters, shared with every live connection whose
    /// layers have the same names and shapes, declared and compiled here
    /// only if there is none — hands every layer its handles, sizes the
    /// predictions, and constructs the connection identification.
    pub fn new(
        mut layers: Vec<Box<dyn Layer>>,
        config: PaConfig,
        params: ConnectionParams,
    ) -> Result<Connection, SetupError> {
        let plan = plan::plan_for(&layers, config.layout_mode, config.trace_ctx)?;
        // The engine binds its own declarations as the layers bind
        // theirs: the conn-ident fields first, the trace context last.
        let [f_src, f_dst, f_fp] = plan.handles(0).fields();
        for (i, layer) in layers.iter_mut().enumerate() {
            layer.bind(plan.handles(i + 1));
        }
        let trace = config.trace_ctx.then(|| {
            let handles = plan.handles(layers.len() + 1);
            let [journey, hop] = handles.fields();
            let [journey_slot, hop_slot] = handles.send_slots();
            TraceCtx {
                journey,
                hop,
                journey_slot,
                hop_slot,
            }
        });
        let layout = &plan.layout;

        // Connection identification: `local` is what we send, `peer`
        // what we expect to receive. Always big-endian (compared as
        // opaque bytes).
        let ident_len = layout.class_len(Class::ConnId);
        let mut ident_local = vec![0u8; ident_len];
        let mut ident_peer = vec![0u8; ident_len];
        layout.write_field_bytes(f_src, &mut ident_local, &params.local.encode());
        layout.write_field_bytes(f_dst, &mut ident_local, &params.peer.encode());
        layout.write_field(f_fp, &mut ident_local, ByteOrder::Big, layout.fingerprint());
        layout.write_field_bytes(f_src, &mut ident_peer, &params.peer.encode());
        layout.write_field_bytes(f_dst, &mut ident_peer, &params.local.encode());
        layout.write_field(f_fp, &mut ident_peer, ByteOrder::Big, layout.fingerprint());
        for layer in &layers {
            layer.fill_ident(layout, &mut ident_local, &mut ident_peer);
        }

        let mut rng = SplitMix64::new(params.seed);
        let send_predict = Prediction::new(layout, params.order);
        let recv_predict = Prediction::new(layout, params.order);
        let cookie_local = Cookie::random(&mut rng);

        // Pool headroom: preamble (≤ 9 B) + conn-ident + the three
        // class headers + the packing byte, so even the first
        // (identified) frame prepends in place without regrowing.
        // Never below the library default.
        let hdr_len = layout.per_message_header_bytes();
        let pool = MsgPool::new(
            (16 + ident_len + hdr_len + 8).max(pa_buf::msg::DEFAULT_HEADROOM),
            64,
        );

        Ok(Connection {
            intro: Introspection::new(layers.len(), trace, cookie_local.raw() as u32),
            cookie_local,
            cookie_peer: None,
            cookie_peer_prev: None,
            config,
            layers,
            order: params.order,
            peer_order: params.order,
            peer_order_known: false,
            send_fused: plan.send.fused(params.order).clone(),
            recv_fused: plan.recv.fused(params.order).clone(),
            send_slots: plan.send.program.slots().to_vec(),
            recv_slots: plan.recv.program.slots().to_vec(),
            proto_len: layout.class_len(Class::Protocol),
            msg_len: layout.class_len(Class::Message),
            hdr_len,
            fuse_count: 2,
            pool,
            send_predict,
            recv_predict,
            backlog: VecDeque::new(),
            pending_send: VecDeque::new(),
            pending_recv: VecDeque::new(),
            send_work: VecDeque::new(),
            deliver_work: VecDeque::new(),
            out: VecDeque::new(),
            deliveries: VecDeque::new(),
            ident_local,
            ident_peer,
            ident_due: true,
            stats: ConnStats::default(),
            plan,
            params,
            now: 0,
            effects_scratch: Effects::default(),
        })
    }

    /// Checks a raw frame's preamble, identification and cookie against
    /// what this connection expects and consumes them, leaving `frame`
    /// at the protocol header. Every byte here is attacker-controllable,
    /// so each check names its [`RejectReason`]: the all-zero cookie is
    /// reserved (no legitimate sender can mint it), the *retired* cookie
    /// is stale, any other unknown one is §2.2's "it is dropped". An
    /// identified frame's cookie is *not* bound here — see
    /// [`Connection::bind_verified`].
    pub(super) fn admit(&self, frame: &mut Msg) -> Result<Preamble, RejectReason> {
        let preamble = Preamble::pop_from(frame).map_err(|_| RejectReason::TruncatedPreamble)?;
        if preamble.cookie.is_zero() {
            return Err(RejectReason::ZeroCookie);
        }
        if preamble.conn_ident_present {
            let ident = frame
                .pop_front(self.ident_peer.len())
                .ok_or(RejectReason::TruncatedIdent)?;
            if ident != self.ident_peer {
                return Err(RejectReason::ForeignIdent);
            }
        } else if self.cookie_peer != Some(preamble.cookie) {
            return Err(if self.cookie_peer_prev == Some(preamble.cookie) {
                RejectReason::StaleCookie
            } else {
                RejectReason::UnknownCookie
            });
        }
        Ok(preamble)
    }

    /// Puts our cookie preamble on an outgoing frame, with the
    /// connection identification in front of the headers while it is
    /// due: on the first frame, on an `unusual` one (a retransmission or
    /// a re-ack of a duplicate, §2.2), and on every frame with cookies
    /// off.
    pub(super) fn announce(&mut self, msg: &mut Msg, unusual: bool) {
        let include_ident = !self.config.cookies || unusual || self.ident_due;
        let preamble = if include_ident {
            self.ident_due = false;
            msg.push_front(&self.ident_local);
            self.stats.ident_frames_out += 1;
            Preamble::with_conn_ident(self.cookie_local, self.order)
        } else {
            Preamble::common(self.cookie_local, self.order)
        };
        preamble.push_onto(msg);
    }

    /// Binds the cookie an identified frame carried, once this
    /// connection's `outcome` for that frame says it *verified* it
    /// (filter, sequencing, header checks — anything but a drop).
    /// Returns whether it bound. Binding first would let any frame that
    /// merely replays a public ident squat an attacker-chosen cookie on
    /// the connection and retire the real one as stale, without ever
    /// passing verification. The one rule for [`Connection::deliver_frame`]
    /// and the sharded endpoint's hand-off alike. A *different* cookie
    /// retires the previous one: frames still carrying it are counted as
    /// [`RejectReason::StaleCookie`], never routed.
    pub(crate) fn bind_verified(&mut self, cookie: Cookie, outcome: &DeliverOutcome) -> bool {
        let verified = !matches!(outcome, DeliverOutcome::Dropped(_));
        if verified {
            if let Some(prev) = self.cookie_peer {
                if prev != cookie {
                    self.cookie_peer_prev = Some(prev);
                }
            }
            self.cookie_peer = Some(cookie);
        }
        verified
    }

    /// Forces the identification onto the next outgoing frame (a cookie
    /// re-announcement: used after a suspected route loss, and by tests
    /// that need an "unusual" identified frame on demand).
    pub(crate) fn force_ident_next(&mut self) {
        self.ident_due = true;
    }

    /// Mints a fresh local (outgoing) cookie and forces the next
    /// outgoing frame to carry the full connection identification so
    /// the peer can re-bind its route — "the receiver remembers for
    /// each connection what the current (incoming) cookie is" (§2.2).
    /// Once the peer verifies that frame it retires the old cookie:
    /// frames still on the wire under it, or replayed, are refused as
    /// [`RejectReason::StaleCookie`]. Protocol state is untouched:
    /// rotation changes the route capability, not the conversation.
    pub fn rotate_cookie(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed ^ self.cookie_local.raw());
        self.cookie_local = Cookie::random(&mut rng);
        self.force_ident_next();
    }

    /// Learns the peer's byte order from its preamble and re-encodes
    /// the delivery prediction for it. Once an order is known, a
    /// *cookie-only* frame is not allowed to change it: honoring a
    /// flipped bit 62 would re-encode the prediction and re-bind the
    /// delivery filter on one attacker-forgeable byte — a cheap way to
    /// evict the fast path ("masking" turned against us). A genuine
    /// order change (peer reboot on different hardware) re-identifies
    /// itself, so the flip is only honored alongside a full connection
    /// identification.
    pub(super) fn learn_peer_order(&mut self, preamble: &Preamble) -> Result<(), RejectReason> {
        if self.peer_order_known && self.peer_order == preamble.byte_order {
            return Ok(());
        }
        if self.peer_order_known && !preamble.conn_ident_present {
            return Err(RejectReason::ByteOrderConflict);
        }
        // A *mid-stream* change re-binds a filter a delivery is already
        // waiting on — a critical-path leak. The first learn on a fresh
        // connection is setup cost, not a leak.
        let midstream = self.peer_order_known;
        self.peer_order = preamble.byte_order;
        self.peer_order_known = true;
        self.recv_predict
            .reorder(&self.plan.layout, self.peer_order);
        // The fused delivery filter baked the old order in; take the
        // plan's one for the learned order.
        let t0 = self.meter_start();
        self.recv_fused = self.plan.recv.fused(self.peer_order).clone();
        self.fuse_count += 1;
        if midstream {
            self.record_recv_rebind_leak(t0);
        }
        Ok(())
    }

    fn prediction_mut(&mut self, send: bool) -> &mut Prediction {
        if send {
            &mut self.send_predict
        } else {
            &mut self.recv_predict
        }
    }

    /// `layer` shuts a predicted header (`send` or delivery) for
    /// `reason` — §3.2's disable counter bump, named.
    pub(super) fn hold(&mut self, layer: &'static str, reason: DisableReason, send: bool) {
        self.prediction_mut(send).disable_with(layer, reason);
        if send {
            self.intro.note_send_disable(layer);
        }
        self.emit(TraceEvent::Disable {
            layer,
            reason,
            send,
        });
    }

    /// `layer` releases the hold it charged under `reason`. A release
    /// with nothing to release is survived, counted by the prediction
    /// and reported.
    pub(super) fn release(&mut self, layer: &'static str, reason: DisableReason, send: bool) {
        let event = if self.prediction_mut(send).enable_with(layer, reason) {
            TraceEvent::Enable {
                layer,
                reason,
                send,
            }
        } else {
            TraceEvent::InvariantViolation {
                layer,
                what: Invariant::EnableUnderflow,
            }
        };
        self.emit(event);
    }

    /// Advances time and gives every layer a timer callback
    /// (retransmission, keepalives). Bottom → top.
    pub fn tick(&mut self, now: Nanos) {
        self.set_now(now);
        for i in 0..self.layers.len() {
            self.run_phase(i, Phase::Tick, self.order, |layer, ctx| {
                layer.on_tick(ctx, now)
            });
        }
        self.run_work();
        self.finish_op();
    }
}
