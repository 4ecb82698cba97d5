//! Liveness heartbeats.
//!
//! Horus is a group-communication system; failure detection is the
//! substrate membership is built on. This layer is the point-to-point
//! kernel of that: it emits a heartbeat when the connection has been
//! silent for an interval. Heartbeats use a protocol-specific flag
//! (non-zero → the receiving PA will not predict them, so they reach
//! this layer's pre-deliver and are consumed without disturbing the
//! stream).

use pa_buf::Msg;
use pa_core::{
    Declare, DeliverAction, DisableReason, Handles, Layer, LayerCtx, LayerShape, Nanos, SendAction,
};
use pa_wire::{Class, Field, LayoutError};

/// Heartbeat configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Send a heartbeat after this much outbound silence.
    pub interval: Nanos,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: 100_000_000, // 100 ms
        }
    }
}

/// The heartbeat layer.
#[derive(Debug)]
pub struct HeartbeatLayer {
    cfg: HeartbeatConfig,
    f_hb: Option<Field>,
    last_sent: Nanos,
    /// True while this layer holds the send fast path shut because a
    /// heartbeat just went out (cleared by the next post-send).
    fast_held: bool,
}

impl HeartbeatLayer {
    /// Creates a heartbeat layer.
    pub(crate) fn new(cfg: HeartbeatConfig) -> HeartbeatLayer {
        HeartbeatLayer {
            cfg,
            f_hb: None,
            last_sent: 0,
            fast_held: false,
        }
    }

    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        d.add_field(Class::Protocol, "hb_flag", 1, None)?;
        Ok(())
    }
}

impl Default for HeartbeatLayer {
    fn default() -> Self {
        HeartbeatLayer::new(HeartbeatConfig::default())
    }
}

impl Layer for HeartbeatLayer {
    fn name(&self) -> &'static str {
        "heartbeat"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(HeartbeatLayer::declare, [])
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [f_hb] = handles.fields();
        self.f_hb = Some(f_hb);
    }

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        // Data messages keep hb_flag = 0 (zeroed frame).
        SendAction::Continue
    }

    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.last_sent = ctx.now;
        if self.fast_held {
            // Traffic resumed (this post-send runs for the heartbeat's
            // own control frame too, during the very next
            // `process_pending`): release the hold.
            ctx.enable_send(DisableReason::HeartbeatDue);
            self.fast_held = false;
        }
    }

    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
        let f_hb = self.f_hb.expect("bound");
        if ctx.frame(msg).read(f_hb) == 1 {
            DeliverAction::Consume
        } else {
            DeliverAction::Continue
        }
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {}

    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, now: Nanos) {
        if now.saturating_sub(self.last_sent) < self.cfg.interval {
            return;
        }
        let f_hb = self.f_hb.expect("bound");
        let mut hb = ctx.control_frame(&[]);
        {
            let mut frame = pa_filter::Frame::new(&mut hb, ctx.layout, ctx.send_predict.order());
            frame.write(f_hb, 1);
        }
        ctx.emit_down(hb);
        self.last_sent = now;
        if !self.fast_held {
            // The heartbeat's control frame is about to occupy the
            // serialization rule anyway (its post-processing is pending
            // until the host's next `process_pending`), so holding the
            // fast path shut here changes nothing about *when* the next
            // send queues — it changes the *attribution*: the queue is
            // charged to `heartbeat / heartbeat-due` instead of the
            // engine's generic post-serialization bucket.
            ctx.disable_send(DisableReason::HeartbeatDue);
            self.fast_held = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Connection, ConnectionParams, PaConfig};
    use pa_wire::EndpointAddr;

    fn pair() -> (Connection, Connection) {
        let mk = |l: u64, p: u64, s: u64| {
            Connection::new(
                vec![Box::new(HeartbeatLayer::default())],
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(l, 5),
                    EndpointAddr::from_parts(p, 5),
                    s,
                ),
            )
            .unwrap()
        };
        (mk(1, 2, 41), mk(2, 1, 42))
    }

    #[test]
    fn idle_connection_emits_heartbeats() {
        let (mut a, _b) = pair();
        a.tick(200_000_000);
        let frame = a.poll_transmit();
        assert!(frame.is_some(), "heartbeat after idle interval");
    }

    #[test]
    fn heartbeat_consumed_not_delivered() {
        let (mut a, mut b) = pair();
        a.tick(200_000_000);
        let frame = a.poll_transmit().unwrap();
        let out = b.deliver_frame(frame);
        assert!(
            matches!(out, pa_core::DeliverOutcome::Slow { msgs: 0 }),
            "{out:?}"
        );
        assert!(b.poll_delivery().is_none());
    }

    #[test]
    fn recent_traffic_suppresses_heartbeats() {
        let (mut a, _b) = pair();
        a.set_now(90_000_000);
        a.send(b"chatter");
        a.process_pending();
        let _ = a.poll_transmit();
        a.tick(100_000_000); // only 10 ms since the send
        assert!(a.poll_transmit().is_none(), "no heartbeat needed");
    }
}
