//! A post-phase spinner.
//!
//! Declares no fields and never diverts a message. Its post phases
//! busy-wait for a set time, which gives wall-clock masking tests
//! measurable post work; with no spin (the default) it is stack filler.

use pa_buf::Msg;
use pa_core::{DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
use std::time::{Duration, Instant};

/// The meter layer.
#[derive(Debug, Default)]
pub struct MeterLayer {
    /// Busy-wait this long inside each post phase. The real layers'
    /// phases finish in nanoseconds, which makes wall-clock masking
    /// tests unreadable noise — a calibrated spin gives the cycle
    /// meters (and the critpath leak ledger) something measurable and
    /// attributable to chew on. 0 (the default) spins not at all.
    post_spin: Duration,
}

impl MeterLayer {
    /// A meter whose post phases busy-wait for `spin` — measurable
    /// post work for wall-clock masking/leak tests.
    pub fn with_post_spin(spin: Duration) -> MeterLayer {
        MeterLayer { post_spin: spin }
    }

    fn spin(&self) {
        if !self.post_spin.is_zero() {
            let t0 = Instant::now();
            while t0.elapsed() < self.post_spin {
                std::hint::spin_loop();
            }
        }
    }
}

impl Layer for MeterLayer {
    fn name(&self) -> &'static str {
        "meter"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::NONE
    }

    fn bind(&mut self, _: Handles<'_>) {}

    fn pre_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.spin();
    }

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.spin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Connection, ConnectionParams, PaConfig};
    use pa_wire::EndpointAddr;

    #[test]
    fn post_spin_gives_the_cycle_meters_measurable_work() {
        let spin = std::time::Duration::from_micros(50);
        let ml = MeterLayer::with_post_spin(spin);
        let mut a = Connection::new(
            vec![Box::new(ml)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 6),
                EndpointAddr::from_parts(2, 6),
                53,
            ),
        )
        .unwrap();
        a.enable_cycle_meter();
        a.send(b"spin");
        a.process_pending();
        // Phase index 1 = post-send. The spin dominates any timer
        // bias, so the metered time is within a factor of the knob.
        let post_send_ns = a.phase_meters().next().unwrap().cycle_ns[1];
        assert!(
            post_send_ns >= spin.as_nanos() as u64 / 2,
            "spin not visible to the meter: {post_send_ns} ns"
        );
    }
}
