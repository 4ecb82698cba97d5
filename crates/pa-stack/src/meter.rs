//! A transparent traffic meter.
//!
//! Declares no fields and never diverts a message; counts frames and
//! bytes in both directions, and how many of each phase ran. Useful as
//! (a) observability for applications, (b) a canonical-form compliance
//! probe in tests (its pre counters tell you exactly how often the slow
//! path ran), and (c) stack filler for the E4 layer-scaling experiment.

use pa_buf::Msg;
use pa_core::{DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counter block read by the application while the layer is
/// owned by the connection. Counters are relaxed atomics — `Layer:
/// Send` means the owning connection may be driven from a worker
/// thread (the post-drain ring) while the application thread reads the
/// handle, and each counter is an independent monotonic total.
#[derive(Debug, Default)]
pub struct MeterCounters {
    /// Pre-send phases run (slow-path sends through this layer).
    pub pre_sends: AtomicU64,
    /// Post-send phases run (every sent frame).
    pub post_sends: AtomicU64,
    /// Pre-deliver phases run (slow-path deliveries).
    pub pre_delivers: AtomicU64,
    /// Post-deliver phases run (every received frame).
    pub post_delivers: AtomicU64,
    /// Bytes observed leaving (frame sizes at this layer).
    pub bytes_out: AtomicU64,
    /// Bytes observed arriving.
    pub bytes_in: AtomicU64,
}

impl MeterCounters {
    /// Pre-send phases run.
    pub fn pre_sends(&self) -> u64 {
        self.pre_sends.load(Ordering::Relaxed)
    }

    /// Post-send phases run.
    pub fn post_sends(&self) -> u64 {
        self.post_sends.load(Ordering::Relaxed)
    }

    /// Pre-deliver phases run.
    pub fn pre_delivers(&self) -> u64 {
        self.pre_delivers.load(Ordering::Relaxed)
    }

    /// Post-deliver phases run.
    pub fn post_delivers(&self) -> u64 {
        self.post_delivers.load(Ordering::Relaxed)
    }

    /// Bytes observed leaving.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Bytes observed arriving.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }
}

/// The meter layer.
#[derive(Debug, Default)]
pub struct MeterLayer {
    counters: Arc<MeterCounters>,
    /// Busy-wait this long inside each post phase. The real layers'
    /// phases finish in nanoseconds, which makes wall-clock masking
    /// tests unreadable noise — a calibrated spin gives the cycle
    /// meters (and the critpath leak ledger) something measurable and
    /// attributable to chew on. 0 (the default) spins not at all.
    post_spin: std::time::Duration,
}

impl MeterLayer {
    /// Creates a meter and returns it with a handle to its counters.
    pub fn new() -> (MeterLayer, Arc<MeterCounters>) {
        let layer = MeterLayer::default();
        let counters = layer.counters.clone();
        (layer, counters)
    }

    /// A meter whose post phases busy-wait for `spin` — measurable
    /// post work for wall-clock masking/leak tests.
    pub fn with_post_spin(spin: std::time::Duration) -> (MeterLayer, Arc<MeterCounters>) {
        let (mut layer, counters) = MeterLayer::new();
        layer.post_spin = spin;
        (layer, counters)
    }

    fn spin(&self) {
        if !self.post_spin.is_zero() {
            let t0 = std::time::Instant::now();
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
        self.counters.pre_sends.fetch_add(1, Ordering::Relaxed);
        SendAction::Continue
    }

    fn post_send(&mut self, _ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.counters.post_sends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_out
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.spin();
    }

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        self.counters.pre_delivers.fetch_add(1, Ordering::Relaxed);
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, _ctx: &mut LayerCtx<'_>, msg: &Msg) {
        self.counters.post_delivers.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_in
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        self.spin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::{Connection, ConnectionParams, PaConfig};
    use pa_wire::EndpointAddr;

    fn pair() -> (
        Connection,
        Arc<MeterCounters>,
        Connection,
        Arc<MeterCounters>,
    ) {
        let (ml_a, ca) = MeterLayer::new();
        let (ml_b, cb) = MeterLayer::new();
        let mk = |layer: MeterLayer, l: u64, p: u64, s: u64| {
            Connection::new(
                vec![Box::new(layer)],
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(l, 6),
                    EndpointAddr::from_parts(p, 6),
                    s,
                ),
            )
            .unwrap()
        };
        (mk(ml_a, 1, 2, 51), ca, mk(ml_b, 2, 1, 52), cb)
    }

    #[test]
    fn fast_paths_skip_pre_but_not_post() {
        let (mut a, ca, mut b, cb) = pair();
        for _ in 0..5 {
            a.send(b"metered");
            let f = a.poll_transmit().unwrap();
            b.deliver_frame(f);
            a.process_pending();
            b.process_pending();
        }
        assert_eq!(ca.pre_sends(), 0, "all sends fast");
        assert_eq!(ca.post_sends(), 5, "post always runs");
        assert_eq!(cb.pre_delivers(), 0, "all deliveries fast");
        assert_eq!(cb.post_delivers(), 5);
    }

    #[test]
    fn byte_counters_accumulate() {
        let (mut a, ca, mut b, cb) = pair();
        a.send(&[0u8; 100]);
        let f = a.poll_transmit().unwrap();
        b.deliver_frame(f);
        a.process_pending();
        b.process_pending();
        assert!(ca.bytes_out() >= 100);
        assert_eq!(ca.bytes_out(), cb.bytes_in(), "same frame image both sides");
    }

    #[test]
    fn slow_path_increments_pre() {
        let (ml, c) = MeterLayer::new();
        let mut a = Connection::new(
            vec![Box::new(ml)],
            PaConfig {
                predict: false,
                lazy_post: false,
                ..PaConfig::paper_default()
            },
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 6),
                EndpointAddr::from_parts(2, 6),
                5,
            ),
        )
        .unwrap();
        a.send(b"slow");
        assert_eq!(c.pre_sends(), 1);
        assert_eq!(c.post_sends(), 1);
    }

    #[test]
    fn counters_readable_while_the_layer_is_on_another_thread() {
        let (ml, c) = MeterLayer::new();
        let mut a = Connection::new(
            vec![Box::new(ml)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 6),
                EndpointAddr::from_parts(2, 6),
                54,
            ),
        )
        .unwrap();
        // The connection (and the meter inside it) moves to a worker;
        // the counter handle stays here and remains readable.
        let t = std::thread::spawn(move || {
            for _ in 0..3 {
                a.send(b"threaded");
                a.poll_transmit();
                a.process_pending();
            }
            a
        });
        let a = t.join().unwrap();
        drop(a);
        assert_eq!(c.post_sends(), 3);
    }

    #[test]
    fn post_spin_gives_the_cycle_meters_measurable_work() {
        let spin = std::time::Duration::from_micros(50);
        let (ml, c) = MeterLayer::with_post_spin(spin);
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
        assert_eq!(c.post_sends(), 1);
        // Phase index 1 = post-send. The spin dominates any timer
        // bias, so the metered time is within a factor of the knob.
        let post_send_ns = a.phase_meters()[0].cycle_ns[1];
        assert!(
            post_send_ns >= spin.as_nanos() as u64 / 2,
            "spin not visible to the meter: {post_send_ns} ns"
        );
    }
}
