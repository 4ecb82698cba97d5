//! Xray attribution and forensics, end to end.
//!
//! The load-bearing claim of the explainability layer: under a fault
//! storm, *every* slow-path excursion is attributed to exactly one
//! `(layer, cause)` — the attribution multiset sums exactly to the
//! `ConnStats` slow-path counters, with no unattributed residue — and
//! prediction-miss forensics resolve down to the owning `(layer,
//! field)` for both protocol state (window seq) and time-varying
//! fields (a timestamp-style epoch).

use pa::buf::Msg;
use pa::core::{
    Connection, ConnectionParams, DeliverAction, DisableReason, Handles, Layer, LayerCtx,
    LayerShape, PaConfig, SendAction,
};
use pa::obs::{AttrCause, ProbeSink, XrayOp};
use pa::sim::{AppBehavior, SimConfig, TwoNodeSim};
use pa::stack::window::WindowConfig;
use pa::stack::WindowLayer;
use pa::unet::FaultConfig;
use pa::wire::{Class, EndpointAddr, Field};

// ---------------------------------------------------------------------------
// Fault storm: attribution reconciles exactly with ConnStats
// ---------------------------------------------------------------------------

#[test]
fn fault_storm_attribution_reconciles_exactly() {
    // Harsh network + tiny window + fragmentation: the fast path is
    // broken for every reason the vocabulary names — full windows,
    // filter rejects, reassembly holds, seq misses after drops.
    let mut cfg = SimConfig::paper();
    cfg.stack.window = WindowConfig {
        window: 4,
        ack_every: 2,
        rto: 2_000_000,
        ..WindowConfig::default()
    };
    cfg.stack.frag_mtu = Some(256);
    cfg.faults = FaultConfig::harsh(0x9603);
    cfg.tick_every = Some(2_000_000);

    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.schedule_stream(0, 0, 400_000, 300, 8);
    sim.schedule_stream(0, 50_000, 9_000_000, 12, 700);
    sim.run_until(40_000_000_000);

    let mut slow_total = 0;
    for node in 0..2 {
        let conn = &sim.nodes[node].conns[0];
        let stats = conn.stats();
        let attr = conn.attribution();

        // The reconciliation invariant, per op: every increment of the
        // ConnStats slow-path counters was mirrored by exactly one
        // attribution bump.
        assert_eq!(
            attr.total(XrayOp::SlowSend),
            stats.slow_sends,
            "node{node}: slow sends must be fully attributed"
        );
        assert_eq!(
            attr.total(XrayOp::QueuedSend),
            stats.queued_sends,
            "node{node}: queued sends must be fully attributed"
        );
        assert_eq!(
            attr.total(XrayOp::SlowDeliver),
            stats.slow_deliveries,
            "node{node}: slow deliveries must be fully attributed"
        );

        // "No unattributed slow sends": every row names a real layer
        // and a real cause.
        for e in attr.entries() {
            assert!(
                !matches!(e.cause, AttrCause::Unattributed),
                "node{node}: unattributed excursion ({} × {} at layer {})",
                e.count,
                e.op,
                e.layer
            );
            assert_ne!(e.layer, "(unattributed)", "node{node}: anonymous layer");
        }

        // The report-level view agrees.
        let report = sim.xray_report(node);
        assert!(
            report.reconciles(),
            "node{node}: XrayReport must reconcile\n{report}"
        );
        assert!(
            report.totals.invariant_violations == 0,
            "node{node}: the storm must not trip enable-underflow"
        );
        slow_total += stats.slow_sends + stats.queued_sends + stats.slow_deliveries;
    }

    // The storm actually exercised the slow paths — reconciling zeros
    // would prove nothing.
    assert!(
        slow_total > 50,
        "fault storm too tame to exercise attribution: {slow_total} excursions"
    );
}

// ---------------------------------------------------------------------------
// Window-seq forensics: a dropped frame pinpoints (window, seq)
// ---------------------------------------------------------------------------

fn window_conn(local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        vec![Box::new(WindowLayer::new(WindowConfig {
            rto: 2_000_000,
            ..WindowConfig::default()
        }))],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("valid stack")
}

fn shuttle(a: &mut Connection, b: &mut Connection) {
    loop {
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
        if !moved {
            break;
        }
    }
    while b.poll_delivery().is_some() {}
    while a.poll_delivery().is_some() {}
}

#[test]
fn dropped_frame_attributes_a_window_seq_miss() {
    let mut a = window_conn(1, 2, 61);
    let mut b = window_conn(2, 1, 62);

    // Warm up: deliver one message cleanly so both predictions settle.
    a.send(b"zero");
    shuttle(&mut a, &mut b);

    // Lose the next frame in transit.
    a.send(b"one");
    let _lost = a.poll_transmit().expect("frame for seq 1");
    a.process_pending();

    // The following frame arrives with seq 2 while b predicts seq 1:
    // a prediction miss whose forensics must name (window, seq).
    a.send(b"two");
    while let Some(f) = a.poll_transmit() {
        b.deliver_frame(f);
    }
    b.process_pending();

    let report = b.xray_report();
    let seq_row = report
        .misses
        .iter()
        .find(|m| m.layer == "window" && m.field == "seq")
        .unwrap_or_else(|| panic!("no (window, seq) miss row\n{report}"));
    assert_eq!(
        (seq_row.last_predicted, seq_row.last_actual),
        (1, 2),
        "b predicted the lost seq and saw its successor\n{report}"
    );

    // The excursion is charged to the window layer as a field miss.
    let charged = b.attribution().entries().iter().any(|e| {
        e.op == XrayOp::SlowDeliver
            && e.layer == "window"
            && matches!(e.cause, AttrCause::FieldMiss(_))
    });
    assert!(charged, "slow delivery not charged to (window, field-miss)");
    assert!(report.reconciles(), "attribution must still reconcile");
}

// ---------------------------------------------------------------------------
// Timestamp forensics: a time-varying protocol field pinpoints
// (epoch, stamp_us)
// ---------------------------------------------------------------------------

/// A minimal timestamp-style layer that carries a protocol-class epoch
/// stamp. Unlike the Message-class `TimestampLayer` (whose stamps are
/// excluded from prediction by design), this one deliberately puts a
/// time-varying field under prediction so the forensics can be tested:
/// every clock advance between sends breaks the receiver's predicted
/// header at exactly this field.
#[derive(Debug, Default)]
struct EpochLayer {
    f: Option<Field>,
}

impl EpochLayer {
    fn field(&self) -> Field {
        self.f.expect("bound")
    }
}

impl Layer for EpochLayer {
    fn name(&self) -> &'static str {
        "epoch"
    }

    fn shape(&self) -> LayerShape {
        LayerShape::new(
            |d, _| {
                d.add_field(Class::Protocol, "stamp_us", 32, None)?;
                Ok(())
            },
            [],
        )
    }

    fn bind(&mut self, handles: Handles<'_>) {
        let [f] = handles.fields();
        self.f = Some(f);
    }

    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        let us = ctx.now / 1_000;
        let f = self.field();
        ctx.frame(msg).write(f, us);
        ctx.send_predict.set(ctx.layout, f, us);
        SendAction::Continue
    }

    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        // Predict the next send with the freshest clock we know — which
        // is stale by the time the next message is actually sent.
        let f = self.field();
        ctx.send_predict.set(ctx.layout, f, ctx.now / 1_000);
    }

    fn pre_deliver(&mut self, _ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        DeliverAction::Continue
    }

    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
        let f = self.field();
        let mut m = msg.clone();
        let got = ctx.frame(&mut m).read(f);
        ctx.recv_predict.set(ctx.layout, f, got);
    }
}

fn epoch_conn(local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        vec![Box::<EpochLayer>::default()],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("valid stack")
}

#[test]
fn advancing_clock_attributes_a_timestamp_field_miss() {
    let mut a = epoch_conn(1, 2, 71);
    let mut b = epoch_conn(2, 1, 72);

    for (i, payload) in [&b"one"[..], b"two", b"three"].iter().enumerate() {
        let t = (i as u64 + 1) * 1_000_000; // 1 ms, 2 ms, 3 ms
        a.set_now(t);
        b.set_now(t);
        a.send(payload);
        while let Some(f) = a.poll_transmit() {
            b.deliver_frame(f);
        }
        a.process_pending();
        b.process_pending();
        while b.poll_delivery().is_some() {}
    }

    let report = b.xray_report();
    let row = report
        .misses
        .iter()
        .find(|m| m.layer == "epoch" && m.field == "stamp_us")
        .unwrap_or_else(|| panic!("no (epoch, stamp_us) miss row\n{report}"));
    assert!(
        row.count >= 1 && row.last_predicted < row.last_actual,
        "the stale predicted stamp lags the live one\n{report}"
    );
    let charged = b
        .attribution()
        .entries()
        .iter()
        .any(|e| e.layer == "epoch" && matches!(e.cause, AttrCause::FieldMiss(_)));
    assert!(charged, "timestamp misses not charged to the epoch layer");
    assert!(report.reconciles(), "attribution must still reconcile");
}

// ---------------------------------------------------------------------------
// Satellite: enable-underflow survives, is counted, and is probed
// ---------------------------------------------------------------------------

/// A buggy layer that enables a hold it never charged — the §3.2
/// counter bug that used to `assert!`-panic the endpoint.
#[derive(Debug, Default)]
struct RogueLayer;

impl Layer for RogueLayer {
    fn name(&self) -> &'static str {
        "rogue"
    }
    fn shape(&self) -> LayerShape {
        LayerShape::NONE
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
    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, _now: u64) {
        // Bug: enable without a matching disable.
        ctx.enable_send(DisableReason::FullWindow);
    }
}

#[test]
fn enable_underflow_is_survived_counted_and_probed() {
    let mk = |l: u64, p: u64, s: u64| {
        Connection::new(
            vec![Box::<RogueLayer>::default()],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 1),
                EndpointAddr::from_parts(p, 1),
                s,
            ),
        )
        .expect("valid stack")
    };
    let mut a = mk(1, 2, 81);
    let mut b = mk(2, 1, 82);
    a.set_probe(ProbeSink::counting());

    // Trip the bug. The endpoint must survive (no panic) ...
    a.tick(1_000_000);
    a.tick(2_000_000);

    // ... count each violation ...
    assert_eq!(a.invariant_violations(), 2);
    let report = a.xray_report();
    assert_eq!(report.totals.invariant_violations, 2);
    assert!(
        report.render().contains("invariant violations"),
        "the report surfaces the violation\n{report}"
    );

    // ... emit the probe event ...
    let counts = a.probe().counts().expect("counting probe");
    assert_eq!(counts.invariant_violations, 2);
    assert_eq!(counts.enables, 0, "a failed enable is not an enable");

    // ... and keep working: traffic still flows after the bug.
    a.send(b"still alive");
    shuttle(&mut a, &mut b);
    assert_eq!(b.stats().msgs_delivered, 1);
}
