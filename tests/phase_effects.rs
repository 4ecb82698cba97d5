//! The phase dispatcher's contract: what a layer asks for through
//! [`LayerCtx`] takes hold after its phase returns and before any other
//! phase runs, in by-kind order, charged to the layer that asked.
//!
//! A scripted layer emits every effect kind — `down`, `down` marked
//! unusual, `up`, attributed disables and enables of both predictions,
//! send- and delivery-filter slot patches — from each of the five
//! phases, once stacked above a plain layer and once below it. The
//! readable half of the contract is asserted directly (who sees the
//! disable first, who holds the path shut, who the `Control` and
//! `Queued` events name); the rest — wire bytes, every layer call with
//! the prediction state it saw, every trace event, the final
//! `ConnStats` — is compared against `tests/golden/phase_effects.txt`,
//! recorded from the commit before the engine's five pasted dispatch
//! blocks became one dispatcher. On a mismatch the transcript produced
//! is left in the test's temp directory for comparison.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use pa::buf::Msg;
use pa::core::{
    Connection, ConnectionParams, Declare, DeliverAction, DisableReason, Handles, Layer, LayerCtx,
    LayerShape, Nanos, PaConfig, SendAction, SendOutcome,
};
use pa::filter::{DigestKind, Op, SlotId};
use pa::obs::{Invariant, ProbeSink, TraceEvent};
use pa::stack::window::WindowConfig;
use pa::stack::{ChecksumLayer, TimestampLayer, WindowLayer};
use pa::wire::{ByteOrder, Class, EndpointAddr, Field, LayoutError};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ph {
    PreSend,
    PostSend,
    PreDeliver,
    PostDeliver,
    Tick,
}

impl Ph {
    const ALL: [Ph; 5] = [
        Ph::PreSend,
        Ph::PostSend,
        Ph::PreDeliver,
        Ph::PostDeliver,
        Ph::Tick,
    ];

    fn label(self) -> &'static str {
        match self {
            Ph::PreSend => "pre_send",
            Ph::PostSend => "post_send",
            Ph::PreDeliver => "pre_deliver",
            Ph::PostDeliver => "post_deliver",
            Ph::Tick => "tick",
        }
    }
}

/// What an armed [`Scripted`] layer asks for, once.
#[derive(Clone, Copy, Debug)]
enum Emit {
    /// Every effect kind in one phase: both slot patches, a send hold
    /// that stays (`Resync`) around one that is taken and released in
    /// the same breath (`Other`), a delivery hold, and one message each
    /// down, down-unusual and up.
    All,
    /// Undoes what `All` left behind: releases both holds, patches both
    /// slots back.
    Release,
    /// Enables with nothing to release.
    Underflow,
    /// One message down, nothing else.
    Down,
}

/// The value `Emit::All` patches into both filter slots.
const PATCHED: i64 = 0x11;
/// What [`Plain`] writes into its header field on the layered path.
const MARK: u64 = 0xA5;

type Log = Arc<Mutex<Vec<String>>>;
type Arm = Arc<Mutex<Option<(Ph, Emit)>>>;

fn log_call(log: &Log, name: &str, ph: Ph, ctx: &LayerCtx<'_>) {
    log.lock().unwrap().push(format!(
        "{name}.{} send={} recv={}",
        ph.label(),
        ctx.send_predict.enabled(),
        ctx.recv_predict.enabled()
    ));
}

/// A layer that logs every phase call with the prediction state it
/// observed and, when armed for that phase, emits the armed effects.
/// Its send filter stamps a one-byte tag from a slot; its delivery
/// filter diverts a frame whose tag differs from another slot.
struct Scripted {
    name: &'static str,
    log: Log,
    arm: Arm,
    slots: Option<(SlotId, SlotId)>,
}

impl Scripted {
    /// A one-byte tag field named after the layer, stamped by the send
    /// filter and checked by the delivery filter, each from a slot.
    fn declare(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
        let tag = d.add_field(Class::Message, d.layer_name(), 8, None)?;
        let send_slot = d.send_slot(0);
        d.send_filter([Op::PushSlot(send_slot), Op::PopField(tag)]);
        let recv_slot = d.recv_slot(0);
        d.recv_filter([
            Op::PushField(tag),
            Op::PushSlot(recv_slot),
            Op::Ne,
            Op::Abort(0x33),
        ]);
        Ok(())
    }

    fn fire(&mut self, ph: Ph, ctx: &mut LayerCtx<'_>) {
        log_call(&self.log, self.name, ph, ctx);
        let mut arm = self.arm.lock().unwrap();
        let Some((_, emit)) = (*arm).filter(|(at, _)| *at == ph) else {
            return;
        };
        *arm = None;
        let (send_slot, recv_slot) = self.slots.expect("bound");
        match emit {
            Emit::All => {
                ctx.patch_send_slot(send_slot, PATCHED);
                ctx.patch_recv_slot(recv_slot, PATCHED);
                ctx.disable_send(DisableReason::Resync);
                ctx.disable_send(DisableReason::Other);
                ctx.enable_send(DisableReason::Other);
                ctx.disable_recv(DisableReason::Reordering);
                let down = ctx.control_frame(b"dn");
                ctx.emit_down(down);
                let unusual = ctx.control_frame(b"du");
                ctx.emit_down_unusual(unusual);
                let up = ctx.control_frame(b"up");
                ctx.emit_up(up);
            }
            Emit::Release => {
                ctx.patch_send_slot(send_slot, 0);
                ctx.patch_recv_slot(recv_slot, 0);
                ctx.enable_send(DisableReason::Resync);
                ctx.enable_recv(DisableReason::Reordering);
            }
            Emit::Underflow => {
                ctx.enable_send(DisableReason::FragPending);
                ctx.enable_recv(DisableReason::FragPending);
            }
            Emit::Down => {
                let down = ctx.control_frame(b"reply");
                ctx.emit_down(down);
            }
        }
    }
}

impl Layer for Scripted {
    fn name(&self) -> &'static str {
        self.name
    }
    fn shape(&self) -> LayerShape {
        LayerShape::new(Scripted::declare, [])
    }
    fn bind(&mut self, handles: Handles<'_>) {
        let ([send_slot], [recv_slot]) = (handles.send_slots(), handles.recv_slots());
        self.slots = Some((send_slot, recv_slot));
    }
    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> SendAction {
        self.fire(Ph::PreSend, ctx);
        SendAction::Continue
    }
    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.fire(Ph::PostSend, ctx);
    }
    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        self.fire(Ph::PreDeliver, ctx);
        DeliverAction::Continue
    }
    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        self.fire(Ph::PostDeliver, ctx);
    }
    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, _now: Nanos) {
        self.fire(Ph::Tick, ctx);
    }
}

/// The plain layer between the two scripted ones. It asks for nothing;
/// its pre-send writes [`MARK`] into its own header byte, so the wire
/// shows which frames came down through it.
struct Plain {
    log: Log,
    mark: Option<Field>,
}

impl Layer for Plain {
    fn name(&self) -> &'static str {
        "mid"
    }
    fn shape(&self) -> LayerShape {
        LayerShape::new(
            |d, _| {
                d.add_field(Class::Message, "mid", 8, None)?;
                Ok(())
            },
            [],
        )
    }
    fn bind(&mut self, handles: Handles<'_>) {
        let [mark] = handles.fields();
        self.mark = Some(mark);
    }
    fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
        log_call(&self.log, "mid", Ph::PreSend, ctx);
        ctx.frame(msg).write(self.mark.expect("bound"), MARK);
        SendAction::Continue
    }
    fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        log_call(&self.log, "mid", Ph::PostSend, ctx);
    }
    fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, _msg: &mut Msg) -> DeliverAction {
        log_call(&self.log, "mid", Ph::PreDeliver, ctx);
        DeliverAction::Continue
    }
    fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
        log_call(&self.log, "mid", Ph::PostDeliver, ctx);
    }
    fn on_tick(&mut self, ctx: &mut LayerCtx<'_>, _now: Nanos) {
        log_call(&self.log, "mid", Ph::Tick, ctx);
    }
}

/// One connection with handles on its layers' log and arming switches.
struct Side {
    conn: Connection,
    log: Log,
    lo: Arm,
    hi: Arm,
}

impl Side {
    fn new(
        tag: char,
        layers: Vec<Box<dyn Layer>>,
        cfg: PaConfig,
        log: Log,
        lo: Arm,
        hi: Arm,
    ) -> Side {
        let (local, peer, seed) = if tag == 'a' { (1, 2, 71) } else { (2, 1, 72) };
        let mut conn = Connection::new(
            layers,
            cfg,
            ConnectionParams {
                local: EndpointAddr::from_parts(local, 6),
                peer: EndpointAddr::from_parts(peer, 6),
                seed,
                // Fixed, so the recorded wire bytes hold on any host.
                order: ByteOrder::Big,
            },
        )
        .expect("valid stack");
        conn.set_probe(ProbeSink::ring(512));
        Side { conn, log, lo, hi }
    }

    /// The contract stack: scripted `lo`, plain `mid`, scripted `hi`.
    fn scripted(tag: char, cfg: PaConfig) -> Side {
        let (log, lo, hi) = (Log::default(), Arm::default(), Arm::default());
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Scripted {
                name: "lo",
                log: log.clone(),
                arm: lo.clone(),
                slots: None,
            }),
            Box::new(Plain {
                log: log.clone(),
                mark: None,
            }),
            Box::new(Scripted {
                name: "hi",
                log: log.clone(),
                arm: hi.clone(),
                slots: None,
            }),
        ];
        Side::new(tag, layers, cfg, log, lo, hi)
    }

    /// A one-slot sliding window under a scripted `hi`.
    fn over_window(tag: char) -> Side {
        let (log, hi) = (Log::default(), Arm::default());
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(WindowLayer::new(WindowConfig {
                window: 1,
                ..WindowConfig::default()
            })),
            Box::new(Scripted {
                name: "hi",
                log: log.clone(),
                arm: hi.clone(),
                slots: None,
            }),
        ];
        Side::new(
            tag,
            layers,
            PaConfig::paper_default(),
            log,
            Arm::default(),
            hi,
        )
    }

    fn arm(&self, layer: &str, ph: Ph, emit: Emit) {
        let arm = if layer == "lo" { &self.lo } else { &self.hi };
        *arm.lock().unwrap() = Some((ph, emit));
    }

    fn armed(&self) -> bool {
        self.lo.lock().unwrap().is_some() || self.hi.lock().unwrap().is_some()
    }

    fn take_log(&self) -> Vec<String> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }

    fn take_events(&mut self) -> Vec<TraceEvent> {
        let ring = self
            .conn
            .probe_mut()
            .trace_ring_mut()
            .expect("ring probe installed");
        assert_eq!(ring.overwritten(), 0, "ring sized for the script");
        let events = ring.records().iter().map(|r| r.event).collect();
        ring.clear();
        events
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Two sides and the transcript of everything observable about them.
struct Run {
    a: Side,
    b: Side,
    now: Nanos,
    out: String,
    /// Layer calls and trace events per side since the last `take_*`.
    seen: [(Vec<String>, Vec<TraceEvent>); 2],
}

impl Run {
    fn new(a: Side, b: Side) -> Run {
        Run {
            a,
            b,
            now: 1_000_000,
            out: String::new(),
            seen: Default::default(),
        }
    }

    fn side(&mut self, tag: char) -> &mut Side {
        if tag == 'a' {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Moves what the layers logged and the engine traced since the
    /// last step into the transcript (and into `seen`).
    fn absorb(&mut self) {
        for (i, tag) in ['a', 'b'].into_iter().enumerate() {
            let side = self.side(tag);
            let (calls, events) = (side.take_log(), side.take_events());
            for c in &calls {
                writeln!(self.out, "  {tag} call  {c}").unwrap();
            }
            for e in &events {
                writeln!(self.out, "  {tag} event {e:?}").unwrap();
            }
            self.seen[i].0.extend(calls);
            self.seen[i].1.extend(events);
        }
    }

    /// The calls and events of side `tag` since the previous take.
    fn take_seen(&mut self, tag: char) -> (Vec<String>, Vec<TraceEvent>) {
        std::mem::take(&mut self.seen[(tag == 'b') as usize])
    }

    fn send(&mut self, tag: char, payload: &[u8]) -> SendOutcome {
        let outcome = self.side(tag).conn.send(payload);
        let text = String::from_utf8_lossy(payload).into_owned();
        writeln!(self.out, "{tag}.send {text} -> {outcome:?}").unwrap();
        self.absorb();
        outcome
    }

    fn tick(&mut self, dt: Nanos) {
        self.now += dt;
        for tag in ['a', 'b'] {
            let now = self.now;
            self.side(tag).conn.tick(now);
            writeln!(self.out, "{tag}.tick").unwrap();
            self.absorb();
        }
    }

    /// Carries frames both ways, runs the deferred work and hands
    /// deliveries to the applications until both sides are quiet.
    fn pump(&mut self) {
        for _ in 0..32 {
            let mut moved = false;
            for (from, to) in [('a', 'b'), ('b', 'a')] {
                while let Some(frame) = self.side(from).conn.poll_transmit() {
                    moved = true;
                    let bytes = hex(frame.as_slice());
                    let outcome = self.side(to).conn.deliver_frame(frame);
                    writeln!(self.out, "wire {from}>{to} {bytes} -> {outcome:?}").unwrap();
                    self.absorb();
                }
            }
            for tag in ['a', 'b'] {
                // Unconditionally, as an idle host would: a backlog
                // behind a released hold is not `has_pending()`.
                let report = self.side(tag).conn.process_pending();
                if !report.is_empty() {
                    moved = true;
                    writeln!(
                        self.out,
                        "{tag}.post send={}/{} deliver={}/{} frames={} drained={}",
                        report.post_send_frames,
                        report.post_send_phases,
                        report.post_deliver_frames,
                        report.post_deliver_phases,
                        report.frames_sent,
                        report.backlog_drained
                    )
                    .unwrap();
                    self.absorb();
                }
                while let Some(msg) = self.side(tag).conn.poll_delivery() {
                    let text = String::from_utf8_lossy(msg.as_slice()).into_owned();
                    writeln!(self.out, "{tag}.app {text}").unwrap();
                }
            }
            if !moved {
                return;
            }
        }
        panic!("the two sides never went quiet:\n{}", self.out);
    }

    fn finish(mut self) -> String {
        for tag in ['a', 'b'] {
            let conn = &self.side(tag).conn;
            let state = format!(
                "{tag} final send_holds={:?} recv_holds={:?} violations={} backlog={}\n{tag} final {:?}\n",
                conn.send_prediction().holds(),
                conn.recv_prediction().holds(),
                conn.invariant_violations(),
                conn.backlog_len(),
                conn.stats(),
            );
            assert!(conn.stats().delivery_balanced(), "{state}");
            assert!(conn.stats().rejects_reconcile(), "{state}");
            self.out.push_str(&state);
        }
        self.out
    }
}

fn count(events: &[TraceEvent], want: impl Fn(&TraceEvent) -> bool) -> usize {
    events.iter().filter(|e| want(e)).count()
}

/// One cell of the matrix: `layer` emits [`Emit::All`] from `ph`, the
/// side it ran on then queues a send behind the hold, a tick releases
/// it, and traffic resumes.
fn scenario(layer: &'static str, ph: Ph) -> String {
    // Pre phases only run on the layered path.
    let cfg = PaConfig {
        predict: !matches!(ph, Ph::PreSend | Ph::PreDeliver),
        ..PaConfig::paper_default()
    };
    // Delivery phases fire on the receiver of `a`'s message.
    let x = if matches!(ph, Ph::PreDeliver | Ph::PostDeliver) {
        'b'
    } else {
        'a'
    };
    let mut run = Run::new(Side::scripted('a', cfg), Side::scripted('b', cfg));

    // One message each way first, so the identification is off the
    // wire and the cookies are known; the transcript starts after it.
    run.send('a', b"w0");
    run.pump();
    run.send('b', b"w1");
    run.pump();
    run.take_seen('a');
    run.take_seen('b');
    run.out = format!("== {layer} emits from {} on {x}\n", ph.label());

    run.side(x).arm(layer, ph, Emit::All);
    run.send('a', b"m1");
    run.pump();
    run.tick(1_000_000);
    run.pump();
    assert!(!run.side(x).armed(), "{layer}.{} never ran", ph.label());

    // Order: the emitting phase itself still saw both predictions
    // enabled; whatever phase ran next — the next layer's, of the same
    // operation — already saw them held.
    let (calls, events) = run.take_seen(x);
    let at = calls
        .iter()
        .position(|c| *c == format!("{layer}.{} send=true recv=true", ph.label()))
        .unwrap_or_else(|| panic!("no enabled {layer}.{} call in {calls:?}", ph.label()));
    assert!(
        calls[at + 1].ends_with("send=false recv=false"),
        "holds not in force by the next phase: {calls:?}"
    );

    // By-kind order and attribution: both disables, then the enable,
    // all charged to the emitting layer; then its two control frames.
    let engine: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Disable { .. } | TraceEvent::Enable { .. } | TraceEvent::Control { .. }
            )
        })
        .collect();
    let hold = |reason, send| TraceEvent::Disable {
        layer,
        reason,
        send,
    };
    assert_eq!(
        engine,
        [
            &hold(DisableReason::Resync, true),
            &hold(DisableReason::Other, true),
            &TraceEvent::Enable {
                layer,
                reason: DisableReason::Other,
                send: true
            },
            &hold(DisableReason::Reordering, false),
            &TraceEvent::Control { layer },
            &TraceEvent::Control { layer },
        ]
    );
    let conn = &run.side(x).conn;
    assert_eq!(
        conn.send_prediction().top_hold(),
        Some((layer, DisableReason::Resync))
    );
    assert_eq!(
        conn.recv_prediction().top_hold(),
        Some((layer, DisableReason::Reordering))
    );
    assert_eq!(conn.stats().control_msgs, 2);

    // A send behind the hold queues, and names the holder.
    assert_eq!(run.send(x, b"q1"), SendOutcome::Queued);
    let (_, events) = run.take_seen(x);
    assert_eq!(
        events,
        [TraceEvent::Queued {
            disable_layer: layer
        }]
    );
    run.pump();

    run.side(x).arm(layer, Ph::Tick, Emit::Release);
    run.tick(1_000_000);
    run.pump();
    let (_, events) = run.take_seen(x);
    assert_eq!(
        count(
            &events,
            |e| matches!(e, TraceEvent::Enable { layer: l, .. } if *l == layer)
        ),
        2
    );
    let conn = &run.side(x).conn;
    assert_eq!(conn.send_prediction().top_hold(), None);
    assert_eq!(conn.recv_prediction().top_hold(), None);
    assert_eq!(conn.backlog_len(), 0, "the release let the backlog out");

    run.send('a', b"m2");
    run.pump();
    run.send('b', b"m3");
    run.pump();
    assert_eq!(run.a.conn.invariant_violations(), 0);
    assert_eq!(run.b.conn.invariant_violations(), 0);
    run.finish()
}

#[test]
fn every_effect_from_every_phase_matches_the_recorded_engine() {
    let mut transcript = String::new();
    for layer in ["lo", "hi"] {
        for ph in Ph::ALL {
            transcript.push_str(&scenario(layer, ph));
        }
    }
    let golden = include_str!("golden/phase_effects.txt");
    if transcript != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("phase_effects.txt");
        std::fs::write(&actual, &transcript).expect("temp dir is writable");
        let line = transcript
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(golden.lines().count()));
        panic!(
            "transcript differs from tests/golden/phase_effects.txt at line {}:\n  got  {:?}\n  want {:?}\nfull transcript: {}",
            line + 1,
            transcript.lines().nth(line),
            golden.lines().nth(line),
            actual.display()
        );
    }
}

/// A `down` message enters the stack *below* the layer that emitted it.
#[test]
fn a_down_message_enters_below_its_emitter() {
    for (layer, through_mid) in [("hi", true), ("lo", false)] {
        let cfg = PaConfig::paper_default();
        let mut run = Run::new(Side::scripted('a', cfg), Side::scripted('b', cfg));
        run.send('a', b"w0");
        run.pump();
        run.take_seen('a');
        run.a.arm(layer, Ph::PostSend, Emit::Down);
        run.send('a', b"m1");
        run.pump();
        let (calls, _) = run.take_seen('a');
        let mid_pre_sends = calls
            .iter()
            .filter(|c| c.starts_with("mid.pre_send"))
            .count();
        assert_eq!(mid_pre_sends, through_mid as usize, "{layer}: {calls:?}");
        assert_eq!(run.a.conn.stats().control_msgs, 1);
    }
}

/// A `down` emitted in `post_deliver` goes through the window layer
/// below; that frame's own post-send fills the one-slot window, so the
/// send path ends up held — by the window, not by the layer whose
/// effect started the chain.
#[test]
fn a_chained_disable_is_charged_to_the_layer_that_asked_for_it() {
    let mut run = Run::new(Side::over_window('a'), Side::over_window('b'));
    run.b.arm("hi", Ph::PostDeliver, Emit::Down);
    assert_eq!(run.send('a', b"m"), SendOutcome::FastPath);
    run.pump();
    assert!(!run.b.armed());

    let (_, events) = run.take_seen('b');
    let chain: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Control { .. } | TraceEvent::Disable { .. }))
        .collect();
    assert_eq!(
        chain,
        [
            &TraceEvent::Control { layer: "hi" },
            &TraceEvent::Disable {
                layer: "window",
                reason: DisableReason::FullWindow,
                send: true
            },
        ]
    );
    assert_eq!(
        run.b.conn.send_prediction().top_hold(),
        Some(("window", DisableReason::FullWindow))
    );
    assert_eq!(run.send('b', b"x"), SendOutcome::Queued);
    let (_, events) = run.take_seen('b');
    assert_eq!(
        events,
        [TraceEvent::Queued {
            disable_layer: "window"
        }]
    );
    let stats = *run.b.conn.stats();
    assert_eq!(
        (stats.control_msgs, stats.queued_sends, stats.frames_out),
        (1, 1, 1)
    );

    // `a`'s next message carries the acknowledgement that reopens b's
    // window; the release, too, is the window's.
    assert_eq!(run.send('a', b"m2"), SendOutcome::FastPath);
    run.pump();
    let (_, events) = run.take_seen('b');
    assert_eq!(
        count(&events, |e| *e
            == TraceEvent::Enable {
                layer: "window",
                reason: DisableReason::FullWindow,
                send: true
            }),
        1
    );
    assert!(run.out.contains("a.app reply"), "{}", run.out);
    assert!(run.out.contains("a.app x"), "{}", run.out);
    run.finish();
}

/// An enable with no hold to release is counted and traced, charged to
/// the layer, and otherwise ignored: no panic, no negative count, and
/// the fast path stays open.
#[test]
fn an_enable_underflow_is_counted_and_survived() {
    let cfg = PaConfig::paper_default();
    let mut run = Run::new(Side::scripted('a', cfg), Side::scripted('b', cfg));
    run.send('a', b"w0");
    run.pump();
    run.take_seen('a');
    run.a.arm("hi", Ph::PostSend, Emit::Underflow);
    run.send('a', b"m1");
    run.pump();
    let (_, events) = run.take_seen('a');
    let underflow = TraceEvent::InvariantViolation {
        layer: "hi",
        what: Invariant::EnableUnderflow,
    };
    assert_eq!(count(&events, |e| *e == underflow), 2);
    assert_eq!(
        count(&events, |e| matches!(e, TraceEvent::Enable { .. })),
        0
    );
    assert_eq!(run.a.conn.invariant_violations(), 2);
    assert!(run.a.conn.send_prediction().enabled());
    assert!(run.a.conn.recv_prediction().enabled());
    assert_eq!(run.send('a', b"m2"), SendOutcome::FastPath);
    run.pump();
    assert!(run.out.contains("b.app m2"), "{}", run.out);
    run.finish();
}

/// `apply_effects` drains the scratch `Effects` and hands it back with
/// its capacity: a stack whose post phases patch a filter slot on every
/// frame allocates nothing once warm.
#[test]
fn slot_patching_post_phases_allocate_nothing_once_warm() {
    let conn = |l: u64, p: u64, seed: u64| {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(ChecksumLayer::new(DigestKind::InternetChecksum)),
            Box::new(TimestampLayer::new()),
        ];
        Connection::new(
            layers,
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(l, 6),
                EndpointAddr::from_parts(p, 6),
                seed,
            ),
        )
        .expect("valid stack")
    };
    let (mut a, mut b) = (conn(1, 2, 81), conn(2, 1, 82));
    let mut in_post = 0;
    let mut calls = 0;
    for round in 0..564u64 {
        let warm = round >= 64;
        let one_way = |from: &mut Connection, to: &mut Connection| {
            from.set_now(round * 1_000_000);
            assert_eq!(from.send(b"12345678"), SendOutcome::FastPath);
            let frame = from.poll_transmit().expect("one frame per send");
            to.deliver_frame(frame);
            let delivered = to.poll_delivery().expect("delivered");
            to.recycle(delivered);
        };
        one_way(&mut a, &mut b);
        one_way(&mut b, &mut a);
        for conn in [&mut a, &mut b] {
            let before = common::allocations();
            let report = conn.process_pending();
            if warm {
                in_post += common::allocations() - before;
                calls += 1;
            }
            assert_eq!(
                (report.post_send_phases, report.post_deliver_phases),
                (2, 2)
            );
        }
    }
    assert_eq!(calls, 1_000);
    assert_eq!(in_post, 0, "allocations in 1000 warm process_pending calls");
}
