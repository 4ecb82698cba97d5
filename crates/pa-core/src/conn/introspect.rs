//! Introspection: what explains the data and control paths and steers
//! neither. [`Introspection`] is one record held by value; the data
//! path writes it through one method per path decision —
//! `record_fast_send`, `record_slow_send`, `record_queued_send`,
//! `record_fast_deliver`, `record_slow_deliver`, `reject` — each of
//! which writes every account of that decision (the `ConnStats` counter,
//! the attribution row, the explain tag, the trace event), so a path
//! cannot be counted in one ledger and missed in another.
//! [`Connection::fold_into`] reads the record back into a fleet view;
//! the xray report is that view for one connection.

use super::{Connection, DeliverOutcome};
use pa_buf::Msg;
use pa_filter::SlotId;
use pa_obs::{
    journey_id, AttrCause, Attribution, DropCause, FieldRef, Fleet, HoldRow, LeakCause, LeakLedger,
    MissTable, Phase, PhaseMeter, PhaseMeters, ProbeSink, RejectBucket, RejectReason, SlowCause,
    TraceEvent, XrayOp, XrayReport, XrayTag, XrayTotals,
};
use pa_wire::{Class, Field};
use std::time::Instant;

/// The in-band trace context's handles (`config.trace_ctx` on): the
/// `trace_journey` / `trace_hop` fields of the Message Specific class
/// and the send-filter slots they are filled from (§3.3 — tracing rides
/// the PA's own header machinery).
#[derive(Debug, Clone, Copy)]
pub(super) struct TraceCtx {
    pub(super) journey: Field,
    pub(super) hop: Field,
    pub(super) journey_slot: SlotId,
    pub(super) hop_slot: SlotId,
}

/// A connection's forensics and telemetry state, as one record: what
/// the fast path writes held inline, what only slow-path events and
/// probes write held out of line, allocated the first time one needs it.
#[derive(Debug)]
pub struct Introspection {
    /// Pre/post/tick phase meters, parallel to the stack: a whole-stack
    /// traversal counted once, every other call per layer.
    meters: PhaseMeters,
    /// When set, every metered phase call is running on a later
    /// operation's critical path (a synchronous drain, eager post
    /// processing, a receive re-fuse) and is charged as *leaked*
    /// instead of masked. Scopes are set/restored around the guilty
    /// call sites; they never nest across operations.
    leak_scope: Option<LeakCause>,
    /// See [`Connection::last_send_explain`] (`none` = fast path).
    last_send_explain: XrayTag,
    last_deliver_explain: XrayTag,
    /// `None` with `config.trace_ctx` off — absent fields cost nothing
    /// on the wire or in the layout.
    trace: Option<TraceCtx>,
    /// Origin tag for minted journey ids: the low 32 bits of our
    /// cookie, unique per connection on a host.
    trace_origin: u32,
    /// Sequence number of the next minted journey (starts at 1; a
    /// journey id of 0 means "absent").
    journey_seq: u64,
    /// `(journey, hop)` of the last frame wired / accepted.
    last_sent_trace: Option<(u64, u8)>,
    last_recv_trace: Option<(u64, u8)>,
    /// The slow-path half: `None` until a slow-path event, a leaked
    /// phase, a disable or a probe first writes it. A connection whose
    /// traffic stays on the fast path never allocates it.
    slow: Option<Box<SlowHalf>>,
}

/// What only the paths that left the fast path write, and the probe.
#[derive(Debug)]
struct SlowHalf {
    /// See [`Connection::attribution`]: every excursion, attributed.
    attribution: Attribution,
    /// Per-`(layer, field)` prediction-miss forensics.
    miss_table: MissTable,
    /// Mirrors the leaked sub-counts of the phase meters, plus engine
    /// leaks (re-fuse) the per-layer meters cannot hold.
    leaks: LeakLedger,
    /// Name of the last layer whose effects disabled the send
    /// prediction — attributed on `Queued` trace events.
    last_disable_layer: &'static str,
    /// Where trace events go. [`ProbeSink::Noop`] until a host installs
    /// one.
    probe: ProbeSink,
}

impl SlowHalf {
    const EMPTY: SlowHalf = SlowHalf {
        attribution: Attribution::EMPTY,
        miss_table: MissTable::EMPTY,
        leaks: LeakLedger::EMPTY,
        last_disable_layer: "(init)",
        probe: ProbeSink::Noop,
    };
}

/// What a connection without a slow-path half reads through it.
static NO_SLOW_HALF: SlowHalf = SlowHalf::EMPTY;

impl Introspection {
    /// The record of a connection that has done nothing yet.
    pub(super) fn new(trace: Option<TraceCtx>, trace_origin: u32) -> Introspection {
        Introspection {
            meters: PhaseMeters::default(),
            leak_scope: None,
            last_send_explain: XrayTag::none(),
            last_deliver_explain: XrayTag::none(),
            trace,
            trace_origin,
            journey_seq: 1,
            last_sent_trace: None,
            last_recv_trace: None,
            slow: None,
        }
    }

    /// True if nothing has left the fast path: no attributed excursion,
    /// no recorded miss, no leaked phase, both explain tags clear. (The
    /// phase meters count the masked posts of fast traffic too, and are
    /// not part of this.) The three tables live in the slow-path half,
    /// which fast traffic never allocates.
    pub fn is_empty(&self) -> bool {
        let slow = self.slow_half();
        slow.attribution.is_empty()
            && slow.miss_table.is_empty()
            && slow.leaks.is_empty()
            && self.last_send_explain.cause().is_none()
            && self.last_deliver_explain.cause().is_none()
    }

    /// The slow-path half, read: the empty one while none is allocated.
    fn slow_half(&self) -> &SlowHalf {
        self.slow.as_deref().unwrap_or(&NO_SLOW_HALF)
    }

    /// The slow-path half, written: allocated here the first time.
    fn slow_mut(&mut self) -> &mut SlowHalf {
        self.slow.get_or_insert_with(|| Box::new(SlowHalf::EMPTY))
    }

    /// Remembers who last held the send path shut, so a later `Queued`
    /// event names the culprit.
    pub(super) fn note_send_disable(&mut self, layer: &'static str) {
        self.slow_mut().last_disable_layer = layer;
    }
}

/// The coarse [`DropCause`] a structured rejection renders as in trace
/// events (the event stays within its fixed byte budget; the full
/// reason lives in the ledger and the xray tag).
fn reject_drop_cause(reason: RejectReason) -> DropCause {
    match reason {
        RejectReason::ForeignIdent => DropCause::ForeignIdent,
        r if r.bucket() == RejectBucket::Cookie => DropCause::UnknownCookie,
        _ => DropCause::Malformed,
    }
}

impl Connection {
    // ------------------------------------------------------------------
    // One record per path decision
    // ------------------------------------------------------------------

    /// One attribution row, and the explain tag that says the same.
    fn charge(&mut self, op: XrayOp, layer: &'static str, cause: AttrCause) -> XrayTag {
        self.intro.slow_mut().attribution.bump(op, layer, cause);
        XrayTag::from_cause(self.layer_byte(layer), cause)
    }

    /// A send took the fast path.
    #[inline]
    pub(super) fn record_fast_send(&mut self) {
        self.stats.fast_sends += 1;
        self.intro.last_send_explain = XrayTag::none();
        self.emit(TraceEvent::FastSend);
    }

    /// A send entered the layered traversal, charged to `(layer, cause)`.
    pub(super) fn record_slow_send(
        &mut self,
        layer: &'static str,
        cause: AttrCause,
        event: SlowCause,
    ) {
        self.stats.slow_sends += 1;
        self.intro.last_send_explain = self.charge(XrayOp::SlowSend, layer, cause);
        self.emit(TraceEvent::SlowSend { cause: event });
    }

    /// A send was parked in the backlog. Charged to exactly one
    /// `(layer, cause)`: the deepest active disable hold if one exists,
    /// otherwise the engine-level serialization / backlog rule.
    #[inline]
    pub(super) fn record_queued_send(&mut self) {
        self.stats.queued_sends += 1;
        let disabled = !self.send_predict.enabled();
        let (layer, cause) = if disabled {
            match self.send_predict.top_hold() {
                Some((layer, reason)) => (layer, AttrCause::Disabled(reason)),
                None => ("pa", AttrCause::Unattributed),
            }
        } else if !self.pending_send.is_empty() {
            // Serialization rule: charge the layer whose control frame
            // is awaiting post-processing if one is in the queue;
            // otherwise it is the application's own previous send,
            // which is the engine's doing ("pa").
            let origin = self
                .pending_send
                .iter()
                .map(|(_, o)| *o)
                .find(|o| *o != "pa")
                .unwrap_or("pa");
            (origin, AttrCause::PostSerialization)
        } else {
            ("pa", AttrCause::BacklogPending)
        };
        self.intro.last_send_explain = self.charge(XrayOp::QueuedSend, layer, cause);
        let disable_layer = if disabled {
            self.intro.slow_half().last_disable_layer
        } else {
            // Not a disable at all: §3.4's serialization rule
            // (post-processing of an earlier message is pending).
            "(post-serialization)"
        };
        self.emit(TraceEvent::Queued { disable_layer });
    }

    /// A frame was delivered on the fast path as `msgs` messages.
    #[inline]
    pub(super) fn record_fast_deliver(&mut self, msgs: usize) {
        self.stats.fast_deliveries += 1;
        self.intro.last_deliver_explain = XrayTag::none();
        self.emit(TraceEvent::FastDeliver { msgs: msgs as u32 });
    }

    /// An accepted frame is about to enter the layered traversal,
    /// charged to exactly one `(layer, cause)`. The filter outranks
    /// prediction (a frame it refused never reaches the comparison),
    /// then the reasons the prediction could not match, most specific
    /// last.
    pub(super) fn record_slow_deliver(
        &mut self,
        filter_passed: bool,
        rejected_at: Option<u16>,
        frame: &Msg,
    ) {
        let cause = if !filter_passed {
            self.stats.recv_filter_misses += 1;
            SlowCause::FilterReject
        } else if !self.config.predict {
            SlowCause::PredictOff
        } else {
            self.stats.predict_misses += 1;
            if !self.recv_predict.enabled() {
                SlowCause::PredictDisabled
            } else {
                SlowCause::PredictMiss
            }
        };
        let (layer, attr) = self.attribute_slow_deliver(cause, rejected_at, frame);
        self.intro.last_deliver_explain = self.charge(XrayOp::SlowDeliver, layer, attr);
        self.stats.slow_deliveries += 1;
        self.emit(TraceEvent::SlowDeliver { cause });
    }

    /// Rejects a frame with the structured `reason`, charged to the
    /// engine. Exactly one coarse drop counter (the one the reason rolls
    /// up into) and one reject-ledger slot move per call, so
    /// `delivery_balanced()` and `rejects_reconcile()` hold by
    /// construction; the explain tag lets annotated captures show the
    /// refusal.
    pub(super) fn reject(&mut self, reason: RejectReason) -> DeliverOutcome {
        debug_assert!(
            reason.is_entry(),
            "non-entry reasons are counted at their own site: {reason}"
        );
        match reason.bucket() {
            RejectBucket::Cookie => self.stats.drops_unknown_cookie += 1,
            RejectBucket::Malformed => self.stats.drops_malformed += 1,
            RejectBucket::Layer => self.stats.drops_by_layer += 1,
            RejectBucket::Send => self.stats.drops_send_rejected += 1,
            RejectBucket::Netif => {}
        }
        self.stats.rejects.bump(reason);
        self.intro.last_deliver_explain =
            self.charge(XrayOp::Reject, "pa", AttrCause::Rejected(reason));
        self.emit(TraceEvent::Drop {
            reason: reject_drop_cause(reason),
        });
        DeliverOutcome::Dropped(reason)
    }

    /// Names the `(layer, cause)` of a slow delivery: a filter rejection
    /// charges the layer whose fragment holds `rejected_at`, the
    /// instruction the filter stopped on; a prediction miss diffs the
    /// protocol header against the prediction field by field, records
    /// *every* mismatching `(owning layer, field)` in the miss table and
    /// charges the first; a disabled prediction charges the deepest
    /// active hold. Emits the diagnosis events (`FilterReject` /
    /// `PredictMiss`) when a probe listens.
    fn attribute_slow_deliver(
        &mut self,
        cause: SlowCause,
        rejected_at: Option<u16>,
        frame: &Msg,
    ) -> (&'static str, AttrCause) {
        match cause {
            SlowCause::FilterReject => match rejected_at {
                Some(pc) => {
                    self.emit_filter_reject(pc, self.plan.recv.op_at(pc));
                    (self.plan.recv.layer_at(pc), AttrCause::FilterReject)
                }
                None => ("pa", AttrCause::FilterReject),
            },
            SlowCause::PredictOff => ("pa", AttrCause::PredictOff),
            SlowCause::PredictDisabled => match self.recv_predict.top_hold() {
                Some((layer, reason)) => (layer, AttrCause::Disabled(reason)),
                None => ("pa", AttrCause::Unattributed),
            },
            SlowCause::PredictMiss => {
                // `hdr` borrows the caller's frame, not `self`, so the
                // attribution below can take `&mut self` without a copy.
                let Some(hdr) = frame.get(0, self.proto_len) else {
                    return ("pa", AttrCause::Unattributed);
                };
                let mut first: Option<(&'static str, FieldRef)> = None;
                for i in 0..self.plan.layout.class(Class::Protocol).field_count() {
                    let f = Field::new(Class::Protocol, i);
                    let got = self.plan.layout.read_field(f, hdr, self.peer_order);
                    let expected = self.recv_predict.get(&self.plan.layout, f);
                    if got != expected {
                        let field = FieldRef::new(Class::Protocol.index() as u8, i as u16);
                        let owner = self.protocol_field_owner(i);
                        self.intro
                            .slow_mut()
                            .miss_table
                            .bump(owner, field, expected, got);
                        if first.is_none() {
                            first = Some((owner, field));
                            if self.probe().enabled() {
                                self.emit(TraceEvent::PredictMiss {
                                    field,
                                    expected,
                                    got,
                                });
                            }
                        }
                    }
                }
                match first {
                    Some((owner, field)) => (owner, AttrCause::FieldMiss(field)),
                    // The bytes differed but every readable field
                    // matched (padding noise): visible as unattributed.
                    None => ("pa", AttrCause::Unattributed),
                }
            }
        }
    }

    /// Installs a trace probe. Ring probes are labelled with this
    /// connection's host id so merged timelines stay attributable.
    pub fn set_probe(&mut self, mut probe: ProbeSink) {
        if let Some(ring) = probe.trace_ring_mut() {
            ring.set_conn(self.params.local.host_id() as u32);
        }
        self.intro.slow_mut().probe = probe;
    }

    /// The installed probe (counts, ring records).
    pub fn probe(&self) -> &ProbeSink {
        &self.intro.slow_half().probe
    }

    /// Mutable probe access (clearing a ring between phases). Allocates
    /// the slow-path half the probe lives in, if there is none yet.
    pub fn probe_mut(&mut self) -> &mut ProbeSink {
        &mut self.intro.slow_mut().probe
    }

    /// Emits one trace event at the connection's current clock. With no
    /// slow-path half there is no probe: one test of a pointer.
    #[inline]
    pub(super) fn emit(&mut self, event: TraceEvent) {
        if let Some(slow) = self.intro.slow.as_deref_mut() {
            slow.probe.emit(self.now, event);
        }
    }

    /// Tells a listening probe which instruction refused a frame.
    pub(super) fn emit_filter_reject(&mut self, pc: u16, op: &'static str) {
        if self.probe().enabled() {
            self.emit(TraceEvent::FilterReject { pc, op });
        }
    }

    // ------------------------------------------------------------------
    // The in-band trace context (journeys)
    // ------------------------------------------------------------------

    /// Origin tag minted into this connection's journey ids (the low
    /// 32 bits of the local cookie).
    pub fn trace_origin(&self) -> u32 {
        self.intro.trace_origin
    }

    /// `(journey, hop)` stamped into the most recently wired frame, if
    /// tracing is on. Hosts use this to tag pcap captures.
    pub fn last_sent_trace(&self) -> Option<(u64, u8)> {
        self.intro.last_sent_trace
    }

    /// `(journey, hop)` read from the most recently accepted incoming
    /// frame, if tracing is on.
    pub fn last_recv_trace(&self) -> Option<(u64, u8)> {
        self.intro.last_recv_trace
    }

    /// Arms the trace-context slots before a send-filter run — a freshly
    /// minted journey at hop 0 — for the filter to copy into the frame's
    /// Message-specific header. No-op when tracing is off.
    #[inline]
    pub(super) fn arm_trace_slots(&mut self) {
        let Some(t) = self.intro.trace else {
            return;
        };
        let journey = journey_id(self.intro.trace_origin, self.intro.journey_seq as u32);
        self.intro.journey_seq += 1;
        self.send_slots[t.journey_slot.0 as usize] = journey as i64;
        self.send_slots[t.hop_slot.0 as usize] = 0;
    }

    /// Notes the journey stamped into the frame about to be wired (the
    /// slots the filter just copied into its header): recorded for the
    /// host's pcap tagging, emitted when a probe listens.
    #[inline]
    pub(super) fn note_sent_trace(&mut self) {
        let Some(t) = self.intro.trace else {
            return;
        };
        let journey = self.send_slots[t.journey_slot.0 as usize] as u64;
        let hop = self.send_slots[t.hop_slot.0 as usize] as u8;
        self.intro.last_sent_trace = Some((journey, hop));
        if journey != 0 && self.probe().enabled() {
            self.emit(TraceEvent::JourneySend { journey, hop });
        }
    }

    /// Reads the in-band trace context of an accepted frame (it
    /// delivers fast or slow from here on, never silently vanishes).
    /// Only runs when `trace_ctx` declared the fields.
    #[inline]
    pub(super) fn note_recv_trace(&mut self, frame: &Msg) {
        let Some(t) = self.intro.trace else {
            return;
        };
        let layout = &self.plan.layout;
        let Some(bytes) = frame.get(self.proto_len, self.msg_len) else {
            return;
        };
        let journey = layout.read_field(t.journey, bytes, self.peer_order);
        let hop = layout.read_field(t.hop, bytes, self.peer_order) as u8;
        if journey != 0 {
            self.intro.last_recv_trace = Some((journey, hop));
            if self.probe().enabled() {
                self.emit(TraceEvent::JourneyDeliver { journey, hop });
            }
        }
    }

    /// Per-layer phase meters, parallel to [`Connection::layer_names`].
    pub fn phase_meters(&self) -> impl ExactSizeIterator<Item = PhaseMeter> + Clone + '_ {
        self.intro.meters.iter(self.layers.len())
    }

    /// Turns on wall-clock metering of every phase call, de-biased by
    /// the shared timer-overhead correction
    /// ([`pa_obs::timer::span_overhead_ns`]) exactly like bench rows.
    /// The meters' per-layer record is allocated here if it is not yet:
    /// a connection that never meters, and whose traffic stays on the
    /// fast path, does not hold it.
    pub fn enable_cycle_meter(&mut self) {
        self.intro
            .meters
            .start_clocks(self.layers.len(), pa_obs::timer::span_overhead_ns());
    }

    /// The critical-path leak ledger: post-class work that a later
    /// operation had to wait on, keyed `(layer, phase, cause)`.
    pub fn leaks(&self) -> &LeakLedger {
        &self.intro.slow_half().leaks
    }

    /// Starts a cycle-meter sample if wall-clock metering is enabled;
    /// off, the hot path pays a test of a pointer and no clock read.
    #[inline]
    pub(super) fn meter_start(&self) -> Option<Instant> {
        self.intro.meters.clocked().then(Instant::now)
    }

    /// Counts one traversal of `phase` over every layer once, if the
    /// meters can: outside a leak scope, with the clocks off. False if
    /// each layer's call is to go through [`Connection::meter_record`].
    #[inline]
    pub(super) fn meter_whole(&mut self, phase: Phase) -> bool {
        let leaked = self.intro.leak_scope.is_some();
        self.intro.meters.record_whole(phase, leaked)
    }

    /// Records one phase invocation for `layer_idx`, with its elapsed
    /// nanoseconds when `t0` carries a sample. Inside a leak scope it is
    /// also flagged leaked in the meter and mirrored — same count, same
    /// de-biased nanoseconds — into the leak ledger, so the two stay
    /// exactly reconcilable.
    #[inline]
    pub(super) fn meter_record(&mut self, layer_idx: usize, phase: Phase, t0: Option<Instant>) {
        let dt = t0.map(|t| t.elapsed().as_nanos() as u64);
        let leaked = self.intro.leak_scope;
        let charged =
            self.intro
                .meters
                .record(self.layers.len(), layer_idx, phase, dt, leaked.is_some());
        if let Some(cause) = leaked {
            let Some(layer) = self.layers.get(layer_idx).map(|l| l.name()) else {
                return;
            };
            let leaks = &mut self.intro.slow_mut().leaks;
            leaks.bump(layer, phase, cause, 1, charged);
        }
    }

    /// Charges a mid-stream delivery-filter re-bind, started at `t0`,
    /// to the leak ledger as `("pa", recv-refuse)`: engine work a
    /// delivery waited on that the per-layer meters cannot hold.
    pub(super) fn record_recv_rebind_leak(&mut self, t0: Option<Instant>) {
        let bias = self.intro.meters.bias_ns();
        let ns = t0.map_or(0, |t| (t.elapsed().as_nanos() as u64).saturating_sub(bias));
        let leaks = &mut self.intro.slow_mut().leaks;
        leaks.bump("pa", Phase::PreDeliver, LeakCause::RecvRefuse, 1, ns);
    }

    /// Runs `f` with the critical-path leak scope set to `cause`,
    /// restoring the previous scope afterwards. Every phase call
    /// metered inside is charged as leaked.
    pub(super) fn with_leak_scope<T>(
        &mut self,
        cause: LeakCause,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let prev = self.intro.leak_scope.replace(cause);
        let out = f(self);
        self.intro.leak_scope = prev;
        out
    }

    // ------------------------------------------------------------------
    // Xray: fast-path explainability
    // ------------------------------------------------------------------

    /// The whole introspection record.
    pub fn introspection(&self) -> &Introspection {
        &self.intro
    }

    /// The attributed slow-path multiset (always on): every
    /// `slow_sends` / `queued_sends` / `slow_deliveries` increment is
    /// mirrored by exactly one `(op, layer, cause)` bump.
    pub fn attribution(&self) -> &Attribution {
        &self.intro.slow_half().attribution
    }

    /// Why the most recent send operation missed (or took) the fast
    /// path. [`XrayTag::none`] means fast path. Hosts read this right
    /// after a send to annotate pcap captures.
    pub fn last_send_explain(&self) -> XrayTag {
        self.intro.last_send_explain
    }

    /// Why the most recent accepted delivery missed (or took) the fast
    /// path.
    pub fn last_deliver_explain(&self) -> XrayTag {
        self.intro.last_deliver_explain
    }

    /// The [`XrayTag`] layer byte for a layer name (stack index, or
    /// [`XrayTag::ENGINE`] for the engine and pseudo-layers). The
    /// engine's own name needs no walk: no layer can take it (the plan
    /// refuses a stack that tries).
    fn layer_byte(&self, name: &str) -> u8 {
        if name == crate::plan::ENGINE {
            return XrayTag::ENGINE;
        }
        self.layers
            .iter()
            .position(|l| l.name() == name)
            .map(|i| i as u8)
            .unwrap_or(XrayTag::ENGINE)
    }

    /// The name `f` was declared under.
    fn field_label(&self, f: FieldRef) -> String {
        let class = Class::ALL[(f.class as usize).min(Class::ALL.len() - 1)];
        let name = self.plan.layout.field_name(class, f.index as usize);
        name.unwrap_or("?").to_string()
    }

    /// The layer that declared Protocol field `idx`: `LayerId` 0 is the
    /// engine's own `"pa"`, 1..=n the stack, n+1 the trace pseudo-layer.
    fn protocol_field_owner(&self, idx: usize) -> &'static str {
        let id = self.plan.layout.field_layer(Class::Protocol, idx);
        match id.and_then(|id| (id.0 as usize).checked_sub(1)) {
            None => "pa",
            Some(i) => self.layers.get(i).map_or("trace", |l| l.name()),
        }
    }

    /// Folds what this connection did off the fast path — its path
    /// counters, reject taxonomy, attribution, miss forensics, per-layer
    /// phase meters and leaks — into `fleet`. Reads the connection,
    /// keeps nothing on it.
    pub fn fold_into(&self, fleet: &mut Fleet) {
        fleet.conns += 1;
        fleet.totals.absorb(&XrayTotals {
            fast_sends: self.stats.fast_sends,
            slow_sends: self.stats.slow_sends,
            queued_sends: self.stats.queued_sends,
            fast_deliveries: self.stats.fast_deliveries,
            slow_deliveries: self.stats.slow_deliveries,
            invariant_violations: self.invariant_violations(),
        });
        fleet.rejects.merge(&self.stats.rejects);
        let slow = self.intro.slow_half();
        fleet.attribution.merge(&slow.attribution);
        fleet.misses.merge(&slow.miss_table);
        let names = self.layers.iter().map(|l| l.name());
        fleet.absorb_meters(names.zip(self.phase_meters()));
        fleet.leaks.merge(&slow.leaks);
    }

    /// Builds the ranked "why is this connection off the fast path"
    /// report: the report of a one-connection fleet with field names
    /// resolved through this connection's layout (virtual-time pricing
    /// is added by the simulator), plus what only a live connection
    /// has — its active disable holds, its pool and its fused filters.
    pub fn xray_report(&self) -> XrayReport {
        let mut fleet = Fleet::default();
        self.fold_into(&mut fleet);
        let scope = self.params.local.to_string();
        let mut report = fleet.report(&scope, self.now, |f| self.field_label(f));
        for (direction, p) in [("send", &self.send_predict), ("recv", &self.recv_predict)] {
            for h in p.holds().iter().filter(|h| h.active > 0) {
                report.holds.push(HoldRow {
                    direction,
                    layer: h.layer.to_string(),
                    reason: h.reason.label().to_string(),
                    active: h.active,
                });
            }
        }
        // Buffer-economics and filter-compilation context. Pool misses
        // never force a slow path, so they are not attribution entries
        // and must not perturb the reconciling multiset — but a miss on
        // the steady state is an excursion cause worth naming.
        let ps = self.pool.stats();
        let pool = format!(
            "pool: {} hits / {} misses / {} returns ({} idle); \
             steady-state misses indicate a burst outran the pool \
             or deliveries are not being recycled",
            ps.hits,
            ps.misses,
            ps.returns,
            self.pool.idle()
        );
        let (s, r) = (self.send_fused.stats(), self.recv_fused.stats());
        let fused = format!(
            "fused filters: {} fuses; send {} ops ({}/{} field ops \
             byte-aligned), recv {} ops ({}/{} byte-aligned)",
            self.fuse_count, s.ops, s.byte_aligned, s.field_ops, r.ops, r.byte_aligned, r.field_ops
        );
        report.notes.splice(0..0, [pool, fused]);
        report
    }
}
