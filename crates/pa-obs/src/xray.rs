//! pa-xray: fast-path explainability.
//!
//! The paper's speedup rests on the common case staying common: §3.2's
//! per-layer disable counters and header prediction decide whether a
//! message takes the ~170 µs fast path or falls back to the full
//! stack. This module makes every slow-path excursion *attributable*:
//!
//! - [`DisableReason`] — the vocabulary a layer uses when it holds a
//!   predicted header shut (`FullWindow`, `FragPending`, …), so the
//!   disable counter is no longer an opaque `u32`;
//! - [`AttrCause`] / [`Attribution`] — the per-connection attributed
//!   multiset: every slow or queued send and every slow delivery is
//!   charged to exactly one `(layer, cause)` pair, and the per-op sums
//!   reconcile *exactly* with the `ConnStats` path counters;
//! - [`MissTable`] — prediction-miss forensics: per-`(layer, field)`
//!   mismatch counters with the last predicted/actual values;
//! - [`PhaseMeter`] / [`Phase`] — per-layer pre/post phase execution
//!   counters (and optional cycle meters), which a cost model prices
//!   into the paper's critical-path breakdown;
//! - [`XrayReport`] — the diagnosis engine: joins all of the above
//!   with the path counters into a ranked "why is this connection off
//!   the fast path" report;
//! - [`XrayTag`] — a 4-byte wire encoding of one attribution, carried
//!   in annotated pcap pseudo-headers so a capture shows *why* each
//!   slow frame went slow.
//!
//! Everything on the engine side is allocation-light: attribution
//! tables are small linear-scan vectors keyed by `'static` layer names
//! and `Copy` causes, bumped only on paths that already left the fast
//! path. Report construction allocates freely — it runs off-path.

use crate::event::FieldRef;
use crate::reject::RejectReason;
use crate::Nanos;
use std::fmt;

// ---------------------------------------------------------------------------
// Disable reasons
// ---------------------------------------------------------------------------

/// Why a layer disabled a predicted header (§3.2's counter, attributed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisableReason {
    /// The send window is full; sends would only be buffered.
    FullWindow,
    /// A fragment reassembly is in progress; the next frames carry
    /// fragment headers the prediction cannot match.
    FragPending,
    /// A heartbeat has been scheduled but its post-send has not yet
    /// confirmed it reached the wire.
    HeartbeatDue,
    /// The peer's cookie has not been confirmed yet; frames still need
    /// the full connection identification.
    CookieUnconfirmed,
    /// Out-of-order arrivals are being stashed; the next in-order
    /// header is not predictable.
    Reordering,
    /// A resynchronization (retransmission storm, epoch change) is in
    /// progress.
    Resync,
    /// A non-standard reason (kept payload-free so [`crate::TraceEvent`]
    /// stays within its 32-byte budget).
    Other,
    /// No reason given: what an unknown wire code decodes to. No layer
    /// passes it; its presence in a report is itself a finding.
    Unattributed,
}

impl DisableReason {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            DisableReason::FullWindow => "full-window",
            DisableReason::FragPending => "frag-pending",
            DisableReason::HeartbeatDue => "heartbeat-due",
            DisableReason::CookieUnconfirmed => "cookie-unconfirmed",
            DisableReason::Reordering => "reordering",
            DisableReason::Resync => "resync",
            DisableReason::Other => "other",
            DisableReason::Unattributed => "unattributed",
        }
    }

    /// One-byte wire code (annotated pcap). `Other` folds to 250.
    pub fn code(self) -> u8 {
        match self {
            DisableReason::FullWindow => 1,
            DisableReason::FragPending => 2,
            DisableReason::HeartbeatDue => 3,
            DisableReason::CookieUnconfirmed => 4,
            DisableReason::Reordering => 5,
            DisableReason::Resync => 6,
            DisableReason::Other => 250,
            DisableReason::Unattributed => 255,
        }
    }

    /// Decodes a wire code (pcap readers). Unknown codes map to
    /// `Unattributed`.
    pub fn from_code(code: u8) -> DisableReason {
        match code {
            1 => DisableReason::FullWindow,
            2 => DisableReason::FragPending,
            3 => DisableReason::HeartbeatDue,
            4 => DisableReason::CookieUnconfirmed,
            5 => DisableReason::Reordering,
            6 => DisableReason::Resync,
            250 => DisableReason::Other,
            _ => DisableReason::Unattributed,
        }
    }
}

impl fmt::Display for DisableReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Slow-path attribution
// ---------------------------------------------------------------------------

/// Which path counter an attribution entry reconciles against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XrayOp {
    /// A send that ran the layered pre-send traversal
    /// (`ConnStats::slow_sends`).
    SlowSend,
    /// A send parked in the backlog (`ConnStats::queued_sends`).
    QueuedSend,
    /// A delivery that ran the layered pre-deliver traversal
    /// (`ConnStats::slow_deliveries`).
    SlowDeliver,
    /// A receive-entry rejection: the frame was refused at
    /// `deliver_frame`/demux and counted in the reject ledger
    /// (`ConnStats::rejects`, entry reasons only).
    Reject,
}

impl XrayOp {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            XrayOp::SlowSend => "slow-send",
            XrayOp::QueuedSend => "queued-send",
            XrayOp::SlowDeliver => "slow-deliver",
            XrayOp::Reject => "reject",
        }
    }
}

impl fmt::Display for XrayOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The single attributed cause of one slow-path excursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrCause {
    /// A layer's disable counter held the predicted header shut.
    Disabled(DisableReason),
    /// The first header field that broke the prediction (delivery side;
    /// resolved to `(owning layer, field name)` by the report).
    FieldMiss(FieldRef),
    /// A packet filter refused the frame; attributed to the layer that
    /// contributed the deciding instruction.
    FilterReject,
    /// Prediction is off in the configuration (baseline runs).
    PredictOff,
    /// §3.4's serialization rule: post-processing of an earlier message
    /// was still pending.
    PostSerialization,
    /// Older messages were already waiting in the backlog (FIFO order).
    BacklogPending,
    /// A hostile or malformed wire input was refused with the named
    /// reason (mirrors the [`crate::RejectLedger`] one-for-one).
    Rejected(RejectReason),
    /// The engine could not name a more specific cause (its presence in
    /// a report is itself a finding).
    Unattributed,
}

impl AttrCause {
    /// Short stable label (field misses render positionally; use the
    /// report for name resolution).
    pub fn label(self) -> &'static str {
        match self {
            AttrCause::Disabled(_) => "disabled",
            AttrCause::FieldMiss(_) => "field-miss",
            AttrCause::FilterReject => "filter-reject",
            AttrCause::PredictOff => "predict-off",
            AttrCause::PostSerialization => "post-serialization",
            AttrCause::BacklogPending => "backlog-pending",
            AttrCause::Rejected(_) => "rejected",
            AttrCause::Unattributed => "unattributed",
        }
    }
}

impl fmt::Display for AttrCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrCause::Disabled(reason) => write!(f, "disabled({reason})"),
            AttrCause::FieldMiss(field) => {
                write!(f, "field-miss({}:{})", field.class, field.index)
            }
            AttrCause::Rejected(reason) => write!(f, "rejected({reason})"),
            other => f.write_str(other.label()),
        }
    }
}

/// One row of the attributed multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrEntry {
    /// Which path counter this reconciles against.
    pub op: XrayOp,
    /// The layer charged (`"pa"` for engine-level causes).
    pub layer: &'static str,
    /// The cause.
    pub cause: AttrCause,
    /// How many operations were charged here.
    pub count: u64,
}

/// The attributed multiset: `(op, layer, cause) → count`.
///
/// Every increment of `ConnStats::{slow_sends, queued_sends,
/// slow_deliveries}` is mirrored by exactly one [`Attribution::bump`],
/// so [`Attribution::total`] reconciles exactly with the path counters
/// — "no unattributed slow sends" (un-namable causes are charged to
/// [`AttrCause::Unattributed`], visibly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    entries: Vec<AttrEntry>,
}

impl Attribution {
    /// Charges one operation to `(op, layer, cause)`.
    pub fn bump(&mut self, op: XrayOp, layer: &'static str, cause: AttrCause) {
        for e in &mut self.entries {
            if e.op == op && e.layer == layer && e.cause == cause {
                e.count += 1;
                return;
            }
        }
        self.entries.push(AttrEntry {
            op,
            layer,
            cause,
            count: 1,
        });
    }

    /// All rows, in first-seen order.
    pub fn entries(&self) -> &[AttrEntry] {
        &self.entries
    }

    /// Sum of counts charged to `op` (reconciles with the matching
    /// `ConnStats` counter).
    pub fn total(&self, op: XrayOp) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.op == op)
            .map(|e| e.count)
            .sum()
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds another multiset in: counts add row for row, rows new to
    /// this one keep `other`'s order after its own.
    pub fn merge(&mut self, other: &Attribution) {
        for o in &other.entries {
            match self
                .entries
                .iter_mut()
                .find(|e| e.op == o.op && e.layer == o.layer && e.cause == o.cause)
            {
                Some(e) => e.count += o.count,
                None => self.entries.push(*o),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prediction-miss forensics
// ---------------------------------------------------------------------------

/// One `(layer, field)` prediction-miss counter with the most recent
/// predicted/actual pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEntry {
    /// The layer owning the mispredicted field.
    pub layer: &'static str,
    /// The field, positionally (resolve names via the layout).
    pub field: FieldRef,
    /// Mismatch count.
    pub count: u64,
    /// Last predicted value.
    pub last_predicted: u64,
    /// Last observed value.
    pub last_actual: u64,
}

/// Per-`(layer, field)` prediction-miss counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissTable {
    entries: Vec<MissEntry>,
}

impl MissTable {
    /// Records one field mismatch.
    pub fn bump(&mut self, layer: &'static str, field: FieldRef, predicted: u64, actual: u64) {
        for e in &mut self.entries {
            if e.layer == layer && e.field == field {
                e.count += 1;
                e.last_predicted = predicted;
                e.last_actual = actual;
                return;
            }
        }
        self.entries.push(MissEntry {
            layer,
            field,
            count: 1,
            last_predicted: predicted,
            last_actual: actual,
        });
    }

    /// All rows, in first-seen order.
    pub fn entries(&self) -> &[MissEntry] {
        &self.entries
    }

    /// Total field mismatches recorded (≥ the number of missed
    /// deliveries: one miss can break several fields).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// True if no mismatch has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds another table in: counts add row for row, and a row keeps
    /// the predicted / actual pair of the table merged in last. Fields
    /// are positional, so tables of connections over different stacks
    /// merge by position, not by name.
    pub fn merge(&mut self, other: &MissTable) {
        for o in &other.entries {
            match self
                .entries
                .iter_mut()
                .find(|e| e.layer == o.layer && e.field == o.field)
            {
                Some(e) => {
                    e.count += o.count;
                    e.last_predicted = o.last_predicted;
                    e.last_actual = o.last_actual;
                }
                None => self.entries.push(*o),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Phase meters
// ---------------------------------------------------------------------------

/// A layer phase, in meter-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pre-send (critical path when the fast path is missed).
    PreSend = 0,
    /// Post-send (deferred, §3.1).
    PostSend = 1,
    /// Pre-deliver (critical path when the fast path is missed).
    PreDeliver = 2,
    /// Post-deliver (deferred).
    PostDeliver = 3,
    /// Timer callback.
    Tick = 4,
}

impl Phase {
    /// All phases, in meter order.
    pub const ALL: [Phase; 5] = [
        Phase::PreSend,
        Phase::PostSend,
        Phase::PreDeliver,
        Phase::PostDeliver,
        Phase::Tick,
    ];

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::PreSend => "pre-send",
            Phase::PostSend => "post-send",
            Phase::PreDeliver => "pre-deliver",
            Phase::PostDeliver => "post-deliver",
            Phase::Tick => "tick",
        }
    }
}

/// Per-layer phase execution meters: call counts always, measured
/// cycle time (`std::time::Instant`) when the host opts in.
///
/// Each phase bucket additionally tracks its *leaked* sub-count: the
/// invocations (and their time) that ran inside a critical-path leak
/// scope — see `pa_obs::critpath`. Leaked counts are always `<=` the
/// totals, so `total - leaked` and `leaked` partition every bucket
/// exactly; the masking ledger's conservation check rides on that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMeter {
    /// Invocations of each phase, indexed by [`Phase`].
    pub calls: [u64; 5],
    /// Measured wall-clock nanoseconds per phase (0 unless cycle
    /// metering was enabled).
    pub cycle_ns: [u64; 5],
    /// Invocations that ran inside a critical-path leak scope.
    pub leaked_calls: [u64; 5],
    /// Measured nanoseconds of the leaked invocations.
    pub leaked_cycle_ns: [u64; 5],
    /// Per-span timer overhead subtracted from each measured span
    /// (`pa_obs::timer::span_overhead_ns`, set by the host when it
    /// enables cycle metering). 0 = no correction.
    pub bias_ns: u64,
}

impl PhaseMeter {
    /// Records one invocation of `phase`, optionally with measured time.
    pub fn record(&mut self, phase: Phase, cycle_ns: Option<u64>) {
        self.record_flagged(phase, cycle_ns, false);
    }

    /// Records one invocation, marking it leaked if it ran inside a
    /// critical-path leak scope. Returns the de-biased nanoseconds
    /// actually charged (0 when unmetered), so the caller can charge
    /// the same figure to a leak ledger without re-measuring.
    pub fn record_flagged(&mut self, phase: Phase, cycle_ns: Option<u64>, leaked: bool) -> u64 {
        let i = phase as usize;
        self.calls[i] += 1;
        let ns = cycle_ns.map_or(0, |ns| ns.saturating_sub(self.bias_ns));
        if cycle_ns.is_some() {
            self.cycle_ns[i] += ns;
        }
        if leaked {
            self.leaked_calls[i] += 1;
            if cycle_ns.is_some() {
                self.leaked_cycle_ns[i] += ns;
            }
        }
        ns
    }

    /// Sets the timer-overhead correction applied to every later
    /// measured span (see `pa_obs::timer`).
    pub fn set_bias(&mut self, ns: u64) {
        self.bias_ns = ns;
    }

    /// Total invocations across phases.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total measured nanoseconds across phases.
    pub fn total_cycle_ns(&self) -> u64 {
        self.cycle_ns.iter().sum()
    }

    /// Total leaked invocations across phases.
    pub fn total_leaked_calls(&self) -> u64 {
        self.leaked_calls.iter().sum()
    }

    /// The meter's growth since `earlier` (a copy of `self` taken
    /// before some window of work): per-bucket saturating subtraction.
    /// Brackets taken around disjoint windows partition the source
    /// meter exactly — the contract `pa_obs::domain` shards ride on.
    pub fn delta_since(&self, earlier: &PhaseMeter) -> PhaseMeter {
        let mut d = PhaseMeter {
            bias_ns: self.bias_ns,
            ..PhaseMeter::default()
        };
        for i in 0..5 {
            d.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
            d.cycle_ns[i] = self.cycle_ns[i].saturating_sub(earlier.cycle_ns[i]);
            d.leaked_calls[i] = self.leaked_calls[i].saturating_sub(earlier.leaked_calls[i]);
            d.leaked_cycle_ns[i] =
                self.leaked_cycle_ns[i].saturating_sub(earlier.leaked_cycle_ns[i]);
        }
        d
    }

    /// Folds another meter (typically a [`delta_since`]
    /// (PhaseMeter::delta_since) shard) into this one, bucket-wise.
    pub fn absorb(&mut self, other: &PhaseMeter) {
        for i in 0..5 {
            self.calls[i] += other.calls[i];
            self.cycle_ns[i] += other.cycle_ns[i];
            self.leaked_calls[i] += other.leaked_calls[i];
            self.leaked_cycle_ns[i] += other.leaked_cycle_ns[i];
        }
    }
}

// ---------------------------------------------------------------------------
// Annotated-pcap cause tag
// ---------------------------------------------------------------------------

/// Kind byte of an [`XrayTag`].
pub mod xray_tag_kind {
    /// No attribution (fast-path frame, control frame, or xray off).
    pub const NONE: u8 = 0;
    /// `a` = [`super::DisableReason::code`], `b` unused.
    pub const DISABLED: u8 = 1;
    /// `a` = field class ordinal, `b` = field index (low byte).
    pub const FIELD_MISS: u8 = 2;
    /// Packet-filter rejection.
    pub const FILTER_REJECT: u8 = 3;
    /// Prediction off (baseline run).
    pub const PREDICT_OFF: u8 = 4;
    /// Queued behind pending post-processing or backlog.
    pub const QUEUED: u8 = 5;
    /// Attribution present but cause un-namable.
    pub const UNATTRIBUTED: u8 = 6;
    /// Hostile-wire rejection; `a` = [`super::RejectReason::index`],
    /// `b` unused.
    pub const REJECTED: u8 = 7;
}

/// A 4-byte attribution tag carried in annotated pcap pseudo-headers:
/// `[kind, layer, a, b]`. `layer` is the stack index of the charged
/// layer (255 = the engine, `"pa"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XrayTag {
    /// One of [`xray_tag_kind`].
    pub kind: u8,
    /// Stack index of the charged layer (255 = engine).
    pub layer: u8,
    /// Kind-specific operand.
    pub a: u8,
    /// Kind-specific operand.
    pub b: u8,
}

impl XrayTag {
    /// The engine pseudo-layer index.
    pub const ENGINE: u8 = 255;

    /// The "no attribution" tag.
    pub fn none() -> XrayTag {
        XrayTag::default()
    }

    /// Builds a tag from a charged `(layer index, cause)` pair.
    pub fn from_cause(layer: u8, cause: AttrCause) -> XrayTag {
        let (kind, a, b) = match cause {
            AttrCause::Disabled(reason) => (xray_tag_kind::DISABLED, reason.code(), 0),
            AttrCause::FieldMiss(field) => {
                (xray_tag_kind::FIELD_MISS, field.class, field.index as u8)
            }
            AttrCause::FilterReject => (xray_tag_kind::FILTER_REJECT, 0, 0),
            AttrCause::PredictOff => (xray_tag_kind::PREDICT_OFF, 0, 0),
            AttrCause::PostSerialization => (xray_tag_kind::QUEUED, 1, 0),
            AttrCause::BacklogPending => (xray_tag_kind::QUEUED, 2, 0),
            AttrCause::Rejected(reason) => (xray_tag_kind::REJECTED, reason.index() as u8, 0),
            AttrCause::Unattributed => (xray_tag_kind::UNATTRIBUTED, 0, 0),
        };
        XrayTag { kind, layer, a, b }
    }

    /// The cause encoded in this tag, if any.
    pub fn cause(&self) -> Option<AttrCause> {
        match self.kind {
            xray_tag_kind::NONE => None,
            xray_tag_kind::DISABLED => Some(AttrCause::Disabled(DisableReason::from_code(self.a))),
            xray_tag_kind::FIELD_MISS => {
                Some(AttrCause::FieldMiss(FieldRef::new(self.a, self.b as u16)))
            }
            xray_tag_kind::FILTER_REJECT => Some(AttrCause::FilterReject),
            xray_tag_kind::PREDICT_OFF => Some(AttrCause::PredictOff),
            xray_tag_kind::QUEUED => Some(if self.a == 2 {
                AttrCause::BacklogPending
            } else {
                AttrCause::PostSerialization
            }),
            xray_tag_kind::REJECTED => Some(
                RejectReason::from_index(self.a as usize)
                    .map(AttrCause::Rejected)
                    .unwrap_or(AttrCause::Unattributed),
            ),
            _ => Some(AttrCause::Unattributed),
        }
    }

    /// Wire encoding.
    pub fn to_bytes(self) -> [u8; 4] {
        [self.kind, self.layer, self.a, self.b]
    }

    /// Wire decoding.
    pub fn from_bytes(bytes: [u8; 4]) -> XrayTag {
        XrayTag {
            kind: bytes[0],
            layer: bytes[1],
            a: bytes[2],
            b: bytes[3],
        }
    }
}

// ---------------------------------------------------------------------------
// The diagnosis engine
// ---------------------------------------------------------------------------

/// One ranked finding: a `(op, layer, cause)` row with its share of the
/// scope's slow-path excursions.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which path counter this row reconciles against.
    pub op: XrayOp,
    /// The charged layer.
    pub layer: String,
    /// Human-readable cause (field misses resolved to names).
    pub cause: String,
    /// Operations charged.
    pub count: u64,
    /// Share of all attributed operations, in [0, 1].
    pub share: f64,
}

/// One row of the per-layer phase cost table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRow {
    /// Layer name, bottom first.
    pub layer: String,
    /// Phase invocations, indexed by [`Phase`].
    pub calls: [u64; 5],
    /// Virtual-time cost in nanoseconds (0 until a cost model prices
    /// the row).
    pub virt_ns: [u64; 5],
    /// Measured wall-clock nanoseconds (0 unless cycle metering was
    /// on).
    pub cycle_ns: [u64; 5],
    /// Invocations that ran inside a critical-path leak scope
    /// (`<= calls` per phase; see `pa_obs::critpath`).
    pub leaked_calls: [u64; 5],
    /// Virtual-time price of the leaked invocations (filled by the
    /// same cost model that prices `virt_ns`).
    pub leaked_virt_ns: [u64; 5],
    /// Measured nanoseconds of the leaked invocations.
    pub leaked_cycle_ns: [u64; 5],
}

/// A resolved prediction-miss forensics row.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRow {
    /// Owning layer.
    pub layer: String,
    /// Field name.
    pub field: String,
    /// Mismatch count.
    pub count: u64,
    /// Last predicted value.
    pub last_predicted: u64,
    /// Last observed value.
    pub last_actual: u64,
}

/// A currently-active disable hold.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldRow {
    /// `"send"` or `"recv"`.
    pub direction: &'static str,
    /// The holding layer.
    pub layer: String,
    /// Why.
    pub reason: String,
    /// Nesting depth currently held.
    pub active: u32,
}

/// Path-counter totals the report reconciles against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XrayTotals {
    /// `ConnStats::fast_sends`.
    pub fast_sends: u64,
    /// `ConnStats::slow_sends`.
    pub slow_sends: u64,
    /// `ConnStats::queued_sends`.
    pub queued_sends: u64,
    /// `ConnStats::fast_deliveries`.
    pub fast_deliveries: u64,
    /// `ConnStats::slow_deliveries`.
    pub slow_deliveries: u64,
    /// Saturated `enable()` underflows observed (send + recv).
    pub invariant_violations: u64,
}

impl XrayTotals {
    /// Adds another scope's counters to these.
    pub fn absorb(&mut self, other: &XrayTotals) {
        self.fast_sends += other.fast_sends;
        self.slow_sends += other.slow_sends;
        self.queued_sends += other.queued_sends;
        self.fast_deliveries += other.fast_deliveries;
        self.slow_deliveries += other.slow_deliveries;
        self.invariant_violations += other.invariant_violations;
    }
}

/// The ranked "why is this connection off the fast path" report:
/// attribution, forensics, active holds, and the per-layer pre/post
/// phase cost table, joined with the path counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct XrayReport {
    /// Scope label (host / connection).
    pub scope: String,
    /// Logical time the report was taken.
    pub at: Nanos,
    /// Ranked findings (sorted by count, descending).
    pub findings: Vec<Finding>,
    /// Active disable holds at report time.
    pub holds: Vec<HoldRow>,
    /// Prediction-miss forensics rows (sorted by count, descending).
    pub misses: Vec<MissRow>,
    /// Per-layer phase cost rows, bottom first.
    pub phases: Vec<PhaseRow>,
    /// Path-counter totals.
    pub totals: XrayTotals,
    /// Free-form context from the host (flight-recorder joins, wedge
    /// warnings).
    pub notes: Vec<String>,
}

impl XrayReport {
    /// True if attribution sums match the path counters exactly:
    /// slow sends, queued sends, and slow deliveries each fully
    /// accounted for.
    pub fn reconciles(&self) -> bool {
        let sum = |op: XrayOp| {
            self.findings
                .iter()
                .filter(|f| f.op == op)
                .map(|f| f.count)
                .sum::<u64>()
        };
        sum(XrayOp::SlowSend) == self.totals.slow_sends
            && sum(XrayOp::QueuedSend) == self.totals.queued_sends
            && sum(XrayOp::SlowDeliver) == self.totals.slow_deliveries
    }

    /// Sorts findings and misses by count, descending (stable).
    pub fn rank(&mut self) {
        self.findings.sort_by_key(|f| std::cmp::Reverse(f.count));
        self.misses.sort_by_key(|m| std::cmp::Reverse(m.count));
    }

    /// Renders the full report as a text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let t = &self.totals;
        s.push_str(&format!("xray report — {} @ {} ns\n", self.scope, self.at));
        s.push_str(&format!(
            "  paths: fast_sends={} slow_sends={} queued_sends={} fast_deliveries={} slow_deliveries={}\n",
            t.fast_sends, t.slow_sends, t.queued_sends, t.fast_deliveries, t.slow_deliveries
        ));
        if t.invariant_violations > 0 {
            s.push_str(&format!(
                "  !! invariant violations (enable without matching disable): {}\n",
                t.invariant_violations
            ));
        }

        s.push_str("  why off the fast path (ranked):\n");
        if self.findings.is_empty() {
            s.push_str("    (never — every operation took the fast path)\n");
        }
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {:>2}. {:<13} {:<10} {:<28} {:>8}  {:>5.1}%\n",
                i + 1,
                f.op.label(),
                f.layer,
                f.cause,
                f.count,
                f.share * 100.0
            ));
        }

        if !self.holds.is_empty() {
            s.push_str("  active disable holds:\n");
            for h in &self.holds {
                s.push_str(&format!(
                    "    {:<4} {:<10} {:<20} x{}\n",
                    h.direction, h.layer, h.reason, h.active
                ));
            }
        }

        if !self.misses.is_empty() {
            s.push_str("  prediction-miss forensics (layer.field):\n");
            for m in &self.misses {
                s.push_str(&format!(
                    "    {:<10} {:<12} misses={:<8} last predicted={} actual={}\n",
                    m.layer, m.field, m.count, m.last_predicted, m.last_actual
                ));
            }
        }

        if !self.phases.is_empty() {
            let priced = self.phases.iter().any(|r| r.virt_ns.iter().any(|&n| n > 0));
            let cycled = self
                .phases
                .iter()
                .any(|r| r.cycle_ns.iter().any(|&n| n > 0));
            s.push_str("  phase cost accounting (per layer):\n");
            s.push_str(&format!(
                "    {:<10} {:>18} {:>18} {:>18} {:>18}\n",
                "layer", "pre-send", "post-send", "pre-deliver", "post-deliver"
            ));
            let cell = |row: &PhaseRow, p: Phase| -> String {
                let i = p as usize;
                if priced {
                    format!(
                        "{:>7} {:>7.1}µs",
                        row.calls[i],
                        row.virt_ns[i] as f64 / 1_000.0
                    )
                } else if cycled {
                    format!(
                        "{:>7} {:>7.1}µs",
                        row.calls[i],
                        row.cycle_ns[i] as f64 / 1_000.0
                    )
                } else {
                    format!("{:>7} calls", row.calls[i])
                }
            };
            for row in &self.phases {
                s.push_str(&format!(
                    "    {:<10} {:>18} {:>18} {:>18} {:>18}\n",
                    row.layer,
                    cell(row, Phase::PreSend),
                    cell(row, Phase::PostSend),
                    cell(row, Phase::PreDeliver),
                    cell(row, Phase::PostDeliver),
                ));
            }
            if priced {
                let sum =
                    |p: Phase| -> u64 { self.phases.iter().map(|r| r.virt_ns[p as usize]).sum() };
                s.push_str(&format!(
                    "    {:<10} {:>16.1}µs {:>16.1}µs {:>16.1}µs {:>16.1}µs\n",
                    "(total)",
                    sum(Phase::PreSend) as f64 / 1_000.0,
                    sum(Phase::PostSend) as f64 / 1_000.0,
                    sum(Phase::PreDeliver) as f64 / 1_000.0,
                    sum(Phase::PostDeliver) as f64 / 1_000.0,
                ));
            }
            let leaked_calls: u64 = self
                .phases
                .iter()
                .map(|r| r.leaked_calls.iter().sum::<u64>())
                .sum();
            if leaked_calls > 0 {
                let leaked_ns: u64 = self
                    .phases
                    .iter()
                    .map(|r| {
                        if priced {
                            r.leaked_virt_ns.iter().sum::<u64>()
                        } else {
                            r.leaked_cycle_ns.iter().sum::<u64>()
                        }
                    })
                    .sum();
                s.push_str(&format!(
                    "  !! critical-path leaks: {} phase calls ({:.1}µs) ran where a delivery had to wait (see masking ledger)\n",
                    leaked_calls,
                    leaked_ns as f64 / 1_000.0
                ));
            }
        }

        for note in &self.notes {
            s.push_str(&format!("  note: {note}\n"));
        }
        s
    }
}

impl fmt::Display for XrayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_bumps_and_totals() {
        let mut a = Attribution::default();
        a.bump(
            XrayOp::SlowDeliver,
            "window",
            AttrCause::FieldMiss(FieldRef::new(1, 0)),
        );
        a.bump(
            XrayOp::SlowDeliver,
            "window",
            AttrCause::FieldMiss(FieldRef::new(1, 0)),
        );
        a.bump(
            XrayOp::QueuedSend,
            "window",
            AttrCause::Disabled(DisableReason::FullWindow),
        );
        assert_eq!(a.entries().len(), 2);
        assert_eq!(a.total(XrayOp::SlowDeliver), 2);
        assert_eq!(a.total(XrayOp::QueuedSend), 1);
        assert_eq!(a.total(XrayOp::SlowSend), 0);
    }

    #[test]
    fn miss_table_keeps_last_values() {
        let mut m = MissTable::default();
        let f = FieldRef::new(1, 0);
        m.bump("window", f, 5, 9);
        m.bump("window", f, 6, 10);
        assert_eq!(m.entries().len(), 1);
        assert_eq!(m.entries()[0].count, 2);
        assert_eq!(m.entries()[0].last_predicted, 6);
        assert_eq!(m.entries()[0].last_actual, 10);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn attribution_shards_merge_to_the_pooled_ledger_in_any_order() {
        let window = AttrCause::Disabled(DisableReason::FullWindow);
        let seq = AttrCause::FieldMiss(FieldRef::new(1, 0));
        let ops = [
            (XrayOp::QueuedSend, "window", window),
            (XrayOp::SlowDeliver, "window", seq),
            (XrayOp::SlowSend, "pa", AttrCause::FilterReject),
            (XrayOp::SlowDeliver, "window", seq),
            (XrayOp::QueuedSend, "window", window),
            (XrayOp::QueuedSend, "window", window),
        ];
        let (mut pooled, mut a, mut b) = <(Attribution, Attribution, Attribution)>::default();
        for (i, &(op, layer, cause)) in ops.iter().enumerate() {
            pooled.bump(op, layer, cause);
            if i % 2 == 0 { &mut a } else { &mut b }.bump(op, layer, cause);
        }
        let sorted = |x: &Attribution| {
            let mut rows: Vec<_> = x
                .entries()
                .iter()
                .map(|e| (e.op.label(), e.layer, e.cause.to_string(), e.count))
                .collect();
            rows.sort();
            rows
        };
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(&b);
        ba.merge(&a);
        assert_eq!(sorted(&ab), sorted(&pooled));
        assert_eq!(sorted(&ba), sorted(&pooled));
        assert_eq!(ab.total(XrayOp::QueuedSend), 3, "counts add row for row");
    }

    #[test]
    fn miss_table_shards_merge_and_keep_the_last_shards_values() {
        let (seq, ack) = (FieldRef::new(1, 0), FieldRef::new(1, 1));
        let (mut a, mut b) = <(MissTable, MissTable)>::default();
        a.bump("window", seq, 5, 9);
        a.bump("window", ack, 1, 2);
        b.bump("window", seq, 6, 10);
        b.bump("window", seq, 7, 11);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(&b);
        ba.merge(&a);
        let sorted = |x: &MissTable| {
            let mut rows: Vec<_> = x
                .entries()
                .iter()
                .map(|e| (e.field.index, e.count))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&ab), [(0, 3), (1, 1)]);
        assert_eq!(sorted(&ba), sorted(&ab));
        assert_eq!(ab.total(), a.total() + b.total());
        let last = |x: &MissTable| {
            let e = x.entries().iter().find(|e| e.field == seq).unwrap();
            (e.last_predicted, e.last_actual)
        };
        assert_eq!(last(&ab), (7, 11), "b merged in last");
        assert_eq!(last(&ba), (5, 9), "a merged in last");
    }

    #[test]
    fn phase_meter_records() {
        let mut p = PhaseMeter::default();
        p.record(Phase::PreSend, None);
        p.record(Phase::PostDeliver, Some(1_500));
        assert_eq!(p.calls[Phase::PreSend as usize], 1);
        assert_eq!(p.calls[Phase::PostDeliver as usize], 1);
        assert_eq!(p.cycle_ns[Phase::PostDeliver as usize], 1_500);
        assert_eq!(p.total_calls(), 2);
    }

    #[test]
    fn phase_meter_tracks_leaks_and_debiases() {
        let mut p = PhaseMeter::default();
        p.set_bias(100);
        let charged = p.record_flagged(Phase::PostDeliver, Some(1_500), true);
        assert_eq!(charged, 1_400, "timer overhead subtracted");
        p.record_flagged(Phase::PostDeliver, Some(1_000), false);
        assert_eq!(p.calls[Phase::PostDeliver as usize], 2);
        assert_eq!(p.cycle_ns[Phase::PostDeliver as usize], 2_300);
        assert_eq!(p.leaked_calls[Phase::PostDeliver as usize], 1);
        assert_eq!(p.leaked_cycle_ns[Phase::PostDeliver as usize], 1_400);
        // Bias never drives a span negative.
        let charged = p.record_flagged(Phase::Tick, Some(40), true);
        assert_eq!(charged, 0);
        assert_eq!(p.total_leaked_calls(), 2);
    }

    #[test]
    fn phase_meter_deltas_partition_and_absorb() {
        let mut m = PhaseMeter::default();
        let cp0 = m;
        m.record_flagged(Phase::PreSend, Some(100), false);
        m.record_flagged(Phase::PreSend, Some(200), true);
        let cp1 = m;
        m.record_flagged(Phase::PostSend, Some(300), false);
        let d0 = m.delta_since(&cp0);
        let d1 = cp1.delta_since(&cp0);
        let d2 = m.delta_since(&cp1);
        assert_eq!(d0.total_calls(), 3);
        assert_eq!(d1.calls[Phase::PreSend as usize], 2);
        assert_eq!(d1.leaked_calls[Phase::PreSend as usize], 1);
        assert_eq!(d2.calls[Phase::PostSend as usize], 1);
        // Disjoint brackets re-absorb into exactly the source meter.
        let mut merged = PhaseMeter::default();
        merged.absorb(&d1);
        merged.absorb(&d2);
        assert_eq!(merged.calls, m.calls);
        assert_eq!(merged.cycle_ns, m.cycle_ns);
        assert_eq!(merged.leaked_calls, m.leaked_calls);
        assert_eq!(merged.leaked_cycle_ns, m.leaked_cycle_ns);
    }

    #[test]
    fn disable_reason_codes_roundtrip() {
        for r in [
            DisableReason::FullWindow,
            DisableReason::FragPending,
            DisableReason::HeartbeatDue,
            DisableReason::CookieUnconfirmed,
            DisableReason::Reordering,
            DisableReason::Resync,
            DisableReason::Other,
            DisableReason::Unattributed,
        ] {
            assert_eq!(DisableReason::from_code(r.code()), r, "{r}");
        }
    }

    #[test]
    fn xray_tag_roundtrips_causes() {
        let causes = [
            AttrCause::Disabled(DisableReason::FullWindow),
            AttrCause::FieldMiss(FieldRef::new(1, 3)),
            AttrCause::FilterReject,
            AttrCause::PredictOff,
            AttrCause::PostSerialization,
            AttrCause::BacklogPending,
            AttrCause::Rejected(RejectReason::ByteOrderConflict),
            AttrCause::Rejected(RejectReason::StaleCookie),
            AttrCause::Unattributed,
        ];
        for c in causes {
            let tag = XrayTag::from_cause(2, c);
            let back = XrayTag::from_bytes(tag.to_bytes());
            assert_eq!(back, tag);
            assert_eq!(back.cause(), Some(c), "{c}");
            assert_eq!(back.layer, 2);
        }
        assert_eq!(XrayTag::none().cause(), None);
    }

    #[test]
    fn report_reconciles_and_ranks() {
        let mut r = XrayReport {
            scope: "node0".into(),
            totals: XrayTotals {
                slow_sends: 1,
                queued_sends: 3,
                slow_deliveries: 2,
                ..Default::default()
            },
            findings: vec![
                Finding {
                    op: XrayOp::SlowSend,
                    layer: "pa".into(),
                    cause: "filter-reject".into(),
                    count: 1,
                    share: 1.0 / 6.0,
                },
                Finding {
                    op: XrayOp::QueuedSend,
                    layer: "window".into(),
                    cause: "disabled(full-window)".into(),
                    count: 3,
                    share: 0.5,
                },
                Finding {
                    op: XrayOp::SlowDeliver,
                    layer: "window".into(),
                    cause: "field-miss(seq)".into(),
                    count: 2,
                    share: 2.0 / 6.0,
                },
            ],
            ..Default::default()
        };
        assert!(r.reconciles());
        r.rank();
        assert_eq!(r.findings[0].count, 3, "ranked by count");
        r.totals.slow_deliveries = 5;
        assert!(!r.reconciles(), "missing attribution must be visible");
    }

    #[test]
    fn render_contains_the_phase_table() {
        let r = XrayReport {
            scope: "node0".into(),
            phases: vec![PhaseRow {
                layer: "window".into(),
                calls: [3, 7, 2, 7, 0],
                virt_ns: [45_000, 105_000, 30_000, 105_000, 0],
                ..Default::default()
            }],
            ..Default::default()
        };
        let text = r.render();
        assert!(text.contains("phase cost accounting"), "{text}");
        assert!(text.contains("pre-send"), "{text}");
        assert!(text.contains("post-deliver"), "{text}");
        assert!(text.contains("window"), "{text}");
        assert!(text.contains("105.0µs"), "{text}");
        assert!(text.contains("(total)"), "{text}");
    }
}
