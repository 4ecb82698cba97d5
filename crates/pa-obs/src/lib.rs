//! # pa-obs — observability for the Protocol Accelerator
//!
//! The whole point of the PA is *which path* a message takes — fast,
//! slow, or queued — so this crate makes that decision observable at
//! zero cost when tracing is off:
//!
//! - [`TraceEvent`] — the structured event taxonomy (fast/slow
//!   send/deliver with causes, queueing, prediction misses, filter
//!   rejections, drops, backlog drains, control traffic);
//! - [`ProbeSink`] — the emission point. The default
//!   [`ProbeSink::Noop`] costs one branch and performs no allocation
//!   and no ring write;
//! - [`TraceRing`] — a fixed-capacity, allocation-free ring of
//!   [`TraceRecord`]s with logical timestamps and per-connection
//!   sequence numbers;
//! - [`JourneySet`] / [`Journey`] — cross-endpoint causal journeys:
//!   joins `JourneySend`/`JourneyDeliver` events from several rings by
//!   journey id into per-hop timelines with latency waterfalls;
//! - [`FlightRecorder`] / [`TimeSeries`] — the time-series flight
//!   recorder: virtual-time-cadenced sampling of [`MetricsSnapshot`]
//!   deltas into ring-buffered series, with Prometheus-text and
//!   JSON-lines exporters and an invariant-break [`Postmortem`] dump;
//! - [`MetricsSnapshot`] — the unified `(scope, name) → value`
//!   registry with delta-since-last-snapshot, a text table, and JSON
//!   lines;
//! - [`PathTag`] — the per-frame path annotation used by the
//!   annotated-pcap capture mode;
//! - [`xray`] — fast-path explainability: attributed disable tokens
//!   ([`DisableReason`]), per-(layer, cause) slow-path [`Attribution`]
//!   multisets, prediction-miss forensics ([`MissTable`]), per-layer
//!   pre/post [`PhaseMeter`]s, the 4-byte [`XrayTag`] pcap annotation,
//!   and the [`XrayReport`] diagnosis engine;
//! - [`reject`] — the hostile-wire reject taxonomy: [`RejectReason`]
//!   (why an input byte sequence was refused), [`RejectBucket`] (which
//!   coarse drop counter it reconciles against), and the `Copy`
//!   per-reason [`RejectLedger`] shared by connections, the endpoint
//!   demux, and the network interfaces;
//! - [`rng`] — the workspace's dependency-free seedable PRNG
//!   ([`rng::SplitMix64`]), shared by cookies, fault injection, GC
//!   jitter, and randomized tests;
//! - [`sketch`] — mergeable log-bucketed quantile sketches
//!   ([`QuantileSketch`]): fixed-size windows, α-bounded relative
//!   error, and a canonical form that makes merge exactly associative
//!   and commutative — roll-up reconciliation is plain `==`;
//! - [`exemplar`] — seeded per-octave Algorithm-R reservoirs
//!   ([`ExemplarSet`]) attaching concrete `(value, at, journey,
//!   XrayTag)` samples to the slow bands of a sketch;
//! - [`scope`] — the aggregate telemetry plane ([`ScopePlane`]):
//!   per-conn → per-endpoint → cluster sketch roll-up under a hard
//!   byte cap, with counted overflow/denial instead of silent loss,
//!   top-N ranking, and a Prometheus exposition with OpenMetrics
//!   exemplar annotations;
//! - [`watchdog`] — the health sampler ([`Watchdog`]): stall,
//!   delivery-ledger, SLO-burn, and mask-leak detection;
//! - [`watch`] — what watches a run, written once: the [`Fleet`] fold
//!   of a set of connections' ledgers, and the [`Watch`] that owns
//!   plane, recorder and watchdog, drives them with one step and
//!   renders the ops dashboard — on a simulator or a live process;
//! - [`critpath`] — critical-path masking analysis: every measured
//!   cycle attributed to exactly one of {on-path, masked, leaked}
//!   ([`MaskingLedger`], with exact conservation against the
//!   [`PhaseMeter`]s), per-message causal DAGs ([`CritDag`]) with
//!   critical-path extraction, the `(layer, phase, cause)`
//!   [`LeakLedger`], and a Chrome/Perfetto trace-event exporter
//!   ([`perfetto_trace`] / [`validate_trace_json`]);
//! - [`timer`] — the shared `Instant` span-overhead calibration used
//!   by both the bench harness and the cycle meters;
//! - [`spsc`] — the bounded wait-free single-producer/single-consumer
//!   ring ([`spsc::channel`]) that carries telemetry events (and drain
//!   jobs) between threads without locks or silent loss;
//! - [`domain`] — wait-free multi-core telemetry: per-thread
//!   [`TelemetryDomain`]s publishing frozen epoch views, and the
//!   [`SnapshotCoordinator`] that merges them into an epoch-consistent
//!   [`GlobalSnapshot`] on which the ledger invariants are asserted
//!   (never on a torn view).
//!
//! pa-obs sits below every other crate in the workspace and has no
//! dependencies, so any layer can emit events without cycles.

pub mod critpath;
pub mod domain;
pub mod event;
pub mod exemplar;
pub mod journey;
pub mod probe;
pub mod reject;
pub mod ring;
pub mod rng;
pub mod scope;
pub mod sketch;
pub mod snapshot;
pub mod spsc;
pub mod timer;
pub mod timeseries;
pub mod watch;
pub mod watchdog;
pub mod xray;

pub use critpath::{
    perfetto_trace, validate_trace_json, CritDag, CritNode, LeakCause, LeakLedger, MaskDomain,
    MaskingLedger, WorkClass,
};
pub use domain::{
    price_meters, price_rows, DomainCounter, DomainEventKind, GlobalSnapshot, SnapshotCoordinator,
    TelemetryDomain,
};
pub use event::{DropCause, FieldRef, Invariant, Nanos, SlowCause, TraceEvent};
pub use exemplar::{Exemplar, ExemplarSet};
pub use journey::{
    journey_id, journey_origin, journey_seq, render_journey_id, Journey, JourneySet,
};
pub use probe::ProbeSink;
pub use reject::{RejectBucket, RejectLedger, RejectReason};
pub use ring::{merge_timeline, TraceRing};
pub use scope::{ScopeConfig, ScopeKey, ScopePlane};
pub use sketch::{QuantileSketch, SketchConfig, SketchSummary};
pub use snapshot::MetricsSnapshot;
pub use timeseries::FlightRecorder;
pub use watch::{positional, Fleet, Watch};
pub use watchdog::{WatchAlert, WatchInput, Watchdog, WatchdogConfig};
pub use xray::{
    AttrCause, Attribution, DisableReason, Finding, HoldRow, MissTable, Phase, PhaseMeter,
    PhaseMeters, PhaseRow, XrayOp, XrayReport, XrayTag, XrayTotals,
};

use std::fmt;

/// The path a captured frame took, for annotated pcap dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathTag {
    /// Left or arrived via the fast path.
    Fast,
    /// Went through the layered traversal.
    Slow,
    /// Produced by a backlog drain (was queued first).
    Queued,
    /// Layer-generated control traffic.
    Control,
    /// Dropped by the receiver.
    Dropped,
    /// Lost or mutated in the network (fault injection).
    Faulted,
    /// Outcome not (yet) observed.
    Unknown,
}

impl PathTag {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            PathTag::Fast => "fast",
            PathTag::Slow => "slow",
            PathTag::Queued => "queued",
            PathTag::Control => "control",
            PathTag::Dropped => "dropped",
            PathTag::Faulted => "faulted",
            PathTag::Unknown => "?",
        }
    }
}

impl fmt::Display for PathTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_tags_render() {
        assert_eq!(PathTag::Fast.to_string(), "fast");
        assert_eq!(PathTag::Dropped.label(), "dropped");
    }
}
