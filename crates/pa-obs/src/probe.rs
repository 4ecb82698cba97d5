//! Probes: where trace events go.
//!
//! The hot path holds a [`ProbeSink`] — a three-variant enum whose
//! `Noop` arm compiles to a single discriminant test, so tracing that
//! is *off* costs one predictable branch and zero allocations.
//!
//! `ProbeSink::Count` tallies events by kind without storing them —
//! used by tests to prove the instrumentation points fire, and by the
//! zero-overhead test to prove `Noop` writes nothing.

use crate::event::{Nanos, TraceEvent};
use crate::ring::TraceRing;

/// Event tallies by kind (no storage, no allocation after construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `FastSend` events.
    pub fast_sends: u64,
    /// `SlowSend` events.
    pub slow_sends: u64,
    /// `Queued` events.
    pub queued: u64,
    /// `FastDeliver` events.
    pub fast_delivers: u64,
    /// `SlowDeliver` events.
    pub slow_delivers: u64,
    /// `PredictMiss` events.
    pub predict_misses: u64,
    /// `FilterReject` events.
    pub filter_rejects: u64,
    /// `Drop` events.
    pub drops: u64,
    /// `BacklogDrain` events.
    pub backlog_drains: u64,
    /// `Control` events.
    pub controls: u64,
    /// `JourneySend` events.
    pub journey_sends: u64,
    /// `JourneyDeliver` events.
    pub journey_delivers: u64,
    /// `Disable` events (attributed §3.2 counter bumps).
    pub disables: u64,
    /// `Enable` events.
    pub enables: u64,
    /// `InvariantViolation` events (survived engine bugs).
    pub invariant_violations: u64,
}

impl EventCounts {
    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.fast_sends
            + self.slow_sends
            + self.queued
            + self.fast_delivers
            + self.slow_delivers
            + self.predict_misses
            + self.filter_rejects
            + self.drops
            + self.backlog_drains
            + self.controls
            + self.journey_sends
            + self.journey_delivers
            + self.disables
            + self.enables
            + self.invariant_violations
    }

    #[inline]
    fn bump(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::FastSend => self.fast_sends += 1,
            TraceEvent::SlowSend { .. } => self.slow_sends += 1,
            TraceEvent::Queued { .. } => self.queued += 1,
            TraceEvent::FastDeliver { .. } => self.fast_delivers += 1,
            TraceEvent::SlowDeliver { .. } => self.slow_delivers += 1,
            TraceEvent::PredictMiss { .. } => self.predict_misses += 1,
            TraceEvent::FilterReject { .. } => self.filter_rejects += 1,
            TraceEvent::Drop { .. } => self.drops += 1,
            TraceEvent::BacklogDrain { .. } => self.backlog_drains += 1,
            TraceEvent::Control { .. } => self.controls += 1,
            TraceEvent::JourneySend { .. } => self.journey_sends += 1,
            TraceEvent::JourneyDeliver { .. } => self.journey_delivers += 1,
            TraceEvent::Disable { .. } => self.disables += 1,
            TraceEvent::Enable { .. } => self.enables += 1,
            TraceEvent::InvariantViolation { .. } => self.invariant_violations += 1,
        }
    }
}

/// The cheap-enum probe held by each connection.
#[derive(Debug, Clone, Default)]
pub enum ProbeSink {
    /// Tracing off: one branch, nothing else.
    #[default]
    Noop,
    /// Tally events by kind.
    Count(EventCounts),
    /// Record events into a fixed-capacity ring.
    Ring(TraceRing),
}

impl ProbeSink {
    /// A counting probe starting at zero.
    pub fn counting() -> ProbeSink {
        ProbeSink::Count(EventCounts::default())
    }

    /// A ring probe retaining `capacity` records.
    pub fn ring(capacity: usize) -> ProbeSink {
        ProbeSink::Ring(TraceRing::new(capacity))
    }

    /// Emits one event.
    #[inline]
    pub fn emit(&mut self, at: Nanos, event: TraceEvent) {
        match self {
            ProbeSink::Noop => {}
            ProbeSink::Count(c) => c.bump(&event),
            ProbeSink::Ring(r) => r.push(at, event),
        }
    }

    /// True unless this is the no-op sink. Instrumentation sites use
    /// this to skip *diagnosis* work (e.g. scanning a header for the
    /// first mismatching field) that exists only to enrich events.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self, ProbeSink::Noop)
    }

    /// The tallies, if this is a counting probe.
    pub fn counts(&self) -> Option<&EventCounts> {
        match self {
            ProbeSink::Count(c) => Some(c),
            _ => None,
        }
    }

    /// The ring, if this is a ring probe.
    pub fn trace_ring(&self) -> Option<&TraceRing> {
        match self {
            ProbeSink::Ring(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable ring access (labelling, clearing).
    pub fn trace_ring_mut(&mut self) -> Option<&mut TraceRing> {
        match self {
            ProbeSink::Ring(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, SlowCause};

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut p = ProbeSink::Noop;
        assert!(!p.enabled());
        p.emit(0, TraceEvent::FastSend);
        assert!(p.counts().is_none());
        assert!(p.trace_ring().is_none());
    }

    #[test]
    fn counting_tallies_by_kind() {
        let mut p = ProbeSink::counting();
        assert!(p.enabled());
        p.emit(0, TraceEvent::FastSend);
        p.emit(1, TraceEvent::FastSend);
        p.emit(
            2,
            TraceEvent::SlowSend {
                cause: SlowCause::FilterReject,
            },
        );
        p.emit(
            3,
            TraceEvent::Drop {
                reason: DropCause::Malformed,
            },
        );
        let c = p.counts().unwrap();
        assert_eq!(c.fast_sends, 2);
        assert_eq!(c.slow_sends, 1);
        assert_eq!(c.drops, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn ring_records_in_order() {
        let mut p = ProbeSink::ring(8);
        p.emit(5, TraceEvent::Control { layer: "window" });
        p.emit(9, TraceEvent::FastDeliver { msgs: 2 });
        let r = p.trace_ring().unwrap();
        assert_eq!(r.total(), 2);
        assert_eq!(r.records()[1].at, 9);
    }
}
