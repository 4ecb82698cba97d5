//! The time-series flight recorder.
//!
//! A [`FlightRecorder`] samples [`MetricsSnapshot`] *deltas* on a
//! virtual-time cadence into fixed-capacity ring-buffered
//! [`TimeSeries`] — how the fast-path ratio, drop rate, backlog depth
//! and pool occupancy evolve over a run, not just their final totals.
//! Like the trace ring, storage is bounded: a series holds the most
//! recent `capacity` points and overwrites the oldest beyond that.
//!
//! Exporters: Prometheus text exposition ([`FlightRecorder::to_prometheus`])
//! and JSON lines ([`FlightRecorder::to_json_lines`]). When a run's
//! invariants break (a connection's delivery ledger stops balancing, or
//! a disable counter wedges the send path), the host triggers a
//! [`Postmortem`] dump that freezes the recorder's view of the failure.

use crate::event::Nanos;
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One fixed-capacity ring-buffered series of `(at, value)` points.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    capacity: usize,
    buf: Vec<(Nanos, f64)>,
    head: usize,
    total: u64,
}

impl TimeSeries {
    /// A series retaining the most recent `capacity` points (≥ 1).
    pub(crate) fn new(name: &str, capacity: usize) -> TimeSeries {
        let capacity = capacity.max(1);
        TimeSeries {
            name: name.to_string(),
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
            total: 0,
        }
    }

    /// The series name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point; overwrites the oldest when full.
    pub(crate) fn push(&mut self, at: Nanos, value: f64) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push((at, value));
        } else {
            self.buf[self.head] = (at, value);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Points currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> Vec<(Nanos, f64)> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The most recent point.
    pub fn last(&self) -> Option<(Nanos, f64)> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last().copied()
        } else {
            Some(self.buf[self.head - 1])
        }
    }

    /// Points pushed and since overwritten by the ring.
    pub(crate) fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Heap + inline footprint in bytes (capacity-accurate).
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<TimeSeries>()
            + self.name.capacity()
            + self.buf.capacity() * std::mem::size_of::<(Nanos, f64)>()
    }
}

/// A frozen dump taken when an invariant broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// When the invariant break was detected.
    pub at: Nanos,
    /// What broke (e.g. `delivery ledger out of balance on conn1`).
    pub reason: String,
    /// The recorder's full rendering at the moment of failure.
    pub report: String,
}

/// Samples metrics deltas on a virtual-time cadence into ring-buffered
/// series.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    interval: Nanos,
    capacity: usize,
    max_series: usize,
    last_sample_at: Option<Nanos>,
    prev: Option<MetricsSnapshot>,
    series: BTreeMap<String, TimeSeries>,
    samples: u64,
    dropped_points: u64,
    postmortem: Option<Postmortem>,
    domain: u32,
}

/// Default cap on distinct series per recorder (see
/// [`FlightRecorder::with_limits`]).
pub(crate) const DEFAULT_MAX_SERIES: usize = 64;

impl FlightRecorder {
    /// A recorder sampling every `interval` virtual nanoseconds,
    /// retaining `capacity` points per series, with the default
    /// [`DEFAULT_MAX_SERIES`] series cap.
    pub fn new(interval: Nanos, capacity: usize) -> FlightRecorder {
        FlightRecorder::with_limits(interval, capacity, DEFAULT_MAX_SERIES)
    }

    /// A recorder with an explicit series cap: memory is bounded by
    /// `max_series × capacity` points. Pushes that would create a
    /// series beyond the cap are counted in
    /// [`FlightRecorder::dropped_points`] — never silently lost.
    pub fn with_limits(interval: Nanos, capacity: usize, max_series: usize) -> FlightRecorder {
        FlightRecorder {
            interval: interval.max(1),
            capacity: capacity.max(1),
            max_series: max_series.max(1),
            last_sample_at: None,
            prev: None,
            series: BTreeMap::new(),
            samples: 0,
            dropped_points: 0,
            postmortem: None,
            domain: 0,
        }
    }

    /// Labels this recorder with its owning telemetry domain (see
    /// `pa_obs::domain`). A recorder is owned by exactly one thread;
    /// overflow accounting therefore stays per-domain by construction —
    /// the merged snapshot's global drop count is the *sum* of each
    /// domain's [`FlightRecorder::dropped_points`], with no shared
    /// counter to race on.
    pub fn set_domain(&mut self, domain: u32) {
        self.domain = domain;
    }

    /// True if a sample is due at `at` (one full interval has elapsed
    /// since the last sample, or none has been taken yet).
    pub fn due(&self, at: Nanos) -> bool {
        match self.last_sample_at {
            None => true,
            Some(last) => at >= last + self.interval,
        }
    }

    /// Samples if due at the snapshot's timestamp; returns whether a
    /// sample was taken. `gauges` are instantaneous values (backlog
    /// depth, pool occupancy) recorded verbatim alongside the counter
    /// deltas.
    pub(crate) fn maybe_sample(&mut self, snap: &MetricsSnapshot, gauges: &[(&str, f64)]) -> bool {
        if !self.due(snap.at()) {
            return false;
        }
        self.sample(snap, gauges);
        true
    }

    /// Unconditionally takes one sample from `snap`.
    ///
    /// Counter series are *rates per interval*: the delta of the
    /// counter since the previous sample. Derived series:
    ///
    /// - `fast_path_ratio` — fraction of this interval's path decisions
    ///   (sends + deliveries) that took the fast path (recorded only
    ///   when the interval saw any);
    /// - `drops` — total frames dropped this interval (all `drops_*`
    ///   counters summed);
    /// - `frames` — frames in + out this interval.
    pub fn sample(&mut self, snap: &MetricsSnapshot, gauges: &[(&str, f64)]) {
        let at = snap.at();
        let delta = match &self.prev {
            Some(prev) => snap.delta(prev),
            None => snap.clone(),
        };

        let fast = delta.total("fast_sends") + delta.total("fast_deliveries");
        let slow = delta.total("slow_sends") + delta.total("slow_deliveries");
        if fast + slow > 0 {
            let ratio = fast as f64 / (fast + slow) as f64;
            self.push("fast_path_ratio", at, ratio);
        }
        let drops: u64 = delta
            .iter()
            .filter(|(_, n, _)| n.starts_with("drops"))
            .map(|(_, _, v)| v)
            .sum();
        self.push("drops", at, drops as f64);
        let frames = delta.total("frames_in") + delta.total("frames_out");
        self.push("frames", at, frames as f64);
        for &(name, v) in gauges {
            self.push(name, at, v);
        }

        self.prev = Some(snap.clone());
        self.last_sample_at = Some(at);
        self.samples += 1;
    }

    fn push(&mut self, name: &str, at: Nanos, v: f64) {
        if !self.series.contains_key(name) && self.series.len() >= self.max_series {
            self.dropped_points += 1;
            return;
        }
        let cap = self.capacity;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name, cap))
            .push(at, v);
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Points refused because the series cap was reached.
    pub fn dropped_points(&self) -> u64 {
        self.dropped_points
    }

    /// Points pushed and since overwritten by the per-series rings.
    pub(crate) fn overwritten_points(&self) -> u64 {
        self.series.values().map(|s| s.overwritten()).sum()
    }

    /// Heap + inline footprint in bytes (capacity-accurate).
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<FlightRecorder>()
            + self
                .series
                .iter()
                .map(|(k, s)| k.capacity() + 16 + s.mem_bytes())
                .sum::<usize>()
            + self
                .prev
                .as_ref()
                .map(|p| p.iter().count() * 64)
                .unwrap_or(0)
            + self
                .postmortem
                .as_ref()
                .map(|p| p.report.capacity() + p.reason.capacity())
                .unwrap_or(0)
    }

    /// Exports the recorder's own bookkeeping into the metrics
    /// registry under `scope` — the recorder watches the system, and
    /// this line watches the recorder: ring overwrites and capped-out
    /// series stop being invisible.
    pub fn record_into(&self, snap: &mut MetricsSnapshot, scope: &str) {
        snap.record(scope, "samples", self.samples);
        snap.record(scope, "series", self.series.len() as u64);
        snap.record(scope, "series_cap", self.max_series as u64);
        snap.record(
            scope,
            "points_retained",
            self.series.values().map(|s| s.len() as u64).sum(),
        );
        snap.record(scope, "points_overwritten", self.overwritten_points());
        snap.record(scope, "points_dropped", self.dropped_points);
        if self.domain != 0 {
            snap.record(scope, "domain", self.domain as u64);
        }
        snap.record(scope, "mem_bytes", self.mem_bytes() as u64);
        snap.record(
            scope,
            "postmortems",
            if self.postmortem.is_some() { 1 } else { 0 },
        );
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Prometheus text exposition: the latest value of every series as
    /// a gauge, with a millisecond timestamp.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in self.series.values() {
            let Some((at, v)) = s.last() else { continue };
            let name = prometheus_name(s.name());
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v} {}", at / 1_000_000);
        }
        out
    }

    /// JSON lines: every retained point of every series,
    /// `{"at":N,"series":"...","value":V}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.series.values() {
            for (at, v) in s.points() {
                let _ = writeln!(
                    out,
                    "{{\"at\":{at},\"series\":\"{}\",\"value\":{v}}}",
                    s.name()
                );
            }
        }
        out
    }

    /// Freezes a post-mortem dump: the reason, the last metrics
    /// snapshot, and the full series history. Only the *first* trigger
    /// is kept (the earliest failure is the interesting one).
    pub(crate) fn trigger_postmortem(&mut self, at: Nanos, reason: &str, last: &MetricsSnapshot) {
        if self.postmortem.is_some() {
            return;
        }
        let mut report = String::new();
        let _ = writeln!(report, "POSTMORTEM @ {at} ns: {reason}");
        report.push_str(&last.render_table());
        report.push_str("--- flight-recorder series ---\n");
        report.push_str(&self.to_json_lines());
        self.postmortem = Some(Postmortem {
            at,
            reason: reason.to_string(),
            report,
        });
    }

    /// The frozen dump, if an invariant broke.
    pub fn postmortem(&self) -> Option<&Postmortem> {
        self.postmortem.as_ref()
    }
}

/// Sanitizes a series or metric name into a Prometheus metric name
/// with the `pa_` prefix (the recorder's gauges and the scope plane's
/// histograms alike).
pub(crate) fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("pa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: Nanos, fast: u64, slow: u64, drops: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(at);
        s.record("conn0", "fast_sends", fast);
        s.record("conn0", "slow_sends", slow);
        s.record("conn0", "drops_malformed", drops);
        s.record("conn0", "frames_out", fast + slow);
        s
    }

    #[test]
    fn series_ring_overwrites_oldest() {
        let mut s = TimeSeries::new("x", 3);
        for i in 0..5u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.overwritten(), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.points().iter().map(|&(at, _)| at).collect::<Vec<_>>(),
            vec![20, 30, 40]
        );
        assert_eq!(s.last(), Some((40, 4.0)));
    }

    #[test]
    fn cadence_gates_sampling() {
        let mut fr = FlightRecorder::new(1_000, 16);
        assert!(fr.maybe_sample(&snap(0, 10, 0, 0), &[]));
        assert!(!fr.maybe_sample(&snap(500, 12, 0, 0), &[]), "not due yet");
        assert!(fr.maybe_sample(&snap(1_000, 15, 5, 0), &[]));
        assert_eq!(fr.samples(), 2);
    }

    #[test]
    fn samples_record_deltas_not_totals() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(0, 10, 0, 0), &[]);
        fr.sample(&snap(100, 30, 20, 3), &[]);
        // Second interval: 20 fast, 20 slow → ratio 0.5; 3 drops.
        let ratio = fr.get("fast_path_ratio").unwrap().points();
        assert_eq!(ratio.last().unwrap().1, 0.5);
        let drops = fr.get("drops").unwrap().last().unwrap();
        assert_eq!(drops, (100, 3.0));
    }

    #[test]
    fn quiet_interval_skips_ratio_but_keeps_counters() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(0, 10, 0, 0), &[]);
        fr.sample(&snap(100, 10, 0, 0), &[]); // nothing happened
        assert_eq!(fr.get("fast_path_ratio").unwrap().len(), 1);
        assert_eq!(fr.get("drops").unwrap().len(), 2);
    }

    #[test]
    fn gauges_are_recorded_verbatim() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(0, 1, 0, 0), &[("backlog_depth", 7.0)]);
        assert_eq!(fr.get("backlog_depth").unwrap().last(), Some((0, 7.0)));
    }

    #[test]
    fn prometheus_exports_latest_values() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(2_000_000, 9, 1, 0), &[("backlog_depth", 2.0)]);
        let p = fr.to_prometheus();
        assert!(p.contains("# TYPE pa_fast_path_ratio gauge"), "{p}");
        assert!(p.contains("pa_fast_path_ratio 0.9 2"), "{p}");
        assert!(p.contains("pa_backlog_depth 2 2"), "{p}");
    }

    #[test]
    fn json_lines_cover_every_point() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(0, 1, 1, 0), &[]);
        fr.sample(&snap(10, 2, 2, 0), &[]);
        let j = fr.to_json_lines();
        // fast_path_ratio ×2 + drops ×2 + frames ×2
        assert_eq!(j.lines().count(), 6, "{j}");
        assert!(
            j.lines()
                .all(|l| l.starts_with("{\"at\":") && l.ends_with('}')),
            "{j}"
        );
    }

    #[test]
    fn postmortem_freezes_the_first_failure() {
        let mut fr = FlightRecorder::new(1, 16);
        fr.sample(&snap(0, 5, 0, 0), &[]);
        let s = snap(50, 5, 0, 2);
        fr.trigger_postmortem(50, "ledger out of balance", &s);
        fr.trigger_postmortem(90, "second failure", &s);
        let pm = fr.postmortem().unwrap();
        assert_eq!(pm.at, 50);
        assert!(pm.reason.contains("ledger"), "{}", pm.reason);
        assert!(pm.report.contains("POSTMORTEM @ 50"), "{}", pm.report);
        assert!(pm.report.contains("drops_malformed"), "{}", pm.report);
        assert!(
            pm.report.contains("flight-recorder series"),
            "{}",
            pm.report
        );
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("fast-path ratio"), "pa_fast_path_ratio");
    }

    #[test]
    fn series_cap_drops_visibly() {
        let mut fr = FlightRecorder::with_limits(1, 4, 2);
        // The derived series (fast_path_ratio, drops, frames) already
        // exceed a cap of 2 — the third is refused and counted.
        fr.sample(&snap(0, 5, 5, 1), &[("backlog_depth", 1.0)]);
        assert!(fr.dropped_points() >= 2, "{}", fr.dropped_points());
        let mut reg = MetricsSnapshot::new(0);
        fr.record_into(&mut reg, "recorder");
        assert_eq!(reg.get("recorder", "series"), Some(2));
        assert_eq!(
            reg.get("recorder", "points_dropped"),
            Some(fr.dropped_points())
        );
    }

    #[test]
    fn overwritten_points_are_accounted() {
        let mut fr = FlightRecorder::new(1, 2);
        for i in 0..5u64 {
            fr.sample(&snap(i * 10, i * 3, 0, 0), &[]);
        }
        // drops + frames keep 2 of 5 points each; ratio series varies.
        assert!(fr.overwritten_points() >= 6, "{}", fr.overwritten_points());
        let mut reg = MetricsSnapshot::new(0);
        fr.record_into(&mut reg, "recorder");
        assert_eq!(
            reg.get("recorder", "points_overwritten"),
            Some(fr.overwritten_points())
        );
        assert!(reg.get("recorder", "mem_bytes").unwrap() > 0);
    }
}
