//! Watching a run: one fold, one step, one view.
//!
//! A host — a simulator world, a churn script, a live `UdpNet`
//! endpoint — answers "where is the fleet off the fast path, and is
//! anything stuck?" with two values and nothing of its own:
//!
//! - a [`Fleet`]: what its connections did off the fast path, folded
//!   connection by connection (`pa_core::Connection::fold_into`) into
//!   the reject taxonomy, the slow-path attribution, the miss
//!   forensics, the per-layer phase meters and the leak ledger. Fleets
//!   merge, so shards, waves and retired connections add up;
//! - a [`Watch`]: the latency plane, the flight recorder and the
//!   watchdog, any of them attached or not, driven by one
//!   [`Watch::observe`] per due instant and read through one
//!   [`Watch::render`]. Time is whatever `Nanos` the host hands in:
//!   virtual in a simulator, `Instant::elapsed` on a live process.

use crate::critpath::{LeakLedger, MaskingLedger};
use crate::domain::price_meters;
use crate::event::{FieldRef, Nanos};
use crate::journey::render_journey_id;
use crate::reject::RejectLedger;
use crate::scope::ScopePlane;
use crate::snapshot::MetricsSnapshot;
use crate::timeseries::FlightRecorder;
use crate::watchdog::{WatchAlert, WatchInput, Watchdog};
use crate::xray::{
    AttrCause, Attribution, Finding, MissRow, MissTable, Phase, PhaseMeter, PhaseRow, XrayReport,
    XrayTotals,
};
use std::fmt::Write as _;

/// What a set of connections did off the fast path. Every part is a
/// ledger that merges exactly, so a fleet folded per shard, per wave or
/// per retired connection equals the fleet folded in one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fleet {
    /// Connections folded in.
    pub conns: u64,
    /// Path counters the attribution reconciles against.
    pub totals: XrayTotals,
    /// The reject taxonomy.
    pub rejects: RejectLedger,
    /// Slow-path attribution. Field misses stay positional: a name is
    /// one connection's layout, and stacks in a fleet may differ.
    pub attribution: Attribution,
    /// Prediction-miss forensics (positional, like the attribution).
    pub misses: MissTable,
    /// Phase meters per layer name, bottom first.
    pub meters: Vec<(String, PhaseMeter)>,
    /// Critical-path leaks.
    pub leaks: LeakLedger,
}

impl Fleet {
    /// Folds one stack's per-layer meters in, bottom first. A layer
    /// joins the row of its name at the same occurrence (a stack may
    /// hold a layer twice), so connections over one stack fold
    /// positionally and a one-connection fleet keeps that connection's
    /// rows. Allocates only for a row it has not seen.
    pub fn absorb_meters<'a>(
        &mut self,
        layers: impl Iterator<Item = (&'a str, &'a PhaseMeter)> + Clone,
    ) {
        for (i, (name, m)) in layers.clone().enumerate() {
            let nth = layers.clone().take(i).filter(|(l, _)| *l == name).count();
            match self.meters.iter_mut().filter(|(l, _)| l == name).nth(nth) {
                Some((_, acc)) => acc.absorb(m),
                None => self.meters.push((name.to_string(), *m)),
            }
        }
    }

    /// Folds another fleet in.
    pub fn merge(&mut self, other: &Fleet) {
        self.conns += other.conns;
        self.totals.absorb(&other.totals);
        self.rejects.merge(&other.rejects);
        self.attribution.merge(&other.attribution);
        self.misses.merge(&other.misses);
        self.absorb_meters(other.meters.iter().map(|(l, m)| (l.as_str(), m)));
        self.leaks.merge(&other.leaks);
    }

    /// The fleet's phase table, each `(layer, phase)` invocation priced
    /// by `price` ([`price_meters`]; `|_, _| 0` leaves only the cycle
    /// columns).
    pub fn phase_rows(&self, price: impl Fn(&str, Phase) -> u64) -> Vec<PhaseRow> {
        price_meters(&self.meters, price)
    }

    /// The ranked "why is this fleet off the fast path" report, its
    /// phase table unpriced. `field_name` resolves a mispredicted field
    /// — through the layout, for a fleet of one connection; positionally
    /// ([`positional`]) for a fleet whose stacks may differ.
    pub fn report(
        &self,
        scope: &str,
        at: Nanos,
        field_name: impl Fn(FieldRef) -> String,
    ) -> XrayReport {
        let entries = self.attribution.entries();
        let total: u64 = entries.iter().map(|e| e.count).sum();
        let findings = entries.iter().map(|e| Finding {
            op: e.op,
            layer: e.layer.to_string(),
            cause: match e.cause {
                AttrCause::FieldMiss(f) => format!("field-miss({})", field_name(f)),
                other => other.to_string(),
            },
            count: e.count,
            share: e.count as f64 / total.max(1) as f64,
        });
        let misses = self.misses.entries().iter().map(|m| MissRow {
            layer: m.layer.to_string(),
            field: field_name(m.field),
            count: m.count,
            last_predicted: m.last_predicted,
            last_actual: m.last_actual,
        });
        let mut report = XrayReport {
            scope: scope.to_string(),
            at,
            findings: findings.collect(),
            misses: misses.collect(),
            phases: self.phase_rows(|_, _| 0),
            totals: self.totals,
            ..XrayReport::default()
        };
        if let Some(worst) = self.leaks.top() {
            report.notes.push(format!(
                "critical-path leaks: {} phase calls waited on by a later \
                 operation; worst bucket {}/{} ({}, {} calls)",
                self.leaks.total_calls(),
                worst.layer,
                worst.phase.label(),
                worst.cause,
                worst.calls
            ));
        }
        report.rank();
        report
    }
}

/// A field by position, `class:index` — the name a fleet report gives a
/// mispredicted field when no one layout speaks for every connection.
pub fn positional(f: FieldRef) -> String {
    format!("{}:{}", f.class, f.index)
}

/// Formats nanoseconds as microseconds with one decimal.
pub fn us(ns: Nanos) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// A fixed-width text table for the dashboard and the paper-style
/// reports.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().max(ncol))
        );
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// What watches a run: the latency plane, the flight recorder and the
/// watchdog, each attached (`Some`) or not. The three keep no condition
/// among them, so a host attaches by assignment and reads the parts
/// directly; what is written once here is the step that drives them.
#[derive(Debug, Default)]
pub struct Watch {
    /// The per-conn → per-endpoint → cluster latency roll-up.
    pub plane: Option<ScopePlane>,
    /// Counter deltas and gauges on a cadence; post-mortems.
    pub recorder: Option<FlightRecorder>,
    /// Stall, ledger-break, SLO-burn and mask-leak detection.
    pub watchdog: Option<Watchdog>,
}

impl Watch {
    /// True if the recorder or the watchdog wants a sample at `now` —
    /// the host's cue to assemble a snapshot and call
    /// [`Watch::observe`].
    pub fn due(&self, now: Nanos) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.due(now))
            || self.watchdog.as_ref().is_some_and(|w| w.due(now))
    }

    /// The plane's cluster p99 (0 with no plane or no samples, which
    /// keeps SLO-burn detection off).
    pub fn p99(&self) -> u64 {
        self.plane
            .as_ref()
            .map_or(0, |p| p.cluster().sketch().p99())
    }

    /// True if the watchdog consumes a leak rate: building a masking
    /// ledger allocates, so a host computes
    /// [`WatchInput::leak_permille`] only then.
    pub fn wants_leak_rate(&self) -> bool {
        self.watchdog
            .as_ref()
            .is_some_and(|w| w.config().max_leak_permille > 0)
    }

    /// The watch's own rows: the plane's health under `scope`, the
    /// watchdog's verdict under `watchdog`.
    pub fn record_into(&self, snap: &mut MetricsSnapshot) {
        if let Some(plane) = &self.plane {
            plane.record_into(snap, "scope");
        }
        if let Some(wd) = &self.watchdog {
            snap.record("watchdog", "samples", wd.samples());
            snap.record("watchdog", "alerts_total", wd.alerts_total());
            snap.record("watchdog", "ledger_broken", wd.ledger_broken() as u64);
        }
    }

    /// One watch step at `input.at`, with the host's counters in `snap`
    /// (stamped `input.at`) and its instantaneous `gauges`: the watchdog
    /// consumes `input` if its cadence is due, the watch's own rows
    /// join `snap`, the recorder samples if its cadence is due, and the
    /// first of `broken` (invariants only the host can check) or of the
    /// alerts that fired freezes a post-mortem. Returns the alerts.
    pub fn observe(
        &mut self,
        snap: &mut MetricsSnapshot,
        gauges: &[(&str, f64)],
        input: WatchInput,
        broken: &[String],
    ) -> Vec<WatchAlert> {
        let alerts = match &mut self.watchdog {
            Some(wd) if wd.due(input.at) => wd.observe(input),
            _ => Vec::new(),
        };
        self.record_into(snap);
        if let Some(fr) = &mut self.recorder {
            fr.maybe_sample(snap, gauges);
            let alerts = alerts.iter().map(|a| format!("watchdog: {a}"));
            for reason in broken.iter().cloned().chain(alerts) {
                fr.trigger_postmortem(input.at, &reason, snap);
            }
        }
        alerts
    }

    /// Prometheus text: the plane's sketches as `metric` histograms with
    /// exemplars, then the recorder's latest gauges.
    pub fn to_prometheus(&self, metric: &str, max_le_lines: usize) -> String {
        let plane = self.plane.as_ref();
        let mut out = plane.map_or_else(String::new, |p| p.to_prometheus(metric, max_le_lines));
        if let Some(fr) = &self.recorder {
            out.push_str(&fr.to_prometheus());
        }
        out
    }

    /// The operator's text dashboard at `at`, composed from the renderers
    /// the parts already have: the plane's cluster latency from merged
    /// sketches, its worst connections, per-endpoint roll-up and
    /// exemplars that drill down to a journey; `fleet`'s positional
    /// [`Fleet::report`] — why it is off the fast path, what each
    /// layer's phases cost — and its reject taxonomy; `masking`, what
    /// stayed masked and what leaked; the watchdog's verdict and any
    /// post-mortem. Sections whose source is not attached are left out.
    pub fn render(
        &self,
        at: Nanos,
        fleet: &Fleet,
        masking: &MaskingLedger,
        top_n: usize,
    ) -> String {
        let mut s = String::from("== pa-scope ops dashboard ==\n");
        if let Some(plane) = &self.plane {
            let (sk, ex) = (plane.cluster().sketch(), plane.cluster().exemplars());
            let _ = writeln!(
                s,
                "plane memory {:>12}   cap {}   within budget: {}   series {} dedicated, {} denied",
                plane.mem_bytes(),
                plane.config().byte_cap,
                plane.within_budget(),
                plane.conn_slots(),
                plane.denied_conns()
            );
            let _ = writeln!(
                s,
                "\n-- cluster latency (merged sketches; {} samples) --\n\
                 p50 {:>10}   p90 {:>10}   p99 {:>10}   min {:>10}   max {:>10}   collapsed {}",
                sk.count(),
                us(sk.p50()),
                us(sk.quantile(0.90)),
                us(sk.p99()),
                us(sk.min()),
                us(sk.max()),
                sk.collapsed()
            );
            let mut t = Table::new(&["conn", "p99", "samples"]);
            for (name, p99, count) in plane.top_conns(0.99, top_n) {
                t.row(&[name.to_string(), us(p99), count.to_string()]);
            }
            let _ = writeln!(s, "\n-- top {top_n} connections by p99 --\n{}", t.render());
            let mut t = Table::new(&["shard", "p50", "p99", "samples"]);
            for (name, series) in plane.endpoints() {
                let sk = series.sketch();
                let samples = sk.count().to_string();
                t.row(&[name.to_string(), us(sk.p50()), us(sk.p99()), samples]);
            }
            let _ = writeln!(s, "-- per-shard roll-up --\n{}", t.render());
            let _ = writeln!(s, "-- exemplars (aggregate -> journey drill-down) --");
            for e in ex.iter() {
                let _ = writeln!(
                    s,
                    "  {:>10}  journey {}  tag {:?}  at {}",
                    us(e.value),
                    render_journey_id(e.journey),
                    e.tag.cause(),
                    us(e.at)
                );
            }
            let _ = writeln!(
                s,
                "  (offered {}, evicted {}, sampled out {})",
                ex.offered(),
                ex.evicted(),
                ex.sampled_out()
            );
        }
        // The §3.1 scorecard: why the fleet left the fast path, and how
        // much protocol work stayed off the critical path — or did not,
        // and which (layer, phase) put it there.
        let report = fleet.report("fleet", at, positional);
        let _ = writeln!(s, "\n-- slow-path attribution (layer, cause) --\n{report}");
        let rejected = fleet.rejects.total();
        if rejected > 0 {
            let mut t = Table::new(&["reason", "count", "share"]);
            for (reason, n) in fleet.rejects.iter().filter(|&(_, n)| n > 0) {
                let share = format!("{:.1}%", n as f64 * 100.0 / rejected as f64);
                t.row(&[reason.label().to_string(), n.to_string(), share]);
            }
            let _ = writeln!(s, "-- reject taxonomy --\n{}", t.render());
        }
        let _ = writeln!(s, "-- masking (critical path) --\n{}", masking.render());
        if let Some(wd) = &self.watchdog {
            let _ = writeln!(
                s,
                "-- watchdog --\nsamples {}   alerts {}   ledger ok: {}   healthy: {}",
                wd.samples(),
                wd.alerts_total(),
                !wd.ledger_broken(),
                wd.healthy()
            );
            for (at, a) in wd.alerts() {
                let _ = writeln!(s, "  {} {a}", us(*at));
            }
        }
        if let Some(pm) = self.recorder.as_ref().and_then(|fr| fr.postmortem()) {
            let _ = writeln!(s, "POST-MORTEM at {}: {}", us(pm.at), pm.reason);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::{LeakCause, MaskDomain};
    use crate::scope::ScopeConfig;
    use crate::watchdog::WatchdogConfig;
    use crate::xray::{XrayOp, XrayTag};

    fn meter(calls: [u64; 5]) -> PhaseMeter {
        PhaseMeter {
            calls,
            ..PhaseMeter::default()
        }
    }

    #[test]
    fn fleets_fold_positionally_and_merge_to_the_pooled_fleet() {
        // A stack that holds `window` twice keeps two rows; a second
        // connection over the same stack lands on the same rows.
        let stack = ["bottom", "window", "window"];
        let one = [
            meter([1, 0, 0, 0, 0]),
            meter([0, 2, 0, 0, 0]),
            meter([0, 0, 3, 0, 0]),
        ];
        let mut a = Fleet::default();
        a.absorb_meters(stack.into_iter().zip(&one));
        a.attribution
            .bump(XrayOp::SlowSend, "pa", AttrCause::PredictOff);
        a.leaks
            .bump("window", Phase::PostSend, LeakCause::EagerPost, 2, 0);
        let mut pooled = a.clone();
        pooled.absorb_meters(stack.into_iter().zip(&one));
        pooled
            .attribution
            .bump(XrayOp::SlowSend, "pa", AttrCause::PredictOff);
        pooled
            .leaks
            .bump("window", Phase::PostSend, LeakCause::EagerPost, 2, 0);
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(merged, pooled);
        let calls: Vec<_> = merged
            .meters
            .iter()
            .map(|(l, m)| (l.as_str(), m.calls))
            .collect();
        assert_eq!(
            calls,
            [
                ("bottom", [2, 0, 0, 0, 0]),
                ("window", [0, 4, 0, 0, 0]),
                ("window", [0, 0, 6, 0, 0])
            ]
        );
        let report = merged.report("fleet", 7, positional);
        assert_eq!(report.findings[0].count, 2);
        assert_eq!(report.phases.len(), 3);
        assert!(report.notes[0].contains("critical-path leaks"), "{report}");
    }

    fn input(at: Nanos, progress: u64, backlog: u64) -> WatchInput {
        WatchInput {
            at,
            progress,
            backlog,
            ledger_ok: true,
            p99_ns: 0,
            leak_permille: 0,
        }
    }

    #[test]
    fn one_step_samples_alerts_and_freezes() {
        let mut watch = Watch {
            plane: Some(ScopePlane::new(ScopeConfig::default())),
            recorder: Some(FlightRecorder::new(10, 16)),
            watchdog: Some(Watchdog::new(WatchdogConfig {
                cadence: 10,
                stall_windows: 2,
                ..WatchdogConfig::default()
            })),
        };
        let key = watch.plane.as_mut().unwrap().register("ep", "conn");
        watch
            .plane
            .as_mut()
            .unwrap()
            .record(key, 5_000, 1, 0, XrayTag::none());
        assert_eq!(
            watch.p99(),
            watch.plane.as_ref().unwrap().cluster().sketch().p99()
        );
        for step in 0..3u64 {
            let at = step * 10;
            assert!(watch.due(at));
            let mut snap = MetricsSnapshot::new(at);
            snap.record("host", "frames_in", step);
            let alerts = watch.observe(&mut snap, &[("depth", 4.0)], input(at, 1, 4), &[]);
            assert_eq!(alerts.len(), usize::from(step == 2), "{alerts:?}");
            assert_eq!(snap.get("watchdog", "samples"), Some(step + 1));
            assert_eq!(snap.get("scope", "records"), Some(1));
            assert!(!watch.due(at + 5));
        }
        let fr = watch.recorder.as_ref().unwrap();
        assert_eq!(fr.samples(), 3);
        assert!(fr.get("depth").is_some());
        let pm = fr.postmortem().expect("the stall froze the run");
        assert!(pm.reason.starts_with("watchdog: stall"), "{}", pm.reason);
        // Off cadence, nothing moves.
        let mut snap = MetricsSnapshot::new(25);
        watch.observe(&mut snap, &[], input(25, 1, 4), &[]);
        assert_eq!(watch.watchdog.as_ref().unwrap().samples(), 3);
        assert_eq!(watch.recorder.as_ref().unwrap().samples(), 3);

        let ledger = MaskingLedger::empty("t", MaskDomain::Virtual);
        let text = watch.render(25, &Fleet::default(), &ledger, 3);
        for heading in [
            "== pa-scope ops dashboard ==",
            "-- cluster latency",
            "-- top 3 connections by p99 --",
            "-- per-shard roll-up --",
            "-- exemplars",
            "-- slow-path attribution (layer, cause) --",
            "-- masking (critical path) --",
            "-- watchdog --",
            "POST-MORTEM at",
        ] {
            assert!(text.contains(heading), "{heading} missing from:\n{text}");
        }
        let prom = watch.to_prometheus("latency_ns", 8);
        assert!(
            prom.contains("latency_ns") && prom.contains("pa_depth"),
            "{prom}"
        );
    }

    #[test]
    fn a_host_invariant_freezes_before_an_alert() {
        let mut watch = Watch {
            recorder: Some(FlightRecorder::new(1, 4)),
            ..Watch::default()
        };
        assert!(!watch.wants_leak_rate());
        let mut snap = MetricsSnapshot::new(3);
        watch.observe(&mut snap, &[], input(3, 0, 0), &["wedged".to_string()]);
        assert_eq!(
            watch.recorder.unwrap().postmortem().unwrap().reason,
            "wedged"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["what", "value"]);
        t.row(&["one-way latency".into(), "85 µs".into()]);
        t.row(&["throughput".into(), "80000 msgs/s".into()]);
        let r = t.render();
        assert!(r.contains("one-way latency"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }
}
