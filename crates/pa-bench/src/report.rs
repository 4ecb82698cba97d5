//! Bench reports and the regression comparator.
//!
//! Every paper-artifact bench can emit its headline numbers as a
//! `BENCH_<name>.json` report and compare them against a *committed
//! baseline* (`crates/pa-bench/baselines/`) whose values are the
//! EXPERIMENTS.md anchors (87 µs one-way, 174 µs RTT, …). A metric
//! that moves beyond the tolerance **in its bad direction** (latency
//! up, rate down) is a regression and fails the bench with a non-zero
//! exit status — the CI bench-smoke gate.
//!
//! The JSON is hand-rolled (the workspace takes no dependencies): a
//! flat, stable schema both written and parsed here.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies): regression when it grows.
    Lower,
    /// Larger is better (rates, bandwidth): regression when it drops.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One headline number of a bench.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (`one_way_us`, `roundtrips_per_sec`, …).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Its good direction.
    pub better: Better,
    /// Optional per-metric tolerance overriding the global one. The
    /// *baseline's* `tol` is what the comparator honors: virtual-time
    /// metrics are exact and keep the tight global default, and
    /// hardware-independent *ratios* of wall-clock rows carry their own.
    /// The wall-clock nanosecond rows themselves are emitted without
    /// one and kept out of the baselines: a tolerance wide enough for
    /// another machine (`> 1`) is one [`BenchReport::parse`] refuses.
    pub tol: Option<f64>,
}

/// A bench's emitted report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench name (`table4`, `fig4`).
    pub bench: String,
    /// Headline metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report for `bench`.
    pub fn new(bench: &str) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric (global tolerance).
    pub fn push(&mut self, name: &str, value: f64, better: Better) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            better,
            tol: None,
        });
        self
    }

    /// Appends one metric with a per-metric tolerance (meaningful in
    /// the committed baseline; informational in emitted reports).
    pub fn push_tol(&mut self, name: &str, value: f64, better: Better, tol: f64) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            better,
            tol: Some(tol),
        });
        self
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the report as stable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let tol = match m.tol {
                Some(t) => format!(", \"tol\": {}", fmt_f64(t)),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"value\": {}, \"better\": \"{}\"{tol}}}{comma}",
                m.name,
                fmt_f64(m.value),
                m.better.label()
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a report produced by [`BenchReport::to_json`] (tolerant
    /// of whitespace; not a general JSON parser).
    pub fn parse(json: &str) -> Result<BenchReport, String> {
        let bench = find_string(json, "bench").ok_or("missing \"bench\"")?;
        let mut metrics = Vec::new();
        let mut rest = json;
        while let Some(start) = rest.find("{\"name\"") {
            let obj_end = rest[start..]
                .find('}')
                .map(|e| start + e + 1)
                .ok_or("unterminated metric object")?;
            let obj = &rest[start..obj_end];
            let name = find_string(obj, "name").ok_or("metric missing \"name\"")?;
            let value = find_number(obj, "value").ok_or("metric missing \"value\"")?;
            let better = find_string(obj, "better")
                .and_then(|s| Better::parse(&s))
                .ok_or("metric missing \"better\"")?;
            let tol = find_number(obj, "tol");
            // A higher-is-better value cannot drop by 100 % or more, so
            // `change < -tol` with tol ≥ 1 is a row that cannot fail.
            if better == Better::Higher && tol.is_some_and(|t| t >= 1.0) {
                return Err(format!(
                    "metric \"{name}\": better=higher with tol >= 1 can never regress"
                ));
            }
            // Its twin: a lower-is-better row that only fails past a
            // doubling gates nothing a reader would call a regression;
            // such a figure is printed, not kept in a baseline.
            if better == Better::Lower && tol.is_some_and(|t| t > 1.0) {
                return Err(format!(
                    "metric \"{name}\": better=lower with tol > 1 only fails past 2x; report it ungated"
                ));
            }
            metrics.push(Metric {
                name,
                value,
                better,
                tol,
            });
            rest = &rest[obj_end..];
        }
        if metrics.is_empty() {
            return Err("no metrics".to_string());
        }
        Ok(BenchReport { bench, metrics })
    }

    /// Writes the report to `path`, creating the parent directory if
    /// needed (CI sets `BENCH_OUT_DIR` to a fresh artifact directory).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Loads a report from `path`.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::parse(&text)
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{}", v)
    }
}

fn find_string(hay: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = hay.find(&pat)? + pat.len();
    let rest = hay[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn find_number(hay: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = hay.find(&pat)? + pat.len();
    let rest = hay[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One metric's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Current measurement.
    pub current: f64,
    /// Signed relative change, `(current - baseline) / baseline`.
    pub change: f64,
    /// The tolerance this metric was judged against (the baseline's
    /// per-metric `tol` when present, else the global one).
    pub tol: f64,
    /// True if the change exceeds tolerance in the bad direction.
    pub regressed: bool,
}

/// The comparator's verdict over a whole report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-metric deltas, baseline order.
    pub deltas: Vec<Delta>,
    /// Metrics present in the baseline but absent from the current
    /// report (counted as failures: a vanished metric hides anything).
    pub missing: Vec<String>,
}

impl Comparison {
    /// True if nothing regressed and nothing went missing.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.deltas.iter().all(|d| !d.regressed)
    }

    /// Renders a verdict table.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>8} {:>7}  verdict (global tolerance ±{:.0}%)",
            "metric",
            "baseline",
            "current",
            "Δ%",
            "tol%",
            tolerance * 100.0
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{:<28} {:>14.3} {:>14.3} {:>+7.1}% {:>6.0}%  {}",
                d.name,
                d.baseline,
                d.current,
                d.change * 100.0,
                d.tol * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for m in &self.missing {
            let _ = writeln!(
                out,
                "{:<28} {:>14} {:>14} {:>8} {:>7}  MISSING",
                m, "-", "-", "-", "-"
            );
        }
        let _ = writeln!(out, "verdict: {}", if self.ok() { "PASS" } else { "FAIL" });
        out
    }
}

/// Compares `current` against `baseline`: a metric regresses when it
/// moves more than its tolerance (the baseline's per-metric `tol` when
/// present, else the global `tolerance`) in its bad direction —
/// latency up, rate down. Improvements never fail.
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Comparison {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.metrics {
        let Some(c) = current.get(&b.name) else {
            missing.push(b.name.clone());
            continue;
        };
        let change = if b.value != 0.0 {
            (c.value - b.value) / b.value
        } else {
            0.0
        };
        let tol = b.tol.unwrap_or(tolerance);
        let regressed = match b.better {
            Better::Lower => change > tol,
            Better::Higher => change < -tol,
        };
        deltas.push(Delta {
            name: b.name.clone(),
            baseline: b.value,
            current: c.value,
            change,
            tol,
            regressed,
        });
    }
    Comparison { deltas, missing }
}

/// The committed-baseline path for `bench` (inside this crate, so it
/// travels with the repo).
pub fn baseline_path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join(format!("BENCH_{bench}.json"))
}

/// Where to write the emitted report: `$BENCH_OUT_DIR` if set (the CI
/// artifact directory), else the current directory.
pub fn out_path(bench: &str) -> PathBuf {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    Path::new(&dir).join(format!("BENCH_{bench}.json"))
}

/// The regression tolerance: `$BENCH_TOLERANCE` (a fraction, e.g.
/// `0.10`) or the default 10%.
pub fn tolerance() -> f64 {
    std::env::var("BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10)
}

/// The whole gate: writes `BENCH_<name>.json`, compares against the
/// committed baseline (if present), prints the verdict table, and
/// returns `false` on regression. Benches call
/// `std::process::exit(1)` on `false` so CI fails.
pub fn emit_and_compare(report: &BenchReport) -> bool {
    let out = out_path(&report.bench);
    match report.write(&out) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("warning: could not write {}: {e}", out.display()),
    }
    let base_path = baseline_path(&report.bench);
    let baseline = match BenchReport::load(&base_path) {
        Ok(b) => b,
        Err(e) => {
            println!("no committed baseline ({e}); skipping comparison");
            return true;
        }
    };
    let tol = tolerance();
    let cmp = compare(report, &baseline, tol);
    println!("\n--- regression gate vs {} ---", base_path.display());
    print!("{}", cmp.render(tol));
    cmp.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("table4");
        r.push("one_way_us", 87.0, Better::Lower)
            .push("msgs_per_sec", 75654.0, Better::Higher);
        r
    }

    #[test]
    fn json_roundtrips() {
        let r = sample();
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("not json").is_err());
    }

    #[test]
    fn parse_rejects_a_higher_is_better_row_that_cannot_fail() {
        // At tol 3.0 a throughput of zero is a −100 % change: inside.
        let mut r = BenchReport::new("throughput");
        r.push_tol("msgs_per_sec", 479_653.0, Better::Higher, 3.0);
        let err = BenchReport::parse(&r.to_json()).unwrap_err();
        assert!(err.contains("msgs_per_sec"), "{err}");
        // Just under 1 can fail.
        let mut ok = BenchReport::new("throughput");
        ok.push_tol("ratio", 3.4, Better::Higher, 0.999);
        assert_eq!(BenchReport::parse(&ok.to_json()).unwrap(), ok);
    }

    #[test]
    fn parse_rejects_a_lower_is_better_row_that_only_fails_past_a_doubling() {
        // At tol 1.5 a 95 ns hot operation passes until it reads 238.
        let mut r = BenchReport::new("micro");
        r.push_tol("hot_op_ns", 95.0, Better::Lower, 1.5);
        let err = BenchReport::parse(&r.to_json()).unwrap_err();
        assert!(err.contains("hot_op_ns"), "{err}");
        // Exactly 1 (fails at 2x) is the loosest row a baseline holds;
        // the same figure with no tolerance of its own is a report row.
        let mut ok = BenchReport::new("shard");
        ok.push_tol("table_scaling_ratio", 2.5, Better::Lower, 1.0)
            .push("demux_shard1_ns", 460.0, Better::Lower);
        assert_eq!(BenchReport::parse(&ok.to_json()).unwrap(), ok);
    }

    #[test]
    fn within_tolerance_passes() {
        let base = sample();
        let mut cur = BenchReport::new("table4");
        cur.push("one_way_us", 90.0, Better::Lower) // +3.4 %
            .push("msgs_per_sec", 70_000.0, Better::Higher); // −7.5 %
        let cmp = compare(&cur, &base, 0.10);
        assert!(cmp.ok(), "{}", cmp.render(0.10));
    }

    #[test]
    fn latency_up_beyond_tolerance_regresses() {
        let base = sample();
        let mut cur = BenchReport::new("table4");
        cur.push("one_way_us", 100.0, Better::Lower) // +14.9 %
            .push("msgs_per_sec", 75_654.0, Better::Higher);
        let cmp = compare(&cur, &base, 0.10);
        assert!(!cmp.ok());
        assert!(cmp.deltas[0].regressed);
        assert!(!cmp.deltas[1].regressed);
        assert!(cmp.render(0.10).contains("REGRESSED"));
    }

    #[test]
    fn rate_down_beyond_tolerance_regresses() {
        let base = sample();
        let mut cur = BenchReport::new("table4");
        cur.push("one_way_us", 87.0, Better::Lower)
            .push("msgs_per_sec", 60_000.0, Better::Higher); // −20.7 %
        assert!(!compare(&cur, &base, 0.10).ok());
    }

    #[test]
    fn improvements_never_fail() {
        let base = sample();
        let mut cur = BenchReport::new("table4");
        cur.push("one_way_us", 40.0, Better::Lower) // much faster
            .push("msgs_per_sec", 150_000.0, Better::Higher); // much more
        assert!(compare(&cur, &base, 0.10).ok());
    }

    #[test]
    fn per_metric_tolerance_overrides_global() {
        // A ratio row with a per-metric tol survives a swing that the
        // global 10% would flag and still gates at its own bound; a
        // wall-clock row the baseline does not hold is not judged at
        // all. Round-trips through JSON so the comparator sees exactly
        // what a committed baseline file would carry.
        let mut base = BenchReport::new("micro");
        base.push_tol("post_vs_hot_ratio", 1.05, Better::Lower, 0.5);
        let base = BenchReport::parse(&base.to_json()).unwrap();
        assert_eq!(base.get("post_vs_hot_ratio").unwrap().tol, Some(0.5));

        let mut cur = BenchReport::new("micro");
        cur.push("hot_op_ns", 230.0, Better::Lower) // slow CI box: not in the baseline
            .push("post_vs_hot_ratio", 1.40, Better::Lower); // +33 %: within 50 %
        let cmp = compare(&cur, &base, 0.10);
        assert!(cmp.ok(), "{}", cmp.render(0.10));
        assert_eq!(cmp.deltas.len(), 1, "only baseline rows are judged");

        let mut lost = BenchReport::new("micro");
        lost.push("hot_op_ns", 110.0, Better::Lower)
            .push("post_vs_hot_ratio", 2.4, Better::Lower); // the drain got dearer
        let cmp = compare(&lost, &base, 0.10);
        assert!(!cmp.ok());
        assert!(cmp.deltas[0].regressed);
    }

    #[test]
    fn missing_metric_fails() {
        let base = sample();
        let mut cur = BenchReport::new("table4");
        cur.push("one_way_us", 87.0, Better::Lower);
        let cmp = compare(&cur, &base, 0.10);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["msgs_per_sec".to_string()]);
        assert!(cmp.render(0.10).contains("MISSING"));
    }

    #[test]
    fn committed_baselines_parse_and_anchor_the_paper() {
        // The baselines shipped with the crate are the EXPERIMENTS.md
        // anchors; the gate is only as good as their integrity.
        let t4 = BenchReport::load(&baseline_path("table4")).unwrap();
        assert_eq!(t4.get("one_way_us").unwrap().value, 87.0);
        assert_eq!(t4.get("one_way_us").unwrap().better, Better::Lower);
        let f4 = BenchReport::load(&baseline_path("fig4")).unwrap();
        assert_eq!(f4.get("typical_rtt_us").unwrap().value, 174.0);
    }
}
