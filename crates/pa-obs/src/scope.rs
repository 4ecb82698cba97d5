//! pa-scope: the bounded-memory, mergeable telemetry plane.
//!
//! PRs 1–5 kept *exact* books — per-connection `ConnStats`,
//! `Attribution` multisets, log2 histograms. Exact is right for one
//! connection and ruinous for a fleet: pa-shard's 10⁶ connections
//! cannot each hold an unbounded ledger. A [`ScopePlane`] scales the
//! same questions ("where is the time going, and which message do I
//! look at?") to high cardinality with three ingredients:
//!
//! - **mergeable sketches** ([`QuantileSketch`]) at three levels —
//!   per-connection → per-endpoint → cluster — rolled up by exact
//!   associative merge, so the cluster view is *provably* the merge of
//!   its parts ([`ScopePlane::rollup_reconciles`]);
//! - **exemplars** ([`ExemplarSet`]) so any aggregate anomaly links
//!   back to one concrete journey + [`XrayTag`] attribution;
//! - **an explicit byte budget**: every structure has a hard cap,
//!   admission is refused *visibly* (sampled-out counters, an overflow
//!   sketch that still counts every sample), and nothing is ever
//!   silently lost — a connection denied a dedicated slot still lands
//!   in the cluster and overflow sketches.
//!
//! The plane is passive scaffolding on the host side: engine code never
//! sees it, so the telemetry-off wire bytes and allocation profile are
//! untouched (pinned by `tests/trace_overhead.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Nanos;
use crate::exemplar::{Exemplar, ExemplarSet};
use crate::journey::render_journey_id;
use crate::sketch::{QuantileSketch, SketchConfig};
use crate::snapshot::MetricsSnapshot;
use crate::timeseries::prometheus_name;
use crate::xray::XrayTag;

/// Shape and budget of a [`ScopePlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScopeConfig {
    /// Sketch relative accuracy α.
    pub alpha: f64,
    /// Sketch window cap, in buckets.
    pub max_buckets: usize,
    /// Exemplar octave bands retained per series.
    pub exemplar_bands: usize,
    /// Exemplar reservoir slots per band.
    pub exemplars_per_band: usize,
    /// Dedicated endpoint series admitted before endpoint traffic
    /// folds into the endpoint-overflow series.
    pub max_endpoints: usize,
    /// Hard cap on the whole plane's footprint, in bytes. Admission of
    /// new per-connection series stops before the projected worst case
    /// would cross it.
    pub byte_cap: usize,
    /// Seed for all exemplar reservoirs (per-series streams are
    /// derived, so runs are reproducible end to end).
    pub seed: u64,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            alpha: 0.01,
            max_buckets: 512,
            exemplar_bands: 4,
            exemplars_per_band: 2,
            max_endpoints: 16,
            byte_cap: 512 * 1024,
            seed: 0x5C09,
        }
    }
}

impl ScopeConfig {
    /// The sketch shape every series in the plane uses.
    pub fn sketch_config(&self) -> SketchConfig {
        SketchConfig {
            alpha: self.alpha,
            max_buckets: self.max_buckets,
        }
    }

    /// Worst-case footprint of one series (sketch + exemplars + name
    /// slack), the unit of budget admission.
    pub fn series_footprint(&self) -> usize {
        QuantileSketch::mem_bytes_cap(self.sketch_config())
            + ExemplarSet::mem_bytes_cap(self.exemplar_bands, self.exemplars_per_band)
            + 64
    }
}

/// One telemetry series: a sketch plus its exemplars.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeSeries {
    sketch: QuantileSketch,
    exemplars: ExemplarSet,
}

impl ScopeSeries {
    fn new(cfg: &ScopeConfig, stream: u64) -> ScopeSeries {
        ScopeSeries {
            sketch: QuantileSketch::new(cfg.sketch_config()),
            exemplars: ExemplarSet::new(
                cfg.exemplar_bands,
                cfg.exemplars_per_band,
                cfg.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
            ),
        }
    }

    #[inline]
    fn record_keyed(&mut self, key: i32, ex: Exemplar) {
        self.sketch.record_keyed(key, ex.value);
        self.exemplars.offer(ex);
    }

    /// The quantile sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// The exemplar set.
    pub fn exemplars(&self) -> &ExemplarSet {
        &self.exemplars
    }

    fn mem_bytes(&self) -> usize {
        self.sketch.mem_bytes() + self.exemplars.mem_bytes()
    }
}

/// A resolved recording key: where one connection's samples land.
/// Obtained once per connection from [`ScopePlane::register`]; the
/// per-sample [`ScopePlane::record`] is then index arithmetic, no map
/// lookups or string hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeKey {
    /// Dedicated endpoint slot, or `u32::MAX` for the overflow series.
    ep: u32,
    /// Dedicated connection slot, or `u32::MAX` for the overflow
    /// series.
    conn: u32,
}

impl ScopeKey {
    const OVERFLOW: u32 = u32::MAX;
}

/// The bounded roll-up plane: cluster / endpoint / connection sketches
/// with exemplars, explicit overflow, and a hard byte budget.
#[derive(Debug, Clone)]
pub struct ScopePlane {
    cfg: ScopeConfig,
    cluster: ScopeSeries,
    /// Samples from connections denied a dedicated slot.
    conn_overflow: ScopeSeries,
    /// Samples from endpoints denied a dedicated slot.
    ep_overflow: ScopeSeries,
    endpoints: Vec<(String, ScopeSeries)>,
    conns: Vec<(String, ScopeSeries)>,
    endpoint_index: BTreeMap<String, u32>,
    conn_index: BTreeMap<String, u32>,
    records: u64,
    overflow_records: u64,
    denied_conns: u64,
    denied_endpoints: u64,
}

impl ScopePlane {
    /// An empty plane. The cluster and overflow series are always
    /// resident; dedicated per-endpoint/per-connection series are
    /// admitted only while the worst-case projection stays under
    /// `cfg.byte_cap`.
    pub fn new(cfg: ScopeConfig) -> ScopePlane {
        ScopePlane {
            cluster: ScopeSeries::new(&cfg, 0),
            conn_overflow: ScopeSeries::new(&cfg, 1),
            ep_overflow: ScopeSeries::new(&cfg, 2),
            endpoints: Vec::new(),
            conns: Vec::new(),
            endpoint_index: BTreeMap::new(),
            conn_index: BTreeMap::new(),
            records: 0,
            overflow_records: 0,
            denied_conns: 0,
            denied_endpoints: 0,
            cfg,
        }
    }

    /// The configured shape.
    pub fn config(&self) -> &ScopeConfig {
        &self.cfg
    }

    /// Resolves (creating if budget allows) the recording key for a
    /// `(endpoint, connection)` pair. Call once per connection, not
    /// per sample. Denials are permanent for the plane's lifetime and
    /// counted — the connection's samples still reach the cluster and
    /// overflow sketches.
    pub fn register(&mut self, endpoint: &str, conn: &str) -> ScopeKey {
        let ep = match self.endpoint_index.get(endpoint) {
            Some(&i) => i,
            None => {
                if self.endpoints.len() < self.cfg.max_endpoints && self.admit_one() {
                    let i = self.endpoints.len() as u32;
                    let series = ScopeSeries::new(&self.cfg, 0x0E00 + i as u64);
                    self.endpoints.push((endpoint.to_string(), series));
                    self.endpoint_index.insert(endpoint.to_string(), i);
                    i
                } else {
                    self.denied_endpoints += 1;
                    ScopeKey::OVERFLOW
                }
            }
        };
        let conn_slot = match self.conn_index.get(conn) {
            Some(&i) => i,
            None => {
                if self.admit_one() {
                    let i = self.conns.len() as u32;
                    let series = ScopeSeries::new(&self.cfg, 0xC000 + i as u64);
                    self.conns.push((conn.to_string(), series));
                    self.conn_index.insert(conn.to_string(), i);
                    i
                } else {
                    self.denied_conns += 1;
                    ScopeKey::OVERFLOW
                }
            }
        };
        ScopeKey {
            ep,
            conn: conn_slot,
        }
    }

    /// True if one more series fits under the byte cap, worst case.
    fn admit_one(&self) -> bool {
        self.worst_case_bytes() + self.cfg.series_footprint() <= self.cfg.byte_cap
    }

    /// Records one observation. One logarithm, three sketch inserts,
    /// three reservoir offers — no allocation once the series' windows
    /// are grown.
    #[inline]
    pub fn record(&mut self, key: ScopeKey, value: u64, at: Nanos, journey: u64, tag: XrayTag) {
        let ex = Exemplar {
            value,
            at,
            journey,
            tag,
        };
        self.records += 1;
        if value == 0 {
            self.cluster.record_keyed(0, ex);
            self.route(key, 0, ex);
            return;
        }
        let k = self.cluster.sketch.key_of(value);
        self.cluster.record_keyed(k, ex);
        self.route(key, k, ex);
    }

    #[inline]
    fn route(&mut self, key: ScopeKey, k: i32, ex: Exemplar) {
        if key.ep == ScopeKey::OVERFLOW {
            self.ep_overflow.record_keyed(k, ex);
        } else {
            self.endpoints[key.ep as usize].1.record_keyed(k, ex);
        }
        if key.conn == ScopeKey::OVERFLOW {
            self.overflow_records += 1;
            self.conn_overflow.record_keyed(k, ex);
        } else {
            self.conns[key.conn as usize].1.record_keyed(k, ex);
        }
    }

    /// The cluster-level roll-up series.
    pub fn cluster(&self) -> &ScopeSeries {
        &self.cluster
    }

    /// Dedicated endpoint series, in admission order.
    pub fn endpoints(&self) -> impl Iterator<Item = (&str, &ScopeSeries)> {
        self.endpoints.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Dedicated connection series, in admission order.
    pub fn conns(&self) -> impl Iterator<Item = (&str, &ScopeSeries)> {
        self.conns.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// A dedicated endpoint series by name.
    pub fn endpoint(&self, name: &str) -> Option<&ScopeSeries> {
        self.endpoint_index
            .get(name)
            .map(|&i| &self.endpoints[i as usize].1)
    }

    /// A dedicated connection series by name.
    pub fn conn(&self, name: &str) -> Option<&ScopeSeries> {
        self.conn_index
            .get(name)
            .map(|&i| &self.conns[i as usize].1)
    }

    /// The top `n` dedicated connections by the sketch value at
    /// quantile `q`, descending: the dashboard's "who hurts" view.
    pub fn top_conns(&self, q: f64, n: usize) -> Vec<(&str, u64, u64)> {
        let mut rows: Vec<(&str, u64, u64)> = self
            .conns
            .iter()
            .map(|(name, s)| (name.as_str(), s.sketch.quantile(q), s.sketch.count()))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// Observations recorded.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Observations that landed in the connection-overflow series.
    pub fn overflow_records(&self) -> u64 {
        self.overflow_records
    }

    /// Connection registrations denied a dedicated slot.
    pub fn denied_conns(&self) -> u64 {
        self.denied_conns
    }

    /// Dedicated connection slots granted.
    pub fn conn_slots(&self) -> usize {
        self.conns.len()
    }

    /// Actual footprint right now (capacity-accurate).
    pub fn mem_bytes(&self) -> usize {
        let fixed = std::mem::size_of::<ScopePlane>()
            + self.cluster.mem_bytes()
            + self.conn_overflow.mem_bytes()
            + self.ep_overflow.mem_bytes();
        let series: usize = self
            .endpoints
            .iter()
            .map(|(n, s)| n.capacity() + s.mem_bytes())
            .chain(self.conns.iter().map(|(n, s)| n.capacity() + s.mem_bytes()))
            .sum();
        // Index maps: name + pointer-sized slot per entry (BTreeMap
        // node overhead folded into the 64-byte series name slack).
        let index: usize = self
            .endpoint_index
            .keys()
            .chain(self.conn_index.keys())
            .map(|k| k.capacity() + 16)
            .sum();
        fixed + series + index
    }

    /// Worst-case footprint if every admitted series grows its full
    /// window — what admission is charged against.
    pub fn worst_case_bytes(&self) -> usize {
        std::mem::size_of::<ScopePlane>()
            + (3 + self.endpoints.len() + self.conns.len()) * self.cfg.series_footprint()
    }

    /// True while the actual footprint honors the byte cap. Admission
    /// charges against the worst case, so with a cap large enough for
    /// the three fixed series this holds by construction.
    pub fn within_budget(&self) -> bool {
        self.mem_bytes() <= self.cfg.byte_cap
    }

    /// Proves the roll-up: the cluster sketch must equal the merge of
    /// every dedicated connection sketch plus the connection-overflow
    /// sketch, and likewise for endpoints — same multiset, any merge
    /// order, `==` states. A `false` here means samples were lost or
    /// double-counted somewhere between the levels.
    pub fn rollup_reconciles(&self) -> bool {
        let mut by_conn = QuantileSketch::new(self.cfg.sketch_config());
        for (_, s) in &self.conns {
            by_conn.merge(&s.sketch);
        }
        by_conn.merge(&self.conn_overflow.sketch);
        let mut by_ep = QuantileSketch::new(self.cfg.sketch_config());
        for (_, s) in &self.endpoints {
            by_ep.merge(&s.sketch);
        }
        by_ep.merge(&self.ep_overflow.sketch);
        by_conn == self.cluster.sketch && by_ep == self.cluster.sketch
    }

    /// Exports the plane's own health counters into the metrics
    /// registry under `scope`.
    pub(crate) fn record_into(&self, snap: &mut MetricsSnapshot, scope: &str) {
        snap.record(scope, "records", self.records);
        snap.record(scope, "overflow_records", self.overflow_records);
        snap.record(scope, "denied_conn_slots", self.denied_conns);
        snap.record(scope, "denied_endpoint_slots", self.denied_endpoints);
        snap.record(scope, "conn_slots", self.conns.len() as u64);
        snap.record(scope, "endpoint_slots", self.endpoints.len() as u64);
        snap.record(scope, "mem_bytes", self.mem_bytes() as u64);
        snap.record(scope, "byte_cap", self.cfg.byte_cap as u64);
        snap.record(scope, "cluster_collapsed", self.cluster.sketch.collapsed());
        let (mut retained, mut evicted, mut sampled_out) = (0u64, 0u64, 0u64);
        let all = std::iter::once(&self.cluster)
            .chain(std::iter::once(&self.conn_overflow))
            .chain(std::iter::once(&self.ep_overflow))
            .chain(self.endpoints.iter().map(|(_, s)| s))
            .chain(self.conns.iter().map(|(_, s)| s));
        for s in all {
            retained += s.exemplars.len() as u64;
            evicted += s.exemplars.evicted();
            sampled_out += s.exemplars.sampled_out();
        }
        snap.record(scope, "exemplars_retained", retained);
        snap.record(scope, "exemplars_evicted", evicted);
        snap.record(scope, "exemplars_sampled_out", sampled_out);
    }

    /// Prometheus text exposition of the cluster and per-endpoint
    /// sketches as cumulative histograms with OpenMetrics-style
    /// exemplars (`# {journey="...",xray="..."} value ts`). Bucket
    /// lines are strided down to at most `max_le_lines` per series so
    /// the dump stays bounded no matter the window width.
    pub fn to_prometheus(&self, metric: &str, max_le_lines: usize) -> String {
        let name = prometheus_name(metric);
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.write_series(&mut out, &name, "cluster", &self.cluster, max_le_lines);
        for (ep, series) in &self.endpoints {
            self.write_series(&mut out, &name, ep, series, max_le_lines);
        }
        if !self.ep_overflow.sketch.is_empty() {
            self.write_series(&mut out, &name, "overflow", &self.ep_overflow, max_le_lines);
        }
        out
    }

    fn write_series(
        &self,
        out: &mut String,
        name: &str,
        scope: &str,
        series: &ScopeSeries,
        max_le_lines: usize,
    ) {
        let sketch = &series.sketch;
        let buckets = sketch.bucket_counts();
        let stride = buckets.len().div_ceil(max_le_lines.max(1)).max(1);
        let mut cum = 0u64;
        for (i, &(edge, n)) in buckets.iter().enumerate() {
            cum += n;
            let last = i + 1 == buckets.len();
            if i % stride != stride - 1 && !last {
                continue;
            }
            let _ = write!(
                out,
                "{name}_bucket{{scope=\"{scope}\",le=\"{edge}\"}} {cum}"
            );
            if let Some(ex) = series.exemplars.for_value(edge) {
                let _ = write!(
                    out,
                    " # {{journey=\"{}\",xray=\"{}\"}} {} {:.3}",
                    render_journey_id(ex.journey),
                    render_xray(ex.tag),
                    ex.value,
                    ex.at as f64 / 1e9,
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{scope=\"{scope}\",le=\"+Inf\"}} {}",
            sketch.count()
        );
        let _ = writeln!(out, "{name}_sum{{scope=\"{scope}\"}} {}", sketch.sum());
        let _ = writeln!(out, "{name}_count{{scope=\"{scope}\"}} {}", sketch.count());
    }
}

/// Renders an [`XrayTag`] as `kind:layer:a:b` hex (compact, stable).
fn render_xray(tag: XrayTag) -> String {
    let b = tag.to_bytes();
    format!("{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScopeConfig {
        ScopeConfig {
            max_buckets: 32,
            exemplar_bands: 2,
            exemplars_per_band: 1,
            max_endpoints: 2,
            byte_cap: 8 * 1024,
            ..ScopeConfig::default()
        }
    }

    #[test]
    fn cluster_is_the_merge_of_its_parts() {
        let mut plane = ScopePlane::new(tiny());
        let mut keys = Vec::new();
        for c in 0..6 {
            let ep = format!("ep{}", c % 2);
            keys.push(plane.register(&ep, &format!("conn{c}")));
        }
        for (i, key) in keys.iter().enumerate() {
            for s in 0..50u64 {
                plane.record(*key, (i as u64 + 1) * 100 + s, s, 0, XrayTag::none());
            }
        }
        assert_eq!(plane.records(), 300);
        assert_eq!(plane.cluster().sketch().count(), 300);
        assert!(plane.rollup_reconciles());
    }

    #[test]
    fn budget_denial_is_visible_and_lossless() {
        let mut cfg = tiny();
        // Room for the three fixed series and not much else.
        cfg.byte_cap = ScopePlane::new(cfg).worst_case_bytes() + cfg.series_footprint() * 2;
        let mut plane = ScopePlane::new(cfg);
        for c in 0..100 {
            let key = plane.register("ep0", &format!("conn{c}"));
            plane.record(key, 1_000 + c as u64, 0, 0, XrayTag::none());
        }
        assert!(plane.conn_slots() < 50, "the cap must deny most slots");
        assert_eq!(plane.denied_conns() + plane.conn_slots() as u64, 100);
        // Nothing was lost: every sample reached the cluster sketch.
        assert_eq!(plane.cluster().sketch().count(), 100);
        assert!(plane.rollup_reconciles());
        assert!(plane.within_budget());
        assert!(plane.mem_bytes() <= cfg.byte_cap);
    }

    #[test]
    fn top_conns_ranks_by_quantile() {
        let mut plane = ScopePlane::new(tiny());
        let slow = plane.register("ep0", "slowpoke");
        let fast = plane.register("ep0", "quick");
        for i in 0..100u64 {
            plane.record(slow, 50_000 + i, i, 0, XrayTag::none());
            plane.record(fast, 500 + i, i, 0, XrayTag::none());
        }
        let top = plane.top_conns(0.99, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "slowpoke");
        assert!(top[0].1 > 10_000);
    }

    #[test]
    fn prometheus_export_carries_exemplars() {
        let mut plane = ScopePlane::new(tiny());
        let key = plane.register("ep0", "conn0");
        for i in 0..200u64 {
            plane.record(key, 1_000 + i * 13, i, (3 << 32) | i, XrayTag::none());
        }
        let text = plane.to_prometheus("rtt", 8);
        assert!(text.contains("# TYPE pa_rtt histogram"), "{text}");
        assert!(text.contains("pa_rtt_bucket{scope=\"cluster\""), "{text}");
        assert!(text.contains("le=\"+Inf\"} 200"), "{text}");
        assert!(text.contains("# {journey=\"3:"), "missing exemplar: {text}");
        let le_lines = text
            .lines()
            .filter(|l| l.contains("scope=\"cluster\"") && l.contains("le="))
            .count();
        assert!(le_lines <= 9, "bucket lines must be strided: {le_lines}");
    }

    #[test]
    fn health_counters_reach_the_registry() {
        let mut plane = ScopePlane::new(tiny());
        let key = plane.register("ep0", "conn0");
        plane.record(key, 777, 0, 0, XrayTag::none());
        let mut snap = MetricsSnapshot::new(0);
        plane.record_into(&mut snap, "scope");
        assert_eq!(snap.get("scope", "records"), Some(1));
        assert_eq!(snap.get("scope", "conn_slots"), Some(1));
        assert!(snap.get("scope", "mem_bytes").unwrap() > 0);
    }
}
