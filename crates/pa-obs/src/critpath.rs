//! Critical-path masking analysis — measuring what the paper claims.
//!
//! The paper's thesis is that layered protocol work can be *masked*:
//! pre phases run on the delivery critical path, post phases and
//! prediction refresh run off it. This module turns that claim into a
//! first-class, conserved metric. Every measured unit of work — a
//! [`PhaseMeter`] call, its cycle time, or its virtual-time price — is
//! attributed to exactly one of three classes:
//!
//! - **on-path** — pre-send / pre-deliver work a delivery had to wait
//!   on by design (the slow path the PA tries to bypass);
//! - **masked** — post phases and tick work that ran off the critical
//!   path, exactly as §3.1 intends;
//! - **leaked** — post-class work that a later operation *did* wait
//!   on: a backlog/post drain paid for by the next arrival, eager
//!   (synchronous) post processing, or a receive-side filter re-fuse.
//!
//! Conservation is exact and checked: per (layer, phase),
//! `on-path + masked + leaked == total`, in calls and in nanoseconds,
//! because the classes are a partition of the meters by construction —
//! the [`MaskingLedger`] only *reads* meters, it never re-measures.
//!
//! The same module reconstructs per-message causal DAGs ([`CritDag`])
//! from journey hops, extracts the critical (longest) path, and
//! exports Chrome/Perfetto trace-event JSON ([`perfetto_trace`]) so
//! any run can be opened in a trace viewer.

use std::fmt;

use crate::event::Nanos;
use crate::snapshot::json_escape;
use crate::xray::{Phase, PhaseRow, XrayTotals};

// ---------------------------------------------------------------------------
// Work classes and leak causes
// ---------------------------------------------------------------------------

/// The three exhaustive classes of measured protocol work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// Pre-phase (critical-path-by-design) work.
    OnPath,
    /// Post/tick work that genuinely ran off the critical path.
    Masked,
    /// Post-class work a later operation had to wait on.
    Leaked,
}

impl WorkClass {
    /// Short stable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            WorkClass::OnPath => "on-path",
            WorkClass::Masked => "masked",
            WorkClass::Leaked => "leaked",
        }
    }
}

impl fmt::Display for WorkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why post-class work landed on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakCause {
    /// Pending receive posts were drained synchronously by the next
    /// arrival — under saturation the next delivery pays for the
    /// previous frame's post-deliver phases.
    ArrivalDrain,
    /// Eager mode (`lazy_post` off): post phases and backlog drains
    /// run inline inside send/deliver/tick instead of being deferred.
    EagerPost,
    /// The receive-side filter was re-fused after learning the peer's
    /// layer order, stalling the delivery that triggered it.
    RecvRefuse,
}

impl LeakCause {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            LeakCause::ArrivalDrain => "arrival-drain",
            LeakCause::EagerPost => "eager-post",
            LeakCause::RecvRefuse => "recv-refuse",
        }
    }
}

impl fmt::Display for LeakCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// The leak ledger
// ---------------------------------------------------------------------------

/// One `(layer, phase, cause)` leak bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEntry {
    /// The layer whose work leaked (`"pa"` for engine work like the
    /// receive re-fuse).
    pub layer: String,
    /// The phase that ran inside the leak scope.
    pub phase: Phase,
    /// Why it was on the critical path.
    pub cause: LeakCause,
    /// Leaked invocations.
    pub calls: u64,
    /// Measured wall-clock nanoseconds (0 without cycle metering).
    pub cycle_ns: u64,
}

/// The per-connection leak multiset: every phase invocation that ran
/// inside a critical-path leak scope, keyed `(layer, phase, cause)`.
/// Mergeable across connections for fleet-level aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakLedger {
    /// The buckets, in first-bump order.
    pub entries: Vec<LeakEntry>,
}

impl LeakLedger {
    /// The empty ledger, as a constant: no allocation until a bump.
    pub const EMPTY: LeakLedger = LeakLedger {
        entries: Vec::new(),
    };

    /// Charges `calls` invocations (and optionally measured time) to a
    /// `(layer, phase, cause)` bucket.
    pub fn bump(&mut self, layer: &str, phase: Phase, cause: LeakCause, calls: u64, cycle_ns: u64) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.layer == layer && e.phase == phase && e.cause == cause)
        {
            e.calls += calls;
            e.cycle_ns += cycle_ns;
        } else {
            self.entries.push(LeakEntry {
                layer: layer.to_string(),
                phase,
                cause,
                calls,
                cycle_ns,
            });
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &LeakLedger) {
        for e in &other.entries {
            self.bump(&e.layer, e.phase, e.cause, e.calls, e.cycle_ns);
        }
    }

    /// Total leaked invocations.
    pub fn total_calls(&self) -> u64 {
        self.entries.iter().map(|e| e.calls).sum()
    }

    /// Total leaked measured nanoseconds.
    pub fn total_cycle_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.cycle_ns).sum()
    }

    /// True if nothing ever leaked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buckets sorted worst-first: by measured time, then calls, then
    /// first-bump order (stable, so ties are deterministic).
    pub(crate) fn sorted(&self) -> Vec<LeakEntry> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| std::cmp::Reverse((e.cycle_ns, e.calls)));
        v
    }

    /// The worst bucket, if any leaked.
    pub fn top(&self) -> Option<LeakEntry> {
        self.sorted().into_iter().next()
    }
}

// ---------------------------------------------------------------------------
// The masking ledger
// ---------------------------------------------------------------------------

/// One `(layer, phase)` row of the masking ledger, with its work split
/// across the three classes. `on_path + masked + leaked` equals the
/// source meter's totals exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskRow {
    /// Layer name (`"pa"` for engine rows).
    pub layer: String,
    /// The phase (engine rows use the pre phase of their direction).
    pub phase: Phase,
    /// True for engine rows added by the host (fast-path op cost,
    /// re-fuse). Engine rows are *outside* the [`PhaseMeter`]
    /// conservation check — the meters never saw them.
    pub engine: bool,
    /// On-path invocations / nanoseconds.
    pub on_path_calls: u64,
    /// On-path nanoseconds.
    pub on_path_ns: u64,
    /// Masked invocations.
    pub masked_calls: u64,
    /// Masked nanoseconds.
    pub masked_ns: u64,
    /// Leaked invocations.
    pub leaked_calls: u64,
    /// Leaked nanoseconds.
    pub leaked_ns: u64,
}

impl MaskRow {
    fn total_ns(&self) -> u64 {
        self.on_path_ns + self.masked_ns + self.leaked_ns
    }

    fn total_calls(&self) -> u64 {
        self.on_path_calls + self.masked_calls + self.leaked_calls
    }
}

/// Which duration column of a [`PhaseRow`] a ledger reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskDomain {
    /// Virtual-time pricing (`virt_ns`) — deterministic, what the sims
    /// and benches gate on.
    Virtual,
    /// Measured wall-clock time (`cycle_ns`) — what a live host with
    /// cycle metering reports.
    Cycles,
}

impl MaskDomain {
    /// Short stable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MaskDomain::Virtual => "virtual",
            MaskDomain::Cycles => "cycles",
        }
    }
}

/// The aggregate on-path/masked/leaked attribution for one scope,
/// derived from priced or cycle-metered [`PhaseRow`]s plus any engine
/// rows the host adds. The headline number is [`masking_ratio`]
/// (MaskingLedger::masking_ratio): masked work over total work.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskingLedger {
    /// Scope label (host / connection / cluster).
    pub scope: String,
    /// Which duration column the rows were built from.
    pub domain: MaskDomain,
    /// Per-(layer, phase) rows, meter rows first, engine rows after.
    pub rows: Vec<MaskRow>,
}

impl MaskingLedger {
    /// An empty ledger for incremental merging.
    pub fn empty(scope: &str, domain: MaskDomain) -> MaskingLedger {
        MaskingLedger {
            scope: scope.to_string(),
            domain,
            rows: Vec::new(),
        }
    }

    /// Builds the ledger from phase rows: pre phases are on-path, post
    /// and tick phases are masked, and each phase's leaked sub-counts
    /// are moved to the leaked class. The split partitions the meters,
    /// so conservation holds by construction.
    pub fn from_phases(scope: &str, phases: &[PhaseRow], domain: MaskDomain) -> MaskingLedger {
        let mut ledger = MaskingLedger::empty(scope, domain);
        for row in phases {
            for phase in Phase::ALL {
                let i = phase as usize;
                if row.calls[i] == 0 {
                    continue;
                }
                let ns = match domain {
                    MaskDomain::Virtual => row.virt_ns[i],
                    MaskDomain::Cycles => row.cycle_ns[i],
                };
                let leaked_ns = match domain {
                    MaskDomain::Virtual => row.leaked_virt_ns[i],
                    MaskDomain::Cycles => row.leaked_cycle_ns[i],
                };
                let leaked_calls = row.leaked_calls[i];
                let clean_calls = row.calls[i] - leaked_calls;
                let clean_ns = ns - leaked_ns;
                let mut mask = MaskRow {
                    layer: row.layer.clone(),
                    phase,
                    engine: false,
                    on_path_calls: 0,
                    on_path_ns: 0,
                    masked_calls: 0,
                    masked_ns: 0,
                    leaked_calls,
                    leaked_ns,
                };
                match phase {
                    Phase::PreSend | Phase::PreDeliver => {
                        mask.on_path_calls = clean_calls;
                        mask.on_path_ns = clean_ns;
                    }
                    Phase::PostSend | Phase::PostDeliver | Phase::Tick => {
                        mask.masked_calls = clean_calls;
                        mask.masked_ns = clean_ns;
                    }
                }
                ledger.push(mask);
            }
        }
        ledger
    }

    /// [`from_phases`](MaskingLedger::from_phases) over a fleet's priced
    /// rows plus the engine rows (marked so conservation skips them):
    /// every send and delivery in `totals` pays the engine's fast-path
    /// cost on-path — `send_ns` / `deliver_ns` each — and the
    /// engine-level leaks in `leaks` (`"pa"` rows: receive re-fuses,
    /// which have no virtual price) surface as leaked calls.
    pub fn with_engine(
        scope: &str,
        phases: &[PhaseRow],
        domain: MaskDomain,
        totals: &XrayTotals,
        (send_ns, deliver_ns): (u64, u64),
        leaks: &LeakLedger,
    ) -> MaskingLedger {
        let mut ledger = MaskingLedger::from_phases(scope, phases, domain);
        let sent = totals.fast_sends + totals.slow_sends;
        let got = totals.fast_deliveries + totals.slow_deliveries;
        let (on_path, recv) = (WorkClass::OnPath, Phase::PreDeliver);
        ledger.push_engine("engine/send", Phase::PreSend, on_path, sent, sent * send_ns);
        ledger.push_engine("engine/deliver", recv, on_path, got, got * deliver_ns);
        for e in leaks.entries.iter().filter(|e| e.layer == "pa") {
            ledger.push_engine("engine/refuse", e.phase, WorkClass::Leaked, e.calls, 0);
        }
        ledger
    }

    /// Adds an engine row (work the [`PhaseMeter`]s never saw: the
    /// fast-path op cost, a receive re-fuse). `phase` carries the
    /// direction; engine rows are excluded from [`conserves`]
    /// (MaskingLedger::conserves).
    pub(crate) fn push_engine(
        &mut self,
        label: &str,
        phase: Phase,
        class: WorkClass,
        calls: u64,
        ns: u64,
    ) {
        let mut row = MaskRow {
            layer: label.to_string(),
            phase,
            engine: true,
            on_path_calls: 0,
            on_path_ns: 0,
            masked_calls: 0,
            masked_ns: 0,
            leaked_calls: 0,
            leaked_ns: 0,
        };
        match class {
            WorkClass::OnPath => {
                row.on_path_calls = calls;
                row.on_path_ns = ns;
            }
            WorkClass::Masked => {
                row.masked_calls = calls;
                row.masked_ns = ns;
            }
            WorkClass::Leaked => {
                row.leaked_calls = calls;
                row.leaked_ns = ns;
            }
        }
        self.push(row);
    }

    fn push(&mut self, row: MaskRow) {
        if let Some(e) = self
            .rows
            .iter_mut()
            .find(|r| r.layer == row.layer && r.phase == row.phase && r.engine == row.engine)
        {
            e.on_path_calls += row.on_path_calls;
            e.on_path_ns += row.on_path_ns;
            e.masked_calls += row.masked_calls;
            e.masked_ns += row.masked_ns;
            e.leaked_calls += row.leaked_calls;
            e.leaked_ns += row.leaked_ns;
        } else {
            self.rows.push(row);
        }
    }

    /// Folds another ledger (same domain) into this one.
    pub fn merge(&mut self, other: &MaskingLedger) {
        debug_assert_eq!(self.domain, other.domain);
        for row in &other.rows {
            self.push(row.clone());
        }
    }

    /// Total on-path nanoseconds.
    pub fn on_path_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.on_path_ns).sum()
    }

    /// Total masked nanoseconds.
    pub fn masked_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.masked_ns).sum()
    }

    /// Total leaked nanoseconds.
    pub fn leaked_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.leaked_ns).sum()
    }

    /// Total nanoseconds across all classes.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.total_ns()).sum()
    }

    /// The headline metric: masked work / total work, in [0, 1].
    /// 0 when nothing was measured.
    pub fn masking_ratio(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.masked_ns() as f64 / total as f64
    }

    /// Leaked work / total work, in [0, 1].
    pub fn leaked_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.leaked_ns() as f64 / total as f64
    }

    /// [`masking_ratio`] (MaskingLedger::masking_ratio) in permille —
    /// the integer form the scope plane and watchdog consume.
    pub fn masked_permille(&self) -> u64 {
        (self.masking_ratio() * 1000.0).round() as u64
    }

    /// [`leaked_share`] (MaskingLedger::leaked_share) in permille.
    pub fn leak_permille(&self) -> u64 {
        (self.leaked_share() * 1000.0).round() as u64
    }

    /// The exact conservation check against the source meters: summed
    /// over the non-engine rows, `on-path + masked + leaked` must
    /// equal the phase table's totals — in calls *and* nanoseconds,
    /// with `==`, not a tolerance.
    pub fn conserves(&self, phases: &[PhaseRow]) -> bool {
        let (mut ns, mut calls) = (0u64, 0u64);
        for r in self.rows.iter().filter(|r| !r.engine) {
            ns += r.total_ns();
            calls += r.total_calls();
        }
        let (mut want_ns, mut want_calls) = (0u64, 0u64);
        for row in phases {
            for i in 0..5 {
                want_calls += row.calls[i];
                want_ns += match self.domain {
                    MaskDomain::Virtual => row.virt_ns[i],
                    MaskDomain::Cycles => row.cycle_ns[i],
                };
            }
        }
        ns == want_ns && calls == want_calls
    }

    /// Rows with leaked work, worst-first `(layer, phase, ns, calls)`.
    pub fn top_leaked(&self) -> Vec<(String, Phase, u64, u64)> {
        let mut v: Vec<_> = self
            .rows
            .iter()
            .filter(|r| r.leaked_calls > 0 || r.leaked_ns > 0)
            .map(|r| (r.layer.clone(), r.phase, r.leaked_ns, r.leaked_calls))
            .collect();
        v.sort_by_key(|(_, _, ns, calls)| std::cmp::Reverse((*ns, *calls)));
        v
    }

    /// Renders the ledger as a text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "masking ledger — {} ({} ns)\n",
            self.scope,
            self.domain.label()
        ));
        s.push_str(&format!(
            "  {:<12} {:<12} {:>14} {:>14} {:>14}\n",
            "layer", "phase", "on-path ns", "masked ns", "leaked ns"
        ));
        for r in &self.rows {
            if r.total_calls() == 0 && r.total_ns() == 0 {
                continue;
            }
            s.push_str(&format!(
                "  {:<12} {:<12} {:>14} {:>14} {:>14}\n",
                if r.engine {
                    format!("({})", r.layer)
                } else {
                    r.layer.clone()
                },
                r.phase.label(),
                r.on_path_ns,
                r.masked_ns,
                r.leaked_ns
            ));
        }
        s.push_str(&format!(
            "  total: on-path {} ns, masked {} ns, leaked {} ns — masking ratio {:.3}, leaked share {:.3}\n",
            self.on_path_ns(),
            self.masked_ns(),
            self.leaked_ns(),
            self.masking_ratio(),
            self.leaked_share()
        ));
        s
    }
}

// ---------------------------------------------------------------------------
// The causal DAG
// ---------------------------------------------------------------------------

/// One unit of work in a per-message causal DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritNode {
    /// Human label (`"send-pre@node0"`, `"post-send/checksum"`).
    pub label: String,
    /// Host index — the Perfetto process lane.
    pub host: u32,
    /// 0 = critical lane, 1 = deferred lane — the Perfetto thread.
    pub lane: u32,
    /// The work's class.
    pub class: WorkClass,
    /// Start, in virtual nanoseconds.
    pub start: Nanos,
    /// Duration, in nanoseconds.
    pub dur: Nanos,
}

/// A per-message causal DAG: nodes of work joined by happens-before
/// edges. On-path nodes chain send → wire → deliver (per hop); post
/// phases hang off their trigger as off-path successors; leak nodes
/// sit on the delivery chain itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritDag {
    /// The work nodes.
    pub nodes: Vec<CritNode>,
    edges: Vec<(usize, usize)>,
}

impl CritDag {
    /// An empty DAG.
    pub fn new() -> CritDag {
        CritDag::default()
    }

    /// Adds a node; returns its index.
    pub fn node(&mut self, n: CritNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Adds a happens-before edge `from → to`.
    pub fn edge(&mut self, from: usize, to: usize) {
        self.edges.push((from, to));
    }

    /// The happens-before edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    fn indegrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for &(_, to) in &self.edges {
            deg[to] += 1;
        }
        deg
    }

    /// Kahn's algorithm; `None` if the graph has a cycle.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let mut deg = self.indegrees();
        // Process ready nodes in index order so the traversal (and
        // every tie-break downstream) is deterministic.
        let mut ready: Vec<usize> = (0..self.nodes.len()).filter(|&i| deg[i] == 0).collect();
        ready.sort_unstable_by_key(|&i| std::cmp::Reverse(i));
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            for &(from, to) in &self.edges {
                if from == n {
                    deg[to] -= 1;
                    if deg[to] == 0 {
                        // Keep the ready stack sorted (descending) so
                        // the smallest index pops next.
                        let pos = ready
                            .binary_search_by_key(&std::cmp::Reverse(to), |&i| std::cmp::Reverse(i))
                            .unwrap_or_else(|p| p);
                        ready.insert(pos, to);
                    }
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// True if the happens-before relation has no cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// The critical path: the heaviest chain of happens-before work,
    /// as node indices in causal order. Deterministic — ties prefer
    /// the lower node index. Empty if the graph is cyclic.
    pub fn critical_path(&self) -> Vec<usize> {
        let Some(order) = self.topo_order() else {
            return Vec::new();
        };
        let n = self.nodes.len();
        if n == 0 {
            return Vec::new();
        }
        let mut best: Vec<u64> = (0..n).map(|i| self.nodes[i].dur).collect();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for &v in &order {
            for &(from, to) in &self.edges {
                if to == v {
                    let cand = best[from] + self.nodes[v].dur;
                    let better =
                        cand > best[v] || (cand == best[v] && pred[v].is_some_and(|p| from < p));
                    if better {
                        best[v] = cand;
                        pred[v] = Some(from);
                    }
                }
            }
        }
        let mut end = 0usize;
        for i in 1..n {
            if best[i] > best[end] {
                end = i;
            }
        }
        let mut path = vec![end];
        while let Some(p) = pred[*path.last().unwrap()] {
            path.push(p);
        }
        path.reverse();
        path
    }

    /// Total work on the critical path, in nanoseconds.
    pub fn critical_path_ns(&self) -> Nanos {
        self.critical_path()
            .iter()
            .map(|&i| self.nodes[i].dur)
            .sum()
    }

    /// Summed duration of nodes in `class`.
    pub fn class_ns(&self, class: WorkClass) -> Nanos {
        self.nodes
            .iter()
            .filter(|n| n.class == class)
            .map(|n| n.dur)
            .sum()
    }

    /// Leaked nodes that sit on the critical path — the smoking gun a
    /// leak report points at.
    pub fn leaks_on_path(&self) -> Vec<usize> {
        self.critical_path()
            .into_iter()
            .filter(|&i| self.nodes[i].class == WorkClass::Leaked)
            .collect()
    }

    /// Renders the DAG and its critical path as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let path = self.critical_path();
        s.push_str(&format!(
            "causal dag: {} nodes, {} edges, critical path {} ns\n",
            self.nodes.len(),
            self.edges.len(),
            self.critical_path_ns()
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            let mark = if path.contains(&i) { "*" } else { " " };
            s.push_str(&format!(
                " {mark} [{i:>2}] {:<28} {:<8} host{} lane{}  t={:<10} dur={}\n",
                n.label,
                n.class.label(),
                n.host,
                n.lane,
                n.start,
                n.dur
            ));
        }
        s.push_str("  critical path: ");
        s.push_str(
            &path
                .iter()
                .map(|&i| self.nodes[i].label.clone())
                .collect::<Vec<_>>()
                .join(" -> "),
        );
        s.push('\n');
        s
    }
}

// ---------------------------------------------------------------------------
// Perfetto / Chrome trace-event export
// ---------------------------------------------------------------------------

/// Exports DAGs as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` open directly). Each node becomes a complete
/// (`"ph":"X"`) slice on its host's process track — lane 0 is the
/// critical lane, lane 1 the deferred lane — and each happens-before
/// edge becomes a flow arrow (`"ph":"s"`/`"f"`). Timestamps are
/// microseconds with nanosecond precision, per the spec.
pub fn perfetto_trace(dags: &[CritDag]) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut hosts: Vec<u32> = Vec::new();
    let mut extra_lanes: Vec<(u32, u32)> = Vec::new();
    let mut flow_id = 0u64;
    for dag in dags {
        for n in &dag.nodes {
            if !hosts.contains(&n.host) {
                hosts.push(n.host);
            }
            if n.lane >= 2 && !extra_lanes.contains(&(n.host, n.lane)) {
                extra_lanes.push((n.host, n.lane));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"class\":\"{}\"}}}}",
                json_escape(&n.label),
                n.class.label(),
                n.start as f64 / 1000.0,
                (n.dur.max(1)) as f64 / 1000.0,
                n.host,
                n.lane,
                n.class.label()
            ));
        }
        for &(from, to) in dag.edges() {
            let (a, b) = (&dag.nodes[from], &dag.nodes[to]);
            events.push(format!(
                "{{\"name\":\"hb\",\"cat\":\"edge\",\"ph\":\"s\",\"id\":{},\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
                flow_id,
                (a.start + a.dur) as f64 / 1000.0,
                a.host,
                a.lane
            ));
            events.push(format!(
                "{{\"name\":\"hb\",\"cat\":\"edge\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
                flow_id,
                b.start as f64 / 1000.0,
                b.host,
                b.lane
            ));
            flow_id += 1;
        }
    }
    hosts.sort_unstable();
    for h in hosts {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{h},\"args\":{{\"name\":\"node{h}\"}}}}"
        ));
        for (tid, lane) in [(0, "critical path"), (1, "deferred (masked)")] {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{h},\"tid\":{tid},\"args\":{{\"name\":\"{lane}\"}}}}"
            ));
        }
    }
    // Lanes ≥ 2 are real OS threads (the post-drain worker and future
    // pa-shard cores) — name each one its own track.
    extra_lanes.sort_unstable();
    for (h, tid) in extra_lanes {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{h},\"tid\":{tid},\"args\":{{\"name\":\"drain thread {}\"}}}}",
            tid - 1
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Structural well-formedness check for an exported trace: balanced
/// JSON (quotes, escapes, braces, brackets), a top-level object, and a
/// `traceEvents` array. Returns the event count. Hand-rolled — the
/// workspace has no JSON dependency, by design.
pub fn validate_trace_json(s: &str) -> Result<usize, String> {
    let trimmed = s.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("not a top-level JSON object".into());
    }
    let mut stack: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut events = 0usize;
    let mut prev: [char; 4] = [' '; 4];
    for c in trimmed.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => stack.push(c),
                '}' if stack.pop() != Some('{') => return Err("unbalanced '}'".into()),
                ']' if stack.pop() != Some('[') => return Err("unbalanced ']'".into()),
                '}' | ']' => {}
                _ => {}
            }
        }
        // Count `"ph"` keys outside any value ambiguity: the exporter
        // always writes them as a 4-char sequence `"ph"`.
        if prev == ['"', 'p', 'h', '"'] && c == ':' {
            events += 1;
        }
        prev = [prev[1], prev[2], prev[3], c];
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed brackets", stack.len()));
    }
    if !trimmed.contains("\"traceEvents\"") {
        return Err("missing traceEvents array".into());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(label: &str, class: WorkClass, start: Nanos, dur: Nanos) -> CritNode {
        CritNode {
            label: label.into(),
            host: 0,
            lane: if class == WorkClass::Masked { 1 } else { 0 },
            class,
            start,
            dur,
        }
    }

    fn sample_dag() -> CritDag {
        let mut d = CritDag::new();
        let send = d.node(n("send", WorkClass::OnPath, 0, 25));
        let wire = d.node(n("wire", WorkClass::OnPath, 25, 30));
        let deliver = d.node(n("deliver", WorkClass::OnPath, 55, 25));
        let post_s = d.node(n("post-send", WorkClass::Masked, 25, 80));
        let post_d = d.node(n("post-deliver", WorkClass::Masked, 80, 50));
        d.edge(send, wire);
        d.edge(wire, deliver);
        d.edge(send, post_s);
        d.edge(deliver, post_d);
        d
    }

    #[test]
    fn dag_is_acyclic_and_path_is_the_heavy_chain() {
        let d = sample_dag();
        assert!(d.is_acyclic());
        // deliver → post-deliver outweighs the pure on-path chain:
        // 25+30+25+50 = 130 vs 25+80 = 105.
        let path = d.critical_path();
        let labels: Vec<&str> = path.iter().map(|&i| d.nodes[i].label.as_str()).collect();
        assert_eq!(labels, ["send", "wire", "deliver", "post-deliver"]);
        assert_eq!(d.critical_path_ns(), 130);
    }

    #[test]
    fn cycles_are_detected() {
        let mut d = sample_dag();
        d.edge(2, 0); // deliver → send: a cycle
        assert!(!d.is_acyclic());
        assert!(d.critical_path().is_empty());
    }

    #[test]
    fn leaks_on_path_are_reported() {
        let mut d = CritDag::new();
        let a = d.node(n("deliver#0", WorkClass::OnPath, 0, 25));
        let leak = d.node(n("drain", WorkClass::Leaked, 25, 130));
        let b = d.node(n("deliver#1", WorkClass::OnPath, 155, 25));
        d.edge(a, leak);
        d.edge(leak, b);
        assert_eq!(d.leaks_on_path(), vec![leak]);
    }

    #[test]
    fn critical_path_is_deterministic_on_ties() {
        // Two equal-weight parallel branches: the lower index wins.
        let mut d = CritDag::new();
        let s = d.node(n("s", WorkClass::OnPath, 0, 10));
        let a = d.node(n("a", WorkClass::OnPath, 10, 20));
        let b = d.node(n("b", WorkClass::OnPath, 10, 20));
        let t = d.node(n("t", WorkClass::OnPath, 30, 10));
        d.edge(s, a);
        d.edge(s, b);
        d.edge(a, t);
        d.edge(b, t);
        assert_eq!(d.critical_path(), vec![s, a, t]);
    }

    #[test]
    fn leak_ledger_merges_and_ranks() {
        let mut a = LeakLedger::default();
        a.bump(
            "window",
            Phase::PostDeliver,
            LeakCause::ArrivalDrain,
            3,
            300,
        );
        a.bump("checksum", Phase::PostSend, LeakCause::EagerPost, 1, 900);
        let mut b = LeakLedger::default();
        b.bump(
            "window",
            Phase::PostDeliver,
            LeakCause::ArrivalDrain,
            2,
            100,
        );
        a.merge(&b);
        assert_eq!(a.total_calls(), 6);
        assert_eq!(a.total_cycle_ns(), 1300);
        let top = a.top().unwrap();
        assert_eq!(
            (top.layer.as_str(), top.cause),
            ("checksum", LeakCause::EagerPost)
        );
    }

    fn priced_row(layer: &str, calls: [u64; 5], ns_per_call: u64) -> PhaseRow {
        let mut r = PhaseRow {
            layer: layer.into(),
            calls,
            ..Default::default()
        };
        for (i, c) in calls.iter().enumerate() {
            r.virt_ns[i] = c * ns_per_call;
        }
        r
    }

    #[test]
    fn masking_ledger_conserves_exactly() {
        let mut row = priced_row("window", [2, 10, 1, 10, 4], 1000);
        // 3 of the post-deliver calls leaked.
        row.leaked_calls[Phase::PostDeliver as usize] = 3;
        row.leaked_virt_ns[Phase::PostDeliver as usize] = 3000;
        let rows = vec![row];
        let ledger = MaskingLedger::from_phases("t", &rows, MaskDomain::Virtual);
        assert!(ledger.conserves(&rows));
        assert_eq!(ledger.on_path_ns(), 3000); // 2 pre-send + 1 pre-deliver
        assert_eq!(ledger.leaked_ns(), 3000);
        assert_eq!(ledger.masked_ns(), 21_000); // 10 + 7 + 4 ticks
        assert_eq!(ledger.total_ns(), 27_000);
        let top = ledger.top_leaked();
        assert_eq!(top[0].0, "window");
        assert_eq!(top[0].1, Phase::PostDeliver);
    }

    #[test]
    fn engine_rows_shift_the_ratio_but_not_conservation() {
        let rows = vec![priced_row("window", [0, 4, 0, 4, 0], 1000)];
        let mut ledger = MaskingLedger::from_phases("t", &rows, MaskDomain::Virtual);
        assert_eq!(ledger.masking_ratio(), 1.0);
        ledger.push_engine("pa/send", Phase::PreSend, WorkClass::OnPath, 4, 8000);
        assert!(
            ledger.conserves(&rows),
            "engine rows are outside the meter check"
        );
        assert!((ledger.masking_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ledger_merge_is_additive() {
        let rows = vec![priced_row("frag", [1, 2, 1, 2, 0], 500)];
        let a = MaskingLedger::from_phases("a", &rows, MaskDomain::Virtual);
        let mut m = MaskingLedger::empty("sum", MaskDomain::Virtual);
        m.merge(&a);
        m.merge(&a);
        assert_eq!(m.total_ns(), 2 * a.total_ns());
        assert_eq!(m.rows.len(), a.rows.len());
    }

    #[test]
    fn perfetto_export_validates() {
        let d = sample_dag();
        let json = perfetto_trace(&[d]);
        let events = validate_trace_json(&json).expect("well-formed");
        // 5 slices + 4*2 flow halves + 1 process + 2 thread metadata.
        assert_eq!(events, 16);
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    }

    #[test]
    fn perfetto_names_drain_thread_lanes() {
        let mut d = CritDag::new();
        d.node(CritNode {
            label: "send-pre".into(),
            host: 0,
            lane: 0,
            class: WorkClass::OnPath,
            start: 0,
            dur: 10,
        });
        d.node(CritNode {
            label: "post-send/checksum".into(),
            host: 0,
            lane: 2,
            class: WorkClass::Masked,
            start: 20,
            dur: 10,
        });
        let json = perfetto_trace(&[d]);
        validate_trace_json(&json).expect("well-formed");
        assert!(
            json.contains("\"tid\":2,\"args\":{\"name\":\"drain thread 1\"}"),
            "{json}"
        );
        // The two fixed lanes keep their names.
        assert!(json.contains("\"name\":\"critical path\""), "{json}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_trace_json("not json").is_err());
        assert!(validate_trace_json("{\"traceEvents\":[}").is_err());
        assert!(validate_trace_json("{\"x\":[]}").is_err(), "no traceEvents");
        assert!(validate_trace_json("{\"traceEvents\":[\"unterminated]}").is_err());
    }
}
