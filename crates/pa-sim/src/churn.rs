//! High-cardinality churn scenario: waves of short-lived client
//! connections against a multi-CPU server, rolled up into one bounded
//! pa-scope telemetry plane.
//!
//! §6's "Maximum Load" analysis assumes a server with *many* PAs, one
//! per client. Real deployments add one more dimension: the client
//! population churns, so over a run the server sees far more distinct
//! connections than are ever alive at once. Exact per-connection
//! histograms would grow without bound; [`ChurnSim`] is the
//! demonstration that the mergeable-sketch plane does not:
//!
//! - each **wave** is a fresh [`ClusterSim`] (new connections, new
//!   cookies) driven to completion with its own live [`ScopePlane`];
//! - at wave end, the wave's exact per-client latencies are folded
//!   into the **global** plane (connection series admitted until the
//!   byte budget is hit, then counted into the overflow series —
//!   explicit degradation, never silent loss), and the wave plane's
//!   cluster sketch is *merged* into a running sketch — the canonical
//!   merge makes "merge of per-wave sketches" and "one sketch fed every
//!   sample" literally `==`, which [`ChurnSim::merged_cluster_matches`]
//!   checks across the whole run;
//! - every exact sample is also kept in [`ChurnSim::oracle`], so tests
//!   can bound the sketch's rank error against ground truth;
//! - a [`Watchdog`] samples progress/backlog/ledger/p99 at every wave
//!   boundary and freezes a [`FlightRecorder`] post-mortem on the
//!   first break, and the recorder keeps one time-series point per
//!   wave for the ops dashboard.
//!
//! Fault waves (octet corruption, or total blackhole) exercise the
//! reject taxonomy and the watchdog's stall detection under churn.

use crate::gc::GcPolicy;
use crate::multi::ClusterSim;
use crate::sim::SimConfig;
use crate::Nanos;
use pa_obs::{
    AttrEntry, FlightRecorder, LeakLedger, MaskDomain, MaskingLedger, MetricsSnapshot, Phase,
    QuantileSketch, RejectLedger, ScopeConfig, ScopePlane, WatchInput, Watchdog, WatchdogConfig,
    WorkClass,
};
use pa_unet::FaultConfig;

/// Configuration of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of connection waves.
    pub waves: usize,
    /// Client connections per wave (total connections = `waves` ×
    /// `clients_per_wave`).
    pub clients_per_wave: usize,
    /// Closed-loop requests per client.
    pub per_client: u64,
    /// Server CPUs (§6 partitioning: connection k runs on k mod cpus).
    pub n_cpus: usize,
    /// Endpoint shards in the global plane (connection series roll up
    /// per shard, shards roll up into the cluster).
    pub shards: usize,
    /// The global (and per-wave) scope-plane configuration.
    pub scope: ScopeConfig,
    /// The watchdog configuration (sampled once per wave boundary).
    pub watchdog: WatchdogConfig,
    /// Every `corrupt_every`-th wave runs with octet corruption
    /// (0 = never): exercises the reject taxonomy.
    pub corrupt_every: usize,
    /// Waves from this index on run against a total-blackhole network
    /// (`usize::MAX` = never): progress flatlines with requests
    /// outstanding, which the watchdog must call a stall.
    pub blackhole_from: usize,
    /// Fault-injection seed.
    pub seed: u64,
    /// Per-wave virtual-time horizon.
    pub wave_horizon: Nanos,
}

impl ChurnConfig {
    /// A small, fast churn: 8 waves × 32 clients (256 connections),
    /// one corrupt wave in four.
    pub fn small() -> ChurnConfig {
        ChurnConfig {
            waves: 8,
            clients_per_wave: 32,
            per_client: 4,
            n_cpus: 4,
            shards: 8,
            scope: ScopeConfig::default(),
            watchdog: WatchdogConfig::default(),
            corrupt_every: 4,
            blackhole_from: usize::MAX,
            seed: 0x0C0C,
            wave_horizon: 30_000_000_000,
        }
    }

    /// A churn sized to roughly `total_conns` distinct connections
    /// (waves of 250), for the high-cardinality acceptance runs.
    pub fn sized(total_conns: usize) -> ChurnConfig {
        let per_wave = 250.min(total_conns.max(1));
        ChurnConfig {
            waves: total_conns.div_ceil(per_wave),
            clients_per_wave: per_wave,
            per_client: 2,
            ..ChurnConfig::small()
        }
    }

    /// Total connections this config will create.
    pub fn total_conns(&self) -> usize {
        self.waves * self.clients_per_wave
    }
}

/// One completed churn run: the global telemetry plane, its watchdog
/// and flight recorder, and the exact-sample oracle.
pub struct ChurnSim {
    cfg: ChurnConfig,
    /// The global roll-up plane (shard endpoints, per-connection
    /// series until the byte budget, overflow beyond).
    pub plane: ScopePlane,
    /// The wave-boundary health watchdog.
    pub watchdog: Watchdog,
    /// One sample per wave; post-mortems on watchdog alerts.
    pub recorder: FlightRecorder,
    /// Every exact latency sample, in fold order (ground truth for
    /// rank-error bounds).
    pub oracle: Vec<u64>,
    /// Requests completed across all waves.
    pub completed: u64,
    /// Requests offered across all waves.
    pub expected: u64,
    /// Reject taxonomy merged over every connection of every wave.
    pub rejects: RejectLedger,
    /// Slow-path attribution merged over every connection: where the
    /// per-(layer, cause) overhead concentrated.
    pub holds: Vec<AttrEntry>,
    /// Masking attribution merged over every connection of every wave
    /// (virtual-time domain): on-path vs masked vs leaked work, plus
    /// the engine's per-op fast-path cost as on-path rows.
    pub masking: MaskingLedger,
    /// Critical-path leaks merged over every connection: which
    /// `(layer, phase, cause)` buckets a later delivery had to wait on.
    pub leaks: LeakLedger,
    clock: Nanos,
    waves_run: usize,
    conn_seq: usize,
    merged: QuantileSketch,
    ledger_ok: bool,
}

impl ChurnSim {
    /// Builds an idle churn run (call [`ChurnSim::run`]).
    pub fn new(cfg: ChurnConfig) -> ChurnSim {
        let plane = ScopePlane::new(cfg.scope);
        let merged = QuantileSketch::new(cfg.scope.sketch_config());
        ChurnSim {
            watchdog: Watchdog::new(cfg.watchdog),
            // Interval 1 ns: every wave boundary is a due sample. One
            // point per wave, capacity for the whole run.
            recorder: FlightRecorder::with_limits(1, cfg.waves.max(16), 64),
            plane,
            oracle: Vec::new(),
            completed: 0,
            expected: 0,
            rejects: RejectLedger::new(),
            holds: Vec::new(),
            masking: MaskingLedger::empty("churn", MaskDomain::Virtual),
            leaks: LeakLedger::default(),
            clock: 0,
            waves_run: 0,
            conn_seq: 0,
            merged,
            ledger_ok: true,
            cfg,
        }
    }

    /// The churn configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Waves completed so far.
    pub fn waves_run(&self) -> usize {
        self.waves_run
    }

    /// Accumulated virtual time across all waves.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Runs every wave.
    pub fn run(&mut self) {
        for w in 0..self.cfg.waves {
            self.run_wave(w);
        }
    }

    fn wave_faults(&self, w: usize) -> FaultConfig {
        let mut f = FaultConfig::none();
        if self.cfg.corrupt_every > 0 && (w + 1).is_multiple_of(self.cfg.corrupt_every) {
            f.corrupt = 0.05;
            f.seed = self.cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        if w >= self.cfg.blackhole_from {
            f.drop = 1.0;
            f.seed = self.cfg.seed ^ w as u64;
        }
        f
    }

    fn run_wave(&mut self, w: usize) {
        let mut sim_cfg = SimConfig::paper();
        sim_cfg.gc = [GcPolicy::EveryN(64); 2];
        sim_cfg.faults = self.wave_faults(w);
        let mut wave = ClusterSim::new(&sim_cfg, self.cfg.clients_per_wave, self.cfg.n_cpus);
        wave.attach_scope(self.cfg.scope);
        wave.run(self.cfg.per_client, self.cfg.wave_horizon);

        let wave_expected = self.cfg.per_client * self.cfg.clients_per_wave as u64;
        let wave_end = self.clock + wave.now().max(1);
        self.expected += wave_expected;
        self.completed += wave.round_trips;

        // Fold the wave's exact per-client latencies into the global
        // plane (and the oracle). Shards stripe round-robin over the
        // global connection sequence, so every shard sees every wave.
        for (k, client) in wave.clients().iter().enumerate() {
            let conn = &client.conns[0];
            let key = self.plane.register(
                &format!("shard{:02}", self.conn_seq % self.cfg.shards),
                &format!("w{w:03}c{k:04}"),
            );
            let tag = conn.last_deliver_explain();
            for &v in wave.rtt_by_node[k].values() {
                self.plane.record(key, v as u64, wave_end, 0, tag);
                self.oracle.push(v as u64);
            }
            self.conn_seq += 1;
        }
        // The merge cross-check: the wave plane recorded the same
        // samples live (inside `client_deliveries`); merging its
        // cluster sketch must land on the same canonical state as the
        // sample-by-sample global plane.
        self.merged
            .merge(wave.scope_plane().expect("attached").cluster().sketch());

        // Aggregate the wave's reject taxonomy, attribution, masking
        // ledger, and ledger health from both sides of every
        // connection. One cost model prices every conn's phase table
        // (same stack throughout the wave).
        let mut wave_ledger_ok = true;
        let cost = (sim_cfg.cost)(
            wave.clients()[0].conns[0]
                .layer_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        for conn in wave
            .clients()
            .iter()
            .map(|c| &c.conns[0])
            .chain(wave.server_conns().iter())
        {
            let stats = conn.stats();
            self.rejects.merge(&stats.rejects);
            wave_ledger_ok &= stats.delivery_balanced();
            for e in conn.attribution().entries() {
                match self
                    .holds
                    .iter_mut()
                    .find(|h| h.op == e.op && h.layer == e.layer && h.cause == e.cause)
                {
                    Some(h) => h.count += e.count,
                    None => self.holds.push(*e),
                }
            }
            let mut report = conn.xray_report();
            cost.price_report(&mut report);
            let mut ml = MaskingLedger::from_phases("churn", &report.phases, MaskDomain::Virtual);
            let sends = stats.fast_sends + stats.slow_sends;
            let delivers = stats.fast_deliveries + stats.slow_deliveries;
            ml.push_engine(
                "engine/send",
                Phase::PreSend,
                WorkClass::OnPath,
                sends,
                sends * cost.fast_send(),
            );
            ml.push_engine(
                "engine/deliver",
                Phase::PreDeliver,
                WorkClass::OnPath,
                delivers,
                delivers * cost.fast_deliver(),
            );
            self.masking.merge(&ml);
            self.leaks.merge(conn.leaks());
        }
        self.ledger_ok &= wave_ledger_ok;

        // Watchdog: one observation per wave boundary. Backlog is the
        // wave's lost (offered, never answered) requests — a blackhole
        // wave flatlines progress with backlog standing, a stall.
        let alerts = self.watchdog.observe(WatchInput {
            at: wave_end,
            progress: self.completed,
            backlog: wave_expected - wave.round_trips,
            ledger_ok: wave_ledger_ok,
            p99_ns: self.plane.cluster().sketch().p99(),
            leak_permille: self.masking.leak_permille(),
        });

        self.clock = wave_end;
        self.waves_run += 1;

        // Flight recorder: one point per wave, post-mortem on alerts.
        let snap = self.snapshot(wave_end);
        let gauges = [
            ("wave_completed", wave.round_trips as f64),
            ("wave_lost", (wave_expected - wave.round_trips) as f64),
            ("wave_rate_rps", wave.rate()),
        ];
        self.recorder.maybe_sample(&snap, &gauges);
        for a in &alerts {
            self.recorder
                .trigger_postmortem(wave_end, &format!("watchdog: {a}"), &snap);
        }
    }

    /// A unified snapshot of the churn telemetry at `at`: the global
    /// plane, run totals, the nonzero reject taxonomy, and the
    /// watchdog's health counters.
    pub fn snapshot(&self, at: Nanos) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(at);
        self.plane.record_into(&mut snap, "scope");
        snap.record("churn", "waves", self.waves_run as u64);
        snap.record("churn", "conns", self.conn_seq as u64);
        snap.record("churn", "completed", self.completed);
        snap.record("churn", "expected", self.expected);
        snap.record("churn", "lost", self.expected - self.completed);
        snap.record("masking", "masked_permille", self.masking.masked_permille());
        snap.record("masking", "leak_permille", self.masking.leak_permille());
        snap.record("masking", "leaked_calls", self.leaks.total_calls());
        for (reason, n) in self.rejects.iter() {
            if n > 0 {
                snap.record("rejects", reason.label(), n);
            }
        }
        snap.record("watchdog", "samples", self.watchdog.samples());
        snap.record("watchdog", "alerts_total", self.watchdog.alerts_total());
        snap.record(
            "watchdog",
            "ledger_broken",
            self.watchdog.ledger_broken() as u64,
        );
        snap
    }

    /// True while every wave's delivery ledgers reconciled.
    pub fn ledger_ok(&self) -> bool {
        self.ledger_ok
    }

    /// The merge cross-check: merging each wave's independently-built
    /// cluster sketch must equal the global plane's cluster sketch,
    /// which saw every sample one at a time. Canonical-form merge makes
    /// this exact `==`, not approximate agreement.
    pub fn merged_cluster_matches(&self) -> bool {
        self.merged == *self.plane.cluster().sketch()
    }

    /// Exact oracle quantile by sorted rank (ceil-rank convention,
    /// matching [`QuantileSketch::quantile`]).
    pub fn oracle_quantile(&self, q: f64) -> u64 {
        let mut sorted = self.oracle.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The fraction of oracle samples ≤ `v` (rank of a sketch answer
    /// in ground truth).
    pub fn oracle_rank(&self, v: u64) -> f64 {
        if self.oracle.is_empty() {
            return 0.0;
        }
        self.oracle.iter().filter(|&&x| x <= v).count() as f64 / self.oracle.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_churn_reconciles_and_stays_bounded() {
        let mut churn = ChurnSim::new(ChurnConfig::small());
        churn.run();
        assert_eq!(churn.waves_run(), 8);
        assert_eq!(churn.config().total_conns(), 256);
        assert!(churn.completed > 0);
        assert_eq!(churn.plane.records(), churn.oracle.len() as u64);
        assert_eq!(
            churn.plane.cluster().sketch().count(),
            churn.oracle.len() as u64
        );
        assert!(churn.plane.rollup_reconciles(), "roll-up reconciles");
        assert!(churn.within_everything(), "budget + merge + ledger");
        // The corrupt waves exercised the reject taxonomy, yet every
        // ledger still reconciled and the watchdog stayed calm (losses
        // were absorbed while progress kept advancing).
        assert!(churn.rejects.total() > 0, "corrupt waves must reject");
        assert!(churn.ledger_ok());
        assert!(!churn.watchdog.ledger_broken());
        assert_eq!(churn.recorder.samples(), 8, "one point per wave");
    }

    impl ChurnSim {
        fn within_everything(&self) -> bool {
            self.plane.within_budget() && self.merged_cluster_matches() && self.ledger_ok
        }
    }

    #[test]
    fn blackhole_waves_trip_the_stall_watchdog() {
        let mut cfg = ChurnConfig::small();
        cfg.corrupt_every = 0;
        cfg.blackhole_from = 3;
        let mut churn = ChurnSim::new(cfg);
        churn.run();
        assert!(churn.completed > 0, "healthy waves completed");
        assert!(!churn.watchdog.healthy());
        assert!(
            churn
                .watchdog
                .alerts()
                .iter()
                .any(|(_, a)| matches!(a, pa_obs::WatchAlert::Stall { .. })),
            "{:?}",
            churn.watchdog.alerts()
        );
        let pm = churn.recorder.postmortem().expect("alert froze the run");
        assert!(pm.reason.contains("watchdog"), "{}", pm.reason);
    }

    #[test]
    fn sketch_quantiles_track_the_oracle() {
        let mut churn = ChurnSim::new(ChurnConfig::small());
        churn.run();
        let alpha = churn.config().scope.alpha + 1e-6;
        for q in [0.5, 0.9, 0.99] {
            let got = churn.plane.cluster().sketch().quantile(q);
            let lo = churn.oracle_quantile((q - 0.01).max(0.0)) as f64 * (1.0 - alpha);
            let hi = churn.oracle_quantile((q + 0.01).min(1.0)) as f64 * (1.0 + alpha);
            assert!(
                (lo..=hi).contains(&(got as f64)),
                "q={q}: sketch {got} outside oracle band [{lo}, {hi}]"
            );
        }
    }
}
