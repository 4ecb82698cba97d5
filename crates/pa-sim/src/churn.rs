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
//! - each wave's [`Fleet`] (reject taxonomy, attribution, leaks, phase
//!   meters) and masking ledger merge into the run's, and one
//!   [`Watch::observe`] per wave boundary feeds the watchdog
//!   (progress/backlog/ledger/p99), keeps one flight-recorder point per
//!   wave for the ops dashboard and freezes a post-mortem on the first
//!   alert.
//!
//! Fault waves (octet corruption, or total blackhole) exercise the
//! reject taxonomy and the watchdog's stall detection under churn.

use crate::gc::GcPolicy;
use crate::multi::ClusterSim;
use crate::sim::SimConfig;
use crate::Nanos;
use pa_obs::{
    Fleet, FlightRecorder, MaskDomain, MaskingLedger, MetricsSnapshot, QuantileSketch, ScopeConfig,
    ScopePlane, Watch, WatchInput, Watchdog, WatchdogConfig,
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

/// One completed churn run: the global watch, the fleet every
/// connection that ever lived folded into, and the exact-sample oracle.
pub struct ChurnSim {
    cfg: ChurnConfig,
    /// The global roll-up plane (shard endpoints, per-connection
    /// series until the byte budget, overflow beyond), the
    /// wave-boundary watchdog, and a recorder with one sample per wave.
    pub watch: Watch,
    /// Every exact latency sample, in fold order (ground truth for
    /// rank-error bounds).
    pub oracle: Vec<u64>,
    /// Requests completed across all waves.
    pub completed: u64,
    /// Requests offered across all waves.
    pub expected: u64,
    /// Reject taxonomy, slow-path attribution, leaks and phase meters
    /// merged over every connection of every wave.
    pub fleet: Fleet,
    /// Masking attribution merged over every connection of every wave
    /// (virtual-time domain): on-path vs masked vs leaked work, plus
    /// the engine's per-op fast-path cost as on-path rows.
    pub masking: MaskingLedger,
    clock: Nanos,
    waves_run: usize,
    conn_seq: usize,
    merged: QuantileSketch,
}

impl ChurnSim {
    /// Builds an idle churn run (call [`ChurnSim::run`]).
    pub fn new(cfg: ChurnConfig) -> ChurnSim {
        ChurnSim {
            // Cadence / interval 1 ns: every wave boundary is a due
            // sample. One recorder point per wave, capacity for the
            // whole run.
            watch: Watch {
                plane: Some(ScopePlane::new(cfg.scope)),
                recorder: Some(FlightRecorder::with_limits(1, cfg.waves.max(16), 64)),
                watchdog: Some(Watchdog::new(WatchdogConfig {
                    cadence: 1,
                    ..cfg.watchdog
                })),
            },
            oracle: Vec::new(),
            completed: 0,
            expected: 0,
            fleet: Fleet::default(),
            masking: MaskingLedger::empty("churn", MaskDomain::Virtual),
            clock: 0,
            waves_run: 0,
            conn_seq: 0,
            merged: QuantileSketch::new(cfg.scope.sketch_config()),
            cfg,
        }
    }

    /// The global roll-up plane.
    pub fn plane(&self) -> &ScopePlane {
        self.watch.plane.as_ref().expect("attached in new")
    }

    /// The wave-boundary health watchdog.
    pub fn watchdog(&self) -> &Watchdog {
        self.watch.watchdog.as_ref().expect("attached in new")
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
        let plane = self.watch.plane.as_mut().expect("attached in new");
        for (k, client) in wave.clients().iter().enumerate() {
            let key = plane.register(
                &format!("shard{:02}", self.conn_seq % self.cfg.shards),
                &format!("w{w:03}c{k:04}"),
            );
            let tag = client.conns[0].last_deliver_explain();
            for &v in wave.rtt_by_node[k].values() {
                plane.record(key, v as u64, wave_end, 0, tag);
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

        // Both sides of every connection of the wave, clients first.
        self.fleet.merge(&wave.fleet());
        self.masking.merge(&wave.masking_ledger_all());
        self.clock = wave_end;
        self.waves_run += 1;

        // One watch step per wave boundary. Backlog is the wave's lost
        // (offered, never answered) requests — a blackhole wave
        // flatlines progress with backlog standing, a stall.
        let lost = wave_expected - wave.round_trips;
        let input = WatchInput {
            at: wave_end,
            progress: self.completed,
            backlog: lost,
            ledger_ok: wave.ledgers_ok(),
            p99_ns: self.watch.p99(),
            leak_permille: self.masking.leak_permille(),
        };
        let gauges = [
            ("wave_completed", wave.round_trips as f64),
            ("wave_lost", lost as f64),
            ("wave_rate_rps", wave.rate()),
        ];
        let mut snap = self.snapshot(wave_end);
        self.watch.observe(&mut snap, &gauges, input, &[]);
    }

    /// A unified snapshot of the churn telemetry at `at`: the global
    /// plane, run totals, the nonzero reject taxonomy, and the
    /// watchdog's health counters.
    pub fn snapshot(&self, at: Nanos) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(at);
        snap.record("churn", "waves", self.waves_run as u64);
        snap.record("churn", "conns", self.conn_seq as u64);
        snap.record("churn", "completed", self.completed);
        snap.record("churn", "expected", self.expected);
        snap.record("churn", "lost", self.expected - self.completed);
        snap.record("masking", "masked_permille", self.masking.masked_permille());
        snap.record("masking", "leak_permille", self.masking.leak_permille());
        snap.record("masking", "leaked_calls", self.fleet.leaks.total_calls());
        for (reason, n) in self.fleet.rejects.iter() {
            if n > 0 {
                snap.record("rejects", reason.label(), n);
            }
        }
        self.watch.record_into(&mut snap);
        snap
    }

    /// True while every wave's delivery ledgers reconciled (the
    /// watchdog latches the first break).
    pub fn ledger_ok(&self) -> bool {
        !self.watchdog().ledger_broken()
    }

    /// The merge cross-check: merging each wave's independently-built
    /// cluster sketch must equal the global plane's cluster sketch,
    /// which saw every sample one at a time. Canonical-form merge makes
    /// this exact `==`, not approximate agreement.
    pub fn merged_cluster_matches(&self) -> bool {
        self.merged == *self.plane().cluster().sketch()
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
        assert_eq!(churn.plane().records(), churn.oracle.len() as u64);
        assert_eq!(
            churn.plane().cluster().sketch().count(),
            churn.oracle.len() as u64
        );
        assert!(churn.plane().rollup_reconciles(), "roll-up reconciles");
        assert!(churn.within_everything(), "budget + merge + ledger");
        // The corrupt waves exercised the reject taxonomy, yet every
        // ledger still reconciled and the watchdog stayed calm (losses
        // were absorbed while progress kept advancing).
        assert!(churn.fleet.rejects.total() > 0, "corrupt waves must reject");
        assert!(churn.ledger_ok());
        assert!(!churn.watchdog().ledger_broken());
        assert_eq!(
            churn.watch.recorder.as_ref().unwrap().samples(),
            8,
            "one point per wave"
        );
    }

    impl ChurnSim {
        fn within_everything(&self) -> bool {
            self.plane().within_budget() && self.merged_cluster_matches() && self.ledger_ok()
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
        assert!(!churn.watchdog().healthy());
        assert!(
            churn
                .watchdog()
                .alerts()
                .iter()
                .any(|(_, a)| matches!(a, pa_obs::WatchAlert::Stall { .. })),
            "{:?}",
            churn.watchdog().alerts()
        );
        let pm = churn
            .watch
            .recorder
            .as_ref()
            .unwrap()
            .postmortem()
            .expect("alert froze the run");
        assert!(pm.reason.contains("watchdog"), "{}", pm.reason);
    }

    #[test]
    fn sketch_quantiles_track_the_oracle() {
        let mut churn = ChurnSim::new(ChurnConfig::small());
        churn.run();
        let alpha = churn.config().scope.alpha + 1e-6;
        for q in [0.5, 0.9, 0.99] {
            let got = churn.plane().cluster().sketch().quantile(q);
            let lo = churn.oracle_quantile((q - 0.01).max(0.0)) as f64 * (1.0 - alpha);
            let hi = churn.oracle_quantile((q + 0.01).min(1.0)) as f64 * (1.0 + alpha);
            assert!(
                (lo..=hi).contains(&(got as f64)),
                "q={q}: sketch {got} outside oracle band [{lo}, {hi}]"
            );
        }
    }
}
