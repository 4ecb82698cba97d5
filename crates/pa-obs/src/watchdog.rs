//! The roll-up health watchdog.
//!
//! Aggregate telemetry is only useful if something *looks at it* — a
//! 10k-connection run produces no human-readable log to eyeball. The
//! [`Watchdog`] samples the cluster roll-up on a virtual-time cadence
//! and turns three silent failure shapes into explicit
//! [`WatchAlert`]s:
//!
//! - **stall** — total frame progress flat across `stall_windows`
//!   consecutive samples while connections still hold backlog;
//! - **ledger break** — the conservation invariant (`frames_in ==
//!   deliveries + drops`, as computed by the host) fails: samples were
//!   created or destroyed, the one unforgivable telemetry bug;
//! - **SLO burn** — the cluster sketch's p99 exceeds the configured
//!   objective for `burn_windows` consecutive samples.
//!
//! The watchdog is pure: it consumes a [`WatchInput`] the host
//! assembles and returns alerts; the host (pa-sim, the ops dashboard)
//! forwards them to [`FlightRecorder::trigger_postmortem`]
//! (crate::FlightRecorder) so the first failure freezes a full report.
//! Alert storage is bounded — it is itself pa-scope telemetry.

use std::fmt;

use crate::event::Nanos;

/// Cadence and thresholds for a [`Watchdog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Virtual-time sampling cadence.
    pub cadence: Nanos,
    /// p99 objective for the watched sketch, in nanoseconds. 0 turns
    /// SLO burn detection off.
    pub slo_p99_ns: u64,
    /// Consecutive over-SLO samples before an alert fires.
    pub burn_windows: u32,
    /// Consecutive no-progress-with-backlog samples before an alert.
    pub stall_windows: u32,
    /// Leaked share of protocol work (pa_obs::critpath) tolerated, in
    /// permille. 0 turns mask-leak detection off. Uses the same
    /// consecutive-window count as SLO burn (`burn_windows`).
    pub max_leak_permille: u64,
    /// Alerts retained (older ones are counted, not stored).
    pub max_alerts: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            cadence: 1_000_000, // 1 ms of virtual time
            slo_p99_ns: 0,
            burn_windows: 3,
            stall_windows: 3,
            max_leak_permille: 0,
            max_alerts: 16,
        }
    }
}

/// One sample of the roll-up, assembled by the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchInput {
    /// Virtual time of the sample.
    pub at: Nanos,
    /// Monotone total progress counter (frames delivered, requests
    /// completed — anything that moves when the system moves).
    pub progress: u64,
    /// Work currently waiting (backlogged sends, pending wakeups).
    /// A flat `progress` with zero backlog is idleness, not a stall.
    pub backlog: u64,
    /// The host's conservation invariant, e.g.
    /// `ConnStats::delivery_balanced` over every connection.
    pub ledger_ok: bool,
    /// Cluster-level p99 from the scope plane (0 if no samples yet).
    pub p99_ns: u64,
    /// Leaked share of protocol work in permille, from the masking
    /// ledger (pa_obs::critpath). 0 when no critpath analysis runs.
    pub leak_permille: u64,
}

/// One detected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchAlert {
    /// No progress for this many windows while backlog was pending.
    Stall {
        /// Consecutive flat windows.
        windows: u32,
        /// Backlog observed at detection.
        backlog: u64,
    },
    /// The delivery ledger stopped balancing.
    LedgerBreak,
    /// p99 stayed over the objective.
    SloBurn {
        /// Consecutive burning windows.
        windows: u32,
        /// The p99 observed at detection.
        p99_ns: u64,
        /// The configured objective.
        slo_ns: u64,
    },
    /// Post-phase work kept leaking onto the critical path.
    MaskLeak {
        /// Consecutive leaking windows.
        windows: u32,
        /// The leaked share observed at detection, in permille.
        permille: u64,
        /// The configured tolerance, in permille.
        limit: u64,
    },
}

impl WatchAlert {
    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            WatchAlert::Stall { .. } => "stall",
            WatchAlert::LedgerBreak => "ledger-break",
            WatchAlert::SloBurn { .. } => "slo-burn",
            WatchAlert::MaskLeak { .. } => "mask-leak",
        }
    }
}

impl fmt::Display for WatchAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchAlert::Stall { windows, backlog } => {
                write!(
                    f,
                    "stall: no progress for {windows} windows, backlog={backlog}"
                )
            }
            WatchAlert::LedgerBreak => write!(f, "ledger-break: frames_in != deliveries + drops"),
            WatchAlert::SloBurn {
                windows,
                p99_ns,
                slo_ns,
            } => write!(
                f,
                "slo-burn: p99={p99_ns}ns over objective {slo_ns}ns for {windows} windows"
            ),
            WatchAlert::MaskLeak {
                windows,
                permille,
                limit,
            } => write!(
                f,
                "mask-leak: {permille}‰ of protocol work on the critical path (limit {limit}‰) for {windows} windows"
            ),
        }
    }
}

/// The cadenced health monitor. Pure and allocation-bounded; the host
/// drives it with [`Watchdog::observe`] whenever [`Watchdog::due`].
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_at: Option<Nanos>,
    last_progress: u64,
    stall_streak: u32,
    burn_streak: u32,
    leak_streak: u32,
    ledger_broken: bool,
    samples: u64,
    alerts: Vec<(Nanos, WatchAlert)>,
    alerts_total: u64,
}

impl Watchdog {
    /// A fresh watchdog.
    pub fn new(cfg: WatchdogConfig) -> Watchdog {
        Watchdog {
            cfg,
            last_at: None,
            last_progress: 0,
            stall_streak: 0,
            burn_streak: 0,
            leak_streak: 0,
            ledger_broken: false,
            samples: 0,
            alerts: Vec::new(),
            alerts_total: 0,
        }
    }

    /// The configured cadence and thresholds.
    pub(crate) fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// True if a sample is due at virtual time `now`.
    pub(crate) fn due(&self, now: Nanos) -> bool {
        match self.last_at {
            None => true,
            Some(t) => now.saturating_sub(t) >= self.cfg.cadence,
        }
    }

    /// Feeds one sample; returns the alerts that fired on it. Streak
    /// alerts (stall, SLO burn) fire once per streak, on the sample
    /// that completes the window count.
    pub(crate) fn observe(&mut self, input: WatchInput) -> Vec<WatchAlert> {
        self.samples += 1;
        let mut fired = Vec::new();

        if !input.ledger_ok && !self.ledger_broken {
            self.ledger_broken = true;
            fired.push(WatchAlert::LedgerBreak);
        }

        let first = self.last_at.is_none();
        let progressed = input.progress != self.last_progress;
        if !first && !progressed && input.backlog > 0 {
            self.stall_streak += 1;
            if self.stall_streak == self.cfg.stall_windows {
                fired.push(WatchAlert::Stall {
                    windows: self.stall_streak,
                    backlog: input.backlog,
                });
            }
        } else {
            self.stall_streak = 0;
        }

        if self.cfg.slo_p99_ns > 0 && input.p99_ns > self.cfg.slo_p99_ns {
            self.burn_streak += 1;
            if self.burn_streak == self.cfg.burn_windows {
                fired.push(WatchAlert::SloBurn {
                    windows: self.burn_streak,
                    p99_ns: input.p99_ns,
                    slo_ns: self.cfg.slo_p99_ns,
                });
            }
        } else {
            self.burn_streak = 0;
        }

        if self.cfg.max_leak_permille > 0 && input.leak_permille > self.cfg.max_leak_permille {
            self.leak_streak += 1;
            if self.leak_streak == self.cfg.burn_windows {
                fired.push(WatchAlert::MaskLeak {
                    windows: self.leak_streak,
                    permille: input.leak_permille,
                    limit: self.cfg.max_leak_permille,
                });
            }
        } else {
            self.leak_streak = 0;
        }

        self.last_at = Some(input.at);
        self.last_progress = input.progress;
        for alert in &fired {
            self.alerts_total += 1;
            if self.alerts.len() < self.cfg.max_alerts {
                self.alerts.push((input.at, *alert));
            }
        }
        fired
    }

    /// Samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Retained alerts, in firing order.
    pub fn alerts(&self) -> &[(Nanos, WatchAlert)] {
        &self.alerts
    }

    /// Alerts fired over the whole run (retained or not).
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// True once a ledger break was ever observed — the dashboard's
    /// exit-nonzero condition.
    pub fn ledger_broken(&self) -> bool {
        self.ledger_broken
    }

    /// True if any alert ever fired.
    pub fn healthy(&self) -> bool {
        self.alerts_total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(at: Nanos, progress: u64, backlog: u64) -> WatchInput {
        WatchInput {
            at,
            progress,
            backlog,
            ledger_ok: true,
            p99_ns: 100,
            leak_permille: 0,
        }
    }

    #[test]
    fn cadence_gates_sampling() {
        let w = Watchdog::new(WatchdogConfig::default());
        assert!(w.due(0), "first sample is always due");
        let mut w = w;
        w.observe(input(5_000_000, 1, 0));
        assert!(!w.due(5_500_000));
        assert!(w.due(6_000_000));
    }

    #[test]
    fn progress_keeps_the_dog_quiet() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        for i in 0..20 {
            let fired = w.observe(input(i * 1_000_000, i, 5));
            assert!(fired.is_empty(), "{fired:?}");
        }
        assert!(w.healthy());
    }

    #[test]
    fn stall_fires_after_the_window_count() {
        let mut w = Watchdog::new(WatchdogConfig {
            stall_windows: 3,
            ..WatchdogConfig::default()
        });
        w.observe(input(0, 10, 4));
        assert!(w.observe(input(1_000_000, 10, 4)).is_empty());
        assert!(w.observe(input(2_000_000, 10, 4)).is_empty());
        let fired = w.observe(input(3_000_000, 10, 4));
        assert_eq!(
            fired,
            vec![WatchAlert::Stall {
                windows: 3,
                backlog: 4
            }]
        );
        // The streak only reports once; recovery resets it.
        assert!(w.observe(input(4_000_000, 10, 4)).is_empty());
        assert!(w.observe(input(5_000_000, 11, 4)).is_empty());
        assert_eq!(w.alerts_total(), 1);
    }

    #[test]
    fn idle_is_not_a_stall() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        for i in 0..10 {
            let fired = w.observe(input(i * 1_000_000, 42, 0));
            assert!(fired.is_empty(), "flat progress with no backlog is idle");
        }
    }

    #[test]
    fn ledger_break_fires_once_and_sticks() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        let mut bad = input(0, 1, 0);
        bad.ledger_ok = false;
        assert_eq!(w.observe(bad), vec![WatchAlert::LedgerBreak]);
        let mut bad2 = input(1_000_000, 2, 0);
        bad2.ledger_ok = false;
        assert!(w.observe(bad2).is_empty(), "reported once");
        assert!(w.ledger_broken());
        assert!(!w.healthy());
    }

    #[test]
    fn slo_burn_needs_consecutive_windows() {
        let mut w = Watchdog::new(WatchdogConfig {
            slo_p99_ns: 1_000,
            burn_windows: 2,
            ..WatchdogConfig::default()
        });
        let hot = |at, progress| WatchInput {
            at,
            progress,
            backlog: 0,
            ledger_ok: true,
            p99_ns: 5_000,
            leak_permille: 0,
        };
        assert!(w.observe(hot(0, 1)).is_empty());
        let fired = w.observe(hot(1_000_000, 2));
        assert_eq!(
            fired,
            vec![WatchAlert::SloBurn {
                windows: 2,
                p99_ns: 5_000,
                slo_ns: 1_000
            }]
        );
        // A cool sample resets the streak.
        assert!(w.observe(input(2_000_000, 3, 0)).is_empty());
        assert_eq!(w.burn_streak, 0);
    }

    #[test]
    fn mask_leak_needs_consecutive_windows_and_resets() {
        let mut w = Watchdog::new(WatchdogConfig {
            max_leak_permille: 50,
            burn_windows: 2,
            ..WatchdogConfig::default()
        });
        let leaky = |at, progress| WatchInput {
            leak_permille: 400,
            ..input(at, progress, 0)
        };
        assert!(w.observe(leaky(0, 1)).is_empty());
        let fired = w.observe(leaky(1_000_000, 2));
        assert_eq!(
            fired,
            vec![WatchAlert::MaskLeak {
                windows: 2,
                permille: 400,
                limit: 50
            }]
        );
        // A clean sample resets the streak; the alert can re-fire.
        assert!(w.observe(input(2_000_000, 3, 0)).is_empty());
        assert_eq!(w.leak_streak, 0);
        assert!(w.observe(leaky(3_000_000, 4)).is_empty());
        assert_eq!(w.observe(leaky(4_000_000, 5)).len(), 1);
        // Off by default: permille never trips a zero limit.
        let mut off = Watchdog::new(WatchdogConfig::default());
        assert!(off.observe(leaky(0, 1)).is_empty());
        assert!(off.observe(leaky(1_000_000, 2)).is_empty());
        assert!(off.observe(leaky(2_000_000, 3)).is_empty());
    }

    #[test]
    fn alert_storage_is_bounded() {
        let mut w = Watchdog::new(WatchdogConfig {
            slo_p99_ns: 1,
            burn_windows: 1,
            max_alerts: 2,
            ..WatchdogConfig::default()
        });
        for i in 0..10 {
            // burn_windows=1 fires on every first sample of a streak;
            // alternate genuinely cool samples to restart the streak.
            let mut hot = input(i * 2_000_000, i, 0);
            hot.p99_ns = 99;
            w.observe(hot);
            let mut cool = input(i * 2_000_000 + 1_000_000, i + 100, 0);
            cool.p99_ns = 0;
            w.observe(cool);
        }
        assert!(w.alerts().len() <= 2);
        assert!(w.alerts_total() >= 5);
    }
}
