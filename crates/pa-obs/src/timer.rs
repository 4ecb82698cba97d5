//! Shared timer-overhead calibration.
//!
//! Every wall-clock span in the workspace is measured the same way: an
//! `Instant::now()` before the work and an `elapsed()` after it. The
//! pair itself costs a few tens of nanoseconds, which is noise on a
//! millisecond bench row but a systematic bias on a short phase span.
//! The bench harness (pa-bench's `micro`) and the per-layer cycle
//! meters ([`crate::PhaseMeter`] via `Connection::enable_cycle_meter`)
//! must subtract the *same* calibrated overhead or their numbers stop
//! being comparable — so the calibration loop lives here, once.
//!
//! Calibration is itself a measurement: run it once per process (or
//! per bench) and reuse the result, do not re-run it per span.

use std::time::{Duration, Instant};

/// Calibration iterations. Large enough to average out scheduler
/// noise, small enough to finish in well under a millisecond.
pub(crate) const CALIBRATION_ROUNDS: u32 = 16 * 1024;

/// Measures the cost of one empty `Instant::now()` → `elapsed()` span,
/// averaged over [`CALIBRATION_ROUNDS`] back-to-back probes.
pub fn span_overhead() -> Duration {
    let mut d = Duration::ZERO;
    for _ in 0..CALIBRATION_ROUNDS {
        let t = Instant::now();
        d += t.elapsed();
    }
    d / CALIBRATION_ROUNDS
}

/// [`span_overhead`] in whole nanoseconds — the form the
/// [`crate::PhaseMeter`] bias field wants.
pub fn span_overhead_ns() -> u64 {
    span_overhead().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_and_sane() {
        let ns = span_overhead_ns();
        // An empty span is tens of nanoseconds on anything modern; a
        // microsecond would mean the clock itself is broken enough
        // that de-biasing is the least of our problems.
        assert!(ns < 100_000, "span overhead {ns} ns is implausible");
    }

    #[test]
    fn calibration_is_reusable() {
        // Two calibrations agree to within an order of magnitude —
        // i.e. the number is a property of the clock, not of the run.
        let a = span_overhead_ns().max(1);
        let b = span_overhead_ns().max(1);
        assert!(a / b < 50 && b / a < 50, "unstable calibration: {a} vs {b}");
    }
}
