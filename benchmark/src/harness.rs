//! Harness maths: the calibration kernel, the slice normaliser, order
//! statistics, and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

// ---------------------------------------------------------------------
// Calibration kernel — frozen. One iteration is one **cu**: a dependent
// probe into a 32 768-entry u64 table (256 KiB, a single cycle, so the
// walk touches every entry) plus a 64-byte copy out of a 64 KiB region
// chosen by the probed value. Changing anything here changes the unit
// every committed number is expressed in.
// ---------------------------------------------------------------------

const CALIB_ENTRIES: usize = 32_768;
const CALIB_LINES: usize = 1024;
const CALIB_ITERS: u32 = 400_000;

pub struct Calib {
    table: Vec<u64>,
    lines: Vec<[u8; 64]>,
    cursor: usize,
}

impl Calib {
    pub fn new() -> Calib {
        // Sattolo's shuffle from a fixed seed: one cycle through all
        // entries, the same on every host and every run.
        let mut rng = crate::gen::Rng::new(0x00C0_FFEE_CA1B_0001);
        let mut table: Vec<u64> = (0..CALIB_ENTRIES as u64).collect();
        for i in (1..CALIB_ENTRIES).rev() {
            table.swap(i, rng.below(i as u64) as usize);
        }
        let lines = (0..CALIB_LINES)
            .map(|_| {
                let mut line = [0u8; 64];
                for chunk in line.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                line
            })
            .collect();
        Calib {
            table,
            lines,
            cursor: 0,
        }
    }

    /// Runs the kernel once and returns nanoseconds per cu.
    pub fn run(&mut self) -> f64 {
        let mut at = self.cursor;
        let mut stage = [0u8; 64];
        let start = Instant::now();
        for _ in 0..CALIB_ITERS {
            at = self.table[at] as usize;
            stage.copy_from_slice(&self.lines[at % CALIB_LINES]);
            black_box(&mut stage);
        }
        let ns = start.elapsed().as_nanos() as f64;
        self.cursor = black_box(at);
        ns / CALIB_ITERS as f64
    }
}

// ---------------------------------------------------------------------
// Slices
// ---------------------------------------------------------------------

/// One timed slice of a workload, bracketed by two calibration runs.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops: u64,
    pub ns: u64,
    /// Calibration immediately before and after, ns per cu.
    pub calib_before: f64,
    pub calib_after: f64,
    /// Latency percentiles of the ops stamped in this slice, ns.
    pub lat_p50_ns: f64,
    pub lat_p99_ns: f64,
    /// Spans the recorder closed during the slice (0 when it is off).
    pub spans: u64,
}

impl Slice {
    pub fn ns_per_cu(&self) -> f64 {
        (self.calib_before + self.calib_after) / 2.0
    }

    pub fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops as f64
    }

    /// The slice's cost in calibration units per op.
    pub fn cu_per_op(&self) -> f64 {
        self.ns_per_op() / self.ns_per_cu()
    }

    /// True when the two calibrations bracketing the slice agree: the
    /// host ran at one speed across it, so their mean describes it.
    pub fn stationary(&self) -> bool {
        let (lo, hi) = if self.calib_before < self.calib_after {
            (self.calib_before, self.calib_after)
        } else {
            (self.calib_after, self.calib_before)
        };
        hi - lo <= STATIONARY_TOLERANCE * lo
    }
}

/// Calibrations bracketing a slice may differ by this share before the
/// slice is set aside.
const STATIONARY_TOLERANCE: f64 = 0.04;
/// The quantile over slices `cost_per_op_cu` reports.
const QUIET_QUANTILE: f64 = 0.10;
/// Fewer stationary slices than this and all slices are used instead.
const MIN_STATIONARY: usize = 8;

/// The `q` quantile (nearest rank) of one per-slice value over the
/// stationary slices of a window.
fn stationary_quantile(slices: &[Slice], q: f64, value: impl Fn(&Slice) -> f64) -> f64 {
    let stationary: Vec<f64> = slices
        .iter()
        .filter(|s| s.stationary())
        .map(&value)
        .collect();
    let values = if stationary.len() >= MIN_STATIONARY {
        stationary
    } else {
        slices.iter().map(&value).collect()
    };
    let v = sorted(&values);
    assert!(!v.is_empty(), "a window has at least one slice");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A window's value of a per-slice *cost* (slice time over ops): the
/// 10th percentile over the stationary slices.
///
/// On a shared host a neighbour slows the workloads more than it slows
/// the calibration kernel, in phases that last from milliseconds to
/// minutes, and everything it takes lands in the slice's total. The
/// noise is one-sided, so the *median* slice drifts with how busy the
/// neighbour was (6–7 % between identical runs when this was sized);
/// the quiet decile estimates the undisturbed cost and repeats within
/// 2–4 %. A change that slows every op slows the quiet slices as much.
pub fn quiet_level(slices: &[Slice], value: impl Fn(&Slice) -> f64) -> f64 {
    stationary_quantile(slices, QUIET_QUANTILE, value)
}

/// A window's value of a per-slice *latency percentile*: the median
/// over the stationary slices.
///
/// A percentile of the tens of thousands of samples in a slice already
/// sets the disturbed ops aside; what is left between slices is the
/// calibration's own two-sided noise, which the median averages out and
/// a low quantile would chase (2–4 % against 3–8 % between identical
/// runs when this was sized).
pub fn typical_level(slices: &[Slice], value: impl Fn(&Slice) -> f64) -> f64 {
    stationary_quantile(slices, 0.5, value)
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    v
}

/// Median (mean of the middle pair for even counts). Panics on empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `samples` (reordered in place), `q` in
/// (0, 1]. Returns 0 for an empty slice.
pub fn percentile_in_place(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1 as f64
}

/// The quartile cut points Python's `statistics.quantiles(v, n=4)`
/// returns (its default "exclusive" method). Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

// ---------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports one.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_in_place(&mut v, 0.50), 50.0);
        assert_eq!(percentile_in_place(&mut v, 0.99), 99.0);
        assert_eq!(percentile_in_place(&mut v, 1.0), 100.0);
        let mut one = [9u32];
        assert_eq!(percentile_in_place(&mut one, 0.5), 9.0);
        assert_eq!(percentile_in_place(&mut [], 0.5), 0.0);
        let mut four = [40u32, 10, 30, 20];
        assert_eq!(percentile_in_place(&mut four, 0.5), 20.0);
        assert_eq!(percentile_in_place(&mut four, 0.51), 30.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), [3.0, 4.0, 7.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn slice_normaliser_divides_out_the_host() {
        // The same work on a host twice as slow: twice the ns per op,
        // twice the ns per cu, the same cu per op.
        let fast = Slice {
            ops: 1000,
            ns: 1_300_000,
            calib_before: 7.0,
            calib_after: 8.0,
            lat_p50_ns: 0.0,
            lat_p99_ns: 0.0,
            spans: 0,
        };
        let slow = Slice {
            ns: 2 * fast.ns,
            calib_before: 14.0,
            calib_after: 16.0,
            ..fast
        };
        assert_eq!(fast.ns_per_cu(), 7.5);
        assert_eq!(fast.ns_per_op(), 1300.0);
        assert!((fast.cu_per_op() - 1300.0 / 7.5).abs() < 1e-12);
        assert!((fast.cu_per_op() - slow.cu_per_op()).abs() < 1e-12);
    }

    #[test]
    fn window_levels_are_quantiles_of_the_stationary_slices() {
        let slice = |ns: u64, before: f64, after: f64| Slice {
            ops: 1000,
            ns,
            calib_before: before,
            calib_after: after,
            lat_p50_ns: 0.0,
            lat_p99_ns: 0.0,
            spans: 0,
        };
        // Twenty stationary slices costing 100..119 cu/op, and one whose
        // calibrations disagree (the host changed speed under it) that
        // would otherwise be the cheapest.
        let mut slices: Vec<Slice> = (0..20)
            .map(|i| slice((100 + i) * 1000 * 5, 5.0, 5.1))
            .collect();
        slices.push(slice(50 * 1000 * 5, 5.0, 8.0));
        assert!(slices[0].stationary() && !slices[20].stationary());
        let level = quiet_level(&slices, Slice::cu_per_op);
        // 10th percentile of 20 values, nearest rank: the 2nd smallest.
        assert!((level - 101.0 * 5.0 / 5.05).abs() < 1e-9, "{level}");
        // The median of the same twenty: the 10th smallest.
        let typical = typical_level(&slices, Slice::cu_per_op);
        assert!((typical - 109.0 * 5.0 / 5.05).abs() < 1e-9, "{typical}");
        // Too few stationary slices: every slice counts.
        let few = &slices[18..];
        assert_eq!(quiet_level(few, Slice::cu_per_op), few[2].cu_per_op());
    }

    #[test]
    fn calibration_is_deterministic_and_walks_one_cycle() {
        let a = Calib::new();
        let b = Calib::new();
        assert_eq!(a.table, b.table);
        let mut at = 0usize;
        for step in 1..=CALIB_ENTRIES {
            at = a.table[at] as usize;
            assert!(
                at != 0 || step == CALIB_ENTRIES,
                "cycle closed early at {step}"
            );
        }
        assert_eq!(at, 0);
        let mut c = Calib::new();
        assert!(c.run() > 0.0);
    }
}
