//! Measurement collection and report formatting.

use crate::Nanos;

pub use pa_obs::watch::{us, Table};

/// A set of scalar samples (latencies, intervals).
#[derive(Debug, Default, Clone)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// An empty series.
    pub(crate) fn new() -> Series {
        Series::default()
    }

    /// Adds a nanosecond sample.
    pub(crate) fn push_nanos(&mut self, v: Nanos) {
        self.samples.push(v as f64);
    }

    /// The raw samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.samples
    }

    /// Summary statistics.
    ///
    /// Sorting uses `f64::total_cmp`, so a stray NaN (e.g. a rate
    /// computed over a zero-length window) cannot panic the report —
    /// NaNs order after every number and surface in `max` where they
    /// are visible instead of fatal. The standard deviation is the
    /// *sample* (n−1) estimator, the right one for measured runs.
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            (sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let pick = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        Summary {
            count: n,
            mean,
            stddev,
            min: sorted[0],
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: sorted[n - 1],
        }
    }
}

/// Summary statistics of a [`Series`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample (n−1) standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Formats a float of nanoseconds as microseconds.
pub(crate) fn us_f(ns: f64) -> String {
    format!("{:.1}", ns / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = Series::new();
        assert!(s.values().is_empty());
        assert_eq!(s.summary().count, 0);
    }

    #[test]
    fn summary_statistics() {
        let s = Series {
            samples: vec![1.0, 2.0, 3.0, 4.0, 5.0],
        };
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.mean, 3.0);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.p50, 3.0);
        // Sample stddev of 1..=5: sqrt(10/4) = sqrt(2.5) ≈ 1.5811.
        assert!((sum.stddev - 1.5811).abs() < 0.01, "{}", sum.stddev);
    }

    #[test]
    fn nan_samples_do_not_panic_the_summary() {
        let s = Series {
            // A NaN: e.g. a rate over a zero-length window.
            samples: vec![1.0, f64::NAN, 2.0],
        };
        let sum = s.summary(); // must not panic
        assert_eq!(sum.count, 3);
        assert_eq!(sum.min, 1.0);
        // total_cmp orders NaN after every number: it lands in max,
        // visible to a human reading the report.
        assert!(sum.max.is_nan());
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = Series { samples: vec![7.0] };
        let sum = s.summary();
        assert_eq!(sum.stddev, 0.0);
        assert_eq!(sum.mean, 7.0);
    }

    #[test]
    fn percentiles_on_skewed_data() {
        let s = Series {
            samples: (0..100).map(f64::from).collect(),
        };
        let sum = s.summary();
        assert_eq!(sum.p90, 89.0);
        assert_eq!(sum.p99, 98.0);
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(us(170_000), "170.0");
        assert_eq!(us_f(85_500.0), "85.5");
    }
}
