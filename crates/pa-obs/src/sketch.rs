//! Mergeable log-bucketed quantile sketches (DDSketch-style).
//!
//! [`QuantileSketch`] is the workspace's one distribution type: a
//! fixed-size, γ-log-bucketed sketch in the DDSketch family (Masson,
//! Rim & Lee, VLDB '19) whose merge is **exactly** associative and
//! commutative, so per-connection sketches roll up to per-endpoint and
//! cluster level in any order and always produce the same bytes. (The
//! simulator's exact `Series`, which the paper anchors are computed
//! from, keeps every sample and is not a summary.)
//!
//! ## Canonical form
//!
//! A value `v ≥ 1` lands in bucket `key(v) = ⌈log_γ v⌉` where
//! `γ = (1+α)/(1−α)` for a configured relative accuracy `α`; zero gets
//! its own exact counter. The sketch keeps a **contiguous window of at
//! most `max_buckets` keys anchored at the highest key seen**: when the
//! span overflows, everything below `hi − max_buckets + 1` collapses
//! into the window's lowest bucket and the [`collapsed`] counter says
//! how many samples lost their bucket. Because the anchor is the
//! maximum key of the *multiset* (not of any insertion order), the
//! final `(buckets, base_key, collapsed)` state is a pure function of
//! the recorded multiset — which is what makes merge associative,
//! commutative, and idempotent on empty, and lets the property tests
//! assert plain `==` over merge trees.
//!
//! ## Error model
//!
//! For any sample that kept its bucket, a reported quantile `v̂`
//! satisfies `|v̂ − v| ≤ α·v` against the true sample `v` at that rank.
//! Collapsed samples (see [`QuantileSketch::collapsed`]) surrender that
//! bound on the low tail only — they are never silently dropped, and
//! the exact `min`/`max`/`count`/`sum` ride along regardless.

use std::fmt;

/// Shape of a [`QuantileSketch`]: relative accuracy and memory bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Relative value accuracy α (0 < α < 1). Buckets grow by
    /// `γ = (1+α)/(1−α)`.
    pub alpha: f64,
    /// Hard cap on the contiguous bucket window (≥ 2). The window
    /// anchors at the largest sample, so what it bounds is the
    /// max/min *spread*: 512 buckets at α = 1% cover a ≈ 2.8×10⁴
    /// dynamic range before low outliers collapse into the lowest
    /// bucket (counted, never silent).
    pub max_buckets: usize,
}

impl SketchConfig {
    /// The pa-scope default: 1% relative accuracy, 512-bucket window
    /// (4 KiB of buckets per sketch, ≈ 2.8×10⁴ dynamic range).
    pub fn default_scope() -> SketchConfig {
        SketchConfig {
            alpha: 0.01,
            max_buckets: 512,
        }
    }

    /// The bucket growth factor γ.
    pub(crate) fn gamma(&self) -> f64 {
        (1.0 + self.alpha) / (1.0 - self.alpha)
    }
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig::default_scope()
    }
}

/// A fixed-size mergeable quantile sketch over `u64` samples
/// (nanoseconds, by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    gamma_ln: f64,
    max_buckets: usize,
    /// Contiguous counts for keys `base_key ..= base_key + len − 1`.
    buckets: Vec<u64>,
    /// Key of `buckets[0]`.
    base_key: i32,
    /// Exact count of zero-valued samples (key space covers `v ≥ 1`).
    zero: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Samples currently resident in the lowest bucket whose true key
    /// is below the window — i.e. samples that lost their α bound.
    collapsed: u64,
}

impl Default for QuantileSketch {
    /// An empty sketch of the default shape ([`SketchConfig::default_scope`]).
    fn default() -> Self {
        QuantileSketch::new(SketchConfig::default())
    }
}

impl QuantileSketch {
    /// An empty sketch with the given shape.
    pub fn new(cfg: SketchConfig) -> QuantileSketch {
        assert!(
            cfg.alpha > 0.0 && cfg.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        assert!(cfg.max_buckets >= 2, "need at least two buckets");
        QuantileSketch {
            alpha: cfg.alpha,
            gamma_ln: cfg.gamma().ln(),
            max_buckets: cfg.max_buckets,
            buckets: Vec::new(),
            base_key: 0,
            zero: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            collapsed: 0,
        }
    }

    /// The configured shape.
    pub(crate) fn config(&self) -> SketchConfig {
        SketchConfig {
            alpha: self.alpha,
            max_buckets: self.max_buckets,
        }
    }

    /// The bucket key a value maps to (`⌈log_γ v⌉`; only defined for
    /// `v ≥ 1`). Exposed so a caller recording one value into several
    /// same-shape sketches (conn → endpoint → cluster roll-up) pays the
    /// logarithm once.
    #[inline]
    pub(crate) fn key_of(&self, v: u64) -> i32 {
        debug_assert!(v >= 1);
        // ceil with a tolerance nudge so exact powers of γ stay stable
        // across the fp ladder.
        ((v as f64).ln() / self.gamma_ln - 1e-9).ceil() as i32
    }

    /// Records one sample. O(1) amortized, allocation-free once the
    /// window is grown.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zero += 1;
            self.observe_exact(v, 1);
            return;
        }
        let key = self.key_of(v);
        self.observe_exact(v, 1);
        self.insert_count(key, 1);
    }

    /// Records a sample whose key the caller already computed via
    /// [`QuantileSketch::key_of`] on a same-shape sketch.
    #[inline]
    pub(crate) fn record_keyed(&mut self, key: i32, v: u64) {
        if v == 0 {
            self.zero += 1;
            self.observe_exact(v, 1);
            return;
        }
        debug_assert_eq!(key, self.key_of(v));
        self.observe_exact(v, 1);
        self.insert_count(key, 1);
    }

    #[inline]
    fn observe_exact(&mut self, v: u64, n: u64) {
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds `n` samples at bucket `key`, maintaining the canonical
    /// window (contiguous, ≤ `max_buckets`, anchored at the highest
    /// key).
    fn insert_count(&mut self, key: i32, n: u64) {
        if self.buckets.is_empty() {
            self.base_key = key;
            self.reserve_total(1);
            self.buckets.push(n);
            return;
        }
        let hi = self.base_key + self.buckets.len() as i32 - 1;
        let m = self.max_buckets as i32;
        if key > hi {
            let lo_bound = key - (m - 1);
            if self.base_key >= lo_bound {
                // Extend upward without folding.
                let new_len = (key - self.base_key + 1) as usize;
                self.reserve_total(new_len);
                self.buckets.resize(new_len, 0);
                *self.buckets.last_mut().expect("nonempty") += n;
            } else {
                // The window slides: everything below `lo_bound` folds
                // into the new lowest bucket. Previously collapsed
                // samples already live in the (folding) lowest bucket,
                // so the counter becomes exactly the folded total —
                // order-independent by construction.
                let cut = (lo_bound - self.base_key) as usize;
                let folded: u64 = self.buckets[..cut.min(self.buckets.len())].iter().sum();
                let keep_from = cut.min(self.buckets.len());
                self.buckets.drain(..keep_from);
                if self.buckets.is_empty() {
                    self.buckets.push(0);
                }
                self.buckets[0] += folded;
                self.collapsed = folded;
                self.base_key = lo_bound;
                let new_len = (key - self.base_key + 1) as usize;
                self.reserve_total(new_len);
                self.buckets.resize(new_len, 0);
                *self.buckets.last_mut().expect("nonempty") += n;
            }
        } else if key >= self.base_key {
            self.buckets[(key - self.base_key) as usize] += n;
        } else {
            let lo_bound = hi - (m - 1);
            if key >= lo_bound {
                // Extend downward; still within the window.
                self.extend_down(key);
                self.buckets[0] += n;
            } else {
                // Below the window: clip into its lowest bucket.
                if self.base_key > lo_bound {
                    self.extend_down(lo_bound);
                }
                self.buckets[0] += n;
                self.collapsed += n;
            }
        }
    }

    fn extend_down(&mut self, new_base: i32) {
        let grow = (self.base_key - new_base) as usize;
        let new_len = self.buckets.len() + grow;
        self.reserve_total(new_len);
        self.buckets.resize(new_len, 0);
        self.buckets.rotate_right(grow);
        self.base_key = new_base;
    }

    /// Grows capacity exactly (never beyond `max_buckets`), keeping
    /// [`QuantileSketch::mem_bytes`] an honest bound.
    fn reserve_total(&mut self, want: usize) {
        debug_assert!(want <= self.max_buckets);
        if want > self.buckets.capacity() {
            let add = want - self.buckets.len();
            self.buckets.reserve_exact(add);
        }
    }

    /// Folds another same-shape sketch into this one. Exactly
    /// associative and commutative: any merge order over the same
    /// multiset of recorded samples yields `==` states.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.config(),
            other.config(),
            "merging differently-shaped sketches"
        );
        if other.count == 0 {
            return;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.buckets.is_empty() {
            return;
        }
        // Insert the highest bucket first so the window settles before
        // lower counts arrive (the result is canonical either way; this
        // just avoids folding twice).
        for (i, &n) in other.buckets.iter().enumerate().rev() {
            if n > 0 {
                self.insert_count(other.base_key + i as i32, n);
            }
        }
        // `other`'s already-collapsed samples: if its lowest bucket
        // survived inside our window they still carry their clipped
        // members (count them); if it fell below our window the insert
        // above already counted all of them via `collapsed += n`.
        if other.base_key >= self.base_key {
            self.collapsed += other.collapsed;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of samples.
    pub(crate) fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0 if empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples currently resident in the lowest bucket whose true
    /// bucket fell below the window — the explicit "lost precision"
    /// counter. 0 means every quantile honors the α bound.
    pub fn collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Occupied window width in buckets.
    pub fn window_len(&self) -> usize {
        self.buckets.len()
    }

    /// Heap + inline footprint in bytes (capacity-accurate).
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<QuantileSketch>() + self.buckets.capacity() * std::mem::size_of::<u64>()
    }

    /// Worst-case footprint for this shape, for budget admission.
    pub(crate) fn mem_bytes_cap(cfg: SketchConfig) -> usize {
        std::mem::size_of::<QuantileSketch>() + cfg.max_buckets * std::mem::size_of::<u64>()
    }

    /// The γ-midpoint representative value of bucket `key`, the point
    /// minimizing worst-case relative error over `(γ^(k−1), γ^k]`.
    pub(crate) fn value_of_key(&self, key: i32) -> u64 {
        let edge = (key as f64 * self.gamma_ln).exp();
        let gamma = self.gamma_ln.exp();
        let rep = edge * 2.0 / (1.0 + gamma);
        rep.round().max(1.0) as u64
    }

    /// The value at quantile `q` (0.0–1.0): the representative of the
    /// bucket containing the ⌈q·n⌉-th smallest sample, clamped to the
    /// exact min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        if target <= self.zero {
            return 0;
        }
        let mut cum = self.zero;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let rep = self.value_of_key(self.base_key + i as i32);
                return rep.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets, ascending, as `(upper-edge value, count)` —
    /// the export shape for Prometheus-style cumulative histograms.
    /// The zero bucket (if any) leads with edge 0.
    pub(crate) fn bucket_counts(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.zero > 0 {
            out.push((0, self.zero));
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                let key = self.base_key + i as i32;
                let edge = ((key as f64 * self.gamma_ln).exp()).round().max(1.0) as u64;
                out.push((edge, n));
            }
        }
        out
    }

    /// One-line summary for tables.
    pub fn summary(&self) -> SketchSummary {
        SketchSummary {
            count: self.count,
            min: self.min(),
            mean: self.mean(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max,
            collapsed: self.collapsed,
        }
    }
}

/// Exported percentile summary of a [`QuantileSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (α-resolution).
    pub p50: u64,
    /// 90th percentile (α-resolution).
    pub p90: u64,
    /// 99th percentile (α-resolution).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Samples that lost their α bound to window collapse.
    pub collapsed: u64,
}

impl fmt::Display for SketchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.0} p50={} p90={} p99={} max={}",
            self.count, self.min, self.mean, self.p50, self.p90, self.p99, self.max
        )?;
        if self.collapsed > 0 {
            write!(f, " collapsed={}", self.collapsed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SketchConfig {
        SketchConfig {
            alpha: 0.01,
            max_buckets: 8,
        }
    }

    #[test]
    fn empty_sketch_is_calm() {
        let s = QuantileSketch::new(SketchConfig::default_scope());
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.collapsed(), 0);
    }

    #[test]
    fn single_sample_is_exact() {
        let mut s = QuantileSketch::new(SketchConfig::default_scope());
        s.record(777);
        assert_eq!(s.p50(), 777, "min==max clamp makes quantiles exact");
        assert_eq!(s.p99(), 777);
        assert_eq!(s.sum(), 777);
    }

    #[test]
    fn quantiles_within_alpha() {
        let cfg = SketchConfig::default_scope();
        let mut s = QuantileSketch::new(cfg);
        for v in 1..=10_000u64 {
            s.record(v * 100);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0f64).ceil() as u64 * 100;
            let est = s.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= cfg.alpha + 1e-6, "q={q}: est={est} exact={exact}");
        }
        assert_eq!(s.collapsed(), 0);
    }

    #[test]
    fn window_collapse_is_counted_not_silent() {
        let mut s = QuantileSketch::new(small());
        s.record(1);
        s.record(1 << 40); // forces the window far above key(1)
        assert_eq!(s.count(), 2);
        assert_eq!(s.collapsed(), 1);
        assert!(s.window_len() <= 8);
        // Exact extremes survive collapse.
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1 << 40);
    }

    #[test]
    fn collapse_is_order_independent() {
        let mut a = QuantileSketch::new(small());
        for v in [1u64, 7, 1 << 40, 900, 3] {
            a.record(v);
        }
        let mut b = QuantileSketch::new(small());
        for v in [900u64, 1 << 40, 3, 1, 7] {
            b.record(v);
        }
        assert_eq!(a, b, "canonical state must not depend on record order");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let cfg = small();
        let (mut a, mut b, mut all) = (
            QuantileSketch::new(cfg),
            QuantileSketch::new(cfg),
            QuantileSketch::new(cfg),
        );
        for v in [1u64, 5, 0, 1000, 1 << 30] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 70_000, 2, 1 << 20] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn merge_is_idempotent_on_empty() {
        let cfg = SketchConfig::default_scope();
        let mut s = QuantileSketch::new(cfg);
        for v in [9u64, 42, 512] {
            s.record(v);
        }
        let snapshot = s.clone();
        s.merge(&QuantileSketch::new(cfg));
        assert_eq!(s, snapshot);
        let mut empty = QuantileSketch::new(cfg);
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn memory_stays_capped() {
        let cfg = small();
        let mut s = QuantileSketch::new(cfg);
        for v in [1u64, 1 << 10, 1 << 20, 1 << 30, 1 << 40, 1 << 50] {
            for _ in 0..100 {
                s.record(v);
            }
        }
        assert!(s.window_len() <= cfg.max_buckets);
        assert!(s.mem_bytes() <= QuantileSketch::mem_bytes_cap(cfg));
    }

    #[test]
    fn zero_samples_have_their_own_bucket() {
        let mut s = QuantileSketch::new(SketchConfig::default_scope());
        for _ in 0..10 {
            s.record(0);
        }
        s.record(100);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn bucket_counts_cover_every_sample() {
        let mut s = QuantileSketch::new(small());
        for v in [0u64, 1, 50, 50, 1 << 40] {
            s.record(v);
        }
        let total: u64 = s.bucket_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, s.count());
    }
}
