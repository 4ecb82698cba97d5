//! Deterministic fault injection (smoltcp-style).
//!
//! U-Net "provides unreliable communication, but in our experiments no
//! message loss was detected" (§5) — lucky them. The protocol stack
//! still implements a sliding window precisely because the network may
//! misbehave, so the simulated network can be told to: drop frames,
//! flip one octet, duplicate frames, or delay a frame past its
//! successor (reorder). All decisions come from a seeded RNG, so a
//! failing test reproduces exactly.

use pa_obs::rng::{Rng, SplitMix64};

/// Fault probabilities (each 0.0–1.0, applied per frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability one octet of the frame is flipped.
    pub corrupt: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability the frame is delayed by `reorder_delay` ns (enough
    /// to land behind its successors).
    pub reorder: f64,
    /// Extra delay applied to reordered frames.
    pub reorder_delay: u64,
    /// RNG seed.
    pub seed: u64,
}

impl FaultConfig {
    /// A perfectly clean network.
    pub fn none() -> FaultConfig {
        FaultConfig {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay: 200_000,
            seed: 0,
        }
    }

    /// The smoltcp README's "good starting value": 15% drop and
    /// corruption — an aggressively bad network.
    pub fn harsh(seed: u64) -> FaultConfig {
        FaultConfig {
            drop: 0.15,
            corrupt: 0.15,
            duplicate: 0.05,
            reorder: 0.1,
            reorder_delay: 200_000,
            seed,
        }
    }

    /// Mild impairment: ~2% of everything.
    pub fn mild(seed: u64) -> FaultConfig {
        FaultConfig {
            drop: 0.02,
            corrupt: 0.02,
            duplicate: 0.02,
            reorder: 0.02,
            reorder_delay: 200_000,
            seed,
        }
    }
}

/// Counters of injected faults.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped.
    pub dropped: u64,
    /// Frames with a flipped octet.
    pub corrupted: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames delayed for reordering.
    pub reordered: u64,
}

/// What the injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Deliver the frame at all?
    pub deliver: bool,
    /// Flip the octet at this index (mod frame length), if set.
    pub corrupt_at: Option<usize>,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Extra delay in nanoseconds.
    pub extra_delay: u64,
}

/// The stateful injector.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector from a config (seeded, deterministic).
    pub(crate) fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    /// Decides the fate of one frame.
    pub(crate) fn decide(&mut self) -> FaultDecision {
        let mut d = FaultDecision {
            deliver: true,
            corrupt_at: None,
            duplicate: false,
            extra_delay: 0,
        };
        if self.rng.gen_bool(self.cfg.drop) {
            self.stats.dropped += 1;
            d.deliver = false;
            return d;
        }
        if self.rng.gen_bool(self.cfg.corrupt) {
            self.stats.corrupted += 1;
            d.corrupt_at = Some(self.rng.next_u64() as usize);
        }
        if self.rng.gen_bool(self.cfg.duplicate) {
            self.stats.duplicated += 1;
            d.duplicate = true;
        }
        if self.rng.gen_bool(self.cfg.reorder) {
            self.stats.reordered += 1;
            d.extra_delay = self.cfg.reorder_delay;
        }
        d
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_config_never_faults() {
        let mut inj = FaultInjector::new(FaultConfig::none());
        for _ in 0..1000 {
            let d = inj.decide();
            assert!(d.deliver && d.corrupt_at.is_none() && !d.duplicate && d.extra_delay == 0);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultInjector::new(FaultConfig::harsh(42));
        let mut b = FaultInjector::new(FaultConfig::harsh(42));
        for _ in 0..500 {
            assert_eq!(a.decide(), b.decide());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultConfig::harsh(1));
        let mut b = FaultInjector::new(FaultConfig::harsh(2));
        let same = (0..200).filter(|_| a.decide() == b.decide()).count();
        assert!(same < 200, "seeds must matter");
    }

    #[test]
    fn harsh_rates_are_roughly_right() {
        let mut inj = FaultInjector::new(FaultConfig::harsh(7));
        for _ in 0..10_000 {
            inj.decide();
        }
        let s = inj.stats();
        // 15% drop → expect ~1500, allow wide slack.
        assert!((1000..2000).contains(&s.dropped), "{s:?}");
        assert!(s.corrupted > 500, "{s:?}");
    }

    #[test]
    fn drop_short_circuits_other_faults() {
        // A dropped frame must not also count as corrupted/duplicated.
        let cfg = FaultConfig {
            drop: 1.0,
            corrupt: 1.0,
            duplicate: 1.0,
            reorder: 1.0,
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..100 {
            let d = inj.decide();
            assert!(!d.deliver);
        }
        assert_eq!(inj.stats().corrupted, 0);
    }
}
