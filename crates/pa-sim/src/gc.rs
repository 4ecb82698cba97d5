//! The garbage-collection cost model.
//!
//! §5: "Garbage collection, in this case, takes between 150 and 450
//! µsecs, with an average of about 300 µsecs … For predictable results
//! without hiccups, we triggered garbage collection after every message
//! reception." §5 then shows that collecting only occasionally raises
//! the round-trip ceiling from ~1900/s to ~6000/s at the price of
//! millisecond hiccups, and §6 reports that explicit allocation of
//! high-bandwidth objects makes collections "reduce dramatically".

use crate::Nanos;
use pa_obs::rng::{Rng, SplitMix64};

/// When the collector runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// After every message reception (the paper's measured default —
    /// Figure 5's solid line).
    EveryReception,
    /// After every `n` receptions (Figure 5's dashed line; the paper's
    /// "occasionally" with ~1 ms hiccups).
    EveryN(u32),
    /// Never — the §6 explicit-pool discipline (high-bandwidth objects
    /// recycled by hand; in our Rust implementation this is literally
    /// [`pa_buf::MsgPool`]).
    Never,
}

/// The GC model for one node.
#[derive(Debug)]
pub struct GcModel {
    policy: GcPolicy,
    min_pause: Nanos,
    max_pause: Nanos,
    rng: SplitMix64,
    receptions: u32,
}

impl GcModel {
    /// The paper's collector: 150–450 µs pauses.
    pub(crate) fn paper(policy: GcPolicy, seed: u64) -> GcModel {
        GcModel {
            policy,
            min_pause: 150_000,
            max_pause: 450_000,
            rng: SplitMix64::new(seed),
            receptions: 0,
        }
    }

    /// Called after each reception; returns the pause to charge, if a
    /// collection triggers now.
    pub(crate) fn on_reception(&mut self) -> Option<Nanos> {
        self.receptions += 1;
        let due = match self.policy {
            GcPolicy::EveryReception => true,
            GcPolicy::EveryN(n) => self.receptions.is_multiple_of(n.max(1)),
            GcPolicy::Never => false,
        };
        if !due {
            return None;
        }
        Some(self.rng.gen_range_inclusive(self.min_pause, self.max_pause))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reception_always_pauses() {
        let mut gc = GcModel::paper(GcPolicy::EveryReception, 1);
        for _ in 0..100 {
            let p = gc.on_reception().expect("collects every time");
            assert!((150_000..=450_000).contains(&p));
        }
    }

    #[test]
    fn mean_pause_is_near_300us() {
        let mut gc = GcModel::paper(GcPolicy::EveryReception, 2);
        let total: Nanos = (0..10_000).filter_map(|_| gc.on_reception()).sum();
        let mean = total / 10_000;
        assert!((280_000..=320_000).contains(&mean), "mean {mean}");
    }

    #[test]
    fn every_n_spaces_collections() {
        let mut gc = GcModel::paper(GcPolicy::EveryN(10), 3);
        let mut pauses = 0;
        for _ in 0..100 {
            if gc.on_reception().is_some() {
                pauses += 1;
            }
        }
        assert_eq!(pauses, 10);
    }

    #[test]
    fn never_never_pauses() {
        let mut gc = GcModel::paper(GcPolicy::Never, 4);
        for _ in 0..1000 {
            assert!(gc.on_reception().is_none());
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let collect = |seed| {
            let mut gc = GcModel::paper(GcPolicy::EveryReception, seed);
            (0..50)
                .map(|_| gc.on_reception().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }
}
