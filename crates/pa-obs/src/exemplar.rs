//! Reservoir-sampled exemplars: the bridge from aggregate sketches
//! back to concrete causal traces.
//!
//! A [`QuantileSketch`](crate::QuantileSketch) can say "p99 spiked";
//! it cannot say *which message* — that link is what PR 2/3's journeys
//! and [`XrayTag`]s exist for. An [`ExemplarSet`] keeps a bounded,
//! deterministic sample of concrete observations alongside a sketch:
//! each [`Exemplar`] carries the sampled value, its virtual timestamp,
//! the journey id (resolvable against a
//! [`JourneySet`](crate::JourneySet)) and the [`XrayTag`] that
//! attributes the slow-path excursion, so an aggregate anomaly
//! drills down to one offending message without keeping per-message
//! state.
//!
//! Sampling is Vitter's Algorithm R per **octave band** (log2 of the
//! value):
//! a single reservoir over all samples would be swamped by the fast
//! path and never retain a tail exemplar, so the set keeps the highest
//! `max_bands` octaves seen, each with its own small reservoir. All
//! randomness comes from a caller-seeded [`SplitMix64`], so two runs
//! over the same stream produce byte-identical exemplar sets —
//! eviction is explicit ([`ExemplarSet::evicted`]), never silent.

use crate::event::Nanos;
use crate::rng::{Rng, SplitMix64};
use crate::xray::XrayTag;

/// One concrete sampled observation, linkable back to its journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The sampled value (nanoseconds, by convention).
    pub value: u64,
    /// Virtual time the observation was recorded.
    pub at: Nanos,
    /// Journey id (`journey_id(origin, seq)`), 0 when the stream is
    /// untraced.
    pub journey: u64,
    /// The attribution tag charged for this observation
    /// ([`XrayTag::none`] for fast-path samples).
    pub tag: XrayTag,
}

/// One octave band: an Algorithm-R reservoir over samples whose value
/// has the same bit length.
#[derive(Debug, Clone, PartialEq)]
struct Band {
    octave: u8,
    /// Samples offered to this band since it (re)opened.
    seen: u64,
    rng: SplitMix64,
    slots: Vec<Exemplar>,
}

impl Band {
    fn new(octave: u8, per_band: usize, seed: u64) -> Band {
        // Band-local stream derived from (seed, octave): a band evicted
        // and later reopened replays the same draw sequence, keeping
        // whole-run determinism.
        let mut rng = SplitMix64::new(seed ^ (octave as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let _ = rng.next_u64(); // decorrelate nearby octaves
        let mut slots = Vec::new();
        slots.reserve_exact(per_band);
        Band {
            octave,
            seen: 0,
            rng,
            slots,
        }
    }

    fn offer(&mut self, ex: Exemplar, per_band: usize) -> u64 {
        self.seen += 1;
        if self.slots.len() < per_band {
            self.slots.push(ex);
            return 0;
        }
        let j = self.rng.gen_index(self.seen as usize);
        if j < per_band {
            self.slots[j] = ex;
        }
        1
    }
}

/// The octave a value sorts into (0 for 0, else bit length).
#[inline]
pub(crate) fn octave_of(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// A bounded, deterministic set of [`Exemplar`]s banded by value
/// octave. Keeps the `max_bands` *highest* octaves seen — the tail is
/// where drill-down matters; low-band arrivals once the set is full
/// are counted in [`ExemplarSet::sampled_out`], not silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct ExemplarSet {
    /// Bands sorted ascending by octave.
    bands: Vec<Band>,
    max_bands: usize,
    per_band: usize,
    seed: u64,
    offered: u64,
    /// Exemplars displaced: full-reservoir offers (the incoming or a
    /// retained exemplar loses the draw) plus whole-band evictions.
    evicted: u64,
    /// Offers refused outright (octave below every retained band).
    sampled_out: u64,
}

impl ExemplarSet {
    /// An empty set keeping at most `max_bands` octaves of `per_band`
    /// exemplars each, all randomness derived from `seed`.
    pub fn new(max_bands: usize, per_band: usize, seed: u64) -> ExemplarSet {
        assert!(max_bands >= 1 && per_band >= 1);
        let mut bands = Vec::new();
        bands.reserve_exact(max_bands);
        ExemplarSet {
            bands,
            max_bands,
            per_band,
            seed,
            offered: 0,
            evicted: 0,
            sampled_out: 0,
        }
    }

    /// Offers one observation for sampling.
    pub fn offer(&mut self, ex: Exemplar) {
        self.offered += 1;
        let octave = octave_of(ex.value);
        match self.bands.binary_search_by_key(&octave, |b| b.octave) {
            Ok(i) => {
                self.evicted += self.bands[i].offer(ex, self.per_band);
            }
            Err(i) => {
                if self.bands.len() < self.max_bands {
                    self.bands
                        .insert(i, Band::new(octave, self.per_band, self.seed));
                    self.evicted += self.bands[i].offer(ex, self.per_band);
                } else if i > 0 {
                    // Full, and the new octave outranks the lowest band:
                    // evict it (counted) and open the new one.
                    let dropped = self.bands.remove(0);
                    self.evicted += dropped.slots.len() as u64;
                    let i = i - 1;
                    self.bands
                        .insert(i, Band::new(octave, self.per_band, self.seed));
                    self.evicted += self.bands[i].offer(ex, self.per_band);
                } else {
                    self.sampled_out += 1;
                }
            }
        }
    }

    /// All retained exemplars, bands ascending, arrival order within a
    /// band's reservoir.
    pub fn iter(&self) -> impl Iterator<Item = &Exemplar> {
        self.bands.iter().flat_map(|b| b.slots.iter())
    }

    /// Number of retained exemplars.
    pub(crate) fn len(&self) -> usize {
        self.bands.iter().map(|b| b.slots.len()).sum()
    }

    /// A retained exemplar representative for values up to `edge`:
    /// the highest band at or below `edge`'s octave. Used to attach
    /// exemplars to exported histogram buckets.
    pub(crate) fn for_value(&self, edge: u64) -> Option<&Exemplar> {
        let octave = octave_of(edge);
        self.bands
            .iter()
            .rev()
            .find(|b| b.octave <= octave && !b.slots.is_empty())
            .and_then(|b| b.slots.iter().max_by_key(|e| e.value))
    }

    /// Observations offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Exemplars displaced by reservoir replacement or band eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Offers refused because their octave was below every retained
    /// band of a full set.
    pub(crate) fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Heap + inline footprint in bytes (capacity-accurate).
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<ExemplarSet>()
            + self.bands.capacity() * std::mem::size_of::<Band>()
            + self
                .bands
                .iter()
                .map(|b| b.slots.capacity() * std::mem::size_of::<Exemplar>())
                .sum::<usize>()
    }

    /// Worst-case footprint for this shape, for budget admission.
    pub(crate) fn mem_bytes_cap(max_bands: usize, per_band: usize) -> usize {
        std::mem::size_of::<ExemplarSet>()
            + max_bands * (std::mem::size_of::<Band>() + per_band * std::mem::size_of::<Exemplar>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(value: u64, at: Nanos) -> Exemplar {
        Exemplar {
            value,
            at,
            journey: (7 << 32) | at,
            tag: XrayTag::none(),
        }
    }

    #[test]
    fn octaves_match_histo_buckets() {
        assert_eq!(octave_of(0), 0);
        assert_eq!(octave_of(1), 1);
        assert_eq!(octave_of(255), 8);
        assert_eq!(octave_of(256), 9);
    }

    #[test]
    fn keeps_the_highest_bands() {
        let mut set = ExemplarSet::new(2, 2, 42);
        for (i, v) in [10u64, 100, 1_000, 10_000, 100_000].iter().enumerate() {
            set.offer(ex(*v, i as u64));
        }
        let octaves: Vec<u8> = set.bands.iter().map(|b| b.octave).collect();
        assert_eq!(octaves, vec![octave_of(10_000), octave_of(100_000)]);
        assert!(set.evicted() > 0, "displaced bands are counted");
        // A later low offer is refused, visibly.
        set.offer(ex(10, 99));
        assert_eq!(set.sampled_out(), 1);
    }

    #[test]
    fn identical_streams_yield_identical_sets() {
        let run = || {
            let mut set = ExemplarSet::new(4, 2, 0x5C0F);
            let mut rng = SplitMix64::new(7);
            for i in 0..10_000u64 {
                set.offer(ex(rng.gen_range_inclusive(1, 1 << 20), i));
            }
            set
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn for_value_finds_the_band() {
        let mut set = ExemplarSet::new(4, 2, 1);
        for v in [5u64, 900, 17, 40_000] {
            set.offer(ex(v, v));
        }
        assert!(set.for_value(1_000).expect("band").value <= 1_023);
    }

    #[test]
    fn memory_stays_capped() {
        let mut set = ExemplarSet::new(3, 4, 9);
        let mut rng = SplitMix64::new(3);
        for i in 0..50_000u64 {
            set.offer(ex(rng.next_u64() >> (i % 60), i));
        }
        assert!(set.len() <= 12);
        assert!(set.mem_bytes() <= ExemplarSet::mem_bytes_cap(3, 4));
        assert_eq!(
            set.offered(),
            50_000,
            "every offer is accounted: retained + evicted + sampled_out + replaced"
        );
    }
}
