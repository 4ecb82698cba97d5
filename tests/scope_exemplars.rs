//! Exemplar determinism and the aggregate-to-journey drill-down.
//!
//! Exemplars are only trustworthy if (a) a run reproduces bit-for-bit
//! under the same seed — the reservoirs are seeded [`SplitMix64`], not
//! wall clock — and (b) the journey id an exemplar carries resolves to
//! a journey the trace rings actually reconstruct, so an aggregate
//! anomaly (a slow sketch bucket) drills down to a concrete causal
//! trace instead of a dangling pointer.

use pa::obs::rng::{Rng, SplitMix64};
use pa::obs::{render_journey_id, Exemplar, ExemplarSet, XrayTag};
use pa::sim::churn::{ChurnConfig, ChurnSim};
use pa::sim::{AppBehavior, PostSchedule, SimConfig, TwoNodeSim};

/// Offers the same seeded stream into a fresh reservoir set.
fn run_reservoir(set_seed: u64, stream_seed: u64, n: u64) -> ExemplarSet {
    let mut set = ExemplarSet::new(4, 4, set_seed);
    let mut rng = SplitMix64::new(stream_seed);
    for i in 0..n {
        let value = 1 + (rng.next_u64() % (1 << 20));
        set.offer(Exemplar {
            value,
            at: i * 1_000,
            journey: (7 << 32) | i,
            tag: XrayTag::none(),
        });
    }
    set
}

#[test]
fn reservoirs_are_deterministic_under_a_seed() {
    let a = run_reservoir(0xE4E4, 0x51AE, 4_096);
    let b = run_reservoir(0xE4E4, 0x51AE, 4_096);
    assert_eq!(a.offered(), b.offered());
    assert_eq!(a.evicted(), b.evicted());
    let (av, bv): (Vec<_>, Vec<_>) = (a.iter().collect(), b.iter().collect());
    assert_eq!(av, bv, "same seed, same stream => identical exemplars");
    assert!(!av.is_empty());

    // And the seed genuinely matters: a different reservoir seed over
    // the same stream keeps different survivors.
    let c = run_reservoir(0xE4E5, 0x51AE, 4_096);
    assert_eq!(c.offered(), a.offered(), "offer accounting is seed-free");
    let cv: Vec<_> = c.iter().collect();
    assert_ne!(av, cv, "reservoir seed must steer Algorithm R");
}

#[test]
fn churn_telemetry_reproduces_bit_for_bit() {
    // The whole telemetry plane — sketches, reservoirs, watchdog,
    // Prometheus rendering — is a pure function of the churn seed.
    // Compare the rendered exposition: it covers every series, every
    // bucket, every exemplar annotation.
    let mut a = ChurnSim::new(ChurnConfig::small());
    let mut b = ChurnSim::new(ChurnConfig::small());
    a.run();
    b.run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(
        a.plane().to_prometheus("latency_ns", 64),
        b.plane().to_prometheus("latency_ns", 64),
        "seeded churn must render identical telemetry"
    );
}

#[test]
fn exemplars_drill_down_to_reconstructed_journeys() {
    // Traced two-node run with the scope plane attached: every sampled
    // exemplar (cluster, endpoint, and conn level) names a journey id
    // that the merged trace rings reconstruct end to end.
    let mut sim = TwoNodeSim::new(&SimConfig::traced());
    sim.enable_tracing(4096);
    sim.attach_scope(pa::obs::ScopeConfig::default());
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    sim.schedule_stream(0, 0, 200_000, 80, 8);
    sim.run_until(200_000_000);
    assert_eq!(sim.delivered[1], 80);

    let set = sim.journeys();
    assert!(!set.is_empty(), "traced run reconstructs journeys");
    let plane = sim.scope_plane().expect("attached");
    let mut checked = 0usize;
    let series = std::iter::once(plane.cluster())
        .chain(plane.endpoints().map(|(_, s)| s))
        .chain(plane.conns().map(|(_, s)| s));
    for s in series {
        for ex in s.exemplars().iter() {
            assert!(ex.journey != 0, "traced exemplars carry journey ids");
            let journey = set
                .journeys()
                .iter()
                .find(|j| j.id == ex.journey)
                .unwrap_or_else(|| {
                    panic!(
                        "exemplar journey {} does not resolve",
                        render_journey_id(ex.journey)
                    )
                });
            // The drill-down is usable: the journey has real hops and
            // covers the exemplar's timestamp.
            assert!(!journey.hops.is_empty(), "journey has hops");
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} exemplars sampled");
}
