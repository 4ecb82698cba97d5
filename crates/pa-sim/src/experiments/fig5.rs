//! Figure 5 — "The round-trip latency as a function of the number of
//! round-trips per second."
//!
//! Solid line: a garbage collection after every round trip — latency
//! holds at ~170 µs until ~1650 rt/s, then climbs as requests queue
//! behind post-processing + GC; the achievable maximum is ~1900 rt/s.
//! Dashed line: collecting only occasionally lifts the ceiling to
//! ~6000 rt/s (with millisecond hiccups, §5/§6).
//!
//! We sweep offered load open-loop (requests at fixed spacing) and
//! record the mean measured RTT and the achieved rate per offered rate.

use crate::gc::GcPolicy;
use crate::metrics::{us_f, Table};
use crate::sim::{AppBehavior, SimConfig, TwoNodeSim};

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Offered round trips per second.
    pub offered: f64,
    /// Achieved round trips per second.
    pub achieved: f64,
    /// Mean round-trip latency, ns.
    pub mean_rtt: f64,
    /// 99th-percentile latency, ns.
    pub p99_rtt: f64,
}

/// The two series of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// GC after every reception (the solid line).
    pub gc_every: Vec<Point>,
    /// Occasional GC (the dashed line).
    pub gc_occasional: Vec<Point>,
}

fn measure(offered: f64, gc: GcPolicy) -> Point {
    let mut cfg = SimConfig::paper();
    cfg.gc = [gc; 2];
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(0, AppBehavior::Sink); // RTT recorded by origin match
    sim.set_behavior(1, AppBehavior::Echo);
    // Figure 5 measures blocking RPCs: one outstanding request, the
    // rest queue at the client (their latency includes the wait).
    sim.set_rpc_mode(true);
    sim.set_logging(false);
    // The client post-processes while waiting for the reply — the
    // adaptive scheduling behind the paper's 6000 rt/s analysis ("all
    // of the post-processing is done between the actual sending and
    // delivery of the messages").
    sim.nodes[0].schedule = crate::node::PostSchedule::WhenIdle;
    let interval = (1e9 / offered) as u64;
    let duration: u64 = 300_000_000; // 300 ms of offered load
    let count = duration / interval.max(1);
    sim.schedule_stream(0, 0, interval.max(1), count, 8);
    sim.run_until(duration + 100_000_000);
    let s = sim.rtt.summary();
    Point {
        offered,
        achieved: sim.round_trips as f64 / (sim.now() as f64 / 1e9),
        mean_rtt: s.mean,
        p99_rtt: s.p99,
    }
}

/// The offered-load grid (rt/s).
pub(crate) fn offered_grid() -> Vec<f64> {
    vec![
        250.0, 500.0, 1000.0, 1500.0, 1650.0, 1800.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0,
    ]
}

/// Runs both series over the grid.
pub fn run() -> Fig5 {
    let grid = offered_grid();
    Fig5 {
        gc_every: grid
            .iter()
            .map(|&r| measure(r, GcPolicy::EveryReception))
            .collect(),
        gc_occasional: grid
            .iter()
            .map(|&r| measure(r, GcPolicy::EveryN(64)))
            .collect(),
    }
}

impl Fig5 {
    /// Renders both series as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "offered rt/s",
            "solid: achieved",
            "solid: RTT µs",
            "dashed: achieved",
            "dashed: RTT µs",
        ]);
        for (a, b) in self.gc_every.iter().zip(&self.gc_occasional) {
            t.row(&[
                format!("{:.0}", a.offered),
                format!("{:.0}", a.achieved),
                us_f(a.mean_rtt),
                format!("{:.0}", b.achieved),
                us_f(b.mean_rtt),
            ]);
        }
        format!(
            "Figure 5: RTT vs offered round trips/s\n(paper: solid knee ~1650 rt/s, ceiling ~1900; dashed ceiling ~6000)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_latency_is_170us_under_both_policies() {
        for gc in [GcPolicy::EveryReception, GcPolicy::EveryN(64)] {
            let p = measure(500.0, gc);
            assert!(
                (160_000.0..=200_000.0).contains(&p.mean_rtt),
                "{gc:?}: {} ns at 500 rt/s",
                p.mean_rtt
            );
            assert!((p.achieved - 500.0).abs() < 50.0, "{}", p.achieved);
        }
    }

    #[test]
    fn gc_every_saturates_near_1900() {
        let p = measure(4000.0, GcPolicy::EveryReception);
        assert!(
            (1_300.0..=2_600.0).contains(&p.achieved),
            "solid-line ceiling: {} rt/s",
            p.achieved
        );
        assert!(p.mean_rtt > 300_000.0, "overload latency {}", p.mean_rtt);
    }

    #[test]
    fn occasional_gc_keeps_up_well_past_the_solid_knee() {
        let p = measure(3000.0, GcPolicy::EveryN(64));
        assert!((p.achieved - 3000.0).abs() < 300.0, "{}", p.achieved);
        assert!(p.mean_rtt < 400_000.0, "{}", p.mean_rtt);
    }

    #[test]
    fn crossover_ordering_holds() {
        // At 1800 rt/s the solid line is already degraded, the dashed
        // one is not.
        let solid = measure(1800.0, GcPolicy::EveryReception);
        let dashed = measure(1800.0, GcPolicy::EveryN(64));
        assert!(
            solid.mean_rtt > dashed.mean_rtt * 1.3,
            "solid {} vs dashed {}",
            solid.mean_rtt,
            dashed.mean_rtt
        );
    }
}
