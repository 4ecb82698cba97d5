//! §1/§7 — the headline comparison: the PA masks an order of magnitude.
//!
//! "Between two SunOS user processes … we achieve a roundtrip latency of
//! 170 µsec using the PA, down from about 1.5 milliseconds in the
//! original C version of Horus." The FOX project's SML TCP cost ~9.4×
//! its C counterpart, so a no-PA ML stack sits further out still.
//!
//! Three systems over the same simulated U-Net/ATM link:
//!
//! 1. **PA-ML** — the paper's system (our default config),
//! 2. **no-PA C** — traditional layered processing in C: framework and
//!    layer costs inline on the critical path, identification on every
//!    message, padded headers,
//! 3. **no-PA ML** — the same, at ML stack-code cost.

use crate::cost::CostModel;
use crate::metrics::{us_f, Table};
use crate::sim::{SimConfig, TwoNodeSim};
use pa_core::PaConfig;

/// One system's measured round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPoint {
    /// Label.
    pub name: &'static str,
    /// Paper's figure for it, ns (None where the paper gives none).
    pub paper_ns: Option<f64>,
    /// Measured mean RTT, ns.
    pub measured_ns: f64,
}

/// The headline comparison.
#[derive(Debug, Clone)]
pub struct Headline {
    /// The three systems.
    pub systems: Vec<SystemPoint>,
}

fn rtt_of(cfg: &SimConfig) -> f64 {
    let mut sim = TwoNodeSim::new(cfg);
    // 20 well-spaced round trips (10 ms apart — far below saturation
    // for every system here).
    sim.set_behavior(0, crate::sim::AppBehavior::Sink);
    sim.set_behavior(1, crate::sim::AppBehavior::Echo);
    for i in 0..20u64 {
        sim.schedule_send(0, i * 10_000_000, 8);
    }
    sim.run_until(400_000_000);
    sim.rtt.summary().mean
}

/// Runs the three systems.
pub fn run() -> Headline {
    let pa_ml = rtt_of(&SimConfig::paper());

    let mut no_pa_c = SimConfig::paper();
    no_pa_c.pa = PaConfig::no_pa_baseline();
    no_pa_c.cost = CostModel::paper_c;
    no_pa_c.baseline = true;
    let no_pa_c_rtt = rtt_of(&no_pa_c);

    let mut no_pa_ml = SimConfig::paper();
    no_pa_ml.pa = PaConfig::no_pa_baseline();
    no_pa_ml.cost = CostModel::paper_ml;
    no_pa_ml.baseline = true;
    let no_pa_ml_rtt = rtt_of(&no_pa_ml);

    Headline {
        systems: vec![
            SystemPoint {
                name: "ML stack + PA",
                paper_ns: Some(170_000.0),
                measured_ns: pa_ml,
            },
            SystemPoint {
                name: "C Horus, no PA",
                paper_ns: Some(1_500_000.0),
                measured_ns: no_pa_c_rtt,
            },
            SystemPoint {
                name: "ML stack, no PA",
                paper_ns: None,
                measured_ns: no_pa_ml_rtt,
            },
        ],
    }
}

impl Headline {
    /// Speedup of the PA system over system `i`.
    pub(crate) fn speedup_over(&self, i: usize) -> f64 {
        self.systems[i].measured_ns / self.systems[0].measured_ns
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["system", "paper RTT µs", "measured RTT µs", "vs PA"]);
        for (i, s) in self.systems.iter().enumerate() {
            t.row(&[
                s.name.into(),
                s.paper_ns.map_or("—".into(), us_f),
                us_f(s.measured_ns),
                format!("{:.1}×", self.speedup_over(i)),
            ]);
        }
        format!(
            "Headline: round-trip latency, PA vs layered baselines\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pa_is_about_170us() {
        let h = run();
        assert!(
            (160_000.0..=185_000.0).contains(&h.systems[0].measured_ns),
            "{:?}",
            h.systems[0]
        );
    }

    #[test]
    fn no_pa_c_is_about_1_5ms() {
        let h = run();
        let c = h.systems[1].measured_ns;
        assert!((1_200_000.0..=1_900_000.0).contains(&c), "C no-PA {c}");
    }

    #[test]
    fn pa_wins_by_an_order_of_magnitude() {
        let h = run();
        let s = h.speedup_over(1);
        assert!(
            (6.0..=12.0).contains(&s),
            "paper: ~8.8× (1.5 ms / 170 µs); got {s:.1}×"
        );
    }

    #[test]
    fn ml_without_pa_is_the_worst() {
        let h = run();
        assert!(h.systems[2].measured_ns > h.systems[1].measured_ns * 2.0);
        assert!(h.speedup_over(2) > 15.0, "{:.1}", h.speedup_over(2));
    }
}
