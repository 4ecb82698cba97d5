//! A1 — ablation: each PA mechanism toggled on its own.
//!
//! The paper argues for four mechanisms (header prediction + lazy
//! post-processing, cookies, packing, and — as future work — compiled
//! filters). This experiment quantifies each one's individual
//! contribution against the full PA, using the typical round trip and
//! the streaming throughput as the two scores.

use crate::gc::GcPolicy;
use crate::metrics::{us_f, Table};
use crate::node::PostSchedule;
use crate::sim::{AppBehavior, SimConfig, TwoNodeSim};

/// One ablated configuration's scores.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Configuration label.
    pub name: &'static str,
    /// Typical (unsaturated) RTT, ns.
    pub rtt: f64,
    /// Streaming throughput, 8-byte msgs/s.
    pub msgs_per_sec: f64,
}

/// The ablation results.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// All configurations; index 0 is the full PA.
    pub points: Vec<AblationPoint>,
}

fn score(name: &'static str, cfg: &SimConfig) -> AblationPoint {
    // Typical RTT: spaced round trips.
    let mut sim = TwoNodeSim::new(cfg);
    sim.set_behavior(0, AppBehavior::Sink);
    sim.set_behavior(1, AppBehavior::Echo);
    for i in 0..10u64 {
        sim.schedule_send(0, i * 10_000_000, 8);
    }
    sim.run_until(200_000_000);
    let rtt = sim.rtt.summary().mean;

    // Streaming throughput.
    let mut scfg = cfg.clone();
    scfg.gc = [GcPolicy::EveryN(16); 2];
    let mut sim = TwoNodeSim::new(&scfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    sim.schedule_stream(0, 0, 11_000, 20_000, 8);
    sim.run_until(10_000_000_000);
    let msgs = sim.delivered[1] as f64 / (sim.now() as f64 / 1e9);

    AblationPoint {
        name,
        rtt,
        msgs_per_sec: msgs,
    }
}

/// Runs the full PA plus each single-mechanism ablation.
pub fn run() -> Ablation {
    let full = SimConfig::paper();

    let mut no_predict = full.clone();
    no_predict.pa.predict = false;

    let mut no_cookies = full.clone();
    no_cookies.pa.cookies = false;

    let mut no_lazy = full.clone();
    no_lazy.pa.lazy_post = false;

    let mut no_packing = full.clone();
    no_packing.pa.packing = false;
    no_packing.pa.max_pack = 1;

    let mut compiled = full.clone();
    compiled.compiled_filter = true;

    Ablation {
        points: vec![
            score("full PA", &full),
            score("- prediction", &no_predict),
            score("- cookies", &no_cookies),
            score("- lazy post", &no_lazy),
            score("- packing", &no_packing),
            score("+ compiled filter", &compiled),
        ],
    }
}

impl Ablation {
    /// Renders the table.
    pub fn render(&self) -> String {
        let base = &self.points[0];
        let mut t = Table::new(&[
            "configuration",
            "RTT µs",
            "ΔRTT",
            "stream msgs/s",
            "Δstream",
        ]);
        for p in &self.points {
            t.row(&[
                p.name.into(),
                us_f(p.rtt),
                format!("{:+.0}%", (p.rtt / base.rtt - 1.0) * 100.0),
                format!("{:.0}", p.msgs_per_sec),
                format!(
                    "{:+.0}%",
                    (p.msgs_per_sec / base.msgs_per_sec - 1.0) * 100.0
                ),
            ]);
        }
        format!("Ablation: one PA mechanism at a time\n\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name<'a>(a: &'a Ablation, n: &str) -> &'a AblationPoint {
        a.points.iter().find(|p| p.name == n).expect("present")
    }

    #[test]
    fn removing_prediction_slows_the_round_trip() {
        let a = run();
        let full = by_name(&a, "full PA");
        let nopred = by_name(&a, "- prediction");
        assert!(
            nopred.rtt > full.rtt + 100_000.0,
            "prediction is worth >100 µs/rt: {} vs {}",
            nopred.rtt,
            full.rtt
        );
    }

    #[test]
    fn removing_lazy_post_puts_130us_back_on_the_path() {
        let a = run();
        let full = by_name(&a, "full PA");
        let nolazy = by_name(&a, "- lazy post");
        // Each side adds post-send (80) + post-deliver (50) inline.
        let delta = nolazy.rtt - full.rtt;
        assert!((150_000.0..=400_000.0).contains(&delta), "Δ {delta}");
    }

    #[test]
    fn removing_packing_kills_streaming_but_not_latency() {
        let a = run();
        let full = by_name(&a, "full PA");
        let nopack = by_name(&a, "- packing");
        assert!(nopack.msgs_per_sec < full.msgs_per_sec / 3.0);
        assert!(
            (nopack.rtt - full.rtt).abs() < 30_000.0,
            "latency unaffected"
        );
    }

    #[test]
    fn cookies_cost_is_modest_but_real() {
        let a = run();
        let full = by_name(&a, "full PA");
        let nocookie = by_name(&a, "- cookies");
        // ~75 extra bytes per frame over a 15 MB/s link ≈ +5 µs per leg.
        assert!(nocookie.rtt > full.rtt, "{} vs {}", nocookie.rtt, full.rtt);
        assert!(
            nocookie.rtt < full.rtt + 120_000.0,
            "but it is not the whole story"
        );
    }

    #[test]
    fn compiled_filter_shaves_a_little() {
        let a = run();
        let full = by_name(&a, "full PA");
        let comp = by_name(&a, "+ compiled filter");
        assert!(comp.rtt < full.rtt, "{} vs {}", comp.rtt, full.rtt);
    }
}
