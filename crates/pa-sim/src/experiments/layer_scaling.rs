//! §5 — per-layer overhead: "we also measured the performance for a
//! stack where the layer that actually implemented the sliding window
//! was stacked twice … the post-processing of the send and delivery
//! operations take about 15 µsecs each. We did not find additional
//! overhead for garbage collection."
//!
//! The crucial observation the experiment supports: extra layers cost
//! *post-processing* time (off the critical path), so the typical round
//! trip is unchanged — only the saturation ceiling drops.

use crate::cost::CostModel;
use crate::metrics::{us, us_f, Table};
use crate::node::PathHistos;
use crate::sim::{SimConfig, TwoNodeSim};
use pa_stack::StackSpec;

/// Measurements for one stack depth.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthPoint {
    /// Number of window layers stacked.
    pub window_copies: usize,
    /// Total layers.
    pub layers: usize,
    /// Post-send cost per frame, ns (model).
    pub post_send_ns: u64,
    /// Post-deliver cost per frame, ns (model).
    pub post_deliver_ns: u64,
    /// Typical (unsaturated) RTT, ns.
    pub typical_rtt: f64,
    /// Saturated closed-loop rate, rt/s.
    pub saturated_rate: f64,
    /// Fast- vs slow-path cost distributions, merged over both nodes
    /// and both runs (p50/p90/p99 in the rendered table).
    pub histos: PathHistos,
}

/// The layer-scaling experiment.
#[derive(Debug, Clone)]
pub struct LayerScaling {
    /// One point per stack depth.
    pub points: Vec<DepthPoint>,
}

fn measure(window_copies: usize) -> DepthPoint {
    let spec = StackSpec {
        window_copies,
        ..StackSpec::paper()
    };
    let names: Vec<String> = spec.build().iter().map(|l| l.name().to_string()).collect();
    let model = CostModel::paper_ml(names);

    let mut cfg = SimConfig::paper();
    cfg.stack = spec.clone();

    let mut histos = PathHistos::default();

    // Typical RTT: spaced round trips.
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(0, crate::sim::AppBehavior::Sink);
    sim.set_behavior(1, crate::sim::AppBehavior::Echo);
    for i in 0..10u64 {
        sim.schedule_send(0, i * 5_000_000, 8);
    }
    sim.run_until(100_000_000);
    let typical_rtt = sim.rtt.summary().mean;
    for node in &sim.nodes {
        histos.merge(&node.histos);
    }

    // Saturated rate: back-to-back.
    let mut cfg2 = cfg.clone();
    cfg2.gc = [crate::gc::GcPolicy::EveryN(64); 2];
    let mut sim = TwoNodeSim::new(&cfg2);
    sim.nodes[0].schedule = crate::node::PostSchedule::WhenIdle;
    sim.arm_closed_loop(500, 8, 0);
    sim.run_until(2_000_000_000);
    let saturated_rate = sim.round_trips as f64 / (sim.now() as f64 / 1e9);
    for node in &sim.nodes {
        histos.merge(&node.histos);
    }

    // Lossy variant: drops force retransmissions, which defeat the
    // header prediction — this is what populates the *slow*-path
    // histograms, so the export can show fast vs slow side by side.
    let mut cfg3 = cfg.clone();
    cfg3.faults = pa_unet::FaultConfig {
        drop: 0.1,
        seed: 5,
        ..pa_unet::FaultConfig::none()
    };
    cfg3.tick_every = Some(2_000_000);
    let mut sim = TwoNodeSim::new(&cfg3);
    sim.set_behavior(1, crate::sim::AppBehavior::Sink);
    sim.nodes[0].schedule = crate::node::PostSchedule::WhenIdle;
    sim.schedule_stream(0, 0, 500_000, 40, 8);
    sim.run_until(3_000_000_000);
    for node in &sim.nodes {
        histos.merge(&node.histos);
    }

    DepthPoint {
        window_copies,
        layers: spec.layer_count(),
        post_send_ns: model.post_send_frame(),
        post_deliver_ns: model.post_deliver_frame(),
        typical_rtt,
        saturated_rate,
        histos,
    }
}

/// Runs depths 1..=3 (the paper measured 1 and 2).
pub fn run() -> LayerScaling {
    LayerScaling {
        points: (1..=3).map(measure).collect(),
    }
}

impl LayerScaling {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "window copies",
            "layers",
            "post-send µs",
            "post-deliver µs",
            "typical RTT µs",
            "max rt/s",
        ]);
        for p in &self.points {
            t.row(&[
                p.window_copies.to_string(),
                p.layers.to_string(),
                us(p.post_send_ns),
                us(p.post_deliver_ns),
                us_f(p.typical_rtt),
                format!("{:.0}", p.saturated_rate),
            ]);
        }
        let mut out = format!(
            "Layer scaling (paper: doubling the window layer adds ~15 µs to each post phase,\nno extra GC, critical path unchanged)\n\n{}",
            t.render()
        );

        // Per-path cost distributions: the histogram evidence behind the
        // claim. Fast paths should be depth-independent; slow paths grow.
        let mut h = Table::new(&[
            "window copies",
            "path",
            "n",
            "p50 µs",
            "p90 µs",
            "p99 µs",
            "max µs",
        ]);
        for p in &self.points {
            for (path, s) in p.histos.summaries() {
                h.row(&[
                    p.window_copies.to_string(),
                    path.to_string(),
                    s.count.to_string(),
                    us(s.p50),
                    us(s.p90),
                    us(s.p99),
                    us(s.max),
                ]);
            }
        }
        out.push_str("\nPer-path cost distributions (merged over both nodes):\n\n");
        out.push_str(&h.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_window_adds_15us_to_each_post_phase() {
        let r = run();
        assert_eq!(r.points[1].post_send_ns - r.points[0].post_send_ns, 15_000);
        assert_eq!(
            r.points[1].post_deliver_ns - r.points[0].post_deliver_ns,
            15_000
        );
    }

    #[test]
    fn typical_rtt_unchanged_by_extra_layers() {
        // The masking claim itself: post costs are off the critical
        // path, so the spaced round trip stays ~170 µs at any depth.
        let r = run();
        for p in &r.points {
            assert!(
                (160_000.0..=190_000.0).contains(&p.typical_rtt),
                "depth {}: {}",
                p.window_copies,
                p.typical_rtt
            );
        }
    }

    #[test]
    fn histogram_export_reports_fast_vs_slow_percentiles() {
        let r = run();
        for p in &r.points {
            assert!(p.histos.fast_send.count() > 0, "depth {}", p.window_copies);
            // The typical fast send is depth-independent: 25 µs, exactly
            // at the minimum and to the sketch's 1 % at the median.
            for fast in [&p.histos.fast_send, &p.histos.fast_deliver] {
                assert_eq!(fast.min(), 25_000);
                assert!(fast.p50().abs_diff(25_000) <= 250, "{}", fast.p50());
            }
            // The lossy run defeats the prediction, so slow paths appear
            // too — and a slow delivery costs strictly more than a fast
            // one even at the median.
            assert!(
                p.histos.slow_deliver.count() > 0,
                "depth {}",
                p.window_copies
            );
            assert!(p.histos.slow_deliver.p50() > p.histos.fast_deliver.p50());
        }
        // Slow deliveries traverse every layer: cost grows with depth.
        assert!(
            r.points[2].histos.slow_deliver.max() > r.points[0].histos.slow_deliver.max(),
            "{} vs {}",
            r.points[2].histos.slow_deliver.max(),
            r.points[0].histos.slow_deliver.max()
        );
        let rendered = r.render();
        assert!(rendered.contains("p99"), "{rendered}");
        assert!(rendered.contains("fast_send"), "{rendered}");
        assert!(rendered.contains("slow_deliver"), "{rendered}");
    }

    #[test]
    fn saturation_ceiling_drops_with_depth() {
        let r = run();
        assert!(
            r.points[0].saturated_rate > r.points[1].saturated_rate,
            "{} vs {}",
            r.points[0].saturated_rate,
            r.points[1].saturated_rate
        );
        assert!(r.points[1].saturated_rate > r.points[2].saturated_rate);
    }
}
