//! §3.4/§5 — message packing: one-way streaming throughput.
//!
//! "The packing technique used by the PA also improves one-way streaming
//! performance. For example, we are able to sustain about 80,000 8-byte
//! messages per second … In addition, we achieve the full bandwidth of
//! the underlying communication network (in this case about
//! 15 Mbytes/sec)." Without packing, every message pays its own
//! post-processing, and throughput collapses to roughly
//! 1 / (fast-send + post-send) ≈ 9.5k msgs/s.

use crate::gc::GcPolicy;
use crate::metrics::Table;
use crate::node::PostSchedule;
use crate::sim::{AppBehavior, SimConfig, TwoNodeSim};

/// One streaming measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPoint {
    /// Message size, bytes.
    pub size: usize,
    /// Packing enabled?
    pub packing: bool,
    /// Sustained messages per second.
    pub msgs_per_sec: f64,
    /// Sustained payload bandwidth, bytes/s.
    pub bytes_per_sec: f64,
    /// Mean messages per frame achieved.
    pub msgs_per_frame: f64,
}

/// The packing experiment.
#[derive(Debug, Clone)]
pub struct Packing {
    /// Sweep over sizes × packing on/off.
    pub points: Vec<StreamPoint>,
}

fn stream(size: usize, packing: bool) -> StreamPoint {
    let mut cfg = SimConfig::paper();
    cfg.gc = [GcPolicy::EveryN(16); 2];
    cfg.pa.packing = packing;
    if !packing {
        cfg.pa.max_pack = 1;
    }
    // Keep packed frames under the 4 KB frag MTU.
    if size >= 512 {
        cfg.pa.max_pack = cfg.pa.max_pack.min((4096 / (size + 16)).max(1));
    }
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    let n: u64 = if packing { 30_000 } else { 4_000 };
    // Offer just above the expected ceiling for each mode.
    let interval = if packing { 11_000 } else { 80_000 };
    sim.schedule_stream(0, 0, interval, n, size);
    sim.run_until(20_000_000_000);
    let secs = sim.now() as f64 / 1e9;
    let frames = sim.nodes[1].conns[0].stats().frames_in.max(1);
    StreamPoint {
        size,
        packing,
        msgs_per_sec: sim.delivered[1] as f64 / secs,
        bytes_per_sec: (sim.delivered[1] as f64 * size as f64) / secs,
        msgs_per_frame: sim.delivered[1] as f64 / frames as f64,
    }
}

/// Runs the sweep (8 B with and without packing, plus 1 KB bandwidth).
pub fn run() -> Packing {
    Packing {
        points: vec![
            stream(8, true),
            stream(8, false),
            stream(1024, true),
            stream(1024, false),
        ],
    }
}

impl Packing {
    /// Throughput ratio packed/unpacked at 8 bytes.
    pub fn packing_speedup(&self) -> f64 {
        self.points[0].msgs_per_sec / self.points[1].msgs_per_sec
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["size B", "packing", "msgs/s", "MB/s", "msgs/frame"]);
        for p in &self.points {
            t.row(&[
                p.size.to_string(),
                if p.packing { "on" } else { "off" }.into(),
                format!("{:.0}", p.msgs_per_sec),
                format!("{:.2}", p.bytes_per_sec / 1e6),
                format!("{:.1}", p.msgs_per_frame),
            ]);
        }
        format!(
            "Message packing (paper: ~80,000 8-B msgs/s and full 15 MB/s with 1 KB msgs)\n\n{}\npacking speedup at 8 B: {:.1}×\n",
            t.render(),
            self.packing_speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_8b_throughput_near_80k() {
        let p = stream(8, true);
        assert!(
            (55_000.0..=110_000.0).contains(&p.msgs_per_sec),
            "packed: {} msgs/s",
            p.msgs_per_sec
        );
        assert!(
            p.msgs_per_frame > 4.0,
            "packing must amortize: {}",
            p.msgs_per_frame
        );
    }

    #[test]
    fn unpacked_8b_throughput_collapses() {
        let p = stream(8, false);
        assert!(
            (5_000.0..=16_000.0).contains(&p.msgs_per_sec),
            "unpacked: {} msgs/s",
            p.msgs_per_sec
        );
        assert!(p.msgs_per_frame <= 1.01);
    }

    #[test]
    fn packing_wins_by_several_x() {
        let r = run();
        assert!(r.packing_speedup() > 4.0, "{:.1}", r.packing_speedup());
    }

    #[test]
    fn kilobyte_messages_reach_line_rate_with_packing() {
        let p = stream(1024, true);
        assert!(
            (11e6..=15.5e6).contains(&p.bytes_per_sec),
            "1 KB packed bandwidth {} B/s",
            p.bytes_per_sec
        );
    }
}
