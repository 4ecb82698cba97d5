//! Table 4 — "The basic performance of the O'Caml protocol stack using
//! the Protocol Accelerator."
//!
//! | What | Paper |
//! |---|---|
//! | one-way latency | 85 µs |
//! | message throughput | 80,000 msgs/s |
//! | #roundtrips/sec | 6,000 rt/s |
//! | bandwidth (1 KB msgs) | 15 MB/s |
//!
//! 8-byte user messages except for the bandwidth row. The throughput
//! and round-trip rows use occasional collection (the paper states 6000
//! rt/s is reached "by not garbage collecting every time"); the one-way
//! row is GC-independent.

use crate::gc::GcPolicy;
use crate::metrics::{us_f, Table};
use crate::node::PostSchedule;
use crate::sim::{AppBehavior, SimConfig, TwoNodeSim};

/// Measured Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4 {
    /// One-way latency for an 8-byte message, ns.
    pub one_way_ns: f64,
    /// Sustained one-way message throughput, msgs/s (8-byte messages).
    pub msgs_per_sec: f64,
    /// Closed-loop round trips per second (8-byte messages).
    pub roundtrips_per_sec: f64,
    /// Sustained bandwidth with 1 KB messages, bytes/s.
    pub bandwidth_bytes_per_sec: f64,
}

/// Runs all four rows.
pub fn run() -> Table4 {
    Table4 {
        one_way_ns: one_way_latency(),
        msgs_per_sec: message_throughput(),
        roundtrips_per_sec: roundtrip_rate(),
        bandwidth_bytes_per_sec: bandwidth(),
    }
}

/// One 8-byte message, quiet system: app-send to app-delivery.
/// Steady state — a warm-up message establishes the cookie first (the
/// paper's 85 µs excludes the identified first frame).
pub(crate) fn one_way_latency() -> f64 {
    let mut sim = TwoNodeSim::new(&SimConfig::paper());
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle; // pure sender
    sim.schedule_send(0, 0, 8); // warm-up, carries the ident
    sim.schedule_send(0, 5_000_000, 8);
    sim.run_until(50_000_000);
    sim.one_way.summary().min
}

/// One-way streaming of 8-byte messages; the PA's packing amortizes
/// per-frame costs over backlog runs.
pub(crate) fn message_throughput() -> f64 {
    let mut cfg = SimConfig::paper();
    cfg.gc = [GcPolicy::EveryN(16); 2];
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    let n: u64 = 40_000;
    // Offer slightly above the expected capacity so the backlog always
    // has a run to pack.
    let interval = 11_000; // 11 µs ≈ 90k msgs/s offered
    sim.schedule_stream(0, 0, interval, n, 8);
    sim.run_until(10_000_000_000);
    let duration_s = sim.now() as f64 / 1e9;
    sim.delivered[1] as f64 / duration_s
}

/// Closed-loop request-response rate with occasional collection.
pub(crate) fn roundtrip_rate() -> f64 {
    let mut cfg = SimConfig::paper();
    cfg.gc = [GcPolicy::EveryN(64); 2];
    let mut sim = TwoNodeSim::new(&cfg);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    sim.arm_closed_loop(2_000, 8, 0);
    sim.run_until(5_000_000_000);
    sim.round_trips as f64 / (sim.now() as f64 / 1e9)
}

/// One-way streaming of 1 KB messages; the 15 MB/s line binds.
pub(crate) fn bandwidth() -> f64 {
    let mut cfg = SimConfig::paper();
    cfg.gc = [GcPolicy::EveryN(16); 2];
    // Keep packed bodies under the 4 KB frag MTU (3 × 1 KB + headers).
    cfg.pa.max_pack = 3;
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;
    let n: u64 = 30_000;
    let interval = 50_000; // 20 MB/s offered — above the line rate
    sim.schedule_stream(0, 0, interval, n, 1024);
    sim.run_until(4_000_000_000);
    let duration_s = sim.now() as f64 / 1e9;
    (sim.delivered[1] as f64 * 1024.0) / duration_s
}

impl Table4 {
    /// Renders in the paper's layout, with the paper's values alongside.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["What", "Paper", "Measured (sim)"]);
        t.row(&[
            "one-way latency".into(),
            "85 µs".into(),
            format!("{} µs", us_f(self.one_way_ns)),
        ]);
        t.row(&[
            "message throughput".into(),
            "80,000 msgs/sec".into(),
            format!("{:.0} msgs/sec", self.msgs_per_sec),
        ]);
        t.row(&[
            "#roundtrips/sec".into(),
            "6000 rt/sec".into(),
            format!("{:.0} rt/sec", self.roundtrips_per_sec),
        ]);
        t.row(&[
            "bandwidth (1 Kbyte msgs)".into(),
            "15 Mbytes/sec".into(),
            format!("{:.1} Mbytes/sec", self.bandwidth_bytes_per_sec / 1e6),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_matches_paper() {
        let ow = one_way_latency();
        assert!(
            (80_000.0..=90_000.0).contains(&ow),
            "one-way {ow} ns vs paper 85 µs"
        );
    }

    #[test]
    fn roundtrip_rate_near_6000() {
        let r = roundtrip_rate();
        assert!((4_000.0..=7_500.0).contains(&r), "rt/s {r} vs paper ~6000");
    }

    #[test]
    fn throughput_near_80k() {
        let m = message_throughput();
        assert!(
            (55_000.0..=110_000.0).contains(&m),
            "msgs/s {m} vs paper ~80k"
        );
    }

    #[test]
    fn bandwidth_near_line_rate() {
        let b = bandwidth();
        assert!(
            (11e6..=15.5e6).contains(&b),
            "bandwidth {b} B/s vs paper 15 MB/s"
        );
    }
}
