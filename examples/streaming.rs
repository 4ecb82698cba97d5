//! One-way streaming: message packing under backlog (§3.4).
//!
//! A sender pushes 8-byte messages as fast as the PA will take them; a
//! sink counts arrivals. Watch how the backlog drains in packed frames
//! and what that does to sustained throughput — then compare the same
//! run with packing disabled.
//!
//! ```sh
//! cargo run --example streaming
//! ```

use pa::core::PaConfig;
use pa::sim::{AppBehavior, GcPolicy, PostSchedule, SimConfig, TwoNodeSim};

fn stream(packing: bool) {
    let mut cfg = SimConfig::paper();
    cfg.gc = [GcPolicy::EveryN(16); 2];
    cfg.pa = PaConfig {
        packing,
        max_pack: if packing { 64 } else { 1 },
        ..PaConfig::paper_default()
    };
    let mut sim = TwoNodeSim::new(&cfg);
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;

    let n: u64 = if packing { 20_000 } else { 2_000 };
    sim.schedule_stream(0, 0, 11_000, n, 8); // ~90k msgs/s offered
    sim.run_until(20_000_000_000);

    let secs = sim.now() as f64 / 1e9;
    let sender = sim.nodes[0].conns[0].stats();
    let receiver = sim.nodes[1].conns[0].stats();
    println!("--- packing {} ---", if packing { "ON " } else { "OFF" });
    println!(
        "  delivered:        {} msgs in {:.3} s virtual time",
        sim.delivered[1], secs
    );
    println!(
        "  throughput:       {:.0} msgs/s (paper with packing: ~80,000)",
        sim.delivered[1] as f64 / secs
    );
    println!("  frames sent:      {}", sender.frames_out);
    println!(
        "  msgs per frame:   {:.1}",
        sim.delivered[1] as f64 / receiver.frames_in.max(1) as f64
    );
    println!("  packed frames:    {}", sender.packed_frames);
    println!(
        "  sender fast path: {:.0}%",
        sender.fast_send_ratio() * 100.0
    );
    println!();
}

fn main() {
    println!("Streaming 8-byte messages over simulated U-Net/ATM\n");
    stream(true);
    stream(false);
    println!("The §3.4 mechanism in one sentence: when messages outpace the");
    println!("post-processing, the PA packs the backlog into single frames, so");
    println!("one pre/post cycle is amortized over the whole run.");
}
