//! Fault injection: the sliding-window stack versus a hostile network.
//!
//! The simulated U-Net is configured to drop, corrupt, duplicate and
//! reorder frames (smoltcp-style, deterministic by seed). The window
//! layer retransmits, the checksum layer discards corruption, the PA
//! keeps taking the fast path whenever the storm allows.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use pa::sim::{AppBehavior, PostSchedule, SimConfig, TwoNodeSim};
use pa::unet::FaultConfig;

fn run(label: &str, faults: FaultConfig) {
    let mut cfg = SimConfig::paper();
    cfg.faults = faults;
    cfg.tick_every = Some(2_000_000); // 2 ms retransmission ticks
    let mut sim = TwoNodeSim::new(&cfg);
    // Record the wire for post-mortem inspection (smoltcp-style --pcap).
    let pcap_path = std::env::temp_dir().join(format!(
        "pa-fault-injection-{}.pcap",
        label.split_whitespace().next().unwrap_or("run")
    ));
    if let Ok(file) = std::fs::File::create(&pcap_path) {
        let _ = sim.net.attach_pcap(Box::new(std::io::BufWriter::new(file)));
    }
    sim.set_behavior(1, AppBehavior::Sink);
    sim.nodes[0].schedule = PostSchedule::WhenIdle;

    let n = 500u64;
    sim.schedule_stream(0, 0, 500_000, n, 8); // 2000 msgs/s offered
    sim.run_until(60_000_000_000);

    let f = sim.net.fault_stats();
    let rx = sim.nodes[1].conns[0].stats();
    println!("--- {label} ---");
    println!(
        "  injected: {} drops, {} corruptions, {} dups, {} reorders",
        f.dropped, f.corrupted, f.duplicated, f.reordered
    );
    println!(
        "  delivered: {}/{} messages (in order, exactly once)",
        sim.delivered[1], n
    );
    println!("  wire trace: {}", pcap_path.display());
    // The receiver's ledger, via the shared ConnStats renderer: every
    // injected fault shows up as a filter miss, a layer drop, or a slow
    // delivery — and the drop accounting stays balanced.
    println!("  receiver counters:\n{rx}");
    assert!(
        rx.delivery_balanced(),
        "every frame accounted for exactly once"
    );
    assert_eq!(sim.delivered[1], n, "reliability must win");
    println!();
}

fn main() {
    println!("500 messages through increasingly broken networks\n");
    run("clean network", FaultConfig::none());
    run("mild (2% of everything)", FaultConfig::mild(7));
    run(
        "harsh (15% drop, 15% corrupt — smoltcp's starting values)",
        FaultConfig::harsh(7),
    );
    println!("Every run delivers all 500 messages in order, exactly once —");
    println!("the stack's job; the PA only makes the common case fast.");
}
