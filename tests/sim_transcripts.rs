//! What pa-sim's drivers compute, pinned: one transcript of every
//! virtual-time scenario and of the echo-pair pipeline, compared
//! against `tests/golden/sim_transcripts.txt`, which was recorded from
//! the simulator as it stood *before* `NodeSim` grew N connections over
//! M CPUs and the second host type, the second event loop and the
//! threaded echo harness were deleted. Same test body, three accessors
//! apart: the recording read `c.completed`, `c.clients` and
//! `node.conn` where this reads `c.round_trips`, `c.clients()` and
//! `node.conns[0]`. "One host, one loop, one driver" means the golden
//! file does not change.
//!
//! - `render()` of all ten `experiments::*::run()`, and Figure 4's
//!   timeline event by event;
//! - `ClusterSim` at (clients, cpus) ∈ {(1,1), (4,1), (8,4)}: every
//!   round-trip latency in completion order, the completed count, the
//!   final clock, every client and server `ConnStats`;
//! - `ChurnSim::new(ChurnConfig::small())`: the whole telemetry
//!   snapshot as JSON lines and every exact latency sample (two corrupt
//!   waves included);
//! - `BurstPipeline::run` at `per_packet(16)` and `batched(16, 8)` with
//!   frame capture: every wire frame in hex, both endpoints' counters,
//!   ledger conservation, handoffs sent == handoffs picked up.

use std::fmt::Write as _;

use pa::obs::domain::DomainCounter;
use pa::sim::experiments::{
    ablation, ethernet, fig4, fig5, headers, headline, layer_scaling, max_load, packing, table4,
};
use pa::sim::{BurstPipeline, ChurnConfig, ChurnSim, ClusterSim, PipelineConfig};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn experiments(out: &mut String) {
    let renders = [
        ("table4", table4::run().render()),
        ("fig5", fig5::run().render()),
        ("layer_scaling", layer_scaling::run().render()),
        ("headers", headers::run().render()),
        ("headline", headline::run().render()),
        ("packing", packing::run().render()),
        ("max_load", max_load::run().render()),
        ("ethernet", ethernet::run().render()),
        ("ablation", ablation::run().render()),
    ];
    for (name, text) in renders {
        let _ = writeln!(out, "== experiment {name}\n{text}");
    }
    let f4 = fig4::run();
    let _ = writeln!(out, "== experiment fig4\n{}", f4.render());
    let _ = writeln!(out, "== fig4 timeline");
    for e in &f4.typical {
        let _ = writeln!(out, "{} node{} {:?}", e.at, e.node, e.event);
    }
}

fn cluster(out: &mut String, clients: usize, cpus: usize) {
    let cfg = ClusterSim::paper_occasional_gc();
    let mut c = ClusterSim::new(&cfg, clients, cpus);
    c.run(40, 30_000_000_000);
    let _ = writeln!(out, "== cluster clients={clients} cpus={cpus}");
    let _ = writeln!(out, "completed {} now {}", c.round_trips, c.now());
    let rtts: Vec<String> = c.rtt.values().iter().map(|v| format!("{v}")).collect();
    let _ = writeln!(out, "rtt {}", rtts.join(" "));
    for (k, node) in c.clients().iter().enumerate() {
        let _ = writeln!(out, "client{k} {:?}", node.conns[0].stats());
    }
    for (k, conn) in c.server_conns().iter().enumerate() {
        let _ = writeln!(out, "server{k} {:?}", conn.stats());
    }
}

fn churn(out: &mut String) {
    let mut sim = ChurnSim::new(ChurnConfig::small());
    sim.run();
    let _ = writeln!(out, "== churn small");
    out.push_str(&sim.snapshot(sim.now()).to_json_lines());
    let oracle: Vec<String> = sim.oracle.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(out, "oracle {}", oracle.join(" "));
}

fn pipeline(out: &mut String, name: &str, cfg: PipelineConfig) {
    let report = BurstPipeline::run(PipelineConfig {
        capture_frames: true,
        ..cfg
    });
    let _ = writeln!(out, "== pipeline {name}");
    for (sender, bytes) in &report.frames {
        let _ = writeln!(out, "{sender} {}", hex(bytes));
    }
    let _ = writeln!(out, "stats_a {:?}", report.stats_a);
    let _ = writeln!(out, "stats_b {:?}", report.stats_b);
    let counter =
        |c: DomainCounter| -> u64 { report.snapshot.domains.iter().map(|d| d.counter(c)).sum() };
    let _ = writeln!(
        out,
        "conserves {} handoffs_paired {}",
        report.conserves(),
        counter(DomainCounter::HandoffsOut) == counter(DomainCounter::HandoffsIn)
    );
}

#[test]
fn sim_drivers_compute_what_the_recorded_simulator_computed() {
    let mut transcript = String::new();
    experiments(&mut transcript);
    for (clients, cpus) in [(1, 1), (4, 1), (8, 4)] {
        cluster(&mut transcript, clients, cpus);
    }
    churn(&mut transcript);
    pipeline(
        &mut transcript,
        "per_packet(16)",
        PipelineConfig::per_packet(16),
    );
    pipeline(
        &mut transcript,
        "batched(16, 8)",
        PipelineConfig::batched(16, 8),
    );

    let golden = include_str!("golden/sim_transcripts.txt");
    if transcript != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_transcripts.txt");
        std::fs::write(&actual, &transcript).expect("temp dir is writable");
        let line = transcript
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(golden.lines().count()));
        panic!(
            "transcript differs from tests/golden/sim_transcripts.txt at line {}:\n  got  {:?}\n  want {:?}\nfull transcript: {}",
            line + 1,
            transcript.lines().nth(line),
            golden.lines().nth(line),
            actual.display()
        );
    }
}
