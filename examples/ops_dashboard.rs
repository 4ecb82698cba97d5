//! Live ops view of a high-cardinality churn run.
//!
//! Drives the churn scenario — waves of short-lived client connections
//! against a multi-CPU server, 10 000 distinct connections by default —
//! with the full pa-scope telemetry plane attached, then prints its
//! watch ([`pa::obs::Watch::render`], the renderer `live_endpoint`
//! points at a running `UdpNet` endpoint) — the text dashboard an
//! operator would read:
//!
//! - cluster latency from *merged sketches* (p50/p90/p99, exact
//!   min/max), with the plane's memory against its hard byte cap,
//! - top-N connections by p99 and the per-shard roll-up,
//! - sampled exemplars: aggregate outliers that drill down to a
//!   journey id and xray tag,
//! - the fleet's xray report — slow-path attribution (which layer,
//!   which cause, rejects included) and per-layer phase cost across
//!   every connection that ever lived — and its masking ledger,
//! - watchdog verdict and any flight-recorder post-mortem.
//!
//! Also writes the Prometheus text exposition (sketch buckets with
//! OpenMetrics exemplar annotations, then the recorder's per-wave
//! gauges) to `ops-prometheus.txt`.
//!
//! Exits nonzero if the watchdog saw a delivery-ledger break, if the
//! roll-up fails to reconcile, or if the plane blows its byte budget —
//! the CI smoke gate.
//!
//! ```sh
//! cargo run --release --example ops_dashboard          # 10k conns
//! PA_OPS_CONNS=500 cargo run --example ops_dashboard   # quicker
//! ```

use pa::obs::watch::us;
use pa::sim::churn::{ChurnConfig, ChurnSim};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let conns = env_usize("PA_OPS_CONNS", 10_000);
    let top_n = env_usize("PA_OPS_TOPN", 10);
    let mut churn = ChurnSim::new(ChurnConfig::sized(conns));
    println!(
        "churning {} connections ({} waves x {} clients, {} reqs each) ...\n",
        churn.config().total_conns(),
        churn.config().waves,
        churn.config().clients_per_wave,
        churn.config().per_client
    );
    churn.run();
    println!(
        "virtual time {:>12}   waves {}   conns {}",
        us(churn.now()),
        churn.waves_run(),
        churn.config().total_conns()
    );
    println!(
        "requests     {:>12}   completed {}   lost {}",
        churn.expected,
        churn.completed,
        churn.expected - churn.completed
    );
    let (now, watch) = (churn.now(), &churn.watch);
    println!("{}", watch.render(now, &churn.fleet, &churn.masking, top_n));

    let prom = watch.to_prometheus("latency_ns", 24);
    let prom_path = std::env::var("PA_OPS_PROM_OUT").unwrap_or("ops-prometheus.txt".into());
    match std::fs::write(&prom_path, &prom) {
        Ok(()) => println!(
            "wrote {} ({} lines of Prometheus exposition)",
            prom_path,
            prom.lines().count()
        ),
        Err(e) => println!("warning: could not write {prom_path}: {e}"),
    }

    // The smoke gate: a ledger break, a roll-up mismatch, or a blown
    // byte budget is a telemetry-plane bug — fail loudly.
    let plane = churn.plane();
    if churn.watchdog().ledger_broken() {
        eprintln!("FAIL: watchdog detected a delivery-ledger break");
        std::process::exit(1);
    }
    if !plane.rollup_reconciles() {
        eprintln!("FAIL: sketch roll-up does not reconcile");
        std::process::exit(2);
    }
    if !plane.within_budget() {
        eprintln!("FAIL: telemetry plane exceeded its byte cap");
        std::process::exit(3);
    }
    if !churn.merged_cluster_matches() {
        eprintln!("FAIL: merged per-wave sketches diverge from the pooled sketch");
        std::process::exit(4);
    }
    println!(
        "ok: ledger clean, roll-up reconciled, {} B within cap",
        plane.mem_bytes()
    );
}
