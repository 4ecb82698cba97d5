//! CI entry point: replay the committed regression corpus, then run
//! the deterministic mutation storm over both transports.
//!
//! Environment knobs (all optional):
//!
//! - `FUZZ_SEED`  — master seed (decimal or 0x-hex; default 1).
//! - `FUZZ_ITERS` — storm iterations for the in-memory campaign
//!   (default 40 000; each iteration injects ~2–3 frames, so the
//!   default comfortably exceeds 100 000 injected frames).
//! - `FUZZ_UDP_ITERS` — iterations for the UDP-loopback campaign
//!   (default 4 000; 0 disables the socket leg for hermetic hosts).
//! - `FUZZ_BURST_ITERS` — iterations for the burst-ingest campaign,
//!   where arrivals flow through `recv_burst` and
//!   `ShardedEndpoint::from_network_burst` in chunks (default 4 000; 0
//!   disables). Its totals must equal the in-memory campaign's for the
//!   same seed — any divergence means the burst demux and the
//!   per-frame demux disagree on hostile input.
//!
//! On any panic the process prints the seed, the last frame injected
//! (as a hexdump), and writes the same report to
//! `target/fuzz-failure.txt` so CI can upload it as an artifact.
//! Reproduce with `FUZZ_SEED=<seed> cargo run -p pa-fuzz --bin
//! fuzz_smoke`.

use pa_fuzz::{
    hexdump, regression_corpus, replay_corpus, run_burst_campaign, run_campaign, run_udp_campaign,
    FuzzConfig,
};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or_else(|_| panic!("{name}={v:?} is not a number"))
        }
        Err(_) => default,
    }
}

fn main() {
    let seed = env_u64("FUZZ_SEED", 1);
    let iters = env_u64("FUZZ_ITERS", 40_000);
    let udp_iters = env_u64("FUZZ_UDP_ITERS", 4_000);
    let burst_iters = env_u64("FUZZ_BURST_ITERS", 4_000);

    // On failure, leave a reproduction artifact behind.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let frame = pa_fuzz::last_injection();
        let mut report = format!(
            "fuzz_smoke failure\nseed: {seed:#x}\npanic: {info}\nlast injected frame:\n{}",
            frame
                .as_deref()
                .map(hexdump)
                .unwrap_or_else(|| "(none)\n".into())
        );
        report.push_str(&format!(
            "reproduce: FUZZ_SEED={seed:#x} FUZZ_ITERS={iters} FUZZ_UDP_ITERS={udp_iters} \
             FUZZ_BURST_ITERS={burst_iters} cargo run -p pa-fuzz --bin fuzz_smoke\n"
        ));
        eprintln!("{report}");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/fuzz-failure.txt", report);
        default_hook(info);
    }));

    let n = replay_corpus(&regression_corpus());
    println!("corpus: {n} entries replayed clean");

    let report = run_campaign(&FuzzConfig::new(seed, iters));
    print!("{report}");
    assert!(report.recovered, "in-memory campaign did not recover");

    let mut total = report.injected;
    if udp_iters > 0 {
        let udp = run_udp_campaign(&FuzzConfig::new(seed ^ 0x0DD_BA11, udp_iters));
        print!("{udp}");
        assert!(udp.recovered, "udp campaign did not recover");
        total += udp.injected;
    }

    if burst_iters > 0 {
        // The burst-ingest leg: same storm, arrivals pulled through
        // recv_burst and demuxed via from_network_burst in chunks of
        // 32. A per-frame control campaign with the same config must
        // produce identical totals — burst demux is a packaging change,
        // never an outcome change, even on hostile input.
        let burst_cfg = FuzzConfig::new(seed ^ 0xB0_0575, burst_iters);
        let burst = run_burst_campaign(&burst_cfg, 32);
        print!("{burst}");
        assert!(burst.recovered, "burst campaign did not recover");
        let control = run_campaign(&burst_cfg);
        assert_eq!(
            (burst.injected, burst.delivered, burst.garbled),
            (control.injected, control.delivered, control.garbled),
            "burst ingest diverged from per-frame demux"
        );
        assert_eq!(
            (burst.demux_rejects, burst.conn_rejects),
            (control.demux_rejects, control.conn_rejects),
            "burst ingest rejects diverged from per-frame demux"
        );
        total += burst.injected;
    }
    println!("total frames injected: {total}");
    println!("fuzz_smoke: OK");
}
