//! Sharded-demux scaling: what a shard front costs per frame, and that
//! the cost stays flat as the shard count grows.
//!
//! The endpoint buys million-connection scale by splitting the cookie
//! table: `shard_of(cookie)` is one SplitMix64 finalizer plus a mask,
//! then the frame takes one probe inside its shard. So the per-frame
//! claim is twofold and both parts gate in CI as hardware-independent
//! ratios:
//!
//! - **flat scaling** — 64 shards must not cost more per frame than 1
//!   shard on the same connection population (the probe is per-shard;
//!   nothing on the fast path is O(shards)),
//! - **table scaling** — the same loop over 16× the connections on 8
//!   shards must cost about the same per frame: the drain visits the
//!   connections that received something, not the table. What remains
//!   of the ratio (≈ 2–3.5) is the cache and TLB footprint of 16× the
//!   connection state under a shuffled sweep; a drain that walks every
//!   slot reads ≈ 9.
//!
//! The raw ns rows carry loose tolerances and only track the machine.
//! Workload: an established population sending small cookie-only
//! frames in a *shuffled* sweep (a sequential sweep hands the 1-shard
//! arm prefetcher luck on its connection slab and fakes a scaling gap)
//! through per-shard pools ([`ingest_wire`] in, [`recycle_delivery`]
//! out), drained every 64 frames — the recycle loop at steady state.
//!
//! [`ingest_wire`]: pa_core::ShardedEndpoint::ingest_wire
//! [`recycle_delivery`]: pa_core::ShardedEndpoint::recycle_delivery

use pa_bench::{BenchReport, Better};
use pa_core::conn::{Connection, ConnectionParams, DeliverOutcome};
use pa_core::layer::NullLayer;
use pa_core::shard::{ShardDelivery, ShardedEndpoint};
use pa_core::PaConfig;
use pa_wire::EndpointAddr;
use std::hint::black_box;
use std::time::Instant;

const CONNS: usize = 1024;
/// The large population of the table-scaling row.
const TABLE_CONNS: usize = 16 * CONNS;
const DRAIN_EVERY: usize = 64;
const REPS: usize = 24;

fn conn(local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        vec![Box::new(NullLayer)],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("single-layer stack builds")
}

/// Builds an established client fleet: returns the clients' first
/// (ident-carrying) frames and one steady cookie-only frame each.
/// The steady frames come back in a fixed pseudo-random sweep order:
/// every arm pays the same cache-cold connection access, none gets
/// sequential-slab luck.
fn client_frames(conns: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut idents = Vec::with_capacity(conns);
    let mut steady = Vec::with_capacity(conns);
    for i in 0..conns as u64 {
        let mut c = conn(100 + i, 1, 2 * i + 1);
        c.send(b"establish");
        idents.push(c.poll_transmit().expect("first frame").to_wire());
        c.process_pending();
        c.send(b"steady-state frame payload bytes");
        steady.push(c.poll_transmit().expect("steady frame").to_wire());
        c.process_pending();
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..steady.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        steady.swap(i, (x % (i as u64 + 1)) as usize);
    }
    (idents, steady)
}

fn server_conns(conns: usize) -> impl Iterator<Item = Connection> {
    (0..conns as u64).map(|i| conn(1, 100 + i, 2 * i + 2))
}

/// One arm of a ratio: an endpoint of `shards` shards with its fleet
/// established, and the steady frames it sweeps.
struct Arm<'a> {
    ep: ShardedEndpoint,
    steady: &'a [Vec<u8>],
    scratch: Vec<ShardDelivery>,
}

impl<'a> Arm<'a> {
    fn new(shards: usize, idents: &[Vec<u8>], steady: &'a [Vec<u8>]) -> Arm<'a> {
        let mut ep = ShardedEndpoint::new(shards);
        for c in server_conns(idents.len()) {
            ep.add_connection(c);
        }
        for f in idents {
            let out = ep.ingest_wire(f);
            assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
        }
        let mut arm = Arm {
            ep,
            steady,
            scratch: Vec::with_capacity(DRAIN_EVERY),
        };
        arm.sweep();
        arm
    }

    /// One sweep of the steady frames — pool take, demux, drain,
    /// recycle — in ns per frame.
    fn sweep(&mut self) -> f64 {
        let t = Instant::now();
        for (n, f) in self.steady.iter().enumerate() {
            let out = self.ep.ingest_wire(f);
            debug_assert!(!matches!(out, DeliverOutcome::Dropped(_)));
            if (n + 1) % DRAIN_EVERY == 0 {
                self.ep.drain_deliveries(&mut self.scratch);
                for d in self.scratch.drain(..) {
                    self.ep.recycle_delivery(black_box(d));
                }
            }
        }
        t.elapsed().as_nanos() as f64 / self.steady.len() as f64
    }
}

/// Steady-state per-frame cost of each arm: [`REPS`] timed sweeps of
/// every arm, interleaved sweep by sweep so whatever the box is doing
/// hits all of them alike (as `--bench micro` times its ratio rows —
/// with the arms run one after another, a quiet spell under one of them
/// moves the ratio), summarised as the mean of each arm's five fastest
/// sweeps: noise only ever adds time. Each timed sweep follows two
/// untimed ones of the same arm, so an arm is measured over its own
/// working set, not over what its neighbour left in the caches (one
/// warm sweep after the 16 384-connection arm still reads the small arm
/// a third high, and the table ratio 2.2 where 2.7 is the footprint).
fn interleaved(arms: &mut [Arm]) -> Vec<f64> {
    let mut sweeps = vec![Vec::with_capacity(REPS); arms.len()];
    for _ in 0..REPS {
        for (arm, ns) in arms.iter_mut().zip(&mut sweeps) {
            arm.sweep();
            arm.sweep();
            ns.push(arm.sweep());
        }
    }
    for arm in arms.iter() {
        assert!(arm.ep.demux_balanced(), "bench broke the conservation law");
    }
    let fastest = |ns: &mut Vec<f64>| {
        ns.sort_by(f64::total_cmp);
        ns[..5].iter().sum::<f64>() / 5.0
    };
    sweeps.iter_mut().map(fastest).collect()
}

fn main() {
    println!("sharded demux scaling ({CONNS} connections, steady cookie frames)");
    println!("{}", "-".repeat(100));

    let (idents, steady) = client_frames(CONNS);
    let mut arms: Vec<Arm> = [1usize, 8, 64]
        .iter()
        .map(|&shards| Arm::new(shards, &idents, &steady))
        .collect();
    let by_shards = interleaved(&mut arms);
    for (shards, ns) in [1, 8, 64].iter().zip(&by_shards) {
        println!(
            "{:<44} {ns:>8.1} ns/frame  (5 fastest of {REPS} interleaved sweeps)",
            format!("sharded/{shards}")
        );
    }

    // The table row's pair, interleaved on its own: the 8-shard arm
    // again, beside the same shards holding 16x the connections.
    let (big_idents, big_steady) = client_frames(TABLE_CONNS);
    let mut pair = vec![arms.swap_remove(1), Arm::new(8, &big_idents, &big_steady)];
    drop(arms);
    let table = interleaved(&mut pair);
    println!(
        "{:<44} {:>8.1} ns/frame  (against {:.1} interleaved)",
        format!("sharded/8 x {TABLE_CONNS} conns"),
        table[1],
        table[0]
    );

    let scaling_ratio = by_shards[2] / by_shards[0];
    let table_ratio = table[1] / table[0];
    println!(
        "{:<44} {scaling_ratio:>8.3}",
        "shard_scaling_ratio (64 / 1 shards)"
    );
    println!(
        "{:<44} {table_ratio:>8.3}",
        "table_scaling_ratio (16384 / 1024 conns)"
    );

    // Raw ns rows track the machine: reported, not gated (the baseline
    // holds none of them). The two ratio rows are the
    // hardware-independent gates: 64 shards must cost no more per frame
    // than 1, and 16x the connections must not cost 16x the drain.
    // Their tolerances live in the committed baseline.
    let mut report = BenchReport::new("shard");
    report
        .push("demux_shard1_ns", by_shards[0], Better::Lower)
        .push("demux_shard8_ns", by_shards[1], Better::Lower)
        .push("demux_shard64_ns", by_shards[2], Better::Lower)
        .push_tol("shard_scaling_ratio", scaling_ratio, Better::Lower, 0.25)
        .push_tol("table_scaling_ratio", table_ratio, Better::Lower, 1.0);
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
