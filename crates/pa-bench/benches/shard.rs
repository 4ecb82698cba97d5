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
//! - **staged burst demux** — on those 16 384 connections, the same
//!   shuffled cookie frames demuxed as 32-frame `from_network_burst`
//!   calls must cost well under 32 `from_network` calls: the burst
//!   prefetches every frame's table line, slot and write targets before
//!   it ingests the first, so the frames' cache misses overlap
//!   (`burst_vs_frame_demux_ratio`; a burst that demuxes frame by frame
//!   reads 0.94–1.00).
//!
//! - **cold echo** — one fast echo (send, carry, deliver, both sides'
//!   `process_pending`) on each of 16 384 standalone paper-stack pairs,
//!   in a shuffled order, against the same echo repeated on one warm
//!   pair: every verb hints the heap lines it will touch before it
//!   touches the first, so a cold connection's misses overlap
//!   (`cold_echo_ratio`; verbs that take their misses one after another
//!   read 3.0–3.5 — DESIGN.md "A cold verb asks for its lines at once").
//!
//! The 16 384-connection rows measure the table out of cache: before
//! each of their timed sweeps the bench streams a private buffer of
//! twice the host's last-level cache (its size read from sysfs and
//! recorded as `evict_buffer_bytes`), so no host's L3 carries the table
//! from one sweep to the next. On a shared 2-core VM the demux ratio
//! still reads one of two regimes by run (≈ 0.70 or ≈ 0.82) with the
//! stream as without it.
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

use pa_bench::{fastest, BenchReport, Better};
use pa_buf::{Msg, MsgPool};
use pa_core::conn::{Connection, ConnectionParams, DeliverOutcome, SendOutcome};
use pa_core::layer::{Layer, NullLayer};
use pa_core::shard::{ShardDelivery, ShardedEndpoint};
use pa_core::PaConfig;
use pa_stack::StackSpec;
use pa_wire::EndpointAddr;
use std::hint::black_box;
use std::time::Instant;

const CONNS: usize = 1024;
/// The large population of the table-scaling row.
const TABLE_CONNS: usize = 16 * CONNS;
const DRAIN_EVERY: usize = 64;
const REPS: usize = 24;
/// Frames a burst carries, as in `fanin_16k`'s rounds.
const BURST: usize = 32;

fn conn(local: u64, peer: u64, seed: u64) -> Connection {
    conn_over(vec![Box::new(NullLayer)], local, peer, seed)
}

fn conn_over(layers: Vec<Box<dyn Layer>>, local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        layers,
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("stack builds")
}

/// Shuffles `items` in a fixed pseudo-random order (xorshift64).
fn shuffle<T>(items: &mut [T]) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..items.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        items.swap(i, (x % (i as u64 + 1)) as usize);
    }
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
    shuffle(&mut steady);
    (idents, steady)
}

/// A private buffer of twice the last-level cache: streaming it leaves
/// none of an arm's lines in any cache.
struct Evictor(Vec<u8>);

impl Evictor {
    fn new() -> Evictor {
        // Written, so every page is the buffer's own (an untouched one
        // would read as the shared zero page).
        Evictor(vec![1; 2 * last_level_cache()])
    }

    fn evict(&self) {
        black_box(self.0.iter().step_by(64).fold(0u8, |a, &b| a ^ b));
    }
}

/// The largest cache cpu0 reports under
/// `/sys/devices/system/cpu/cpu0/cache/index*/size` (read only), or
/// 128 MiB where none is reported.
fn last_level_cache() -> usize {
    let size = |dir: std::path::PathBuf| -> Option<usize> {
        let text = std::fs::read_to_string(dir.join("size")).ok()?;
        let text = text.trim();
        let digits = text
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len());
        let unit = match &text[digits..] {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        Some(text[..digits].parse::<usize>().ok()? * unit)
    };
    std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| size(e.path()))
        .max()
        .unwrap_or(128 << 20)
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
/// A 16 384-connection arm's timed sweep follows `evictor`'s stream
/// instead: it is measured out of cache.
fn interleaved(arms: &mut [Arm], evictor: &Evictor) -> Vec<f64> {
    let mut sweeps = vec![Vec::with_capacity(REPS); arms.len()];
    for _ in 0..REPS {
        for (arm, ns) in arms.iter_mut().zip(&mut sweeps) {
            arm.sweep();
            arm.sweep();
            if arm.steady.len() == TABLE_CONNS {
                evictor.evict();
            }
            ns.push(arm.sweep());
        }
    }
    for arm in arms.iter() {
        assert!(arm.ep.demux_balanced(), "bench broke the conservation law");
    }
    sweeps.iter_mut().map(|ns| fastest(ns)).collect()
}

/// One sweep of `arm`'s steady frames in chunks of [`BURST`], the two
/// arms taking turns chunk by chunk: an even chunk (odd, on an odd
/// `rep`) is demuxed by one `from_network_burst` call, the other by
/// [`BURST`] `from_network` calls. Returns each arm's ns per frame of
/// the demux calls alone, `[frame, burst]`: each chunk's buffers are
/// taken from `pool` before the clock starts; after it stops the
/// deliveries are drained back into it and the post-deliver work runs,
/// as an echo host's loop runs it, so no timed arrival drains its
/// predecessor's. Taking turns by the chunk puts both arms under the
/// same load from the rest of the box, which moves the per-frame arm
/// far more than the burst: its misses are serial.
fn demux_sweep(arm: &mut Arm, pool: &mut MsgPool, frames: &mut Vec<Msg>, rep: usize) -> [f64; 2] {
    let (mut ns, mut n) = ([0u128; 2], [0usize; 2]);
    for (k, chunk) in arm.steady.chunks(BURST).enumerate() {
        let burst = (k + rep).is_multiple_of(2);
        frames.extend(chunk.iter().map(|f| pool.take_with(f)));
        let t = Instant::now();
        if burst {
            black_box(arm.ep.from_network_burst(frames));
        } else {
            for f in frames.drain(..) {
                black_box(arm.ep.from_network(f));
            }
        }
        ns[burst as usize] += t.elapsed().as_nanos();
        n[burst as usize] += chunk.len();
        arm.ep.drain_deliveries(&mut arm.scratch);
        for d in arm.scratch.drain(..) {
            pool.put(d.msg);
        }
        arm.ep.process_all_pending();
    }
    [0, 1].map(|i| ns[i] as f64 / n[i] as f64)
}

/// `burst_vs_frame_demux_ratio`'s two arms over the same endpoint,
/// [`REPS`] sweeps, each after `evictor`'s stream and each arm rated by
/// its five fastest. A sweep touches each connection once, so neither
/// arm warms a connection for the other.
fn burst_vs_frame(arm: &mut Arm, evictor: &Evictor) -> (f64, f64) {
    let (mut pool, mut frames) = (MsgPool::with_defaults(), Vec::with_capacity(BURST));
    let (mut burst, mut frame) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        evictor.evict();
        let [f, b] = demux_sweep(arm, &mut pool, &mut frames, rep);
        frame.push(f);
        burst.push(b);
    }
    assert!(arm.ep.demux_balanced(), "bench broke the conservation law");
    (fastest(&mut burst), fastest(&mut frame))
}

/// One echo on a standalone pair: `a` sends, the frame is carried to
/// `b` and delivered, `b` sends the delivery back, `a` delivers the
/// reply; each side recycles what it polled, then both run
/// `process_pending`. True if both sends took the fast path.
fn echo(a: &mut Connection, b: &mut Connection) -> bool {
    let mut fast = a.send(black_box(&[7u8; 8])) == SendOutcome::FastPath;
    while let Some(f) = a.poll_transmit() {
        b.deliver_frame(f);
    }
    while let Some(m) = b.poll_delivery() {
        fast &= b.send(m.as_slice()) == SendOutcome::FastPath;
        b.recycle(m);
    }
    while let Some(f) = b.poll_transmit() {
        a.deliver_frame(f);
    }
    while let Some(m) = a.poll_delivery() {
        a.recycle(m);
    }
    a.process_pending();
    b.process_pending();
    fast
}

/// `cold_echo_ratio`'s two arms, [`REPS`] sweeps each, interleaved and
/// each rated by its five fastest: one echo on each of [`TABLE_CONNS`]
/// warmed paper-stack pairs in a shuffled order after `evictor`'s
/// stream, against as many echoes on one warm pair. Returns ns per
/// echo, `(cold, warm)`.
fn cold_vs_warm_echo(evictor: &Evictor) -> (f64, f64) {
    let pair = |i: u64| {
        let (a, b) = (2 * i + 1_000_000, 2 * i + 1_000_001);
        let mut pair = (
            conn_over(StackSpec::paper().build(), a, b, a),
            conn_over(StackSpec::paper().build(), b, a, b),
        );
        for _ in 0..4 {
            echo(&mut pair.0, &mut pair.1);
        }
        assert!(echo(&mut pair.0, &mut pair.1), "a warmed pair echoes fast");
        pair
    };
    let mut cold: Vec<_> = (0..TABLE_CONNS as u64).map(pair).collect();
    shuffle(&mut cold);
    let mut warm = pair(TABLE_CONNS as u64);
    let (mut cold_ns, mut warm_ns) = (Vec::new(), Vec::new());
    let mut slow = 0usize;
    for _ in 0..REPS {
        evictor.evict();
        let t = Instant::now();
        for (a, b) in &mut cold {
            slow += !echo(a, b) as usize;
        }
        cold_ns.push(t.elapsed().as_nanos() as f64 / cold.len() as f64);
        echo(&mut warm.0, &mut warm.1);
        let t = Instant::now();
        for _ in 0..cold.len() {
            slow += !echo(&mut warm.0, &mut warm.1) as usize;
        }
        warm_ns.push(t.elapsed().as_nanos() as f64 / cold.len() as f64);
    }
    assert_eq!(slow, 0, "every timed echo takes the fast path");
    (fastest(&mut cold_ns), fastest(&mut warm_ns))
}

fn main() {
    println!("sharded demux scaling ({CONNS} connections, steady cookie frames)");
    println!("{}", "-".repeat(100));

    let (idents, steady) = client_frames(CONNS);
    let mut arms: Vec<Arm> = [1usize, 8, 64]
        .iter()
        .map(|&shards| Arm::new(shards, &idents, &steady))
        .collect();
    let evictor = Evictor::new();
    println!(
        "16384-connection sweeps each follow a {} MiB eviction stream (2 x LLC)",
        evictor.0.len() >> 20
    );
    let by_shards = interleaved(&mut arms, &evictor);
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
    let table = interleaved(&mut pair, &evictor);
    println!(
        "{:<44} {:>8.1} ns/frame  (against {:.1} interleaved)",
        format!("sharded/8 x {TABLE_CONNS} conns"),
        table[1],
        table[0]
    );

    // The staged-demux row, on the 16 384-connection endpoint.
    let (burst_ns, frame_ns) = burst_vs_frame(&mut pair[1], &evictor);
    println!(
        "{:<44} {burst_ns:>8.1} ns/frame  (against {frame_ns:.1} a frame at a time)",
        format!("burst of {BURST} x {TABLE_CONNS} conns")
    );

    drop(pair);

    // The cold-echo row, on standalone pairs.
    let (cold_ns, warm_ns) = cold_vs_warm_echo(&evictor);
    println!(
        "{:<44} {cold_ns:>8.1} ns/echo   (against {warm_ns:.1} on one warm pair)",
        format!("echo x {TABLE_CONNS} cold paper pairs")
    );

    let scaling_ratio = by_shards[2] / by_shards[0];
    let table_ratio = table[1] / table[0];
    let demux_ratio = burst_ns / frame_ns;
    let echo_ratio = cold_ns / warm_ns;
    println!(
        "{:<44} {scaling_ratio:>8.3}",
        "shard_scaling_ratio (64 / 1 shards)"
    );
    println!(
        "{:<44} {table_ratio:>8.3}",
        "table_scaling_ratio (16384 / 1024 conns)"
    );
    println!(
        "{:<44} {demux_ratio:>8.3}",
        "burst_vs_frame_demux_ratio (burst / frame)"
    );
    println!("{:<44} {echo_ratio:>8.3}", "cold_echo_ratio (cold / warm)");

    // Raw ns rows track the machine: reported, not gated (the baseline
    // holds none of them). The four ratio rows are the
    // hardware-independent gates: 64 shards must cost no more per frame
    // than 1, 16x the connections must not cost 16x the drain, a burst
    // must overlap its frames' misses, and so must a cold connection's
    // verbs. Their tolerances live in
    // the committed baseline.
    let mut report = BenchReport::new("shard");
    report
        .push("evict_buffer_bytes", evictor.0.len() as f64, Better::Lower)
        .push("demux_shard1_ns", by_shards[0], Better::Lower)
        .push("demux_shard8_ns", by_shards[1], Better::Lower)
        .push("demux_shard64_ns", by_shards[2], Better::Lower)
        .push_tol("shard_scaling_ratio", scaling_ratio, Better::Lower, 0.25)
        .push_tol("table_scaling_ratio", table_ratio, Better::Lower, 1.0)
        .push("demux_burst_ns", burst_ns, Better::Lower)
        .push("demux_frame_ns", frame_ns, Better::Lower)
        .push_tol(
            "burst_vs_frame_demux_ratio",
            demux_ratio,
            Better::Lower,
            0.25,
        )
        .push("echo_cold_ns", cold_ns, Better::Lower)
        .push("echo_warm_ns", warm_ns, Better::Lower)
        .push_tol("cold_echo_ratio", echo_ratio, Better::Lower, 0.25);
    if !pa_bench::emit_and_compare(&report) {
        std::process::exit(1);
    }
}
