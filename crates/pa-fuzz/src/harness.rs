//! The fuzz campaign: a live two-connection world under a mutation
//! storm.
//!
//! The world is one *server* [`ShardedEndpoint`] owning two paper-stack
//! connections, fed by two client endpoints. Every client frame is
//! captured on its way to the server and, with some probability,
//! handed to a structure-aware mutator before injection. After every
//! single injection the harness asserts the full accounting lattice:
//!
//! - [`ShardedEndpoint::demux_balanced`] — every frame seen either routed or
//!   was refused with exactly one demux [`RejectReason`],
//! - per-connection `delivery_balanced()` and `rejects_reconcile()` —
//!   the coarse drop counters and the fine reject ledger agree,
//! - *no cross-connection delivery*: a payload carrying client A's
//!   marker is never delivered on client B's connection,
//! - and after the storm, *liveness*: both connections still carry a
//!   fresh probe payload end-to-end (no fast-path wedge).
//!
//! Everything is driven by one [`SplitMix64`] seed, so a failure
//! reproduces exactly from the `seed` printed in the panic message.
//!
//! [`RejectReason`]: pa_obs::RejectReason

use crate::mutate::{apply, draw_mutation, hexdump, Mutation};
use crate::note_injection;
use pa_buf::Msg;
use pa_core::config::PaConfig;
use pa_core::conn::{Connection, ConnectionParams};
use pa_core::shard::ShardDelivery;
use pa_core::{Nanos, ShardHandle, ShardedEndpoint};
use pa_obs::rng::{Rng, SplitMix64};
use pa_stack::StackSpec;
use pa_unet::loopback::LoopbackNet;
use pa_unet::netif::Netif;
use pa_unet::udp::UdpNet;
use pa_wire::EndpointAddr;
use std::collections::VecDeque;
use std::fmt;

/// Bytes of repeated marker at the front of every fuzz payload.
const MARKER_LEN: usize = 16;
/// Virtual time advanced per storm iteration.
const STEP: Nanos = 1_000_000; // 1 ms — comfortably past the window RTO
/// Sequence sentinel carried by the post-storm liveness probes.
const PROBE_SEQ: u64 = u64::MAX - 16;
/// Backlog high-water mark above which a client stops offering new
/// payloads (the storm destroys most frames; without a cap the backlog
/// would grow without bound and measure nothing).
const BACKLOG_CAP: usize = 48;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; everything (payloads, mutation draws, mutation
    /// parameters) derives from it.
    pub seed: u64,
    /// Storm iterations (each injects at least one frame).
    pub iterations: u64,
    /// Probability a captured frame is injected *unmutated*, keeping
    /// cookies learned and windows moving so the storm hits live state
    /// rather than a stalled connection.
    pub clean_ratio: f64,
    /// Probability a server→client frame is mutated (the reverse leg:
    /// clients must survive hostile bytes too).
    pub reverse_mutate_ratio: f64,
}

impl FuzzConfig {
    /// Default shape: mostly-hostile forward leg, lightly-hostile
    /// reverse leg.
    pub fn new(seed: u64, iterations: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iterations,
            clean_ratio: 0.35,
            reverse_mutate_ratio: 0.15,
        }
    }
}

/// What a campaign did, for reports and assertions.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// The master seed (reproduction handle).
    pub seed: u64,
    /// Storm iterations run.
    pub iterations: u64,
    /// Frames handed to the server's demux.
    pub injected: u64,
    /// Of those, unmutated.
    pub clean: u64,
    /// Of those, mutated.
    pub mutated: u64,
    /// Mutated injections by mutation class (index = [`Mutation::index`]).
    pub mutation_counts: [u64; Mutation::COUNT],
    /// Application messages the server delivered.
    pub delivered: u64,
    /// Delivered payloads whose marker was garbled (possible only when
    /// payload-corrupting mutations slipped a checksum collision
    /// through — never a clean wrong-connection marker).
    pub garbled: u64,
    /// Demux-level rejects at the server.
    pub demux_rejects: u64,
    /// Sum of per-connection reject ledgers at the server.
    pub conn_rejects: u64,
    /// Whether both connections carried a fresh probe end-to-end after
    /// the storm.
    pub recovered: bool,
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz campaign seed={:#x} iters={} injected={} (clean {}, mutated {})",
            self.seed, self.iterations, self.injected, self.clean, self.mutated
        )?;
        for m in Mutation::ALL {
            writeln!(f, "  {:>16}: {}", m.name(), self.mutation_counts[m.index()])?;
        }
        writeln!(
            f,
            "  delivered={} garbled={} demux_rejects={} conn_rejects={} recovered={}",
            self.delivered, self.garbled, self.demux_rejects, self.conn_rejects, self.recovered
        )
    }
}

/// How mutated frames travel from the attacker to the server.
trait Leg {
    /// Puts wire bytes on the attacker→server path.
    fn push(&mut self, bytes: Vec<u8>, now: Nanos);
    /// Pulls every frame that has arrived at the server so far.
    fn pull(&mut self, now: Nanos) -> Vec<Vec<u8>>;
    /// Blocks briefly when the path is asynchronous and nothing has
    /// arrived yet (no-op for the in-memory leg).
    fn settle(&mut self);
    /// When `Some(k)`, arrived frames are demuxed through
    /// [`ShardedEndpoint::from_network_burst`] in chunks of up to `k`
    /// instead of one [`ShardedEndpoint::from_network`] call per frame.
    fn burst_chunk(&self) -> Option<usize> {
        None
    }
}

/// In-memory leg: push is delivery (the simulator transport).
#[derive(Default)]
struct DirectLeg {
    q: VecDeque<Vec<u8>>,
}

impl Leg for DirectLeg {
    fn push(&mut self, bytes: Vec<u8>, _now: Nanos) {
        self.q.push_back(bytes);
    }
    fn pull(&mut self, _now: Nanos) -> Vec<Vec<u8>> {
        self.q.drain(..).collect()
    }
    fn settle(&mut self) {}
}

/// Real-socket leg: frames cross the OS loopback as UDP datagrams
/// through [`UdpNet`], truncation sentinel and all.
struct UdpLeg {
    tx: UdpNet,
    rx: UdpNet,
    server: EndpointAddr,
    attacker: EndpointAddr,
}

impl UdpLeg {
    fn new() -> UdpLeg {
        let attacker = EndpointAddr::from_parts(0xA77A, 7);
        let server = EndpointAddr::from_parts(10, 7);
        let mut tx = UdpNet::bind(attacker, "127.0.0.1:0").expect("bind tx");
        let mut rx = UdpNet::bind(server, "127.0.0.1:0").expect("bind rx");
        let rx_addr = rx.local_socket_addr().expect("rx addr");
        let tx_addr = tx.local_socket_addr().expect("tx addr");
        tx.add_peer(server, rx_addr);
        rx.add_peer(attacker, tx_addr);
        UdpLeg {
            tx,
            rx,
            server,
            attacker,
        }
    }
}

/// Burst-ingest leg: frames ride a [`LoopbackNet`], arrive through
/// [`Netif::recv_burst`], and hit the server's demux through
/// [`ShardedEndpoint::from_network_burst`] in chunks — the hostile-wire proof
/// for PR 9's batched ingest path (run-cached cookie demux included).
struct BurstLeg {
    net: LoopbackNet,
    server: EndpointAddr,
    attacker: EndpointAddr,
    chunk: usize,
}

impl BurstLeg {
    fn new(chunk: usize) -> BurstLeg {
        BurstLeg {
            net: LoopbackNet::new(),
            server: EndpointAddr::from_parts(10, 7),
            attacker: EndpointAddr::from_parts(0xA77A, 7),
            chunk: chunk.max(1),
        }
    }
}

impl Leg for BurstLeg {
    fn push(&mut self, bytes: Vec<u8>, now: Nanos) {
        self.net
            .send(self.attacker, self.server, Msg::from_wire(bytes), now);
    }
    fn pull(&mut self, now: Nanos) -> Vec<Vec<u8>> {
        let mut arrivals = Vec::new();
        self.net.recv_burst(now, usize::MAX, &mut arrivals);
        arrivals.into_iter().map(|a| a.frame.to_wire()).collect()
    }
    fn settle(&mut self) {}
    fn burst_chunk(&self) -> Option<usize> {
        Some(self.chunk)
    }
}

impl Leg for UdpLeg {
    fn push(&mut self, bytes: Vec<u8>, now: Nanos) {
        self.tx
            .send(self.attacker, self.server, Msg::from_wire(bytes), now);
    }
    fn pull(&mut self, now: Nanos) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(arr) = self.rx.poll_arrival(now) {
            out.push(arr.frame.to_wire());
        }
        out
    }
    fn settle(&mut self) {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// The live world: one server endpoint with two connections, two
/// single-connection clients.
struct World {
    server: ShardedEndpoint,
    server_handles: [ShardHandle; 2],
    clients: [ShardedEndpoint; 2],
    client_handles: [ShardHandle; 2],
    client_addrs: [EndpointAddr; 2],
    /// Scratch for the endpoints' burst drains.
    tx: Vec<(EndpointAddr, Msg)>,
    rx: Vec<ShardDelivery>,
    next_seq: [u64; 2],
    now: Nanos,
}

/// Marker byte for client `i`'s payloads (0xAA / 0xBB).
fn marker(i: usize) -> u8 {
    0xAA + 0x11 * i as u8
}

/// A fuzz payload: 16 marker bytes + the 8-byte sequence number.
fn payload(i: usize, seq: u64) -> Vec<u8> {
    let mut p = vec![marker(i); MARKER_LEN];
    p.extend_from_slice(&seq.to_be_bytes());
    p
}

/// What a delivered payload's marker says about its origin.
#[derive(Debug, PartialEq, Eq)]
enum Origin {
    /// Clean marker of client `i`, with its sequence number.
    Client(usize, u64),
    /// Not a clean marker (possible only after payload corruption).
    Garbled,
}

fn classify(bytes: &[u8]) -> Origin {
    if bytes.len() == MARKER_LEN + 8 {
        for i in 0..2 {
            if bytes[..MARKER_LEN].iter().all(|&b| b == marker(i)) {
                let seq = u64::from_be_bytes(bytes[MARKER_LEN..].try_into().expect("8 bytes"));
                return Origin::Client(i, seq);
            }
        }
    }
    Origin::Garbled
}

impl World {
    fn new(seed: u64, shards: usize) -> World {
        let server_addr = EndpointAddr::from_parts(10, 7);
        let client_addrs = [
            EndpointAddr::from_parts(1, 7),
            EndpointAddr::from_parts(2, 7),
        ];
        let mk = |local, peer, seed| {
            Connection::new(
                StackSpec::paper().build(),
                PaConfig::paper_default(),
                ConnectionParams::new(local, peer, seed),
            )
            .expect("paper stack builds")
        };
        let mut server = ShardedEndpoint::new(shards);
        let server_handles = [
            server.add_connection(mk(server_addr, client_addrs[0], seed ^ 0x5EED_0001)),
            server.add_connection(mk(server_addr, client_addrs[1], seed ^ 0x5EED_0002)),
        ];
        let mut clients = [ShardedEndpoint::new(1), ShardedEndpoint::new(1)];
        let client_handles = [
            clients[0].add_connection(mk(client_addrs[0], server_addr, seed ^ 0xC11E_0001)),
            clients[1].add_connection(mk(client_addrs[1], server_addr, seed ^ 0xC11E_0002)),
        ];
        World {
            server,
            server_handles,
            clients,
            client_handles,
            client_addrs,
            next_seq: [0, 0],
            now: 1,
            tx: Vec::new(),
            rx: Vec::new(),
        }
    }

    fn server_conn(&self, i: usize) -> &Connection {
        let conn = self.server.try_conn(self.server_handles[i]);
        conn.expect("the harness never removes a connection")
    }

    fn client_conn(&self, i: usize) -> &Connection {
        let conn = self.clients[i].try_conn(self.client_handles[i]);
        conn.expect("the harness never removes a connection")
    }

    fn client_send(&mut self, i: usize, payload: &[u8]) {
        let sent = self.clients[i].try_send(self.client_handles[i], payload);
        sent.expect("the harness never removes a connection");
    }

    /// Everything client `i` has for the wire, as wire bytes.
    fn client_frames(&mut self, i: usize) -> Vec<Vec<u8>> {
        self.clients[i].poll_transmit_burst(usize::MAX, &mut self.tx);
        self.tx.drain(..).map(|(_, f)| f.to_wire()).collect()
    }

    /// Asserts the whole accounting lattice. `ctx` goes into the panic
    /// message so a failure carries its reproduction handle.
    fn check_invariants(&self, seed: u64, iter: u64) {
        assert!(
            self.server.demux_balanced(),
            "demux imbalance at server (seed={seed:#x} iter={iter}): \
             seen={} != routed+rejects",
            self.server.front_stats().frames
        );
        for i in 0..2 {
            let s = self.server_conn(i).stats();
            assert!(
                s.delivery_balanced(),
                "server conn{i} delivery imbalance (seed={seed:#x} iter={iter}): {s}"
            );
            assert!(
                s.rejects_reconcile(),
                "server conn{i} reject ledger mismatch (seed={seed:#x} iter={iter}): {s}"
            );
        }
        for (i, c) in self.clients.iter().enumerate() {
            assert!(
                c.demux_balanced(),
                "demux imbalance at client {i} (seed={seed:#x} iter={iter})"
            );
            let s = self.client_conn(i).stats();
            assert!(
                s.delivery_balanced(),
                "client {i} delivery imbalance (seed={seed:#x} iter={iter}): {s}"
            );
            assert!(
                s.rejects_reconcile(),
                "client {i} reject ledger mismatch (seed={seed:#x} iter={iter}): {s}"
            );
        }
    }

    /// Drains server deliveries, enforcing the cross-connection rule.
    /// Returns `(delivered, garbled, probe_hits)`.
    fn drain_server(
        &mut self,
        seed: u64,
        iter: u64,
        corrupting_seen: bool,
    ) -> (u64, u64, [bool; 2]) {
        let mut delivered = 0;
        let mut garbled = 0;
        let mut probes = [false, false];
        self.server.drain_deliveries(&mut self.rx);
        for d in self.rx.drain(..) {
            delivered += 1;
            match classify(d.msg.as_slice()) {
                Origin::Client(i, seq) => {
                    let expect = self
                        .server_handles
                        .iter()
                        .position(|&h| h == d.conn)
                        .expect("delivery from a known connection");
                    assert_eq!(
                        i,
                        expect,
                        "CROSS-CONNECTION DELIVERY (seed={seed:#x} iter={iter}): \
                         payload of client {i} delivered on connection {expect}\n{}",
                        hexdump(d.msg.as_slice())
                    );
                    if seq == PROBE_SEQ {
                        probes[i] = true;
                    }
                }
                Origin::Garbled => {
                    assert!(
                        corrupting_seen,
                        "garbled delivery without any payload-corrupting mutation \
                         (seed={seed:#x} iter={iter}):\n{}",
                        hexdump(d.msg.as_slice())
                    );
                    garbled += 1;
                }
            }
        }
        (delivered, garbled, probes)
    }

    /// Moves server→client traffic (acks, retransmission requests),
    /// optionally mutating some of it, and drains client deliveries
    /// (clients are sinks; the server never sends payloads, so nothing
    /// meaningful arrives — but the demux must stay balanced).
    fn shuttle_reverse(&mut self, rng: &mut SplitMix64, mutate_ratio: f64) -> u64 {
        let mut corrupting = 0;
        self.server.poll_transmit_burst(usize::MAX, &mut self.tx);
        for (dest, frame) in self.tx.drain(..) {
            let Some(i) = self.client_addrs.iter().position(|&a| a == dest) else {
                continue;
            };
            let bytes = frame.to_wire();
            if mutate_ratio > 0.0 && rng.gen_bool(mutate_ratio) {
                let m = draw_mutation(rng);
                if m.corrupts_payload() {
                    corrupting += 1;
                }
                let mutated = apply(m, rng, &bytes, None);
                note_injection(&mutated);
                self.clients[i].from_network(Msg::from_wire(mutated));
            } else {
                self.clients[i].from_network(Msg::from_wire(bytes));
            }
            self.clients[i].drain_deliveries(&mut self.rx);
            self.rx.clear();
        }
        corrupting
    }

    /// Ticks and post-processes everyone at the current virtual time.
    fn settle(&mut self) {
        for c in &mut self.clients {
            c.process_all_pending();
            c.tick(self.now);
        }
        self.server.process_all_pending();
        self.server.tick(self.now);
    }
}

/// Runs the campaign over the in-memory (simulator) transport.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    run_with_leg(cfg, DirectLeg::default(), 1)
}

/// Runs the campaign with the attacker→server leg crossing real UDP
/// loopback sockets through [`UdpNet`].
pub fn run_udp_campaign(cfg: &FuzzConfig) -> CampaignReport {
    run_with_leg(cfg, UdpLeg::new(), 1)
}

/// Runs the campaign with arrivals pulled through the batched netif
/// path ([`LoopbackNet::recv_burst`]) and demuxed through
/// [`ShardedEndpoint::from_network_burst`] in chunks of up to `chunk` frames —
/// the hostile-wire proof that burst ingestion is outcome-identical to
/// the per-frame demux.
pub fn run_burst_campaign(cfg: &FuzzConfig, chunk: usize) -> CampaignReport {
    run_with_leg(cfg, BurstLeg::new(chunk), 1)
}

/// Demuxes everything a leg delivered into the server endpoint.
///
/// With `chunk == None` (the per-frame legs) each frame goes through
/// [`ShardedEndpoint::from_network`] exactly as the seed harness did.
/// With `chunk == Some(k)` the frames are grouped into bursts of up to
/// `k` and demuxed through [`ShardedEndpoint::from_network_burst`] — same
/// injection notes, same count, so a burst campaign's totals must equal
/// the per-frame campaign's for the same seed.
fn ingest(world: &mut World, frames: Vec<Vec<u8>>, chunk: Option<usize>) -> u64 {
    let n = frames.len() as u64;
    match chunk {
        None => {
            for bytes in frames {
                note_injection(&bytes);
                world.server.from_network(Msg::from_wire(bytes));
            }
        }
        Some(k) => {
            let k = k.max(1);
            let mut burst: Vec<Msg> = Vec::with_capacity(k);
            for group in frames.chunks(k) {
                burst.clear();
                for bytes in group {
                    note_injection(bytes);
                    burst.push(Msg::from_wire(bytes.clone()));
                }
                world.server.from_network_burst(&mut burst);
            }
        }
    }
    n
}

/// The campaign body. `shards` sizes the server endpoint: the public
/// entries run a single-table server, the tests below also run eight
/// shards — the storm and every invariant are the same at any count.
fn run_with_leg(cfg: &FuzzConfig, mut leg: impl Leg, shards: usize) -> CampaignReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut world = World::new(cfg.seed, shards);
    let mut report = CampaignReport {
        seed: cfg.seed,
        iterations: cfg.iterations,
        ..CampaignReport::default()
    };
    // Donor corpus for splices and replays: last clean frame per client.
    let mut last_frame: [Option<Vec<u8>>; 2] = [None, None];
    // Frames held back by the Reorder mutation.
    let mut held: VecDeque<Vec<u8>> = VecDeque::new();
    let mut corrupting_seen = false;

    for iter in 0..cfg.iterations {
        world.now += STEP;
        // Offer fresh payloads while the backlog is sane.
        for i in 0..2 {
            if world.client_conn(i).backlog_len() < BACKLOG_CAP {
                let seq = world.next_seq[i];
                world.next_seq[i] += 1;
                world.client_send(i, &payload(i, seq));
            }
        }
        for c in &mut world.clients {
            c.process_all_pending();
            c.tick(world.now);
        }

        // Capture the forward leg and decide each frame's fate.
        for i in 0..2 {
            for bytes in world.client_frames(i) {
                if rng.gen_bool(cfg.clean_ratio) {
                    last_frame[i] = Some(bytes.clone());
                    report.clean += 1;
                    leg.push(bytes, world.now);
                    continue;
                }
                let m = draw_mutation(&mut rng);
                report.mutation_counts[m.index()] += 1;
                report.mutated += 1;
                if m.corrupts_payload() {
                    corrupting_seen = true;
                }
                match m {
                    Mutation::Duplicate => {
                        leg.push(bytes.clone(), world.now);
                        leg.push(bytes, world.now);
                    }
                    Mutation::Reorder => {
                        held.push_back(bytes);
                        if held.len() > 32 {
                            let old = held.pop_front().expect("non-empty");
                            leg.push(old, world.now);
                        }
                    }
                    _ => {
                        let donor = last_frame[1 - i].as_deref();
                        leg.push(apply(m, &mut rng, &bytes, donor), world.now);
                    }
                }
            }
        }
        // Replay pressure: the live stream throttles itself when the
        // storm destroys its frames (the window stalls until its RTO
        // fires), but an attacker with a capture does not — every
        // iteration it also injects mutated variants of previously
        // captured frames. Stale sequence numbers are expected and
        // must be *accounted*, not just survived: the window refuses
        // them as ReplayedSeq and the ledger reconciles anyway.
        for _ in 0..2 {
            let j = rng.gen_index(2);
            let Some(src) = last_frame[j].clone() else {
                continue;
            };
            let m = draw_mutation(&mut rng);
            report.mutation_counts[m.index()] += 1;
            report.mutated += 1;
            if m.corrupts_payload() {
                corrupting_seen = true;
            }
            match m {
                Mutation::Duplicate => {
                    leg.push(src.clone(), world.now);
                    leg.push(src, world.now);
                }
                Mutation::Reorder => {
                    held.push_back(src);
                    if held.len() > 32 {
                        let old = held.pop_front().expect("non-empty");
                        leg.push(old, world.now);
                    }
                }
                _ => {
                    let donor = last_frame[1 - j].as_deref();
                    leg.push(apply(m, &mut rng, &src, donor), world.now);
                }
            }
        }

        // Sometimes release a held frame out of order, and sometimes
        // inject pure line noise on top of everything.
        if !held.is_empty() && rng.gen_bool(0.2) {
            let f = held.pop_front().expect("non-empty");
            leg.push(f, world.now);
        }
        if rng.gen_bool(0.1) {
            report.mutation_counts[Mutation::RandomBytes.index()] += 1;
            report.mutated += 1;
            corrupting_seen = true;
            leg.push(apply(Mutation::RandomBytes, &mut rng, &[], None), world.now);
        }

        // Everything that reached the server goes through the demux.
        let arrivals = leg.pull(world.now);
        report.injected += ingest(&mut world, arrivals, leg.burst_chunk());
        world.server.process_all_pending();
        world.server.tick(world.now);

        let (d, g, _) = world.drain_server(cfg.seed, iter, corrupting_seen);
        report.delivered += d;
        report.garbled += g;
        if world.shuttle_reverse(&mut rng, cfg.reverse_mutate_ratio) > 0 {
            corrupting_seen = true;
        }
        world.check_invariants(cfg.seed, iter);
    }

    // Flush anything still held or in flight.
    for f in held.drain(..) {
        leg.push(f, world.now);
    }
    leg.settle();
    let arrivals = leg.pull(world.now);
    report.injected += ingest(&mut world, arrivals, leg.burst_chunk());
    let (d, g, _) = world.drain_server(cfg.seed, cfg.iterations, corrupting_seen);
    report.delivered += d;
    report.garbled += g;
    world.check_invariants(cfg.seed, cfg.iterations);

    // Liveness: both connections must still carry a fresh probe.
    report.recovered = prove_liveness(&mut world, &mut leg, cfg, corrupting_seen);
    report.demux_rejects = world.server.global_rejects().total();
    report.conn_rejects = (0..2)
        .map(|i| world.server_conn(i).stats().rejects.total())
        .sum();
    report
}

/// Post-storm recovery: send one probe per client over a now-clean
/// network and require both to arrive (retransmission is allowed to do
/// its job — the probe may need several RTOs to squeeze past the
/// window state the storm left behind).
fn prove_liveness(
    world: &mut World,
    leg: &mut impl Leg,
    cfg: &FuzzConfig,
    corrupting_seen: bool,
) -> bool {
    for i in 0..2 {
        world.client_send(i, &payload(i, PROBE_SEQ));
    }
    let mut seen = [false, false];
    for round in 0..4000u64 {
        world.now += STEP;
        world.settle();
        let mut moved = false;
        for i in 0..2 {
            for bytes in world.client_frames(i) {
                leg.push(bytes, world.now);
                moved = true;
            }
        }
        if ingest(world, leg.pull(world.now), leg.burst_chunk()) > 0 {
            moved = true;
        }
        world.server.process_all_pending();
        let (_, _, probes) = world.drain_server(cfg.seed, u64::MAX - round, corrupting_seen);
        for i in 0..2 {
            seen[i] |= probes[i];
        }
        world.shuttle_reverse(&mut SplitMix64::new(0), 0.0);
        world.check_invariants(cfg.seed, u64::MAX - round);
        if seen == [true, true] {
            return true;
        }
        if !moved {
            leg.settle();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_classifier_roundtrips() {
        assert_eq!(classify(&payload(0, 7)), Origin::Client(0, 7));
        assert_eq!(
            classify(&payload(1, PROBE_SEQ)),
            Origin::Client(1, PROBE_SEQ)
        );
        assert_eq!(classify(b"anything else"), Origin::Garbled);
        let mut p = payload(0, 7);
        p[3] ^= 0x01;
        assert_eq!(classify(&p), Origin::Garbled);
    }

    #[test]
    fn small_campaign_reconciles_and_recovers() {
        for shards in [1, 8] {
            let cfg = FuzzConfig::new(0xF0_22, 400);
            let report = run_with_leg(&cfg, DirectLeg::default(), shards);
            assert!(report.recovered, "{report}");
            assert!(report.injected > 400, "{report}");
            assert!(report.delivered > 0, "{report}");
            assert!(report.mutated > 0, "{report}");
        }
    }

    #[test]
    fn burst_campaign_reconciles_and_recovers() {
        for shards in [1, 8] {
            let cfg = FuzzConfig::new(0xB0_57, 400);
            let report = run_with_leg(&cfg, BurstLeg::new(32), shards);
            assert!(report.recovered, "{report}");
            assert!(report.injected > 400, "{report}");
            assert!(report.delivered > 0, "{report}");
        }
    }

    #[test]
    fn burst_ingest_is_outcome_identical_to_per_frame_demux() {
        // Same seed, same storm — the only difference is arrivals being
        // demuxed through from_network_burst in chunks instead of one
        // from_network call per frame. from_network_burst is counter-
        // and outcome-identical to the per-frame path, so every campaign
        // total must match exactly, at any chunk size and shard count.
        for shards in [1, 8] {
            let cfg = FuzzConfig::new(0x600D_F00D, 300);
            let direct = run_with_leg(&cfg, DirectLeg::default(), shards);
            for chunk in [1usize, 7, 64] {
                let ctx = format!("{shards} shards, chunk {chunk}");
                let burst = run_with_leg(&cfg, BurstLeg::new(chunk), shards);
                assert_eq!(burst.injected, direct.injected, "{ctx}");
                assert_eq!(burst.delivered, direct.delivered, "{ctx}");
                assert_eq!(burst.garbled, direct.garbled, "{ctx}");
                assert_eq!(burst.demux_rejects, direct.demux_rejects, "{ctx}");
                assert_eq!(burst.conn_rejects, direct.conn_rejects, "{ctx}");
                assert_eq!(burst.recovered, direct.recovered, "{ctx}");
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(&FuzzConfig::new(42, 150));
        let b = run_campaign(&FuzzConfig::new(42, 150));
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mutation_counts, b.mutation_counts);
        assert_eq!(a.demux_rejects, b.demux_rejects);
    }
}
