//! The progress invariant of the endpoint ready sets, as a test.
//!
//! The endpoint's drains do not scan the connection tables: they
//! consume per-shard ready sets that every path touching a connection
//! must feed. A missed enqueue loses nothing the conservation ledgers
//! can see — the message sits in its connection's queue, counted,
//! forever undrained (PR 10's stranded-delivery bug had exactly that
//! shape, on a list of shards the drain used to follow). So this suite
//! drives a seeded random sequence of *every* operation that can put
//! work on a connection, at one shard and at eight, and after each step
//! checks [`ShardedEndpoint::ready_balanced`] — a full scan, independent
//! of the sets: no live connection with a pending delivery, transmit or
//! post job is off its set, and no slot is queued twice.
//!
//! The paper stack is used throughout because its window layer gives
//! the sequence real timers (tick retransmits), held out-of-order
//! messages (released by a later arrival's post phase) and a send
//! backlog (drained by `process_all_pending`).

use std::collections::HashMap;

use pa::buf::Msg;
use pa::core::{Connection, ConnectionParams, PaConfig, ShardHandle, ShardedEndpoint};
use pa::obs::rng::{Rng, SplitMix64};
use pa::stack::StackSpec;
use pa::wire::EndpointAddr;

const SERVER: u64 = 1;
const STEPS: usize = 600;
const SEEDS: [u64; 6] = [1, 2, 3, 0x9601, 0xFA41, 0xC0FFEE];

fn conn(local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        StackSpec::paper().build(),
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 7),
            EndpointAddr::from_parts(peer, 7),
            seed,
        ),
    )
    .expect("the paper stack is a valid stack")
}

/// The remote half of one connection and the bookkeeping to check
/// per-connection delivery order: payloads are `(host, seq)`.
struct Peer {
    host: u64,
    client: Connection,
    /// The server-side twin's handle while it is admitted.
    twin: Option<ShardHandle>,
    sent: u32,
    /// Next sequence number the server must deliver for this peer.
    expect: u32,
}

impl Peer {
    fn new(host: u64) -> Peer {
        Peer {
            host,
            client: conn(host, SERVER, 2 * host),
            twin: None,
            sent: 0,
            expect: 0,
        }
    }

    /// Sends the next payload and returns every frame the client now
    /// has for the wire (data, acks, retransmissions).
    fn send(&mut self) -> Vec<Msg> {
        let mut payload = self.host.to_be_bytes().to_vec();
        payload.extend_from_slice(&self.sent.to_be_bytes());
        self.sent += 1;
        self.client.send(&payload);
        self.frames()
    }

    fn frames(&mut self) -> Vec<Msg> {
        let mut out = Vec::new();
        self.client.poll_transmit_burst(usize::MAX, &mut out);
        self.client.process_pending();
        self.client.poll_transmit_burst(usize::MAX, &mut out);
        out
    }

    /// A server-to-client frame arrived; the application reads and
    /// drops whatever it delivers.
    fn receive(&mut self, frame: Msg) {
        self.client.deliver_frame(frame);
        while self.client.poll_delivery().is_some() {}
    }
}

/// Checks one drained delivery against its connection's sequence. The
/// window layer delivers in order, so within a connection the sequence
/// numbers count up by one whatever the interleaving across
/// connections.
fn check_delivery(peers: &mut [Peer], payload: &[u8], ctx: &str) {
    let host = u64::from_be_bytes(payload[..8].try_into().unwrap());
    let seq = u32::from_be_bytes(payload[8..12].try_into().unwrap());
    let peer = peers
        .iter_mut()
        .find(|p| p.host == host)
        .unwrap_or_else(|| panic!("{ctx}: delivery from unknown host {host}"));
    assert_eq!(
        seq, peer.expect,
        "{ctx}: host {host} delivered out of order"
    );
    peer.expect += 1;
}

/// The twin of a peer that never connected: it arrives at the endpoint
/// with deliveries and post work already queued.
fn preloaded_twin(peer: &mut Peer) -> Connection {
    let mut twin = conn(SERVER, peer.host, 2 * peer.host + 1);
    for frame in peer.send() {
        twin.deliver_frame(frame);
    }
    assert!(
        twin.has_delivery(),
        "the adopt case needs a queued delivery"
    );
    twin
}

/// The model: `STEPS` random operations against a `shards`-shard
/// endpoint, the invariants checked after every one.
fn ready_sets_cover_every_pending_queue(shards: usize) {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ shards as u64);
        let mut server = ShardedEndpoint::new(shards);
        let mut peers: Vec<Peer> = Vec::new();
        let mut next_host = 100u64;
        // Frames held back from the wire, re-injected later (reordering
        // and, with the originals' retransmissions, duplicates).
        let mut delayed: Vec<Msg> = Vec::new();
        let mut now = 0u64;
        let mut drained = Vec::new();
        let mut transmits = Vec::new();
        // Every handle ever removed must stay refused, also after the
        // directory slot it named is reused.
        let mut dead: Vec<ShardHandle> = Vec::new();

        for step in 0..STEPS {
            let op = rng.gen_index(12);
            let ctx = format!("{shards} shards seed {seed:#x} step {step} op {op}");
            let pick = |rng: &mut SplitMix64, n: usize| (n > 0).then(|| rng.gen_index(n));
            match op {
                // Admit a fresh peer (reusing a freed slot if any).
                0 => {
                    let mut p = Peer::new(next_host);
                    next_host += 1;
                    p.twin = Some(server.add_connection(conn(SERVER, p.host, 2 * p.host + 1)));
                    peers.push(p);
                }
                // A connection that arrives with work queued.
                1 => {
                    let mut p = Peer::new(next_host);
                    next_host += 1;
                    let twin = preloaded_twin(&mut p);
                    p.twin = Some(server.add_connection(twin));
                    peers.push(p);
                }
                // Per-frame ingest, some frames held back.
                2 | 3 => {
                    if let Some(i) = pick(&mut rng, peers.len()) {
                        for f in peers[i].send() {
                            if rng.gen_bool(0.2) {
                                delayed.push(f);
                            } else {
                                server.from_network(f);
                            }
                        }
                    }
                }
                // Burst ingest across several peers plus the held-back
                // frames (per-shard segments).
                4 => {
                    let mut burst: Vec<Msg> = std::mem::take(&mut delayed);
                    for _ in 0..rng.gen_index(4) {
                        if let Some(i) = pick(&mut rng, peers.len()) {
                            burst.extend(peers[i].send());
                        }
                    }
                    server.from_network_burst(&mut burst);
                }
                // Re-key: the next frame carries the ident again. With
                // more than one shard, until the connection has to
                // migrate: its queued work travels with it.
                5 => {
                    if let Some(i) = pick(&mut rng, peers.len()) {
                        if let Some(h) = peers[i].twin {
                            let home = server.shard_of_conn(h);
                            for f in peers[i].send() {
                                server.from_network(f);
                            }
                            for _ in 0..8 {
                                peers[i].client.rotate_cookie(rng.next_u64());
                                if Some(server.shard_of(peers[i].client.local_cookie())) != home {
                                    break;
                                }
                            }
                            for f in peers[i].send() {
                                server.from_network(f);
                            }
                        }
                    }
                }
                // Application send through the endpoint; repeated sends
                // build a backlog only post work drains.
                6 => {
                    if let Some(h) = pick(&mut rng, peers.len()).and_then(|i| peers[i].twin) {
                        for _ in 0..1 + rng.gen_index(3) {
                            server.try_send(h, b"from the server").expect("live handle");
                        }
                    }
                }
                // Direct drive through a handed-out &mut Connection.
                7 => {
                    if let Some(i) = pick(&mut rng, peers.len()) {
                        let frames = peers[i].send();
                        if let Some(h) = peers[i].twin {
                            let twin = server.try_conn_mut(h).expect("live handle");
                            for f in frames {
                                twin.deliver_frame(f);
                            }
                            twin.send(b"driven directly");
                        }
                    }
                }
                // Timers: both sides retransmit what was held back or
                // never acknowledged.
                8 => {
                    now += 1_000_000_000;
                    server.tick(now);
                    for p in &mut peers {
                        p.client.tick(now);
                        let frames = p.frames();
                        if p.twin.is_some() {
                            for f in frames {
                                server.from_network(f);
                            }
                        }
                    }
                }
                9 => server.process_all_pending(),
                // Remove while (probably) still queued; the next admit
                // reuses the slot with its stale queue entries.
                10 => {
                    if let Some(i) = pick(&mut rng, peers.len()) {
                        if let Some(h) = peers[i].twin.take() {
                            for f in peers[i].send() {
                                server.from_network(f);
                            }
                            server.remove_connection(h).expect("live handle");
                            dead.push(h);
                        }
                        peers.swap_remove(i);
                    }
                }
                // Drain transmits, cut short at a small `max`
                // (mid-connection), and carry them to the clients.
                _ => {
                    let max = 1 + rng.gen_index(3);
                    let n = server.poll_transmit_burst(max, &mut transmits);
                    assert!(n <= max && n == transmits.len(), "{ctx}");
                    for (to, f) in transmits.drain(..) {
                        if let Some(p) = peers.iter_mut().find(|p| p.client.local_addr() == to) {
                            p.receive(f);
                        }
                    }
                }
            }
            assert!(
                server.ready_balanced(),
                "{ctx}: ready sets lost a connection"
            );
            assert!(server.demux_balanced(), "{ctx}");

            // Drain on about half the steps, so work also sits across
            // steps; after a drain nothing may be left anywhere.
            if rng.gen_bool(0.5) {
                server.drain_deliveries(&mut drained);
                let by_handle: HashMap<_, _> = peers
                    .iter()
                    .filter_map(|p| Some((p.twin?, p.host)))
                    .collect();
                for d in drained.drain(..) {
                    let host = u64::from_be_bytes(d.msg.as_slice()[..8].try_into().unwrap());
                    assert_eq!(by_handle.get(&d.conn), Some(&host), "{ctx}: wrong handle");
                    assert_eq!(server.shard_of_conn(d.conn), Some(d.shard), "{ctx}");
                    check_delivery(&mut peers, d.msg.as_slice(), &ctx);
                }
                for p in &peers {
                    if let Some(twin) = p.twin.and_then(|h| server.try_conn(h)) {
                        assert!(!twin.has_delivery(), "{ctx}: stranded delivery");
                    }
                }
                assert_eq!(server.drain_deliveries(&mut drained), 0, "{ctx}");
                assert!(server.ready_balanced(), "{ctx}: after the drain");
            }
            for &h in &dead {
                assert!(server.try_conn(h).is_none(), "{ctx}: dead handle resolves");
            }
        }
        let rejects = server.front_stats().stale_handle_rejects;
        for &h in &dead {
            assert!(server.try_send(h, b"late").is_err());
        }
        assert_eq!(
            server.front_stats().stale_handle_rejects,
            rejects + dead.len() as u64,
            "every stale handle is a counted refusal"
        );
    }
}

#[test]
fn endpoint_ready_sets_cover_every_pending_queue() {
    ready_sets_cover_every_pending_queue(1);
}

#[test]
fn sharded_ready_sets_cover_every_pending_queue() {
    ready_sets_cover_every_pending_queue(8);
}

/// Whatever `process_all_pending` or `tick` releases, the next
/// `drain_deliveries` returns, at every shard count: a message the
/// window layer holds until post work runs is not stranded.
#[test]
fn what_post_work_and_timers_release_the_next_drain_returns() {
    for shards in [1, 8, 64] {
        let mut server = ShardedEndpoint::new(shards);
        let mut peers: Vec<Peer> = (0..32).map(|i| Peer::new(100 + i)).collect();
        for p in &mut peers {
            p.twin = Some(server.add_connection(conn(SERVER, p.host, 2 * p.host + 1)));
            for f in p.send() {
                server.from_network(f);
            }
        }
        let mut drained = Vec::new();
        assert_eq!(server.drain_deliveries(&mut drained), 32, "{shards} shards");
        server.process_all_pending();
        server.tick(1);
        assert_eq!(
            server.drain_deliveries(&mut drained),
            0,
            "{shards} shards: nothing was released"
        );

        // One connection gets out-of-order frames: the window layer
        // holds the later message until the earlier one arrives, and
        // releases it in that arrival's post phase.
        let twin = peers[7].twin.unwrap();
        let mut frames = peers[7].send();
        frames.extend(peers[7].send());
        assert_eq!(frames.len(), 2);
        server.from_network(frames.pop().unwrap());
        server.from_network(frames.pop().unwrap());
        drained.clear();
        let early = server.drain_deliveries(&mut drained);
        assert_eq!(early, 1, "{shards} shards: the later message is held");
        assert!(!server.try_conn(twin).unwrap().has_delivery());
        server.process_all_pending();
        assert!(
            server.try_conn(twin).unwrap().has_delivery(),
            "{shards} shards: post work released the held message"
        );
        assert!(server.ready_balanced());
        let late = server.drain_deliveries(&mut drained);
        assert_eq!(
            early + late,
            2,
            "{shards} shards: the held message is stranded"
        );
        server.tick(2);
        assert!(server.ready_balanced());
        assert_eq!(
            server.drain_deliveries(&mut drained),
            0,
            "{shards} shards: the timers released nothing"
        );
        for p in &peers {
            let twin = server.try_conn(p.twin.unwrap()).unwrap();
            assert!(!twin.has_delivery(), "{shards} shards: stranded delivery");
        }
        for d in &drained {
            assert_eq!(d.conn, twin);
        }
    }
}
