//! Integration gates for the batched wire + pipelined engine (PR 9):
//!
//! - a fault storm driven entirely through the burst APIs
//!   (`send_burst` / `recv_burst` / `from_network_burst`), with the
//!   demux ledger, every delivery ledger and the masking ledger checked
//!   for exact balance after *every* burst — mid-storm, not just at
//!   quiescence;
//! - the burst=1 identity: a `BurstPipeline` at burst 1 with inline
//!   posts must produce wire bytes and counters identical to the seed
//!   per-packet engine;
//! - traced journeys across the batched, threaded pipeline must be
//!   ≥ 99% complete.

use pa::core::{Connection, ConnectionParams, PaConfig, ShardHandle, ShardedEndpoint};
use pa::obs::{MaskDomain, MaskingLedger};
use pa::sim::{per_packet_reference, BurstPipeline, PipelineConfig};
use pa::stack::window::WindowConfig;
use pa::stack::StackSpec;
use pa::unet::{FaultConfig, LinkProfile, Netif, SimNet};
use pa::wire::EndpointAddr;

#[path = "common/shards.rs"]
mod shards;

fn storm_spec() -> StackSpec {
    StackSpec {
        window: WindowConfig {
            rto: 2_000_000,
            ack_every: 2,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    }
}

fn mk_conn(spec: &StackSpec, local: EndpointAddr, peer: EndpointAddr, seed: u64) -> Connection {
    Connection::new(
        spec.build(),
        PaConfig::paper_default(),
        ConnectionParams::new(local, peer, seed),
    )
    .expect("paper stack builds")
}

/// Every ledger the burst path touches, checked mid-storm: the demux
/// tally, each connection's delivery balance, and masking conservation
/// (on-path + masked + leaked == the phase meters, by `==`) — with
/// bursts half-delivered and post work still pending.
fn assert_burst_invariants(server: &ShardedEndpoint, handles: &[ShardHandle; 2]) {
    assert!(server.demux_balanced(), "demux ledger out of balance");
    for &h in handles {
        let conn = server.try_conn(h).expect("never removed");
        assert!(
            conn.stats().delivery_balanced(),
            "delivery ledger out of balance: {}",
            conn.stats()
        );
        let report = conn.xray_report();
        let ml = MaskingLedger::from_phases("storm", &report.phases, MaskDomain::Virtual);
        assert!(
            ml.conserves(&report.phases),
            "masking ledger broke mid-burst:\n{}",
            ml.render()
        );
    }
}

/// A lossy, corrupting, duplicating, reordering network between two
/// burst-mode clients and one burst-demuxing server. All wire traffic
/// moves through the burst APIs; the reliability layers must still
/// deliver everything exactly once, in order, and every ledger must
/// balance after every single burst.
#[test]
fn fault_storm_through_the_burst_path_keeps_every_ledger_balanced() {
    shards::at_each_shard_count(fault_storm_through_the_burst_path);
}

fn fault_storm_through_the_burst_path(shards: usize) {
    const BURST: usize = 8;
    const SEND_ROUNDS: u64 = 40;

    let spec = storm_spec();
    let server_addr = EndpointAddr::from_parts(9, 1);
    let client_addrs = [
        EndpointAddr::from_parts(1, 1),
        EndpointAddr::from_parts(2, 1),
    ];
    let mut server = ShardedEndpoint::new(shards);
    let handles = [
        server.add_connection(mk_conn(&spec, server_addr, client_addrs[0], 0xA1)),
        server.add_connection(mk_conn(&spec, server_addr, client_addrs[1], 0xA2)),
    ];
    let mut clients = [
        mk_conn(&spec, client_addrs[0], server_addr, 0xB1),
        mk_conn(&spec, client_addrs[1], server_addr, 0xB2),
    ];
    let mut net = SimNet::new(
        LinkProfile::atm_unet(),
        FaultConfig {
            drop: 0.08,
            corrupt: 0.02,
            duplicate: 0.03,
            reorder: 0.05,
            reorder_delay: 40_000,
            seed: 0xB57,
        },
    );

    // Reusable burst scratch — the steady state never allocates new
    // vectors, mirroring how a host would drive the API.
    let mut wire: Vec<pa::buf::Msg> = Vec::new();
    let mut arrivals = Vec::new();
    let mut to_server: Vec<pa::buf::Msg> = Vec::new();
    let mut delivered: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
    let mut deliveries = Vec::new();
    let mut replies = Vec::new();

    let payload = |i: usize, seq: u64| -> Vec<u8> {
        let mut p = vec![0xC0 + i as u8; 8];
        p.extend_from_slice(&seq.to_be_bytes());
        p
    };

    let mut now: u64 = 0;
    let tick = 1_000_000;
    let total_rounds = 4_000; // virtual ms budget; the storm needs RTOs
    for round in 0..total_rounds {
        now += tick;
        // Offer a burst per client while the send phase lasts.
        if round < SEND_ROUNDS {
            for (i, client) in clients.iter_mut().enumerate() {
                let seqs: Vec<Vec<u8>> = (0..BURST as u64)
                    .map(|k| payload(i, round * BURST as u64 + k))
                    .collect();
                let refs: Vec<&[u8]> = seqs.iter().map(|p| p.as_slice()).collect();
                let rep = client.send_burst(&refs);
                assert_eq!(rep.accepted() + rep.rejected, BURST);
            }
        }
        // Client → wire, as bursts.
        for (i, client) in clients.iter_mut().enumerate() {
            let n = client.poll_transmit_burst(usize::MAX, &mut wire);
            if n > 0 {
                net.send_burst(client_addrs[i], server_addr, &mut wire, now);
            }
        }
        // Server → wire (acks and retransmissions), frame by frame,
        // so both send flavors interleave on one network.
        server.poll_transmit_burst(usize::MAX, &mut replies);
        for (peer, f) in replies.drain(..) {
            net.send(server_addr, peer, f, now);
        }
        // Wire → endpoints, pulled as one burst and split by address.
        arrivals.clear();
        net.recv_burst(now, usize::MAX, &mut arrivals);
        for arr in arrivals.drain(..) {
            if arr.to == server_addr {
                to_server.push(arr.frame);
            } else {
                let i = if arr.to == client_addrs[0] { 0 } else { 1 };
                let mut one = vec![arr.frame];
                clients[i].deliver_burst(&mut one);
            }
        }
        if !to_server.is_empty() {
            server.from_network_burst(&mut to_server);
            // The load-bearing assertion: every ledger balances right
            // now, with this burst half-digested and posts pending.
            assert_burst_invariants(&server, &handles);
        }
        server.process_all_pending();
        server.tick(now);
        for client in clients.iter_mut() {
            client.process_pending();
            client.tick(now);
        }
        assert_burst_invariants(&server, &handles);

        server.drain_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            let i = handles.iter().position(|&h| h == d.conn).expect("known");
            delivered[i].push(d.msg.as_slice().to_vec());
        }
        let want = (SEND_ROUNDS * BURST as u64) as usize;
        if delivered[0].len() == want && delivered[1].len() == want {
            break;
        }
    }

    // Exactly once, in order, per connection — despite the storm.
    for (i, got) in delivered.iter().enumerate() {
        let want: Vec<Vec<u8>> = (0..SEND_ROUNDS * BURST as u64)
            .map(|s| payload(i, s))
            .collect();
        assert_eq!(
            got, &want,
            "client {i}: burst path must deliver exactly once, in order"
        );
    }
    assert!(
        net.fault_stats().dropped > 0,
        "the network really did misbehave"
    );
}

/// Burst size 1 with inline posts is the seed engine, bit for bit:
/// identical wire bytes in identical order, identical counters on both
/// endpoints.
#[test]
fn burst_one_pipeline_matches_the_seed_engine_exactly() {
    let cfg = PipelineConfig {
        capture_frames: true,
        ..PipelineConfig::per_packet(48)
    };
    let run = BurstPipeline::run(cfg.clone());
    let (frames, stats_a, stats_b) = per_packet_reference(&cfg);
    assert_eq!(run.frames, frames, "wire bytes diverged from seed engine");
    assert_eq!(run.stats_a, stats_a, "requester counters diverged");
    assert_eq!(run.stats_b, stats_b, "echoer counters diverged");
}

/// Journeys traced across the batched, threaded pipeline: send on the
/// app thread, post-drain on the worker, reply on the app thread —
/// ≥ 99% must stitch into complete journeys, and the merged masking
/// ledger must conserve exactly.
#[test]
fn batched_threaded_journeys_are_complete_and_conserved() {
    let report = BurstPipeline::run(PipelineConfig::traced(200, 32));
    assert_eq!(report.completed, report.offered, "open loop must drain");
    assert!(
        !report.journeys.is_empty(),
        "traced run must yield journeys"
    );
    assert!(
        report.journeys.completeness() >= 0.99,
        "journeys incomplete: {}",
        report.journeys.completeness()
    );
    assert!(report.conserves(), "merged ledger must conserve exactly");
}
