//! Adversarial demux: cookie forgery, stale-cookie replay after a peer
//! restart, and cross-connection splicing.
//!
//! The fuzz crate (`pa-fuzz`) throws randomized storms at the demux;
//! this test is the *surgical* version of the same attacks. Every
//! injected frame is built to hit one specific [`RejectReason`] and
//! the test asserts the reject ledger reconciles **exactly** — not
//! "roughly survived", but every forged frame accounted by exactly one
//! reason, zero cross-connection deliveries, and both connections
//! still passing traffic after the storm.
//!
//! [`RejectReason`]: pa::obs::RejectReason

use pa::buf::Msg;
use pa::core::config::PaConfig;
use pa::core::conn::{Connection, ConnectionParams, DeliverOutcome};
use pa::core::{ShardHandle, ShardedEndpoint};
use pa::obs::rng::{Rng, SplitMix64};
use pa::obs::RejectReason;
use pa::stack::StackSpec;
use pa::wire::{EndpointAddr, PREAMBLE_LEN};

#[path = "common/shards.rs"]
mod shards;

/// Preamble flag bits (bit 63 ident-present, bit 62 byte-order).
const FLAG_MASK: u64 = 0b11u64 << 62;

const SERVER_HOST: u64 = 10;
const CLIENT_HOSTS: [u64; 2] = [1, 2];

fn paper_conn(local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        StackSpec::paper().build(),
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("valid paper stack")
}

fn marker(i: usize) -> Vec<u8> {
    format!("client-{i}-marked-payload").into_bytes()
}

/// One bidirectional shuttle round: clients → server, server →
/// clients, everyone ticks. Client→server wire bytes are appended to
/// `captured[i]`; server deliveries are checked against the marker rule
/// (a payload carrying client A's marker must arrive on A's
/// connection) and counted.
fn shuttle(
    server: &mut ShardedEndpoint,
    twins: &[ShardHandle; 2],
    clients: &mut [ShardedEndpoint; 2],
    captured: &mut [Vec<Vec<u8>>; 2],
    delivered: &mut [u64; 2],
    now: u64,
) {
    let mut wire = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        c.process_all_pending();
        c.tick(now);
        c.poll_transmit_burst(usize::MAX, &mut wire);
        for (_, f) in wire.drain(..) {
            let bytes = f.to_wire();
            captured[i].push(bytes.clone());
            server.from_network(Msg::from_wire(bytes));
        }
    }
    server.process_all_pending();
    server.tick(now);
    server.poll_transmit_burst(usize::MAX, &mut wire);
    for (to, f) in wire.drain(..) {
        let i = CLIENT_HOSTS
            .iter()
            .position(|&h| EndpointAddr::from_parts(h, 1) == to)
            .expect("server only talks to the two clients");
        clients[i].from_network(f);
    }
    let mut deliveries = Vec::new();
    server.drain_deliveries(&mut deliveries);
    for d in deliveries.drain(..) {
        let payload = d.msg.to_wire();
        for (i, m) in [marker(0), marker(1)].iter().enumerate() {
            if payload.starts_with(m) {
                assert_eq!(
                    d.conn, twins[i],
                    "CROSS-CONNECTION DELIVERY: client {i}'s payload arrived on {:?}",
                    d.conn
                );
                delivered[i] += 1;
            }
        }
    }
    for c in clients.iter_mut() {
        c.drain_deliveries(&mut deliveries);
        deliveries.clear();
    }
}

/// True if the first wire byte has the conn-ident-present bit clear —
/// i.e. the frame routes by cookie alone and is replayable as such.
fn is_cookie_only(bytes: &[u8]) -> bool {
    !bytes.is_empty() && bytes[0] & 0x80 == 0
}

#[test]
fn forged_spliced_and_stale_frames_are_exactly_accounted() {
    shards::at_each_shard_count(storm_is_exactly_accounted);
}

fn storm_is_exactly_accounted(shards: usize) {
    let mut rng = SplitMix64::new(0xAD5E_2026);
    let mut server = ShardedEndpoint::new(shards);
    let twins = [0, 1].map(|i| {
        server.add_connection(paper_conn(
            SERVER_HOST,
            CLIENT_HOSTS[i],
            0x5E44_0000 + i as u64,
        ))
    });
    let mut clients = [ShardedEndpoint::new(1), ShardedEndpoint::new(1)];
    let handles = [0, 1].map(|i| {
        clients[i].add_connection(paper_conn(
            CLIENT_HOSTS[i],
            SERVER_HOST,
            0xC000_0001 + i as u64,
        ))
    });
    let mut captured: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
    let mut delivered = [0u64; 2];
    let mut now = 0u64;
    let send = |clients: &mut [ShardedEndpoint; 2], i: usize| {
        clients[i].try_send(handles[i], &marker(i)).expect("live");
    };
    let cookie_of =
        |ep: &ShardedEndpoint, h: ShardHandle| ep.try_conn(h).expect("live").local_cookie().raw();

    // Warm-up: both clients push marked traffic until the server has
    // learned both cookies and plenty of cookie-only frames are in the
    // capture corpus.
    for _ in 0..20 {
        now += 1_000_000;
        send(&mut clients, 0);
        send(&mut clients, 1);
        shuttle(
            &mut server,
            &twins,
            &mut clients,
            &mut captured,
            &mut delivered,
            now,
        );
    }
    for _ in 0..20 {
        now += 1_000_000;
        shuttle(
            &mut server,
            &twins,
            &mut clients,
            &mut captured,
            &mut delivered,
            now,
        );
    }
    assert!(delivered[0] > 0 && delivered[1] > 0, "warm-up must deliver");
    assert_eq!(
        server.global_rejects().total(),
        0,
        "clean warm-up, clean ledger"
    );

    let live = [0, 1].map(|i| cookie_of(&clients[i], handles[i]));
    let server_cookies = twins.map(|h| cookie_of(&server, h));

    // ---- Attack 1: forged cookies -----------------------------------
    // Random nonzero cookies that are not any live binding, ident bit
    // clear: each one must be refused as exactly one UnknownCookie.
    let mut expect_unknown = 0u64;
    for _ in 0..150 {
        let cookie = loop {
            let c = rng.next_u64() & !FLAG_MASK;
            if c != 0 && !live.contains(&c) && !server_cookies.contains(&c) {
                break c;
            }
        };
        let mut frame = cookie.to_be_bytes().to_vec();
        let junk = rng.gen_index(64);
        frame.extend((0..junk).map(|_| (rng.next_u32() & 0xFF) as u8));
        let out = server.from_network(Msg::from_wire(frame));
        assert_eq!(out, DeliverOutcome::Dropped(RejectReason::UnknownCookie));
        expect_unknown += 1;
    }

    // ---- Attack 2: cross-connection splices -------------------------
    // Client 2's captured bodies grafted behind a forged preamble: the
    // cookie is unknown, so the splice never reaches *any* connection —
    // in particular never client 1's.
    for donor in captured[1].iter().filter(|b| b.len() > 8).take(50) {
        let cookie = loop {
            let c = rng.next_u64() & !FLAG_MASK;
            if c != 0 && !live.contains(&c) && !server_cookies.contains(&c) {
                break c;
            }
        };
        let mut frame = cookie.to_be_bytes().to_vec();
        frame.extend_from_slice(&donor[8..]);
        let out = server.from_network(Msg::from_wire(frame));
        assert_eq!(out, DeliverOutcome::Dropped(RejectReason::UnknownCookie));
        expect_unknown += 1;
    }

    // ---- Attack 3: stale-cookie replay after a rotation -------------
    // Client 1 rotates its cookie (suspected route compromise). The
    // next identified frame re-binds the route and retires the old
    // cookie. Replaying the pre-rotation capture must then hit
    // StaleCookie — never route anywhere.
    let old_cookie_only: Vec<Vec<u8>> = captured[0]
        .iter()
        .filter(|b| is_cookie_only(b))
        .cloned()
        .collect();
    assert!(
        old_cookie_only.len() >= 10,
        "warm-up must have produced replayable cookie-only frames, got {}",
        old_cookie_only.len()
    );
    clients[0]
        .try_conn_mut(handles[0])
        .expect("live")
        .rotate_cookie(0xB007_C0FF_EE00u64);
    for _ in 0..10 {
        now += 1_000_000;
        send(&mut clients, 0);
        shuttle(
            &mut server,
            &twins,
            &mut clients,
            &mut captured,
            &mut delivered,
            now,
        );
    }
    let new_cookie = cookie_of(&clients[0], handles[0]);
    assert_ne!(new_cookie, live[0], "rotation mints a fresh cookie");

    let mut expect_stale = 0u64;
    for frame in old_cookie_only.iter().take(60) {
        let out = server.from_network(Msg::from_wire(frame.clone()));
        assert_eq!(
            out,
            DeliverOutcome::Dropped(RejectReason::StaleCookie),
            "pre-rotation frames must be refused as stale"
        );
        expect_stale += 1;
    }

    // ---- Exact accounting -------------------------------------------
    let ledger = server.global_rejects();
    assert_eq!(ledger.get(RejectReason::UnknownCookie), expect_unknown);
    assert_eq!(ledger.get(RejectReason::StaleCookie), expect_stale);
    assert_eq!(
        ledger.total(),
        expect_unknown + expect_stale,
        "no attack frame leaked into another reject bucket"
    );
    assert!(server.demux_balanced());
    for (i, &h) in twins.iter().enumerate() {
        let stats = server.try_conn(h).expect("live").stats();
        assert!(stats.delivery_balanced(), "conn {i}: {stats}");
        assert!(stats.rejects_reconcile(), "conn {i}: {stats}");
    }

    // ---- Liveness: the storm wedged nothing -------------------------
    let before = delivered;
    for _ in 0..60 {
        now += 1_000_000;
        if delivered[0] > before[0] && delivered[1] > before[1] {
            break;
        }
        send(&mut clients, 0);
        send(&mut clients, 1);
        shuttle(
            &mut server,
            &twins,
            &mut clients,
            &mut captured,
            &mut delivered,
            now,
        );
    }
    assert!(
        delivered[0] > before[0] && delivered[1] > before[1],
        "both connections must still pass traffic after the storm"
    );
}

/// A connection standing alone ([`Connection::deliver_frame`]) binds an
/// identified frame's cookie by the rule the endpoint's hand-off
/// follows: after the frame verified, not when its ident matched. The
/// ident is public, replayable bytes; bound on sight, one replay of it
/// under a forged cookie — refused for having no body — would retire
/// the live cookie and turn the real peer's traffic stale.
#[test]
fn a_refused_identified_frame_binds_no_cookie() {
    let mut a = paper_conn(CLIENT_HOSTS[0], SERVER_HOST, 0xA11CE);
    let mut b = paper_conn(SERVER_HOST, CLIENT_HOSTS[0], 0xB0B);
    a.send(b"hello");
    let first = a.poll_transmit().expect("first frame").to_wire();
    assert!(!is_cookie_only(&first), "the first frame is identified");
    let out = b.deliver_frame(Msg::from_wire(first.clone()));
    assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
    assert_eq!(b.peer_cookie(), Some(a.local_cookie()), "verified: bound");
    a.process_pending();
    b.process_pending();

    // The captured preamble flags and ident, an attacker-chosen cookie,
    // nothing behind them.
    let word = u64::from_be_bytes(first[..PREAMBLE_LEN].try_into().unwrap());
    let forged_cookie = 0x0F0F_F0F0_1234_5678u64 & !FLAG_MASK;
    let mut forged = first[..PREAMBLE_LEN + b.expected_ident().len()].to_vec();
    forged[..PREAMBLE_LEN].copy_from_slice(&((word & FLAG_MASK) | forged_cookie).to_be_bytes());
    let out = b.deliver_frame(Msg::from_wire(forged));
    assert_eq!(out, DeliverOutcome::Dropped(RejectReason::ShortFrame));
    assert_eq!(
        b.peer_cookie(),
        Some(a.local_cookie()),
        "a refused frame re-bound the peer cookie"
    );

    // The real peer's next cookie-only frame still routes.
    a.send(b"again");
    let next = a.poll_transmit().expect("second frame").to_wire();
    assert!(is_cookie_only(&next));
    let out = b.deliver_frame(Msg::from_wire(next));
    assert!(!matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
    assert_eq!(b.stats().msgs_delivered, 2);
    assert!(b.stats().delivery_balanced() && b.stats().rejects_reconcile());
}

/// The lifecycle counterpart of the storm above: ~50k seeded
/// bind / traffic / re-key / remove cycles against a sharded demux in
/// surgical mode (zero mutation — every op has one exact expected
/// outcome). Asserts the router maps track the live population at
/// every checkpoint, every retired-cookie replay is refused as stale,
/// the shard buffer pools return to their retained baseline, and the
/// final teardown pays every map entry back.
#[test]
fn churn_50k_cycles_router_and_pools_return_to_baseline() {
    use pa::fuzz::churn::{run_churn_campaign, ChurnConfig};

    let report = run_churn_campaign(&ChurnConfig::new(0xAD_5EED_2026, 50_000));
    assert_eq!(report.cycles, 50_000, "{report}");
    assert_eq!(report.removed, report.admitted, "{report}");
    assert_eq!(report.stale_replays, report.rekeys, "{report}");
    assert_eq!(report.garbled, 0, "surgical churn never garbles: {report}");
    assert!(report.rekeys > 1_000, "re-key pressure too low: {report}");
    assert!(
        report.admitted > 2_000,
        "population churn too low: {report}"
    );
    assert!(report.delivered > 10_000, "{report}");
}
