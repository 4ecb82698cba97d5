//! End-to-end integration: the full paper stack, the real engine, a
//! misbehaving simulated network — reliability, ordering and
//! exactly-once delivery must survive everything the fault injector
//! throws.

use pa::core::{Connection, ConnectionParams, PaConfig};
use pa::stack::window::WindowConfig;
use pa::stack::{StackSpec, WindowLayer};
use pa::unet::{FaultConfig, LinkProfile, Netif, SimNet};
use pa::wire::{Class, EndpointAddr};

fn conn(spec: &StackSpec, cfg: PaConfig, local: u64, peer: u64, seed: u64) -> Connection {
    Connection::new(
        spec.build(),
        cfg,
        ConnectionParams::new(
            EndpointAddr::from_parts(local, 1),
            EndpointAddr::from_parts(peer, 1),
            seed,
        ),
    )
    .expect("valid stack")
}

/// Drives two connections over a SimNet until quiescent, ticking
/// retransmission timers. Returns what `b` delivered.
fn drive(
    a: &mut Connection,
    b: &mut Connection,
    net: &mut SimNet,
    max_virtual_ms: u64,
) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut now: u64 = 0;
    let tick = 1_000_000; // 1 ms
    let a_addr = a.local_addr();
    let b_addr = b.local_addr();
    // Quiescence is progress-based: retransmission timers back off up
    // to 640 ms, so only a full second of *no traffic at all* means
    // the exchange is really over.
    let mut idle_ms = 0u64;
    for _ in 0..max_virtual_ms {
        now += tick;
        let mut moved = false;
        // Flush transmissions.
        while let Some(f) = a.poll_transmit() {
            net.send(a_addr, b_addr, f, now);
            moved = true;
        }
        while let Some(f) = b.poll_transmit() {
            net.send(b_addr, a_addr, f, now);
            moved = true;
        }
        // Deliver arrivals.
        while let Some(arr) = net.poll_arrival(now) {
            if arr.to == b_addr {
                b.deliver_frame(arr.frame);
            } else {
                a.deliver_frame(arr.frame);
            }
            moved = true;
        }
        a.process_pending();
        b.process_pending();
        a.tick(now);
        b.tick(now);
        while let Some(m) = b.poll_delivery() {
            out.push(m.to_wire());
        }
        idle_ms = if moved { 0 } else { idle_ms + 1 };
        if idle_ms > 1_000 {
            break;
        }
    }
    out
}

#[test]
fn hundred_messages_over_harsh_network() {
    let spec = StackSpec {
        window: WindowConfig {
            rto: 2_000_000,
            ack_every: 2,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    };
    let mut a = conn(&spec, PaConfig::paper_default(), 1, 2, 11);
    let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 22);
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::harsh(99));

    let expected: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_be_bytes().to_vec()).collect();
    for m in &expected {
        a.send(m);
        a.process_pending();
    }
    let got = drive(&mut a, &mut b, &mut net, 120_000);
    assert_eq!(
        got, expected,
        "in order, exactly once, despite 15% drop/corrupt"
    );
    assert!(
        net.fault_stats().dropped > 0,
        "the network really did misbehave"
    );
}

#[test]
fn bidirectional_traffic_under_mild_faults() {
    let spec = StackSpec {
        window: WindowConfig {
            rto: 2_000_000,
            ack_every: 2,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    };
    let mut a = conn(&spec, PaConfig::paper_default(), 1, 2, 31);
    let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 32);
    let mut net = SimNet::new(LinkProfile::atm_unet(), FaultConfig::mild(5));

    for i in 0..50u8 {
        a.send(&[b'a', i]);
        b.send(&[b'b', i]);
        a.process_pending();
        b.process_pending();
    }
    // Drive both directions manually (drive() only collects b's side).
    let mut from_a = Vec::new();
    let mut from_b = Vec::new();
    let (a_addr, b_addr) = (a.local_addr(), b.local_addr());
    let mut now = 0u64;
    for _ in 0..60_000 {
        now += 1_000_000;
        while let Some(f) = a.poll_transmit() {
            net.send(a_addr, b_addr, f, now);
        }
        while let Some(f) = b.poll_transmit() {
            net.send(b_addr, a_addr, f, now);
        }
        while let Some(arr) = net.poll_arrival(now) {
            if arr.to == b_addr {
                b.deliver_frame(arr.frame);
            } else {
                a.deliver_frame(arr.frame);
            }
        }
        a.process_pending();
        b.process_pending();
        a.tick(now);
        b.tick(now);
        while let Some(m) = b.poll_delivery() {
            from_a.push(m.to_wire());
        }
        while let Some(m) = a.poll_delivery() {
            from_b.push(m.to_wire());
        }
        if from_a.len() == 50 && from_b.len() == 50 {
            break;
        }
    }
    assert_eq!(from_a.len(), 50);
    assert_eq!(from_b.len(), 50);
    assert!(from_a
        .iter()
        .enumerate()
        .all(|(i, m)| m == &vec![b'a', i as u8]));
    assert!(from_b
        .iter()
        .enumerate()
        .all(|(i, m)| m == &vec![b'b', i as u8]));
}

#[test]
fn large_fragmented_transfer_with_loss() {
    let spec = StackSpec {
        frag_mtu: Some(128),
        window: WindowConfig {
            rto: 2_000_000,
            ack_every: 1,
            ..WindowConfig::default()
        },
        ..StackSpec::paper()
    };
    let mut a = conn(&spec, PaConfig::paper_default(), 1, 2, 41);
    let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 42);
    let mut net = SimNet::new(
        LinkProfile::atm_unet(),
        FaultConfig {
            drop: 0.05,
            seed: 13,
            ..FaultConfig::none()
        },
    );
    let blob: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
    a.send(&blob);
    a.process_pending();
    let got = drive(&mut a, &mut b, &mut net, 120_000);
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0], blob,
        "5 KB reassembled across ~40 fragments with loss"
    );
}

#[test]
fn mixed_configs_interoperate() {
    // A PA-enabled node and a no-PA-baseline node speak the same wire
    // protocol when cookies/layout agree on the *sender* side: the
    // receiving engine handles both identified and cookie frames. The
    // baseline sender includes the ident on every frame; the PA
    // receiver must still accept everything.
    let spec = StackSpec::paper();
    let baseline_sender = PaConfig {
        predict: false,
        lazy_post: false,
        cookies: false,
        packing: false,
        ..PaConfig::paper_default()
    };
    let mut a = conn(&spec, baseline_sender, 1, 2, 51);
    let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 52);
    let mut net = SimNet::atm();
    for i in 0..10u8 {
        a.send(&[i; 8]);
        a.process_pending();
    }
    let got = drive(&mut a, &mut b, &mut net, 10_000);
    assert_eq!(got.len(), 10);
    assert_eq!(
        a.stats().ident_frames_out,
        a.stats().frames_out,
        "ident on every frame"
    );
}

#[test]
fn minimal_window_only_stack_end_to_end() {
    let mut a = Connection::new(
        vec![Box::new(WindowLayer::new(WindowConfig::default()))],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(1, 1),
            EndpointAddr::from_parts(2, 1),
            61,
        ),
    )
    .unwrap();
    let mut b = Connection::new(
        vec![Box::new(WindowLayer::new(WindowConfig::default()))],
        PaConfig::paper_default(),
        ConnectionParams::new(
            EndpointAddr::from_parts(2, 1),
            EndpointAddr::from_parts(1, 1),
            62,
        ),
    )
    .unwrap();
    let mut net = SimNet::atm();
    for i in 0..20u8 {
        a.send(&[i]);
        a.process_pending();
    }
    let got = drive(&mut a, &mut b, &mut net, 5_000);
    assert_eq!(got.len(), 20);
}

#[test]
fn a_mebibyte_of_ones_is_digested_without_overflow() {
    // 65 537 words of 0xFFFF overflow a 32-bit one's-complement
    // accumulator, and frag lets 4 MiB through: a send this size was a
    // panic ("attempt to add with overflow") in a debug build — which
    // tier-1 is; a release-only run computes a wrong sum on both sides
    // and passes — from a filter whose contract is that it cannot trap.
    // The speculative fast-path run digests the whole message.
    let payload = vec![0xFFu8; 1 << 20];
    let spec = StackSpec::paper();
    let mut a = conn(&spec, PaConfig::paper_default(), 1, 2, 71);
    let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 72);
    a.send(&payload);
    let mut net = SimNet::atm();
    let got = drive(&mut a, &mut b, &mut net, 20_000);
    assert_eq!(got.len(), 1);
    assert!(got[0] == payload, "reassembled byte for byte");
}

#[test]
fn every_window_of_a_stack_retransmits_the_whole_frame() {
    // Two window layers both ask to keep a sent frame's image: one is
    // handed the image, the other a copy, and each must hold the whole
    // frame. Lose a frame and let the timers fire: what each window
    // sends again is the original, header and body.
    for spec in [StackSpec::paper_doubled_window(), StackSpec::extended()] {
        let mut a = conn(&spec, PaConfig::paper_default(), 1, 2, 81);
        let mut b = conn(&spec, PaConfig::paper_default(), 2, 1, 82);
        a.send(b"first, to bind the cookies");
        let mut net = SimNet::atm();
        drive(&mut a, &mut b, &mut net, 2_000);

        a.send(b"lost on the way");
        a.process_pending();
        let lost = a.poll_transmit().expect("the frame").to_wire();
        assert!(a.poll_transmit().is_none());
        let keepers = spec.window_copies;
        assert_eq!(a.bufs_held_by_layers(), keepers, "a copy a window");

        a.tick(3_000_000_000);
        let mut again = Vec::new();
        while let Some(f) = a.poll_transmit() {
            again.push(f.to_wire());
        }
        let class_len = |c| a.layout().class_len(c);
        let ident = class_len(Class::ConnId);
        // (The extended stack's heartbeat is due as well: an empty body.)
        again.retain(|f| f.len() == lost.len() + ident);
        assert_eq!(again.len(), keepers, "each window retransmits");
        let proto = class_len(Class::Protocol);
        let rest = proto + class_len(Class::Message);
        for (i, frame) in again.iter().enumerate() {
            // A retransmission is unusual: it carries the connection
            // identification between the preamble and the frame.
            let (sent, resent) = (&lost[8..], &frame[8 + ident..]);
            // Gossip header and body, as kept. (The send filter fills
            // the message-specific header in anew on every pass: the
            // extended stack's timestamp moves.)
            assert_eq!(resent[rest..], sent[rest..], "window {i}");
            // The bottom window's protocol header too; an upper one's
            // passes the windows below it, which sequence it afresh.
            if i == 0 {
                assert_eq!(resent[..proto], sent[..proto], "window {i}");
            }
        }
        for f in again {
            b.deliver_frame(pa::buf::Msg::from_wire(f));
        }
        let got = drive(&mut a, &mut b, &mut net, 2_000);
        assert_eq!(got, vec![b"lost on the way".to_vec()]);
    }
}
