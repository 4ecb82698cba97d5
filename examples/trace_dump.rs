//! Trace dump: diagnosing a prediction miss and a drop end-to-end.
//!
//! Attach ring probes to two connections, run a healthy warm-up, then
//! misbehave deliberately: reorder two frames (defeating the receiver's
//! header prediction) and corrupt a cookie (forcing a drop). The merged
//! trace timeline — rendered with real field names — shows exactly what
//! the Protocol Accelerator decided and *why*, and the wire dissector
//! shows what the offending frame looked like.
//!
//! With `trace_ctx` enabled, every frame additionally carries an
//! in-band journey id in its Message class. A tap on alice's outbound
//! link records each frame into an annotated pcap (DLT_USER1) whose
//! pseudo-header carries that journey id — so a capture record can be
//! cross-referenced with the merged trace timeline: a delivered frame
//! maps to a complete sender→receiver journey, and the corrupted frame
//! maps to a journey that never completes, pointing straight at the
//! drop.
//!
//! The pseudo-header's final four bytes are the [`pa::obs::XrayTag`]
//! read from [`Connection::last_send_explain`] at the tap: for frames
//! that left the fast path it names the attributed (layer, cause), so
//! the capture alone answers *why* a frame went slow.
//!
//! ```sh
//! cargo run --example trace_dump
//! ```

use pa::core::{dissect, Connection, ConnectionParams, PaConfig};
use pa::obs::{
    merge_timeline, render_journey_id, FieldRef, JourneySet, PathTag, ProbeSink, TraceEvent,
};
use pa::stack::StackSpec;
use pa::unet::pcap::{parse_explained, PcapWriter};
use pa::wire::{Class, EndpointAddr};

fn main() {
    let alice_addr = EndpointAddr::from_parts(0xA11CE, 1);
    let bob_addr = EndpointAddr::from_parts(0xB0B, 1);

    // The paper's stack, with the in-band trace context switched on:
    // both ends declare the journey fields in their Message class.
    let cfg = PaConfig {
        trace_ctx: true,
        ..PaConfig::paper_default()
    };
    let mut alice = Connection::new(
        StackSpec::paper().build(),
        cfg,
        ConnectionParams::new(alice_addr, bob_addr, 42),
    )
    .expect("valid stack");
    let mut bob = Connection::new(
        StackSpec::paper().build(),
        cfg,
        ConnectionParams::new(bob_addr, alice_addr, 43),
    )
    .expect("valid stack");

    // A tap on alice's outbound link: an annotated pcap whose records
    // carry the journey id stamped into each frame.
    let mut tap = PcapWriter::annotated(Vec::new()).expect("in-memory pcap");

    // Switch tracing on: a 64-record ring per connection. With the
    // default `ProbeSink::Noop` all of the below costs one branch per
    // decision; with a ring it costs one array write.
    alice.set_probe(ProbeSink::ring(64));
    bob.set_probe(ProbeSink::ring(64));
    alice.probe_mut().trace_ring_mut().unwrap().set_conn(0xA);
    bob.probe_mut().trace_ring_mut().unwrap().set_conn(0xB);

    // --- Act 1: a healthy exchange (fast path engages) ---------------
    let mut t = 1_000u64;
    for text in [&b"warm-up"[..], b"fast one"] {
        alice.set_now(t);
        bob.set_now(t);
        alice.send(text);
        while let Some(frame) = alice.poll_transmit() {
            let (journey, _) = alice.last_sent_trace().expect("tracing on");
            tap.record_journey(t, PathTag::Fast, journey, &frame.to_wire())
                .expect("tap");
            bob.deliver_frame(frame);
        }
        while bob.poll_delivery().is_some() {}
        alice.process_pending();
        bob.process_pending();
        // Bob's acknowledgements flow back, keeping alice's window open.
        while let Some(frame) = bob.poll_transmit() {
            alice.deliver_frame(frame);
        }
        alice.process_pending();
        t += 1_000;
    }

    // --- Act 2: the network reorders two frames ----------------------
    // Bob's prediction expects the next sequence number; handing him
    // frame #2 before frame #1 makes the predicted protocol header
    // mismatch — a PredictMiss, diagnosed down to the field.
    alice.set_now(t);
    bob.set_now(t);
    alice.send(b"first (delayed by the network)");
    let delayed = alice.poll_transmit().expect("frame");
    let (delayed_journey, _) = alice.last_sent_trace().expect("tracing on");
    // Run the deferred post-send now, or the next send would park in
    // the backlog behind it (the §3.4 serialization rule — which would
    // itself show up in the trace as a `queued` event).
    alice.process_pending();
    alice.send(b"second (arrives early)");
    let early = alice.poll_transmit().expect("frame");
    let (early_journey, _) = alice.last_sent_trace().expect("tracing on");
    // The tap sits on alice's NIC: it sees the frames in send order,
    // even though the network will deliver them reordered.
    tap.record_journey(t, PathTag::Fast, delayed_journey, &delayed.to_wire())
        .expect("tap");
    tap.record_journey(t, PathTag::Fast, early_journey, &early.to_wire())
        .expect("tap");
    bob.deliver_frame(early);
    bob.deliver_frame(delayed);
    while bob.poll_delivery().is_some() {}

    // --- Act 2½: a send parks behind the serialization rule ----------
    // Act 2's deferred post-send is still pending, so this send is
    // queued (§3.4). `last_send_explain` names the charged cause right
    // at the send() call; the tap stamps it into the capture record so
    // the pcap alone explains why the frame left the fast path.
    alice.send(b"parked behind the serialization rule");
    assert!(
        alice.poll_transmit().is_none(),
        "the queued send produces no frame until process_pending"
    );
    let parked_why = alice.last_send_explain();
    assert!(parked_why.cause().is_some(), "the queued op is attributed");
    alice.process_pending();
    let parked = alice.poll_transmit().expect("backlog serviced");
    let (parked_journey, _) = alice.last_sent_trace().expect("tracing on");
    tap.record_explained(
        t,
        PathTag::Queued,
        parked_journey,
        parked_why,
        &parked.to_wire(),
    )
    .expect("tap");
    bob.deliver_frame(parked);
    while bob.poll_delivery().is_some() {}

    // --- Act 3: the network corrupts a cookie ------------------------
    // A flipped cookie byte demultiplexes to no connection; without a
    // connection identification to recover by, the frame is dropped.
    t += 1_000;
    alice.set_now(t);
    bob.set_now(t);
    alice.process_pending(); // clear the parked send's deferred post-send first
    alice.send(b"doomed");
    let mut corrupted = alice.poll_transmit().expect("frame");
    let (doomed_journey, _) = alice.last_sent_trace().expect("tracing on");
    // Byte 7 is pure cookie (byte 0's top bits are the preamble flags).
    let evil = corrupted.byte_at(7) ^ 0xFF;
    corrupted.set_byte_at(7, evil);
    tap.record_journey(t, PathTag::Faulted, doomed_journey, &corrupted.to_wire())
        .expect("tap");

    println!("the corrupted frame, dissected:");
    println!("{}", dissect(&corrupted, bob.layout()));

    bob.deliver_frame(corrupted);
    alice.process_pending();
    bob.process_pending();

    // --- The verdict: a merged, field-resolved timeline --------------
    let layout = bob.layout().clone();
    let resolve = move |f: FieldRef| {
        let class = [
            Class::ConnId,
            Class::Protocol,
            Class::Message,
            Class::Gossip,
        ][f.class as usize % 4];
        let name = layout.field_name(class, f.index as usize);
        name.unwrap_or("?").to_string()
    };

    let timeline = merge_timeline(&[
        alice.probe().trace_ring().expect("ring"),
        bob.probe().trace_ring().expect("ring"),
    ]);
    println!("merged trace timeline (conn 0xA = alice, 0xB = bob):");
    let mut predict_misses = 0;
    let mut drops = 0;
    for rec in &timeline {
        println!("{}", rec.render(&resolve));
        match rec.event {
            TraceEvent::PredictMiss { .. } => predict_misses += 1,
            TraceEvent::Drop { .. } => drops += 1,
            _ => {}
        }
    }

    // --- Cross-reference: the pcap tap ⇄ the journeys ----------------
    // Every record in the annotated capture names the journey stamped
    // into its frame; joining it with the rings answers "what happened
    // to the frame I captured?" without guessing by timestamps.
    let set = JourneySet::reconstruct(&[
        alice.probe().trace_ring().expect("ring"),
        bob.probe().trace_ring().expect("ring"),
    ]);
    let layer_names = alice.layer_names();
    let capture = parse_explained(&tap.finish().expect("tap")).expect("annotated pcap");
    println!();
    println!("alice's outbound tap, cross-referenced with the journeys:");
    let mut undelivered = 0;
    let mut explained = 0;
    for (at, tag, journey, why, frame) in &capture {
        assert_ne!(*journey, 0, "tracing is on: every frame is stamped");
        let j = set
            .get(*journey)
            .expect("every tapped journey appears in the rings");
        let verdict = match j.total_latency() {
            Some(ns) => format!("delivered, {ns} ns sender→receiver"),
            None => {
                undelivered += 1;
                "never delivered — see the drop above".to_string()
            }
        };
        // The capture's XrayTag names why a frame left the fast path.
        let why = match why.cause() {
            Some(cause) => {
                explained += 1;
                let layer = layer_names.get(why.layer as usize).copied().unwrap_or("pa");
                format!("  why: {cause} @ {layer}")
            }
            None => String::new(),
        };
        println!(
            "  @{at:>6} ns  tag={:<7}  journey {:<10}  {:>3} bytes  {verdict}{why}",
            tag.label(),
            render_journey_id(*journey),
            frame.len(),
        );
    }
    assert_eq!(capture.len(), 6, "six frames crossed the tap");
    assert_eq!(
        undelivered, 1,
        "exactly the corrupted frame maps to an incomplete journey"
    );
    assert_eq!(
        explained, 1,
        "exactly the parked frame carries an attributed cause"
    );

    println!();
    println!("bob's counters:\n{}", bob.stats());
    assert!(
        predict_misses >= 1,
        "the reordering must surface as a predict-miss"
    );
    assert!(
        drops >= 1,
        "the corruption must surface as a drop with a reason"
    );
    println!(
        "\ndiagnosed: {predict_misses} predict-miss(es), {drops} drop(s) — each with a cause."
    );
}
