//! The zero-overhead-when-off guarantee, enforced at the byte level and
//! at the allocator.
//!
//! Two claims, both load-bearing for the telemetry layer:
//!
//! 1. With `trace_ctx` disabled (the default), the compiled header layout
//!    and the wire bytes are *byte-for-byte identical* to what PR 1
//!    produced — journeys ride in optional Message-class fields that are
//!    simply never declared when tracing is off, so an untraced build
//!    cannot tell the telemetry code exists.
//! 2. The default `ProbeSink::Noop` never allocates: attaching no probe
//!    costs one branch per emit site and nothing on the heap.

use pa::core::{Connection, ConnectionParams, PaConfig, SendOutcome};
use pa::obs::{
    DropCause, FieldRef, ProbeSink, ScopeConfig, ScopePlane, SlowCause, TraceEvent, XrayTag,
};
use pa::stack::StackSpec;
use pa::wire::{ByteOrder, EndpointAddr};

mod common;
use common::{allocations, CountingAlloc};

// Integration-test binaries get their own global allocator, so the Noop
// probe path is metered without touching the library crates. It counts
// per thread: libtest's parallel neighbours stay out of the gate.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Golden bytes. Captured from the PR 1 engine (before trace_ctx existed)
// with the exact recipe below: paper stack, paper defaults, hosts
// (1,3) -> (2,3), seed 0x9601, big-endian, payload b"12345678", one
// `process_pending` between the two sends. Everything on the wire is
// deterministic — the cookie derives from the seed and no timestamps are
// encoded — so any layout or codec change that perturbs an untraced
// frame shows up here as a hex diff.
// ---------------------------------------------------------------------------

/// First frame: carries the full connection identification (first
/// message rule, §2.2) plus the protocol header.
const GOLDEN_FIRST: &str = "958e41d5bcdc829a000000000000000000000000000000010000000300000000000000000000000000000002000000\
03686f7275732d7472616e73706f727400792f1b1f2e6a9c53000000000000000000014000000000000009\
2f2b00000000003132333435363738";

/// Second frame: steady state — 8-byte preamble (cookie), predicted
/// protocol header, message header, payload.
const GOLDEN_SECOND: &str = "158e41d5bcdc829a000000010000092f2a00000000003132333435363738";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_conn(pa: PaConfig) -> Connection {
    Connection::new(
        StackSpec::paper().build(),
        pa,
        ConnectionParams {
            local: EndpointAddr::from_parts(1, 3),
            peer: EndpointAddr::from_parts(2, 3),
            seed: 0x9601,
            order: ByteOrder::Big,
        },
    )
    .expect("paper stack is valid")
}

fn first_two_frames(pa: PaConfig) -> (Vec<u8>, Vec<u8>) {
    let mut conn = golden_conn(pa);
    let _ = conn.send(b"12345678");
    let f1 = conn.poll_transmit().expect("frame 1").to_wire();
    conn.process_pending();
    let _ = conn.send(b"12345678");
    let f2 = conn.poll_transmit().expect("frame 2").to_wire();
    (f1, f2)
}

#[test]
fn untraced_wire_bytes_match_the_pr1_golden() {
    let (f1, f2) = first_two_frames(PaConfig::paper_default());
    assert_eq!(
        hex(&f1),
        GOLDEN_FIRST,
        "first (identified) frame drifted from the PR 1 golden bytes"
    );
    assert_eq!(
        hex(&f2),
        GOLDEN_SECOND,
        "steady-state frame drifted from the PR 1 golden bytes"
    );
}

#[test]
fn tracing_on_actually_changes_the_wire() {
    // The golden test above only means something if the traced build is
    // genuinely different: otherwise it would pass trivially even if the
    // journey fields leaked into every layout.
    let mut cfg = PaConfig::paper_default();
    cfg.trace_ctx = true;
    let (t1, t2) = first_two_frames(cfg);
    assert_ne!(
        hex(&t1),
        GOLDEN_FIRST,
        "trace_ctx must widen the Message class"
    );
    assert_ne!(hex(&t2), GOLDEN_SECOND);
    let (u1, u2) = first_two_frames(PaConfig::paper_default());
    assert!(
        t1.len() > u1.len() && t2.len() > u2.len(),
        "traced frames carry the journey fields: {} vs {}, {} vs {}",
        t1.len(),
        u1.len(),
        t2.len(),
        u2.len()
    );
}

#[test]
fn noop_probe_is_allocation_free() {
    let mut probe = ProbeSink::Noop;
    assert!(!probe.enabled());

    // Exercise every event shape the engine emits, many times over; the
    // Noop arm must be a single branch with no heap traffic.
    let events = [
        TraceEvent::FastSend,
        TraceEvent::SlowDeliver {
            cause: SlowCause::PredictMiss,
        },
        TraceEvent::PredictMiss {
            field: FieldRef::new(1, 2),
            expected: 3,
            got: 4,
        },
        TraceEvent::Drop {
            reason: DropCause::ByLayer("group"),
        },
        TraceEvent::Control {
            layer: "membership",
        },
        TraceEvent::JourneySend {
            journey: (7 << 32) | 1,
            hop: 0,
        },
    ];

    let before = allocations();
    for round in 0..10_000u64 {
        for ev in &events {
            probe.emit(round, *ev);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "ProbeSink::Noop allocated on the emit path"
    );
}

#[test]
fn xray_is_dormant_on_an_all_fast_path_connection() {
    // The golden-bytes tests above already run against the
    // xray-instrumented engine — the wire is proven byte-identical to
    // the PR 1 capture *with* attribution compiled in. This test pins
    // the other half of zero-overhead-when-off: the attribution
    // multiset, miss table, leak ledger and explain tags are written
    // only on paths that already left the fast path, so a connection
    // that never leaves it must end with its introspection record
    // empty. The tables are Vec-backed and start with zero capacity;
    // staying empty is staying off the heap.
    let mut conn = golden_conn(PaConfig::paper_default());
    assert!(!conn.probe().enabled(), "probes are off by default");

    let first = conn.send(b"12345678");
    assert_eq!(first, SendOutcome::FastPath);
    let f1 = conn.poll_transmit().expect("frame 1").to_wire();
    assert_eq!(hex(&f1), GOLDEN_FIRST, "instrumented build drifted");
    conn.process_pending();

    let before = allocations();
    for _ in 0..10 {
        // Stay well inside the 16-entry window so nothing disables.
        let out = conn.send(b"12345678");
        assert_eq!(out, SendOutcome::FastPath);
        let frame = conn.poll_transmit().expect("frame").to_wire();
        // Attribution, miss table, leak ledger, both explain tags.
        assert!(
            conn.introspection().is_empty(),
            "a fast send left a record: {:?}",
            conn.introspection()
        );
        assert_eq!(
            frame.len(),
            GOLDEN_SECOND.len() / 2,
            "steady-state layout width drifted under instrumentation"
        );
        conn.process_pending();
    }
    let fast_allocs = allocations() - before;

    assert!(conn.introspection().is_empty(), "nor did their posts");
    assert_eq!(conn.invariant_violations(), 0);
    // The instrumentation is live, not compiled out: the phase meters
    // saw the deferred post-sends — they just have nothing slow to say.
    assert!(
        conn.phase_meters().any(|m| m.total_calls() > 0),
        "phase meters must be counting"
    );
    // And the per-send heap appetite is the engine's own (buffers,
    // pending queues) — bounded, not growing with the xray tables.
    assert!(
        fast_allocs < 2_000,
        "fast-path sends allocated suspiciously much: {fast_allocs}"
    );
}

#[test]
fn untraced_connection_send_path_does_not_allocate_per_message() {
    // Steady-state traffic on a warm, untraced connection pair must not
    // grow its heap appetite round over round: the buffer pools settle,
    // and the disabled telemetry layer adds no hidden per-message
    // allocation on top. We measure two identical back-to-back windows
    // and require the second to cost no more than the first — a leak or
    // an un-pooled per-send allocation shows up as monotonic growth.
    let mk = |l: u64, p: u64, seed: u64| {
        Connection::new(
            StackSpec::paper().build(),
            PaConfig::paper_default(),
            ConnectionParams {
                local: EndpointAddr::from_parts(l, 3),
                peer: EndpointAddr::from_parts(p, 3),
                seed,
                order: ByteOrder::Big,
            },
        )
        .expect("paper stack is valid")
    };
    let mut a = mk(1, 2, 0x9601);
    let mut b = mk(2, 1, 0x9602);
    let window = |a: &mut Connection, b: &mut Connection| {
        let before = allocations();
        let mut round_trips = 0u32;
        for _ in 0..128 {
            let _ = a.send(b"12345678");
            // Shuttle until quiet so window credit and acks keep flowing.
            loop {
                let mut moved = false;
                while let Some(f) = a.poll_transmit() {
                    b.deliver_frame(f);
                    moved = true;
                }
                while let Some(f) = b.poll_transmit() {
                    a.deliver_frame(f);
                    moved = true;
                }
                a.process_pending();
                b.process_pending();
                if !moved {
                    break;
                }
            }
            while let Some(m) = b.poll_delivery() {
                assert_eq!(m.to_wire(), b"12345678");
                round_trips += 1;
            }
        }
        assert_eq!(round_trips, 128);
        allocations() - before
    };
    // Warm-up window: identification, pool growth, prediction settling.
    let first = window(&mut a, &mut b);
    // Steady window: must not out-allocate the warm-up.
    let second = window(&mut a, &mut b);
    assert!(
        second <= first,
        "steady-state window allocated {second} (> warm-up {first}): per-message heap growth"
    );
}

#[test]
fn scope_plane_is_out_of_band_for_the_wire() {
    // The pa-scope telemetry plane lives entirely beside the engine: a
    // host records latencies into it *about* a connection, the
    // connection itself never sees it. An untraced connection producing
    // frames while every send is mirrored into a plane must still emit
    // the PR 1 golden bytes — telemetry on the aggregate path cannot
    // perturb the wire.
    let mut plane = ScopePlane::new(ScopeConfig::default());
    let key = plane.register("golden", "golden/conn0");
    let mut conn = golden_conn(PaConfig::paper_default());
    let _ = conn.send(b"12345678");
    let f1 = conn.poll_transmit().expect("frame 1").to_wire();
    plane.record(key, f1.len() as u64, 1_000, 0, XrayTag::none());
    conn.process_pending();
    let _ = conn.send(b"12345678");
    let f2 = conn.poll_transmit().expect("frame 2").to_wire();
    plane.record(key, f2.len() as u64, 2_000, 0, XrayTag::none());
    assert_eq!(
        hex(&f1),
        GOLDEN_FIRST,
        "wire drifted with a plane beside it"
    );
    assert_eq!(hex(&f2), GOLDEN_SECOND);
    assert_eq!(plane.records(), 2);
    assert!(plane.rollup_reconciles());
}

#[test]
fn scope_record_path_is_allocation_free_at_steady_state() {
    // The budget story requires it: every pa-scope structure is
    // fixed-size after registration — sketch windows are preallocated,
    // reservoirs hold a bounded band set, and Algorithm R replaces in
    // place. So once the value range has been seen (bands touched,
    // window anchored), the record path must never hit the allocator.
    let mut plane = ScopePlane::new(ScopeConfig::default());
    let key = plane.register("hot", "hot/conn0");
    // Warm-up: touch every octave band and anchor the bucket window.
    for i in 0..50_000u64 {
        plane.record(
            key,
            1 + (i * 2_654_435_761) % (1 << 22),
            i,
            i,
            XrayTag::none(),
        );
    }
    let before = allocations();
    for i in 0..50_000u64 {
        plane.record(
            key,
            1 + (i * 2_654_435_761) % (1 << 22),
            i,
            i,
            XrayTag::none(),
        );
    }
    let grew = allocations() - before;
    assert_eq!(
        grew, 0,
        "steady-state ScopePlane::record allocated {grew} times"
    );
    assert!(plane.within_budget());
}
