//! What connection setup computes, pinned: the transcript of every
//! layout, filter and first frame `Connection::new` derives from the
//! stock stacks is compared against `tests/golden/setup_layouts.txt`,
//! which was recorded from the engine as it stood *before* setup was
//! rebuilt around one name arena and a word-bitmap packer (same test
//! body, the names read through the `FieldNames` table that engine
//! still had). Placement, the fingerprint and the fragments' order are
//! wire-visible, so "the same setup, cheaper" means this file does not
//! change.
//!
//! Per `StackSpec::{paper, paper_doubled_window, extended, minimal}` ×
//! `trace_ctx` off/on × the three `LayoutMode`s: every field's name,
//! owner, offset and width; the fingerprint; both filters' listings and
//! `fuse_stats()`; the first two wire frames in hex and what the peer
//! made of them.

use std::fmt::Write as _;

use pa::buf::ByteOrder;
use pa::core::{Connection, ConnectionParams, PaConfig};
use pa::stack::StackSpec;
use pa::wire::{Class, EndpointAddr, LayoutMode};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn conn(spec: &StackSpec, config: PaConfig, local: u64, peer: u64) -> Connection {
    Connection::new(
        spec.build(),
        config,
        ConnectionParams {
            local: EndpointAddr::from_parts(local, 3),
            peer: EndpointAddr::from_parts(peer, 3),
            seed: 0x5e70 + local,
            order: ByteOrder::Big,
        },
    )
    .expect("stock stacks are valid")
}

fn scenario(name: &str, spec: &StackSpec, trace_ctx: bool, mode: LayoutMode) -> String {
    let config = PaConfig {
        layout_mode: mode,
        trace_ctx,
        ..PaConfig::paper_default()
    };
    let (mut a, mut b) = (conn(spec, config, 1, 2), conn(spec, config, 2, 1));
    let mut out = String::new();
    let trace = if trace_ctx { "on" } else { "off" };
    let _ = writeln!(out, "== {name} trace={trace} {mode:?}");

    let layout = a.layout();
    let _ = writeln!(out, "fingerprint {:016x}", layout.fingerprint());
    for class in Class::ALL {
        let cl = layout.class(class);
        let _ = writeln!(
            out,
            "{class}: {} bytes, {} bits used",
            cl.byte_len(),
            cl.used_bits()
        );
        for i in 0..cl.field_count() {
            let p = cl.placement(i);
            let name = layout.field_name(class, i).expect("declared");
            let owner = layout
                .field_layer(class, i)
                .and_then(|id| layout.layer_name(id))
                .expect("declared by a layer");
            let _ = writeln!(
                out,
                "  {name:<18} {owner:<10} @{:<4} {:>4} bits",
                p.bit_offset, p.bits
            );
        }
    }

    let (send, recv) = a.filters();
    let _ = write!(out, "send filter:\n{}", send.disassemble());
    let _ = write!(out, "delivery filter:\n{}", recv.disassemble());
    let _ = writeln!(out, "fuse_stats {:?}", a.fuse_stats());

    for payload in [b"setup-01", b"setup-02"] {
        a.send(payload);
        let frame = a.poll_transmit().expect("one frame per send");
        let _ = writeln!(out, "wire {}", hex(frame.as_slice()));
        let _ = writeln!(out, "  -> {:?}", b.deliver_frame(frame));
        a.process_pending();
        b.process_pending();
    }
    out
}

#[test]
fn setup_derives_what_the_recorded_engine_derived() {
    let stacks = [
        ("paper", StackSpec::paper()),
        ("paper_doubled_window", StackSpec::paper_doubled_window()),
        ("extended", StackSpec::extended()),
        ("minimal", StackSpec::minimal()),
    ];
    let mut transcript = String::new();
    for (name, spec) in &stacks {
        for trace_ctx in [false, true] {
            for mode in [
                LayoutMode::Packed,
                LayoutMode::Traditional,
                LayoutMode::Traditional8,
            ] {
                transcript.push_str(&scenario(name, spec, trace_ctx, mode));
            }
        }
    }
    let golden = include_str!("golden/setup_layouts.txt");
    if transcript != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("setup_layouts.txt");
        std::fs::write(&actual, &transcript).expect("temp dir is writable");
        let line = transcript
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(golden.lines().count()));
        panic!(
            "transcript differs from tests/golden/setup_layouts.txt at line {}:\n  got  {:?}\n  want {:?}\nfull transcript: {}",
            line + 1,
            transcript.lines().nth(line),
            golden.lines().nth(line),
            actual.display()
        );
    }
}

/// The listing above is the program as the layers wrote it; what runs
/// is the fused form, which schedules frag's size guard ahead of the
/// checksum's fills. An over-MTU frame is refused at the guard's
/// `ABORT` — named by its place in the listing — with `body_len` and
/// `checksum` still zero: the digest did not run.
#[test]
fn an_over_mtu_frame_is_refused_before_it_is_digested() {
    use pa::filter::FusedProgram;
    for trace_ctx in [false, true] {
        let config = PaConfig {
            trace_ctx,
            ..PaConfig::paper_default()
        };
        let a = conn(&StackSpec::paper(), config, 1, 2);
        let (send, _) = a.filters();
        let guard = [4, 5, 6, 7];
        let listing = send.disassemble();
        assert!(listing.contains("   2: DIGEST_HDRS inet16\n"), "{listing}");
        assert!(listing.contains("   7: ABORT 32\n"), "{listing}");
        let fused = FusedProgram::fuse(send, a.layout(), ByteOrder::Big);
        let ran: Vec<u16> = fused.source_pcs().collect();
        assert_eq!(ran[..4], guard, "the guard runs first");
        let mut sorted = ran.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..send.ops().len() as u16).collect::<Vec<_>>());

        let class_len = |c| a.layout().class_len(c);
        let (proto, message) = (class_len(Class::Protocol), class_len(Class::Message));
        let hdr = proto + message + class_len(Class::Gossip);
        let frame = |body: usize| {
            let mut m = pa::buf::Msg::from_payload(&vec![0xA5; body]);
            m.push_front_zeroed(hdr);
            m
        };
        let (send_slots, _) = a.filter_slots();
        let mut over = frame(4097);
        assert_eq!(fused.run_located(send_slots, &mut over), (32, Some(7)));
        assert_eq!(over, frame(4097), "refused untouched");
        let mut fits = frame(4096);
        assert_eq!(fused.run_located(send_slots, &mut fits), (0, None));
        assert!(
            fits.as_slice()[proto..proto + message]
                .iter()
                .any(|&b| b != 0),
            "passed, and filled in"
        );
    }
}
