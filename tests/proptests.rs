//! Randomized property tests on the core data structures and
//! invariants.
//!
//! These were originally proptest properties; they now run as seeded
//! deterministic randomized tests over [`pa::obs::rng::SplitMix64`] so
//! the whole suite builds and runs with no registry access. Every case
//! derives from a fixed seed — a failure reproduces exactly, and the
//! failing iteration index is in the panic message.

use pa::buf::{ByteOrder, Msg};
use pa::core::packing::{pack, unpack, PackInfo};
use pa::filter::{Op, ProgramBuilder};
use pa::obs::rng::{Rng, SplitMix64};
use pa::wire::{Class, Cookie, LayoutBuilder, LayoutMode, Preamble};

fn rand_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let n = rng.gen_index(max_len + 1);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

// ---------------------------------------------------------------------
// Msg: any sequence of front/back pushes and pops behaves like a deque
// of bytes.
// ---------------------------------------------------------------------

#[test]
fn msg_behaves_like_byte_deque() {
    let mut rng = SplitMix64::new(0x6d73_675f_6465_7175);
    for case in 0..256 {
        let mut msg = Msg::new();
        let mut model: std::collections::VecDeque<u8> = Default::default();
        let ops = rng.gen_index(64);
        for step in 0..ops {
            match rng.gen_index(4) {
                0 => {
                    let b = rand_bytes(&mut rng, 31);
                    msg.push_front(&b);
                    for &x in b.iter().rev() {
                        model.push_front(x);
                    }
                }
                1 => {
                    let b = rand_bytes(&mut rng, 31);
                    msg.push_back(&b);
                    model.extend(b.iter().copied());
                }
                2 => {
                    let n = rng.gen_index(40);
                    let got = msg.pop_front(n);
                    if n <= model.len() {
                        let want: Vec<u8> = model.drain(..n).collect();
                        assert_eq!(
                            got.expect("model says it fits"),
                            want,
                            "case {case} step {step}"
                        );
                    } else {
                        assert!(got.is_none(), "case {case} step {step}");
                    }
                }
                _ => {
                    let n = rng.gen_index(40);
                    let got = msg.pop_back(n);
                    if n <= model.len() {
                        let split = model.len() - n;
                        let want: Vec<u8> = model.split_off(split).into();
                        assert_eq!(
                            got.expect("model says it fits"),
                            want,
                            "case {case} step {step}"
                        );
                    } else {
                        assert!(got.is_none(), "case {case} step {step}");
                    }
                }
            }
            assert_eq!(msg.len(), model.len(), "case {case} step {step}");
        }
        let flat: Vec<u8> = model.into_iter().collect();
        assert_eq!(msg.to_wire(), flat, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Layout compiler: random field sets always compile to non-overlapping,
// deterministic, value-preserving layouts, and packed never loses to
// traditional.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandField {
    class: usize,
    bits: u32,
}

fn rand_fields(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<RandField> {
    let n = min + rng.gen_index(max - min);
    (0..n)
        .map(|_| RandField {
            class: rng.gen_index(4),
            bits: 1 + rng.gen_index(64) as u32,
        })
        .collect()
}

fn build_layout(
    fields: &[RandField],
    mode: LayoutMode,
) -> (pa::wire::CompiledLayout, Vec<pa::wire::Field>) {
    let mut b = LayoutBuilder::new();
    let mut handles = Vec::new();
    b.begin_layer("l0");
    for (i, f) in fields.iter().enumerate() {
        if i % 3 == 0 {
            b.begin_layer(&format!("l{i}"));
        }
        handles.push(
            b.add_field(Class::from_index(f.class), &format!("f{i}"), f.bits, None)
                .expect("valid width"),
        );
    }
    (b.compile(mode).expect("compiles"), handles)
}

#[test]
fn layout_fields_never_overlap() {
    let mut rng = SplitMix64::new(0x6c61_796f_7574_0001);
    for case in 0..64 {
        let fields = rand_fields(&mut rng, 1, 24);
        for mode in [LayoutMode::Packed, LayoutMode::Traditional] {
            let (layout, _) = build_layout(&fields, mode);
            for c in Class::ALL {
                let cl = layout.class(c);
                let mut spans: Vec<(u32, u32)> = (0..cl.field_count())
                    .map(|i| {
                        let p = cl.placement(i);
                        (p.bit_offset, p.bits)
                    })
                    .collect();
                spans.sort();
                for w in spans.windows(2) {
                    assert!(
                        w[0].0 + w[0].1 <= w[1].0,
                        "case {case} {mode:?} {c} overlap: {spans:?}"
                    );
                }
                if let Some(&(off, bits)) = spans.last() {
                    assert!(((off + bits) as usize) <= cl.byte_len() * 8, "case {case}");
                }
            }
        }
    }
}

#[test]
fn layout_roundtrips_all_values() {
    let mut rng = SplitMix64::new(0x6c61_796f_7574_0002);
    for case in 0..64 {
        let fields = rand_fields(&mut rng, 1, 16);
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let (layout, handles) = build_layout(&fields, LayoutMode::Packed);
            let mut bufs: [Vec<u8>; 4] = Class::ALL.map(|c| vec![0u8; layout.class_len(c)]);
            let values: Vec<u64> = handles
                .iter()
                .map(|&h| {
                    let v: u64 = rng.next_u64();
                    let bits = layout.field_bits(h);
                    let v = if bits == 64 {
                        v
                    } else {
                        v & ((1u64 << bits) - 1)
                    };
                    layout.write_field(h, &mut bufs[h.class.index()], order, v);
                    v
                })
                .collect();
            for (h, v) in handles.iter().zip(&values) {
                assert_eq!(
                    layout.read_field(*h, &bufs[h.class.index()], order),
                    *v,
                    "case {case} {order:?}"
                );
            }
        }
    }
}

#[test]
fn packed_never_larger_than_traditional() {
    let mut rng = SplitMix64::new(0x6c61_796f_7574_0003);
    for case in 0..64 {
        let fields = rand_fields(&mut rng, 1, 24);
        let (packed, _) = build_layout(&fields, LayoutMode::Packed);
        let (trad, _) = build_layout(&fields, LayoutMode::Traditional);
        for c in Class::ALL {
            assert!(
                packed.class_len(c) <= trad.class_len(c),
                "case {case} {c}: packed {} > traditional {}",
                packed.class_len(c),
                trad.class_len(c)
            );
        }
    }
}

#[test]
fn layout_compilation_is_deterministic() {
    let mut rng = SplitMix64::new(0x6c61_796f_7574_0004);
    for case in 0..64 {
        let fields = rand_fields(&mut rng, 1, 16);
        let (a, _) = build_layout(&fields, LayoutMode::Packed);
        let (b, _) = build_layout(&fields, LayoutMode::Packed);
        assert_eq!(a.fingerprint(), b.fingerprint(), "case {case}");
        for c in Class::ALL {
            assert_eq!(a.class_len(c), b.class_len(c), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Packing: any same-size run survives pack → wire → unpack (§3.4 packs
// only runs of one size), zero-size runs included.
// ---------------------------------------------------------------------

#[test]
fn packing_roundtrips() {
    use pa::core::packing::MAX_EMPTY_PIECES;
    let mut rng = SplitMix64::new(0x7061_636b_0000_0001);
    for case in 0..160 {
        // Every fifth case a zero-size run, up to the receiver's cap
        // (the cap itself on the first); otherwise a run of 1–64.
        let (n, size) = match case {
            0 => (MAX_EMPTY_PIECES, 0),
            _ if case % 5 == 0 => (1 + rng.gen_index(MAX_EMPTY_PIECES), 0),
            _ => (1 + rng.gen_index(64), rng.gen_index(200)),
        };
        let msgs: Vec<Msg> = (0..n)
            .map(|i| Msg::from_payload(&vec![(i % 256) as u8; size]))
            .collect();
        let packed = pack(&msgs);
        // Survive a wire image copy.
        let mut rx = Msg::from_wire(packed.to_wire());
        let info = PackInfo::pop_from(&mut rx).expect("valid header");
        assert_eq!(info.count(), n, "case {case}");
        let out = unpack(&info, rx).expect("lengths match");
        assert_eq!(out.len(), msgs.len(), "case {case}");
        for (a, b) in out.iter().zip(&msgs) {
            assert_eq!(a.as_slice(), b.as_slice(), "case {case}");
        }
    }
}

#[test]
fn pack_info_decode_never_panics() {
    let mut rng = SplitMix64::new(0x7061_636b_0000_0002);
    for _ in 0..512 {
        let bytes = rand_bytes(&mut rng, 63);
        let _ = PackInfo::decode(&bytes); // must never panic
    }
}

// ---------------------------------------------------------------------
// Preamble: roundtrip and garbage tolerance.
// ---------------------------------------------------------------------

#[test]
fn preamble_roundtrips() {
    let mut rng = SplitMix64::new(0x7072_6561_6d62_6c65);
    for case in 0..256 {
        let p = Preamble {
            conn_ident_present: rng.gen_bool(0.5),
            byte_order: if rng.gen_bool(0.5) {
                ByteOrder::Little
            } else {
                ByteOrder::Big
            },
            cookie: Cookie::from_raw(rng.next_u64()),
        };
        assert_eq!(
            Preamble::decode(&p.encode()).expect("8 bytes"),
            p,
            "case {case}"
        );
    }
}

#[test]
fn preamble_decode_never_panics() {
    let mut rng = SplitMix64::new(0x7072_6561_6d62_6c66);
    for _ in 0..512 {
        let bytes = rand_bytes(&mut rng, 15);
        let _ = Preamble::decode(&bytes);
    }
}

// ---------------------------------------------------------------------
// Decode totality: every wire-facing decoder is a *total function* over
// arbitrary bytes — it returns Ok/Some or Err/None, it never panics and
// never allocates proportionally to a length field it has not checked.
// This is the hostile-wire contract the fuzzer (pa-fuzz) soaks; these
// properties pin it at the unit level.
// ---------------------------------------------------------------------

#[test]
fn wire_decoders_are_total_over_arbitrary_bytes() {
    use pa::wire::EndpointAddr;
    let mut rng = SplitMix64::new(0x7061_6e69_635f_6672);
    for _ in 0..2048 {
        let bytes = rand_bytes(&mut rng, 95);
        let _ = Preamble::decode(&bytes);
        let _ = EndpointAddr::decode(&bytes);
        let _ = PackInfo::decode(&bytes);
    }
    // Interesting short lengths deserve exhaustive coverage: every
    // byte count from empty up to a few words, all-ones and all-zeros.
    for len in 0..=64usize {
        for fill in [0x00u8, 0xFF, 0x80, 0x01] {
            let bytes = vec![fill; len];
            let _ = Preamble::decode(&bytes);
            let _ = EndpointAddr::decode(&bytes);
            let _ = PackInfo::decode(&bytes);
        }
    }
}

#[test]
fn full_deliver_path_is_total_over_arbitrary_bytes() {
    use pa::core::{Connection, ConnectionParams, PaConfig, ShardedEndpoint};
    use pa::stack::StackSpec;
    use pa::wire::EndpointAddr;
    let mut rng = SplitMix64::new(0x6465_6c69_7665_7221);
    let mut ep = ShardedEndpoint::new(1);
    let h = ep.add_connection(
        Connection::new(
            StackSpec::paper().build(),
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(9, 1),
                EndpointAddr::from_parts(8, 1),
                0x70_2026,
            ),
        )
        .expect("valid"),
    );
    // Pure noise, then noise behind a syntactically valid preamble
    // (cookie-only and ident-claiming), so the demux, the ident probe,
    // the fused delivery filter, and the class-header checks all see
    // hostile bytes — the outcome must always be a value, never a
    // panic, and the ledger must account every frame.
    for case in 0..4096 {
        let mut bytes = rand_bytes(&mut rng, 160);
        match case % 3 {
            1 => {
                let word = rng.next_u64() & !(0b11u64 << 62);
                bytes.splice(0..0, word.to_be_bytes());
            }
            2 => {
                let word = (rng.next_u64() & !(0b1u64 << 62)) | (0b1u64 << 63);
                bytes.splice(0..0, word.to_be_bytes());
            }
            _ => {}
        }
        let _ = ep.from_network(Msg::from_wire(bytes));
        assert!(ep.demux_balanced(), "case {case}");
    }
    ep.process_all_pending();
    let stats = ep.try_conn(h).expect("never removed").stats();
    assert!(stats.delivery_balanced());
    assert!(stats.rejects_reconcile());
}

// ---------------------------------------------------------------------
// Packet filter: programs that pass verification never panic at run
// time, whatever the frame contents — and the fused program the engine
// runs agrees with the interpreter: verdict and deciding instruction on
// every frame; frame bytes on every pass, and on every refusal except
// one decided by a guard the fuse pass scheduled ahead of its place,
// where the bytes are those of the interpreter run in the scheduled
// order (what the overtaken statements would have written is left
// unwritten).
// ---------------------------------------------------------------------

/// Field widths of the random layouts: sub-byte, unaligned, byte-aligned
/// and full-word, so a packed layout exercises both the direct byte
/// loads and the network-bit-order fallback of the fused program.
const FIELD_BITS: [u32; 9] = [1, 3, 5, 8, 13, 16, 24, 32, 64];
const FIELD_NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// A random op that is valid at stack depth `depth`, and the depth after
/// it. Every op class the verifier admits can come out.
fn rand_op(
    rng: &mut SplitMix64,
    depth: u32,
    fields: &[pa::wire::Field],
    slot: pa::filter::SlotId,
) -> (Op, u32) {
    use pa::filter::DigestKind;
    let field = fields[rng.gen_index(fields.len())];
    let digest = [
        DigestKind::InternetChecksum,
        DigestKind::Crc32,
        DigestKind::Xor8,
    ][rng.gen_index(3)];
    loop {
        let (op, pops, pushes) = match rng.gen_index(22) {
            0 => (Op::PushConst(rng.next_u64() as i64), 0, 1),
            1 => (Op::PushSize, 0, 1),
            2 => (Op::PushBodySize, 0, 1),
            3 => (Op::PushSlot(slot), 0, 1),
            4 | 5 => (Op::PushField(field), 0, 1),
            6 => (Op::Digest(digest), 0, 1),
            7 => (Op::DigestHeaders(digest), 0, 1),
            8 | 9 => (Op::PopField(field), 1, 0),
            10 => (Op::Add, 2, 1),
            11 => (Op::Sub, 2, 1),
            12 => (Op::Mul, 2, 1),
            13 => (Op::And, 2, 1),
            14 => (Op::Xor, 2, 1),
            15 => (Op::Eq, 2, 1),
            16 => (Op::Lt, 2, 1),
            17 => (Op::Not, 1, 1),
            18 => (Op::Dup, 1, 2),
            19 => (Op::Swap, 2, 2),
            20 => (Op::Drop, 1, 0),
            _ => (Op::Abort(rng.gen_index(8) as i64 - 4), 1, 0),
        };
        if depth >= pops && depth - pops + pushes <= pa::filter::program::MAX_STACK {
            return (op, depth - pops + pushes);
        }
    }
}

/// One statement of a filter program — a maximal run of instructions
/// that leaves the stack empty — classified the way the fuse pass's
/// schedule is specified, from the instructions alone.
struct Statement {
    start: usize,
    end: usize,
    /// Holds an `ABORT` or a `RETURN`.
    decides: bool,
    /// Ends in `ABORT v`, `v` not PASS, and before that reads nothing
    /// but constants, slots and sizes.
    pure_guard: bool,
}

fn statements(ops: &[Op]) -> Vec<Statement> {
    let (mut out, mut start, mut depth) = (Vec::new(), 0, 0);
    for (pc, op) in ops.iter().enumerate() {
        let (pops, pushes) = op.stack_effect();
        depth = depth - pops + pushes;
        if depth == 0 || pc + 1 == ops.len() {
            let body = &ops[start..pc];
            let plain = |op: &Op| {
                !matches!(
                    op,
                    Op::PushField(_)
                        | Op::PopField(_)
                        | Op::Digest(_)
                        | Op::DigestHeaders(_)
                        | Op::Abort(_)
                        | Op::Return(_)
                )
            };
            out.push(Statement {
                start,
                end: pc + 1,
                decides: ops[start..=pc]
                    .iter()
                    .any(|op| matches!(op, Op::Abort(_) | Op::Return(_))),
                pure_guard: depth == 0
                    && matches!(*op, Op::Abort(v) if v != pa::filter::PASS)
                    && body.iter().all(plain),
            });
            start = pc + 1;
        }
    }
    out
}

/// Checks `order` — the source indices of a fused program's
/// instructions in the order they run — against the rules of the
/// schedule. Returns true if anything moved.
fn check_schedule(ops: &[Op], order: &[u16], ctx: &str) -> bool {
    let mut seen = order.to_vec();
    seen.sort_unstable();
    let all: Vec<u16> = (0..ops.len() as u16).collect();
    assert_eq!(seen, all, "a permutation, {ctx}");
    let ran_at = |pc: usize| {
        order
            .iter()
            .position(|&p| p as usize == pc)
            .expect("present")
    };
    let stmts = statements(ops);
    for s in &stmts {
        // A statement stays in one piece.
        let at = ran_at(s.start);
        let piece: Vec<u16> = (s.start as u16..s.end as u16).collect();
        assert_eq!(&order[at..at + piece.len()], &piece[..], "{ctx}");
    }
    for (i, a) in stmts.iter().enumerate() {
        for b in &stmts[i + 1..] {
            if ran_at(b.start) < ran_at(a.start) {
                // Only a pure guard overtakes — a guard that reads a
                // field does not — and only what cannot decide.
                assert!(
                    b.pure_guard && !a.decides,
                    "{a:?} / {b:?}, {ctx}",
                    a = a.start,
                    b = b.start
                );
            }
        }
    }
    order.iter().enumerate().any(|(i, &p)| i != p as usize)
}

#[test]
fn verified_filters_never_panic() {
    let mut rng = SplitMix64::new(0x6669_6c74_6572_0001);
    let (mut ran, mut bit_ops, mut short, mut located) = (0, 0, 0, 0);
    let (mut moved, mut hoisted_refusals) = (0, 0);
    for case in 0..1024 {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let fields: Vec<pa::wire::Field> = FIELD_NAMES[..1 + rng.gen_index(FIELD_NAMES.len())]
            .iter()
            .map(|name| {
                let class = [Class::Protocol, Class::Message, Class::Gossip][rng.gen_index(3)];
                let bits = FIELD_BITS[rng.gen_index(FIELD_BITS.len())];
                b.add_field(class, name, bits, None).expect("valid")
            })
            .collect();
        let layout = b.compile(LayoutMode::Packed).expect("compiles");
        let hdr = layout.class_len(Class::Protocol)
            + layout.class_len(Class::Message)
            + layout.class_len(Class::Gossip);

        let mut pb = ProgramBuilder::new();
        let slot = pb.alloc_slot(rng.next_u64() as i64);
        let mut depth = 0;
        for _ in 0..rng.gen_index(48) {
            let (op, after) = rand_op(&mut rng, depth, &fields, slot);
            pb.extend(vec![op]);
            depth = after;
        }
        let program = pb.build().expect("built to the verifier's rules");

        // Random header bytes and payload; one case in eight is cut
        // shorter than the class headers the fields reach into.
        let mut wire = rand_bytes(&mut rng, 63);
        wire.splice(0..0, (0..hdr).map(|_| rng.next_u64() as u8));
        if rng.gen_index(8) == 0 {
            wire.truncate(rng.gen_index(hdr + 1));
        }
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut by_interp = Msg::from_wire(wire.clone());
            let mut by_fused = by_interp.clone();
            let (want, want_at) = {
                let mut frame = pa::filter::Frame::new(&mut by_interp, &layout, order);
                // must not panic
                pa::filter::run_traced(&program, program.slots(), &mut frame)
            };
            let fused = pa::filter::FusedProgram::fuse(&program, &layout, order);
            let (got, got_at) = fused.run_located(program.slots(), &mut by_fused);
            let ctx = format!("case {case} {order:?}: {:?}", program.ops());
            assert_eq!(got, want, "verdict, {ctx}");
            // The schedule obeys its rules, and the fused run is the
            // interpreter's over the program in the scheduled order,
            // byte for byte.
            let schedule: Vec<u16> = fused.source_pcs().collect();
            moved += check_schedule(program.ops(), &schedule, &ctx) as usize;
            let mut sb = ProgramBuilder::new();
            sb.alloc_slot(program.slots()[0]);
            sb.extend(schedule.iter().map(|&pc| program.ops()[pc as usize]));
            let scheduled = sb.build().expect("statements moved whole still verify");
            let mut by_scheduled = Msg::from_wire(wire.clone());
            let (sv, s_at) = {
                let mut frame = pa::filter::Frame::new(&mut by_scheduled, &layout, order);
                pa::filter::run_traced(&scheduled, scheduled.slots(), &mut frame)
            };
            assert_eq!(sv, want, "scheduled verdict, {ctx}");
            assert_eq!(by_fused, by_scheduled, "frame bytes as scheduled, {ctx}");
            // Against the program as written: the same bytes, unless a
            // guard that ran ahead of its place refused the frame (case
            // 209 has an `ABORT 0` — a PASS — mid-program, which is why
            // such an abort is no guard: ahead of its place it would
            // pass a frame the statements before it had not written).
            let hoisted = s_at.is_some_and(|at| at.pc != schedule[at.pc as usize]);
            if hoisted {
                assert!(want != pa::filter::PASS, "{ctx}");
                hoisted_refusals += 1;
            } else {
                assert_eq!(by_fused, by_interp, "frame bytes, {ctx}");
            }
            assert_eq!(want == pa::filter::SHORT_FRAME, wire.len() < hdr, "{ctx}");
            // The fused run names the instruction the oracle does — on
            // every refusal but a short frame's, and on no pass.
            assert_eq!(got_at, want_at.map(|at| at.pc), "reject pc, {ctx}");
            let refused = want != pa::filter::PASS && want != pa::filter::SHORT_FRAME;
            assert_eq!(got_at.is_some(), refused, "{ctx}");
            located += refused as usize;
            ran += 1;
            bit_ops += fused.stats().bit_fallback;
            short += (want == pa::filter::SHORT_FRAME) as usize;
        }
    }
    // The generator must actually reach what this test is for.
    assert_eq!(ran, 2048);
    assert!(bit_ops > 500, "bit-field ops fused: {bit_ops}");
    assert!(short > 50, "short frames refused: {short}");
    assert!(located > 200, "refusals located: {located}");
    assert!(moved > 40, "programs the schedule reordered: {moved}");
    assert!(
        hoisted_refusals > 20,
        "refusals by a hoisted guard: {hoisted_refusals}"
    );
}

// ---------------------------------------------------------------------
// Digests: what the filter runs (`compute_multi`, over parts, the
// Internet checksum 32 bytes at a time) is the plain formulation over
// the concatenation — any length, alignment and split.
// ---------------------------------------------------------------------

#[test]
fn digests_over_parts_equal_the_plain_ones_over_the_whole() {
    use pa::filter::digest::{crc32, internet_checksum};
    use pa::filter::DigestKind;
    let mut rng = SplitMix64::new(0x6469_6765_7374_0001);
    let arena: Vec<u8> = (0..70_016).map(|_| rng.next_u64() as u8).collect();
    for case in 0..160 {
        // Short inputs as often as long ones; one case in eight all
        // ones, where every carry there can be is taken.
        let max = [70, 700, 7_000, 70_000][case % 4];
        let (align, len) = (rng.gen_index(16), rng.gen_index(max + 1));
        let ones = vec![0xFFu8; len];
        let data = if case % 8 == 7 {
            &ones[..]
        } else {
            &arena[align..align + len]
        };
        // One to four parts; a cut falls on an odd offset half the time
        // and parts may be empty.
        let mut cuts: Vec<usize> = (0..rng.gen_index(4))
            .map(|_| rng.gen_index(len + 1))
            .collect();
        cuts.extend([0, len]);
        cuts.sort_unstable();
        let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
        let ctx = format!("case {case}: {len} bytes at {align}, cut at {cuts:?}");
        let want = [
            (DigestKind::InternetChecksum, internet_checksum(data) as u64),
            (DigestKind::Crc32, crc32(data) as u64),
            (DigestKind::Xor8, data.iter().fold(0u8, |a, b| a ^ b) as u64),
        ];
        for (kind, want) in want {
            assert_eq!(kind.compute_multi(&parts), want, "{kind}, {ctx}");
            assert_eq!(kind.compute(data), want, "{kind} whole, {ctx}");
        }
    }
}

// ---------------------------------------------------------------------
// Engine: random payload sequences arrive intact and in order over a
// clean network, whatever mix of sizes (including frag-sized).
// ---------------------------------------------------------------------

#[test]
fn engine_preserves_any_payload_sequence() {
    use pa::core::{Connection, ConnectionParams, PaConfig};
    use pa::stack::StackSpec;
    use pa::wire::EndpointAddr;
    let mut rng = SplitMix64::new(0x656e_6769_6e65_0001);
    for case in 0..24 {
        let spec = StackSpec {
            frag_mtu: Some(128),
            ..StackSpec::paper()
        };
        let mk = |l: u64, p: u64, s: u64| {
            Connection::new(
                spec.build(),
                PaConfig::paper_default(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(l, 1),
                    EndpointAddr::from_parts(p, 1),
                    s,
                ),
            )
            .expect("valid")
        };
        let mut a = mk(1, 2, 71);
        let mut b = mk(2, 1, 72);
        let n = 1 + rng.gen_index(19);
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let s = rng.gen_index(600);
                (0..s).map(|j| ((i + j) % 256) as u8).collect()
            })
            .collect();
        for m in &msgs {
            a.send(m);
            a.process_pending();
        }
        // Shuttle until quiet.
        for _ in 0..200 {
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
            if !moved && !a.has_pending() && !b.has_pending() && a.backlog_len() == 0 {
                break;
            }
        }
        let mut got = Vec::new();
        while let Some(m) = b.poll_delivery() {
            got.push(m.to_wire());
        }
        assert_eq!(got, msgs, "case {case}");
    }
}
