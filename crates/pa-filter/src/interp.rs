//! The packet-filter interpreter.
//!
//! Verification has already bounded the stack and rejected malformed
//! programs, so execution is straight-line and cannot fail: every
//! instruction either manipulates the operand stack, touches a header
//! field through the frame, or returns a verdict. Falling off the end
//! returns [`crate::PASS`].

use crate::frame::Frame;
use crate::op::Op;
use crate::program::Program;
use crate::Verdict;

/// Where a non-PASS verdict was decided: program counter and mnemonic
/// of the deciding instruction. `&'static str` so trace events carrying
/// it stay `Copy` and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectPoint {
    /// Index of the deciding instruction in the program.
    pub pc: u16,
    /// Mnemonic of the deciding instruction.
    pub op: &'static str,
}

/// Runs `program` against `frame` with the slot values it was built
/// with, returning the verdict (0 = pass).
pub fn run(program: &Program, frame: &mut Frame<'_>) -> Verdict {
    run_traced(program, program.slots(), frame).0
}

/// Like [`run`], but reads patchable slots from `slots` — the caller's
/// live values, one per slot of `program`, as
/// [`crate::FusedProgram::run`] takes them — and also reports *where* a
/// non-PASS verdict was decided, for diagnostic tracing. A PASS
/// (including falling off the end) carries no reject point.
///
/// # Panics
/// If `slots` is shorter than a slot index `program` pushes.
pub fn run_traced(
    program: &Program,
    slots: &[i64],
    frame: &mut Frame<'_>,
) -> (Verdict, Option<RejectPoint>) {
    // Refuse to execute over a frame shorter than the class headers the
    // program's field references reach into — the totality guard that
    // makes arbitrary truncated wire bytes unable to panic a filter run.
    if frame.is_short() {
        return (crate::SHORT_FRAME, None);
    }
    // Exact stack requirement was computed by the verifier; a small
    // fixed-capacity Vec avoids reallocation in the common case.
    let mut stack: Vec<i64> = Vec::with_capacity(program.max_stack_depth() as usize);
    for (pc, op) in program.ops().iter().enumerate() {
        match *op {
            Op::PushConst(v) => stack.push(v),
            Op::PushSlot(s) => stack.push(slots[s.0 as usize]),
            Op::PushField(f) => stack.push(frame.read(f) as i64),
            Op::PushSize => stack.push(frame.size() as i64),
            Op::PushBodySize => stack.push(frame.body_size() as i64),
            Op::Digest(kind) => stack.push(kind.compute(frame.body()) as i64),
            Op::DigestHeaders(kind) => stack.push(kind.compute_multi(&[
                frame.proto_hdr(),
                frame.gossip_hdr(),
                frame.body(),
            ]) as i64),
            Op::PopField(f) => {
                let v = stack.pop().expect("verified");
                frame.write(f, v as u64);
            }
            Op::Add => binop(&mut stack, |a, b| a.wrapping_add(b)),
            Op::Sub => binop(&mut stack, |a, b| a.wrapping_sub(b)),
            Op::Mul => binop(&mut stack, |a, b| a.wrapping_mul(b)),
            Op::And => binop(&mut stack, |a, b| a & b),
            Op::Or => binop(&mut stack, |a, b| a | b),
            Op::Xor => binop(&mut stack, |a, b| a ^ b),
            Op::Eq => binop(&mut stack, |a, b| (a == b) as i64),
            Op::Ne => binop(&mut stack, |a, b| (a != b) as i64),
            Op::Lt => binop(&mut stack, |a, b| (a < b) as i64),
            Op::Le => binop(&mut stack, |a, b| (a <= b) as i64),
            Op::Gt => binop(&mut stack, |a, b| (a > b) as i64),
            Op::Ge => binop(&mut stack, |a, b| (a >= b) as i64),
            Op::Not => {
                let v = stack.pop().expect("verified");
                stack.push((v == 0) as i64);
            }
            Op::Dup => {
                let v = *stack.last().expect("verified");
                stack.push(v);
            }
            Op::Swap => {
                let n = stack.len();
                stack.swap(n - 1, n - 2);
            }
            Op::Drop => {
                stack.pop().expect("verified");
            }
            Op::Return(v) => return (v, reject_point(v, pc, op)),
            Op::Abort(v) => {
                if stack.pop().expect("verified") != 0 {
                    return (v, reject_point(v, pc, op));
                }
            }
        }
    }
    (crate::PASS, None)
}

/// Where verdict `v` was decided, unless it is a PASS (an `ABORT 0`
/// that fires passes the frame like any other way of returning 0).
fn reject_point(v: Verdict, pc: usize, op: &Op) -> Option<RejectPoint> {
    (v != crate::PASS).then(|| RejectPoint {
        pc: pc as u16,
        op: op.name(),
    })
}

#[inline]
fn binop(stack: &mut Vec<i64>, f: impl FnOnce(i64, i64) -> i64) {
    let top = stack.pop().expect("verified");
    let next = stack.pop().expect("verified");
    stack.push(f(next, top));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestKind;
    use crate::op::Op;
    use crate::program::ProgramBuilder;
    use pa_buf::{ByteOrder, Msg};
    use pa_wire::{Class, CompiledLayout, Field, LayoutBuilder, LayoutMode};

    struct Fixture {
        layout: CompiledLayout,
        len_f: Field,
        ck_f: Field,
        seq_f: Field,
    }

    fn fixture() -> Fixture {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let seq_f = b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        let len_f = b.add_field(Class::Message, "len", 16, None).unwrap();
        let ck_f = b.add_field(Class::Message, "ck", 16, None).unwrap();
        Fixture {
            layout: b.compile(LayoutMode::Packed).unwrap(),
            len_f,
            ck_f,
            seq_f,
        }
    }

    fn frame_msg(layout: &CompiledLayout, payload: &[u8]) -> Msg {
        let hdr = layout.class_len(Class::Protocol)
            + layout.class_len(Class::Message)
            + layout.class_len(Class::Gossip);
        let mut m = Msg::from_payload(payload);
        m.push_front_zeroed(hdr);
        m
    }

    fn run_ops(fx: &Fixture, msg: &mut Msg, ops: Vec<Op>) -> i64 {
        let mut b = ProgramBuilder::new();
        b.extend(ops);
        let p = b.build().unwrap();
        let mut frame = Frame::new(msg, &fx.layout, ByteOrder::Big);
        run(&p, &mut frame)
    }

    #[test]
    fn traced_run_reports_the_deciding_instruction() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        let mut b = ProgramBuilder::new();
        b.extend(vec![Op::PushConst(1), Op::Abort(9), Op::Return(0)]);
        let p = b.build().unwrap();
        let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
        let (v, at) = run_traced(&p, p.slots(), &mut frame);
        assert_eq!(v, 9);
        let at = at.expect("rejected");
        assert_eq!(at.pc, 1);
        assert_eq!(at.op, "ABORT");

        let mut b = ProgramBuilder::new();
        b.extend(vec![Op::Return(0)]);
        let p = b.build().unwrap();
        let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
        assert_eq!(run_traced(&p, p.slots(), &mut frame), (0, None));
    }

    #[test]
    fn empty_program_passes() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"x");
        assert_eq!(run_ops(&fx, &mut m, vec![]), 0);
    }

    #[test]
    fn arithmetic() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        // (10 - 3) * 2 + 6 == 20 → Eq pushes 1 → Abort 7 fires.
        let ops = vec![
            Op::PushConst(10),
            Op::PushConst(3),
            Op::Sub,
            Op::PushConst(2),
            Op::Mul,
            Op::PushConst(6),
            Op::Add,
            Op::PushConst(20),
            Op::Eq,
            Op::Abort(7),
            Op::Return(1),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 7);
    }

    #[test]
    fn comparisons() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        for (op, a, b, expect) in [
            (Op::Lt, 1, 2, 1),
            (Op::Lt, 2, 2, 0),
            (Op::Le, 2, 2, 1),
            (Op::Gt, 3, 2, 1),
            (Op::Ge, 2, 3, 0),
            (Op::Ne, 4, 5, 1),
        ] {
            let ops = vec![
                Op::PushConst(a),
                Op::PushConst(b),
                op,
                Op::Abort(1),
                Op::Return(0),
            ];
            let got = run_ops(&fx, &mut m, ops);
            assert_eq!(got, expect, "{op} {a} {b}");
        }
    }

    #[test]
    fn bitwise_and_not() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        let ops = vec![
            Op::PushConst(0b1100),
            Op::PushConst(0b1010),
            Op::Xor, // 0b0110
            Op::PushConst(0b0110),
            Op::Eq,
            Op::Not, // 0
            Op::Abort(5),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 0);
    }

    #[test]
    fn dup_swap_drop() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        // stack: 1 2 → swap → 2 1 → dup → 2 1 1 → drop → 2 1 → sub = 1
        let ops = vec![
            Op::PushConst(1),
            Op::PushConst(2),
            Op::Swap,
            Op::Dup,
            Op::Drop,
            Op::Sub,
            Op::Abort(3),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 3);
    }

    #[test]
    fn push_size_and_body_size() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"12345");
        let total = m.len() as i64;
        let ops = vec![
            Op::PushSize,
            Op::PushConst(total),
            Op::Ne,
            Op::Abort(1),
            Op::PushBodySize,
            Op::PushConst(5),
            Op::Ne,
            Op::Abort(2),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 0);
    }

    #[test]
    fn send_filter_fills_fields_then_recv_filter_validates() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"the payload");

        // Send side: len := PUSH_SIZE; ck := DIGEST.
        let send_ops = vec![
            Op::PushSize,
            Op::PopField(fx.len_f),
            Op::Digest(DigestKind::InternetChecksum),
            Op::PopField(fx.ck_f),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, send_ops), 0);

        // Wire transfer.
        let mut rx = Msg::from_wire(m.to_wire());

        // Receive side: both must match.
        let recv_ops = vec![
            Op::PushField(fx.len_f),
            Op::PushSize,
            Op::Ne,
            Op::Abort(1),
            Op::PushField(fx.ck_f),
            Op::Digest(DigestKind::InternetChecksum),
            Op::Ne,
            Op::Abort(2),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut rx, recv_ops.clone()), 0);

        // Corrupt a payload byte → checksum check fires.
        let last = rx.len() - 1;
        rx.set_byte_at(last, rx.byte_at(last) ^ 0xFF);
        assert_eq!(run_ops(&fx, &mut rx, recv_ops), 2);
    }

    #[test]
    fn size_reject_fragment_style() {
        // §6: "The fragmentation/reassembly layer adds code to the send
        // packet filter to reject messages over a certain size."
        let fx = fixture();
        let mtu = 16i64;
        let make = |payload: &[u8]| frame_msg(&fx.layout, payload);
        let ops = |_: ()| {
            vec![
                Op::PushBodySize,
                Op::PushConst(mtu),
                Op::Gt,
                Op::Abort(99),
                Op::Return(0),
            ]
        };
        let mut small = make(b"ok");
        assert_eq!(run_ops(&fx, &mut small, ops(())), 0);
        let mut big = make(&[0u8; 64]);
        assert_eq!(run_ops(&fx, &mut big, ops(())), 99);
    }

    #[test]
    fn slot_patching_changes_behaviour_without_rebuild() {
        let fx = fixture();
        let mut b = ProgramBuilder::new();
        let limit = b.alloc_slot(10);
        b.extend(vec![
            Op::PushBodySize,
            Op::PushSlot(limit),
            Op::Gt,
            Op::Abort(1),
            Op::Return(0),
        ]);
        let mut p = b.build().unwrap();

        let mut m = frame_msg(&fx.layout, &[0u8; 20]);
        {
            let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
            assert_eq!(run(&p, &mut frame), 1, "20 > 10");
        }
        // A caller's own slot array decides, and leaves the program's
        // values alone.
        {
            let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
            assert_eq!(run_traced(&p, &[100], &mut frame), (0, None));
            let (v, at) = run_traced(&p, &[19], &mut frame);
            assert_eq!((v, at.map(|at| at.pc)), (1, Some(3)));
            assert_eq!(run(&p, &mut frame), 1, "the program still says 10");
        }
        p.set_slot(limit, 100);
        let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
        assert_eq!(run(&p, &mut frame), 0, "20 <= 100 after patch");
    }

    #[test]
    fn protocol_fields_accessible_too() {
        // Header prediction compares protocol fields outside the filter,
        // but a filter may also read them (e.g. fragment bit checks).
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        {
            let mut frame = Frame::new(&mut m, &fx.layout, ByteOrder::Big);
            frame.write(fx.seq_f, 99);
        }
        let ops = vec![
            Op::PushField(fx.seq_f),
            Op::PushConst(99),
            Op::Ne,
            Op::Abort(1),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 0);
    }

    #[test]
    fn wrapping_arithmetic_never_panics() {
        let fx = fixture();
        let mut m = frame_msg(&fx.layout, b"");
        let ops = vec![
            Op::PushConst(i64::MAX),
            Op::PushConst(1),
            Op::Add, // wraps
            Op::PushConst(i64::MIN),
            Op::Ne,
            Op::Abort(1),
            Op::Return(0),
        ];
        assert_eq!(run_ops(&fx, &mut m, ops), 0);
    }
}
