//! The fused filter: the engine's one execution backend.
//!
//! §3.3: "In the Exokernel project, a significant performance
//! improvement was obtained by compiling packet filter programs into
//! machine code. We intend to adopt this approach eventually." We stop
//! one step short of emitting machine code — safe Rust has no business
//! JIT-ing — but do the part that matters for a layout-driven filter:
//! every field reference is resolved to an absolute offset within the
//! frame, and the byte order is chosen, once, when the program is
//! fused. What runs per message is a flat op array over an inline
//! stack: no layout table walks, no byte-order branches, no heap.
//!
//! Fusing also *schedules*. Layers append their fragments in stacking
//! order, so the paper stack's send filter digests a whole 16 KiB
//! message for the checksum layer before the fragmentation layer's
//! four-instruction size guard refuses it. A program is straight-line
//! and the verifier knows its exact stack depth, so it is a sequence of
//! *statements* — maximal runs of instructions that leave the stack
//! empty — and a statement's dependencies can be read off its
//! instructions (P4 orders match-action stages the same way). A
//! statement is a *pure guard* when it ends in `ABORT v` with `v` not
//! PASS and everything before that reads only constants, slots and
//! sizes: nothing the filter itself writes. A pure guard runs ahead of
//! every earlier statement that cannot itself decide (holds no `ABORT`
//! or `RETURN`); nothing ever moves across a statement that can.
//!
//! The interpreter ([`crate::interp`]) executes the same [`Program`]
//! straight from its `Op`s, in the order they were written. It is the
//! oracle the differential tests compare this module against, and the
//! schedule is equivalent to it in this sense: the verdict and the
//! deciding instruction are identical on every frame; the frame bytes
//! are identical on every PASS, and on every refusal except one that a
//! hoisted guard decided, where the fields the statements it overtook
//! would have written are left untouched — header bytes the engine
//! strips or recycles on a refusal. Every fused instruction keeps the
//! index of the `Op` it came from, so [`FusedProgram::run_located`]
//! names the deciding instruction in the source program's terms and
//! the engine never re-runs a refused frame to learn where it stopped.
//!
//! Patchable slots are not fused in: `run` borrows the caller's slot
//! array (the source [`Program`]'s, or a connection's own copy of it),
//! so a post-processing rewrite is visible without a re-fuse and one
//! fused program serves every connection of a stack.

use crate::digest::DigestKind;
use crate::op::Op;
use crate::program::Program;
use crate::Verdict;
use pa_wire::bits;
use pa_wire::{Class, CompiledLayout};
use std::sync::Arc;

/// A fused instruction: field reference *and* byte order resolved.
///
/// "Is this field aligned?" and "what byte order is the peer?" were
/// both decided at fuse time. Byte-aligned whole-byte fields become
/// direct byte loads in the connection's negotiated order; sub-byte or
/// unaligned fields fall back to network-bit-order access (which is
/// order-insensitive by the layout contract, so baking is lossless).
#[derive(Debug, Clone, Copy, PartialEq)]
enum FOp {
    PushConst(i64),
    PushSlot(u16),
    /// Byte-aligned field, big-endian, bytes `off..off + len`.
    PushFieldBe {
        off: u32,
        len: u32,
    },
    /// Byte-aligned field, little-endian.
    PushFieldLe {
        off: u32,
        len: u32,
    },
    /// Unaligned or sub-byte field: network bit order.
    PushFieldBits {
        bit: u32,
        bits: u32,
    },
    PopFieldBe {
        off: u32,
        len: u32,
    },
    PopFieldLe {
        off: u32,
        len: u32,
    },
    PopFieldBits {
        bit: u32,
        bits: u32,
    },
    PushSize,
    PushBodySize,
    Digest(DigestKind),
    DigestHeaders(DigestKind),
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Not,
    Dup,
    Swap,
    Drop,
    Return(i64),
    Abort(i64),
}

/// A fused instruction and the index, in the source [`Program`], of the
/// instruction it was fused from — read only when it refuses a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Inst {
    op: FOp,
    pc: u16,
}

/// Depth of the inline evaluation stack. The verifier rejects any
/// program needing more than [`crate::program::MAX_STACK`] entries, so
/// every runnable program fits and fused execution never touches the
/// heap. The const assertion keeps the two bounds honest.
pub(crate) const FUSED_STACK_DEPTH: usize = 64;

const _: () = assert!(
    FUSED_STACK_DEPTH >= crate::program::MAX_STACK as usize,
    "fused inline stack must cover the verifier's depth bound"
);

/// What a fuse pass resolved — surfaced in the metrics registry so an
/// operator can see which connections run the allocation-free backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Total fused instructions.
    pub ops: usize,
    /// Field references resolved (read + write).
    pub field_ops: usize,
    /// Field references that became direct byte loads/stores.
    pub byte_aligned: usize,
    /// Field references on the network-bit-order fallback.
    pub bit_fallback: usize,
    /// The program's verified stack requirement.
    pub max_depth: u32,
}

/// A filter program with field offsets *and* byte order pre-resolved
/// into a flat op array — the §3.3 filter as it runs on the zero-
/// allocation fast path.
///
/// What fusing buys over interpreting the [`Program`]:
///
/// - the peer byte order is baked in at fuse time (re-fuse on the rare
///   peer-order learn, not per message),
/// - execution uses a fixed inline stack sized by the verifier's depth
///   bound — no per-run `Vec`, no heap,
/// - every field reference was bounds-checked once at fuse time against
///   the layout's header length; a shorter message is refused once
///   before the run loop ([`crate::SHORT_FRAME`]), so the loop carries
///   no per-message range re-derivation.
///
/// Patchable slots stay outside: `run` borrows the slot array, so
/// post-processing rewrites are visible without a re-fuse — the
/// interpreter's traced run reads the same array.
///
/// The instructions are shared: a clone is a reference-count bump and
/// four words, so every connection of a stack holds the one fused
/// program *by value* — its per-message run reaches the instructions
/// with the loads a private copy would cost, and nothing is fused twice.
/// They are held in the order they run, each with its source index, in
/// the one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    insts: Arc<[Inst]>,
    // Header offsets in bytes: three class headers of at most 65 535
    // bytes each.
    proto_len: u32,
    gossip_off: u32,
    body_off: u32,
    max_depth: u32,
}

impl FusedProgram {
    /// Resolves `program` against `layout` with `order` baked in.
    pub fn fuse(program: &Program, layout: &CompiledLayout, order: pa_buf::ByteOrder) -> Self {
        let proto = layout.class_len(Class::Protocol);
        let message = layout.class_len(Class::Message);
        let gossip = layout.class_len(Class::Gossip);
        let base_bits = |c: Class| -> u32 {
            (match c {
                Class::Protocol => 0,
                Class::Message => proto,
                Class::Gossip => proto + message,
                Class::ConnId => unreachable!("verifier rejects conn-id fields"),
            } as u32)
                * 8
        };
        // A field is a direct byte load iff byte-aligned and whole-byte
        // wide — the same predicate `bits::read_field` applies per call;
        // here it is evaluated exactly once.
        let field = |f: pa_wire::Field, write: bool| -> FOp {
            let p = layout.class(f.class).placement(f.index_in_class());
            let bit = base_bits(f.class) + p.bit_offset;
            if bit.is_multiple_of(8) && p.bits.is_multiple_of(8) {
                let (off, len) = (bit / 8, p.bits / 8);
                match (order, write) {
                    (pa_buf::ByteOrder::Big, false) => FOp::PushFieldBe { off, len },
                    (pa_buf::ByteOrder::Little, false) => FOp::PushFieldLe { off, len },
                    (pa_buf::ByteOrder::Big, true) => FOp::PopFieldBe { off, len },
                    (pa_buf::ByteOrder::Little, true) => FOp::PopFieldLe { off, len },
                }
            } else if write {
                FOp::PopFieldBits { bit, bits: p.bits }
            } else {
                FOp::PushFieldBits { bit, bits: p.bits }
            }
        };
        let mut insts: Arc<[Inst]> = program
            .ops()
            .iter()
            .map(|op| match *op {
                Op::PushConst(v) => FOp::PushConst(v),
                Op::PushSlot(s) => FOp::PushSlot(s.0),
                Op::PushField(f) => field(f, false),
                Op::PopField(f) => field(f, true),
                Op::PushSize => FOp::PushSize,
                Op::PushBodySize => FOp::PushBodySize,
                Op::Digest(k) => FOp::Digest(k),
                Op::DigestHeaders(k) => FOp::DigestHeaders(k),
                Op::Add => FOp::Add,
                Op::Sub => FOp::Sub,
                Op::Mul => FOp::Mul,
                Op::And => FOp::And,
                Op::Or => FOp::Or,
                Op::Xor => FOp::Xor,
                Op::Eq => FOp::Eq,
                Op::Ne => FOp::Ne,
                Op::Lt => FOp::Lt,
                Op::Le => FOp::Le,
                Op::Gt => FOp::Gt,
                Op::Ge => FOp::Ge,
                Op::Not => FOp::Not,
                Op::Dup => FOp::Dup,
                Op::Swap => FOp::Swap,
                Op::Drop => FOp::Drop,
                Op::Return(v) => FOp::Return(v),
                Op::Abort(v) => FOp::Abort(v),
            })
            .zip(0..)
            .map(|(op, pc)| Inst { op, pc })
            .collect();
        schedule(
            program.ops(),
            Arc::get_mut(&mut insts).expect("not shared yet"),
        );
        FusedProgram {
            insts,
            proto_len: proto as u32,
            gossip_off: (proto + message) as u32,
            body_off: (proto + message + gossip) as u32,
            max_depth: program.max_stack_depth(),
        }
    }

    /// What the fuse pass resolved, read back off the instructions.
    pub fn stats(&self) -> FuseStats {
        let count = |pred: fn(&FOp) -> bool| self.insts.iter().filter(|i| pred(&i.op)).count();
        let byte_aligned = count(|op| {
            matches!(
                op,
                FOp::PushFieldBe { .. }
                    | FOp::PushFieldLe { .. }
                    | FOp::PopFieldBe { .. }
                    | FOp::PopFieldLe { .. }
            )
        });
        let bit_fallback =
            count(|op| matches!(op, FOp::PushFieldBits { .. } | FOp::PopFieldBits { .. }));
        FuseStats {
            ops: self.insts.len(),
            field_ops: byte_aligned + bit_fallback,
            byte_aligned,
            bit_fallback,
            max_depth: self.max_depth,
        }
    }

    /// The schedule: the source [`Program`]'s instruction indices in the
    /// order this program runs them.
    pub fn source_pcs(&self) -> impl Iterator<Item = u16> + '_ {
        self.insts.iter().map(|i| i.pc)
    }

    /// Runs against the raw frame bytes of `msg`. Allocation-free: the
    /// operand stack is inline (the verifier bounds depth below
    /// [`FUSED_STACK_DEPTH`]), and byte order was baked at fuse time so
    /// none is taken here.
    #[inline]
    pub fn run(&self, slots: &[i64], msg: &mut pa_buf::Msg) -> Verdict {
        self.run_located(slots, msg).0
    }

    /// [`FusedProgram::run`], also naming the instruction that decided
    /// a non-PASS verdict: its index in the source [`Program`] — what
    /// [`crate::run_traced`] reports as `RejectPoint::pc`. `None` on a
    /// PASS and on a frame too short to run over.
    #[inline]
    pub fn run_located(&self, slots: &[i64], msg: &mut pa_buf::Msg) -> (Verdict, Option<u16>) {
        // Totality guard, same as the interpreter's: the fuse pass
        // bounds-checked every field reference against the header
        // length once; a message shorter than that is refused, not
        // indexed.
        if msg.len() < self.body_off as usize {
            return (crate::SHORT_FRAME, None);
        }
        let mut stack = FixedStack {
            buf: [0; FUSED_STACK_DEPTH],
            sp: 0,
        };
        self.exec(slots, msg, &mut stack)
    }

    fn exec(
        &self,
        slots: &[i64],
        msg: &mut pa_buf::Msg,
        stack: &mut FixedStack,
    ) -> (Verdict, Option<u16>) {
        let total = msg.len();
        let body_off = self.body_off as usize;
        let buf = msg.as_mut_slice();
        for inst in self.insts.iter() {
            match inst.op {
                FOp::PushConst(v) => stack.push(v),
                FOp::PushSlot(s) => stack.push(slots[s as usize]),
                FOp::PushFieldBe { off, len } => {
                    stack.push(load_be(buf, off as usize, len as usize) as i64)
                }
                FOp::PushFieldLe { off, len } => {
                    stack.push(load_le(buf, off as usize, len as usize) as i64)
                }
                FOp::PushFieldBits { bit, bits: w } => {
                    stack.push(bits::read_bits_be(buf, bit, w) as i64)
                }
                FOp::PopFieldBe { off, len } => {
                    let v = mask_bytes(stack.pop() as u64, len);
                    store_be(buf, off as usize, len as usize, v);
                }
                FOp::PopFieldLe { off, len } => {
                    let v = mask_bytes(stack.pop() as u64, len);
                    store_le(buf, off as usize, len as usize, v);
                }
                FOp::PopFieldBits { bit, bits: w } => {
                    let v = stack.pop();
                    bits::write_bits_be(buf, bit, w, bits::mask(v as u64, w));
                }
                FOp::PushSize => stack.push(total as i64),
                FOp::PushBodySize => stack.push((total - body_off) as i64),
                FOp::Digest(kind) => stack.push(kind.compute(&buf[body_off..]) as i64),
                FOp::DigestHeaders(kind) => stack.push(kind.compute_multi(&[
                    &buf[..self.proto_len as usize],
                    &buf[self.gossip_off as usize..body_off],
                    &buf[body_off..],
                ]) as i64),
                FOp::Add => stack.binop(|a, b| a.wrapping_add(b)),
                FOp::Sub => stack.binop(|a, b| a.wrapping_sub(b)),
                FOp::Mul => stack.binop(|a, b| a.wrapping_mul(b)),
                FOp::And => stack.binop(|a, b| a & b),
                FOp::Or => stack.binop(|a, b| a | b),
                FOp::Xor => stack.binop(|a, b| a ^ b),
                FOp::Eq => stack.binop(|a, b| (a == b) as i64),
                FOp::Ne => stack.binop(|a, b| (a != b) as i64),
                FOp::Lt => stack.binop(|a, b| (a < b) as i64),
                FOp::Le => stack.binop(|a, b| (a <= b) as i64),
                FOp::Gt => stack.binop(|a, b| (a > b) as i64),
                FOp::Ge => stack.binop(|a, b| (a >= b) as i64),
                FOp::Not => {
                    let v = stack.pop();
                    stack.push((v == 0) as i64);
                }
                FOp::Dup => {
                    let v = stack.top();
                    stack.push(v);
                }
                FOp::Swap => stack.swap_top(),
                FOp::Drop => {
                    stack.pop();
                }
                FOp::Return(v) => return located(v, inst.pc),
                FOp::Abort(v) => {
                    if stack.pop() != 0 {
                        return located(v, inst.pc);
                    }
                }
            }
        }
        (crate::PASS, None)
    }
}

/// Verdict `v`, decided at source instruction `pc` — which is only
/// worth naming if it is not a PASS.
#[inline(always)]
fn located(v: Verdict, pc: u16) -> (Verdict, Option<u16>) {
    (v, (v != crate::PASS).then_some(pc))
}

/// Reorders `insts` — one per `ops`, in that order — into the order
/// they run: each pure guard ahead of the non-deciding statements just
/// before it (the module's description has the definitions and what the
/// reordering preserves). In place; guards keep their relative order,
/// behind every deciding statement that preceded them.
fn schedule(ops: &[Op], insts: &mut [Inst]) {
    // `start`: where the statement being read begins. `run`: where the
    // run of non-deciding statements that ends there begins, in `insts`
    // as reordered so far (nothing at or after `start` has moved yet).
    let (mut start, mut run, mut depth) = (0, 0, 0u32);
    // Of the statement being read: it can decide; it does something a
    // pure guard may not do before its last instruction.
    let (mut decides, mut impure) = (false, false);
    for (pc, op) in ops.iter().enumerate() {
        let (pops, pushes) = op.stack_effect();
        depth = depth - pops + pushes;
        let guard = depth == 0 && !impure && matches!(*op, Op::Abort(v) if v != crate::PASS);
        match op {
            Op::Abort(_) | Op::Return(_) => (decides, impure) = (true, true),
            Op::PushField(_) | Op::PopField(_) | Op::Digest(_) | Op::DigestHeaders(_) => {
                impure = true
            }
            _ => {}
        }
        if depth != 0 {
            continue;
        }
        let end = pc + 1;
        if guard {
            insts[run..end].rotate_right(end - start);
            run += end - start;
        } else if decides {
            run = end;
        }
        (start, decides, impure) = (end, false, false);
    }
}

/// The inline operand stack. Depth was bounded by the verifier, so no
/// growth and no heap — the paper's "verified loop-free filter" check
/// done once, paid never.
struct FixedStack {
    buf: [i64; FUSED_STACK_DEPTH],
    sp: usize,
}

impl FixedStack {
    #[inline(always)]
    fn push(&mut self, v: i64) {
        self.buf[self.sp] = v;
        self.sp += 1;
    }
    #[inline(always)]
    fn pop(&mut self) -> i64 {
        self.sp -= 1;
        self.buf[self.sp]
    }
    #[inline(always)]
    fn top(&self) -> i64 {
        self.buf[self.sp - 1]
    }
    #[inline(always)]
    fn swap_top(&mut self) {
        self.buf.swap(self.sp - 1, self.sp - 2);
    }
    #[inline(always)]
    fn binop(&mut self, f: impl FnOnce(i64, i64) -> i64) {
        let top = self.pop();
        let next = self.pop();
        self.push(f(next, top));
    }
}

#[inline(always)]
fn load_be(buf: &[u8], off: usize, len: usize) -> u64 {
    let mut v = 0u64;
    for &b in &buf[off..off + len] {
        v = (v << 8) | b as u64;
    }
    v
}

#[inline(always)]
fn load_le(buf: &[u8], off: usize, len: usize) -> u64 {
    let mut v = 0u64;
    for (i, &b) in buf[off..off + len].iter().enumerate() {
        v |= (b as u64) << (8 * i);
    }
    v
}

#[inline(always)]
fn store_be(buf: &mut [u8], off: usize, len: usize, v: u64) {
    for i in 0..len {
        buf[off + i] = (v >> (8 * (len - 1 - i))) as u8;
    }
}

#[inline(always)]
fn store_le(buf: &mut [u8], off: usize, len: usize, v: u64) {
    for (i, slot) in buf[off..off + len].iter_mut().enumerate() {
        *slot = (v >> (8 * i)) as u8;
    }
}

/// Masks `v` to its low `len` *bytes*.
#[inline(always)]
fn mask_bytes(v: u64, len: u32) -> u64 {
    if len >= 8 {
        v
    } else {
        v & ((1u64 << (len * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::interp;
    use crate::op::Op;
    use crate::program::ProgramBuilder;
    use pa_buf::{ByteOrder, Msg};
    use pa_wire::{Field, LayoutBuilder, LayoutMode};

    fn fixture() -> (CompiledLayout, Field, Field, Field) {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let seq = b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        let len_f = b.add_field(Class::Message, "len", 16, None).unwrap();
        let ck = b.add_field(Class::Message, "ck", 16, None).unwrap();
        (b.compile(LayoutMode::Packed).unwrap(), seq, len_f, ck)
    }

    fn frame_msg(layout: &CompiledLayout, payload: &[u8]) -> Msg {
        let hdr = layout.class_len(Class::Protocol)
            + layout.class_len(Class::Message)
            + layout.class_len(Class::Gossip);
        let mut m = Msg::from_payload(payload);
        m.push_front_zeroed(hdr);
        m
    }

    /// Runs a program through the interpreter and the fused engine and
    /// asserts the equivalence the module states: verdict and deciding
    /// instruction always, and the frame bytes of the interpreter run in
    /// the scheduled order — which are those of the program as written
    /// unless a guard that ran ahead of its place refused the frame.
    fn agree(layout: &CompiledLayout, program: &Program, payload: &[u8]) -> Verdict {
        agree_in(layout, program, payload, ByteOrder::Big)
    }

    fn agree_in(
        layout: &CompiledLayout,
        program: &Program,
        payload: &[u8],
        order: ByteOrder,
    ) -> Verdict {
        let by_interp = |program: &Program| {
            let mut m = frame_msg(layout, payload);
            let mut frame = Frame::new(&mut m, layout, order);
            let (v, at) = interp::run_traced(program, program.slots(), &mut frame);
            (v, at.map(|at| at.pc), m)
        };
        let (v1, at, m1) = by_interp(program);
        let fused = FusedProgram::fuse(program, layout, order);
        let mut m2 = frame_msg(layout, payload);
        let (v2, pc) = fused.run_located(program.slots(), &mut m2);
        assert_eq!(v1, v2, "fused verdict mismatch");
        assert_eq!(at, pc, "fused reject pc mismatch");

        let schedule: Vec<u16> = fused.source_pcs().collect();
        let mut b = ProgramBuilder::new();
        for &v in program.slots() {
            b.alloc_slot(v);
        }
        b.extend(schedule.iter().map(|&pc| program.ops()[pc as usize]));
        let (v3, ran_at, m3) = by_interp(&b.build().unwrap());
        assert_eq!(v3, v1, "scheduled verdict mismatch");
        assert_eq!(m2, m3, "fused frame mutation mismatch");
        if ran_at.is_none_or(|i| schedule[i as usize] == i) {
            assert_eq!(m1, m2, "frame differs from the program as written");
        }
        v1
    }

    fn order_of(layout: &CompiledLayout, ops: Vec<Op>) -> (Program, Vec<u16>) {
        let mut b = ProgramBuilder::new();
        b.alloc_slot(7);
        b.extend(ops);
        let p = b.build().unwrap();
        let order = FusedProgram::fuse(&p, layout, ByteOrder::Big)
            .source_pcs()
            .collect();
        (p, order)
    }

    #[test]
    fn a_size_guard_runs_ahead_of_the_digest_it_makes_pointless() {
        // The paper stack's send filter: checksum's two fills, then
        // frag's guard.
        let (layout, _, len_f, ck) = fixture();
        let (p, order) = order_of(
            &layout,
            vec![
                Op::PushBodySize,
                Op::PopField(len_f),
                Op::DigestHeaders(DigestKind::InternetChecksum),
                Op::PopField(ck),
                Op::PushBodySize,
                Op::PushConst(16),
                Op::Gt,
                Op::Abort(32),
            ],
        );
        assert_eq!(order, [4, 5, 6, 7, 0, 1, 2, 3]);
        // Under the bound the fills run as written.
        assert_eq!(agree(&layout, &p, b"sixteen or fewer"), 0);
        // Over it the guard refuses, named by its place in the source,
        // before either fill has touched the frame.
        let fused = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        let mut m = frame_msg(&layout, b"seventeen or more");
        let untouched = m.clone();
        assert_eq!(fused.run_located(p.slots(), &mut m), (32, Some(7)));
        assert_eq!(m, untouched);
        assert_eq!(agree(&layout, &p, b"seventeen or more"), 32);
        // The statistics count instructions, wherever they run.
        assert_eq!(fused.stats().ops, 8);
        assert_eq!(fused.stats().byte_aligned, 2);
    }

    #[test]
    fn nothing_moves_across_a_statement_that_can_decide() {
        let (layout, seq, len_f, _) = fixture();
        let guard = |bound, v| [Op::PushBodySize, Op::PushConst(bound), Op::Gt, Op::Abort(v)];
        let mut ops = vec![Op::PushField(seq), Op::PushConst(0), Op::Ne, Op::Abort(4)];
        ops.extend([Op::PushBodySize, Op::PopField(len_f)]);
        ops.extend(guard(3, 5));
        ops.extend([Op::PushSlot(crate::SlotId(0)), Op::PopField(len_f)]);
        ops.extend(guard(9, 6));
        let (p, order) = order_of(&layout, ops);
        // Both guards overtake the fills and neither the field check;
        // the second stays behind the first.
        assert_eq!(
            order,
            [0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15, 4, 5, 10, 11]
        );
        assert_eq!(agree(&layout, &p, b"ab"), 0);
        assert_eq!(agree(&layout, &p, b"abcdef"), 5);
        // A closing RETURN is a statement that decides.
        let mut ops = vec![Op::PushSize, Op::PopField(len_f)];
        ops.extend(guard(3, 5));
        ops.push(Op::Return(0));
        assert_eq!(order_of(&layout, ops).1, [2, 3, 4, 5, 0, 1, 6]);
    }

    #[test]
    fn only_a_pure_guard_moves() {
        let (layout, _, len_f, ck) = fixture();
        let fill = [Op::PushBodySize, Op::PopField(len_f)];
        let stays = |tail: &[Op]| {
            let ops: Vec<Op> = fill.iter().chain(tail).copied().collect();
            let n = ops.len() as u16;
            let (p, order) = order_of(&layout, ops);
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{:?}", p.ops());
            agree(&layout, &p, b"abcdef")
        };
        // It reads a field — the very one the fill before it writes.
        stays(&[Op::PushField(len_f), Op::PushConst(3), Op::Gt, Op::Abort(5)]);
        // It digests.
        stays(&[Op::Digest(DigestKind::Xor8), Op::Abort(5)]);
        // It writes a field on its way.
        stays(&[Op::PushSize, Op::Dup, Op::PopField(ck), Op::Abort(5)]);
        // It aborts twice: the first abort is not its last instruction.
        stays(&[
            Op::PushConst(0),
            Op::PushConst(1),
            Op::Abort(5),
            Op::Abort(6),
        ]);
        // It ends in `ABORT PASS`: ahead of the fill it would pass a
        // frame the fill had not written yet.
        assert_eq!(stays(&[Op::PushConst(1), Op::Abort(crate::PASS)]), 0);
        // It does not end in an abort at all.
        stays(&[Op::PushSize, Op::Drop]);
    }

    #[test]
    fn backends_agree_on_checksum_fill() {
        let (layout, _, len_f, ck) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushSize,
            Op::PopField(len_f),
            Op::Digest(DigestKind::Crc32),
            Op::PopField(ck),
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        assert_eq!(agree(&layout, &p, b"payload bytes"), 0);
    }

    #[test]
    fn backends_agree_on_abort_paths() {
        let (layout, seq, ..) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushField(seq),
            Op::PushConst(0),
            Op::Ne,
            Op::Abort(4),
            Op::PushBodySize,
            Op::PushConst(3),
            Op::Gt,
            Op::Abort(5),
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        assert_eq!(agree(&layout, &p, b"ab"), 0);
        assert_eq!(agree(&layout, &p, b"abcdef"), 5);
    }

    #[test]
    fn backends_agree_on_stack_ops() {
        let (layout, ..) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushConst(3),
            Op::PushConst(4),
            Op::Dup,
            Op::Mul,  // 3, 16
            Op::Swap, // 16, 3
            Op::Sub,  // 13
            Op::PushConst(13),
            Op::Ne,
            Op::Abort(1),
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        assert_eq!(agree(&layout, &p, b""), 0);
    }

    #[test]
    fn empty_program_passes() {
        let (layout, ..) = fixture();
        let p = ProgramBuilder::new().build().unwrap();
        let f = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        assert_eq!(f.stats().ops, 0);
        let mut m = frame_msg(&layout, b"x");
        assert_eq!(f.run(p.slots(), &mut m), 0);
    }

    #[test]
    fn little_endian_frames_supported() {
        let (layout, seq, len_f, _) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushConst(0x0A0B0C0D),
            Op::PopField(seq),
            Op::PushSize,
            Op::PopField(len_f),
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        let f = FusedProgram::fuse(&p, &layout, ByteOrder::Little);
        let mut m = frame_msg(&layout, b"");
        f.run(p.slots(), &mut m);
        let check = Frame::new(&mut m, &layout, ByteOrder::Little);
        assert_eq!(check.read(seq), 0x0A0B0C0D);
    }

    #[test]
    fn fused_agrees_in_both_byte_orders() {
        let (layout, seq, len_f, ck) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushConst(0x1234_5678),
            Op::PopField(seq),
            Op::PushSize,
            Op::PopField(len_f),
            Op::Digest(DigestKind::Crc32),
            Op::PopField(ck),
            Op::PushField(seq),
            Op::PushConst(0x1234_5678),
            Op::Ne,
            Op::Abort(9),
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        assert_eq!(agree_in(&layout, &p, b"payload", ByteOrder::Big), 0);
        assert_eq!(agree_in(&layout, &p, b"payload", ByteOrder::Little), 0);
    }

    #[test]
    fn fused_agrees_on_unaligned_bit_fields() {
        // Sub-byte fields force the network-bit-order fallback ops.
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let flag = b.add_field(Class::Protocol, "flag", 3, None).unwrap();
        let tag = b.add_field(Class::Protocol, "tag", 13, None).unwrap();
        let layout = b.compile(LayoutMode::Packed).unwrap();
        let mut pb = ProgramBuilder::new();
        pb.extend(vec![
            Op::PushConst(5),
            Op::PopField(flag),
            Op::PushConst(0x1ABC),
            Op::PopField(tag),
            Op::PushField(flag),
            Op::PushField(tag),
            Op::Add,
            Op::PushConst(5 + 0x1ABC),
            Op::Ne,
            Op::Abort(3),
            Op::Return(0),
        ]);
        let p = pb.build().unwrap();
        assert_eq!(agree_in(&layout, &p, b"x", ByteOrder::Big), 0);
        assert_eq!(agree_in(&layout, &p, b"x", ByteOrder::Little), 0);
        let fused = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        let st = fused.stats();
        assert_eq!(st.field_ops, 4);
        assert_eq!(st.bit_fallback, 4, "sub-byte fields must take the bit path");
        assert_eq!(st.byte_aligned, 0);
    }

    #[test]
    fn fused_slot_patch_visible_without_refuse() {
        let (layout, ..) = fixture();
        let mut b = ProgramBuilder::new();
        let s = b.alloc_slot(1);
        b.extend(vec![Op::PushSlot(s), Op::Abort(8), Op::Return(0)]);
        let p = b.build().unwrap();
        let fused = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        let mut m = frame_msg(&layout, b"");
        assert_eq!(fused.run(p.slots(), &mut m), 8);
        let mut m = frame_msg(&layout, b"");
        assert_eq!(fused.run(&[0], &mut m), 0);
    }

    #[test]
    fn fused_stats_reflect_resolution() {
        let (layout, seq, len_f, ck) = fixture();
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushField(seq),
            Op::PushSize,
            Op::PopField(len_f),
            Op::Digest(DigestKind::Xor8),
            Op::PopField(ck),
            Op::Drop,
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        let fused = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        let st = fused.stats();
        assert_eq!(st.ops, 7);
        assert_eq!(st.field_ops, 3);
        assert_eq!(st.byte_aligned, 3, "32/16/16-bit packed fields align");
        assert_eq!(st.bit_fallback, 0);
        assert_eq!(st.max_depth, p.max_stack_depth());
    }

    #[test]
    fn short_frames_refused_by_engine_and_oracle() {
        // A frame shorter than the class headers must yield SHORT_FRAME
        // from the fused engine and the interpreter alike — never an
        // out-of-bounds panic. The
        // program exercises field reads, writes, digests and body-size,
        // i.e. every op class that touches the frame.
        let (layout, seq, len_f, ck) = fixture();
        let hdr = layout.class_len(Class::Protocol)
            + layout.class_len(Class::Message)
            + layout.class_len(Class::Gossip);
        let mut b = ProgramBuilder::new();
        b.extend(vec![
            Op::PushField(seq),
            Op::Drop,
            Op::PushBodySize,
            Op::PopField(len_f),
            Op::Digest(DigestKind::Crc32),
            Op::PopField(ck),
            Op::DigestHeaders(DigestKind::Xor8),
            Op::Drop,
            Op::Return(0),
        ]);
        let p = b.build().unwrap();
        let fused = FusedProgram::fuse(&p, &layout, ByteOrder::Big);
        for short_len in 0..hdr {
            let mut m = Msg::from_wire(vec![0xA5; short_len]);
            assert_eq!(
                fused.run(p.slots(), &mut m),
                crate::SHORT_FRAME,
                "fused, len {short_len}"
            );
            let mut frame = Frame::new(&mut m, &layout, ByteOrder::Big);
            assert!(frame.is_short());
            assert_eq!(
                interp::run(&p, &mut frame),
                crate::SHORT_FRAME,
                "interp, len {short_len}"
            );
        }
        // At exactly the header length the guard opens.
        let mut m = Msg::from_wire(vec![0u8; hdr]);
        assert_eq!(fused.run(p.slots(), &mut m), 0);
    }

    #[test]
    fn fused_handles_the_verifier_depth_bound() {
        // A program at exactly MAX_STACK depth — the deepest anything
        // runnable can be — must fit the inline stack and agree.
        let (layout, ..) = fixture();
        let n = crate::program::MAX_STACK as usize;
        assert!(n <= FUSED_STACK_DEPTH, "const assertion mirrors this");
        let mut ops: Vec<Op> = (0..n as i64).map(Op::PushConst).collect();
        ops.extend(std::iter::repeat_n(Op::Add, n - 1));
        let want: i64 = (0..n as i64).sum();
        ops.extend(vec![
            Op::PushConst(want),
            Op::Ne,
            Op::Abort(7),
            Op::Return(0),
        ]);
        let mut b = ProgramBuilder::new();
        b.extend(ops);
        let p = b.build().unwrap();
        assert_eq!(p.max_stack_depth() as usize, n);
        assert_eq!(agree(&layout, &p, b""), 0);
    }
}
