//! Filter programs: construction, patchable slots, and static
//! verification.
//!
//! "There are no loop or function constructs, so a packet filter program
//! can be checked in advance, and the necessary size for the stack can
//! be calculated (typically just a few entries)." (§3.3)

use crate::op::{Op, SlotId};
use pa_wire::Class;
use std::fmt;

/// Hard cap on operand-stack depth; a verified program exceeding this is
/// rejected (real programs need "just a few entries").
pub const MAX_STACK: u32 = 32;

/// Errors detected by static verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An instruction would pop from an empty stack.
    StackUnderflow {
        /// Program counter of the offending instruction.
        pc: usize,
    },
    /// The program needs more than [`MAX_STACK`] stack entries.
    StackTooDeep {
        /// Depth that would be reached.
        depth: u32,
    },
    /// A field instruction references the conn-id class, which is not
    /// part of the filter frame.
    ConnIdField {
        /// Program counter of the offending instruction.
        pc: usize,
    },
    /// A `PushSlot` references a slot that was never allocated.
    BadSlot {
        /// Program counter of the offending instruction.
        pc: usize,
        /// The out-of-range slot.
        slot: u16,
    },
    /// Instructions follow an unconditional `RETURN` (dead code — almost
    /// certainly a mis-assembled layer fragment).
    DeadCode {
        /// Program counter of the unreachable instruction.
        pc: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::StackUnderflow { pc } => write!(f, "stack underflow at pc {pc}"),
            VerifyError::StackTooDeep { depth } => {
                write!(f, "stack depth {depth} exceeds maximum {MAX_STACK}")
            }
            VerifyError::ConnIdField { pc } => {
                write!(f, "conn-id field access at pc {pc} (not part of the frame)")
            }
            VerifyError::BadSlot { pc, slot } => {
                write!(f, "unallocated slot {slot} referenced at pc {pc}")
            }
            VerifyError::DeadCode { pc } => write!(f, "unreachable instruction at pc {pc}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A verified packet-filter program with its patchable slot values.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    slots: Vec<i64>,
    max_depth: u32,
}

impl Program {
    /// The instruction sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The exact operand-stack requirement computed by the verifier.
    pub(crate) fn max_stack_depth(&self) -> u32 {
        self.max_depth
    }

    /// All slot values (for the interpreter).
    pub fn slots(&self) -> &[i64] {
        &self.slots
    }

    /// Disassembles to one instruction per line.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (pc, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{pc:4}: {op}\n"));
        }
        out
    }
}

/// Accumulates instruction fragments from each layer, then verifies.
///
/// "The packet filters are constructed by the layers themselves, at
/// run-time. Each layer adds instructions to both packet filters for
/// their particular message-specific fields." (§3.3)
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    slots: Vec<i64>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `ops` instructions, so a
    /// stack's worth of fragments appends without regrowing.
    pub fn with_capacity(ops: usize) -> Self {
        ProgramBuilder {
            ops: Vec::with_capacity(ops),
            slots: Vec::new(),
        }
    }

    /// Appends a sequence of instructions (one layer's fragment).
    pub fn extend(&mut self, ops: impl IntoIterator<Item = Op>) -> &mut Self {
        self.ops.extend(ops);
        self
    }

    /// Allocates a patchable slot initialized to `value` and returns its
    /// id for later `PushSlot` references.
    pub fn alloc_slot(&mut self, value: i64) -> SlotId {
        let id = SlotId(self.slots.len() as u16);
        self.slots.push(value);
        id
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no instruction has been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Verifies and seals the program.
    ///
    /// Verification walks the linear instruction sequence once, tracking
    /// stack depth (there are no branches, so depth is exact, not an
    /// approximation), and checks slot references and field classes.
    pub fn build(self) -> Result<Program, VerifyError> {
        let mut depth: u32 = 0;
        let mut max_depth: u32 = 0;
        for (pc, op) in self.ops.iter().enumerate() {
            match op {
                Op::PushField(f) | Op::PopField(f) if f.class == Class::ConnId => {
                    return Err(VerifyError::ConnIdField { pc });
                }
                Op::PushSlot(s) if s.0 as usize >= self.slots.len() => {
                    return Err(VerifyError::BadSlot { pc, slot: s.0 });
                }
                _ => {}
            }
            let (pops, pushes) = op.stack_effect();
            if depth < pops {
                return Err(VerifyError::StackUnderflow { pc });
            }
            depth = depth - pops + pushes;
            max_depth = max_depth.max(depth);
            if max_depth > MAX_STACK {
                return Err(VerifyError::StackTooDeep { depth: max_depth });
            }
            if op.is_terminator() && pc + 1 < self.ops.len() {
                return Err(VerifyError::DeadCode { pc: pc + 1 });
            }
        }
        Ok(Program {
            ops: self.ops,
            slots: self.slots,
            max_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestKind;
    use pa_wire::Field;

    fn msg_field(i: usize) -> Field {
        Field::new(Class::Message, i)
    }

    #[test]
    fn empty_program_verifies() {
        let p = ProgramBuilder::new().build().unwrap();
        assert_eq!(p.max_stack_depth(), 0);
        assert_eq!(p.ops().len(), 0);
    }

    #[test]
    fn depth_is_exact() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushConst(1)])
            .extend([Op::PushConst(2)])
            .extend([Op::PushConst(3)])
            .extend([Op::Add])
            .extend([Op::Add])
            .extend([Op::Drop]);
        let p = b.build().unwrap();
        assert_eq!(p.max_stack_depth(), 3);
    }

    #[test]
    fn underflow_detected_with_pc() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushConst(1)]).extend([Op::Add]);
        assert_eq!(b.build(), Err(VerifyError::StackUnderflow { pc: 1 }));
    }

    #[test]
    fn conn_id_fields_rejected() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushField(Field::new(Class::ConnId, 0))]);
        assert_eq!(b.build(), Err(VerifyError::ConnIdField { pc: 0 }));
        let mut b2 = ProgramBuilder::new();
        b2.extend([Op::PushConst(0)])
            .extend([Op::PopField(Field::new(Class::ConnId, 1))]);
        assert_eq!(b2.build(), Err(VerifyError::ConnIdField { pc: 1 }));
    }

    #[test]
    fn unallocated_slot_rejected() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushSlot(SlotId(0))]);
        assert_eq!(b.build(), Err(VerifyError::BadSlot { pc: 0, slot: 0 }));
    }

    #[test]
    fn allocated_slot_accepted() {
        let mut b = ProgramBuilder::new();
        let s = b.alloc_slot(42);
        b.extend([Op::PushSlot(s)]).extend([Op::Drop]);
        let p = b.build().unwrap();
        assert_eq!(p.slots(), &[42]);
    }

    #[test]
    fn dead_code_after_return_rejected() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::Return(0)]).extend([Op::PushConst(1)]);
        assert_eq!(b.build(), Err(VerifyError::DeadCode { pc: 1 }));
    }

    #[test]
    fn abort_does_not_create_dead_code() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushConst(1)])
            .extend([Op::Abort(9)])
            .extend([Op::Return(0)]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn stack_cap_enforced() {
        let mut b = ProgramBuilder::new();
        for _ in 0..(MAX_STACK + 1) {
            b.extend([Op::PushConst(0)]);
        }
        assert!(matches!(b.build(), Err(VerifyError::StackTooDeep { .. })));
    }

    #[test]
    fn typical_checksum_program_verifies_shallow() {
        // The canonical send-side fragment: fill in length + checksum.
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushSize])
            .extend([Op::PopField(msg_field(0))])
            .extend([Op::Digest(DigestKind::InternetChecksum)])
            .extend([Op::PopField(msg_field(1))])
            .extend([Op::Return(0)]);
        let p = b.build().unwrap();
        assert_eq!(p.max_stack_depth(), 1, "typically just a few entries");
    }

    #[test]
    fn disassembly_lists_all_ops() {
        let mut b = ProgramBuilder::new();
        b.extend([Op::PushSize]).extend([Op::Return(0)]);
        let p = b.build().unwrap();
        let d = p.disassemble();
        assert!(d.contains("0: PUSH_SIZE"));
        assert!(d.contains("1: RETURN 0"));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(VerifyError::StackUnderflow { pc: 3 }
            .to_string()
            .contains("pc 3"));
        assert!(VerifyError::BadSlot { pc: 1, slot: 9 }
            .to_string()
            .contains("slot 9"));
    }
}
