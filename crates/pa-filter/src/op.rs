//! Packet-filter instructions (Table 2 of the paper, plus the small
//! stack-manipulation extras the paper calls "customized instructions").

use crate::digest::DigestKind;
use pa_wire::Field;
use std::fmt;

/// Index of a patchable constant slot within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u16);

/// One packet-filter instruction.
///
/// The operand stack holds `i64` values. Header fields are unsigned
/// (≤ 64 bits) and are pushed/popped with wrapping casts; arithmetic is
/// wrapping so a filter can never trap at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push an immediate constant.
    PushConst(i64),
    /// Push the current value of a patchable slot (rewritten by
    /// post-processing as protocol state changes).
    PushSlot(SlotId),
    /// Push a header field.
    PushField(Field),
    /// Push the size of the message frame (headers + packing + payload).
    PushSize,
    /// Push the size of the body (packing header + payload), i.e. the
    /// region a checksum covers.
    PushBodySize,
    /// Push a digest of the body region.
    Digest(DigestKind),
    /// Push a digest covering the protocol header, gossip header and
    /// body — everything except the message-specific header the digest
    /// itself lives in. Protects control fields (sequence numbers,
    /// piggybacked acks) from corruption, not just the payload.
    DigestHeaders(DigestKind),
    /// Pop the top of stack into a header field (the op that makes the
    /// *send* filter able to update headers).
    PopField(Field),
    /// Wrapping addition of the top two entries.
    Add,
    /// Wrapping subtraction (`next − top`).
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Compare top two for equality (`next == top`), push 1/0.
    Eq,
    /// Push 1 if `next != top`.
    Ne,
    /// Push 1 if `next < top`.
    Lt,
    /// Push 1 if `next <= top`.
    Le,
    /// Push 1 if `next > top`.
    Gt,
    /// Push 1 if `next >= top`.
    Ge,
    /// Logical negation of the top entry (0 → 1, non-zero → 0).
    Not,
    /// Duplicate the top entry.
    Dup,
    /// Swap the top two entries.
    Swap,
    /// Discard the top entry.
    Drop,
    /// Unconditionally return the given verdict.
    Return(i64),
    /// Pop the top entry; if it is non-zero, return the given verdict.
    Abort(i64),
}

impl Op {
    /// `(pops, pushes)` this instruction performs on the operand stack.
    pub fn stack_effect(&self) -> (u32, u32) {
        use Op::*;
        match self {
            PushConst(_) | PushSlot(_) | PushField(_) | PushSize | PushBodySize | Digest(_)
            | DigestHeaders(_) => (0, 1),
            PopField(_) | Drop | Abort(_) => (1, 0),
            Add | Sub | Mul | And | Or | Xor | Eq | Ne | Lt | Le | Gt | Ge => (2, 1),
            Not => (1, 1),
            Dup => (1, 2),
            Swap => (2, 2),
            Return(_) => (0, 0),
        }
    }

    /// True if control never continues past this instruction.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(self, Op::Return(_))
    }

    /// Static mnemonic (no operands) — cheap enough to embed in trace
    /// events, which must stay `Copy` and allocation-free.
    pub fn name(&self) -> &'static str {
        use Op::*;
        match self {
            PushConst(_) => "PUSH_CONSTANT",
            PushSlot(_) => "PUSH_SLOT",
            PushField(_) => "PUSH_FIELD",
            PushSize => "PUSH_SIZE",
            PushBodySize => "PUSH_BODY_SIZE",
            Digest(_) => "DIGEST",
            DigestHeaders(_) => "DIGEST_HDRS",
            PopField(_) => "POP_FIELD",
            Add => "ADD",
            Sub => "SUB",
            Mul => "MUL",
            And => "AND",
            Or => "OR",
            Xor => "XOR",
            Eq => "EQ",
            Ne => "NE",
            Lt => "LT",
            Le => "LE",
            Gt => "GT",
            Ge => "GE",
            Not => "NOT",
            Dup => "DUP",
            Swap => "SWAP",
            Drop => "DROP",
            Return(_) => "RETURN",
            Abort(_) => "ABORT",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        match self {
            PushConst(v) => write!(f, "PUSH_CONSTANT {v}"),
            PushSlot(s) => write!(f, "PUSH_SLOT {}", s.0),
            PushField(fld) => write!(f, "PUSH_FIELD {}[{}]", fld.class, fld.index_in_class()),
            PushSize => write!(f, "PUSH_SIZE"),
            PushBodySize => write!(f, "PUSH_BODY_SIZE"),
            Digest(k) => write!(f, "DIGEST {k}"),
            DigestHeaders(k) => write!(f, "DIGEST_HDRS {k}"),
            PopField(fld) => write!(f, "POP_FIELD {}[{}]", fld.class, fld.index_in_class()),
            Add => write!(f, "ADD"),
            Sub => write!(f, "SUB"),
            Mul => write!(f, "MUL"),
            And => write!(f, "AND"),
            Or => write!(f, "OR"),
            Xor => write!(f, "XOR"),
            Eq => write!(f, "EQ"),
            Ne => write!(f, "NE"),
            Lt => write!(f, "LT"),
            Le => write!(f, "LE"),
            Gt => write!(f, "GT"),
            Ge => write!(f, "GE"),
            Not => write!(f, "NOT"),
            Dup => write!(f, "DUP"),
            Swap => write!(f, "SWAP"),
            Drop => write!(f, "DROP"),
            Return(v) => write!(f, "RETURN {v}"),
            Abort(v) => write!(f, "ABORT {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_wire::Class;

    #[test]
    fn stack_effects_are_consistent() {
        // Every op's effect must not push more than 2 or pop more than 2.
        let f = Field::new(Class::Message, 0);
        let ops = [
            Op::PushConst(1),
            Op::PushSlot(SlotId(0)),
            Op::PushField(f),
            Op::PushSize,
            Op::PushBodySize,
            Op::Digest(DigestKind::InternetChecksum),
            Op::PopField(f),
            Op::Add,
            Op::Eq,
            Op::Not,
            Op::Dup,
            Op::Swap,
            Op::Drop,
            Op::Return(0),
            Op::Abort(1),
        ];
        for op in ops {
            let (pops, pushes) = op.stack_effect();
            assert!(pops <= 2 && pushes <= 2, "{op}");
        }
    }

    #[test]
    fn only_return_terminates() {
        assert!(Op::Return(0).is_terminator());
        assert!(!Op::Abort(1).is_terminator(), "abort is conditional");
        assert!(!Op::Add.is_terminator());
    }

    #[test]
    fn display_matches_table_2_names() {
        assert_eq!(Op::PushConst(5).to_string(), "PUSH_CONSTANT 5");
        assert_eq!(Op::PushSize.to_string(), "PUSH_SIZE");
        assert_eq!(Op::Return(0).to_string(), "RETURN 0");
        assert_eq!(Op::Abort(3).to_string(), "ABORT 3");
    }
}
