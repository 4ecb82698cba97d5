//! Packet filters for the Protocol Accelerator (§3.3, Table 2).
//!
//! Not all header information can be predicted — checksums, lengths,
//! timestamps depend on the message itself. The PA therefore runs a
//! small *packet filter* program in **both** the send and the delivery
//! path. The send filter is unusual in that it can *update* headers
//! (filling in the message-specific and gossip fields); the delivery
//! filter checks the message-specific information for correctness rather
//! than demultiplexing (demux is the cookie's job).
//!
//! The filter is a stack machine in the Mogul/Rashid/Accetta tradition:
//!
//! - no loops and no function calls, so a program can be **verified in
//!   advance** and its exact stack requirement computed
//!   ([`Program::verify`]),
//! - layers contribute instruction fragments at stack-initialization
//!   time ([`ProgramBuilder`]); fragments concatenate in layer order,
//! - programs may contain *patchable slots* — the paper's "part of the
//!   packet filter program may be rewritten when the protocol state is
//!   updated in the post-processing phase" (both engines read slots
//!   from an array the caller passes, so connections that share one
//!   verified program each patch their own copy; [`Program::slots`]
//!   holds the initial values),
//! - one engine, one oracle: the PA runs the *fused* program
//!   ([`compiled::FusedProgram`]: field offsets and byte order baked
//!   in, inline stack — our stand-in for the Exokernel-style
//!   compilation to machine code the paper says it intends to adopt);
//!   the plain interpreter ([`run`], [`run_traced`]) is what the
//!   differential tests compare it against — verdict, frame bytes and
//!   the deciding instruction of a refused frame, which the fused run
//!   names itself.
//!
//! Return-value convention: **0 means pass** (take the fast path);
//! any non-zero value is a failure code that sends the message down the
//! ordinary pre-processing path. `ABORT n` encodes "return `n` if the
//! top of stack is non-zero", so checks read naturally:
//! compute-compare-abort. (The paper's pseudocode uses the opposite
//! truthiness; the semantics — fast path iff the filter is happy — are
//! identical.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod digest;
pub mod frame;
pub mod interp;
pub mod op;
pub mod program;

pub use compiled::{FuseStats, FusedProgram};
pub use digest::DigestKind;
pub use frame::Frame;
pub use interp::{run, run_traced};
pub use op::{Op, SlotId};
pub use program::{Program, ProgramBuilder, VerifyError};

/// Verdict returned by a filter run: zero passes.
pub type Verdict = i64;

/// The verdict meaning "take the fast path".
pub const PASS: Verdict = 0;

/// The verdict the engine and the interpreter both return — without executing a single
/// instruction — when the message is shorter than the class headers the
/// program's field references reach into. Programs built from `Op`s can
/// only `Return`/`Abort` values they contain as literals, and those are
/// author-chosen small codes, so this sentinel cannot collide with a
/// legitimate program verdict in practice; callers route it to the slow
/// path like any other non-PASS code, where the engine's own short-frame
/// reject attributes the drop. The guard makes a filter run
/// *total* over arbitrary wire bytes: no frame, however truncated, can
/// make a filter run panic.
pub const SHORT_FRAME: Verdict = i64::MIN;
