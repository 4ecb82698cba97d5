//! Message buffers for the Protocol Accelerator.
//!
//! Layered protocol stacks prepend one header per layer to every outgoing
//! message and strip them again on the way in. The dominant buffer
//! operation is therefore *prepending* (and *popping*) small byte runs at
//! the front of a message. [`Msg`] supports this in O(1) by keeping the
//! live bytes inside a larger allocation with *headroom* in front — the
//! same trick as BSD mbufs or Linux `sk_buff`s, and the same layout the
//! original Horus message abstraction used.
//!
//! The crate also provides:
//!
//! - [`cursor::ByteOrder`] — the byte order scalars are encoded in,
//!   used by the wire codec,
//! - [`pool::MsgPool`] — explicit allocate/free recycling of message
//!   buffers (the paper's §6 mitigation for GC pressure: "allocating and
//!   deallocating high-bandwidth objects explicitly"),
//! - [`queue::Backlog`] — the FIFO of messages awaiting post-processing
//!   or blocked on a disabled predicted header (§3.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod msg;
pub mod pool;
pub mod queue;

pub use cursor::ByteOrder;
pub use msg::Msg;
pub use pool::{MsgPool, PoolStats};
pub use queue::Backlog;
