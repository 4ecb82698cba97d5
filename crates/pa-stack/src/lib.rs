//! Horus-style protocol layers in canonical pre/post form.
//!
//! The paper evaluates the PA under "a protocol stack that implements a
//! basic sliding window protocol, with a window size of 16 entries",
//! four layers deep. This crate provides those layers and a few more:
//!
//! - [`bottom::BottomLayer`] — connection identification (epoch,
//!   architecture tag) and version checking; the "address" part of the
//!   identification is contributed by the engine itself,
//! - [`checksum::ChecksumLayer`] — message length + checksum in the
//!   message-specific class, implemented almost entirely as packet
//!   filter fragments (§3.3's canonical example),
//! - [`window::WindowLayer`] — sliding window with retransmission,
//!   cumulative acks, piggybacked ack *gossip*, reordering, and the
//!   disable-counter discipline of §3.2,
//! - [`frag::FragLayer`] — fragmentation/reassembly as described in §6:
//!   the send filter rejects oversized messages (forcing the slow path,
//!   where the layer splits them) and a protocol-specific fragment bit
//!   keeps the receiving PA from predicting fragment headers,
//! - [`heartbeat::HeartbeatLayer`] — liveness probes and peer-failure
//!   detection (the group-membership flavored extra),
//! - [`meter::MeterLayer`] — a transparent traffic meter.
//!
//! [`stacks`] assembles the paper's four-layer stack and variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom;
pub mod checksum;
pub mod frag;
pub mod heartbeat;
pub mod meter;
pub mod stacks;
#[cfg(test)]
mod testutil;
pub mod timestamp;
pub mod window;

pub use bottom::BottomLayer;
pub use checksum::ChecksumLayer;
pub use frag::FragLayer;
pub use heartbeat::HeartbeatLayer;
pub use meter::MeterLayer;
pub use stacks::{paper_stack, StackSpec};
pub use timestamp::TimestampLayer;
pub use window::WindowLayer;
