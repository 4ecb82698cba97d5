//! Group communication over Protocol Accelerator connections.
//!
//! The paper's first footnote: "In this paper we will only deal with
//! point-to-point communication for clarity, but the techniques extend
//! to multicast protocols." This crate is that extension, in the Horus
//! spirit the PA was built for:
//!
//! - a [`view::View`] names the group's membership (with explicit view
//!   installation, the kernel of virtual synchrony),
//! - a [`member::Member`] keeps one accelerated [`pa_core::Connection`]
//!   per peer — every frame of every multicast rides the same fast
//!   paths, cookies and packing as point-to-point traffic,
//! - **FIFO multicast** ([`member::Member::mcast_fifo`]) fans a message
//!   out to every peer; per-sender order comes from the sliding-window
//!   stack under each connection,
//! - **total-order multicast** ([`member::Member::mcast_total`]) routes
//!   through the view's *sequencer* (the lowest-ranked member), which
//!   stamps a global sequence and re-multicasts — the classic
//!   fixed-sequencer protocol, delivered in stamp order at every
//!   member including the origin.
//!
//! Messages between members travel inside a tiny [`envelope`]; the PA
//! underneath stays completely unaware that a group exists — which is
//! the point: layering *above* the accelerator costs nothing extra.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod member;
pub mod view;

pub use envelope::Kind;
pub use member::{GroupConfig, Member};
pub use view::View;
