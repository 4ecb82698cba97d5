//! The Protocol Accelerator engine (§4 of the paper, Figure 3).
//!
//! A [`conn::Connection`] owns one PA: the per-direction state of
//! Table 3 (predicted headers, disable counters, the packet filters'
//! patchable slots, backlog, pending post-processing) and the protocol
//! stack itself — a bottom-to-top vector of [`layer::Layer`]
//! implementations in canonical pre/post form (§3.1). What the stack
//! compiles to — the header layout and the two verified, fused packet
//! filters — is built once per distinct stack shape and shared by every
//! connection over it.
//!
//! The send path (Figure 3's `send()`):
//!
//! 1. if the predicted send header is disabled or post-processing from a
//!    previous message is still pending → **backlog** (later drained
//!    with message packing, §3.4);
//! 2. otherwise push the packing header and the *predicted* protocol +
//!    gossip headers, run the **send packet filter** (fills the
//!    message-specific fields), push the cookie preamble, and hand the
//!    frame to the network — the protocol stack was never entered;
//! 3. post-processing (state updates, next-header prediction) runs
//!    later, when the host calls [`conn::Connection::process_pending`].
//!
//! The delivery path (`from_network()`): preamble → cookie or conn-ident
//! lookup (done by [`router::Router`] / [`shard::ShardedEndpoint`]) → run
//! the delivery filter → compare the protocol-specific header against
//! the prediction → on match, deliver (unpacking if packed) without
//! entering the stack.
//!
//! Every bypass has a fall-back: the full layered traversal
//! (pre-send / pre-deliver) runs whenever prediction is disabled, the
//! filter rejects, the header mismatches, or the configuration turns a
//! PA mechanism off — which is exactly how the no-PA baseline for the
//! paper's headline comparison is produced ([`config::PaConfig`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod dissect;
pub mod handshake;
pub mod layer;
pub mod packing;
mod plan;
pub mod predict;
pub mod router;
pub mod shard;
pub mod stats;
mod table;

pub use config::PaConfig;
pub use conn::{
    Connection, ConnectionParams, DeliverBurstReport, DeliverOutcome, DropReason, PostWorkReport,
    SendBurstReport, SendOutcome, SetupError,
};
pub use dissect::dissect;
pub use handshake::{Greeting, GreetingError};
pub use layer::{Declare, DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
pub use packing::PackInfo;
pub use predict::{DisableHold, Prediction};

// Layer authors need the disable-reason vocabulary to call
// [`LayerCtx::disable_send`] and friends; re-export it so depending on
// `pa-obs` directly stays optional.
pub use pa_obs::DisableReason;
pub use router::Router;
pub use shard::{ShardDelivery, ShardFrontStats, ShardHandle, ShardedEndpoint};
pub use stats::ConnStats;
pub use table::{AdmitError, BurstDemux, LifecycleStats, StaleHandle};

/// Virtual or real time in nanoseconds, as supplied by the host.
pub type Nanos = u64;
