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

// One `unsafe` block in the crate: the cache hint in [`prefetch`].
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod dissect;
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
    Connection, ConnectionParams, DeliverOutcome, DropReason, PostWorkReport, SendOutcome,
};
pub use dissect::dissect;
pub use layer::{Declare, DeliverAction, Handles, Layer, LayerCtx, LayerShape, SendAction};
pub use packing::PackInfo;
pub use predict::Prediction;

// Layer authors need the disable-reason vocabulary to call
// [`LayerCtx::disable_send`] and friends; re-export it so depending on
// `pa-obs` directly stays optional.
pub use pa_obs::DisableReason;
pub use router::Router;
pub use shard::{ShardDelivery, ShardHandle, ShardedEndpoint};
pub use stats::ConnStats;
pub use table::{AdmitError, BurstDemux, LifecycleStats, StaleHandle};

/// Virtual or real time in nanoseconds, as supplied by the host.
pub type Nanos = u64;

/// Asks the CPU to start pulling the cache line holding `p` toward L1 —
/// a hint, with no effect on what the program computes. It reads
/// nothing and cannot fault, whatever `p` is: dangling, null or
/// unallocated. The burst demux issues it a stage ahead of the read
/// (DESIGN.md "A burst stages its demux"). Nothing off x86_64, where
/// there is no stable intrinsic for it.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 performs no architectural access: it cannot
    // fault and changes no memory, for any address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch`] of every cache line `value` occupies: none for a
/// zero-sized value, whose address may be no memory at all.
#[inline(always)]
pub(crate) fn prefetch_all<T: ?Sized>(value: &T) {
    let p: *const u8 = (value as *const T).cast();
    let end = p as usize + std::mem::size_of_val(value);
    let mut line = p.wrapping_sub(p as usize & 63);
    while (line as usize) < end {
        prefetch(line);
        line = line.wrapping_add(64);
    }
}
