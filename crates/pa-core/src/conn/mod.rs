//! One connection's Protocol Accelerator — Figure 3 of the paper as an
//! engine.
//!
//! The connection owns the protocol stack (bottom = index 0) and the two
//! per-direction state tables of Table 3. Entry points:
//!
//! - [`Connection::send`] — the application send; takes the fast path
//!   when prediction is enabled and nothing is pending, otherwise
//!   backlogs or runs the layered pre-send traversal,
//! - [`Connection::deliver_frame`] — a frame from the network; cookie
//!   check, delivery filter, prediction comparison, fast delivery or the
//!   layered pre-deliver traversal,
//! - [`Connection::process_pending`] — the deferred post-processing
//!   (§3.1): state updates, next-header prediction, layer-generated
//!   control traffic, and the backlog drain with message packing (§3.4),
//! - [`Connection::tick`] — host-driven time for retransmission timers.
//!
//! Outgoing frames and incoming application messages are pulled with
//! [`Connection::poll_transmit`] / [`Connection::poll_delivery`], so the
//! engine is host-agnostic: the same code runs under the virtual-time
//! simulator, the UDP examples, and the unit tests.
//!
//! Three files: `data` is what runs per message (send, deliver, the
//! layered traversal, the post drain, poll and recycle); `control` is
//! what changes a connection's standing, one function per transition
//! (build, admit, announce, bind / rotate, learn the peer's byte order,
//! hold / release, tick); `introspect` is [`Introspection`] — one record
//! held by value — and the one method per path decision through which
//! the data path writes it.

mod control;
mod data;
mod introspect;

pub use introspect::Introspection;

use crate::config::PaConfig;
use crate::layer::{Effects, Layer};
use crate::plan::StackPlan;
use crate::predict::Prediction;
use crate::stats::ConnStats;
use crate::Nanos;
use pa_buf::{Backlog, ByteOrder, Msg, MsgPool, PoolStats};
use pa_filter::{FuseStats, FusedProgram, Program};
use pa_obs::RejectReason;
use pa_wire::{CompiledLayout, Cookie, EndpointAddr};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identity and environment of a connection.
#[derive(Debug, Clone)]
pub struct ConnectionParams {
    /// Our endpoint address.
    pub local: EndpointAddr,
    /// The peer's endpoint address.
    pub peer: EndpointAddr,
    /// Seed for the connection's cookie (deterministic tests/sims pass
    /// fixed seeds; production hosts pass entropy).
    pub seed: u64,
    /// Byte order this endpoint encodes headers in.
    pub order: ByteOrder,
}

impl ConnectionParams {
    /// Params with native byte order.
    pub fn new(local: EndpointAddr, peer: EndpointAddr, seed: u64) -> ConnectionParams {
        ConnectionParams {
            local,
            peer,
            seed,
            order: ByteOrder::native(),
        }
    }
}

/// Errors from connection construction.
#[derive(Debug)]
pub enum SetupError {
    /// A layer declared an invalid field.
    Layout(pa_wire::LayoutError),
    /// A layer contributed an invalid filter fragment.
    Filter(pa_filter::VerifyError),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Layout(e) => write!(f, "layout error: {e}"),
            SetupError::Filter(e) => write!(f, "filter error: {e}"),
        }
    }
}

impl std::error::Error for SetupError {}

/// What happened to a [`Connection::send`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Sent via the fast path: predicted headers + packet filter, no
    /// layer was entered.
    FastPath,
    /// Sent via the layered pre-send traversal.
    SlowPath,
    /// Parked in the backlog (predicted header disabled, or
    /// post-processing pending). Will leave — possibly packed — on a
    /// later [`Connection::process_pending`].
    Queued,
    /// A layer rejected the message outright.
    Rejected(&'static str),
}

/// What happened to a frame given to [`Connection::deliver_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Fast path: filter + prediction matched; `msgs` application
    /// messages were delivered (more than 1 if the frame was packed).
    Fast {
        /// Application messages unpacked and delivered.
        msgs: usize,
    },
    /// Layered pre-deliver traversal ran; `msgs` messages were delivered
    /// to the application (0 if consumed/buffered by a layer).
    Slow {
        /// Application messages delivered.
        msgs: usize,
    },
    /// Frame rejected before counting a delivery, with the structured
    /// reason (see [`RejectReason`]): demux-level refusals (unknown /
    /// stale / zero cookie, foreign ident) and structural ones
    /// (truncated headers, byte-order forgery, bad packing). The reason
    /// is counted in `ConnStats::rejects`, in the coarse drop counter it
    /// rolls up into and in the xray attribution multiset — three
    /// ledgers that reconcile exactly, even under adversarial input.
    Dropped(RejectReason),
}

/// Per-outcome tally of one [`Connection::send_burst`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SendBurstReport {
    /// Messages sent via the fast path.
    pub fast: usize,
    /// Messages sent via the layered slow path.
    pub slow: usize,
    /// Messages parked in the backlog (will pack/leave on a drain).
    pub queued: usize,
    /// Messages a layer rejected outright.
    pub rejected: usize,
}

impl SendBurstReport {
    /// Messages accepted in some form (everything but rejects).
    pub fn accepted(&self) -> usize {
        self.fast + self.slow + self.queued
    }
}

/// Per-outcome tally of one [`Connection::deliver_burst`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeliverBurstReport {
    /// Frames handed in.
    pub frames: usize,
    /// Frames that took the fast path.
    pub fast_frames: usize,
    /// Frames that took the layered slow path.
    pub slow_frames: usize,
    /// Frames dropped (each also counted in the reject ledgers).
    pub dropped: usize,
    /// Application messages delivered (can exceed frames when a packed
    /// frame unpacks into several).
    pub msgs: usize,
}

/// Why a frame was dropped by the PA itself — the fine-grained
/// hostile-wire taxonomy shared with the demux and the network
/// interfaces (historical name kept; see [`RejectReason`]).
pub type DropReason = RejectReason;

/// Summary of one [`Connection::process_pending`] call, used by the
/// simulator's cost model to charge virtual CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostWorkReport {
    /// Frames whose post-send ran.
    pub post_send_frames: u64,
    /// Frames whose post-deliver ran.
    pub post_deliver_frames: u64,
    /// Post-send phases executed (one per layer per sent frame).
    pub post_send_phases: u64,
    /// Post-deliver phases executed.
    pub post_deliver_phases: u64,
    /// Frames sent as a side effect (backlog drains, control traffic).
    pub frames_sent: u64,
    /// Application messages drained from the backlog.
    pub backlog_drained: u64,
    /// True if the drained messages left in a single packed frame.
    pub packed: bool,
}

impl PostWorkReport {
    /// True if no work was done.
    pub fn is_empty(&self) -> bool {
        *self == PostWorkReport::default()
    }
}

/// A deferred post-deliver work item: the frame image and the layer
/// range that saw it.
struct RecvPost {
    msg: Msg,
    start: usize,
    stop: usize,
}

struct SendWork {
    /// Next layer to run pre-send, or -1 for "hit the wire".
    next: isize,
    msg: Msg,
    unusual: bool,
    /// Who put this message on the send path: `"pa"` for application
    /// sends, a layer name for control frames. Carried to the wire so a
    /// later queued send can be charged to the control frame whose
    /// post-processing is occupying the serialization rule.
    origin: &'static str,
}

struct DeliverWork {
    /// Next layer to run pre-deliver; == layer count means "deliver".
    next: usize,
    start: usize,
    msg: Msg,
    /// The delivery filter passed this frame (never true of a message
    /// a layer emitted upward): told to each pre-deliver phase.
    filter_passed: bool,
}

/// A point-to-point connection with its Protocol Accelerator.
pub struct Connection {
    // ---- data path: read or written per message ---------------------
    config: PaConfig,
    /// What the stack compiled to — layout, verified filters, their
    /// fused forms, the per-layer instruction spans — shared with every
    /// connection whose layers declared the same things. The
    /// per-message path reads the copies below, not this pointer.
    plan: Arc<StackPlan>,
    layers: Vec<Box<dyn Layer>>,
    order: ByteOrder,
    peer_order: ByteOrder,
    /// The plan's send filter fused in our byte order: what runs per
    /// message. A clone of the plan's — the instructions are shared,
    /// the four words that find them are here, so a run costs no load a
    /// private copy would not.
    send_fused: FusedProgram,
    /// The plan's delivery filter fused in the *peer's* byte order;
    /// replaced by the plan's other one on the rare peer-order learn.
    recv_fused: FusedProgram,
    /// This connection's values of the send filter's patchable slots
    /// (§3.3): the plan's program holds the initial ones, post phases
    /// and trace arming rewrite these, and the fused run reads them.
    send_slots: Vec<i64>,
    /// Same for the delivery filter.
    recv_slots: Vec<i64>,
    /// The layout's Protocol and Message header lengths, and the three
    /// always-present headers' together (those two and Gossip).
    proto_len: usize,
    msg_len: usize,
    hdr_len: usize,
    /// The §6 recycling pool: every hot-path buffer — send staging,
    /// post-processing frame images, unpacked delivery pieces — is
    /// borrowed here and returned after its deferred post phase.
    pool: MsgPool,
    send_predict: Prediction,
    recv_predict: Prediction,
    backlog: Backlog,
    pending_send: VecDeque<(Msg, &'static str)>,
    pending_recv: VecDeque<RecvPost>,
    send_work: VecDeque<SendWork>,
    deliver_work: VecDeque<DeliverWork>,
    out: VecDeque<Msg>,
    deliveries: VecDeque<Msg>,
    stats: ConnStats,
    now: Nanos,
    /// The `Effects` every phase call writes into, borrowed in place by
    /// `run_phase` and empty between phases: what a phase emitted is
    /// applied and drained, capacity kept, before the next one runs, so
    /// steady-state layers that emit effects never allocate.
    effects_scratch: Effects,

    // ---- control path: written by a transition (`control.rs`) --------
    peer_order_known: bool,
    /// Times a fused filter was bound to this connection (2 at setup, +1
    /// per peer-order learn): a clone sharing the plan's instructions.
    fuse_count: u64,
    cookie_local: Cookie,
    cookie_peer: Option<Cookie>,
    /// The cookie `cookie_peer` replaced, if any: frames still carrying
    /// it are *stale* (a replay or a splice), counted as
    /// [`RejectReason::StaleCookie`] rather than unknown.
    cookie_peer_prev: Option<Cookie>,
    ident_local: Vec<u8>,
    ident_peer: Vec<u8>,
    ident_remaining: u32,
    params: ConnectionParams,

    // ---- introspection (`introspect.rs`) ------------------------------
    /// Everything that explains the two paths and steers neither, as
    /// one field.
    intro: Introspection,
}

impl Connection {
    /// The compiled header layout.
    pub fn layout(&self) -> &CompiledLayout {
        &self.plan.layout
    }

    /// True if `other` holds the very plan this connection does: the
    /// two stacks declared the same things in the same layout mode.
    #[doc(hidden)]
    pub fn shares_plan_with(&self, other: &Connection) -> bool {
        Arc::ptr_eq(&self.plan, &other.plan)
    }

    /// This connection's configuration.
    pub fn config(&self) -> &PaConfig {
        &self.config
    }

    /// Our outgoing cookie.
    pub fn local_cookie(&self) -> Cookie {
        self.cookie_local
    }

    /// The peer's cookie, once learned from its first identified frame.
    pub fn peer_cookie(&self) -> Option<Cookie> {
        self.cookie_peer
    }

    /// The connection identification we expect on incoming frames.
    pub fn expected_ident(&self) -> &[u8] {
        &self.ident_peer
    }

    /// The connection identification we send (greeting export).
    pub fn local_ident(&self) -> &[u8] {
        &self.ident_local
    }

    /// Per-connection counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Buffer-pool counters: hits (recycled takes), misses (takes that
    /// had to allocate), returns.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Buffers currently sitting idle in the pool's free list.
    pub fn pool_idle(&self) -> usize {
        self.pool.idle()
    }

    /// Buffers the layers hold right now ([`Layer::bufs_held`] summed
    /// over the stack): taken from a pool and neither back in one nor
    /// on their way to the wire or the application.
    pub fn bufs_held_by_layers(&self) -> usize {
        self.layers.iter().map(|l| l.bufs_held()).sum()
    }

    /// The verified `(send, delivery)` filter programs — the stack
    /// plan's, shared with every connection of the stack. Their slots
    /// hold the values the layers allocated them with; what this
    /// connection's filters read now is [`Connection::filter_slots`].
    pub fn filters(&self) -> (&Program, &Program) {
        (&self.plan.send.program, &self.plan.recv.program)
    }

    /// The live `(send, delivery)` values of the filters' patchable
    /// slots (§3.3), indexed by `SlotId`: this connection's own, as its
    /// post phases and trace arming last rewrote them.
    pub fn filter_slots(&self) -> (&[i64], &[i64]) {
        (&self.send_slots, &self.recv_slots)
    }

    /// Fused-filter accounting: how many times a fused filter was bound
    /// to this connection (2 at construction, +1 per peer-order learn —
    /// bindings, not fuse passes: the plan fused both orders when the
    /// stack's first connection was built), plus the send/recv program
    /// resolution stats.
    pub fn fuse_stats(&self) -> (u64, FuseStats, FuseStats) {
        (
            self.fuse_count,
            self.send_fused.stats(),
            self.recv_fused.stats(),
        )
    }

    /// Dissects a wire frame against this connection's layout.
    pub fn dissect_frame(&self, frame: &Msg) -> String {
        crate::dissect::dissect(frame, &self.plan.layout)
    }

    /// Layer names, bottom first (index = stack position; also the
    /// `layer` byte in xray tags, with 255 = the engine).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Enable-underflow violations survived by either prediction.
    pub fn invariant_violations(&self) -> u64 {
        self.send_predict.violations() + self.recv_predict.violations()
    }

    /// True if deferred post-processing is queued in either direction.
    pub fn has_pending(&self) -> bool {
        !self.pending_send.is_empty() || !self.pending_recv.is_empty()
    }

    /// True if send-side post-processing is queued (blocks new sends).
    pub fn has_pending_send(&self) -> bool {
        !self.pending_send.is_empty()
    }

    /// True if delivery-side post-processing is queued.
    pub fn has_pending_recv(&self) -> bool {
        !self.pending_recv.is_empty()
    }

    /// True if a frame is waiting for [`Connection::poll_transmit`].
    pub fn has_transmit(&self) -> bool {
        !self.out.is_empty()
    }

    /// True if a message is waiting for [`Connection::poll_delivery`].
    pub fn has_delivery(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Number of messages waiting in the send backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// The peer's endpoint address (frame routing).
    pub fn peer_addr(&self) -> EndpointAddr {
        self.params.peer
    }

    /// Our endpoint address.
    pub fn local_addr(&self) -> EndpointAddr {
        self.params.local
    }

    /// The send-side prediction (tests and diagnostics).
    pub fn send_prediction(&self) -> &Prediction {
        &self.send_predict
    }

    /// The delivery-side prediction (tests and diagnostics).
    pub fn recv_prediction(&self) -> &Prediction {
        &self.recv_predict
    }

    /// Updates the connection's clock (monotone; used by ticks and
    /// timestamping layers).
    pub fn set_now(&mut self, now: Nanos) {
        self.now = self.now.max(now);
    }
}

impl fmt::Debug for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connection")
            .field("local", &self.params.local)
            .field("peer", &self.params.peer)
            .field("cookie", &self.cookie_local)
            .field("layers", &self.layers.len())
            .field("pending_send", &self.pending_send.len())
            .field("pending_recv", &self.pending_recv.len())
            .field("backlog", &self.backlog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests;
