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

use crate::config::PaConfig;
use crate::layer::{DeliverAction, Effects, InitCtx, Layer, LayerCtx, SendAction};
use crate::packing::{self, PackInfo};
use crate::plan::{self, StackPlan};
use crate::predict::Prediction;
use crate::stats::ConnStats;
use crate::Nanos;
use pa_buf::{Backlog, ByteOrder, Msg, MsgPool, PoolStats};
use pa_filter::{FuseStats, FusedProgram, Op, Program, SlotId};
use pa_obs::rng::SplitMix64;
use pa_obs::{
    journey_id, AttrCause, Attribution, DropCause, FieldRef, Finding, HoldRow, Invariant,
    LeakCause, LeakLedger, MissRow, MissTable, Phase, PhaseMeter, PhaseRow, ProbeSink,
    RejectBucket, RejectReason, SlowCause, TraceEvent, XrayOp, XrayReport, XrayTag, XrayTotals,
};
use pa_wire::{Class, CompiledLayout, Cookie, EndpointAddr, Field, Preamble};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Delivery-filter verdict for a frame that should carry a trace
/// context but doesn't (journey id 0): a conforming tracing peer always
/// fills the field, so such a frame is diverted to the slow path.
const TRACE_MISSING: i64 = 77;

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
    /// stale / zero cookie, foreign ident) and structural refusals
    /// (truncated headers, byte-order forgery, bad packing). The same
    /// reason is simultaneously counted in `ConnStats::rejects`, rolled
    /// up into the matching coarse drop counter, and mirrored into the
    /// xray [`Attribution`] multiset — the three ledgers reconcile
    /// exactly, even under adversarial wire input.
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

/// The coarse [`DropCause`] a structured rejection renders as in trace
/// events (the event stays within its fixed byte budget; the full
/// reason lives in the ledger and the xray tag).
fn reject_drop_cause(reason: RejectReason) -> DropCause {
    match reason {
        RejectReason::ForeignIdent => DropCause::ForeignIdent,
        r if r.bucket() == RejectBucket::Cookie => DropCause::UnknownCookie,
        _ => DropCause::Malformed,
    }
}

/// Maps a packing decode/unpack error to its wire-taxonomy reason.
fn pack_reject_reason(e: &packing::PackError) -> RejectReason {
    match e {
        packing::PackError::BadHeader => RejectReason::MalformedPackInfo,
        packing::PackError::LengthMismatch { .. } => RejectReason::LengthMismatch,
    }
}

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
    config: PaConfig,
    /// What the stack compiled to — layout, verified filters, their
    /// fused forms, the per-layer instruction spans — shared with every
    /// connection whose layers declared the same things. Immutable; the
    /// per-message path reads the copies below, not through this
    /// pointer.
    plan: Arc<StackPlan>,
    layers: Vec<Box<dyn Layer>>,
    order: ByteOrder,
    peer_order: ByteOrder,
    peer_order_known: bool,
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
    /// The layout's Protocol, Message and Gossip header lengths.
    proto_len: usize,
    msg_len: usize,
    gossip_len: usize,
    /// Times a fused filter was bound to this connection (2 at setup, +1
    /// per peer-order learn). Each used to be a fuse pass; the plan
    /// fused both orders when it was built, so a binding is a clone
    /// that shares the instructions.
    fuse_count: u64,
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
    cookie_local: Cookie,
    cookie_peer: Option<Cookie>,
    /// The cookie `cookie_peer` replaced, if any: frames still carrying
    /// it are *stale* (a replay or a splice), counted as
    /// [`RejectReason::StaleCookie`] rather than unknown.
    cookie_peer_prev: Option<Cookie>,
    ident_local: Vec<u8>,
    ident_peer: Vec<u8>,
    ident_remaining: u32,
    stats: ConnStats,
    params: ConnectionParams,
    now: Nanos,
    /// Where trace events go. Defaults to [`ProbeSink::Noop`]: one
    /// predictable branch per instrumentation point, nothing else.
    probe: ProbeSink,
    /// Name of the last layer whose effects disabled the send
    /// prediction — attributed on `Queued` trace events.
    last_disable_layer: &'static str,
    /// The `Effects` every phase call writes into, borrowed in place by
    /// `run_phase`. It is empty between phases: a phase that emitted
    /// something has it applied (and drained, capacity kept) before the
    /// next phase runs, so steady-state layers that emit effects (slot
    /// patches, control messages) never allocate.
    effects_scratch: Effects,
    /// The attributed slow-path multiset: every `slow_sends`,
    /// `queued_sends`, and `slow_deliveries` increment is mirrored by
    /// exactly one `(op, layer, cause)` bump here. Always on — the
    /// bumps only run on paths that already left the fast path.
    attribution: Attribution,
    /// Per-`(layer, field)` prediction-miss forensics.
    miss_table: MissTable,
    /// Per-layer pre/post/tick phase meters, parallel to `layers`.
    phase_meters: Vec<PhaseMeter>,
    /// Measure wall-clock time per phase call (opt-in; off by default
    /// so the meters cost two array bumps per phase).
    cycle_metering: bool,
    /// When set, every metered phase call is running on a later
    /// operation's critical path (a synchronous drain, eager post
    /// processing, a receive re-fuse) and is charged as *leaked*
    /// instead of masked. Scopes are set/restored around the guilty
    /// call sites; they never nest across operations.
    leak_scope: Option<LeakCause>,
    /// The `(layer, phase, cause)` leak multiset mirroring the leaked
    /// sub-counts of `phase_meters`, plus engine leaks (re-fuse) the
    /// per-layer meters cannot hold.
    leaks: LeakLedger,
    /// Why the most recent send operation went the way it did
    /// (`XrayTag::none()` = fast path). Hosts read this to tag
    /// annotated pcap captures.
    last_send_explain: XrayTag,
    /// Why the most recent accepted delivery went slow (`none` = fast).
    last_deliver_explain: XrayTag,
    /// The in-band trace context fields (`trace_journey` /
    /// `trace_hop`), declared in the Message Specific class when
    /// `config.trace_ctx` is on. `None` otherwise — absent fields cost
    /// nothing on the wire or in the layout.
    trace_journey: Option<Field>,
    trace_hop: Option<Field>,
    /// The send-filter slots the trace fields are filled from (§3.3 —
    /// tracing rides the PA's own header machinery).
    trace_j_slot: Option<SlotId>,
    trace_h_slot: Option<SlotId>,
    /// Origin tag for minted journey ids: the low 32 bits of our
    /// cookie, unique per connection on a host.
    trace_origin: u32,
    /// Sequence number of the next minted journey (starts at 1; a
    /// journey id of 0 means "absent").
    journey_seq: u64,
    /// Host-set continuation for the next outgoing frame: relay hosts
    /// propagate an incoming journey (same id, hop+1) instead of
    /// minting a fresh one.
    next_trace: Option<(u64, u8)>,
    /// `(journey, hop)` stamped into the most recently wired frame —
    /// the host reads this to tag pcap captures.
    last_sent_trace: Option<(u64, u8)>,
    /// `(journey, hop)` read from the most recently accepted frame —
    /// relays feed this (hop+1) into [`Connection::set_next_trace`].
    last_recv_trace: Option<(u64, u8)>,
}

impl Connection {
    /// Builds a connection: runs every layer's `init` (field and filter
    /// declarations), takes the stack's plan — the compiled header
    /// layout and both filters, shared with every live connection whose
    /// layers declared the same, compiled here only if there is none —
    /// sizes the predictions, and constructs the connection
    /// identification.
    pub fn new(
        mut layers: Vec<Box<dyn Layer>>,
        config: PaConfig,
        params: ConnectionParams,
    ) -> Result<Connection, SetupError> {
        let (plan, [f_src, f_dst, f_fp], trace) = plan::with_transcript(|t| {
            // The engine's own conn-ident contribution: the stack
            // fingerprint (detects mismatched stacks at setup) and the
            // endpoint addresses — realistic large identification, like
            // the ~76 bytes Horus carries (§2.2).
            t.layout.begin_layer("pa");
            let mut ident_field = |name, bits| {
                t.layout
                    .add_field(Class::ConnId, name, bits, None)
                    .map_err(SetupError::Layout)
            };
            let ident_fields = [
                ident_field("src_endpoint", (EndpointAddr::WIRE_LEN * 8) as u32)?,
                ident_field("dst_endpoint", (EndpointAddr::WIRE_LEN * 8) as u32)?,
                ident_field("stack_fingerprint", 64)?,
            ];

            // Record each layer's `[start, end)` span in both filter
            // programs as it contributes fragments, so a later
            // rejection's deciding instruction can be attributed to its
            // layer.
            for layer in layers.iter_mut() {
                t.layout.begin_layer(layer.name());
                let (s0, r0) = (t.send.program.len(), t.recv.program.len());
                layer.init(&mut InitCtx {
                    layout: &mut t.layout,
                    send_filter: &mut t.send.program,
                    recv_filter: &mut t.recv.program,
                });
                t.send.close_span(s0, layer.name());
                t.recv.close_span(r0, layer.name());
            }

            // In-band trace context (opt-in): a journey id and hop
            // counter in the Message Specific class, declared through
            // the same `add_field` path every layer uses and *filled by
            // the send filter* from patchable slots — tracing rides the
            // PA's own header machinery, not a side channel. Checksum
            // fragments never cover the Message class, so filter-written
            // trace fields cannot invalidate a digest. When off, nothing
            // is declared here: the compiled layout, the stack
            // fingerprint, and every wire byte are identical to an
            // untraced build (and the fingerprint in the connection
            // identification catches a peer that disagrees).
            let mut trace = None;
            if config.trace_ctx {
                t.layout.begin_layer("trace");
                let (s0, r0) = (t.send.program.len(), t.recv.program.len());
                let mut trace_field = |name, bits| {
                    t.layout
                        .add_field(Class::Message, name, bits, None)
                        .map_err(SetupError::Layout)
                };
                let jf = trace_field("trace_journey", 64)?;
                let hf = trace_field("trace_hop", 8)?;
                let js = t.send.program.alloc_slot(0);
                let hs = t.send.program.alloc_slot(0);
                t.send.program.extend([
                    Op::PushSlot(js),
                    Op::PopField(jf),
                    Op::PushSlot(hs),
                    Op::PopField(hf),
                ]);
                // Delivery side: a conforming tracing peer never sends
                // journey 0, so divert such frames to the slow path.
                t.recv.program.extend([
                    Op::PushField(jf),
                    Op::PushConst(0),
                    Op::Eq,
                    Op::Abort(TRACE_MISSING),
                ]);
                t.send.close_span(s0, "trace");
                t.recv.close_span(r0, "trace");
                trace = Some((jf, hf, js, hs));
            }

            // What was just declared is the plan's key: equal
            // declarations share one compiled layout and one pair of
            // filters, verified and fused — for both byte orders, so
            // the delivery side starts in ours and a peer's preamble
            // teaching us otherwise only takes the plan's other one —
            // when the first connection of the stack was built.
            let plan = plan::plan_for(t, config.layout_mode)?;
            Ok((plan, ident_fields, trace))
        })?;
        let layout = &plan.layout;
        let (trace_journey, trace_hop, trace_j_slot, trace_h_slot) = match trace {
            Some((jf, hf, js, hs)) => (Some(jf), Some(hf), Some(js), Some(hs)),
            None => (None, None, None, None),
        };

        // Connection identification: `local` is what we send, `peer`
        // what we expect to receive. Always big-endian (compared as
        // opaque bytes).
        let ident_len = layout.class_len(Class::ConnId);
        let mut ident_local = vec![0u8; ident_len];
        let mut ident_peer = vec![0u8; ident_len];
        layout.write_field_bytes(f_src, &mut ident_local, &params.local.encode());
        layout.write_field_bytes(f_dst, &mut ident_local, &params.peer.encode());
        layout.write_field(f_fp, &mut ident_local, ByteOrder::Big, layout.fingerprint());
        layout.write_field_bytes(f_src, &mut ident_peer, &params.peer.encode());
        layout.write_field_bytes(f_dst, &mut ident_peer, &params.local.encode());
        layout.write_field(f_fp, &mut ident_peer, ByteOrder::Big, layout.fingerprint());
        for layer in &layers {
            layer.fill_ident(layout, &mut ident_local, &mut ident_peer);
        }

        let mut rng = SplitMix64::new(params.seed);
        let send_predict = Prediction::new(layout, params.order);
        let recv_predict = Prediction::new(layout, params.order);
        let cookie_local = Cookie::random(&mut rng);

        // Pool headroom: preamble (≤ 9 B) + conn-ident + the three
        // class headers + the packing byte, so even the first
        // (identified) frame prepends in place without regrowing.
        // Never below the library default.
        let hdr_len = layout.per_message_header_bytes();
        let pool = MsgPool::new(
            (16 + ident_len + hdr_len + 8).max(pa_buf::msg::DEFAULT_HEADROOM),
            64,
        );

        let phase_meters = vec![PhaseMeter::default(); layers.len()];
        Ok(Connection {
            trace_origin: cookie_local.raw() as u32,
            cookie_local,
            cookie_peer: None,
            cookie_peer_prev: None,
            config,
            layers,
            attribution: Attribution::default(),
            miss_table: MissTable::default(),
            phase_meters,
            cycle_metering: false,
            leak_scope: None,
            leaks: LeakLedger::default(),
            last_send_explain: XrayTag::none(),
            last_deliver_explain: XrayTag::none(),
            order: params.order,
            peer_order: params.order,
            peer_order_known: false,
            send_fused: plan.send.fused(params.order).clone(),
            recv_fused: plan.recv.fused(params.order).clone(),
            send_slots: plan.send.program.slots().to_vec(),
            recv_slots: plan.recv.program.slots().to_vec(),
            proto_len: layout.class_len(Class::Protocol),
            msg_len: layout.class_len(Class::Message),
            gossip_len: layout.class_len(Class::Gossip),
            fuse_count: 2,
            pool,
            send_predict,
            recv_predict,
            backlog: Backlog::new(),
            pending_send: VecDeque::new(),
            pending_recv: VecDeque::new(),
            send_work: VecDeque::new(),
            deliver_work: VecDeque::new(),
            out: VecDeque::new(),
            deliveries: VecDeque::new(),
            ident_local,
            ident_peer,
            ident_remaining: config.ident_on_first,
            stats: ConnStats::default(),
            plan,
            params,
            now: 0,
            probe: ProbeSink::Noop,
            last_disable_layer: "(init)",
            effects_scratch: Effects::default(),
            trace_journey,
            trace_hop,
            trace_j_slot,
            trace_h_slot,
            journey_seq: 1,
            next_trace: None,
            last_sent_trace: None,
            last_recv_trace: None,
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

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

    /// Per-connection counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Returns a delivered (or otherwise finished) buffer to this
    /// connection's message pool (§6 explicit recycling). Hosts that
    /// call [`Connection::poll_delivery`] should hand each buffer back
    /// here once the application is done with it; a steady-state
    /// connection then performs zero heap allocations per message.
    /// With pooling off this simply drops the buffer.
    pub fn recycle(&mut self, msg: Msg) {
        if self.config.pooling {
            self.pool.put(msg);
        }
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
    /// to this connection (2 at construction, +1 when the peer's byte
    /// order is learned and the delivery filter changes to that order),
    /// plus the send/recv program resolution stats. The count is of
    /// bindings, not fuse passes: the plan fused both orders when the
    /// stack's first connection was built.
    pub fn fuse_stats(&self) -> (u64, FuseStats, FuseStats) {
        (
            self.fuse_count,
            self.send_fused.stats(),
            self.recv_fused.stats(),
        )
    }

    /// Installs a trace probe. Ring probes are labelled with this
    /// connection's host id so merged timelines stay attributable.
    pub fn set_probe(&mut self, mut probe: ProbeSink) {
        if let Some(ring) = probe.trace_ring_mut() {
            ring.set_conn(self.params.local.host_id() as u32);
        }
        self.probe = probe;
    }

    /// The installed probe (counts, ring records).
    pub fn probe(&self) -> &ProbeSink {
        &self.probe
    }

    /// Mutable probe access (clearing a ring between phases).
    pub fn probe_mut(&mut self) -> &mut ProbeSink {
        &mut self.probe
    }

    /// Emits one trace event at the connection's current clock.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.probe.emit(self.now, event);
    }

    /// True if this connection carries the in-band trace context
    /// (`config.trace_ctx` was on at construction).
    pub fn trace_ctx_enabled(&self) -> bool {
        self.trace_journey.is_some()
    }

    /// Origin tag minted into this connection's journey ids (the low
    /// 32 bits of the local cookie).
    pub fn trace_origin(&self) -> u32 {
        self.trace_origin
    }

    /// Sets the trace context for the *next* outgoing frame: relay
    /// hosts call this with an incoming journey's `(id, hop + 1)` so a
    /// forwarded message keeps its journey instead of minting a fresh
    /// one. Consumed by the next frame; later frames mint again.
    pub fn set_next_trace(&mut self, journey: u64, hop: u8) {
        if self.trace_journey.is_some() && journey != 0 {
            self.next_trace = Some((journey, hop));
        }
    }

    /// `(journey, hop)` stamped into the most recently wired frame, if
    /// tracing is on. Hosts use this to tag pcap captures.
    pub fn last_sent_trace(&self) -> Option<(u64, u8)> {
        self.last_sent_trace
    }

    /// `(journey, hop)` read from the most recently accepted incoming
    /// frame, if tracing is on.
    pub fn last_recv_trace(&self) -> Option<(u64, u8)> {
        self.last_recv_trace
    }

    /// Dissects a wire frame against this connection's layout.
    pub fn dissect_frame(&self, frame: &Msg) -> String {
        crate::dissect::dissect(frame, &self.plan.layout)
    }

    // ------------------------------------------------------------------
    // Xray: fast-path explainability
    // ------------------------------------------------------------------

    /// The attributed slow-path multiset (always on): every
    /// `slow_sends` / `queued_sends` / `slow_deliveries` increment is
    /// mirrored by exactly one `(op, layer, cause)` bump.
    pub fn attribution(&self) -> &Attribution {
        &self.attribution
    }

    /// Per-`(layer, field)` prediction-miss forensics counters.
    pub fn miss_table(&self) -> &MissTable {
        &self.miss_table
    }

    /// Per-layer phase meters, parallel to [`Connection::layer_names`].
    pub fn phase_meters(&self) -> &[PhaseMeter] {
        &self.phase_meters
    }

    /// Layer names, bottom first (index = stack position; also the
    /// `layer` byte in [`XrayTag`]s, with 255 = the engine).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Turns on wall-clock metering of every phase call
    /// (`std::time::Instant` around each pre/post/tick callback).
    /// Calibrates the shared timer-overhead correction
    /// ([`pa_obs::timer::span_overhead_ns`]) once and biases every
    /// meter with it, so short phase spans are de-biased exactly like
    /// bench rows.
    pub fn enable_cycle_meter(&mut self) {
        self.cycle_metering = true;
        let bias = pa_obs::timer::span_overhead_ns();
        for m in &mut self.phase_meters {
            m.set_bias(bias);
        }
    }

    /// The critical-path leak ledger: post-class work that a later
    /// operation had to wait on, keyed `(layer, phase, cause)`.
    pub fn leaks(&self) -> &LeakLedger {
        &self.leaks
    }

    /// Why the most recent send operation missed (or took) the fast
    /// path. [`XrayTag::none`] means fast path. Hosts read this right
    /// after a send to annotate pcap captures.
    pub fn last_send_explain(&self) -> XrayTag {
        self.last_send_explain
    }

    /// Why the most recent accepted delivery missed (or took) the fast
    /// path.
    pub fn last_deliver_explain(&self) -> XrayTag {
        self.last_deliver_explain
    }

    /// Enable-underflow violations survived by either prediction.
    pub fn invariant_violations(&self) -> u64 {
        self.send_predict.violations() + self.recv_predict.violations()
    }

    /// The [`XrayTag`] layer byte for a layer name (stack index, or
    /// [`XrayTag::ENGINE`] for the engine and pseudo-layers).
    fn layer_byte(&self, name: &str) -> u8 {
        self.layers
            .iter()
            .position(|l| l.name() == name)
            .map(|i| i as u8)
            .unwrap_or(XrayTag::ENGINE)
    }

    /// The name `f` was declared under.
    fn field_label(&self, f: FieldRef) -> String {
        let class = Class::ALL[(f.class as usize).min(Class::ALL.len() - 1)];
        let name = self.plan.layout.field_name(class, f.index as usize);
        name.unwrap_or("?").to_string()
    }

    /// The layer that declared Protocol field `idx`: `LayerId` 0 is the
    /// engine's own `"pa"`, 1..=n the stack, n+1 the trace pseudo-layer.
    fn protocol_field_owner(&self, idx: usize) -> &'static str {
        let id = self.plan.layout.field_layer(Class::Protocol, idx);
        match id.and_then(|id| (id.0 as usize).checked_sub(1)) {
            None => "pa",
            Some(i) => self.layers.get(i).map_or("trace", |l| l.name()),
        }
    }

    /// Renders an [`AttrCause`] with field names resolved through this
    /// connection's layout.
    fn render_cause(&self, cause: AttrCause) -> String {
        match cause {
            AttrCause::FieldMiss(f) => format!("field-miss({})", self.field_label(f)),
            other => other.to_string(),
        }
    }

    /// Builds the ranked "why is this connection off the fast path"
    /// report: attribution findings, active disable holds, miss
    /// forensics, per-layer phase call counts (virtual-time pricing is
    /// added by the simulator), and the path-counter totals they all
    /// reconcile against.
    pub fn xray_report(&self) -> XrayReport {
        let total_attr: u64 = self.attribution.entries().iter().map(|e| e.count).sum();
        let findings = self
            .attribution
            .entries()
            .iter()
            .map(|e| Finding {
                op: e.op,
                layer: e.layer.to_string(),
                cause: self.render_cause(e.cause),
                count: e.count,
                share: if total_attr == 0 {
                    0.0
                } else {
                    e.count as f64 / total_attr as f64
                },
            })
            .collect();

        let mut holds = Vec::new();
        for (direction, p) in [("send", &self.send_predict), ("recv", &self.recv_predict)] {
            for h in p.holds() {
                if h.active > 0 {
                    holds.push(HoldRow {
                        direction,
                        layer: h.layer.to_string(),
                        reason: h.reason.label().to_string(),
                        active: h.active,
                    });
                }
            }
        }

        let misses = self
            .miss_table
            .entries()
            .iter()
            .map(|m| MissRow {
                layer: m.layer.to_string(),
                field: self.field_label(m.field),
                count: m.count,
                last_predicted: m.last_predicted,
                last_actual: m.last_actual,
            })
            .collect();

        let phases = self
            .layers
            .iter()
            .zip(&self.phase_meters)
            .map(|(l, m)| PhaseRow {
                layer: l.name().to_string(),
                calls: m.calls,
                virt_ns: [0; 5],
                cycle_ns: m.cycle_ns,
                leaked_calls: m.leaked_calls,
                leaked_virt_ns: [0; 5],
                leaked_cycle_ns: m.leaked_cycle_ns,
            })
            .collect();

        let totals = XrayTotals {
            fast_sends: self.stats.fast_sends,
            slow_sends: self.stats.slow_sends,
            queued_sends: self.stats.queued_sends,
            fast_deliveries: self.stats.fast_deliveries,
            slow_deliveries: self.stats.slow_deliveries,
            invariant_violations: self.invariant_violations(),
        };

        let mut report = XrayReport {
            scope: self.params.local.to_string(),
            at: self.now,
            findings,
            holds,
            misses,
            phases,
            totals,
            notes: Vec::new(),
        };
        // Buffer-economics and filter-compilation context. Pool misses
        // are *not* attribution entries — they never force a slow path,
        // so they must not perturb the reconciling multiset — but a
        // miss on the steady state is an excursion cause worth naming
        // (a burst outran the retained buffers, or the host is not
        // recycling deliveries).
        if self.config.pooling {
            let ps = self.pool.stats();
            report.notes.push(format!(
                "pool: {} hits / {} misses / {} returns ({} idle); \
                 steady-state misses indicate a burst outran the pool \
                 or deliveries are not being recycled",
                ps.hits,
                ps.misses,
                ps.returns,
                self.pool.idle()
            ));
        } else {
            report
                .notes
                .push("pool: disabled (allocating comparison arm)".to_string());
        }
        let (s, r) = (self.send_fused.stats(), self.recv_fused.stats());
        report.notes.push(format!(
            "fused filters: {} fuses; send {} ops ({}/{} field ops \
             byte-aligned), recv {} ops ({}/{} byte-aligned)",
            self.fuse_count, s.ops, s.byte_aligned, s.field_ops, r.ops, r.byte_aligned, r.field_ops
        ));
        if !self.leaks.is_empty() {
            let worst = self.leaks.top().expect("non-empty ledger has a top");
            report.notes.push(format!(
                "critical-path leaks: {} phase calls waited on by a later \
                 operation; worst bucket {}/{} ({}, {} calls)",
                self.leaks.total_calls(),
                worst.layer,
                worst.phase.label(),
                worst.cause,
                worst.calls
            ));
        }
        report.rank();
        report
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

    /// Records the peer's cookie (called by the router when an
    /// identified frame re-binds it, and by greeting acceptance). A
    /// *different* cookie retires the previous one: frames still
    /// carrying it are counted as [`RejectReason::StaleCookie`], never
    /// routed.
    pub fn note_peer_cookie(&mut self, cookie: Cookie) {
        if let Some(prev) = self.cookie_peer {
            if prev != cookie {
                self.cookie_peer_prev = Some(prev);
            }
        }
        self.cookie_peer = Some(cookie);
    }

    /// The connection identification we send (greeting export).
    pub fn local_ident(&self) -> &[u8] {
        &self.ident_local
    }

    /// Stops sending the identification on initial messages (the peer
    /// already holds it via a greeting). Retransmissions still carry it.
    pub fn suppress_ident(&mut self) {
        self.ident_remaining = 0;
    }

    /// Forces the identification onto the next outgoing frame (a cookie
    /// re-announcement: used after a suspected route loss, and by tests
    /// that need an "unusual" identified frame on demand).
    pub fn force_ident_next(&mut self) {
        self.ident_remaining = self.ident_remaining.max(1);
    }

    /// Mints a fresh local (outgoing) cookie and forces the next
    /// outgoing frame to carry the full connection identification so
    /// the peer can re-bind its route — "the receiver remembers for
    /// each connection what the current (incoming) cookie is" (§2.2),
    /// so once the peer verifies the identified frame it retires the
    /// old cookie as stale. Frames still on the wire under the old
    /// cookie (or replayed from a capture of them) are then refused at
    /// the peer's demux as [`RejectReason::StaleCookie`]. Protocol
    /// state (sequencing, window, fragmentation) is untouched: rotation
    /// changes the route capability, not the conversation.
    pub fn rotate_cookie(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed ^ self.cookie_local.raw());
        self.cookie_local = Cookie::random(&mut rng);
        self.force_ident_next();
    }

    /// Pops the next frame to hand to the network, if any.
    pub fn poll_transmit(&mut self) -> Option<Msg> {
        self.out.pop_front()
    }

    /// Pops the next application message delivered by the stack, if any.
    pub fn poll_delivery(&mut self) -> Option<Msg> {
        self.deliveries.pop_front()
    }

    // ------------------------------------------------------------------
    // Burst entry points (PR 9 batched pipeline)
    //
    // Each burst method runs the *identical* per-message inner logic in
    // a loop — same outcomes, same wire bytes, same counters at every
    // burst size — and amortizes only work that is invisible to the
    // engine's ledgers: pool pre-provisioning and queue drains. That is
    // what makes the burst=1 identity gate trivially true and lets the
    // burst-boundary invariant tests assert exact `==` mid-burst.
    // ------------------------------------------------------------------

    /// Pre-provisions the buffer pool for a burst of `n` sends so every
    /// in-burst take is a hit. A no-op for `n <= 1` (a burst of one is
    /// therefore counter-identical to a bare [`Connection::send`]) and
    /// with pooling off. Hosts that drive sends one call at a time
    /// (rather than through [`Connection::send_burst`]) use this to get
    /// the same amortization without building a slice of payloads.
    pub fn prepare_burst(&mut self, n: usize) {
        if self.config.pooling && n > 1 {
            self.pool.refill_n(n);
        }
    }

    /// Sends a whole burst of payloads, tallying the per-message
    /// outcomes. With pooling on and a burst larger than one, the pool
    /// is topped up once so every in-burst take is a hit (the refill is
    /// skipped for a burst of one, which is therefore counter-identical
    /// to a bare [`Connection::send`]).
    pub fn send_burst(&mut self, payloads: &[&[u8]]) -> SendBurstReport {
        self.prepare_burst(payloads.len());
        let mut rep = SendBurstReport::default();
        for p in payloads {
            match self.send(p) {
                SendOutcome::FastPath => rep.fast += 1,
                SendOutcome::SlowPath => rep.slow += 1,
                SendOutcome::Queued => rep.queued += 1,
                SendOutcome::Rejected(_) => rep.rejected += 1,
            }
        }
        rep
    }

    /// Delivers a whole burst of frames (draining `frames` front to
    /// back), tallying the per-frame outcomes. Exactly equivalent to
    /// calling [`Connection::deliver_frame`] in a loop.
    pub fn deliver_burst(&mut self, frames: &mut Vec<Msg>) -> DeliverBurstReport {
        let mut rep = DeliverBurstReport::default();
        for frame in frames.drain(..) {
            rep.frames += 1;
            match self.deliver_frame(frame) {
                DeliverOutcome::Fast { msgs } => {
                    rep.fast_frames += 1;
                    rep.msgs += msgs;
                }
                DeliverOutcome::Slow { msgs } => {
                    rep.slow_frames += 1;
                    rep.msgs += msgs;
                }
                DeliverOutcome::Dropped(_) => rep.dropped += 1,
            }
        }
        rep
    }

    /// Drains up to `max` outgoing frames into `out` (caller-owned
    /// scratch, reused across bursts for an allocation-free steady
    /// state). Returns how many were appended.
    pub fn poll_transmit_burst(&mut self, max: usize, out: &mut Vec<Msg>) -> usize {
        let mut n = 0;
        while n < max {
            match self.out.pop_front() {
                Some(f) => {
                    out.push(f);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Drains up to `max` delivered application messages into `out`.
    /// Returns how many were appended.
    pub fn poll_delivery_burst(&mut self, max: usize, out: &mut Vec<Msg>) -> usize {
        let mut n = 0;
        while n < max {
            match self.deliveries.pop_front() {
                Some(m) => {
                    out.push(m);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Returns a whole burst of finished buffers to the pool in one
    /// call (§6 explicit recycling, amortized per burst). With pooling
    /// off the buffers are simply dropped, like [`Connection::recycle`].
    pub fn recycle_burst<I: IntoIterator<Item = Msg>>(&mut self, msgs: I) {
        if self.config.pooling {
            self.pool.recycle_burst(msgs);
        }
    }

    // ------------------------------------------------------------------
    // Send path (Figure 3, send())
    // ------------------------------------------------------------------

    /// Sends `payload` to the peer.
    pub fn send(&mut self, payload: &[u8]) -> SendOutcome {
        // "if (con->send.disable > 0) { add_to_backlog; return; }" —
        // plus the serialization rule of §3.4: a message may not be
        // pre-processed until the post-processing of every previous
        // message has completed.
        if !self.send_predict.enabled() || !self.pending_send.is_empty() || !self.backlog.is_empty()
        {
            self.stats.queued_sends += 1;
            // Attribute the queue to exactly one (layer, cause): the
            // deepest active disable hold if one exists, otherwise the
            // engine-level serialization/backlog rule.
            let (attr_layer, attr_cause) = if !self.send_predict.enabled() {
                match self.send_predict.top_hold() {
                    Some((layer, reason)) => (layer, AttrCause::Disabled(reason)),
                    None => ("pa", AttrCause::Unattributed),
                }
            } else if !self.pending_send.is_empty() {
                // Serialization rule: charge the layer whose control
                // frame is awaiting post-processing if one is in the
                // queue; otherwise it is the application's own previous
                // send, which is the engine's doing ("pa").
                let origin = self
                    .pending_send
                    .iter()
                    .map(|(_, o)| *o)
                    .find(|o| *o != "pa")
                    .unwrap_or("pa");
                (origin, AttrCause::PostSerialization)
            } else {
                ("pa", AttrCause::BacklogPending)
            };
            self.attribution
                .bump(XrayOp::QueuedSend, attr_layer, attr_cause);
            self.last_send_explain = XrayTag::from_cause(self.layer_byte(attr_layer), attr_cause);
            let disable_layer = if !self.send_predict.enabled() {
                self.last_disable_layer
            } else {
                // Not a disable at all: §3.4's serialization rule
                // (post-processing of an earlier message is pending).
                "(post-serialization)"
            };
            self.emit(TraceEvent::Queued { disable_layer });
            let staged = self.buf_with(payload);
            self.backlog.push(staged);
            if !self.config.lazy_post {
                // Eager hosts never leave work pending — and pay for
                // it on the critical path, which the meters record.
                self.with_leak_scope(LeakCause::EagerPost, |c| {
                    c.process_pending();
                });
            }
            return SendOutcome::Queued;
        }
        let body = {
            let mut b = self.buf_with(payload);
            PackInfo::Single.push_onto(&mut b);
            b
        };
        let outcome = self.send_body(body);
        if !self.config.lazy_post {
            self.with_leak_scope(LeakCause::EagerPost, |c| {
                c.process_pending();
            });
        }
        outcome
    }

    /// Sends a body that already carries its packing header. Used by
    /// `send` (kind 0) and by the backlog drain (packed bodies).
    fn send_body(&mut self, body: Msg) -> SendOutcome {
        if self.config.predict {
            self.fast_send(body)
        } else {
            self.stats.slow_sends += 1;
            self.attribution
                .bump(XrayOp::SlowSend, "pa", AttrCause::PredictOff);
            self.last_send_explain = XrayTag::from_cause(XrayTag::ENGINE, AttrCause::PredictOff);
            self.emit(TraceEvent::SlowSend {
                cause: SlowCause::PredictOff,
            });
            self.slow_send(body);
            SendOutcome::SlowPath
        }
    }

    /// The fast path: predicted headers + send filter, no layers.
    fn fast_send(&mut self, mut msg: Msg) -> SendOutcome {
        // Push predicted gossip, zeroed message-specific, predicted
        // protocol header — building the Figure 1 frame front-to-back.
        msg.push_front(self.send_predict.gossip());
        msg.push_front_zeroed(self.msg_len);
        msg.push_front(self.send_predict.proto());

        let (verdict, rejected_at) = self.run_send_filter(&mut msg);
        if verdict == pa_filter::PASS {
            self.stats.fast_sends += 1;
            self.last_send_explain = XrayTag::none();
            self.emit(TraceEvent::FastSend);
            self.wire_out(msg, false, "pa");
            SendOutcome::FastPath
        } else {
            // Attribution (always on — this path already left the fast
            // path): charge the layer whose filter fragment contains
            // the instruction the run stopped on.
            let attr_layer = match rejected_at {
                Some(pc) => {
                    self.emit_filter_reject(pc, self.plan.send.op_at(pc));
                    self.plan.send.layer_at(pc)
                }
                None => "pa",
            };
            self.attribution
                .bump(XrayOp::SlowSend, attr_layer, AttrCause::FilterReject);
            self.last_send_explain =
                XrayTag::from_cause(self.layer_byte(attr_layer), AttrCause::FilterReject);
            // Fall back: strip the speculative headers and run the
            // layered pre-send on the original body.
            msg.skip_front(self.hdr_len());
            self.stats.slow_sends += 1;
            self.emit(TraceEvent::SlowSend {
                cause: SlowCause::FilterReject,
            });
            self.slow_send(msg);
            SendOutcome::SlowPath
        }
    }

    /// The layered pre-send traversal, top → bottom.
    fn slow_send(&mut self, body: Msg) {
        let msg = self.blank_frame_from_body(body);
        let top = self.layers.len() as isize - 1;
        self.send_work.push_back(SendWork {
            next: top,
            msg,
            unusual: false,
            origin: "pa",
        });
        self.run_work();
    }

    /// Builds a frame (zeroed class headers) around a packing-prefixed
    /// body.
    fn blank_frame_from_body(&self, mut body: Msg) -> Msg {
        body.push_front_zeroed(self.hdr_len());
        body
    }

    /// Bytes of the always-present headers (protocol + message +
    /// gossip), from the connection's own copy of the three lengths.
    #[inline]
    fn hdr_len(&self) -> usize {
        self.proto_len + self.msg_len + self.gossip_len
    }

    /// Arms the trace-context slots before a send-filter run: the
    /// host-set continuation (relays) if one is pending, otherwise a
    /// freshly minted journey at hop 0. The filter then copies the
    /// slots into the frame's Message-specific header — the stamp rides
    /// the PA's own header machinery. No-op when tracing is off.
    fn arm_trace_slots(&mut self) {
        let (Some(js), Some(hs)) = (self.trace_j_slot, self.trace_h_slot) else {
            return;
        };
        let (journey, hop) = self.next_trace.take().unwrap_or_else(|| {
            let id = journey_id(self.trace_origin, self.journey_seq as u32);
            self.journey_seq += 1;
            (id, 0)
        });
        self.send_slots[js.0 as usize] = journey as i64;
        self.send_slots[hs.0 as usize] = hop as i64;
    }

    /// Runs the fused send filter over `msg`'s frame: the verdict and,
    /// when it is not a PASS, the instruction that decided it.
    fn run_send_filter(&mut self, msg: &mut Msg) -> (pa_filter::Verdict, Option<u16>) {
        self.arm_trace_slots();
        self.send_fused.run_located(&self.send_slots, msg)
    }

    /// Runs the fused delivery filter.
    fn run_recv_filter(&mut self, msg: &mut Msg) -> (pa_filter::Verdict, Option<u16>) {
        self.recv_fused.run_located(&self.recv_slots, msg)
    }

    /// Tells a listening probe which instruction refused a frame.
    fn emit_filter_reject(&mut self, pc: u16, op: &'static str) {
        if self.probe.enabled() {
            self.emit(TraceEvent::FilterReject { pc, op });
        }
    }

    /// A buffer holding a copy of `bytes` — a send's staging buffer, a
    /// frame's image for its deferred post phases: pooled (steady
    /// state: zero allocations) or freshly allocated when pooling is
    /// off. The engine's [`LayerCtx::buf_with`].
    #[inline]
    fn buf_with(&mut self, bytes: &[u8]) -> Msg {
        if self.config.pooling {
            self.pool.take_with(bytes)
        } else {
            Msg::from_payload(bytes)
        }
    }

    /// Final send step: schedule post-processing, attach conn-ident if
    /// due, push the cookie preamble, queue the frame for the network.
    fn wire_out(&mut self, mut msg: Msg, unusual: bool, origin: &'static str) {
        // The journey stamped into this frame (slots the filter just
        // copied into the header). Recorded for the host's pcap tagging
        // and emitted when a probe listens.
        if let (Some(js), Some(hs)) = (self.trace_j_slot, self.trace_h_slot) {
            let journey = self.send_slots[js.0 as usize] as u64;
            let hop = self.send_slots[hs.0 as usize] as u8;
            self.last_sent_trace = Some((journey, hop));
            if journey != 0 && self.probe.enabled() {
                self.emit(TraceEvent::JourneySend { journey, hop });
            }
        }

        // Post-processing operates on the frame image (protocol header
        // first), captured before preamble/ident are pushed. The image
        // is a pooled copy — the caller's buffer goes to the wire
        // untouched (zero copy on the transmit path), and the image
        // returns to the pool once its post phase has run.
        let image = self.buf_with(msg.as_slice());
        self.pending_send.push_back((image, origin));

        let include_ident = !self.config.cookies || unusual || self.ident_remaining > 0;
        if include_ident {
            self.ident_remaining = self.ident_remaining.saturating_sub(1);
            msg.push_front(&self.ident_local);
            self.stats.ident_frames_out += 1;
        }
        let preamble = if include_ident {
            Preamble::with_conn_ident(self.cookie_local, self.order)
        } else {
            Preamble::common(self.cookie_local, self.order)
        };
        preamble.push_onto(&mut msg);
        self.stats.frames_out += 1;
        self.out.push_back(msg);
    }

    // ------------------------------------------------------------------
    // Delivery path (Figure 3, from_network())
    // ------------------------------------------------------------------

    /// Rejects a frame with the structured `reason`: bumps the coarse
    /// drop counter the reason rolls up into, the fine-grained reject
    /// ledger, and the xray attribution multiset (one row per reason,
    /// charged to the engine), emits the drop trace event, and tags the
    /// last-deliver explain slot so annotated captures show the refusal.
    /// Exactly one coarse counter and one ledger slot move per call —
    /// `delivery_balanced()` and `rejects_reconcile()` hold by
    /// construction.
    fn reject(&mut self, reason: RejectReason) -> DeliverOutcome {
        debug_assert!(
            reason.is_entry(),
            "non-entry reasons are counted at their own site: {reason}"
        );
        match reason.bucket() {
            RejectBucket::Cookie => self.stats.drops_unknown_cookie += 1,
            RejectBucket::Malformed => self.stats.drops_malformed += 1,
            RejectBucket::Layer => self.stats.drops_by_layer += 1,
            RejectBucket::Send => self.stats.drops_send_rejected += 1,
            RejectBucket::Netif => {}
        }
        self.stats.rejects.bump(reason);
        let cause = AttrCause::Rejected(reason);
        self.attribution.bump(XrayOp::Reject, "pa", cause);
        self.last_deliver_explain = XrayTag::from_cause(XrayTag::ENGINE, cause);
        self.emit(TraceEvent::Drop {
            reason: reject_drop_cause(reason),
        });
        DeliverOutcome::Dropped(reason)
    }

    /// Handles a raw frame from the network (single-connection hosts;
    /// multi-connection hosts route via [`crate::ShardedEndpoint`] and call
    /// [`Connection::handle_routed`]).
    ///
    /// Every byte here is attacker-controllable, so each check names
    /// its [`RejectReason`] and nothing past this point is trusted
    /// without a length check:
    ///
    /// - shorter than a preamble → `TruncatedPreamble`;
    /// - the reserved all-zero cookie → `ZeroCookie` (no legitimate
    ///   sender can mint it);
    /// - ident advertised but missing → `TruncatedIdent`; present but
    ///   foreign → `ForeignIdent`;
    /// - cookie-only with the *retired* cookie → `StaleCookie`; with
    ///   any other unknown cookie → `UnknownCookie` (§2.2: "it is
    ///   dropped").
    pub fn deliver_frame(&mut self, mut frame: Msg) -> DeliverOutcome {
        self.stats.frames_in += 1;
        let preamble = match Preamble::pop_from(&mut frame) {
            Ok(p) => p,
            Err(_) => return self.reject(RejectReason::TruncatedPreamble),
        };
        if preamble.cookie.is_zero() {
            return self.reject(RejectReason::ZeroCookie);
        }
        if preamble.conn_ident_present {
            let Some(ident) = frame.pop_front(self.ident_peer.len()) else {
                return self.reject(RejectReason::TruncatedIdent);
            };
            if ident != self.ident_peer {
                return self.reject(RejectReason::ForeignIdent);
            }
            self.note_peer_cookie(preamble.cookie);
        } else {
            if self.cookie_peer != Some(preamble.cookie) {
                if self.cookie_peer_prev == Some(preamble.cookie) {
                    return self.reject(RejectReason::StaleCookie);
                }
                return self.reject(RejectReason::UnknownCookie);
            }
        }
        self.routed_inner(preamble, frame)
    }

    /// Handles a frame whose preamble (and conn-ident, if present) have
    /// been consumed by the router. `frame` starts at the protocol
    /// header. Counts the frame into `frames_in` — router-demuxed
    /// frames participate in this connection's `delivery_balanced()`
    /// ledger exactly like directly delivered ones.
    pub fn handle_routed(&mut self, preamble: Preamble, frame: Msg) -> DeliverOutcome {
        self.stats.frames_in += 1;
        self.routed_inner(preamble, frame)
    }

    fn routed_inner(&mut self, preamble: Preamble, mut frame: Msg) -> DeliverOutcome {
        // Correctness before speed: the *delivery-side* protocol state
        // must be current before this message's headers are checked
        // against it, so pending post-deliver work drains first. Pending
        // post-*send* work stays deferred — the two directions have
        // independent state (Table 3 keeps two tables), which is what
        // lets Figure 4's sender run its post-processing after the
        // reply has been delivered. Under saturation the next arrival
        // pays for the drain — the dashed-line case of Figure 4.
        if !self.pending_recv.is_empty() {
            // This arrival waits on the previous frame's post-deliver
            // phases: charge them as leaked, not masked.
            self.with_leak_scope(LeakCause::ArrivalDrain, |c| {
                c.drain_recv_posts();
            });
        }

        // Learn the peer's byte order from its preamble; re-encode the
        // delivery prediction if needed. Once an order is known, a
        // *cookie-only* frame is not allowed to change it: honoring a
        // flipped bit 62 would re-encode the prediction and re-bind the
        // delivery filter on one attacker-forgeable byte — a cheap
        // way to evict the fast path ("masking" turned against us). A
        // genuine order change (peer reboot on different hardware)
        // re-identifies itself, so the flip is only honored alongside a
        // full connection identification.
        if !self.peer_order_known || self.peer_order != preamble.byte_order {
            if self.peer_order_known && !preamble.conn_ident_present {
                return self.reject(RejectReason::ByteOrderConflict);
            }
            // A *mid-stream* order change (peer re-identified from
            // different hardware) re-binds a filter a delivery is
            // already waiting on — a critical-path leak. The first
            // learn on a fresh connection is setup cost, not a leak.
            let midstream = self.peer_order_known && self.peer_order != preamble.byte_order;
            self.peer_order = preamble.byte_order;
            self.peer_order_known = true;
            self.recv_predict
                .reorder(&self.plan.layout, self.peer_order);
            // The fused delivery filter baked the old order in; take
            // the plan's one for the learned order. The delivery that
            // triggered the change waits on it — engine work the
            // per-layer meters cannot hold, so it goes straight to the
            // leak ledger as `("pa", recv-refuse)`: still one call per
            // mid-stream learn, and, the fuse pass having moved into
            // the plan's build, about no time.
            let t0 = self.meter_start();
            self.recv_fused = self.plan.recv.fused(self.peer_order).clone();
            self.fuse_count += 1;
            if midstream {
                let bias = self.phase_meters.first().map_or(0, |m| m.bias_ns);
                let ns = t0.map_or(0, |t| (t.elapsed().as_nanos() as u64).saturating_sub(bias));
                self.leaks
                    .bump("pa", Phase::PreDeliver, LeakCause::RecvRefuse, 1, ns);
            }
        }

        if frame.len() < self.hdr_len() {
            return self.reject(RejectReason::ShortFrame);
        }

        // Read the in-band trace context (the frame is accepted from
        // here on — it delivers fast or slow, never silently vanishes).
        // Only runs when `trace_ctx` declared the fields.
        if let Some(jf) = self.trace_journey {
            let layout = &self.plan.layout;
            // `frame` is a local, so the header borrow is independent
            // of `self` — read in place, no copy.
            let read = frame.get(self.proto_len, self.msg_len).map(|bytes| {
                let journey = layout.read_field(jf, bytes, self.peer_order);
                let hop = self
                    .trace_hop
                    .map(|hf| layout.read_field(hf, bytes, self.peer_order) as u8)
                    .unwrap_or(0);
                (journey, hop)
            });
            if let Some((journey, hop)) = read {
                if journey != 0 {
                    self.last_recv_trace = Some((journey, hop));
                    if self.probe.enabled() {
                        self.emit(TraceEvent::JourneyDeliver { journey, hop });
                    }
                }
            }
        }

        let (filter_verdict, rejected_at) = self.run_recv_filter(&mut frame);
        let predicted = self.config.predict
            && self.recv_predict.enabled()
            && frame
                .get(0, self.proto_len)
                .is_some_and(|hdr| hdr == self.recv_predict.proto());

        if filter_verdict == pa_filter::PASS && predicted {
            match self.fast_deliver(frame) {
                Ok(n) => {
                    self.stats.fast_deliveries += 1;
                    self.last_deliver_explain = XrayTag::none();
                    self.emit(TraceEvent::FastDeliver { msgs: n as u32 });
                    self.finish_delivery();
                    DeliverOutcome::Fast { msgs: n }
                }
                Err(out) => out,
            }
        } else {
            // Attribute the miss: the filter outranks prediction (a
            // rejected frame never reaches the comparison), then the
            // reasons the prediction couldn't match, most specific last.
            let cause = if filter_verdict != pa_filter::PASS {
                self.stats.recv_filter_misses += 1;
                SlowCause::FilterReject
            } else if !self.config.predict {
                SlowCause::PredictOff
            } else {
                self.stats.predict_misses += 1;
                if !self.recv_predict.enabled() {
                    SlowCause::PredictDisabled
                } else {
                    SlowCause::PredictMiss
                }
            };
            // Forensics + attribution (always on — this frame already
            // left the fast path): pinpoint the deciding filter
            // instruction or the mispredicted fields, and charge the
            // excursion to exactly one (layer, cause).
            let (attr_layer, attr_cause) = self.attribute_slow_deliver(cause, rejected_at, &frame);
            self.attribution
                .bump(XrayOp::SlowDeliver, attr_layer, attr_cause);
            self.last_deliver_explain =
                XrayTag::from_cause(self.layer_byte(attr_layer), attr_cause);
            self.stats.slow_deliveries += 1;
            self.emit(TraceEvent::SlowDeliver { cause });
            let n = self.slow_deliver(frame, filter_verdict == pa_filter::PASS);
            self.finish_delivery();
            DeliverOutcome::Slow { msgs: n }
        }
    }

    /// Names the `(layer, cause)` of a slow delivery:
    ///
    /// - filter rejections charge the layer whose fragment contains
    ///   `rejected_at`, the instruction the delivery filter stopped on,
    /// - prediction misses diff the incoming protocol header against
    ///   the predicted bytes field by field, record *every* mismatching
    ///   `(owning layer, field)` in the miss table with its
    ///   predicted/actual values, and charge the first one,
    /// - a disabled prediction charges the deepest active hold.
    ///
    /// Emits the matching diagnosis events (`FilterReject` /
    /// `PredictMiss`) when a probe listens.
    fn attribute_slow_deliver(
        &mut self,
        cause: SlowCause,
        rejected_at: Option<u16>,
        frame: &Msg,
    ) -> (&'static str, AttrCause) {
        match cause {
            SlowCause::FilterReject => match rejected_at {
                Some(pc) => {
                    self.emit_filter_reject(pc, self.plan.recv.op_at(pc));
                    (self.plan.recv.layer_at(pc), AttrCause::FilterReject)
                }
                None => ("pa", AttrCause::FilterReject),
            },
            SlowCause::PredictOff => ("pa", AttrCause::PredictOff),
            SlowCause::PredictDisabled => match self.recv_predict.top_hold() {
                Some((layer, reason)) => (layer, AttrCause::Disabled(reason)),
                None => ("pa", AttrCause::Unattributed),
            },
            SlowCause::PredictMiss => {
                // `hdr` borrows the caller's frame, not `self`, so the
                // attribution below can take `&mut self` without a copy.
                let Some(hdr) = frame.get(0, self.proto_len) else {
                    return ("pa", AttrCause::Unattributed);
                };
                let mut first: Option<(&'static str, FieldRef)> = None;
                for i in 0..self.plan.layout.class(Class::Protocol).field_count() {
                    let f = Field::new(Class::Protocol, i);
                    let got = self.plan.layout.read_field(f, hdr, self.peer_order);
                    let expected = self.recv_predict.get(&self.plan.layout, f);
                    if got != expected {
                        let field = FieldRef::new(Class::Protocol.index() as u8, i as u16);
                        let owner = self.protocol_field_owner(i);
                        self.miss_table.bump(owner, field, expected, got);
                        if first.is_none() {
                            first = Some((owner, field));
                            if self.probe.enabled() {
                                self.emit(TraceEvent::PredictMiss {
                                    field,
                                    expected,
                                    got,
                                });
                            }
                        }
                    }
                }
                match first {
                    Some((owner, field)) => (owner, AttrCause::FieldMiss(field)),
                    // The bytes differed but every readable field
                    // matched (padding noise): visible as unattributed.
                    None => ("pa", AttrCause::Unattributed),
                }
            }
        }
    }

    fn finish_delivery(&mut self) {
        if !self.config.lazy_post {
            self.with_leak_scope(LeakCause::EagerPost, |c| {
                c.process_pending();
            });
        }
    }

    /// Fast delivery: strip headers, unpack, deliver; stack not entered.
    fn fast_deliver(&mut self, frame: Msg) -> Result<usize, DeliverOutcome> {
        match self.deliver_and_defer(frame, 0) {
            Ok(n) => Ok(n),
            Err((frame, reason)) => {
                if self.config.pooling {
                    self.pool.put(frame);
                }
                Err(self.reject(reason))
            }
        }
    }

    /// Strips the stack headers off `frame`, unpacks the body into
    /// application deliveries, and queues a frame image for the
    /// deferred post-deliver phases. Shared by the fast path and the
    /// top of the layered slow path — the two differ only in `start`
    /// (which post phases still owe work). A message the top layer
    /// emitted upward (a reassembled one) owes none: no image is made
    /// of it and nothing is queued.
    ///
    /// Pooled (the steady state — zero heap allocations):
    /// - `Single`: the application receives the *original network
    ///   buffer* with the headers skipped in place (zero-copy); the
    ///   post phases get a pooled image copy.
    /// - packed runs: each piece is a pooled copy of its body slice
    ///   and the original frame itself *moves* into the post queue, so
    ///   nothing is cloned.
    ///
    /// Non-pooled: the pre-recycling arm — clone the frame for the
    /// image, allocate per unpacked piece — kept as the benchmark
    /// comparison path. Wire bytes and stats are identical either way.
    ///
    /// On a malformed packing header/body the buffer is handed back as
    /// `Err((frame, reason))` so the caller can count the structured
    /// rejection, emit, and recycle it. A total function over arbitrary
    /// frame bytes: every read past the header boundary is bounded by
    /// an explicit length check first, and the piece walk counts what
    /// it actually delivered.
    fn deliver_and_defer(
        &mut self,
        mut frame: Msg,
        start: usize,
    ) -> Result<usize, (Msg, RejectReason)> {
        let stop = self.layers.len().saturating_sub(1);
        let owes_post = start <= stop;
        let hdr = self.hdr_len();
        // The slow path re-checks the length checked at entry:
        // layers may have reshaped the message in between, and this
        // function must stay total either way.
        if frame.len() < hdr {
            return Err((frame, RejectReason::ShortFrame));
        }
        if !self.config.pooling {
            let frame_image = frame.clone();
            frame.skip_front(hdr);
            let unpacked =
                PackInfo::pop_from(&mut frame).and_then(|info| packing::unpack(&info, frame));
            return match unpacked {
                Ok(msgs) => {
                    let n = msgs.len();
                    self.stats.msgs_delivered += n as u64;
                    self.deliveries.extend(msgs);
                    if owes_post {
                        self.pending_recv.push_back(RecvPost {
                            msg: frame_image,
                            start,
                            stop,
                        });
                    }
                    Ok(n)
                }
                Err(e) => Err((frame_image, pack_reject_reason(&e))),
            };
        }
        let (info, used) = match PackInfo::decode(&frame.as_slice()[hdr..]) {
            Ok(x) => x,
            Err(e) => return Err((frame, pack_reject_reason(&e))),
        };
        let body_off = hdr + used;
        // `decode` consumed `used` bytes out of `frame[hdr..]`, so
        // `body_off <= frame.len()` — checked, not assumed.
        let Some(body_len) = frame.len().checked_sub(body_off) else {
            return Err((frame, RejectReason::MalformedPackInfo));
        };
        match info {
            PackInfo::Single => {
                if owes_post {
                    let image = self.pool.take_with(frame.as_slice());
                    self.pending_recv.push_back(RecvPost {
                        msg: image,
                        start,
                        stop,
                    });
                }
                frame.skip_front(body_off);
                self.stats.msgs_delivered += 1;
                self.deliveries.push_back(frame);
                Ok(1)
            }
            ref packed => {
                if body_len != packed.body_len() {
                    return Err((frame, RejectReason::LengthMismatch));
                }
                // The equality above proves the piece walk fits the
                // body exactly; the per-piece reads below still go
                // through checked `get` so the loop is total even if
                // that reasoning ever broke — it counts what it
                // actually delivered.
                let mut delivered = 0usize;
                let mut off = body_off;
                match packed {
                    PackInfo::SameSize { count, size } => {
                        for _ in 0..*count {
                            let Some(bytes) = frame.get(off, *size as usize) else {
                                break;
                            };
                            self.deliveries.push_back(self.pool.take_with(bytes));
                            off += *size as usize;
                            delivered += 1;
                        }
                    }
                    PackInfo::Variable { sizes } => {
                        for &s in sizes {
                            let Some(bytes) = frame.get(off, s as usize) else {
                                break;
                            };
                            self.deliveries.push_back(self.pool.take_with(bytes));
                            off += s as usize;
                            delivered += 1;
                        }
                    }
                    PackInfo::Single => unreachable!(),
                }
                debug_assert_eq!(delivered, packed.count(), "walk matched the validated body");
                self.stats.msgs_delivered += delivered as u64;
                if owes_post {
                    self.pending_recv.push_back(RecvPost {
                        msg: frame,
                        start,
                        stop,
                    });
                } else {
                    self.pool.put(frame);
                }
                Ok(delivered)
            }
        }
    }

    /// Layered pre-deliver traversal, bottom → top.
    fn slow_deliver(&mut self, frame: Msg, filter_passed: bool) -> usize {
        let before = self.stats.msgs_delivered;
        self.deliver_work.push_back(DeliverWork {
            next: 0,
            start: 0,
            msg: frame,
            filter_passed,
        });
        self.run_work();
        (self.stats.msgs_delivered - before) as usize
    }

    // ------------------------------------------------------------------
    // The traversal engine
    // ------------------------------------------------------------------

    /// Drains the send/deliver work queues: the layered slow paths plus
    /// any layer-emitted traffic.
    fn run_work(&mut self) {
        loop {
            if let Some(work) = self.send_work.pop_front() {
                self.step_send(work);
                continue;
            }
            if let Some(work) = self.deliver_work.pop_front() {
                self.step_deliver(work);
                continue;
            }
            break;
        }
    }

    fn step_send(&mut self, work: SendWork) {
        let SendWork {
            next,
            mut msg,
            unusual,
            origin,
        } = work;
        if next < 0 {
            // Below the bottom layer: filter, preamble, wire.
            let (verdict, rejected_at) = self.run_send_filter(&mut msg);
            if verdict != pa_filter::PASS {
                // A message the stack let through but the filter refuses
                // (oversized with no frag layer, etc.).
                self.stats.drops_send_rejected += 1;
                self.stats.rejects.bump(RejectReason::FilterReject);
                if let Some(pc) = rejected_at {
                    self.emit_filter_reject(pc, self.plan.send.op_at(pc));
                }
                self.emit(TraceEvent::Drop {
                    reason: DropCause::FilterRefused,
                });
                self.recycle(msg);
                return;
            }
            self.wire_out(msg, unusual, origin);
            return;
        }
        let i = next as usize;
        let action = self.run_phase(i, Phase::PreSend, self.order, |layer, ctx| {
            layer.pre_send(ctx, &mut msg)
        });
        match action {
            SendAction::Continue => {
                self.send_work.push_back(SendWork {
                    next: next - 1,
                    msg,
                    unusual,
                    origin,
                });
            }
            SendAction::Split(parts) => {
                for part in parts {
                    self.send_work.push_back(SendWork {
                        next: next - 1,
                        msg: part,
                        unusual,
                        origin,
                    });
                }
                // The parts are copies; the original is done.
                self.recycle(msg);
            }
            SendAction::Buffered => {
                // The layer took the contents (mem::take) and will
                // re-emit via emit_down later.
            }
            SendAction::Reject(_) => {
                self.stats.drops_send_rejected += 1;
                self.emit(TraceEvent::Drop {
                    reason: DropCause::ByLayer(self.layers[i].name()),
                });
                self.recycle(msg);
            }
        }
    }

    fn step_deliver(&mut self, work: DeliverWork) {
        let DeliverWork {
            next,
            start,
            mut msg,
            filter_passed,
        } = work;
        if next >= self.layers.len() {
            // Above the top layer: strip headers, unpack, deliver. A
            // malformed packing here is the "deliberate exception" of
            // `delivery_balanced()`: the frame already counted a slow
            // delivery, and also counts one structured reject.
            if let Err((frame, reason)) = self.deliver_and_defer(msg, start) {
                let _ = self.reject(reason);
                if self.config.pooling {
                    self.pool.put(frame);
                }
            }
            return;
        }
        let action = self.run_phase(next, Phase::PreDeliver, self.peer_order, |layer, ctx| {
            ctx.filter_passed = filter_passed;
            layer.pre_deliver(ctx, &mut msg)
        });
        match action {
            DeliverAction::Continue => {
                self.deliver_work.push_back(DeliverWork {
                    next: next + 1,
                    start,
                    msg,
                    filter_passed,
                });
            }
            DeliverAction::Consume => {
                self.pending_recv.push_back(RecvPost {
                    msg,
                    start,
                    stop: next,
                });
            }
            DeliverAction::Drop(why) => {
                self.stats.drops_by_layer += 1;
                // The window layer's duplicate verdict is the replay
                // case of the wire taxonomy; other layer verdicts stay
                // outside it (they are policy, not wire structure).
                if why == "duplicate" {
                    self.stats.rejects.bump(RejectReason::ReplayedSeq);
                }
                self.emit(TraceEvent::Drop {
                    reason: DropCause::ByLayer(self.layers[next].name()),
                });
                self.pending_recv.push_back(RecvPost {
                    msg,
                    start,
                    stop: next,
                });
            }
        }
    }

    /// The one phase dispatcher: runs `call` on layer `i` with a
    /// [`LayerCtx`] built in place over the connection's own fields,
    /// records the meter, and applies whatever the layer asked for —
    /// after the phase returns and before any other phase runs. A phase
    /// that asked for nothing costs a meter bump and an emptiness check.
    #[inline]
    fn run_phase<R>(
        &mut self,
        i: usize,
        phase: Phase,
        order: ByteOrder,
        call: impl FnOnce(&mut dyn Layer, &mut LayerCtx<'_>) -> R,
    ) -> R {
        let t0 = self.meter_start();
        let mut ctx = LayerCtx {
            layout: &self.plan.layout,
            order,
            now: self.now,
            send_predict: &mut self.send_predict,
            recv_predict: &mut self.recv_predict,
            effects: &mut self.effects_scratch,
            pool: self.config.pooling.then_some(&mut self.pool),
            filter_passed: false,
        };
        let out = call(self.layers[i].as_mut(), &mut ctx);
        self.meter_record(i, phase, t0);
        if !self.effects_scratch.is_empty() {
            // `apply_effects` needs `&mut self`, so the scratch leaves
            // the connection for the apply and comes back drained, its
            // vector capacity intact.
            let mut effects = std::mem::take(&mut self.effects_scratch);
            self.apply_effects(i, &mut effects);
            self.effects_scratch = effects;
        }
        out
    }

    /// Starts a cycle-meter sample if wall-clock metering is enabled.
    ///
    /// Returns `None` when metering is off, so the hot path pays only a
    /// branch on a bool — no clock read.
    #[inline]
    fn meter_start(&self) -> Option<std::time::Instant> {
        self.cycle_metering.then(std::time::Instant::now)
    }

    /// Records one phase invocation for `layer_idx`, folding in the
    /// elapsed wall-clock nanoseconds when `t0` carries a sample. Runs
    /// inside an active leak scope, the invocation is additionally
    /// flagged leaked in the meter and mirrored — same count, same
    /// de-biased nanoseconds — into the leak ledger, so the two stay
    /// exactly reconcilable.
    #[inline]
    fn meter_record(&mut self, layer_idx: usize, phase: Phase, t0: Option<std::time::Instant>) {
        let dt = t0.map(|t| t.elapsed().as_nanos() as u64);
        let leaked = self.leak_scope;
        let Some(meter) = self.phase_meters.get_mut(layer_idx) else {
            return;
        };
        let charged = meter.record_flagged(phase, dt, leaked.is_some());
        if let Some(cause) = leaked {
            let layer = self.layers.get(layer_idx).map_or("?", |l| l.name());
            self.leaks.bump(layer, phase, cause, 1, charged);
        }
    }

    /// Runs `f` with the critical-path leak scope set to `cause`,
    /// restoring the previous scope afterwards. Every phase call
    /// metered inside is charged as leaked.
    fn with_leak_scope<T>(&mut self, cause: LeakCause, f: impl FnOnce(&mut Self) -> T) -> T {
        let prev = self.leak_scope.replace(cause);
        let out = f(self);
        self.leak_scope = prev;
        out
    }

    /// Applies a layer's requested side effects. `layer_idx` is the
    /// emitting layer; downward messages enter below it, upward ones
    /// above it.
    fn apply_effects(&mut self, layer_idx: usize, effects: &mut Effects) {
        // Only entered for a non-empty `effects` (`run_phase` checks).
        // Drains (rather than consumes) so `run_phase` can put the
        // scratch back with its vector capacity intact — post phases
        // that patch filter slots every batch would otherwise pay one
        // heap allocation per phase forever.
        let name = self.layers[layer_idx].name();
        if !effects.disable_send.is_empty() {
            // Remember who last held the send path shut, so a later
            // `Queued` event names the culprit.
            self.last_disable_layer = name;
        }
        for reason in effects.disable_send.drain(..) {
            self.send_predict.disable_with(name, reason);
            self.emit(TraceEvent::Disable {
                layer: name,
                reason,
                send: true,
            });
        }
        for reason in effects.enable_send.drain(..) {
            if self.send_predict.enable_with(name, reason) {
                self.emit(TraceEvent::Enable {
                    layer: name,
                    reason,
                    send: true,
                });
            } else {
                self.emit(TraceEvent::InvariantViolation {
                    layer: name,
                    what: Invariant::EnableUnderflow,
                });
            }
        }
        for reason in effects.disable_recv.drain(..) {
            self.recv_predict.disable_with(name, reason);
            self.emit(TraceEvent::Disable {
                layer: name,
                reason,
                send: false,
            });
        }
        for reason in effects.enable_recv.drain(..) {
            if self.recv_predict.enable_with(name, reason) {
                self.emit(TraceEvent::Enable {
                    layer: name,
                    reason,
                    send: false,
                });
            } else {
                self.emit(TraceEvent::InvariantViolation {
                    layer: name,
                    what: Invariant::EnableUnderflow,
                });
            }
        }
        for (slot, v) in effects.send_slot_patches.drain(..) {
            self.send_slots[slot.0 as usize] = v;
        }
        for (slot, v) in effects.recv_slot_patches.drain(..) {
            self.recv_slots[slot.0 as usize] = v;
        }
        for (msg, unusual) in effects.down.drain(..) {
            self.stats.control_msgs += 1;
            self.emit(TraceEvent::Control {
                layer: self.layers[layer_idx].name(),
            });
            self.send_work.push_back(SendWork {
                next: layer_idx as isize - 1,
                msg,
                unusual,
                origin: name,
            });
        }
        for msg in effects.up.drain(..) {
            self.deliver_work.push_back(DeliverWork {
                next: layer_idx + 1,
                start: layer_idx + 1,
                msg,
                filter_passed: false,
            });
        }
    }

    // ------------------------------------------------------------------
    // Post-processing (§3.1) and the backlog drain (§3.4)
    // ------------------------------------------------------------------

    /// Runs all deferred post-processing, then drains the backlog (with
    /// packing) if the send path is usable again. Hosts call this when
    /// the application is idle or blocked — "out of the critical path".
    pub fn process_pending(&mut self) -> PostWorkReport {
        let mut report = PostWorkReport::default();
        let frames_before = self.stats.frames_out;

        loop {
            if let Some((msg, _origin)) = self.pending_send.pop_front() {
                self.run_post_send(&msg, &mut report);
                if self.config.pooling {
                    self.pool.put(msg);
                }
                continue;
            }
            if let Some(post) = self.pending_recv.pop_front() {
                self.run_post_deliver(post, &mut report);
                continue;
            }
            break;
        }

        // "After the post-processing of a send operation completes, the
        // PA checks to see if there are messages waiting."
        if !self.backlog.is_empty() && self.send_predict.enabled() {
            let frames_before_drain = self.stats.frames_out;
            let drained = self.drain_backlog();
            report.backlog_drained = drained.0;
            report.packed = drained.1;
            if drained.0 > 0 {
                self.emit(TraceEvent::BacklogDrain {
                    frames: (self.stats.frames_out - frames_before_drain) as u32,
                    msgs: drained.0 as u32,
                });
            }
        }

        report.frames_sent = self.stats.frames_out - frames_before;
        report
    }

    /// Drains only the delivery-side post queue (called on arrival so
    /// the receive state is current; send-side posts stay deferred).
    /// Returns the work done for cost accounting.
    pub fn drain_recv_posts(&mut self) -> PostWorkReport {
        let mut report = PostWorkReport::default();
        while let Some(post) = self.pending_recv.pop_front() {
            self.run_post_deliver(post, &mut report);
        }
        report
    }

    /// Runs post-send phases for one wired frame, top → bottom
    /// (mirroring pre-send).
    fn run_post_send(&mut self, msg: &Msg, report: &mut PostWorkReport) {
        report.post_send_phases += self.layers.len() as u64;
        report.post_send_frames += 1;
        self.stats.post_sends += 1;
        for i in (0..self.layers.len()).rev() {
            self.run_phase(i, Phase::PostSend, self.order, |layer, ctx| {
                layer.post_send(ctx, msg)
            });
        }
        self.run_work();
    }

    /// Runs post-deliver phases for one received frame, bottom → top.
    fn run_post_deliver(&mut self, post: RecvPost, report: &mut PostWorkReport) {
        let RecvPost { msg, start, stop } = post;
        debug_assert!(
            start <= stop,
            "queued only for layers that owe a post phase"
        );
        report.post_deliver_phases += (stop - start + 1) as u64;
        report.post_deliver_frames += 1;
        self.stats.post_delivers += 1;
        for i in start..=stop {
            self.run_phase(i, Phase::PostDeliver, self.peer_order, |layer, ctx| {
                layer.post_deliver(ctx, &msg)
            });
        }
        if self.config.pooling {
            self.pool.put(msg);
        }
        self.run_work();
    }

    /// Drains one frame's worth of backlog; returns (messages, packed?).
    fn drain_backlog(&mut self) -> (u64, bool) {
        let mut run = if self.config.packing {
            if self.config.variable_packing {
                self.backlog.pop_run(self.config.max_pack)
            } else {
                self.backlog.pop_same_size_run(self.config.max_pack)
            }
        } else {
            self.backlog.pop_run(1)
        };
        if run.is_empty() {
            return (0, false);
        }
        let n = run.len() as u64;
        let packed = run.len() > 1;
        if packed {
            self.stats.packed_frames += 1;
            self.stats.packed_msgs += n;
        }
        let body = if run.len() == 1 {
            // A lone backlogged message needs no assembly: prepend the
            // packing byte into its headroom and wire it as-is.
            let mut m = run.pop().expect("run non-empty");
            PackInfo::Single.push_onto(&mut m);
            m
        } else {
            let body = packing::pack(&run);
            if self.config.pooling {
                // Donate the staged run buffers back: the pool keeps
                // their capacity for the next burst of sends.
                for m in run {
                    self.pool.put(m);
                }
            }
            body
        };
        self.send_body(body);
        (n, packed)
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances time and gives every layer a timer callback
    /// (retransmission, keepalives). Bottom → top.
    pub fn tick(&mut self, now: Nanos) {
        self.set_now(now);
        for i in 0..self.layers.len() {
            self.run_phase(i, Phase::Tick, self.order, |layer, ctx| {
                layer.on_tick(ctx, now)
            });
        }
        self.run_work();
        if !self.config.lazy_post {
            self.with_leak_scope(LeakCause::EagerPost, |c| {
                c.process_pending();
            });
        }
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
mod tests {
    use super::*;
    use crate::layer::NullLayer;
    use pa_filter::{DigestKind, Op};
    use pa_wire::Field;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    // `Layer: Send` exists so a whole connection can be shipped to a
    // drain thread; pin that property at compile time.
    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<Connection>();
    };

    /// A sequence-number layer instrumented with call counters —
    /// exercises fields, filters, prediction, disable, and the
    /// canonical-form split.
    struct SeqLayer {
        seq_f: Option<Field>,
        len_f: Option<Field>,
        ck_f: Option<Field>,
        next_send: u64,
        next_recv: u64,
        pre_sends: Arc<AtomicU32>,
        post_sends: Arc<AtomicU32>,
        pre_delivers: Arc<AtomicU32>,
        post_delivers: Arc<AtomicU32>,
    }

    struct Counters {
        pre_sends: Arc<AtomicU32>,
        post_sends: Arc<AtomicU32>,
        pre_delivers: Arc<AtomicU32>,
        post_delivers: Arc<AtomicU32>,
    }

    fn seq_layer() -> (SeqLayer, Counters) {
        let c = Counters {
            pre_sends: Arc::new(AtomicU32::new(0)),
            post_sends: Arc::new(AtomicU32::new(0)),
            pre_delivers: Arc::new(AtomicU32::new(0)),
            post_delivers: Arc::new(AtomicU32::new(0)),
        };
        let l = SeqLayer {
            seq_f: None,
            len_f: None,
            ck_f: None,
            next_send: 0,
            next_recv: 0,
            pre_sends: c.pre_sends.clone(),
            post_sends: c.post_sends.clone(),
            pre_delivers: c.pre_delivers.clone(),
            post_delivers: c.post_delivers.clone(),
        };
        (l, c)
    }

    impl Layer for SeqLayer {
        fn name(&self) -> &'static str {
            "seq-test"
        }

        fn init(&mut self, ctx: &mut InitCtx<'_>) {
            let seq = ctx
                .layout
                .add_field(Class::Protocol, "seq", 32, None)
                .unwrap();
            let len = ctx
                .layout
                .add_field(Class::Message, "len", 16, None)
                .unwrap();
            let ck = ctx
                .layout
                .add_field(Class::Message, "ck", 16, None)
                .unwrap();
            self.seq_f = Some(seq);
            self.len_f = Some(len);
            self.ck_f = Some(ck);
            ctx.send_filter.extend(vec![
                Op::PushSize,
                Op::PopField(len),
                Op::Digest(DigestKind::InternetChecksum),
                Op::PopField(ck),
            ]);
            ctx.recv_filter.extend(vec![
                Op::PushField(len),
                Op::PushSize,
                Op::Ne,
                Op::Abort(1),
                Op::PushField(ck),
                Op::Digest(DigestKind::InternetChecksum),
                Op::Ne,
                Op::Abort(2),
            ]);
        }

        fn pre_send(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> SendAction {
            self.pre_sends.fetch_add(1, Ordering::Relaxed);
            let f = self.seq_f.unwrap();
            ctx.frame(msg).write(f, self.next_send);
            SendAction::Continue
        }

        fn post_send(&mut self, ctx: &mut LayerCtx<'_>, _msg: &Msg) {
            self.post_sends.fetch_add(1, Ordering::Relaxed);
            self.next_send += 1;
            let f = self.seq_f.unwrap();
            ctx.send_predict.set(ctx.layout, f, self.next_send);
        }

        fn pre_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &mut Msg) -> DeliverAction {
            self.pre_delivers.fetch_add(1, Ordering::Relaxed);
            let f = self.seq_f.unwrap();
            let seq = ctx.frame(msg).read(f);
            if seq == self.next_recv {
                DeliverAction::Continue
            } else {
                DeliverAction::Drop("out of sequence")
            }
        }

        fn post_deliver(&mut self, ctx: &mut LayerCtx<'_>, msg: &Msg) {
            self.post_delivers.fetch_add(1, Ordering::Relaxed);
            let f = self.seq_f.unwrap();
            let mut m = msg.clone();
            let seq = ctx.frame(&mut m).read(f);
            if seq == self.next_recv {
                self.next_recv += 1;
                ctx.recv_predict.set(ctx.layout, f, self.next_recv);
            }
        }
    }

    fn pair(config: PaConfig) -> (Connection, Connection, Counters, Counters) {
        let (la, ca) = seq_layer();
        let (lb, cb) = seq_layer();
        let a = Connection::new(
            vec![Box::new(la)],
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 7),
                EndpointAddr::from_parts(2, 7),
                1,
            ),
        )
        .unwrap();
        let b = Connection::new(
            vec![Box::new(lb)],
            config,
            ConnectionParams::new(
                EndpointAddr::from_parts(2, 7),
                EndpointAddr::from_parts(1, 7),
                2,
            ),
        )
        .unwrap();
        (a, b, ca, cb)
    }

    /// Shuttles all queued frames from `from` to `to`, returning
    /// delivered payloads.
    fn shuttle(from: &mut Connection, to: &mut Connection) -> Vec<Vec<u8>> {
        while let Some(frame) = from.poll_transmit() {
            to.deliver_frame(frame);
        }
        let mut out = Vec::new();
        while let Some(m) = to.poll_delivery() {
            out.push(m.to_wire());
        }
        out
    }

    #[test]
    fn rotate_cookie_mints_fresh_reannounces_ident_and_stales_the_old() {
        let (mut a, mut b, _ca, _cb) = pair(PaConfig::paper_default());
        a.send(b"m0");
        a.process_pending();
        shuttle(&mut a, &mut b);
        let old = a.local_cookie();

        // Steady state: cookie-only frames. Capture one for replay.
        a.send(b"m1");
        a.process_pending();
        let captured = a.poll_transmit().unwrap().to_wire();
        assert_eq!(captured[0] & 0x80, 0, "steady state is cookie-only");
        b.deliver_frame(Msg::from_wire(captured.clone()));
        while b.poll_delivery().is_some() {}

        a.rotate_cookie(0x5EED);
        assert_ne!(a.local_cookie(), old, "rotation mints a fresh cookie");
        a.send(b"m2");
        a.process_pending();
        let bytes = a.poll_transmit().unwrap().to_wire();
        assert_ne!(bytes[0] & 0x80, 0, "rotation re-announces the ident");
        let word = u64::from_be_bytes(bytes[..8].try_into().unwrap());
        assert_eq!(
            word & !(0b11u64 << 62),
            a.local_cookie().raw(),
            "the re-announcement carries the new cookie"
        );
        b.deliver_frame(Msg::from_wire(bytes));
        assert_eq!(b.peer_cookie(), Some(a.local_cookie()));

        // A pre-rotation capture replays as stale, not unknown — and
        // the ledger accounts it.
        let out = b.deliver_frame(Msg::from_wire(captured));
        assert_eq!(out, DeliverOutcome::Dropped(RejectReason::StaleCookie));
        assert!(b.stats().delivery_balanced());
        assert!(b.stats().rejects_reconcile());
    }

    #[test]
    fn first_send_is_fast_and_carries_ident() {
        let (mut a, mut b, ca, _cb) = pair(PaConfig::paper_default());
        assert_eq!(a.send(b"m0"), SendOutcome::FastPath);
        assert_eq!(
            ca.pre_sends.load(Ordering::Relaxed),
            0,
            "fast path entered no layer"
        );
        assert_eq!(a.stats().ident_frames_out, 1);
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![b"m0".to_vec()]);
    }

    #[test]
    fn fast_path_sequence_with_lazy_posts() {
        let (mut a, mut b, ca, cb) = pair(PaConfig::paper_default());
        for i in 0..5u8 {
            let outcome = a.send(&[i]);
            assert_eq!(outcome, SendOutcome::FastPath, "send {i}");
            let got = shuttle(&mut a, &mut b);
            assert_eq!(got, vec![vec![i]]);
            // Posts are lazy: run them now, out of the "critical path".
            a.process_pending();
            b.process_pending();
        }
        assert_eq!(ca.pre_sends.load(Ordering::Relaxed), 0);
        assert_eq!(ca.post_sends.load(Ordering::Relaxed), 5);
        assert_eq!(
            cb.pre_delivers.load(Ordering::Relaxed),
            0,
            "all deliveries predicted"
        );
        assert_eq!(cb.post_delivers.load(Ordering::Relaxed), 5);
        assert_eq!(b.stats().fast_deliveries, 5);
    }

    #[test]
    fn sends_without_post_processing_backlog_and_pack() {
        let (mut a, mut b, _ca, _cb) = pair(PaConfig::paper_default());
        assert_eq!(a.send(b"aaaa"), SendOutcome::FastPath);
        // Post-processing hasn't run: these must queue.
        assert_eq!(a.send(b"bbbb"), SendOutcome::Queued);
        assert_eq!(a.send(b"cccc"), SendOutcome::Queued);
        assert_eq!(a.send(b"dddd"), SendOutcome::Queued);
        assert_eq!(a.backlog_len(), 3);

        let report = a.process_pending();
        assert_eq!(report.backlog_drained, 3);
        assert!(report.packed, "same-size run packs into one frame");
        assert_eq!(a.stats().packed_frames, 1);
        assert_eq!(a.stats().frames_out, 2, "one plain + one packed frame");

        let got = shuttle(&mut a, &mut b);
        assert_eq!(
            got,
            vec![
                b"aaaa".to_vec(),
                b"bbbb".to_vec(),
                b"cccc".to_vec(),
                b"dddd".to_vec()
            ]
        );
        assert_eq!(b.stats().msgs_delivered, 4);
    }

    #[test]
    fn different_size_backlog_drains_same_size_runs() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        a.send(b"x");
        a.send(b"yy"); // queued, size 2
        a.send(b"zz"); // queued, size 2
        a.send(b"w"); // queued, size 1
        a.process_pending(); // drains the [yy,zz] run packed
        a.process_pending(); // drains [w]
        a.process_pending();
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got.len(), 4);
        assert_eq!(got[1], b"yy".to_vec());
        assert_eq!(got[3], b"w".to_vec());
    }

    #[test]
    fn variable_packing_packs_mixed_sizes() {
        let cfg = PaConfig {
            variable_packing: true,
            ..PaConfig::paper_default()
        };
        let (mut a, mut b, ..) = pair(cfg);
        a.send(b"x");
        a.send(b"yy");
        a.send(b"z");
        let report = a.process_pending();
        assert_eq!(report.backlog_drained, 2);
        assert!(report.packed);
        a.process_pending();
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![b"x".to_vec(), b"yy".to_vec(), b"z".to_vec()]);
    }

    #[test]
    fn eager_mode_never_queues() {
        let cfg = PaConfig {
            lazy_post: false,
            ..PaConfig::paper_default()
        };
        let (mut a, mut b, ca, _cb) = pair(cfg);
        for i in 0..4u8 {
            let outcome = a.send(&[i; 8]);
            assert!(
                matches!(outcome, SendOutcome::FastPath | SendOutcome::Queued),
                "{outcome:?}"
            );
            assert!(!a.has_pending(), "eager mode drains immediately");
        }
        assert_eq!(ca.post_sends.load(Ordering::Relaxed), 4);
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn no_predict_takes_slow_path() {
        let cfg = PaConfig {
            predict: false,
            lazy_post: false,
            ..PaConfig::paper_default()
        };
        let (mut a, mut b, ca, cb) = pair(cfg);
        a.send(b"slow");
        assert_eq!(ca.pre_sends.load(Ordering::Relaxed), 1, "layer entered");
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![b"slow".to_vec()]);
        assert!(cb.pre_delivers.load(Ordering::Relaxed) >= 1);
        assert_eq!(a.stats().slow_sends, 1);
    }

    #[test]
    fn baseline_config_works_end_to_end() {
        let (mut a, mut b, ..) = pair(PaConfig::no_pa_baseline());
        for i in 0..3u8 {
            a.send(&[i]);
            let got = shuttle(&mut a, &mut b);
            assert_eq!(got, vec![vec![i]]);
        }
        assert_eq!(a.stats().fast_sends, 0);
        assert_eq!(b.stats().fast_deliveries, 0);
        assert_eq!(a.stats().ident_frames_out, 3, "ident on every frame");
    }

    #[test]
    fn corrupted_frame_rejected_by_filter_then_layer() {
        let (mut a, mut b, _ca, cb) = pair(PaConfig::paper_default());
        a.send(b"fragile payload");
        let mut frame = a.poll_transmit().unwrap();
        let n = frame.len() - 1;
        frame.set_byte_at(n, frame.byte_at(n) ^ 0xFF);
        let out = b.deliver_frame(frame);
        // The delivery filter catches the checksum mismatch, forcing the
        // slow path; the layer (which has no checksum logic) continues,
        // so the corrupt message is delivered by this minimal stack —
        // what matters here is the path taken.
        assert!(matches!(out, DeliverOutcome::Slow { .. }), "{out:?}");
        assert_eq!(b.stats().recv_filter_misses, 1);
        let _ = cb;
    }

    #[test]
    fn out_of_order_sequence_dropped_by_layer() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        // First frame delivered normally (teaches b the cookie).
        a.send(b"first");
        shuttle(&mut a, &mut b);
        a.process_pending();
        b.process_pending();
        // Second frame lost; third arrives out of sequence.
        a.send(b"second");
        a.process_pending();
        a.send(b"third");
        let _lost = a.poll_transmit().unwrap();
        let frame = a.poll_transmit().unwrap();
        let out = b.deliver_frame(frame);
        assert!(matches!(out, DeliverOutcome::Slow { msgs: 0 }), "{out:?}");
        assert_eq!(b.stats().predict_misses, 1);
        assert_eq!(b.stats().drops_by_layer, 1);
        assert!(b.poll_delivery().is_none());
    }

    #[test]
    fn arrival_defers_send_posts_but_drains_recv_posts() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        // b sends something so it has pending *send-side* post work.
        b.send(b"outbound");
        assert!(b.has_pending_send());
        // Two inbound frames: the second arrival must drain the first
        // frame's post-deliver (receive state currency) while leaving
        // b's post-send deferred (Figure 4's sender-side laziness).
        a.send(b"inbound-1");
        let f1 = a.poll_transmit().unwrap();
        b.deliver_frame(f1);
        assert!(b.has_pending_recv());
        assert_eq!(b.stats().post_sends, 0, "send post still deferred");
        a.process_pending();
        a.send(b"inbound-2");
        let f2 = a.poll_transmit().unwrap();
        b.deliver_frame(f2);
        assert_eq!(b.stats().post_delivers, 1, "first recv post drained");
        assert_eq!(b.stats().post_sends, 0, "send post still deferred");
        b.process_pending();
        assert_eq!(b.stats().post_sends, 1);
        assert_eq!(b.poll_delivery().unwrap().as_slice(), b"inbound-1");
        assert_eq!(b.poll_delivery().unwrap().as_slice(), b"inbound-2");
    }

    #[test]
    fn cross_byte_order_peers_interoperate() {
        let (la, _ca) = seq_layer();
        let (lb, _cb) = seq_layer();
        let mut a = Connection::new(
            vec![Box::new(la)],
            PaConfig::paper_default(),
            ConnectionParams {
                local: EndpointAddr::from_parts(1, 7),
                peer: EndpointAddr::from_parts(2, 7),
                seed: 1,
                order: ByteOrder::Little,
            },
        )
        .unwrap();
        let mut b = Connection::new(
            vec![Box::new(lb)],
            PaConfig::paper_default(),
            ConnectionParams {
                local: EndpointAddr::from_parts(2, 7),
                peer: EndpointAddr::from_parts(1, 7),
                seed: 2,
                order: ByteOrder::Big,
            },
        )
        .unwrap();
        for i in 0..3u8 {
            a.send(&[i, i]);
            let got = shuttle(&mut a, &mut b);
            assert_eq!(got, vec![vec![i, i]], "message {i}");
            a.process_pending();
            b.process_pending();
        }
        // After the first (ident-carrying, slow-ish) message, fast
        // deliveries should kick in despite the order difference.
        assert!(b.stats().fast_deliveries >= 2, "{:?}", b.stats());
    }

    #[test]
    fn null_stack_connection_works() {
        let mut a = Connection::new(
            vec![Box::new(NullLayer)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 1),
                EndpointAddr::from_parts(2, 1),
                5,
            ),
        )
        .unwrap();
        let mut b = Connection::new(
            vec![Box::new(NullLayer)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(2, 1),
                EndpointAddr::from_parts(1, 1),
                6,
            ),
        )
        .unwrap();
        a.send(b"empty stack");
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![b"empty stack".to_vec()]);
    }

    #[test]
    fn stack_fingerprint_mismatch_drops_frames() {
        // A peer with a different stack computes a different layout
        // fingerprint, hence a different conn-ident: frames don't match.
        let (la, _) = seq_layer();
        let mut a = Connection::new(
            vec![Box::new(la)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(1, 1),
                EndpointAddr::from_parts(2, 1),
                5,
            ),
        )
        .unwrap();
        let mut b = Connection::new(
            vec![Box::new(NullLayer)], // different stack!
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(2, 1),
                EndpointAddr::from_parts(1, 1),
                6,
            ),
        )
        .unwrap();
        a.send(b"hello?");
        let frame = a.poll_transmit().unwrap();
        let out = b.deliver_frame(frame);
        assert!(matches!(out, DeliverOutcome::Dropped(_)), "{out:?}");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        a.send(b"");
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn large_payload_without_frag_layer_still_travels() {
        // The SeqLayer stack has no fragmentation and no size filter, so
        // a large message simply rides a large frame.
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        let big = vec![0x5Au8; 10_000];
        a.send(&big);
        let got = shuttle(&mut a, &mut b);
        assert_eq!(got, vec![big]);
    }

    #[test]
    fn interleaved_bidirectional_fast_paths() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        for i in 0..10u8 {
            a.send(&[b'a', i]);
            b.send(&[b'b', i]);
            // Exchange both directions.
            while let Some(f) = a.poll_transmit() {
                b.deliver_frame(f);
            }
            while let Some(f) = b.poll_transmit() {
                a.deliver_frame(f);
            }
            a.process_pending();
            b.process_pending();
        }
        let mut got_b = Vec::new();
        while let Some(m) = b.poll_delivery() {
            got_b.push(m.to_wire());
        }
        let mut got_a = Vec::new();
        while let Some(m) = a.poll_delivery() {
            got_a.push(m.to_wire());
        }
        assert_eq!(got_b.len(), 10);
        assert_eq!(got_a.len(), 10);
        assert!(a.stats().fast_send_ratio() > 0.8);
        assert!(b.stats().fast_send_ratio() > 0.8);
    }

    #[test]
    fn counting_probe_mirrors_stats_and_noop_stays_inert() {
        // The same workload through a Noop probe and a counting probe:
        // the Noop connection must record nothing (no ring, no counts),
        // and the counting connection's event tallies must reconcile
        // with its ConnStats counters exactly.
        let run = |probe: Option<pa_obs::ProbeSink>| {
            let (mut a, mut b, ..) = pair(PaConfig::paper_default());
            if let Some(p) = probe.clone() {
                a.set_probe(p.clone());
                b.set_probe(p);
            }
            for i in 0..6u8 {
                a.send(&[i; 4]);
                a.send(&[i; 4]); // queued (post pending)
                shuttle(&mut a, &mut b);
                a.process_pending();
                a.process_pending();
                shuttle(&mut a, &mut b);
                b.process_pending();
            }
            (a, b)
        };

        let (a, b) = run(None);
        assert!(!a.probe().enabled());
        assert!(a.probe().counts().is_none());
        assert!(a.probe().trace_ring().is_none());
        assert!(a.stats().fast_sends > 0 && a.stats().queued_sends > 0);

        let (a2, b2) = run(Some(pa_obs::ProbeSink::counting()));
        let ca = a2.probe().counts().unwrap();
        assert_eq!(ca.fast_sends, a2.stats().fast_sends);
        assert_eq!(ca.queued, a2.stats().queued_sends);
        assert_eq!(ca.slow_sends, a2.stats().slow_sends);
        assert!(ca.backlog_drains > 0);
        let cb = b2.probe().counts().unwrap();
        assert_eq!(cb.fast_delivers, b2.stats().fast_deliveries);
        assert_eq!(cb.slow_delivers, b2.stats().slow_deliveries);
        // Workload identical with probes attached.
        assert_eq!(a.stats(), a2.stats());
        assert_eq!(b.stats(), b2.stats());
    }

    #[test]
    fn dropped_outcome_increments_exactly_one_drop_counter() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        a.send(b"hello");
        shuttle(&mut a, &mut b);
        a.process_pending();
        b.process_pending();

        // Checks one bad frame: the outcome names a reason, frames_in
        // advances by one, NO delivery is counted, and exactly one drop
        // counter moves — by exactly one.
        let case = |b: &mut Connection, frame: Msg, expect: DropReason, counter: &str| {
            let before = *b.stats();
            let out = b.deliver_frame(frame);
            assert_eq!(out, DeliverOutcome::Dropped(expect), "{counter}");
            let after = *b.stats();
            assert_eq!(after.frames_in, before.frames_in + 1, "{counter}");
            assert_eq!(after.fast_deliveries, before.fast_deliveries, "{counter}");
            assert_eq!(after.slow_deliveries, before.slow_deliveries, "{counter}");
            let drop_names = [
                "drops_unknown_cookie",
                "drops_by_layer",
                "drops_malformed",
                "drops_send_rejected",
            ];
            for ((name, v0), (_, v1)) in before.fields().iter().zip(after.fields()) {
                if drop_names.contains(name) {
                    let want = if *name == counter { *v0 + 1 } else { *v0 };
                    assert_eq!(v1, want, "{counter}: counter {name}");
                }
            }
            assert!(after.delivery_balanced(), "{counter}:\n{after}");
            // The structured ledger moved by exactly one, in exactly
            // the named reason, and still reconciles with the coarse
            // drop counters.
            assert_eq!(
                after.rejects.get(expect),
                before.rejects.get(expect) + 1,
                "{counter}: reject ledger"
            );
            assert_eq!(
                after.rejects.total(),
                before.rejects.total() + 1,
                "{counter}: exactly one reject counted"
            );
            assert!(after.rejects_reconcile(), "{counter}:\n{after}");
        };

        // Malformed: too short for even a preamble.
        case(
            &mut b,
            Msg::from_wire(vec![1, 2, 3]),
            DropReason::TruncatedPreamble,
            "drops_malformed",
        );

        // Unknown cookie: a real frame whose cookie bits got flipped
        // (byte 7 is pure cookie; no conn-ident to recover by).
        a.send(b"again");
        let mut f = a.poll_transmit().unwrap();
        f.set_byte_at(7, f.byte_at(7) ^ 0xFF);
        case(&mut b, f, DropReason::UnknownCookie, "drops_unknown_cookie");

        // Foreign ident: the first frame of an unrelated connection
        // carries a conn-ident naming other endpoints.
        let (third, _) = seq_layer();
        let mut c = Connection::new(
            vec![Box::new(third)],
            PaConfig::paper_default(),
            ConnectionParams::new(
                EndpointAddr::from_parts(8, 7),
                EndpointAddr::from_parts(9, 7),
                77,
            ),
        )
        .unwrap();
        c.send(b"not for b");
        let foreign = c.poll_transmit().unwrap();
        case(
            &mut b,
            foreign,
            DropReason::ForeignIdent,
            "drops_unknown_cookie",
        );
    }

    #[test]
    fn ring_probe_carries_miss_cause_before_slow_event() {
        use pa_obs::TraceEvent as E;
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        b.set_probe(pa_obs::ProbeSink::ring(64));
        // Teach b the cookie, then skip a frame to force a predict miss.
        a.send(b"first");
        shuttle(&mut a, &mut b);
        a.process_pending();
        b.process_pending();
        a.send(b"second");
        a.process_pending();
        a.send(b"third");
        let _lost = a.poll_transmit().unwrap();
        let frame = a.poll_transmit().unwrap();
        b.deliver_frame(frame);

        let ring = b.probe().trace_ring().unwrap();
        let records = ring.records();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        let miss = kinds
            .iter()
            .position(|k| *k == "predict-miss")
            .expect("miss diagnosed");
        let slow = kinds
            .iter()
            .position(|k| *k == "slow-deliver")
            .expect("slow path taken");
        assert!(miss < slow, "cause precedes the slow event: {kinds:?}");
        // The diagnosed field carries the observed vs expected values.
        let Some(E::PredictMiss { expected, got, .. }) = records
            .iter()
            .map(|r| r.event)
            .find(|e| matches!(e, E::PredictMiss { .. }))
        else {
            panic!("no predict-miss event");
        };
        assert_ne!(expected, got);
        // The out-of-sequence drop is also recorded with its layer.
        assert!(records.iter().any(|r| matches!(
            r.event,
            E::Drop {
                reason: pa_obs::DropCause::ByLayer(_)
            }
        )));
    }

    #[test]
    fn filter_reject_event_names_deciding_instruction() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        b.set_probe(pa_obs::ProbeSink::ring(32));
        a.send(b"fragile payload");
        let mut frame = a.poll_transmit().unwrap();
        let n = frame.len() - 1;
        frame.set_byte_at(n, frame.byte_at(n) ^ 0xFF);
        b.deliver_frame(frame);
        let ring = b.probe().trace_ring().unwrap();
        let reject = ring
            .records()
            .iter()
            .find_map(|r| match r.event {
                pa_obs::TraceEvent::FilterReject { pc, op } => Some((pc, op)),
                _ => None,
            })
            .expect("filter reject recorded");
        assert_eq!(reject.1, "ABORT", "checksum mismatch fires an ABORT");
    }

    #[test]
    fn stats_fast_ratio_reflects_paths() {
        let (mut a, mut b, ..) = pair(PaConfig::paper_default());
        for _ in 0..10 {
            a.send(b"payload!");
            shuttle(&mut a, &mut b);
            a.process_pending();
            b.process_pending();
        }
        assert!(a.stats().fast_send_ratio() > 0.9);
        assert!(b.stats().fast_delivery_ratio() > 0.9);
    }

    // ------------------------------------------------------------------
    // In-band trace context (journeys)
    // ------------------------------------------------------------------

    fn traced_config() -> PaConfig {
        let mut c = PaConfig::paper_default();
        c.trace_ctx = true;
        c
    }

    #[test]
    fn trace_ctx_off_declares_nothing() {
        let (a, ..) = pair(PaConfig::paper_default());
        assert!(!a.trace_ctx_enabled());
        assert!(a.last_sent_trace().is_none());
        // And the layout is identical to an untraced stack (the golden
        // byte-for-byte check lives in tests/wire_format.rs).
        let (t, ..) = pair(traced_config());
        assert!(t.trace_ctx_enabled());
        assert!(
            t.layout().class_len(Class::Message) > a.layout().class_len(Class::Message),
            "trace fields widen the Message class only when opted in"
        );
    }

    #[test]
    fn fast_path_stamps_a_fresh_journey_per_frame() {
        let (mut a, mut b, ..) = pair(traced_config());
        a.set_probe(pa_obs::ProbeSink::ring(64));
        b.set_probe(pa_obs::ProbeSink::ring(64));

        assert_eq!(a.send(b"m0"), SendOutcome::FastPath);
        let (j0, h0) = a.last_sent_trace().unwrap();
        assert_ne!(j0, 0);
        assert_eq!(h0, 0);
        assert_eq!(pa_obs::journey_origin(j0), a.trace_origin());
        assert_eq!(pa_obs::journey_seq(j0), 1, "minting starts at 1");

        shuttle(&mut a, &mut b);
        assert_eq!(b.last_recv_trace(), Some((j0, 0)));
        a.process_pending();

        assert_eq!(a.send(b"m1"), SendOutcome::FastPath);
        let (j1, _) = a.last_sent_trace().unwrap();
        assert_eq!(pa_obs::journey_seq(j1), 2, "each frame mints anew");
        shuttle(&mut a, &mut b);

        // Both rings join into complete journeys.
        let set = pa_obs::JourneySet::reconstruct(&[
            a.probe().trace_ring().unwrap(),
            b.probe().trace_ring().unwrap(),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.complete_count(), 2);
        assert_eq!(set.orphan_delivers, 0);
    }

    #[test]
    fn slow_and_queued_paths_stamp_too() {
        let mut config = traced_config();
        config.predict = false; // every send takes the slow path
        let (mut a, mut b, ..) = pair(config);
        a.set_probe(pa_obs::ProbeSink::ring(64));
        b.set_probe(pa_obs::ProbeSink::ring(64));
        assert_eq!(a.send(b"slow"), SendOutcome::SlowPath);
        shuttle(&mut a, &mut b);
        let set = pa_obs::JourneySet::reconstruct(&[
            a.probe().trace_ring().unwrap(),
            b.probe().trace_ring().unwrap(),
        ]);
        assert_eq!(set.complete_count(), 1, "slow path carries the stamp");
    }

    #[test]
    fn relay_continuation_preserves_journey_and_bumps_hop() {
        // a → b, then b relays to c (a fresh connection pair) carrying
        // the same journey at hop 1.
        let (mut a, mut b, ..) = pair(traced_config());
        let (mut b2, mut c, ..) = {
            let (lb, cb) = seq_layer();
            let (lc, cc) = seq_layer();
            let b2 = Connection::new(
                vec![Box::new(lb)],
                traced_config(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(2, 8),
                    EndpointAddr::from_parts(3, 8),
                    3,
                ),
            )
            .unwrap();
            let c = Connection::new(
                vec![Box::new(lc)],
                traced_config(),
                ConnectionParams::new(
                    EndpointAddr::from_parts(3, 8),
                    EndpointAddr::from_parts(2, 8),
                    4,
                ),
            )
            .unwrap();
            (b2, c, cb, cc)
        };
        for conn in [&mut a, &mut b, &mut b2, &mut c] {
            conn.set_probe(pa_obs::ProbeSink::ring(64));
        }

        a.send(b"hop0");
        shuttle(&mut a, &mut b);
        let (j, h) = b.last_recv_trace().unwrap();
        assert_eq!(h, 0);

        // The relay host forwards on its second leg.
        b2.set_next_trace(j, h + 1);
        b2.send(b"hop1");
        let (j1, h1) = b2.last_sent_trace().unwrap();
        assert_eq!((j1, h1), (j, 1), "continuation, not a fresh mint");
        shuttle(&mut b2, &mut c);
        assert_eq!(c.last_recv_trace(), Some((j, 1)));
        b2.process_pending();

        // The next b2 send mints its own journey again.
        b2.send(b"fresh");
        let (j2, h2) = b2.last_sent_trace().unwrap();
        assert_ne!(j2, j);
        assert_eq!(h2, 0);
        assert_eq!(pa_obs::journey_origin(j2), b2.trace_origin());

        // Reconstruction across all four rings shows one two-hop
        // journey (complete on both legs).
        let set = pa_obs::JourneySet::reconstruct(&[
            a.probe().trace_ring().unwrap(),
            b.probe().trace_ring().unwrap(),
            b2.probe().trace_ring().unwrap(),
            c.probe().trace_ring().unwrap(),
        ]);
        let two_hop = set.get(j).expect("relayed journey reconstructed");
        assert_eq!(two_hop.hops.len(), 2);
        assert!(two_hop.is_complete());
    }

    #[test]
    fn untraced_peer_frame_diverts_to_slow_path() {
        // A tracing receiver never fast-delivers a journey-0 frame: the
        // delivery filter aborts with TRACE_MISSING and the layered
        // traversal handles it. (Same-fingerprint peers always agree on
        // trace_ctx; this exercises the defensive check with a frame
        // whose trace field was zeroed in flight.)
        let (mut a, mut b, ..) = pair(traced_config());
        b.set_probe(pa_obs::ProbeSink::ring(64));
        a.send(b"payload");
        let mut frame = a.poll_transmit().unwrap();
        // Zero the journey field bytes in the Message class. The frame
        // starts with preamble + conn-ident (first frame), so locate the
        // Message class from the back: [... proto | message | gossip |
        // packing+payload].
        let jf = a.trace_journey.unwrap();
        let layout = a.layout().clone();
        let msg_len = layout.class_len(Class::Message);
        let gossip = layout.class_len(Class::Gossip);
        let body = b"payload".len() + 1; // packing byte
        let msg_start = frame.len() - body - gossip - msg_len;
        let mut class = frame.get(msg_start, msg_len).unwrap().to_vec();
        layout.write_field(jf, &mut class, a.order, 0);
        for (i, byte) in class.iter().enumerate() {
            frame.set_byte_at(msg_start + i, *byte);
        }
        // The checksum does not cover the Message class, so the frame
        // is otherwise valid.
        let outcome = b.deliver_frame(frame);
        assert!(matches!(outcome, DeliverOutcome::Slow { msgs: 1 }));
        assert!(b.last_recv_trace().is_none(), "journey 0 is not recorded");
        let ring = b.probe().trace_ring().unwrap();
        assert!(
            ring.records().iter().any(|r| matches!(
                r.event,
                TraceEvent::SlowDeliver {
                    cause: SlowCause::FilterReject
                }
            )),
            "diverted by the delivery filter"
        );
    }

    #[test]
    fn journeys_cost_nothing_without_probe() {
        // trace_ctx on but probe off: frames carry stamps (the wire
        // format is a contract with the peer), yet no events are
        // emitted anywhere.
        let (mut a, mut b, ..) = pair(traced_config());
        a.send(b"m");
        shuttle(&mut a, &mut b);
        assert!(a.last_sent_trace().is_some());
        assert!(b.last_recv_trace().is_some());
        assert!(a.probe().counts().is_none() && a.probe().trace_ring().is_none());
    }
}
