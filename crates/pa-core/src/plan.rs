//! What a stack compiles to, built once per stack shape and shared (§2.1,
//! §3.3).
//!
//! The paper compiles the header layout and the two packet filters
//! "when a stack is set up". Everything that compilation produces is a
//! function of what the layers declared — so connections whose layers
//! declare the same things hold one [`StackPlan`] between them, by
//! `Arc`, and own only their state.
//!
//! What a layer declares is a value, its [`LayerShape`]: equal shapes
//! under equal names declare equal things by construction. The registry
//! is keyed on `(layout mode, trace context, [(name, shape)])`.
//! [`plan_for`] compares those few values per layer against each live
//! plan's key and, on a hit, declares nothing. On a miss it declares
//! into a fresh [`Transcript`] — the engine's conn-ident fields, every
//! layer's shape, the trace context's — and compiles, verifies and fuses
//! it; the plan keeps the handles each layer's declarations returned,
//! which [`Connection::new`] hands to the layers on every build.
//!
//! [`Connection::new`]: crate::Connection::new

use crate::conn::SetupError;
use crate::layer::{Declare, HandleLog, Handles, Layer, LayerShape};
use pa_buf::ByteOrder;
use pa_filter::{FusedProgram, Op, Program, ProgramBuilder};
use pa_wire::{Class, CompiledLayout, EndpointAddr, LayoutBuilder, LayoutError, LayoutMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Delivery-filter verdict for a frame that should carry a trace
/// context but doesn't (journey id 0): a conforming tracing peer always
/// fills the field, so such a frame is diverted to the slow path.
const TRACE_MISSING: i64 = 77;

/// The engine's own conn-ident contribution, declared first as layer
/// `"pa"`: the endpoint addresses and the stack fingerprint (detects
/// mismatched stacks at setup) — realistic large identification, like
/// the ~76 bytes Horus carries (§2.2).
const IDENT: LayerShape = LayerShape::new(declare_ident, []);

/// The in-band trace context (`PaConfig::trace_ctx`), declared last as
/// layer `"trace"` when on.
const TRACE: LayerShape = LayerShape::new(declare_trace, []);

fn declare_ident(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
    let addr_bits = (EndpointAddr::WIRE_LEN * 8) as u32;
    d.add_field(Class::ConnId, "src_endpoint", addr_bits, None)?;
    d.add_field(Class::ConnId, "dst_endpoint", addr_bits, None)?;
    d.add_field(Class::ConnId, "stack_fingerprint", 64, None)?;
    Ok(())
}

/// A journey id and hop counter in the Message Specific class, declared
/// like any layer's fields and *filled by the send filter* from
/// patchable slots. Checksum fragments never cover the Message class,
/// so filter-written trace fields cannot invalidate a digest.
fn declare_trace(d: &mut Declare<'_>, _: &[i64]) -> Result<(), LayoutError> {
    let journey = d.add_field(Class::Message, "trace_journey", 64, None)?;
    let hop = d.add_field(Class::Message, "trace_hop", 8, None)?;
    let journey_slot = d.send_slot(0);
    let hop_slot = d.send_slot(0);
    d.send_filter([
        Op::PushSlot(journey_slot),
        Op::PopField(journey),
        Op::PushSlot(hop_slot),
        Op::PopField(hop),
    ]);
    // Delivery side: a conforming tracing peer never sends journey 0,
    // so divert such frames to the slow path.
    d.recv_filter([
        Op::PushField(journey),
        Op::PushConst(0),
        Op::Eq,
        Op::Abort(TRACE_MISSING),
    ]);
    Ok(())
}

/// `[start, end)` of the instructions one layer contributed to a
/// filter, and the layer's name.
type Span = (usize, usize, &'static str);

/// One filter as the layers assemble it.
struct FilterDraft {
    program: ProgramBuilder,
    spans: Vec<Span>,
}

impl FilterDraft {
    /// Room for the paper stack's fragments plus the trace context's.
    fn new() -> FilterDraft {
        FilterDraft {
            program: ProgramBuilder::with_capacity(16),
            spans: Vec::with_capacity(8),
        }
    }

    /// Records the instructions appended since `start` as `layer`'s.
    fn close_span(&mut self, start: usize, layer: &'static str) {
        self.spans.push((start, self.program.len(), layer));
    }
}

/// Everything one stack's declarations wrote, and the handles they
/// returned.
struct Transcript {
    layout: LayoutBuilder,
    send: FilterDraft,
    recv: FilterDraft,
    handles: HandleLog,
}

impl Transcript {
    /// Runs `shape`'s declarations as layer `name`, recording each
    /// filter's span so a later rejection's deciding instruction can be
    /// charged to its layer.
    fn declare(&mut self, name: &'static str, shape: &LayerShape) -> Result<(), SetupError> {
        let (s0, r0) = (self.send.program.len(), self.recv.program.len());
        shape
            .declare(
                name,
                &mut self.layout,
                &mut self.send.program,
                &mut self.recv.program,
                &mut self.handles,
            )
            .map_err(SetupError::Layout)?;
        self.send.close_span(s0, name);
        self.recv.close_span(r0, name);
        Ok(())
    }
}

/// One direction's filter, compiled: the verified program (its slots
/// hold the *initial* values; connections patch their own copies), its
/// fused form in each byte order — connections hold a clone, which
/// shares the instructions — and who contributed which instructions.
pub(crate) struct FilterPlan {
    pub(crate) program: Program,
    /// Indexed big-endian, little-endian.
    fused: [FusedProgram; 2],
    spans: Vec<Span>,
}

impl FilterPlan {
    fn build(draft: FilterDraft, layout: &CompiledLayout) -> Result<FilterPlan, SetupError> {
        let program = draft.program.build().map_err(SetupError::Filter)?;
        let fused = [ByteOrder::Big, ByteOrder::Little]
            .map(|order| FusedProgram::fuse(&program, layout, order));
        Ok(FilterPlan {
            program,
            fused,
            spans: draft.spans,
        })
    }

    /// The program with `order` baked in.
    pub(crate) fn fused(&self, order: ByteOrder) -> &FusedProgram {
        match order {
            ByteOrder::Big => &self.fused[0],
            ByteOrder::Little => &self.fused[1],
        }
    }

    /// The layer charged with the instruction at `pc` (`"pa"` for
    /// engine-contributed instructions).
    pub(crate) fn layer_at(&self, pc: u16) -> &'static str {
        let pc = pc as usize;
        self.spans
            .iter()
            .find(|(s, e, _)| pc >= *s && pc < *e)
            .map_or("pa", |&(_, _, name)| name)
    }

    /// Mnemonic of the instruction at `pc`, which a filter run named as
    /// the one that refused a frame.
    pub(crate) fn op_at(&self, pc: u16) -> &'static str {
        self.program.ops()[pc as usize].name()
    }
}

/// The immutable product of one stack shape's declarations.
pub(crate) struct StackPlan {
    pub(crate) layout: CompiledLayout,
    pub(crate) send: FilterPlan,
    pub(crate) recv: FilterPlan,
    /// Per declaring layer — `"pa"`, the stack's layers bottom first,
    /// then `"trace"` if on — the handles its declarations returned.
    handles: HandleLog,
}

// A plan is shared by connections on any thread.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<StackPlan>()
};

impl StackPlan {
    /// Declares the engine's conn-ident fields, every layer's shape and,
    /// with `trace` on, the trace context into a fresh transcript, then
    /// compiles the layout, verifies both filters and fuses each in both
    /// byte orders — out of the transcript's own tables.
    fn build(
        layers: &[Box<dyn Layer>],
        mode: LayoutMode,
        trace: bool,
    ) -> Result<StackPlan, SetupError> {
        let mut t = Transcript {
            layout: LayoutBuilder::new(),
            send: FilterDraft::new(),
            recv: FilterDraft::new(),
            handles: HandleLog::new(),
        };
        t.declare("pa", &IDENT)?;
        for layer in layers {
            t.declare(layer.name(), &layer.shape())?;
        }
        if trace {
            t.declare("trace", &TRACE)?;
        }
        let layout = t.layout.into_layout(mode).map_err(SetupError::Layout)?;
        let send = FilterPlan::build(t.send, &layout)?;
        let recv = FilterPlan::build(t.recv, &layout)?;
        Ok(StackPlan {
            layout,
            send,
            recv,
            handles: t.handles,
        })
    }

    /// The handles of declaring layer `i`: 0 is the engine's conn-ident
    /// fields, `1..=n` the stack's layers, `n + 1` the trace context.
    pub(crate) fn handles(&self, i: usize) -> Handles<'_> {
        self.handles.of(i)
    }
}

/// A registry entry: a plan and the key it was declared from.
struct Entry {
    mode: LayoutMode,
    trace: bool,
    layers: Box<[(&'static str, LayerShape)]>,
    plan: Weak<StackPlan>,
}

impl Entry {
    fn keyed(&self, layers: &[Box<dyn Layer>], mode: LayoutMode, trace: bool) -> bool {
        self.mode == mode
            && self.trace == trace
            && self.layers.len() == layers.len()
            && self
                .layers
                .iter()
                .zip(layers)
                .all(|(&(name, shape), layer)| name == layer.name() && shape == layer.shape())
    }
}

/// Every plan some connection in this process still holds, with its
/// key. Weak, so a stack's plan goes when its last connection does; a
/// handful of entries, scanned in order.
static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// The plan for `layers` in `mode`, with the trace context or without:
/// the live one keyed on the same names and shapes if there is one,
/// otherwise a new one. A stack that fails to declare, compile or
/// verify registers nothing.
pub(crate) fn plan_for(
    layers: &[Box<dyn Layer>],
    mode: LayoutMode,
    trace: bool,
) -> Result<Arc<StackPlan>, SetupError> {
    // The list is valid after every step of every update, so a panic
    // under the lock (a layer's filter naming a field it never declared
    // panics the fuse) leaves nothing to repair.
    let mut entries = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let live = entries
        .iter()
        .filter(|e| e.keyed(layers, mode, trace))
        .find_map(|e| e.plan.upgrade());
    if let Some(plan) = live {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(plan);
    }
    let plan = Arc::new(StackPlan::build(layers, mode, trace)?);
    BUILDS.fetch_add(1, Ordering::Relaxed);
    entries.retain(|e| e.plan.strong_count() > 0);
    entries.push(Entry {
        mode,
        trace,
        layers: layers.iter().map(|l| (l.name(), l.shape())).collect(),
        plan: Arc::downgrade(&plan),
    });
    Ok(plan)
}

/// Records the registry's counters under `scope`: plans alive now, and
/// lookups answered by an existing plan (a shape match) and by compiling
/// a new one since the process started. A host whose `plan_builds` grows
/// with its connection count is compiling per connection.
pub(crate) fn record_into(snap: &mut pa_obs::MetricsSnapshot, scope: &str) {
    let entries = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let live = entries.iter().filter(|e| e.plan.strong_count() > 0).count();
    drop(entries);
    snap.record(scope, "plans_live", live as u64);
    snap.record(scope, "plan_hits", HITS.load(Ordering::Relaxed));
    snap.record(scope, "plan_builds", BUILDS.load(Ordering::Relaxed));
}
