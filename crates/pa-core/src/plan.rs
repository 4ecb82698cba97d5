//! What a stack compiles to, built once and shared (§2.1, §3.3).
//!
//! The paper compiles the header layout and the two packet filters
//! "when a stack is set up". Everything that compilation produces is a
//! function of what the layers declared — so connections whose layers
//! declared the same things hold one [`StackPlan`] between them, by
//! `Arc`, and own only their state.
//!
//! [`Connection::new`] still runs every layer's `init` (layers keep the
//! `Field` and `SlotId` handles it returns), into a [`Transcript`]. That
//! transcript is the lookup key: [`plan_for`] hands back the live plan
//! built from an *equal* one — declarations, instructions, initial slot
//! values, span boundaries and layout mode compared exactly, never by
//! hash — and compiles, verifies and fuses only when there is none.
//!
//! [`Connection::new`]: crate::Connection::new

use crate::conn::SetupError;
use pa_buf::ByteOrder;
use pa_filter::{FusedProgram, Program, ProgramBuilder};
use pa_wire::{CompiledLayout, LayoutBuilder, LayoutMode};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// `[start, end)` of the instructions one layer contributed to a
/// filter, and the layer's name.
type Span = (usize, usize, &'static str);

/// One filter as the layers assemble it.
pub(crate) struct FilterDraft {
    pub(crate) program: ProgramBuilder,
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
    pub(crate) fn close_span(&mut self, start: usize, layer: &'static str) {
        self.spans.push((start, self.program.len(), layer));
    }

    fn clear(&mut self) {
        self.program.clear();
        self.spans.clear();
    }
}

/// Everything one run of a stack's `init`s declared.
pub(crate) struct Transcript {
    pub(crate) layout: LayoutBuilder,
    pub(crate) send: FilterDraft,
    pub(crate) recv: FilterDraft,
}

thread_local! {
    /// The transcript the last build on this thread wrote, kept for its
    /// storage: declaring into it again allocates nothing.
    static SCRATCH: Cell<Option<Box<Transcript>>> = const { Cell::new(None) };
}

/// Runs `declare` over an empty transcript. The transcript is taken out
/// of the thread's scratch for the duration, so a nested call (or one
/// after a panic in `declare`) simply starts from a fresh one.
pub(crate) fn with_transcript<R>(declare: impl FnOnce(&mut Transcript) -> R) -> R {
    let mut t = SCRATCH.take().unwrap_or_else(|| {
        Box::new(Transcript {
            layout: LayoutBuilder::new(),
            send: FilterDraft::new(),
            recv: FilterDraft::new(),
        })
    });
    t.layout.clear();
    t.send.clear();
    t.recv.clear();
    let out = declare(&mut t);
    SCRATCH.set(Some(t));
    out
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
    fn build(draft: &FilterDraft, layout: &CompiledLayout) -> Result<FilterPlan, SetupError> {
        let program = draft.program.clone().build().map_err(SetupError::Filter)?;
        let fused = [ByteOrder::Big, ByteOrder::Little]
            .map(|order| FusedProgram::fuse(&program, layout, order));
        Ok(FilterPlan {
            program,
            fused,
            spans: draft.spans.clone(),
        })
    }

    fn matches(&self, draft: &FilterDraft) -> bool {
        self.spans == draft.spans && self.program.assembled_from(&draft.program)
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

/// The immutable product of one stack's declarations.
pub(crate) struct StackPlan {
    pub(crate) layout: CompiledLayout,
    pub(crate) send: FilterPlan,
    pub(crate) recv: FilterPlan,
}

// A plan is shared by connections on any thread.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<StackPlan>()
};

impl StackPlan {
    /// Compiles the layout, verifies both filters and fuses each in both
    /// byte orders, from copies of what `t` holds: the plan's tables are
    /// sized to fit, and the transcript keeps its storage.
    fn build(t: &Transcript, mode: LayoutMode) -> Result<StackPlan, SetupError> {
        let layout = t.layout.compile(mode).map_err(SetupError::Layout)?;
        let send = FilterPlan::build(&t.send, &layout)?;
        let recv = FilterPlan::build(&t.recv, &layout)?;
        Ok(StackPlan { layout, send, recv })
    }

    fn matches(&self, t: &Transcript, mode: LayoutMode) -> bool {
        self.layout.mode() == mode
            && self.layout.declared_by(&t.layout)
            && self.send.matches(&t.send)
            && self.recv.matches(&t.recv)
    }
}

/// Every plan some connection in this process still holds. Weak, so a
/// stack's plan goes when its last connection does; a handful of
/// entries, scanned in order.
static REGISTRY: Mutex<Vec<Weak<StackPlan>>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// The plan for what `t` declared in `mode`: the live one built from an
/// equal transcript if there is one, otherwise a new one. A stack that
/// fails to compile or verify registers nothing.
pub(crate) fn plan_for(t: &Transcript, mode: LayoutMode) -> Result<Arc<StackPlan>, SetupError> {
    // The list is valid after every step of every update, so a panic
    // under the lock (a layer's filter naming a field it never declared
    // panics the fuse) leaves nothing to repair.
    let mut plans = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut live = plans.iter().filter_map(Weak::upgrade);
    if let Some(plan) = live.find(|p| p.matches(t, mode)) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(plan);
    }
    let plan = Arc::new(StackPlan::build(t, mode)?);
    BUILDS.fetch_add(1, Ordering::Relaxed);
    plans.retain(|p| p.strong_count() > 0);
    plans.push(Arc::downgrade(&plan));
    Ok(plan)
}

/// Records the registry's counters under `scope`: plans alive now, and
/// lookups answered by an existing plan and by compiling a new one since
/// the process started. A host whose `plan_builds` grows with its
/// connection count is compiling per connection.
pub(crate) fn record_into(snap: &mut pa_obs::MetricsSnapshot, scope: &str) {
    let plans = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let live = plans.iter().filter(|p| p.strong_count() > 0).count();
    drop(plans);
    snap.record(scope, "plans_live", live as u64);
    snap.record(scope, "plan_hits", HITS.load(Ordering::Relaxed));
    snap.record(scope, "plan_builds", BUILDS.load(Ordering::Relaxed));
}
