//! Wait-free multi-core telemetry domains.
//!
//! Everything pa-obs measures so far — counters, sketches, phase
//! meters, ledgers — is single-threaded by construction: one owner
//! mutates, the same owner reads. The moment a second thread appears
//! (ROADMAP's pa-shard and the off-core post drain), naive sharing
//! would either lock the hot path or tear the exact reconciliations
//! this repo gates on. A [`TelemetryDomain`] keeps the single-owner
//! discipline *per thread* and makes the cross-thread view explicit:
//!
//! - **hot-path writes are thread-owned**: every `bump`, sketch
//!   `record`, meter fold and stats fold goes to plain fields owned by
//!   the domain's thread — zero atomics, zero locks, zero allocation
//!   on the recording path;
//! - **publication is a frozen snapshot**: [`TelemetryDomain::publish`]
//!   freezes the counters and the heavy state (meter shards, stats
//!   rows, sketch shard, ledger) into an epoch-stamped [`DomainView`]
//!   in the domain's shared [`DomainCell`], behind a mutex that is
//!   touched *only* at publish/collect time — never per record;
//! - **cross-thread events ride an SPSC ring**: journey/handoff/drain
//!   events go over a bounded wait-free [`crate::spsc`] channel; a
//!   full ring refuses (counted in
//!   [`DomainCounter::EventsRefused`]) rather than blocking the
//!   producing thread;
//! - **global snapshots are epoch-consistent**: a
//!   [`SnapshotCoordinator`] advances a shared epoch, each domain
//!   publishes a frozen view stamped with it, and
//!   [`SnapshotCoordinator::collect`] merges views only once every
//!   domain has reached the epoch (or retired). Ledger invariants —
//!   `delivery_balanced`, `rejects_reconcile`, masking conservation —
//!   are asserted on the merged [`GlobalSnapshot`], never on a torn
//!   intermediate.
//!
//! The merge story leans on PR 6's exactness: sketch shards merge with
//! the canonical-form `==` reconciliation, meter shards are *deltas*
//! that partition the source meters (each thread folds
//! `current − checkpoint` around its own work, so handoff boundaries
//! are consistent cuts), and per-domain [`MaskingLedger`]s merge into
//! one ledger that conserves exactly against the merged phase table.

use crate::critpath::MaskingLedger;
use crate::event::Nanos;
use crate::reject::{RejectBucket, RejectReason};
use crate::sketch::{QuantileSketch, SketchConfig};
use crate::snapshot::MetricsSnapshot;
use crate::spsc::{self, Consumer, Producer};
use crate::xray::{Phase, PhaseMeter, PhaseRow};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a cross-thread [`DomainEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainEventKind {
    /// A job (e.g. a connection's pending post work) was handed to
    /// another thread. `job` is the handoff sequence number.
    HandoffSent {
        /// Handoff sequence number (shared with the receiving side).
        job: u64,
    },
    /// The owning thread picked a handed-off job up.
    HandoffReceived {
        /// Handoff sequence number.
        job: u64,
    },
    /// A drain batch started.
    DrainStart {
        /// Handoff sequence number being drained.
        job: u64,
    },
    /// A drain batch finished.
    DrainDone {
        /// Handoff sequence number drained.
        job: u64,
        /// Post-send phases the batch executed.
        post_sends: u64,
        /// Post-deliver phases the batch executed.
        post_delivers: u64,
    },
    /// The domain published a view for `epoch`.
    Published {
        /// The epoch stamped on the published view.
        epoch: u64,
    },
}

/// One cross-thread telemetry event: fixed-size, `Copy`, cheap enough
/// for the wait-free ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainEvent {
    /// Logical time on the emitting thread.
    pub at: Nanos,
    /// The emitting domain's id.
    pub domain: u32,
    /// Per-domain emission sequence number (gap-free; a gap in the
    /// collected stream means the ring refused — cross-check
    /// [`DomainCounter::EventsRefused`]).
    pub seq: u64,
    /// What happened.
    pub kind: DomainEventKind,
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The POD counters every domain publishes in its view. Fixed slots, so
/// the view holds them as a flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainCounter {
    /// Telemetry record operations (sketch samples, meter folds).
    Records = 0,
    /// Jobs handed *out* to another domain's thread.
    HandoffsOut = 1,
    /// Jobs received from another domain's thread.
    HandoffsIn = 2,
    /// Drain batches executed (e.g. `process_pending` calls).
    DrainBatches = 3,
    /// Post-send phases executed on this domain's thread.
    PostSendPhases = 4,
    /// Post-deliver phases executed on this domain's thread.
    PostDeliverPhases = 5,
    /// Events successfully enqueued on the SPSC ring.
    EventsEmitted = 6,
    /// Events refused by a full SPSC ring (bounded, never blocking —
    /// the refusal is the accounting).
    EventsRefused = 7,
    /// Flight-recorder points dropped *by this domain's recorder* (the
    /// per-domain overflow accounting; the merged snapshot's global
    /// drop count is exactly the sum of these).
    RecorderDrops = 8,
    /// Views published.
    Publishes = 9,
    /// Wire bursts processed (one bump per batched ingest/flush cycle —
    /// `BurstFrames / Bursts` is the achieved batching factor).
    Bursts = 10,
    /// Frames carried by those bursts.
    BurstFrames = 11,
}

impl DomainCounter {
    /// All counters, in slot order.
    pub(crate) const ALL: [DomainCounter; 12] = [
        DomainCounter::Records,
        DomainCounter::HandoffsOut,
        DomainCounter::HandoffsIn,
        DomainCounter::DrainBatches,
        DomainCounter::PostSendPhases,
        DomainCounter::PostDeliverPhases,
        DomainCounter::EventsEmitted,
        DomainCounter::EventsRefused,
        DomainCounter::RecorderDrops,
        DomainCounter::Publishes,
        DomainCounter::Bursts,
        DomainCounter::BurstFrames,
    ];

    /// Number of counter slots.
    pub(crate) const COUNT: usize = Self::ALL.len();

    /// Stable metric name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DomainCounter::Records => "records",
            DomainCounter::HandoffsOut => "handoffs_out",
            DomainCounter::HandoffsIn => "handoffs_in",
            DomainCounter::DrainBatches => "drain_batches",
            DomainCounter::PostSendPhases => "post_send_phases",
            DomainCounter::PostDeliverPhases => "post_deliver_phases",
            DomainCounter::EventsEmitted => "events_emitted",
            DomainCounter::EventsRefused => "events_refused",
            DomainCounter::RecorderDrops => "recorder_drops",
            DomainCounter::Publishes => "publishes",
            DomainCounter::Bursts => "bursts",
            DomainCounter::BurstFrames => "burst_frames",
        }
    }
}

// ---------------------------------------------------------------------------
// The shared cell
// ---------------------------------------------------------------------------

/// The cross-thread face of one domain: the mutex-guarded frozen view
/// and its epoch. The owning thread writes; any thread may read.
pub struct DomainCell {
    label: String,
    id: u32,
    /// Epoch of the most recently published view.
    published_epoch: AtomicU64,
    /// Set by [`TelemetryDomain::retire`]: the view is final; collects
    /// stop waiting for newer epochs from this domain.
    retired: AtomicBool,
    view: Mutex<Option<DomainView>>,
}

impl DomainCell {
    fn new(label: &str, id: u32) -> DomainCell {
        DomainCell {
            label: label.to_string(),
            id,
            published_epoch: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            view: Mutex::new(None),
        }
    }

    /// Epoch of the most recently published view (0 = none yet).
    pub(crate) fn published_epoch(&self) -> u64 {
        self.published_epoch.load(Ordering::Acquire)
    }

    /// True once the owner has retired the domain.
    pub(crate) fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// A clone of the most recently published frozen view.
    pub(crate) fn view(&self) -> Option<DomainView> {
        self.view.lock().expect("domain view poisoned").clone()
    }
}

impl std::fmt::Debug for DomainCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainCell")
            .field("label", &self.label)
            .field("id", &self.id)
            .field("published_epoch", &self.published_epoch())
            .field("retired", &self.is_retired())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The frozen view
// ---------------------------------------------------------------------------

/// One domain's epoch-stamped frozen state: what
/// [`SnapshotCoordinator::collect`] merges. Built only at publish
/// time, cloned only at collect time.
#[derive(Debug, Clone)]
pub struct DomainView {
    /// The domain's id.
    pub domain: u32,
    /// The domain's label.
    pub label: String,
    /// Epoch this view was published for.
    pub epoch: u64,
    /// The owner's logical clock at publish.
    pub at: Nanos,
    /// The POD counters at publish.
    pub counters: [u64; DomainCounter::COUNT],
    /// Per-layer [`PhaseMeter`] *deltas* folded into this domain (the
    /// shard of the source meters this thread's work accounts for).
    pub meters: Vec<(String, PhaseMeter)>,
    /// Accumulated stats rows (e.g. `ConnStats` deltas folded around
    /// this thread's work), keyed `(scope, name)`.
    pub stats: MetricsSnapshot,
    /// This domain's sketch shard.
    pub sketch: QuantileSketch,
    /// This domain's masking-ledger shard, if the host built one.
    pub ledger: Option<MaskingLedger>,
}

impl DomainView {
    /// One counter.
    pub fn counter(&self, c: DomainCounter) -> u64 {
        self.counters[c as usize]
    }
}

// ---------------------------------------------------------------------------
// The owner handle
// ---------------------------------------------------------------------------

/// The thread-owned recording handle of one domain. `Send` (it moves
/// to its worker thread once) but deliberately not `Sync`/`Clone`:
/// exactly one thread records into a domain at a time — that is the
/// ownership rule that keeps the hot path free of atomics.
pub struct TelemetryDomain {
    cell: Arc<DomainCell>,
    epoch: Arc<AtomicU64>,
    counters: [u64; DomainCounter::COUNT],
    meters: Vec<(String, PhaseMeter)>,
    stats: MetricsSnapshot,
    sketch: QuantileSketch,
    ledger: Option<MaskingLedger>,
    events: Producer<DomainEvent>,
    event_seq: u64,
    last_published_epoch: u64,
    now: Nanos,
}

impl TelemetryDomain {
    /// The domain's id (stamped on events and views).
    pub fn id(&self) -> u32 {
        self.cell.id
    }

    /// The domain's label.
    pub fn label(&self) -> &str {
        &self.cell.label
    }

    /// Sets the owner's logical clock (stamped on events and views).
    pub fn set_now(&mut self, now: Nanos) {
        self.now = now;
    }

    /// Increments a counter by 1. Thread-local; no atomics.
    #[inline]
    pub fn bump(&mut self, c: DomainCounter) {
        self.counters[c as usize] += 1;
    }

    /// Adds `n` to a counter. Thread-local; no atomics.
    #[inline]
    pub fn add(&mut self, c: DomainCounter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Records one value into the domain's sketch shard. One
    /// logarithm, one bucket bump — the same cost as a single-threaded
    /// [`QuantileSketch::record`], because it *is* one.
    #[inline]
    pub fn record_value(&mut self, v: u64) {
        self.counters[DomainCounter::Records as usize] += 1;
        self.sketch.record(v);
    }

    /// Folds a [`PhaseMeter`] *delta* into this domain's shard for
    /// `layer`. Callers bracket their own work:
    /// `let before = meter; …work…; domain.absorb_meter(layer,
    /// &meter.delta_since(&before))` — the deltas partition the source
    /// meter exactly, so merged conservation stays `==`.
    pub fn absorb_meter(&mut self, layer: &str, delta: &PhaseMeter) {
        if delta.total_calls() == 0 && delta.total_cycle_ns() == 0 {
            return;
        }
        self.counters[DomainCounter::Records as usize] += 1;
        self.counters[DomainCounter::PostSendPhases as usize] +=
            delta.calls[Phase::PostSend as usize];
        self.counters[DomainCounter::PostDeliverPhases as usize] +=
            delta.calls[Phase::PostDeliver as usize];
        if let Some((_, m)) = self.meters.iter_mut().find(|(n, _)| n == layer) {
            m.absorb(delta);
        } else {
            let mut m = PhaseMeter::default();
            m.absorb(delta);
            self.meters.push((layer.to_string(), m));
        }
    }

    /// Adds `value` to the `(scope, name)` stats row — the fold target
    /// for `ConnStats` deltas bracketing this thread's work.
    pub fn add_stat(&mut self, scope: &str, name: &str, value: u64) {
        if value != 0 {
            self.stats.add(scope, name, value);
        }
    }

    /// The meter shards folded into this domain so far, by layer.
    pub fn meters(&self) -> &[(String, PhaseMeter)] {
        &self.meters
    }

    /// Merges a masking-ledger shard into this domain's ledger.
    pub fn merge_ledger(&mut self, shard: &MaskingLedger) {
        match &mut self.ledger {
            Some(l) => l.merge(shard),
            None => self.ledger = Some(shard.clone()),
        }
    }

    /// Emits one cross-thread event on the domain's SPSC ring. Never
    /// blocks: a full ring refuses and the refusal is counted in
    /// [`DomainCounter::EventsRefused`]. Returns whether the event was
    /// enqueued.
    pub fn emit(&mut self, kind: DomainEventKind) -> bool {
        let ev = DomainEvent {
            at: self.now,
            domain: self.cell.id,
            seq: self.event_seq,
            kind,
        };
        self.event_seq += 1;
        match self.events.push(ev) {
            Ok(()) => {
                self.counters[DomainCounter::EventsEmitted as usize] += 1;
                true
            }
            Err(_) => {
                self.counters[DomainCounter::EventsRefused as usize] += 1;
                false
            }
        }
    }

    /// Publishes a frozen [`DomainView`] stamped with the *current*
    /// global epoch: clones the counters and the heavy state into
    /// the cell's mutex (touched only here and at collect — never on
    /// the recording path), and emits a `Published` event.
    pub fn publish(&mut self) -> u64 {
        self.try_publish().expect("domain view poisoned")
    }

    /// [`publish`](TelemetryDomain::publish), or `None` (nothing
    /// published) if a thread panicked holding the view mutex.
    fn try_publish(&mut self) -> Option<u64> {
        let epoch = self.epoch.load(Ordering::Acquire);
        self.counters[DomainCounter::Publishes as usize] += 1;
        let view = DomainView {
            domain: self.cell.id,
            label: self.cell.label.clone(),
            epoch,
            at: self.now,
            counters: self.counters,
            meters: self.meters.clone(),
            stats: self.stats.clone(),
            sketch: self.sketch.clone(),
            ledger: self.ledger.clone(),
        };
        *self.cell.view.lock().ok()? = Some(view);
        self.cell.published_epoch.store(epoch, Ordering::Release);
        self.last_published_epoch = epoch;
        self.emit(DomainEventKind::Published { epoch });
        Some(epoch)
    }

    /// Publishes only if the global epoch has advanced past this
    /// domain's last publish — the call a worker makes once per idle
    /// loop so coordinated snapshots converge without the coordinator
    /// ever touching the worker's thread-local state.
    pub fn maybe_publish(&mut self) -> bool {
        if self.epoch.load(Ordering::Acquire) > self.last_published_epoch {
            self.publish();
            true
        } else {
            false
        }
    }

    /// Final publish + retired flag: collects stop waiting for newer
    /// epochs from this domain. Call on worker shutdown.
    pub fn retire(&mut self) {
        self.publish();
        self.cell.retired.store(true, Ordering::Release);
    }
}

/// A domain dropped without [`TelemetryDomain::retire`] — its owner
/// panicked, or simply let it go — must not leave collects waiting on
/// it for ever: the cell is marked retired whatever happens. The final
/// view is published unless the view mutex is poisoned, so a drop
/// during unwinding never panics a second time.
impl Drop for TelemetryDomain {
    fn drop(&mut self) {
        if !self.cell.is_retired() {
            let _ = self.try_publish();
            self.cell.retired.store(true, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for TelemetryDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryDomain")
            .field("label", &self.cell.label)
            .field("id", &self.cell.id)
            .field("last_published_epoch", &self.last_published_epoch)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------------

/// Default capacity of a domain's event ring.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Creates domains, advances the global epoch, drains the event rings,
/// and assembles epoch-consistent [`GlobalSnapshot`]s. Lives on the
/// coordinating thread (usually the main thread).
pub struct SnapshotCoordinator {
    epoch: Arc<AtomicU64>,
    sketch_config: SketchConfig,
    cells: Vec<Arc<DomainCell>>,
    consumers: Vec<Consumer<DomainEvent>>,
    event_log: Vec<DomainEvent>,
    next_id: u32,
}

impl SnapshotCoordinator {
    /// A coordinator whose domains share `sketch_config` (shards must
    /// agree on shape for the exact merge).
    pub fn new(sketch_config: SketchConfig) -> SnapshotCoordinator {
        SnapshotCoordinator {
            epoch: Arc::new(AtomicU64::new(0)),
            sketch_config,
            cells: Vec::new(),
            consumers: Vec::new(),
            event_log: Vec::new(),
            next_id: 0,
        }
    }

    /// Creates a new domain with the default event-ring capacity. The
    /// returned handle is the domain's single owner; move it to the
    /// thread that will record into it.
    pub fn domain(&mut self, label: &str) -> TelemetryDomain {
        self.domain_with_capacity(label, DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a new domain with an explicit event-ring capacity.
    pub fn domain_with_capacity(&mut self, label: &str, events: usize) -> TelemetryDomain {
        let id = self.next_id;
        self.next_id += 1;
        let cell = Arc::new(DomainCell::new(label, id));
        self.cells.push(cell.clone());
        let (tx, rx) = spsc::channel(events);
        self.consumers.push(rx);
        TelemetryDomain {
            cell,
            epoch: self.epoch.clone(),
            counters: [0; DomainCounter::COUNT],
            meters: Vec::new(),
            stats: MetricsSnapshot::new(0),
            sketch: QuantileSketch::new(self.sketch_config),
            ledger: None,
            events: tx,
            event_seq: 0,
            last_published_epoch: 0,
            now: 0,
        }
    }

    /// The current epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the global epoch and returns the new value. Owners
    /// observe it through [`TelemetryDomain::maybe_publish`].
    pub fn advance(&mut self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Drains every domain's event ring into the coordinator's log.
    /// Returns how many events arrived.
    pub(crate) fn drain_events(&mut self) -> usize {
        let mut n = 0;
        for rx in &mut self.consumers {
            while let Some(ev) = rx.pop() {
                self.event_log.push(ev);
                n += 1;
            }
        }
        n
    }

    /// The drained events, merged into one deterministic timeline
    /// ordered by `(at, domain, seq)`.
    pub(crate) fn events(&self) -> Vec<DomainEvent> {
        let mut all = self.event_log.clone();
        all.sort_by_key(|e| (e.at, e.domain, e.seq));
        all
    }

    /// Tries to assemble a snapshot for `epoch`: succeeds once every
    /// domain has published a view stamped `>= epoch` or retired.
    /// Never blocks; never returns a torn view.
    pub(crate) fn try_collect(&mut self, epoch: u64) -> Option<GlobalSnapshot> {
        for cell in &self.cells {
            if !cell.is_retired() && cell.published_epoch() < epoch {
                return None;
            }
        }
        self.drain_events();
        let domains: Vec<DomainView> = self.cells.iter().filter_map(|c| c.view()).collect();
        let at = domains.iter().map(|v| v.at).max().unwrap_or(0);
        Some(GlobalSnapshot {
            epoch,
            at,
            sketch_config: self.sketch_config,
            domains,
            events: self.events(),
        })
    }

    /// Advances the epoch and waits (yielding) until every domain has
    /// published for it, then merges. The calling thread must publish
    /// any domain *it* owns before calling this, and worker threads
    /// must call [`TelemetryDomain::maybe_publish`] in their idle
    /// loops — otherwise this never converges (there is deliberately
    /// no way to force-publish another thread's domain).
    pub fn collect(&mut self, epoch: u64) -> GlobalSnapshot {
        loop {
            if let Some(snap) = self.try_collect(epoch) {
                return snap;
            }
            self.drain_events();
            std::thread::yield_now();
        }
    }
}

impl std::fmt::Debug for SnapshotCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCoordinator")
            .field("epoch", &self.epoch())
            .field("domains", &self.cells.len())
            .field("events_drained", &self.event_log.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The merged snapshot
// ---------------------------------------------------------------------------

/// An epoch-consistent merge of every domain's frozen view. All the
/// cross-domain invariants are asserted here — on consistent cuts,
/// never on live state another thread is mutating.
#[derive(Debug, Clone)]
pub struct GlobalSnapshot {
    /// The epoch the views agree on (retired domains may be older —
    /// their state is final, which is consistent by definition).
    pub epoch: u64,
    /// Max of the views' logical clocks.
    pub at: Nanos,
    sketch_config: SketchConfig,
    /// The per-domain frozen views, in domain-id order of collection.
    pub domains: Vec<DomainView>,
    /// The merged cross-thread event timeline, ordered
    /// `(at, domain, seq)`.
    pub events: Vec<DomainEvent>,
}

impl GlobalSnapshot {
    /// Sum of one counter across domains.
    pub fn counter(&self, c: DomainCounter) -> u64 {
        self.domains.iter().map(|d| d.counters[c as usize]).sum()
    }

    /// The merged stats registry: every domain's rows summed per
    /// `(scope, name)` key.
    pub fn merged_stats(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new(self.at);
        for d in &self.domains {
            for (scope, name, v) in d.stats.iter() {
                out.add(scope, name, v);
            }
        }
        out
    }

    /// The merged per-layer phase meters: every domain's shard
    /// absorbed per layer name.
    pub fn merged_meters(&self) -> Vec<(String, PhaseMeter)> {
        let mut out: Vec<(String, PhaseMeter)> = Vec::new();
        for d in &self.domains {
            for (layer, m) in &d.meters {
                if let Some((_, acc)) = out.iter_mut().find(|(n, _)| n == layer) {
                    acc.absorb(m);
                } else {
                    let mut acc = PhaseMeter::default();
                    acc.absorb(m);
                    out.push((layer.clone(), acc));
                }
            }
        }
        out
    }

    /// The merged sketch: every shard folded with the exact
    /// canonical-form merge, so the result `==` the sketch a single
    /// thread would have built from the pooled samples.
    pub fn merged_sketch(&self) -> QuantileSketch {
        let mut out = QuantileSketch::new(self.sketch_config);
        for d in &self.domains {
            out.merge(&d.sketch);
        }
        out
    }

    /// The merged masking ledger, if any domain carried a shard.
    pub fn merged_ledger(&self) -> Option<MaskingLedger> {
        let mut it = self.domains.iter().filter_map(|d| d.ledger.as_ref());
        let first = it.next()?;
        let mut out = first.clone();
        out.scope = "merged".to_string();
        for shard in it {
            out.merge(shard);
        }
        Some(out)
    }

    /// Builds the merged phase table from [`merged_meters`]
    /// (GlobalSnapshot::merged_meters), pricing each `(layer, phase)`
    /// invocation with `price` (pass the cost model's `phase_cost`; a
    /// `|_, _| 0` prices nothing and leaves only cycle columns). The
    /// table a merged ledger's `conserves` runs against.
    pub fn phase_rows(&self, price: impl Fn(&str, Phase) -> u64) -> Vec<PhaseRow> {
        price_meters(&self.merged_meters(), price)
    }

    /// The delivery-accounting invariant on the *merged* rows for
    /// `scope`: `frames_in == fast_deliveries + slow_deliveries +
    /// drops_unknown_cookie + drops_malformed`. Meaningful only on a
    /// consistent cut, which is what this snapshot is.
    pub fn delivery_balanced(&self, scope: &str) -> bool {
        let s = self.merged_stats();
        let g = |name: &str| s.get(scope, name).unwrap_or(0);
        g("frames_in")
            == g("fast_deliveries")
                + g("slow_deliveries")
                + g("drops_unknown_cookie")
                + g("drops_malformed")
    }

    /// The fine-vs-coarse reject invariant on the merged rows for
    /// `scope` (mirrors `ConnStats::rejects_reconcile`, reconstructed
    /// from the `reject_*` metric rows).
    pub fn rejects_reconcile(&self, scope: &str) -> bool {
        let s = self.merged_stats();
        let g = |name: &str| s.get(scope, name).unwrap_or(0);
        let bucket = |b: RejectBucket| -> u64 {
            RejectReason::ALL
                .iter()
                .filter(|r| r.bucket() == b)
                .map(|r| g(r.metric_name()))
                .sum()
        };
        bucket(RejectBucket::Cookie) == g("drops_unknown_cookie")
            && bucket(RejectBucket::Malformed) == g("drops_malformed")
            && bucket(RejectBucket::Layer) <= g("drops_by_layer")
            && bucket(RejectBucket::Send) <= g("drops_send_rejected")
            && bucket(RejectBucket::Netif) == 0
    }

    /// The per-domain flight-recorder overflow accounting: the global
    /// drop count *is* the sum of the per-domain
    /// [`DomainCounter::RecorderDrops`] counters, and this checks each
    /// domain's `(scope, "points_dropped")` stats rows agree with its
    /// counter — so a racing shared counter can never hide a drop.
    pub fn recorder_drops_reconcile(&self) -> bool {
        self.domains.iter().all(|d| {
            let rows: u64 = d
                .stats
                .iter()
                .filter(|(_, name, _)| *name == "points_dropped")
                .map(|(_, _, v)| v)
                .sum();
            rows == d.counters[DomainCounter::RecorderDrops as usize]
        })
    }

    /// Total recorder drops across domains (the merged "global" drop
    /// count).
    pub fn recorder_drops(&self) -> u64 {
        self.counter(DomainCounter::RecorderDrops)
    }

    /// Events that never made it onto a ring (refused by a full ring
    /// and counted by the producing domain). 0 means the collected
    /// event timeline is complete.
    pub fn events_lost(&self) -> u64 {
        self.counter(DomainCounter::EventsRefused)
    }

    /// Renders the per-domain counter table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "global snapshot @ epoch {} ({} domains, {} events)",
            self.epoch,
            self.domains.len(),
            self.events.len()
        );
        for d in &self.domains {
            let _ = writeln!(s, "  domain {} ({}) @ {} ns", d.domain, d.label, d.at);
            for c in DomainCounter::ALL {
                let v = d.counters[c as usize];
                if v != 0 {
                    let _ = writeln!(s, "    {:<22} {:>10}", c.label(), v);
                }
            }
        }
        s
    }
}

/// Prices a set of per-layer meter shards into a phase table: each
/// `(layer, phase)` invocation costs `price(layer, phase)` virtual ns
/// (cycle columns pass through unpriced). Pricing is linear in calls,
/// so pricing per-domain delta shards and summing equals pricing the
/// summed meters — the identity that keeps merged masking-ledger
/// conservation an exact `==`. A thread builds its own ledger shard
/// with `MaskingLedger::from_phases(label, &price_meters(domain
/// .meters(), price), MaskDomain::Virtual)`.
pub fn price_meters(
    meters: &[(String, PhaseMeter)],
    price: impl Fn(&str, Phase) -> u64,
) -> Vec<PhaseRow> {
    let mut rows: Vec<PhaseRow> = meters
        .iter()
        .map(|(layer, m)| PhaseRow {
            layer: layer.clone(),
            calls: m.calls,
            cycle_ns: m.cycle_ns,
            leaked_calls: m.leaked_calls,
            leaked_cycle_ns: m.leaked_cycle_ns,
            ..Default::default()
        })
        .collect();
    price_rows(&mut rows, price);
    rows
}

/// The one pricing: fills the virtual-time columns of a phase table
/// from its call counts. Leaked sub-counts get the same per-invocation
/// price, so `leaked_virt_ns <= virt_ns` bucket by bucket.
pub fn price_rows(rows: &mut [PhaseRow], price: impl Fn(&str, Phase) -> u64) {
    for row in rows {
        for phase in Phase::ALL {
            let unit = price(&row.layer, phase);
            let i = phase as usize;
            row.virt_ns[i] = row.calls[i] * unit;
            row.leaked_virt_ns[i] = row.leaked_calls[i] * unit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::MaskDomain;
    use crate::xray::PhaseMeters;

    fn coordinator() -> SnapshotCoordinator {
        SnapshotCoordinator::new(SketchConfig::default_scope())
    }

    #[test]
    fn collect_waits_for_the_epoch() {
        let mut co = coordinator();
        let mut d = co.domain("main");
        d.publish();
        let e = co.advance();
        assert!(co.try_collect(e).is_none(), "stale view must not collect");
        d.publish();
        let snap = co.try_collect(e).expect("published at epoch");
        assert_eq!(snap.epoch, e);
        assert_eq!(snap.domains.len(), 1);
    }

    #[test]
    fn retired_domains_stop_blocking_collects() {
        let mut co = coordinator();
        let mut a = co.domain("main");
        let mut b = co.domain("drain");
        b.bump(DomainCounter::DrainBatches);
        b.retire();
        let e = co.advance();
        a.publish();
        let snap = co.try_collect(e).expect("retired view is final");
        assert_eq!(snap.counter(DomainCounter::DrainBatches), 1);
    }

    #[test]
    fn a_dropped_domain_stops_blocking_collects() {
        let mut co = coordinator();
        let mut main = co.domain("main");
        drop(co.domain("worker"));
        let e = co.advance();
        main.publish();
        assert!(co.try_collect(e).is_some(), "a dropped domain is final");
    }

    #[test]
    fn merged_sketch_equals_pooled_sketch() {
        let mut co = coordinator();
        let mut a = co.domain("a");
        let mut b = co.domain("b");
        let mut pooled = QuantileSketch::new(SketchConfig::default_scope());
        for i in 0..500u64 {
            let v = 1_000 + i * 37;
            pooled.record(v);
            if i % 2 == 0 {
                a.record_value(v);
            } else {
                b.record_value(v);
            }
        }
        a.publish();
        b.publish();
        let snap = co.try_collect(0).unwrap();
        assert_eq!(snap.merged_sketch(), pooled, "exact shard merge");
        assert_eq!(snap.counter(DomainCounter::Records), 500);
    }

    #[test]
    fn meter_deltas_partition_and_merge_exactly() {
        let mut co = coordinator();
        let mut a = co.domain("pre");
        let mut b = co.domain("post");
        // One source meter mutated in two bracketed windows.
        let mut meters = PhaseMeters::default();
        meters.start_clocks(1, 0);
        let cp0 = meters.get(0);
        meters.record(1, 0, Phase::PreSend, Some(100), false);
        meters.record(1, 0, Phase::PreSend, Some(100), false);
        let cp1 = meters.get(0);
        a.absorb_meter("window", &cp1.delta_since(&cp0));
        meters.record(1, 0, Phase::PostSend, Some(300), false);
        let meter = meters.get(0);
        b.absorb_meter("window", &meter.delta_since(&cp1));
        a.publish();
        b.publish();
        let snap = co.try_collect(0).unwrap();
        let merged = snap.merged_meters();
        assert_eq!(merged.len(), 1);
        let (_, m) = &merged[0];
        assert_eq!(m.calls, meter.calls, "deltas partition the source");
        assert_eq!(m.cycle_ns, meter.cycle_ns);
    }

    #[test]
    fn merged_ledger_conserves_against_merged_phase_rows() {
        let mut co = coordinator();
        let mut a = co.domain("pre");
        let mut b = co.domain("post");
        let price = |_: &str, p: Phase| match p {
            Phase::Tick => 0,
            _ => 1_000,
        };
        // Domain a did 3 pre-sends; domain b did 3 post-sends.
        let mut ma = PhaseMeter::default();
        ma.calls[Phase::PreSend as usize] = 3;
        a.absorb_meter("window", &ma);
        let mut mb = PhaseMeter::default();
        mb.calls[Phase::PostSend as usize] = 3;
        b.absorb_meter("window", &mb);
        // Each domain builds its ledger shard from its own priced rows.
        for (d, m) in [(&mut a, &ma), (&mut b, &mb)] {
            let mut row = PhaseRow {
                layer: "window".into(),
                calls: m.calls,
                ..Default::default()
            };
            for phase in Phase::ALL {
                row.virt_ns[phase as usize] = row.calls[phase as usize] * price("window", phase);
            }
            let shard = MaskingLedger::from_phases(d.label(), &[row], MaskDomain::Virtual);
            d.merge_ledger(&shard);
        }
        a.publish();
        b.publish();
        let snap = co.try_collect(0).unwrap();
        let ledger = snap.merged_ledger().expect("both shards present");
        let rows = snap.phase_rows(price);
        assert!(ledger.conserves(&rows), "merged == sum of shards");
        assert_eq!(ledger.on_path_ns(), 3_000);
        assert_eq!(ledger.masked_ns(), 3_000);
    }

    #[test]
    fn events_merge_into_one_timeline() {
        let mut co = coordinator();
        let mut a = co.domain("a");
        let mut b = co.domain("b");
        a.set_now(10);
        a.emit(DomainEventKind::HandoffSent { job: 1 });
        b.set_now(5);
        b.emit(DomainEventKind::HandoffReceived { job: 1 });
        a.set_now(20);
        a.emit(DomainEventKind::DrainStart { job: 1 });
        assert_eq!(co.drain_events(), 3);
        let evs = co.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, 5, "ordered by (at, domain, seq)");
        assert_eq!(evs[2].kind, DomainEventKind::DrainStart { job: 1 });
    }

    #[test]
    fn full_event_ring_refuses_and_counts() {
        let mut co = coordinator();
        let mut d = co.domain_with_capacity("a", 2);
        assert!(d.emit(DomainEventKind::DrainStart { job: 0 }));
        assert!(d.emit(DomainEventKind::DrainStart { job: 1 }));
        assert!(!d.emit(DomainEventKind::DrainStart { job: 2 }));
        d.publish(); // publish() emits too; ring still full → refused
        let snap = co.try_collect(0).unwrap();
        assert_eq!(snap.counter(DomainCounter::EventsEmitted), 2);
        assert!(snap.events_lost() >= 1);
        assert_eq!(snap.events.len(), 2, "nothing below capacity lost");
    }

    #[test]
    fn delivery_and_reject_invariants_on_merged_rows() {
        let mut co = coordinator();
        let mut a = co.domain("a");
        let mut b = co.domain("b");
        // Split one balanced connection's counters across two domains:
        // each partial view alone would look unbalanced.
        a.add_stat("conn0", "frames_in", 10);
        a.add_stat("conn0", "fast_deliveries", 4);
        b.add_stat("conn0", "slow_deliveries", 4);
        b.add_stat("conn0", "drops_unknown_cookie", 1);
        b.add_stat("conn0", "drops_malformed", 1);
        a.add_stat("conn0", "reject_unknown_cookie", 1);
        b.add_stat("conn0", "reject_truncated_preamble", 1);
        a.publish();
        b.publish();
        let snap = co.try_collect(0).unwrap();
        assert!(snap.delivery_balanced("conn0"));
        assert!(snap.rejects_reconcile("conn0"));
        // A lone domain's view would not balance — the point of
        // asserting on the merged cut only.
        let partial = GlobalSnapshot {
            domains: vec![snap.domains[0].clone()],
            ..snap.clone()
        };
        assert!(!partial.delivery_balanced("conn0"));
    }

    #[test]
    fn recorder_drop_accounting_is_per_domain_and_sums() {
        let mut co = coordinator();
        let mut a = co.domain("a");
        let mut b = co.domain("b");
        a.add(DomainCounter::RecorderDrops, 3);
        a.add_stat("recorder/a", "points_dropped", 3);
        b.add(DomainCounter::RecorderDrops, 2);
        b.add_stat("recorder/b", "points_dropped", 2);
        a.publish();
        b.publish();
        let snap = co.try_collect(0).unwrap();
        assert_eq!(snap.recorder_drops(), 5, "global = sum of per-domain");
        assert!(snap.recorder_drops_reconcile());
        // A domain under-reporting its rows is caught.
        let mut bad = snap.clone();
        bad.domains[0].counters[DomainCounter::RecorderDrops as usize] += 1;
        assert!(!bad.recorder_drops_reconcile());
    }

    #[test]
    fn cross_thread_publish_collect_converges() {
        let mut co = coordinator();
        let mut main = co.domain("main");
        let mut worker = co.domain("worker");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = stop.clone();
        let t = std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop_w.load(Ordering::Acquire) {
                worker.bump(DomainCounter::DrainBatches);
                n += 1;
                worker.maybe_publish();
                std::thread::yield_now();
            }
            worker.retire();
            n
        });
        let e = co.advance();
        main.publish();
        let snap = co.collect(e);
        assert_eq!(snap.epoch, e);
        stop.store(true, Ordering::Release);
        let n = t.join().unwrap();
        // After retirement the final view carries every batch.
        let fin = co.try_collect(e).unwrap();
        assert_eq!(fin.counter(DomainCounter::DrainBatches), n);
    }

    #[test]
    fn render_lists_nonzero_counters() {
        let mut co = coordinator();
        let mut d = co.domain("drain");
        d.add(DomainCounter::DrainBatches, 7);
        d.publish();
        let snap = co.try_collect(0).unwrap();
        let s = snap.render();
        assert!(s.contains("drain_batches"), "{s}");
        assert!(s.contains("7"), "{s}");
        assert!(!s.contains("handoffs_in"), "zero rows omitted: {s}");
    }
}
