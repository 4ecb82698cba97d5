//! The off-path post-drain thread: a minimal vertical slice of the
//! ROADMAP's "post phases on another core".
//!
//! §3.1 splits every layer's work into a *pre* phase (on the critical
//! path) and a *post* phase (maskable). Everywhere else in this repo
//! the mask is temporal — post phases run later, on the same thread.
//! This module makes the mask *spatial*: a [`PostDrainWorker`] owns a
//! second OS thread, connections are handed to it over a bounded
//! wait-free SPSC ring ([`pa_obs::spsc`]), and `process_pending` (the
//! §3.4 backlog/post drain) runs there while the application thread
//! keeps sending.
//!
//! The point of the prototype is not throughput — it is that the
//! telemetry stays *exact* across the thread boundary:
//!
//! - each thread brackets its own work and folds `current − checkpoint`
//!   deltas into its own [`TelemetryDomain`] (deltas partition the
//!   connection's meters, so the merged view conserves with `==`);
//! - handoffs emit [`DomainEventKind::HandoffSent`] /
//!   [`DomainEventKind::HandoffReceived`] pairs that become
//!   happens-before edges in the cross-thread [`pa_obs::CritDag`]
//!   ([`crate::pipeline::PipelineReport::crit_dag`]);
//! - each domain prices its own meter shard into a
//!   [`MaskingLedger`] shard at shutdown; the merged ledger conserves
//!   exactly against the merged phase table.
//!
//! Nothing about the engine changes: the same `Connection` methods run,
//! just on another thread (`Layer: Send` makes the move legal). With
//! tracing off the wire bytes are byte-identical to the inline run —
//! the threaded golden-bytes test pins that.
//!
//! The one driver of this worker is [`crate::pipeline::BurstPipeline`];
//! both threads bracket their work with the same [`Bracket`] and seal
//! their ledger shard with the same [`seal_ledger`].

use crate::cost::CostModel;
use crate::Nanos;
use pa_core::{ConnStats, Connection, PostWorkReport};
use pa_obs::domain::{price_meters, DomainCounter, DomainEventKind, TelemetryDomain};
use pa_obs::spsc::{self, Consumer, Producer};
use pa_obs::{MaskDomain, MaskingLedger, PhaseMeter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// One handoff: a connection shipped to the drain thread for its
/// pending post work.
#[derive(Debug)]
pub struct DrainJob {
    /// The connection (boxed: the ring moves a pointer, not the
    /// connection's buffers).
    pub conn: Box<Connection>,
    /// Handoff sequence number — shared by the `HandoffSent` event on
    /// the submitting domain and the `HandoffReceived`/`DrainStart`/
    /// `DrainDone` events on the worker domain, which is what lets the
    /// collector stitch the two threads' timelines with happens-before
    /// edges.
    pub seq: u64,
    /// Virtual time of the handoff (the worker's clock for this batch).
    pub now: Nanos,
}

/// A drained connection coming back from the worker.
#[derive(Debug)]
pub struct DrainedConn {
    /// The connection, post work done.
    pub conn: Box<Connection>,
    /// The handoff sequence number of the job this answers.
    pub seq: u64,
    /// Virtual time the batch ran at.
    pub now: Nanos,
    /// What the drain did.
    pub report: PostWorkReport,
}

/// A second OS thread that runs connections' post phases off the
/// critical path, instrumented as its own telemetry domain.
///
/// In-flight jobs are bounded by the ring capacity: [`submit`]
/// (PostDrainWorker::submit) refuses (returning the connection) once
/// `capacity` connections are in the pipeline, so neither ring can
/// overflow and a handed-off connection is never dropped.
#[derive(Debug)]
pub struct PostDrainWorker {
    jobs: Producer<DrainJob>,
    done: Consumer<DrainedConn>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    capacity: usize,
    submitted: u64,
    received: u64,
}

impl PostDrainWorker {
    /// Spawns the drain thread. It owns `domain` (folding every batch's
    /// meter/stats deltas into it) and prices its shard with `cost` at
    /// shutdown. At most `capacity` connections ride the pipeline at
    /// once.
    pub fn spawn(domain: TelemetryDomain, cost: CostModel, capacity: usize) -> PostDrainWorker {
        let capacity = capacity.max(1);
        let (jobs_tx, jobs_rx) = spsc::channel::<DrainJob>(capacity);
        let (done_tx, done_rx) = spsc::channel::<DrainedConn>(capacity);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = thread::Builder::new()
            .name(format!("pa-drain-{}", domain.id()))
            .spawn(move || drain_loop(domain, cost, jobs_rx, done_tx, stop_flag))
            .expect("spawn drain thread");
        PostDrainWorker {
            jobs: jobs_tx,
            done: done_rx,
            stop,
            handle: Some(handle),
            capacity,
            submitted: 0,
            received: 0,
        }
    }

    /// Hands a connection to the drain thread. `sender` is the
    /// *calling* thread's domain: it gets the `HandoffsOut` bump and
    /// the `HandoffSent` event (the submitting side of the
    /// happens-before pair). Returns the handoff sequence number, or
    /// the connection back if the pipeline is full (drain it inline —
    /// backpressure, never loss).
    pub fn submit(
        &mut self,
        sender: &mut TelemetryDomain,
        conn: Box<Connection>,
        now: Nanos,
    ) -> Result<u64, Box<Connection>> {
        if (self.submitted - self.received) as usize >= self.capacity {
            return Err(conn);
        }
        let seq = self.submitted;
        match self.jobs.push(DrainJob { conn, seq, now }) {
            Ok(()) => {
                self.submitted += 1;
                sender.set_now(now);
                sender.bump(DomainCounter::HandoffsOut);
                sender.emit(DomainEventKind::HandoffSent { job: seq });
                Ok(seq)
            }
            Err(job) => Err(job.conn),
        }
    }

    /// Connections currently in the pipeline (submitted, not yet
    /// received back).
    pub(crate) fn in_flight(&self) -> usize {
        (self.submitted - self.received) as usize
    }

    /// A drained connection, if one is ready. Non-blocking.
    pub(crate) fn try_recv(&mut self) -> Option<DrainedConn> {
        let out = self.done.pop();
        if out.is_some() {
            self.received += 1;
        }
        out
    }

    /// Waits for the next drained connection, yielding between polls.
    /// `None` once nothing is in flight (or the worker died).
    pub fn recv(&mut self) -> Option<DrainedConn> {
        loop {
            if let Some(d) = self.try_recv() {
                return Some(d);
            }
            if self.in_flight() == 0 || (self.done.is_disconnected() && self.done.is_empty()) {
                return None;
            }
            thread::yield_now();
        }
    }

    /// Stops the worker: it drains every queued job, builds its priced
    /// masking-ledger shard, publishes, retires its domain, and exits.
    /// Drained connections still in the done ring remain receivable via
    /// [`PostDrainWorker::try_recv`] after this returns.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PostDrainWorker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A checkpoint of one connection's meters and stats ahead of a
/// stretch of work on the calling thread. [`Bracket::open`] copies
/// them, the work runs, [`Bracket::fold`] records `current −
/// checkpoint` into that thread's domain: deltas partition the
/// connection's meters, so the merged view conserves with `==`. The
/// buffers are reused across brackets (the layer-name cache refreshes
/// only when the stack *shape* changes — feed one bracket connections
/// with one stack layout), so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct Bracket {
    names: Vec<&'static str>,
    meters: Vec<PhaseMeter>,
    stats: ConnStats,
}

impl Bracket {
    /// Checkpoints `conn`.
    pub(crate) fn open(&mut self, conn: &Connection) {
        self.meters.clear();
        self.meters.extend(conn.phase_meters());
        if self.names.len() != self.meters.len() {
            self.names = conn.layer_names();
        }
        self.stats = *conn.stats();
    }

    /// Folds what `conn` did since [`Bracket::open`] into `domain`.
    pub(crate) fn fold(&self, domain: &mut TelemetryDomain, conn: &Connection) {
        for (i, m) in conn.phase_meters().enumerate() {
            domain.absorb_meter(self.names[i], &m.delta_since(&self.meters[i]));
        }
        for (name, v) in conn.stats().delta(&self.stats).fields() {
            domain.add_stat("conn", name, v);
        }
    }
}

/// The worker thread body. Steady state allocates nothing: the bracket
/// is reused across jobs, the rings are fixed, and the domain's fold
/// targets stop growing once every layer/stat row exists.
fn drain_loop(
    mut domain: TelemetryDomain,
    cost: CostModel,
    mut jobs: Consumer<DrainJob>,
    mut done: Producer<DrainedConn>,
    stop: Arc<AtomicBool>,
) {
    let mut bracket = Bracket::default();
    loop {
        match jobs.pop() {
            Some(mut job) => {
                domain.set_now(job.now);
                domain.bump(DomainCounter::HandoffsIn);
                domain.emit(DomainEventKind::HandoffReceived { job: job.seq });
                // Trace records written by the post phases belong to
                // this thread's domain while the connection is here.
                if job.conn.probe().trace_ring().is_some() {
                    if let Some(r) = job.conn.probe_mut().trace_ring_mut() {
                        r.set_domain(domain.id());
                    }
                }
                bracket.open(&job.conn);
                domain.emit(DomainEventKind::DrainStart { job: job.seq });
                job.conn.set_now(job.now);
                let report = job.conn.process_pending();
                bracket.fold(&mut domain, &job.conn);
                domain.bump(DomainCounter::DrainBatches);
                domain.emit(DomainEventKind::DrainDone {
                    job: job.seq,
                    post_sends: report.post_send_phases,
                    post_delivers: report.post_deliver_phases,
                });
                let out = DrainedConn {
                    conn: job.conn,
                    seq: job.seq,
                    now: job.now,
                    report,
                };
                // Capacity bounds in-flight jobs, so the done ring
                // (same capacity) always has room.
                let pushed = done.push(out).is_ok();
                debug_assert!(pushed, "done ring sized to the in-flight bound");
            }
            None => {
                if stop.load(Ordering::Acquire) && jobs.is_empty() {
                    break;
                }
                domain.maybe_publish();
                thread::yield_now();
            }
        }
    }
    seal_ledger(&mut domain, &cost);
    domain.retire();
}

/// Prices a domain's own meter shard into its masking-ledger shard and
/// merges it in — linear pricing of a delta partition, so the merged
/// ledger conserves exactly against the merged phase table. The worker
/// does this at shutdown; call it on the application thread's domain
/// before collecting.
pub(crate) fn seal_ledger(domain: &mut TelemetryDomain, cost: &CostModel) {
    let rows = price_meters(domain.meters(), |l, p| cost.phase_cost(l, p));
    if !rows.is_empty() {
        let label = domain.label().to_string();
        let shard = MaskingLedger::from_phases(&label, &rows, MaskDomain::Virtual);
        domain.merge_ledger(&shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BurstPipeline, PipelineConfig, PipelineReport};

    /// The instrumented two-thread echo: the pipeline at burst 1, every
    /// post phase on the drain thread.
    fn traced_echo(rounds: u64) -> PipelineReport {
        BurstPipeline::run(PipelineConfig::traced(rounds, 1))
    }

    #[test]
    fn drained_echo_makes_progress_and_conserves_exactly() {
        let report = traced_echo(12);
        assert_eq!(report.completed, 12);
        assert!(
            report.conserves(),
            "merged ledger must conserve:\n{}",
            report.snapshot.render()
        );
        // Both domains really did work: pre on app, post on drain.
        let app = report
            .snapshot
            .domains
            .iter()
            .find(|d| d.label == "app")
            .unwrap();
        let drain = report
            .snapshot
            .domains
            .iter()
            .find(|d| d.label == "drain")
            .unwrap();
        assert!(drain.counter(DomainCounter::DrainBatches) > 0);
        assert!(
            drain.counter(DomainCounter::PostSendPhases) > 0,
            "post sends must land on the drain domain"
        );
        assert_eq!(
            app.counter(DomainCounter::HandoffsOut),
            drain.counter(DomainCounter::HandoffsIn),
            "every handoff picked up"
        );
    }

    #[test]
    fn per_domain_ledgers_partition_the_inline_total() {
        // The merged snapshot's phase table equals the table an inline
        // single-domain run would produce: deltas partition.
        let report = traced_echo(8);
        let merged = report.snapshot.merged_meters();
        let total_calls: u64 = merged.iter().map(|(_, m)| m.total_calls()).sum();
        let per_domain: u64 = report
            .snapshot
            .domains
            .iter()
            .flat_map(|d| d.meters.iter())
            .map(|(_, m)| m.total_calls())
            .sum();
        assert_eq!(total_calls, per_domain);
        assert!(total_calls > 0);
    }

    #[test]
    fn crit_dag_is_acyclic_and_spans_both_lanes() {
        let dag = traced_echo(5).crit_dag();
        assert!(dag.is_acyclic());
        assert!(dag.nodes.iter().any(|n| n.lane == 0));
        assert!(dag.nodes.iter().any(|n| n.lane == 2));
        assert!(!dag.critical_path().is_empty());
    }
}
