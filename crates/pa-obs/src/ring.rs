//! A fixed-capacity, allocation-free trace ring.
//!
//! All storage is allocated once at construction; pushing a record into
//! a full ring overwrites the oldest one and bumps the `overwritten`
//! counter, so the hot path never allocates and never blocks. Records
//! carry logical [`Nanos`] timestamps and a per-ring (i.e.
//! per-connection) sequence number so a merged dump across connections
//! can be ordered deterministically.

use crate::event::{FieldRef, Nanos, TraceEvent};

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Per-ring sequence number (0-based, never wraps in practice).
    pub seq: u64,
    /// Logical timestamp the event was emitted at.
    pub at: Nanos,
    /// Connection label stamped by the ring (endpoint-assigned index).
    pub conn: u32,
    /// Telemetry-domain label stamped by the ring (0 = the default,
    /// single-threaded domain; see `pa_obs::domain`). Rendering is
    /// unchanged so single-domain dumps stay byte-identical.
    pub domain: u32,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders `seq/at/conn/event` on one line.
    pub fn render(&self, resolve: &dyn Fn(FieldRef) -> String) -> String {
        format!(
            "[{:>10} ns] conn={} #{:<5} {}",
            self.at,
            self.conn,
            self.seq,
            self.event.render(resolve)
        )
    }
}

/// Fixed-capacity ring of [`TraceRecord`]s.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    capacity: usize,
    head: usize,
    seq: u64,
    overwritten: u64,
    conn: u32,
    domain: u32,
}

impl TraceRing {
    /// A ring retaining the most recent `capacity` records (≥ 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seq: 0,
            overwritten: 0,
            conn: 0,
            domain: 0,
        }
    }

    /// Stamps subsequent records with a connection label.
    pub fn set_conn(&mut self, conn: u32) {
        self.conn = conn;
    }

    /// Stamps subsequent records with a telemetry-domain label — set
    /// when the ring's owner moves to a worker thread, so a merged
    /// timeline shows which thread each hop ran on.
    pub fn set_domain(&mut self, domain: u32) {
        self.domain = domain;
    }

    /// Appends an event; never allocates once the ring has filled.
    #[inline]
    pub fn push(&mut self, at: Nanos, event: TraceEvent) {
        let rec = TraceRecord {
            seq: self.seq,
            at,
            conn: self.conn,
            domain: self.domain,
            event,
        };
        self.seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Events recorded over the ring's lifetime (= next sequence number).
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no record is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records lost to overwriting.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Clears retained records (sequence numbers keep counting).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// Merges records from several rings into one timeline ordered by
/// `(at, conn, seq)` — deterministic across runs.
pub fn merge_timeline(rings: &[&TraceRing]) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = rings.iter().flat_map(|r| r.records()).collect();
    all.sort_by_key(|r| (r.at, r.conn, r.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SlowCause;

    #[test]
    fn retains_most_recent_and_counts_overwrites() {
        let mut r = TraceRing::new(3);
        for i in 0..5u64 {
            r.push(i * 10, TraceEvent::FastSend);
        }
        assert_eq!(r.total(), 5);
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let recs = r.records();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(recs[0].at, 20);
    }

    #[test]
    fn push_after_fill_does_not_allocate() {
        let mut r = TraceRing::new(4);
        for i in 0..4 {
            r.push(i, TraceEvent::FastSend);
        }
        let cap_before = r.buf.capacity();
        for i in 4..1000 {
            r.push(
                i,
                TraceEvent::SlowSend {
                    cause: SlowCause::PredictMiss,
                },
            );
        }
        assert_eq!(r.buf.capacity(), cap_before, "ring storage is fixed");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn merge_orders_by_time_then_conn() {
        let mut a = TraceRing::new(8);
        a.set_conn(0);
        let mut b = TraceRing::new(8);
        b.set_conn(1);
        a.push(10, TraceEvent::FastSend);
        b.push(5, TraceEvent::FastSend);
        a.push(20, TraceEvent::FastSend);
        b.push(10, TraceEvent::FastDeliver { msgs: 1 });
        let tl = merge_timeline(&[&a, &b]);
        assert_eq!(
            tl.iter().map(|r| (r.at, r.conn)).collect::<Vec<_>>(),
            vec![(5, 1), (10, 0), (10, 1), (20, 0)]
        );
    }

    #[test]
    fn records_render_as_lines() {
        let mut r = TraceRing::new(4);
        r.push(
            1,
            TraceEvent::Queued {
                disable_layer: "window",
            },
        );
        let line = r.records()[0].render(&|f| format!("{}:{}", f.class, f.index));
        assert!(line.contains("queued by=window"), "{line}");
    }

    #[test]
    fn domain_label_stamps_subsequent_records() {
        let mut r = TraceRing::new(4);
        r.push(0, TraceEvent::FastSend);
        r.set_domain(2);
        r.push(1, TraceEvent::FastSend);
        let recs = r.records();
        assert_eq!(recs[0].domain, 0, "default domain");
        assert_eq!(recs[1].domain, 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRing::new(0);
        r.push(0, TraceEvent::FastSend);
        r.push(1, TraceEvent::FastSend);
        assert_eq!(r.len(), 1);
        assert_eq!(r.records()[0].seq, 1);
    }
}
