//! Call-boundary spans.
//!
//! A span brackets one call from the benchmark into a public function
//! of the engine. The recorder keeps one clock: every `enter`/`exit`
//! reads it once and charges the time since the previous reading to
//! whichever span is innermost (or to the harness when none is open),
//! so self times partition the timed window exactly — a span's self
//! time is its duration minus what its children cover.
//!
//! Every span lands in per-name totals; full span records (name, start,
//! end, parent, op) are kept only for a seeded 1-in-256 sample of ops
//! and written out after the run. All buffers are allocated up front:
//! the recorder never allocates inside the timed window.

use std::time::Instant;

macro_rules! spans {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// The call boundaries the benchmark records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant),* }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant),*];
            pub const fn name(self) -> &'static str {
                match self { $(Span::$variant => $name),* }
            }
        }
    };
}

spans! {
    ConnSend => "conn.send",
    ConnDeliver => "conn.deliver",
    ConnPost => "conn.post",
    ConnPollTx => "conn.poll_tx",
    ConnPollRx => "conn.poll_rx",
    ConnRecycle => "conn.recycle",
    ConnTick => "conn.tick",
    ConnNew => "conn.new",
    ShardIngest => "shard.ingest",
    ShardDrain => "shard.drain",
    ShardRecycle => "shard.recycle",
    ShardLookup => "shard.lookup",
    ShardSend => "shard.send",
    ShardAdmit => "shard.admit",
    ShardRemove => "shard.remove",
    NetSend => "net.send",
    NetRecv => "net.recv",
    NetRecycle => "net.recycle",
}

pub const SPAN_COUNT: usize = Span::ALL.len();

/// What the adapter calls at each boundary. `Off` compiles to nothing,
/// so the end-to-end pass carries no trace of the tracer.
pub trait Tracer {
    fn enter(&mut self, span: Span);
    fn exit(&mut self);
    /// Starts the next op (or round of ops); spans until the next call
    /// carry its id.
    fn begin_op(&mut self, id: u64);
    /// Starts the clock at the head of a timed slice; calls made while
    /// it is stopped — set-up, calibration, settling — are not recorded.
    fn resume(&mut self) {}
    /// Stops the clock at the end of a timed slice.
    fn pause(&mut self) {}
    fn totals(&self) -> Totals {
        Totals::default()
    }
}

pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn enter(&mut self, _: Span) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn begin_op(&mut self, _: u64) {}
}

/// One fully recorded span of a sampled op.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub op: u64,
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span's record, if any.
    pub parent: Option<u32>,
}

#[derive(Clone, Copy)]
struct Open {
    span: Span,
    record: Option<u32>,
}

const MAX_DEPTH: usize = 8;
const SAMPLE_ONE_IN: u64 = 256;
const MAX_RECORDS: usize = 1 << 16;

/// Per-name totals at one instant; subtract two to get a slice's share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub self_ns: [u64; SPAN_COUNT],
    pub calls: [u64; SPAN_COUNT],
    /// Spans opened directly inside a span of this name.
    pub child_calls: [u64; SPAN_COUNT],
    /// Time inside the window with no span open: workload generator,
    /// verifier, loop control, and the recorder's own bookkeeping.
    pub harness_ns: u64,
    /// Spans opened with no span open.
    pub top_calls: u64,
}

/// The self-time bookkeeping, over explicit clock readings.
struct Ledger {
    last_ns: u64,
    stack: [Open; MAX_DEPTH],
    depth: usize,
    totals: Totals,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            last_ns: 0,
            stack: [Open {
                span: Span::ConnSend,
                record: None,
            }; MAX_DEPTH],
            depth: 0,
            totals: Totals::default(),
        }
    }

    /// Charges the time since the last reading to the innermost open
    /// span, or to the harness when none is open.
    #[inline]
    fn charge(&mut self, now: u64) {
        let dt = now - self.last_ns;
        match self.depth {
            0 => self.totals.harness_ns += dt,
            d => self.totals.self_ns[self.stack[d - 1].span as usize] += dt,
        }
        self.last_ns = now;
    }

    /// Opens `span` at `now`.
    #[inline]
    fn enter(&mut self, span: Span, now: u64, record: Option<u32>) {
        self.charge(now);
        self.totals.calls[span as usize] += 1;
        match self.depth {
            0 => self.totals.top_calls += 1,
            d => self.totals.child_calls[self.stack[d - 1].span as usize] += 1,
        }
        assert!(self.depth < MAX_DEPTH, "span nesting deeper than MAX_DEPTH");
        self.stack[self.depth] = Open { span, record };
        self.depth += 1;
    }

    /// Closes the innermost span at `now`; returns its record, if kept.
    #[inline]
    fn exit(&mut self, now: u64) -> Option<u32> {
        self.charge(now);
        self.depth -= 1;
        self.stack[self.depth].record
    }

    fn parent_record(&self) -> Option<u32> {
        self.depth.checked_sub(1).and_then(|d| self.stack[d].record)
    }
}

pub struct Recorder {
    epoch: Instant,
    running: bool,
    ledger: Ledger,
    seed: u64,
    op: u64,
    sampling: bool,
    records: Vec<SpanRecord>,
}

impl Recorder {
    pub fn new(seed: u64) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            running: false,
            ledger: Ledger::new(),
            seed,
            op: 0,
            sampling: false,
            records: Vec::with_capacity(MAX_RECORDS),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}

/// Which ops keep their full span tree: a seeded 1-in-256 choice that
/// does not depend on how many ops ran before.
pub fn op_is_sampled(seed: u64, op: u64) -> bool {
    crate::gen::mix(seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(SAMPLE_ONE_IN)
}

impl Tracer for Recorder {
    #[inline]
    fn enter(&mut self, span: Span) {
        if !self.running {
            return;
        }
        let now = self.now_ns();
        let mut record = None;
        if self.sampling && self.records.len() < MAX_RECORDS {
            record = Some(self.records.len() as u32);
            self.records.push(SpanRecord {
                op: self.op,
                span,
                start_ns: now,
                end_ns: now,
                parent: self.ledger.parent_record(),
            });
        }
        self.ledger.enter(span, now, record);
    }

    #[inline]
    fn exit(&mut self) {
        if !self.running {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.ledger.exit(now) {
            self.records[i as usize].end_ns = now;
        }
    }

    #[inline]
    fn begin_op(&mut self, id: u64) {
        self.op = id;
        self.sampling = self.running && op_is_sampled(self.seed, id);
    }

    fn resume(&mut self) {
        assert_eq!(self.ledger.depth, 0, "resume with a span open");
        self.ledger.last_ns = self.now_ns();
        self.running = true;
    }

    fn pause(&mut self) {
        assert_eq!(self.ledger.depth, 0, "pause with a span open");
        let now = self.now_ns();
        self.ledger.charge(now);
        self.running = false;
    }

    fn totals(&self) -> Totals {
        self.ledger.totals
    }
}

/// Renders the sampled records as JSON lines.
pub fn records_jsonl(records: &[SpanRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(records.len() * 96);
    for (i, r) in records.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            r.op,
            r.span.name(),
            r.start_ns,
            r.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        // ingest [0,100) { deliver [10,40) { post [20,25) }, deliver [50,70) }
        // then 30 ns of harness, then a lone post [130,135).
        let mut l = Ledger::new();
        l.enter(Span::ShardIngest, 0, None);
        l.enter(Span::ConnDeliver, 10, None);
        l.enter(Span::ConnPost, 20, None);
        l.exit(25);
        l.exit(40);
        l.enter(Span::ConnDeliver, 50, None);
        l.exit(70);
        l.exit(100);
        l.enter(Span::ConnPost, 130, None);
        l.exit(135);
        let t = l.totals;
        assert_eq!(t.self_ns[Span::ShardIngest as usize], 100 - 30 - 20);
        assert_eq!(t.self_ns[Span::ConnDeliver as usize], (30 - 5) + 20);
        assert_eq!(t.self_ns[Span::ConnPost as usize], 5 + 5);
        assert_eq!(t.harness_ns, 30);
        assert_eq!(t.calls[Span::ConnDeliver as usize], 2);
        assert_eq!(t.calls[Span::ConnPost as usize], 2);
        assert_eq!(t.child_calls[Span::ShardIngest as usize], 2);
        assert_eq!(t.child_calls[Span::ConnDeliver as usize], 1);
        assert_eq!(t.top_calls, 2);
        // Self times and harness time partition the whole interval.
        assert_eq!(t.self_ns.iter().sum::<u64>() + t.harness_ns, 135);
    }

    #[test]
    fn recorder_ignores_calls_while_paused_and_samples_by_seed() {
        let mut r = Recorder::new(1);
        r.begin_op(0);
        r.enter(Span::ConnSend);
        r.exit();
        assert_eq!(r.totals(), Totals::default());

        r.resume();
        let t0 = r.ledger.last_ns;
        for op in 0..2000u64 {
            r.begin_op(op);
            r.enter(Span::ShardIngest);
            r.enter(Span::ConnDeliver);
            std::hint::black_box(op);
            r.exit();
            r.exit();
            r.enter(Span::ConnPost);
            r.exit();
        }
        r.pause();
        let t = r.totals();
        assert_eq!(t.calls[Span::ShardIngest as usize], 2000);
        assert_eq!(t.calls[Span::ConnPost as usize], 2000);
        let spent: u64 = t.self_ns.iter().sum::<u64>() + t.harness_ns;
        assert_eq!(
            spent,
            r.ledger.last_ns - t0,
            "every ns is charged exactly once"
        );

        // Exactly the seeded ops kept their trees, properly nested.
        let sampled: Vec<u64> = (0..2000).filter(|&op| op_is_sampled(1, op)).collect();
        assert!(!sampled.is_empty());
        assert_eq!(r.records().len(), sampled.len() * 3);
        for (chunk, op) in r.records().chunks(3).zip(&sampled) {
            assert_eq!(chunk[0].op, *op);
            assert_eq!((chunk[0].span, chunk[0].parent), (Span::ShardIngest, None));
            assert_eq!(chunk[1].span, Span::ConnDeliver);
            assert!(chunk[1].parent.is_some() && chunk[2].parent.is_none());
            assert!(chunk[0].start_ns <= chunk[1].start_ns && chunk[1].end_ns <= chunk[0].end_ns);
        }
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let rec = |span, start_ns, end_ns, parent| SpanRecord {
            op: 0,
            span,
            start_ns,
            end_ns,
            parent,
        };
        let records = [
            rec(Span::NetSend, 5, 9, None),
            rec(Span::NetRecv, 6, 7, Some(0)),
        ];
        let text = records_jsonl(&records);
        assert_eq!(
            text,
            "{\"id\":0,\"op\":0,\"name\":\"net.send\",\"start_ns\":5,\"end_ns\":9,\"parent\":null}\n\
             {\"id\":1,\"op\":0,\"name\":\"net.recv\",\"start_ns\":6,\"end_ns\":7,\"parent\":0}\n"
        );
    }
}
