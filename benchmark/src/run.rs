//! One run of one workload: set-up, the sliced timed window, the
//! end-of-workload gate, and the metrics computed from them.

use crate::alloc;
use crate::harness::{
    median, peak_rss_mb, percentile_in_place, quiet_level, typical_level, Calib, Slice,
};
use crate::metrics;
use crate::sut::{Capture, Counters, Health, Probes, C};
use crate::trace::{self, Off, Recorder, Span, Totals, Tracer, SPAN_COUNT};
use crate::workloads::{Tally, World};
use std::time::{Duration, Instant};

/// A named value with its unit, as printed.
pub type Metric = (String, f64, &'static str);

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Wall-clock budget of the timed window(s) of one run.
    pub seconds: f64,
    /// Slices every window runs at least; the first this many are also
    /// the window the exact counters are taken over, so they do not
    /// depend on how fast the host is.
    pub min_slices: usize,
    /// World builds timed for `setup_s`, at least.
    pub setups: usize,
    /// Iterations per unit probe.
    pub probe_iters: u32,
}

impl Plan {
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            min_slices: 40,
            setups: 3,
            probe_iters: 100_000,
        }
    }

    /// 1/50 of the work: enough to exercise every code path and the
    /// correctness gate, too little to compare against a bound.
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 0.0,
            min_slices: 4,
            setups: 1,
            probe_iters: 2_000,
        }
    }
}

const MAX_SETUPS: usize = 15;
const CHEAP_SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Everything one pass over a workload measured.
struct Pass {
    setup_s: Vec<f64>,
    slices: Vec<Slice>,
    /// Per-span self time and time outside any span, each slice's share
    /// normalised by that slice's calibration, summed; and the counts.
    span_cu: [f64; SPAN_COUNT],
    harness_cu: f64,
    totals: Totals,
    /// Ops, wire bytes, engine counters and allocations of the counter
    /// window (the first `min_slices` slices).
    window_ops: u64,
    window_wire_bytes: u64,
    window: Counters,
    window_allocs: (u64, u64),
    /// After settling: everything attempted since the world was built.
    tally: Tally,
    health: Health,
    capture: Capture,
}

impl Pass {
    fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    fn cost_per_op_cu(&self) -> f64 {
        quiet_level(&self.slices, Slice::cu_per_op)
    }

    fn failed(&self) -> u64 {
        self.tally.failed()
    }
}

fn measure<W: World, T: Tracer>(plan: &Plan, budget: f64, t: &mut T, calib: &mut Calib) -> Pass {
    // Set-up is timed several times and the median reported; a cheap
    // one is repeated more often, since a few milliseconds of wall clock
    // are mostly noise. The last world built is the one measured.
    let mut capture = Capture::default();
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut world = None;
    let setting_up = Instant::now();
    while setup_s.len() < plan.setups
        || (plan.setups > 1
            && setup_s.len() < MAX_SETUPS
            && setting_up.elapsed() < CHEAP_SETUP_BUDGET)
    {
        drop(world.take());
        capture = Capture::default();
        let start = Instant::now();
        world = Some(W::build(plan.seed, &mut capture));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut world = world.expect("built at least once");
    // Everything the window appends to is sized here, so the window
    // itself allocates only what the engine allocates.
    let mut lat: Vec<u32> = Vec::with_capacity(2 * W::SLICE_OPS as usize + 4096);
    let mut slices: Vec<Slice> = Vec::with_capacity(8192);
    let mut span_cu = [0.0; SPAN_COUNT];
    let mut harness_cu = 0.0;
    let mut window_allocs = (0, 0);
    let mut window = None;

    let tally0 = world.tally();
    let counters0 = world.counters();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(budget);
    let mut calib_before = calib.run();
    while slices.len() < plan.min_slices
        || (started.elapsed() < budget && slices.len() < slices.capacity())
    {
        let totals0 = t.totals();
        let allocs0 = alloc::thread_totals();
        t.resume();
        let slice_start = Instant::now();
        let ops = world.run(t, W::SLICE_OPS, &mut lat);
        let ns = slice_start.elapsed().as_nanos() as u64;
        t.pause();
        let allocs1 = alloc::thread_totals();
        if ops == 0 {
            break; // no progress is possible; the gate below reports why
        }
        let lat_p50_ns = percentile_in_place(&mut lat, 0.50);
        let lat_p99_ns = percentile_in_place(&mut lat, 0.99);
        lat.clear();
        let calib_after = calib.run();
        let totals1 = t.totals();
        let slice = Slice {
            ops,
            ns,
            calib_before,
            calib_after,
            lat_p50_ns,
            lat_p99_ns,
            spans: totals1.calls.iter().sum::<u64>() - totals0.calls.iter().sum::<u64>(),
        };
        calib_before = calib_after;

        for (cu, (after, before)) in span_cu
            .iter_mut()
            .zip(totals1.self_ns.iter().zip(totals0.self_ns))
        {
            *cu += (after - before) as f64 / slice.ns_per_cu();
        }
        harness_cu += (totals1.harness_ns - totals0.harness_ns) as f64 / slice.ns_per_cu();
        slices.push(slice);

        if slices.len() <= plan.min_slices {
            window_allocs.0 += allocs1.0 - allocs0.0;
            window_allocs.1 += allocs1.1 - allocs0.1;
        }
        if slices.len() == plan.min_slices {
            window = Some((world.tally(), world.counters()));
        }
    }
    let (tally1, counters1) = window.unwrap_or_else(|| (world.tally(), world.counters()));

    world.settle();
    Pass {
        setup_s,
        slices,
        span_cu,
        harness_cu,
        totals: t.totals(),
        window_ops: tally1.completed - tally0.completed,
        window_wire_bytes: tally1.wire_bytes - tally0.wire_bytes,
        window: counters1.since(&counters0),
        window_allocs,
        tally: world.tally(),
        health: world.health(),
        capture,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What a run reports: whether the gate passed, the op counts, the
/// metrics, and notes for the human reader.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

fn gate(pass: &Pass, notes: &mut Vec<String>) -> bool {
    let t = pass.tally;
    if pass.failed() > 0 {
        notes.push(format!(
            "FAIL: {} of {} ops failed ({} incomplete, {} bad deliveries or refused sends)",
            pass.failed(),
            t.attempted,
            t.attempted - t.completed.min(t.attempted),
            t.bad
        ));
    }
    if !pass.health.ok() {
        notes.push(format!(
            "FAIL: {} engine objects with an unbalanced ledger, {} not quiescent when idle",
            pass.health.unbalanced, pass.health.not_quiescent
        ));
    }
    pass.failed() == 0 && pass.health.ok() && t.attempted > 0
}

/// The end-to-end pass: tracer off.
pub fn end_to_end<W: World>(plan: &Plan) -> Report {
    let mut calib = Calib::new();
    let pass = measure::<W, Off>(plan, plan.seconds, &mut Off, &mut calib);
    let mut notes = Vec::new();
    let correct = gate(&pass, &mut notes);

    // In the order of `metrics::END_TO_END`.
    let values = [
        median(&pass.setup_s),
        pass.cost_per_op_cu(),
        typical_level(&pass.slices, |s| s.lat_p50_ns / s.ns_per_cu()),
        share(pass.window_wire_bytes, pass.window_ops),
        peak_rss_mb().unwrap_or(0.0),
    ];
    assert_eq!(values.len(), metrics::END_TO_END.len());
    let metrics = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| (def.name.to_string(), value, def.unit))
        .collect();
    notes.push(format!(
        "{} slices of {} ops, {} ops timed; ops_failed_share {}",
        pass.slices.len(),
        W::SLICE_OPS,
        pass.ops(),
        share(pass.failed(), pass.tally.attempted)
    ));
    Report {
        correct,
        attempted: pass.tally.attempted,
        failed: pass.failed(),
        metrics,
        notes,
    }
}

/// Times `iters` calls of `f` between two calibration runs; cu per call.
fn probe(calib: &mut Calib, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let before = calib.run();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64;
    let after = calib.run();
    ns / iters as f64 / ((before + after) / 2.0)
}

/// What the recorder itself costs per span, in cu: the part charged to
/// the span (between its two clock readings) and the part charged to
/// whatever encloses it. Measured on empty spans; subtracted from the
/// per-layer rows so that they add up to the *untraced* cost.
fn span_cost(calib: &mut Calib) -> (f64, f64) {
    const SPANS: u32 = 200_000;
    let mut r = Recorder::new(0);
    let before = calib.run();
    r.resume();
    for op in 0..SPANS {
        r.begin_op(op as u64);
        r.enter(Span::ConnSend);
        r.exit();
    }
    r.pause();
    let ns_per_cu = (before + calib.run()) / 2.0;
    let t = r.totals();
    let per_span = |ns: u64| ns as f64 / SPANS as f64 / ns_per_cu;
    (
        per_span(t.self_ns[Span::ConnSend as usize]),
        per_span(t.harness_ns),
    )
}

/// The traced pass: an untraced reference window, then the same window
/// from the same seed with the recorder on. Returns the report and the
/// sampled span trees as JSON lines.
pub fn traced<W: World>(plan: &Plan) -> (Report, String) {
    let mut calib = Calib::new();
    let single = Plan { setups: 1, ..*plan };
    let reference = measure::<W, Off>(&single, plan.seconds * 0.4, &mut Off, &mut calib);
    let mut recorder = Recorder::new(plan.seed);
    let pass = measure::<W, Recorder>(&single, plan.seconds * 0.6, &mut recorder, &mut calib);

    let mut notes = Vec::new();
    let mut correct = gate(&reference, &mut notes) & gate(&pass, &mut notes);

    // Same seed, same first `min_slices` slices: the engine must have
    // done exactly the same work with the recorder on, and the recorder
    // must not have allocated inside the window.
    if W::EXACT_COUNTERS {
        let same = reference.window == pass.window
            && reference.window_ops == pass.window_ops
            && reference.window_wire_bytes == pass.window_wire_bytes;
        if !same {
            correct = false;
            notes.push(
                "FAIL: engine counters differ between the untraced and traced windows".into(),
            );
        }
        let (a, b) = (reference.window_allocs, pass.window_allocs);
        let close = |x: u64, y: u64| x.abs_diff(y) as f64 <= 1e-3 * x.max(y) as f64;
        let allocs_agree = if W::EXACT_ALLOCS {
            a == b
        } else {
            close(a.0, b.0) && close(a.1, b.1)
        };
        if !allocs_agree {
            correct = false;
            notes.push(format!(
                "FAIL: allocations differ between the untraced and traced windows: {a:?} vs {b:?}"
            ));
        }
    }

    let ops = pass.ops() as f64;
    let w = &pass.window;
    let wops = pass.window_ops as f64;
    let per_op = |c: C| w.get(c) as f64 / wops;
    // In the order of `metrics::per_layer()`.
    let mut values: Vec<f64> = Vec::new();

    // Per-span rows, with the recorder's own cost taken out: each span
    // pays the inside cost once and the outside cost once per child.
    let (inside_cu, outside_cu) = span_cost(&mut calib);
    let totals = &pass.totals;
    let harness_own = (pass.harness_cu - totals.top_calls as f64 * outside_cu).max(0.0);
    let mut spans_own = 0.0;
    for &span in Span::ALL {
        let i = span as usize;
        let own = pass.span_cu[i]
            - totals.calls[i] as f64 * inside_cu
            - totals.child_calls[i] as f64 * outside_cu;
        // A span too short to resolve can come out a hair below zero.
        let own = own.max(0.0);
        spans_own += own;
        values.push(own / ops);
        values.push(totals.calls[i] as f64 / ops);
    }

    let mut probes = Probes::new(&pass.capture, W::PAYLOAD, plan.seed);
    let n = plan.probe_iters;
    let pack_iters = (n / 16).max(1);
    let pack_count = probes.pack_count() as f64;
    let probe_values = [
        probe(&mut calib, n, || probes.preamble_decode()),
        probe(&mut calib, n, || probes.router_probe()),
        probe(&mut calib, n, || probes.filter_run()),
        probe(&mut calib, pack_iters, || probes.pack()) / pack_count,
        probe(&mut calib, pack_iters, || probes.unpack()) / pack_count,
        probe(&mut calib, n, || probes.pool_cycle()),
    ];
    values.extend(probe_values);

    let sends = w.get(C::FastSends) + w.get(C::SlowSends) + w.get(C::QueuedSends);
    let deliveries = w.get(C::FastDeliveries) + w.get(C::SlowDeliveries);
    let takes = w.get(C::PoolHits) + w.get(C::PoolMisses);
    let counter_values = [
        share(w.get(C::FastSends), sends),
        share(w.get(C::FastDeliveries), deliveries),
        share(w.get(C::QueuedSends), sends),
        // Messages per data frame: acknowledgements and retransmissions
        // are control frames and carry none.
        share(
            w.get(C::MsgsDelivered),
            w.get(C::FramesOut) - w.get(C::ControlMsgs).min(w.get(C::FramesOut)),
        ),
        per_op(C::FramesOut),
        per_op(C::ControlMsgs),
        share(w.get(C::PredictMisses), w.get(C::FramesIn)),
        share(w.get(C::FilterMisses), w.get(C::FramesIn)),
        per_op(C::IdentFrames),
        per_op(C::Drops),
        per_op(C::PreCalls),
        per_op(C::PostCalls),
        pass.window_allocs.0 as f64 / wops,
        pass.window_allocs.1 as f64 / wops,
        share(w.get(C::PoolHits), takes),
        share(w.get(C::Migrations), w.get(C::Admits)),
        per_op(C::FrontRejects),
        w.get(C::Tombstones) as f64,
        w.get(C::Cookies) as f64,
        share(w.get(C::NetFrames), w.get(C::NetCalls)),
        share(w.get(C::NetEmptyPolls), w.get(C::NetPolls)),
        per_op(C::NetRejects),
        per_op(C::NetFaultDrops),
    ];
    values.extend(counter_values);

    // Host and raw rows describe the untraced reference window.
    let calibs: Vec<f64> = reference.slices.iter().map(Slice::ns_per_cu).collect();
    let raw: Vec<f64> = reference.slices.iter().map(Slice::ns_per_op).collect();
    let (lo, hi) = calibs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let harness_values = [
        median(&calibs),
        (hi - lo) / median(&calibs),
        reference.slices.len() as f64,
        median(&raw),
        1e9 / median(&raw),
        typical_level(&reference.slices, |s| s.lat_p99_ns / s.ns_per_cu()),
        harness_own / ops,
        inside_cu + outside_cu,
        pass.cost_per_op_cu() / reference.cost_per_op_cu() - 1.0,
        // The share of the loop that is not inside an engine call.
        harness_own / (spans_own + harness_own),
        // The rows partition each traced slice; with the recorder's cost
        // removed they should add up to the untraced loop. Above zero:
        // the recorder cost less in the loop than on empty spans (its
        // clock reads overlap the engine's work) and the rows are short
        // by this much. Both sides at their quiet level.
        1.0 - quiet_level(&pass.slices, |s| {
            s.cu_per_op() - s.spans as f64 * (inside_cu + outside_cu) / s.ops as f64
        }) / reference.cost_per_op_cu(),
    ];
    values.extend(harness_values);

    let table = metrics::per_layer();
    assert_eq!(table.len(), values.len(), "per-layer table out of step");
    let metrics = table
        .into_iter()
        .zip(values)
        .map(|(def, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (def.name, value, def.unit)
        })
        .collect();

    notes.push(format!(
        "{} traced slices ({} ops) after {} untraced; counter window {} ops; {} span records sampled",
        pass.slices.len(),
        pass.ops(),
        reference.slices.len(),
        pass.window_ops,
        recorder.records().len()
    ));
    let report = Report {
        correct,
        attempted: reference.tally.attempted + pass.tally.attempted,
        failed: reference.failed() + pass.failed(),
        metrics,
        notes,
    };
    (report, trace::records_jsonl(recorder.records()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        Bulk16k, Churn, Echo1Conn, Fanin16k, LossyStream, StreamPack, UdpEcho16,
    };

    fn value(report: &Report, name: &str) -> f64 {
        let found = report.metrics.iter().find(|(n, _, _)| n == name);
        found.unwrap_or_else(|| panic!("no metric {name}")).1
    }

    /// Two slices per window: enough to cross every code path.
    fn tiny(seed: u64) -> Plan {
        Plan {
            min_slices: 2,
            ..Plan::smoke(seed)
        }
    }

    fn traced_ok<W: World>() -> Report {
        let (report, jsonl) = traced::<W>(&tiny(7));
        assert!(report.correct, "{}: {:?}", W::NAME, report.notes);
        assert_eq!(report.failed, 0);
        assert_eq!(report.metrics.len(), metrics::per_layer().len());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"id\":")));
        // The rows, recorder cost removed, explain the untraced loop.
        // (Loose: two debug-build slices on a busy host.)
        assert!(value(&report, "trace.unexplained_share").abs() < 0.5);
        report
    }

    #[test]
    fn echo_1conn_stays_on_the_fast_path_and_off_the_shard_and_net() {
        let r = traced_ok::<Echo1Conn>();
        assert_eq!(value(&r, "conn.fast_deliver_share"), 1.0);
        assert_eq!(value(&r, "conn.fast_send_share"), 1.0);
        assert_eq!(value(&r, "shard.drain.calls_per_op"), 0.0);
        assert_eq!(value(&r, "net.send.calls_per_op"), 0.0);
        assert_eq!(value(&r, "net.recv.calls_per_op"), 0.0);
        assert_eq!(value(&r, "conn.send.calls_per_op"), 2.0);
    }

    #[test]
    fn stream_pack_packs() {
        let r = traced_ok::<StreamPack>();
        assert!(value(&r, "conn.msgs_per_frame") >= 32.0);
    }

    #[test]
    fn bulk_16k_never_takes_the_fast_path() {
        let r = traced_ok::<Bulk16k>();
        assert_eq!(value(&r, "conn.fast_deliver_share"), 0.0);
        assert!(value(&r, "conn.frames_per_op") > 4.0);
    }

    #[test]
    fn fanin_16k_goes_through_the_shard_front() {
        let r = traced_ok::<Fanin16k>();
        assert!(value(&r, "shard.drain.calls_per_op") > 0.0);
        assert_eq!(value(&r, "router.cookies"), 16_384.0);
    }

    #[test]
    fn churn_builds_and_removes_a_connection_per_op() {
        let r = traced_ok::<Churn>();
        assert_eq!(value(&r, "conn.new.calls_per_op"), 2.0);
        assert_eq!(value(&r, "shard.admit.calls_per_op"), 1.0);
        assert_eq!(value(&r, "shard.remove.calls_per_op"), 1.0);
        assert_eq!(value(&r, "router.cookies"), 1_024.0);
    }

    #[test]
    fn lossy_stream_leaves_the_fast_path_some_of_the_time() {
        let r = traced_ok::<LossyStream>();
        let fast = value(&r, "conn.fast_deliver_share");
        assert!(fast > 0.0 && fast < 1.0, "{fast}");
        assert!(value(&r, "net.fault_drops_per_op") > 0.0);
    }

    #[test]
    fn udp_echo16_crosses_the_kernel() {
        let r = traced_ok::<UdpEcho16>();
        assert!(value(&r, "net.send.calls_per_op") > 0.0);
        assert!(value(&r, "net.frames_per_syscall") > 0.0);
    }

    #[test]
    fn the_seed_decides_the_exact_counters() {
        let run = |seed| {
            let r = end_to_end::<LossyStream>(&tiny(seed));
            assert!(r.correct, "{:?}", r.notes);
            assert_eq!(r.metrics.len(), metrics::END_TO_END.len());
            (r.attempted, value(&r, "wire_bytes_per_op"))
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "the fault seed derives from --seed");
    }
}
