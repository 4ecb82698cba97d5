//! The virtual CPU cost model, calibrated to §5 of the paper.
//!
//! Calibration anchors (all from the paper's measurements):
//!
//! | Anchor | Paper value |
//! |---|---|
//! | fast-path send (app → U-Net handoff) | ~25 µs |
//! | fast-path delivery (U-Net → app) | ~25 µs |
//! | post-send, 4-layer stack | ~80 µs |
//! | post-deliver, 4-layer stack | ~50 µs |
//! | window layer stacked twice | +15 µs post-send *and* +15 µs post-deliver |
//! | C Horus without PA, round trip | ~1.5 ms |
//! | ML (FOX) vs C implementation factor | ≈ 9.4× (we use 3× for stack code; the rest of FOX's gap was its heavier runtime) |
//!
//! Per-layer post costs are assigned so the 4-layer sums hit 80/50 with
//! the window layer at exactly 15/15. Pre costs (only on the critical
//! path when the PA cannot bypass) are set equal to post costs — the
//! canonical split divides a layer's work roughly in half. The no-PA
//! baselines add a per-message *framework* cost (buffer management,
//! demultiplexing, per-layer header marshalling) calibrated so the
//! C-without-PA round trip lands at the paper's ~1.5 ms.

use crate::Nanos;
use pa_obs::{Phase, XrayReport};

/// Implementation language of the *stack* code (the PA itself is always
/// the paper's 1500 lines of C and is not scaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// O'Caml — the paper's measured costs, factor 1.
    Ml,
    /// C — stack code at one third of the O'Caml cost.
    C,
}

impl Language {
    /// Multiplier applied to stack-code costs.
    pub(crate) fn factor(self) -> f64 {
        match self {
            Language::Ml => 1.0,
            Language::C => 1.0 / 3.0,
        }
    }
}

/// Per-layer phase costs in nanoseconds (O'Caml units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// Pre-send phase.
    pub pre_send: Nanos,
    /// Post-send phase.
    pub post_send: Nanos,
    /// Pre-deliver phase.
    pub pre_deliver: Nanos,
    /// Post-deliver phase.
    pub post_deliver: Nanos,
}

/// Cost of a named layer, in O'Caml units.
///
/// The four paper-stack layers sum to the §5 anchors:
/// post-send 20+25+15+20 = 80 µs, post-deliver 10+15+15+10 = 50 µs,
/// and the window layer is exactly the +15/+15 the doubling experiment
/// measured.
pub(crate) fn layer_cost(name: &str) -> LayerCost {
    let us = |a: u64, b: u64, c: u64, d: u64| LayerCost {
        pre_send: a * 1_000,
        post_send: b * 1_000,
        pre_deliver: c * 1_000,
        post_deliver: d * 1_000,
    };
    match name {
        "bottom" => us(20, 20, 10, 10),
        "checksum" => us(25, 25, 15, 15),
        "window" => us(15, 15, 15, 15),
        "frag" => us(20, 20, 10, 10),
        "heartbeat" => us(8, 8, 8, 8),
        "meter" => us(2, 2, 2, 2),
        _ => us(10, 10, 10, 10), // null / unknown layers
    }
}

/// The complete cost model of one node.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Language the stack code runs in.
    pub language: Language,
    /// Fast-path send cost excluding the filter (PA C code).
    pub fast_send_base: Nanos,
    /// Fast-path delivery cost excluding the filter (PA C code).
    pub fast_deliver_base: Nanos,
    /// One interpreted packet-filter run.
    pub filter_interpreted: Nanos,
    /// One pre-resolved ("compiled") packet-filter run.
    pub filter_compiled: Nanos,
    /// True if this node's filters are compiled.
    pub compiled_filter: bool,
    /// Parking a message in the backlog.
    pub backlog_push: Nanos,
    /// Per-message cost of packing on the send side (copy + header).
    pub pack_per_msg: Nanos,
    /// Per-message cost of unpacking + app handoff on delivery.
    pub unpack_per_msg: Nanos,
    /// Per-message *framework* overhead (traditional message
    /// management, demultiplexing, per-layer marshalling) charged on
    /// the critical path of **no-PA baseline** nodes only — this is the
    /// cost the PA masks. In the same language units as the stack.
    pub framework_per_msg: Nanos,
    /// True for no-PA baseline nodes: framework overhead applies and
    /// post phases run inline.
    pub baseline_framework: bool,
    /// Names of the stack's layers, bottom first (for per-layer sums).
    pub layer_names: Vec<String>,
}

impl CostModel {
    /// The paper's measured system: ML stack, interpreted filters.
    pub fn paper_ml(layer_names: Vec<String>) -> CostModel {
        CostModel {
            language: Language::Ml,
            fast_send_base: 20_000,
            fast_deliver_base: 20_000,
            filter_interpreted: 5_000,
            filter_compiled: 1_000,
            compiled_filter: false,
            backlog_push: 2_000,
            pack_per_msg: 9_000,
            unpack_per_msg: 9_000,
            framework_per_msg: 865_000,
            baseline_framework: false,
            layer_names,
        }
    }

    /// The same stack in C (for the no-PA C Horus baseline).
    pub fn paper_c(layer_names: Vec<String>) -> CostModel {
        CostModel {
            language: Language::C,
            ..CostModel::paper_ml(layer_names)
        }
    }

    fn scale(&self, ns: Nanos) -> Nanos {
        (ns as f64 * self.language.factor()).round() as Nanos
    }

    /// One packet-filter run.
    pub(crate) fn filter_run(&self) -> Nanos {
        if self.compiled_filter {
            self.filter_compiled
        } else {
            self.filter_interpreted
        }
    }

    /// Fast-path send: PA code + filter. (The paper's ~25 µs.)
    pub(crate) fn fast_send(&self) -> Nanos {
        self.fast_send_base + self.filter_run()
    }

    /// Fast-path delivery: PA code + filter + prediction compare.
    pub(crate) fn fast_deliver(&self) -> Nanos {
        self.fast_deliver_base + self.filter_run()
    }

    /// Sum of a phase over the whole stack (language-scaled).
    fn stack_sum(&self, f: impl Fn(&LayerCost) -> Nanos) -> Nanos {
        let total: Nanos = self.layer_names.iter().map(|n| f(&layer_cost(n))).sum();
        self.scale(total)
    }

    /// Post-send cost for one frame (the paper's 80 µs at 4 layers).
    pub(crate) fn post_send_frame(&self) -> Nanos {
        self.stack_sum(|c| c.post_send)
    }

    /// Post-deliver cost for one frame (the paper's 50 µs at 4 layers).
    pub(crate) fn post_deliver_frame(&self) -> Nanos {
        self.stack_sum(|c| c.post_deliver)
    }

    /// Pre-send traversal cost for one frame (slow path only).
    pub(crate) fn pre_send_frame(&self) -> Nanos {
        self.stack_sum(|c| c.pre_send)
    }

    /// Pre-deliver traversal cost for one frame (slow path only).
    pub(crate) fn pre_deliver_frame(&self) -> Nanos {
        self.stack_sum(|c| c.pre_deliver)
    }

    /// Framework overhead per message on the critical path (no-PA
    /// baselines only; zero when the PA is on — that is the masking).
    pub(crate) fn framework(&self) -> Nanos {
        if self.baseline_framework {
            self.scale(self.framework_per_msg)
        } else {
            0
        }
    }

    /// Cost of a slow-path send on the critical path (pre-send
    /// traversal; the PA engine and filter still run; baselines add the
    /// framework overhead).
    pub(crate) fn slow_send(&self) -> Nanos {
        self.fast_send_base + self.filter_run() + self.pre_send_frame() + self.framework()
    }

    /// Cost of a slow-path delivery on the critical path.
    pub(crate) fn slow_deliver(&self) -> Nanos {
        self.fast_deliver_base + self.filter_run() + self.pre_deliver_frame() + self.framework()
    }

    /// Cost of a layer-generated control send (ack, heartbeat): the PA
    /// tail of the send path plus the filter.
    pub(crate) fn control_send(&self) -> Nanos {
        self.fast_send_base + self.filter_run()
    }

    /// Virtual-time price of *one* invocation of `phase` for the layer
    /// named `name`, language-scaled.
    ///
    /// Tick callbacks are priced at zero: the paper's §5 breakdown
    /// measures the four canonical phases only, and timers run off the
    /// critical path.
    pub fn phase_cost(&self, name: &str, phase: Phase) -> Nanos {
        let c = layer_cost(name);
        let raw = match phase {
            Phase::PreSend => c.pre_send,
            Phase::PostSend => c.post_send,
            Phase::PreDeliver => c.pre_deliver,
            Phase::PostDeliver => c.post_deliver,
            Phase::Tick => 0,
        };
        self.scale(raw)
    }

    /// Prices an [`XrayReport`]'s phase table with this model:
    /// `virt_ns = calls × per-invocation phase cost`, reproducing the
    /// paper's critical-path breakdown (80 µs post-send / 50 µs
    /// post-deliver per 4-layer frame) from observed invocation counts.
    pub(crate) fn price_report(&self, report: &mut XrayReport) {
        pa_obs::price_rows(&mut report.phases, |l, p| self.phase_cost(l, p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_layers() -> Vec<String> {
        ["bottom", "checksum", "window", "frag"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn four_layer_post_costs_match_paper() {
        let m = CostModel::paper_ml(paper_layers());
        assert_eq!(m.post_send_frame(), 80_000, "§5: post-send ≈ 80 µs");
        assert_eq!(m.post_deliver_frame(), 50_000, "§5: post-deliver ≈ 50 µs");
    }

    #[test]
    fn doubled_window_adds_15us_each() {
        let mut names = paper_layers();
        names.push("window".into());
        let m = CostModel::paper_ml(names);
        assert_eq!(m.post_send_frame(), 95_000);
        assert_eq!(m.post_deliver_frame(), 65_000);
    }

    #[test]
    fn fast_paths_are_about_25us() {
        let m = CostModel::paper_ml(paper_layers());
        assert_eq!(m.fast_send(), 25_000);
        assert_eq!(m.fast_deliver(), 25_000);
    }

    #[test]
    fn compiled_filter_shaves_the_filter_cost() {
        let mut m = CostModel::paper_ml(paper_layers());
        m.compiled_filter = true;
        assert_eq!(m.fast_send(), 21_000);
    }

    #[test]
    fn c_scales_stack_but_not_pa() {
        let ml = CostModel::paper_ml(paper_layers());
        let c = CostModel::paper_c(paper_layers());
        let ratio = ml.post_send_frame() as f64 / c.post_send_frame() as f64;
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
        assert_eq!(c.fast_send(), ml.fast_send(), "PA code is C either way");
    }

    #[test]
    fn framework_applies_only_to_baselines() {
        let mut m = CostModel::paper_ml(paper_layers());
        assert_eq!(m.framework(), 0, "PA mode masks the framework cost");
        m.baseline_framework = true;
        assert_eq!(m.framework(), 865_000);
    }

    #[test]
    fn no_pa_c_baseline_lands_near_1_5ms_rtt() {
        // No-PA C Horus: everything inline on the critical path.
        // RTT = 2 × (send pre+post+fw) + 2 × (deliver pre+post+fw) + wire.
        let mut c = CostModel::paper_c(paper_layers());
        c.baseline_framework = true;
        let send = c.slow_send() + c.post_send_frame();
        let deliver = c.slow_deliver() + c.post_deliver_frame();
        let rtt = 2 * (send + 35_000 + deliver);
        assert!(
            (1_300_000..=1_700_000).contains(&rtt),
            "C no-PA RTT = {rtt} ns"
        );
    }

    #[test]
    fn phase_pricing_reproduces_the_paper_breakdown() {
        use pa_obs::PhaseRow;
        let m = CostModel::paper_ml(paper_layers());
        let mut report = XrayReport::default();
        // One frame's worth of post phases across the 4-layer stack.
        for name in ["bottom", "checksum", "window", "frag"] {
            report.phases.push(PhaseRow {
                layer: name.to_string(),
                calls: [0, 1, 0, 1, 3],
                ..Default::default()
            });
        }
        m.price_report(&mut report);
        let post_send: u64 = report.phases.iter().map(|r| r.virt_ns[1]).sum();
        let post_deliver: u64 = report.phases.iter().map(|r| r.virt_ns[3]).sum();
        let tick: u64 = report.phases.iter().map(|r| r.virt_ns[4]).sum();
        assert_eq!(post_send, 80_000, "§5 post-send anchor");
        assert_eq!(post_deliver, 50_000, "§5 post-deliver anchor");
        assert_eq!(tick, 0, "timers are off the critical path");
        // The window row alone is the +15/+15 doubling anchor.
        assert_eq!(report.phases[2].virt_ns[1], 15_000);
        assert_eq!(report.phases[2].virt_ns[3], 15_000);
    }

    #[test]
    fn no_pa_ml_is_markedly_worse_than_c() {
        let mut ml = CostModel::paper_ml(paper_layers());
        ml.baseline_framework = true;
        let mut c = CostModel::paper_c(paper_layers());
        c.baseline_framework = true;
        let rtt = |m: &CostModel| {
            2 * (m.slow_send()
                + m.post_send_frame()
                + 35_000
                + m.slow_deliver()
                + m.post_deliver_frame())
        };
        assert!(rtt(&ml) > 2 * rtt(&c), "ml {} vs c {}", rtt(&ml), rtt(&c));
    }
}
