//! Per-connection counters.
//!
//! The experiments and tests reason about *which path* messages took —
//! the whole point of the PA is moving traffic from the slow path to the
//! fast path — so the engine counts every outcome.

use pa_obs::{RejectBucket, RejectLedger, RejectReason};
use std::fmt;

/// Counters kept by each [`crate::Connection`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Sends that took the fast path (predicted header + filter).
    pub fast_sends: u64,
    /// Sends that went through the layered pre-send traversal.
    pub slow_sends: u64,
    /// Sends parked in the backlog (disable or pending post-processing).
    pub queued_sends: u64,
    /// Application messages that left in packed frames.
    pub packed_msgs: u64,
    /// Packed frames produced by backlog drains.
    pub packed_frames: u64,
    /// Frames actually handed to the network.
    pub frames_out: u64,
    /// Frames received from the network.
    pub frames_in: u64,
    /// Deliveries that took the fast path.
    pub fast_deliveries: u64,
    /// Deliveries that went through the layered pre-deliver traversal.
    pub slow_deliveries: u64,
    /// Application messages delivered (after unpacking).
    pub msgs_delivered: u64,
    /// Frames dropped: unknown cookie and no conn-ident present.
    pub drops_unknown_cookie: u64,
    /// Frames dropped by a layer's pre-deliver verdict.
    pub drops_by_layer: u64,
    /// Frames dropped as malformed (truncated headers, bad packing).
    pub drops_malformed: u64,
    /// Send-side drops: the send filter refused a frame outright, or a
    /// layer rejected a message in its pre-send phase.
    pub drops_send_rejected: u64,
    /// Delivery-filter rejections (forced the slow path).
    pub recv_filter_misses: u64,
    /// Prediction mismatches on delivery (forced the slow path).
    pub predict_misses: u64,
    /// Post-send phases executed.
    pub post_sends: u64,
    /// Post-deliver phases executed.
    pub post_delivers: u64,
    /// Control messages emitted by layers (acks, retransmissions).
    pub control_msgs: u64,
    /// Frames that carried the connection identification.
    pub ident_frames_out: u64,
    /// The fine-grained reject taxonomy: every coarse drop above is the
    /// roll-up of one or more [`RejectReason`]s counted here, and
    /// [`ConnStats::rejects_reconcile`] proves the two ledgers agree
    /// exactly — even under adversarial wire input.
    pub rejects: RejectLedger,
}

impl ConnStats {
    /// Fraction of non-queued sends that took the fast path.
    pub fn fast_send_ratio(&self) -> f64 {
        let denom = (self.fast_sends + self.slow_sends) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.fast_sends as f64 / denom
    }

    /// The delivery-accounting invariant: every frame handed to
    /// `deliver_frame` either counted a delivery (fast or slow) or
    /// exactly one *entry* drop (unknown cookie / foreign ident /
    /// malformed before any layer ran). By-layer drops happen *inside*
    /// a slow traversal and therefore ride within `slow_deliveries`;
    /// send-side rejections have their own counter
    /// (`drops_send_rejected`) and never touch the receive ledger.
    ///
    /// The one deliberate exception: a frame whose *packing* turns out
    /// malformed after the full layer traversal already counted a slow
    /// delivery also bumps `drops_malformed` — with a checksum layer in
    /// the stack that path is unreachable, and the fault-injection tests
    /// assert this balance holds under drop/corrupt/duplicate/reorder
    /// storms.
    pub fn delivery_balanced(&self) -> bool {
        self.frames_in
            == self.fast_deliveries
                + self.slow_deliveries
                + self.drops_unknown_cookie
                + self.drops_malformed
    }

    /// Fraction of deliveries that took the fast path.
    pub fn fast_delivery_ratio(&self) -> f64 {
        let denom = (self.fast_deliveries + self.slow_deliveries) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.fast_deliveries as f64 / denom
    }

    /// Number of entries returned by [`ConnStats::fields`]: the coarse
    /// counters plus one `reject_*` row per [`RejectReason`].
    pub const FIELD_COUNT: usize = 20 + RejectReason::COUNT;

    /// The fine-vs-coarse ledger invariant, the hostile-wire
    /// counterpart of [`ConnStats::delivery_balanced`]:
    ///
    /// - every cookie-bucket reject is one `drops_unknown_cookie`,
    /// - every malformed-bucket reject is one `drops_malformed`,
    /// - layer-bucket rejects (`replayed-seq`) are a subset of
    ///   `drops_by_layer` (layers can drop for reasons outside the wire
    ///   taxonomy),
    /// - send-bucket rejects (`filter-reject`) are a subset of
    ///   `drops_send_rejected` (which also counts layer pre-send
    ///   rejections),
    /// - netif-bucket rejects never reach a connection, so none may
    ///   appear here.
    pub fn rejects_reconcile(&self) -> bool {
        self.rejects.bucket_total(RejectBucket::Cookie) == self.drops_unknown_cookie
            && self.rejects.bucket_total(RejectBucket::Malformed) == self.drops_malformed
            && self.rejects.bucket_total(RejectBucket::Layer) <= self.drops_by_layer
            && self.rejects.bucket_total(RejectBucket::Send) <= self.drops_send_rejected
            && self.rejects.bucket_total(RejectBucket::Netif) == 0
    }

    /// Every counter as a stable `(name, value)` list — the single
    /// source of truth for the [`fmt::Display`] table and for feeding a
    /// [`pa_obs::MetricsSnapshot`], so the two can never disagree. The
    /// first 20 entries are the coarse counters; the rest mirror the
    /// reject ledger as `reject_<reason>` rows.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
        let mut out = [("", 0u64); Self::FIELD_COUNT];
        let coarse = [
            ("fast_sends", self.fast_sends),
            ("slow_sends", self.slow_sends),
            ("queued_sends", self.queued_sends),
            ("packed_msgs", self.packed_msgs),
            ("packed_frames", self.packed_frames),
            ("frames_out", self.frames_out),
            ("frames_in", self.frames_in),
            ("fast_deliveries", self.fast_deliveries),
            ("slow_deliveries", self.slow_deliveries),
            ("msgs_delivered", self.msgs_delivered),
            ("drops_unknown_cookie", self.drops_unknown_cookie),
            ("drops_by_layer", self.drops_by_layer),
            ("drops_malformed", self.drops_malformed),
            ("drops_send_rejected", self.drops_send_rejected),
            ("recv_filter_misses", self.recv_filter_misses),
            ("predict_misses", self.predict_misses),
            ("post_sends", self.post_sends),
            ("post_delivers", self.post_delivers),
            ("control_msgs", self.control_msgs),
            ("ident_frames_out", self.ident_frames_out),
        ];
        out[..coarse.len()].copy_from_slice(&coarse);
        for (i, (reason, count)) in self.rejects.iter().enumerate() {
            out[coarse.len() + i] = (reason.metric_name(), count);
        }
        out
    }

    /// Records every counter under `scope` in a metrics snapshot.
    pub(crate) fn record_into(&self, snapshot: &mut pa_obs::MetricsSnapshot, scope: &str) {
        for (name, value) in self.fields() {
            snapshot.record(scope, name, value);
        }
    }

    /// The growth since `earlier` (a copy of these stats taken before
    /// some window of work), per counter, saturating. Brackets taken
    /// around disjoint windows — e.g. the main thread around its pre
    /// phases and the drain thread around its post phases — partition
    /// the connection's totals exactly, so per-domain shards folded
    /// from these deltas merge back into balanced ledgers with plain
    /// `==` (see `pa_obs::domain`).
    pub fn delta(&self, earlier: &ConnStats) -> ConnStats {
        ConnStats {
            fast_sends: self.fast_sends.saturating_sub(earlier.fast_sends),
            slow_sends: self.slow_sends.saturating_sub(earlier.slow_sends),
            queued_sends: self.queued_sends.saturating_sub(earlier.queued_sends),
            packed_msgs: self.packed_msgs.saturating_sub(earlier.packed_msgs),
            packed_frames: self.packed_frames.saturating_sub(earlier.packed_frames),
            frames_out: self.frames_out.saturating_sub(earlier.frames_out),
            frames_in: self.frames_in.saturating_sub(earlier.frames_in),
            fast_deliveries: self.fast_deliveries.saturating_sub(earlier.fast_deliveries),
            slow_deliveries: self.slow_deliveries.saturating_sub(earlier.slow_deliveries),
            msgs_delivered: self.msgs_delivered.saturating_sub(earlier.msgs_delivered),
            drops_unknown_cookie: self
                .drops_unknown_cookie
                .saturating_sub(earlier.drops_unknown_cookie),
            drops_by_layer: self.drops_by_layer.saturating_sub(earlier.drops_by_layer),
            drops_malformed: self.drops_malformed.saturating_sub(earlier.drops_malformed),
            drops_send_rejected: self
                .drops_send_rejected
                .saturating_sub(earlier.drops_send_rejected),
            recv_filter_misses: self
                .recv_filter_misses
                .saturating_sub(earlier.recv_filter_misses),
            predict_misses: self.predict_misses.saturating_sub(earlier.predict_misses),
            post_sends: self.post_sends.saturating_sub(earlier.post_sends),
            post_delivers: self.post_delivers.saturating_sub(earlier.post_delivers),
            control_msgs: self.control_msgs.saturating_sub(earlier.control_msgs),
            ident_frames_out: self
                .ident_frames_out
                .saturating_sub(earlier.ident_frames_out),
            rejects: self.rejects.delta(&earlier.rejects),
        }
    }
}

impl fmt::Display for ConnStats {
    /// Renders the counters as the two-column table the examples print:
    /// nonzero counters only, with the fast-path ratios appended.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.fields() {
            if value != 0 {
                writeln!(f, "  {name:<22} {value:>10}")?;
            }
        }
        writeln!(
            f,
            "  {:<22} {:>9.1}%",
            "fast_send_ratio",
            self.fast_send_ratio() * 100.0
        )?;
        write!(
            f,
            "  {:<22} {:>9.1}%",
            "fast_delivery_ratio",
            self.fast_delivery_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = ConnStats::default();
        assert_eq!(s.fast_send_ratio(), 0.0);
        assert_eq!(s.fast_delivery_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = ConnStats {
            fast_sends: 9,
            slow_sends: 1,
            fast_deliveries: 3,
            slow_deliveries: 1,
            ..Default::default()
        };
        assert!((s.fast_send_ratio() - 0.9).abs() < 1e-12);
        assert!((s.fast_delivery_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_hides_zero_counters_and_shows_ratios() {
        let s = ConnStats {
            fast_sends: 3,
            slow_sends: 1,
            ..Default::default()
        };
        let table = s.to_string();
        assert!(table.contains("fast_sends"));
        assert!(table.contains("fast_send_ratio"));
        assert!(table.contains("75.0%"));
        assert!(
            !table.contains("drops_malformed"),
            "zero counters omitted:\n{table}"
        );
    }

    #[test]
    fn reject_ledger_mirrors_into_fields_and_reconciles() {
        let mut s = ConnStats {
            frames_in: 3,
            drops_unknown_cookie: 2,
            drops_malformed: 1,
            ..Default::default()
        };
        s.rejects.bump(RejectReason::UnknownCookie);
        s.rejects.bump(RejectReason::StaleCookie);
        s.rejects.bump(RejectReason::TruncatedPreamble);
        assert!(s.delivery_balanced(), "{s}");
        assert!(s.rejects_reconcile(), "{s}");
        let fields = s.fields();
        assert_eq!(fields.len(), ConnStats::FIELD_COUNT);
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("reject_unknown_cookie"), 1);
        assert_eq!(get("reject_stale_cookie"), 1);
        assert_eq!(get("reject_truncated_preamble"), 1);
        assert_eq!(get("reject_byte_order_conflict"), 0);

        // A cookie-bucket reject missing its coarse twin is visible.
        s.rejects.bump(RejectReason::ZeroCookie);
        assert!(!s.rejects_reconcile());
        s.drops_unknown_cookie += 1;
        assert!(s.rejects_reconcile());
        // Netif reasons must never land in a connection's ledger.
        s.rejects.bump(RejectReason::OversizedDatagram);
        assert!(!s.rejects_reconcile());
    }

    #[test]
    fn delta_brackets_partition_every_field() {
        let mut s = ConnStats::default();
        let cp0 = s;
        s.fast_sends = 5;
        s.frames_in = 3;
        s.rejects.bump(RejectReason::UnknownCookie);
        let cp1 = s;
        s.fast_sends = 9;
        s.post_sends = 2;
        s.rejects.bump(RejectReason::ShortFrame);
        let d1 = cp1.delta(&cp0);
        let d2 = s.delta(&cp1);
        assert_eq!(d1.fast_sends, 5);
        assert_eq!(d2.fast_sends, 4);
        assert_eq!(d2.post_sends, 2);
        assert_eq!(d2.rejects.get(RejectReason::ShortFrame), 1);
        assert_eq!(d2.rejects.get(RejectReason::UnknownCookie), 0);
        // Every field (including the reject ledger) re-sums exactly.
        for ((name, total), ((_, a), (_, b))) in s
            .fields()
            .iter()
            .zip(d1.fields().iter().zip(d2.fields().iter()))
        {
            assert_eq!(*total, a + b, "{name}");
        }
    }

    #[test]
    fn record_into_snapshot_reconciles_exactly() {
        let s = ConnStats {
            fast_sends: 7,
            frames_in: 9,
            predict_misses: 2,
            ..Default::default()
        };
        let mut snap = pa_obs::MetricsSnapshot::new(0);
        s.record_into(&mut snap, "conn0");
        for (name, value) in s.fields() {
            assert_eq!(snap.get("conn0", name), Some(value), "{name}");
        }
        assert_eq!(snap.iter().count(), s.fields().len());
    }
}
