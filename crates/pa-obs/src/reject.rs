//! The structured reject taxonomy for adversarial wire input.
//!
//! The PA's premise makes every byte that steers the fast path
//! attacker-controllable: the 8-byte preamble picks the connection, the
//! predicted header decides fast vs slow, and the packing header drives
//! unpack loops. A hardened ingest therefore needs more than a boolean
//! "dropped" — every rejected frame must name *why* it was refused, the
//! counts must reconcile exactly with the coarse drop ledger
//! (`delivery_balanced()` stays intact under attack), and the taxonomy
//! must be shared by every layer that touches wire bytes: the network
//! interface (datagram-level), the endpoint demux (cookie-level), the
//! connection entry (header-level), and the stack (sequence-level).
//!
//! - [`RejectReason`] — the closed vocabulary. Each variant carries its
//!   stable label, wire code, and the coarse [`RejectBucket`] it rolls
//!   up into.
//! - [`RejectBucket`] — which coarse `ConnStats` drop counter (or
//!   netif/send ledger) a reason reconciles against.
//! - [`RejectLedger`] — a `Copy`, allocation-free per-reason counter
//!   array. Bumped on reject paths only; the clean fast path never
//!   touches it.

use std::fmt;

/// Why a wire input was refused. The single vocabulary used by
/// `Connection::deliver_frame`, the `ShardedEndpoint`/`Router` demux, the
/// network interfaces, and the fuzzer's invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Frame shorter than the 8-byte preamble (§2.2).
    TruncatedPreamble,
    /// Preamble advertises a connection identification the frame is too
    /// short to carry.
    TruncatedIdent,
    /// Connection identification present but naming other endpoints.
    ForeignIdent,
    /// Cookie not recognized and no connection identification present
    /// (§2.2: "it is dropped").
    UnknownCookie,
    /// Cookie was valid for this connection once but has been replaced;
    /// replayed old-cookie frames are refused, not routed.
    StaleCookie,
    /// The reserved all-zero cookie on a frame claiming cookie-only
    /// routing — a forgery, never a legitimate sender.
    ZeroCookie,
    /// A cookie-only frame tried to flip the sender's advertised byte
    /// order mid-stream. Honoring it would re-encode the delivery
    /// prediction and re-fuse the filter on an attacker's say-so, so
    /// order changes are only honored alongside a full connection
    /// identification.
    ByteOrderConflict,
    /// Frame too short for the negotiated class headers (protocol +
    /// message + gossip), or too short for a header read inside the
    /// engine.
    ShortFrame,
    /// The packing header (§3.4) failed to decode: unknown kind, count
    /// of zero, or a piece table longer than the bytes that carry it.
    MalformedPackInfo,
    /// The packing header decoded but promises a body length different
    /// from the bytes actually present.
    LengthMismatch,
    /// A sequence number at or below the delivery cursor: a duplicate
    /// or replayed frame refused by the window layer.
    ReplayedSeq,
    /// Datagram shorter than a preamble at the network interface —
    /// nothing to route by.
    TruncatedDatagram,
    /// Datagram larger than the interface's receive buffer; delivering
    /// it would have silently truncated the frame into garbage.
    OversizedDatagram,
    /// The send-side packet filter refused a frame outright.
    FilterReject,
    /// An identified frame carried a cookie that is already bound to a
    /// *different* live connection. Honoring it would hijack that
    /// connection's cookie route (squat its demux entry, retire its
    /// real cookie as stale) on the say-so of replayable public bytes,
    /// so the binding is refused. Legitimate rebinds (peer restart)
    /// always arrive with a fresh, unbound cookie.
    CookieConflict,
}

/// Which coarse ledger a [`RejectReason`] rolls up into. The coarse
/// counters (`ConnStats::drops_*`) predate the taxonomy and the
/// `delivery_balanced()` invariant is written against them, so every
/// fine-grained reason reconciles through its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectBucket {
    /// `ConnStats::drops_unknown_cookie` — demux-level refusals.
    Cookie,
    /// `ConnStats::drops_malformed` — structurally bad frames.
    Malformed,
    /// `ConnStats::drops_by_layer` — a layer's pre-deliver verdict
    /// (rides *within* a slow delivery; not an entry drop).
    Layer,
    /// `ConnStats::drops_send_rejected` — send-side refusals.
    Send,
    /// Counted at the network interface; the frame never reached a
    /// connection, so no `ConnStats` counter moves.
    Netif,
}

impl RejectReason {
    /// Every reason, in [`RejectReason::index`] order.
    pub const ALL: [RejectReason; 15] = [
        RejectReason::TruncatedPreamble,
        RejectReason::TruncatedIdent,
        RejectReason::ForeignIdent,
        RejectReason::UnknownCookie,
        RejectReason::StaleCookie,
        RejectReason::ZeroCookie,
        RejectReason::ByteOrderConflict,
        RejectReason::ShortFrame,
        RejectReason::MalformedPackInfo,
        RejectReason::LengthMismatch,
        RejectReason::ReplayedSeq,
        RejectReason::TruncatedDatagram,
        RejectReason::OversizedDatagram,
        RejectReason::FilterReject,
        RejectReason::CookieConflict,
    ];

    /// Number of reasons (the [`RejectLedger`] array length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable position in [`RejectReason::ALL`] (ledger index and xray
    /// tag operand).
    pub fn index(self) -> usize {
        match self {
            RejectReason::TruncatedPreamble => 0,
            RejectReason::TruncatedIdent => 1,
            RejectReason::ForeignIdent => 2,
            RejectReason::UnknownCookie => 3,
            RejectReason::StaleCookie => 4,
            RejectReason::ZeroCookie => 5,
            RejectReason::ByteOrderConflict => 6,
            RejectReason::ShortFrame => 7,
            RejectReason::MalformedPackInfo => 8,
            RejectReason::LengthMismatch => 9,
            RejectReason::ReplayedSeq => 10,
            RejectReason::TruncatedDatagram => 11,
            RejectReason::OversizedDatagram => 12,
            RejectReason::FilterReject => 13,
            RejectReason::CookieConflict => 14,
        }
    }

    /// The reason at `index`, if in range (xray tag decode).
    pub fn from_index(index: usize) -> Option<RejectReason> {
        Self::ALL.get(index).copied()
    }

    /// Short stable label (metrics names use `reject_<label>` with `-`
    /// mapped by the caller as needed).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::TruncatedPreamble => "truncated-preamble",
            RejectReason::TruncatedIdent => "truncated-ident",
            RejectReason::ForeignIdent => "foreign-ident",
            RejectReason::UnknownCookie => "unknown-cookie",
            RejectReason::StaleCookie => "stale-cookie",
            RejectReason::ZeroCookie => "zero-cookie",
            RejectReason::ByteOrderConflict => "byte-order-conflict",
            RejectReason::ShortFrame => "short-frame",
            RejectReason::MalformedPackInfo => "malformed-pack-info",
            RejectReason::LengthMismatch => "length-mismatch",
            RejectReason::ReplayedSeq => "replayed-seq",
            RejectReason::TruncatedDatagram => "truncated-datagram",
            RejectReason::OversizedDatagram => "oversized-datagram",
            RejectReason::FilterReject => "filter-reject",
            RejectReason::CookieConflict => "cookie-conflict",
        }
    }

    /// The coarse ledger this reason reconciles against.
    pub fn bucket(self) -> RejectBucket {
        match self {
            RejectReason::ForeignIdent
            | RejectReason::UnknownCookie
            | RejectReason::StaleCookie
            | RejectReason::ZeroCookie
            | RejectReason::CookieConflict => RejectBucket::Cookie,
            RejectReason::TruncatedPreamble
            | RejectReason::TruncatedIdent
            | RejectReason::ByteOrderConflict
            | RejectReason::ShortFrame
            | RejectReason::MalformedPackInfo
            | RejectReason::LengthMismatch => RejectBucket::Malformed,
            RejectReason::ReplayedSeq => RejectBucket::Layer,
            RejectReason::TruncatedDatagram | RejectReason::OversizedDatagram => {
                RejectBucket::Netif
            }
            RejectReason::FilterReject => RejectBucket::Send,
        }
    }

    /// True if this reason is a *receive-entry* reject: the frame
    /// reached `deliver_frame`/`handle_routed` and was refused before
    /// (or instead of) counting a delivery. Exactly these reasons
    /// participate in `delivery_balanced()`.
    pub fn is_entry(self) -> bool {
        matches!(
            self.bucket(),
            RejectBucket::Cookie | RejectBucket::Malformed
        )
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-reason reject counters: a fixed `Copy` array, allocation-free,
/// bumped only on reject paths. One ledger lives in each `ConnStats`,
/// one in the endpoint demux, and one per network interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectLedger {
    counts: [u64; RejectReason::COUNT],
}

impl RejectLedger {
    /// An empty ledger.
    pub fn new() -> RejectLedger {
        RejectLedger::default()
    }

    /// Counts one rejection.
    #[inline]
    pub fn bump(&mut self, reason: RejectReason) {
        self.counts[reason.index()] += 1;
    }

    /// The count for `reason`.
    #[inline]
    pub fn get(&self, reason: RejectReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total rejections rolling up into `bucket`.
    pub fn bucket_total(&self, bucket: RejectBucket) -> u64 {
        RejectReason::ALL
            .iter()
            .filter(|r| r.bucket() == bucket)
            .map(|&r| self.get(r))
            .sum()
    }

    /// Total receive-entry rejections (the ones `delivery_balanced()`
    /// accounts for).
    pub fn entry_total(&self) -> u64 {
        self.bucket_total(RejectBucket::Cookie) + self.bucket_total(RejectBucket::Malformed)
    }

    /// `(reason, count)` for every reason, in index order (including
    /// zeros — callers filter).
    pub fn iter(&self) -> impl Iterator<Item = (RejectReason, u64)> + '_ {
        RejectReason::ALL.iter().map(move |&r| (r, self.get(r)))
    }

    /// Folds another ledger in (endpoint-level aggregation).
    pub fn merge(&mut self, other: &RejectLedger) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
    }

    /// True if nothing has been rejected.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The growth since `earlier` (a copy of this ledger taken before
    /// some window of work), per reason, saturating. Brackets around
    /// disjoint windows partition the source ledger exactly — the
    /// contract telemetry-domain shards ride on.
    pub fn delta(&self, earlier: &RejectLedger) -> RejectLedger {
        let mut d = RejectLedger::new();
        for (i, slot) in d.counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        d
    }

    /// Records every nonzero reason under `scope` as
    /// `reject_<label>` in a metrics snapshot.
    pub fn record_into(&self, snapshot: &mut crate::MetricsSnapshot, scope: &str) {
        for (reason, count) in self.iter() {
            if count != 0 {
                snapshot.record(scope, reason.metric_name(), count);
            }
        }
    }
}

impl RejectReason {
    /// Stable metrics name: `reject_<label>` with dashes flattened to
    /// underscores, as a `'static` string (snapshot keys borrow).
    pub fn metric_name(self) -> &'static str {
        match self {
            RejectReason::TruncatedPreamble => "reject_truncated_preamble",
            RejectReason::TruncatedIdent => "reject_truncated_ident",
            RejectReason::ForeignIdent => "reject_foreign_ident",
            RejectReason::UnknownCookie => "reject_unknown_cookie",
            RejectReason::StaleCookie => "reject_stale_cookie",
            RejectReason::ZeroCookie => "reject_zero_cookie",
            RejectReason::ByteOrderConflict => "reject_byte_order_conflict",
            RejectReason::ShortFrame => "reject_short_frame",
            RejectReason::MalformedPackInfo => "reject_malformed_pack_info",
            RejectReason::LengthMismatch => "reject_length_mismatch",
            RejectReason::ReplayedSeq => "reject_replayed_seq",
            RejectReason::TruncatedDatagram => "reject_truncated_datagram",
            RejectReason::OversizedDatagram => "reject_oversized_datagram",
            RejectReason::FilterReject => "reject_filter_reject",
            RejectReason::CookieConflict => "reject_cookie_conflict",
        }
    }
}

impl fmt::Display for RejectLedger {
    /// Nonzero reasons only, one per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (reason, count) in self.iter() {
            if count != 0 {
                writeln!(f, "  {:<26} {count:>10}", reason.label())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_total_roundtrip() {
        for (i, &r) in RejectReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "{r}");
            assert_eq!(RejectReason::from_index(i), Some(r));
        }
        assert_eq!(RejectReason::from_index(RejectReason::COUNT), None);
    }

    #[test]
    fn labels_and_metric_names_are_unique() {
        for (i, a) in RejectReason::ALL.iter().enumerate() {
            for b in &RejectReason::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
                assert_ne!(a.metric_name(), b.metric_name());
            }
            assert_eq!(
                a.metric_name(),
                format!("reject_{}", a.label().replace('-', "_"))
            );
        }
    }

    #[test]
    fn ledger_buckets_reconcile() {
        let mut l = RejectLedger::new();
        l.bump(RejectReason::UnknownCookie);
        l.bump(RejectReason::UnknownCookie);
        l.bump(RejectReason::StaleCookie);
        l.bump(RejectReason::TruncatedPreamble);
        l.bump(RejectReason::ReplayedSeq);
        l.bump(RejectReason::OversizedDatagram);
        assert_eq!(l.total(), 6);
        assert_eq!(l.bucket_total(RejectBucket::Cookie), 3);
        assert_eq!(l.bucket_total(RejectBucket::Malformed), 1);
        assert_eq!(l.bucket_total(RejectBucket::Layer), 1);
        assert_eq!(l.bucket_total(RejectBucket::Netif), 1);
        assert_eq!(l.entry_total(), 4);
        assert_eq!(l.get(RejectReason::UnknownCookie), 2);

        let mut m = RejectLedger::new();
        m.bump(RejectReason::StaleCookie);
        m.merge(&l);
        assert_eq!(m.get(RejectReason::StaleCookie), 2);
        assert_eq!(m.total(), 7);
    }

    #[test]
    fn entry_reasons_split_into_the_two_balanced_buckets() {
        for r in RejectReason::ALL {
            let entry = matches!(r.bucket(), RejectBucket::Cookie | RejectBucket::Malformed);
            assert_eq!(r.is_entry(), entry, "{r}");
        }
    }

    #[test]
    fn ledger_renders_nonzero_rows_only() {
        let mut l = RejectLedger::new();
        l.bump(RejectReason::ZeroCookie);
        let text = l.to_string();
        assert!(text.contains("zero-cookie"), "{text}");
        assert!(!text.contains("stale-cookie"), "{text}");
    }

    #[test]
    fn delta_brackets_partition_the_ledger() {
        let mut l = RejectLedger::new();
        let cp0 = l;
        l.bump(RejectReason::UnknownCookie);
        l.bump(RejectReason::ShortFrame);
        let cp1 = l;
        l.bump(RejectReason::UnknownCookie);
        let d1 = cp1.delta(&cp0);
        let d2 = l.delta(&cp1);
        assert_eq!(d1.total(), 2);
        assert_eq!(d2.get(RejectReason::UnknownCookie), 1);
        assert_eq!(d2.total(), 1);
        let mut merged = RejectLedger::new();
        merged.merge(&d1);
        merged.merge(&d2);
        assert_eq!(merged, l, "disjoint brackets re-merge exactly");
    }

    #[test]
    fn record_into_uses_metric_names() {
        let mut l = RejectLedger::new();
        l.bump(RejectReason::MalformedPackInfo);
        let mut snap = crate::MetricsSnapshot::new(0);
        l.record_into(&mut snap, "conn0");
        assert_eq!(snap.get("conn0", "reject_malformed_pack_info"), Some(1));
        assert_eq!(snap.len(), 1, "zero rows omitted");
    }
}
