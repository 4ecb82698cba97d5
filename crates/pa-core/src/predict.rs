//! Header prediction (§3.2).
//!
//! "Each connection maintains a predicted protocol-specific header for
//! the next send operation, and another for the next delivery (much like
//! a read-ahead strategy in a file system). For sending, the gossip
//! information can be predicted as well."
//!
//! A [`Prediction`] is the byte image of the predicted protocol header
//! (plus, on the send side, the gossip header), encoded in a fixed byte
//! order: the connection's own order for the send prediction, the
//! *peer's* order for the delivery prediction — so that an incoming
//! header can be compared byte-for-byte, the cheapest possible check.
//!
//! The disable counter implements §3.2's guard: "Each layer can disable
//! the predicted send or delivery header (e.g., when the send window of
//! a sliding window protocol is full). … By incrementing the counter, a
//! layer disables the header. The layer eventually has to decrement the
//! counter."
//!
//! The counter is no longer opaque: every increment is *attributed* to a
//! `(layer, reason)` pair via [`Prediction::disable_with`], so at any
//! moment the engine can answer "who is holding the fast path shut, and
//! why" ([`Prediction::holds`], [`Prediction::top_hold`]).
//! Enable-underflow (a layer enabling more than it disabled) does not
//! panic the endpoint: the decrement saturates and the violation is
//! counted ([`Prediction::violations`]) so the engine can emit an
//! invariant-violation probe event instead of dying.

use pa_buf::ByteOrder;
use pa_obs::DisableReason;
use pa_wire::{Class, CompiledLayout, Field};

/// One attributed disable hold: how often `(layer, reason)` has held
/// this prediction shut, and how deeply it holds it right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisableHold {
    /// The holding layer.
    pub layer: &'static str,
    /// Why.
    pub reason: DisableReason,
    /// Currently-held nesting depth (0 = released).
    pub active: u32,
    /// Lifetime count of disables charged here.
    pub total: u64,
}

/// The predicted headers for one direction, plus the disable counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    proto: Vec<u8>,
    gossip: Vec<u8>,
    order: ByteOrder,
    disable: u32,
    holds: Vec<DisableHold>,
    violations: u64,
}

impl Prediction {
    /// Creates a zeroed prediction sized for `layout`, encoding fields
    /// in `order`.
    pub fn new(layout: &CompiledLayout, order: ByteOrder) -> Prediction {
        Prediction {
            proto: vec![0; layout.class_len(Class::Protocol)],
            gossip: vec![0; layout.class_len(Class::Gossip)],
            order,
            disable: 0,
            holds: Vec::new(),
            violations: 0,
        }
    }

    /// The predicted protocol-specific header bytes.
    pub(crate) fn proto(&self) -> &[u8] {
        &self.proto
    }

    /// The predicted gossip header bytes (send side only; delivery
    /// ignores gossip, §3.2).
    pub(crate) fn gossip(&self) -> &[u8] {
        &self.gossip
    }

    /// The byte order predictions are encoded in.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Re-encodes the prediction buffers in a new byte order (used once,
    /// when the peer's byte order is learned from its first preamble).
    /// Field *values* are preserved.
    pub(crate) fn reorder(&mut self, layout: &CompiledLayout, new_order: ByteOrder) {
        if new_order == self.order {
            return;
        }
        let mut new_proto = vec![0u8; self.proto.len()];
        let mut new_gossip = vec![0u8; self.gossip.len()];
        for (class, old, new) in [
            (Class::Protocol, &self.proto, &mut new_proto),
            (Class::Gossip, &self.gossip, &mut new_gossip),
        ] {
            let n = field_count(layout, class);
            for i in 0..n {
                let f = Field::new(class, i);
                if layout.field_bits(f) <= 64 {
                    let v = layout.read_field(f, old, self.order);
                    layout.write_field(f, new, new_order, v);
                } else {
                    let bytes = layout.read_field_bytes(f, old).to_vec();
                    layout.write_field_bytes(f, new, &bytes);
                }
            }
        }
        self.proto = new_proto;
        self.gossip = new_gossip;
        self.order = new_order;
    }

    /// Writes a predicted field value (called by layers during
    /// post-processing: "we found it more convenient to have the
    /// post-processing phase of the previous message predict the next
    /// protocol header immediately").
    ///
    /// # Panics
    /// If the field is not in the protocol or gossip class.
    pub fn set(&mut self, layout: &CompiledLayout, field: Field, value: u64) {
        let buf = match field.class {
            Class::Protocol => &mut self.proto,
            Class::Gossip => &mut self.gossip,
            other => panic!("prediction covers protocol/gossip fields only, got {other}"),
        };
        layout.write_field(field, buf, self.order, value);
    }

    /// Reads back a predicted field value.
    pub(crate) fn get(&self, layout: &CompiledLayout, field: Field) -> u64 {
        let buf = match field.class {
            Class::Protocol => &self.proto,
            Class::Gossip => &self.gossip,
            other => panic!("prediction covers protocol/gossip fields only, got {other}"),
        };
        layout.read_field(field, buf, self.order)
    }

    /// True if the predicted header is currently usable.
    pub fn enabled(&self) -> bool {
        self.disable == 0
    }

    /// Increments the disable counter, charging `(layer, reason)` in
    /// the attributed hold table (layer blocks the fast path).
    pub(crate) fn disable_with(&mut self, layer: &'static str, reason: DisableReason) {
        self.disable += 1;
        for h in &mut self.holds {
            if h.layer == layer && h.reason == reason {
                h.active += 1;
                h.total += 1;
                return;
            }
        }
        self.holds.push(DisableHold {
            layer,
            reason,
            active: 1,
            total: 1,
        });
    }

    /// Decrements the disable counter against the `(layer, reason)` hold
    /// it was charged to. "When all layers have done so, the header is
    /// automatically re-enabled."
    ///
    /// Returns `false` on underflow — an enable with no matching
    /// disable. The decrement *saturates* instead of panicking (a
    /// protocol-stack bug must not kill the endpoint); the violation is
    /// counted and the caller is expected to emit an
    /// `InvariantViolation` probe event.
    #[must_use = "false means enable-underflow: count it and emit an invariant-violation event"]
    pub(crate) fn enable_with(&mut self, layer: &'static str, reason: DisableReason) -> bool {
        for h in &mut self.holds {
            if h.layer == layer && h.reason == reason {
                if h.active > 0 {
                    h.active -= 1;
                    // The global counter is the sum of active holds, so
                    // it is provably > 0 here; saturate defensively
                    // anyway.
                    self.disable = self.disable.saturating_sub(1);
                    return true;
                }
                break;
            }
        }
        self.violations += 1;
        false
    }

    /// Current disable count (diagnostics).
    pub fn disable_count(&self) -> u32 {
        self.disable
    }

    /// The attributed hold table, in first-seen order. Entries with
    /// `active == 0` are history (lifetime totals); entries with
    /// `active > 0` are currently holding the fast path shut.
    pub fn holds(&self) -> &[DisableHold] {
        &self.holds
    }

    /// The currently-deepest active hold — the best single answer to
    /// "which layer is blocking the fast path right now".
    pub fn top_hold(&self) -> Option<(&'static str, DisableReason)> {
        self.holds
            .iter()
            .filter(|h| h.active > 0)
            .max_by_key(|h| h.active)
            .map(|h| (h.layer, h.reason))
    }

    /// Enable-underflow violations survived so far.
    pub(crate) fn violations(&self) -> u64 {
        self.violations
    }
}

fn field_count(layout: &CompiledLayout, class: Class) -> usize {
    layout.class(class).field_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_wire::{LayoutBuilder, LayoutMode};

    fn layout() -> (CompiledLayout, Field, Field, Field) {
        let mut b = LayoutBuilder::new();
        b.begin_layer("w");
        let seq = b.add_field(Class::Protocol, "seq", 32, None).unwrap();
        let ty = b.add_field(Class::Protocol, "type", 2, None).unwrap();
        let ack = b.add_field(Class::Gossip, "ack", 32, None).unwrap();
        (b.compile(LayoutMode::Packed).unwrap(), seq, ty, ack)
    }

    #[test]
    fn starts_zeroed_and_enabled() {
        let (l, seq, ..) = layout();
        let p = Prediction::new(&l, ByteOrder::Big);
        assert!(p.enabled());
        assert_eq!(p.get(&l, seq), 0);
        assert!(p.proto().iter().all(|&b| b == 0));
    }

    #[test]
    fn set_get_roundtrip() {
        let (l, seq, ty, ack) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Little);
        p.set(&l, seq, 17);
        p.set(&l, ty, 2);
        p.set(&l, ack, 16);
        assert_eq!(p.get(&l, seq), 17);
        assert_eq!(p.get(&l, ty), 2);
        assert_eq!(p.get(&l, ack), 16);
    }

    #[test]
    fn proto_bytes_match_a_frame_written_the_same_way() {
        // The fast-path check is byte equality between the predicted
        // header and the incoming one; both sides must encode alike.
        let (l, seq, ty, _) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.set(&l, seq, 5);
        p.set(&l, ty, 1);
        let mut hdr = vec![0u8; l.class_len(Class::Protocol)];
        l.write_field(seq, &mut hdr, ByteOrder::Big, 5);
        l.write_field(ty, &mut hdr, ByteOrder::Big, 1);
        assert_eq!(p.proto(), &hdr[..]);
    }

    #[test]
    fn disable_counts_nest() {
        let (l, ..) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.disable_with("window", DisableReason::FullWindow);
        p.disable_with("window", DisableReason::FullWindow);
        assert!(!p.enabled());
        assert!(p.enable_with("window", DisableReason::FullWindow));
        assert!(!p.enabled(), "still disabled until all layers re-enable");
        assert!(p.enable_with("window", DisableReason::FullWindow));
        assert!(p.enabled());
    }

    #[test]
    fn enable_underflow_saturates_and_counts() {
        // A stack bug must not panic the endpoint: the decrement
        // saturates, the prediction stays enabled, and the violation is
        // counted for the invariant-violation probe event.
        let (l, ..) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        assert!(!p.enable_with("window", DisableReason::FullWindow));
        assert!(p.enabled(), "saturated, not negative");
        assert_eq!(p.disable_count(), 0);
        assert_eq!(p.violations(), 1);

        // Attributed mismatch: enabling a reason that was never
        // disabled is a violation even while another hold is active.
        p.disable_with("window", DisableReason::FullWindow);
        assert!(!p.enable_with("window", DisableReason::FragPending));
        assert_eq!(p.violations(), 2);
        assert!(!p.enabled(), "the real hold is untouched");
        assert!(p.enable_with("window", DisableReason::FullWindow));
        assert!(p.enabled());
    }

    #[test]
    fn holds_attribute_disables() {
        let (l, ..) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.disable_with("window", DisableReason::FullWindow);
        p.disable_with("window", DisableReason::FullWindow);
        p.disable_with("frag", DisableReason::FragPending);
        assert!(!p.enabled());
        assert_eq!(p.disable_count(), 3);
        assert_eq!(p.top_hold(), Some(("window", DisableReason::FullWindow)));
        assert!(p.enable_with("window", DisableReason::FullWindow));
        assert!(p.enable_with("window", DisableReason::FullWindow));
        assert_eq!(p.top_hold(), Some(("frag", DisableReason::FragPending)));
        assert!(p.enable_with("frag", DisableReason::FragPending));
        assert!(p.enabled());
        assert_eq!(p.top_hold(), None);
        // History survives release: lifetime totals for the report.
        let w = p
            .holds()
            .iter()
            .find(|h| h.layer == "window")
            .expect("window hold recorded");
        assert_eq!(w.total, 2);
        assert_eq!(w.active, 0);
        assert_eq!(p.violations(), 0);
    }

    #[test]
    fn reorder_preserves_values() {
        let (l, seq, ty, ack) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.set(&l, seq, 0xAABBCCDD);
        p.set(&l, ty, 3);
        p.set(&l, ack, 7);
        p.reorder(&l, ByteOrder::Little);
        assert_eq!(p.order(), ByteOrder::Little);
        assert_eq!(p.get(&l, seq), 0xAABBCCDD);
        assert_eq!(p.get(&l, ty), 3);
        assert_eq!(p.get(&l, ack), 7);
    }

    #[test]
    fn reorder_same_order_is_noop() {
        let (l, seq, ..) = layout();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.set(&l, seq, 9);
        let before = p.proto().to_vec();
        p.reorder(&l, ByteOrder::Big);
        assert_eq!(p.proto(), &before[..]);
    }

    #[test]
    #[should_panic(expected = "protocol/gossip")]
    fn message_class_fields_rejected() {
        let mut b = LayoutBuilder::new();
        b.begin_layer("l");
        let ck = b.add_field(Class::Message, "ck", 16, None).unwrap();
        b.add_field(Class::Protocol, "seq", 8, None).unwrap();
        let l = b.compile(LayoutMode::Packed).unwrap();
        let mut p = Prediction::new(&l, ByteOrder::Big);
        p.set(&l, ck, 1);
    }
}
