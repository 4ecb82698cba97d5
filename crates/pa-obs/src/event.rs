//! The structured trace-event taxonomy.
//!
//! Every per-message decision the Protocol Accelerator makes — fast
//! path, slow path with a concrete cause, queueing, filter rejection,
//! prediction mismatch, drop — is one fixed-size, `Copy`,
//! allocation-free [`TraceEvent`]. Field references are carried as
//! `(class, index)` pairs ([`FieldRef`]) and resolved to names only at
//! render time, so emitting an event never touches the heap.

use crate::xray::DisableReason;
use std::fmt;

/// Logical nanoseconds (the hosts' virtual clocks).
pub type Nanos = u64;

/// A layout field identified positionally: `(class, index)`.
///
/// Mirrors `pa_wire::Field` without depending on it (pa-obs sits below
/// every other crate). Render with a resolver that knows the layout's
/// declared names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// The header class ordinal (0 = conn-id, 1 = protocol, 2 =
    /// message, 3 = gossip — `pa_wire::Class` order).
    pub class: u8,
    /// Field index within the class, in declaration order.
    pub index: u16,
}

impl FieldRef {
    /// A field reference from raw ordinals.
    pub fn new(class: u8, index: u16) -> FieldRef {
        FieldRef { class, index }
    }
}

/// Which engine invariant broke (kept as a fieldless enum so
/// [`TraceEvent`] stays inside its 32-byte budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// `Prediction::enable()` without a matching `disable()`: the
    /// counter would have gone negative and was saturated instead.
    EnableUnderflow,
}

impl Invariant {
    /// Short stable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Invariant::EnableUnderflow => "enable-underflow",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an operation missed the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowCause {
    /// The packet filter refused the frame (send: predicted frame
    /// failed the send filter; deliver: delivery filter verdict ≠ PASS).
    FilterReject,
    /// The incoming protocol header did not match the predicted one.
    PredictMiss,
    /// A layer's disable counter held the predicted header unusable.
    PredictDisabled,
    /// Prediction is switched off in the configuration (baseline runs).
    PredictOff,
}

impl SlowCause {
    /// Short stable label (used by renderers and JSON export).
    pub(crate) fn label(self) -> &'static str {
        match self {
            SlowCause::FilterReject => "filter-reject",
            SlowCause::PredictMiss => "predict-miss",
            SlowCause::PredictDisabled => "predict-disabled",
            SlowCause::PredictOff => "predict-off",
        }
    }
}

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Cookie not recognized and no connection identification present.
    UnknownCookie,
    /// Connection identification present but for another connection.
    ForeignIdent,
    /// Truncated headers, bad packing, or an unparseable preamble.
    Malformed,
    /// A layer's pre-deliver verdict dropped it (named layer).
    ByLayer(&'static str),
    /// The send filter refused a slow-path frame outright.
    FilterRefused,
}

impl DropCause {
    /// Short stable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DropCause::UnknownCookie => "unknown-cookie",
            DropCause::ForeignIdent => "foreign-ident",
            DropCause::Malformed => "malformed",
            DropCause::ByLayer(_) => "by-layer",
            DropCause::FilterRefused => "filter-refused",
        }
    }
}

/// One structured observation from inside the Protocol Accelerator.
///
/// The taxonomy covers both directions: `FastSend`/`SlowSend` for the
/// send path, `FastDeliver`/`SlowDeliver` for the delivery path, and
/// the diagnostic events (`PredictMiss`, `FilterReject`) that explain
/// *why* a slow event happened — a slow-path operation is always
/// preceded by its cause event in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A send left on the fast path: predicted headers + filter, no
    /// layer entered.
    FastSend,
    /// A send ran the layered pre-send traversal.
    SlowSend {
        /// Why the fast path was missed.
        cause: SlowCause,
    },
    /// A send was parked in the backlog.
    Queued {
        /// The layer whose disable counter (or pending post-work)
        /// blocked the send path.
        disable_layer: &'static str,
    },
    /// A frame was delivered on the fast path.
    FastDeliver {
        /// Application messages unpacked from the frame.
        msgs: u32,
    },
    /// A frame went through the layered pre-deliver traversal.
    SlowDeliver {
        /// Why the fast path was missed.
        cause: SlowCause,
    },
    /// The incoming protocol header differed from the prediction.
    PredictMiss {
        /// First mismatching field.
        field: FieldRef,
        /// Predicted value.
        expected: u64,
        /// Observed value.
        got: u64,
    },
    /// A packet filter rejected a frame.
    FilterReject {
        /// Program counter of the deciding instruction.
        pc: u16,
        /// Mnemonic of the deciding instruction.
        op: &'static str,
    },
    /// A frame was dropped.
    Drop {
        /// Why.
        reason: DropCause,
    },
    /// A backlog drain emitted queued messages.
    BacklogDrain {
        /// Frames produced by the drain.
        frames: u32,
        /// Application messages drained.
        msgs: u32,
    },
    /// A layer emitted a control message (ack, retransmission, probe).
    Control {
        /// The emitting layer.
        layer: &'static str,
    },
    /// A frame left the sender carrying an in-band trace context (the
    /// `trace_ctx` Message-class field): one hop of a cross-endpoint
    /// journey begins.
    JourneySend {
        /// The journey id stamped into the frame (origin tag in the
        /// high 32 bits, per-origin sequence in the low 32).
        journey: u64,
        /// Hop counter as written on the wire (0 at the origin).
        hop: u8,
    },
    /// A frame carrying a trace context arrived and was read back out
    /// of the Message class by the receiver: the hop completes.
    JourneyDeliver {
        /// The journey id read from the frame.
        journey: u64,
        /// Hop counter as read off the wire.
        hop: u8,
    },
    /// A layer disabled a predicted header, with attribution (§3.2's
    /// counter bump, named).
    Disable {
        /// The disabling layer.
        layer: &'static str,
        /// Why the fast path is being held shut.
        reason: DisableReason,
        /// True for the send prediction, false for the receive one.
        send: bool,
    },
    /// A layer re-enabled a predicted header it had disabled.
    Enable {
        /// The enabling layer.
        layer: &'static str,
        /// The reason whose hold is released.
        reason: DisableReason,
        /// True for the send prediction, false for the receive one.
        send: bool,
    },
    /// An engine invariant was violated but survived (e.g. `enable()`
    /// without a matching `disable()`, saturated instead of panicking).
    InvariantViolation {
        /// The layer at fault (`"pa"` when unattributable).
        layer: &'static str,
        /// Which invariant broke.
        what: Invariant,
    },
}

impl TraceEvent {
    /// Short stable kind label (renderers, JSON, counting probes).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FastSend => "fast-send",
            TraceEvent::SlowSend { .. } => "slow-send",
            TraceEvent::Queued { .. } => "queued",
            TraceEvent::FastDeliver { .. } => "fast-deliver",
            TraceEvent::SlowDeliver { .. } => "slow-deliver",
            TraceEvent::PredictMiss { .. } => "predict-miss",
            TraceEvent::FilterReject { .. } => "filter-reject",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::BacklogDrain { .. } => "backlog-drain",
            TraceEvent::Control { .. } => "control",
            TraceEvent::JourneySend { .. } => "journey-send",
            TraceEvent::JourneyDeliver { .. } => "journey-deliver",
            TraceEvent::Disable { .. } => "disable",
            TraceEvent::Enable { .. } => "enable",
            TraceEvent::InvariantViolation { .. } => "invariant-violation",
        }
    }

    /// Renders the event with `resolve` supplying field names for
    /// [`FieldRef`]s (pass `|f| format!("{}/{}", f.class, f.index)` if
    /// no layout is at hand).
    pub(crate) fn render(&self, resolve: &dyn Fn(FieldRef) -> String) -> String {
        match *self {
            TraceEvent::FastSend => "fast-send".to_string(),
            TraceEvent::SlowSend { cause } => format!("slow-send cause={}", cause.label()),
            TraceEvent::Queued { disable_layer } => format!("queued by={disable_layer}"),
            TraceEvent::FastDeliver { msgs } => format!("fast-deliver msgs={msgs}"),
            TraceEvent::SlowDeliver { cause } => {
                format!("slow-deliver cause={}", cause.label())
            }
            TraceEvent::PredictMiss {
                field,
                expected,
                got,
            } => {
                format!(
                    "predict-miss field={} expected={expected} got={got}",
                    resolve(field)
                )
            }
            TraceEvent::FilterReject { pc, op } => format!("filter-reject pc={pc} op={op}"),
            TraceEvent::Drop { reason } => match reason {
                DropCause::ByLayer(layer) => format!("drop reason=by-layer({layer})"),
                other => format!("drop reason={}", other.label()),
            },
            TraceEvent::BacklogDrain { frames, msgs } => {
                format!("backlog-drain frames={frames} msgs={msgs}")
            }
            TraceEvent::Control { layer } => format!("control layer={layer}"),
            TraceEvent::JourneySend { journey, hop } => {
                format!(
                    "journey-send id={}:{} hop={hop}",
                    journey >> 32,
                    journey & 0xFFFF_FFFF
                )
            }
            TraceEvent::JourneyDeliver { journey, hop } => {
                format!(
                    "journey-deliver id={}:{} hop={hop}",
                    journey >> 32,
                    journey & 0xFFFF_FFFF
                )
            }
            TraceEvent::Disable {
                layer,
                reason,
                send,
            } => {
                let dir = if send { "send" } else { "recv" };
                format!("disable layer={layer} reason={reason} dir={dir}")
            }
            TraceEvent::Enable {
                layer,
                reason,
                send,
            } => {
                let dir = if send { "send" } else { "recv" };
                format!("enable layer={layer} reason={reason} dir={dir}")
            }
            TraceEvent::InvariantViolation { layer, what } => {
                format!("invariant-violation layer={layer} what={what}")
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&|fr| format!("field[{}:{}]", fr.class, fr.index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_copy_and_small() {
        // Emitting must be cheap: the event is a plain value, no heap.
        assert!(
            std::mem::size_of::<TraceEvent>() <= 32,
            "{}",
            std::mem::size_of::<TraceEvent>()
        );
        let e = TraceEvent::PredictMiss {
            field: FieldRef::new(1, 0),
            expected: 4,
            got: 7,
        };
        let e2 = e; // Copy
        assert_eq!(e, e2);
    }

    #[test]
    fn render_resolves_fields() {
        let e = TraceEvent::PredictMiss {
            field: FieldRef::new(1, 2),
            expected: 10,
            got: 11,
        };
        let s = e.render(&|f| format!("proto.{}", f.index));
        assert_eq!(s, "predict-miss field=proto.2 expected=10 got=11");
    }

    #[test]
    fn journey_events_render_their_id() {
        let e = TraceEvent::JourneySend {
            journey: (9u64 << 32) | 42,
            hop: 0,
        };
        assert!(e.to_string().contains("id=9:42"), "{e}");
    }

    #[test]
    fn display_covers_every_kind() {
        let events = [
            TraceEvent::FastSend,
            TraceEvent::SlowSend {
                cause: SlowCause::FilterReject,
            },
            TraceEvent::Queued {
                disable_layer: "window",
            },
            TraceEvent::FastDeliver { msgs: 3 },
            TraceEvent::SlowDeliver {
                cause: SlowCause::PredictMiss,
            },
            TraceEvent::PredictMiss {
                field: FieldRef::new(1, 0),
                expected: 1,
                got: 2,
            },
            TraceEvent::FilterReject { pc: 4, op: "abort" },
            TraceEvent::Drop {
                reason: DropCause::ByLayer("window"),
            },
            TraceEvent::BacklogDrain { frames: 1, msgs: 4 },
            TraceEvent::Control { layer: "window" },
            TraceEvent::JourneySend {
                journey: (3 << 32) | 7,
                hop: 0,
            },
            TraceEvent::JourneyDeliver {
                journey: (3 << 32) | 7,
                hop: 0,
            },
            TraceEvent::Disable {
                layer: "window",
                reason: DisableReason::FullWindow,
                send: true,
            },
            TraceEvent::Enable {
                layer: "window",
                reason: DisableReason::FullWindow,
                send: true,
            },
            TraceEvent::InvariantViolation {
                layer: "window",
                what: Invariant::EnableUnderflow,
            },
        ];
        for e in events {
            let s = e.to_string();
            assert!(s.starts_with(e.kind()), "{s} vs {}", e.kind());
        }
    }
}
