//! Header information classes and field handles (§2.1).

use std::fmt;

/// The four header information classes of §2.1.
///
/// Fields are grouped by *class*, not by layer: the compiled wire format
/// carries one compact header per class (Figure 1), and the class
/// determines how the PA treats the field:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Fields that never change during a connection (addresses, ports,
    /// architecture byte order). Sent only on the first message and on
    /// retransmissions; replaced by the cookie otherwise.
    ConnId,
    /// Fields required for correct delivery that depend only on protocol
    /// state — never on message contents or send time (sequence numbers,
    /// message type). These are the fields header *prediction* covers.
    Protocol,
    /// Fields that depend on the message itself (length, checksum,
    /// timestamp). Filled in / checked by the packet filters.
    Message,
    /// Fields that technically need not accompany the message but ride
    /// along for efficiency (piggybacked acknowledgements). May be
    /// stale without affecting correctness.
    Gossip,
}

impl Class {
    /// All classes, in wire order (Figure 1).
    pub const ALL: [Class; 4] = [
        Class::ConnId,
        Class::Protocol,
        Class::Message,
        Class::Gossip,
    ];

    /// Dense index 0..4.
    pub fn index(self) -> usize {
        match self {
            Class::ConnId => 0,
            Class::Protocol => 1,
            Class::Message => 2,
            Class::Gossip => 3,
        }
    }

    /// Inverse of [`Class::index`].
    pub fn from_index(i: usize) -> Class {
        Class::ALL[i]
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Class::ConnId => "conn-id",
            Class::Protocol => "protocol",
            Class::Message => "message",
            Class::Gossip => "gossip",
        };
        write!(f, "{s}")
    }
}

/// Identifies the layer that declared a field. Assigned by
/// [`crate::LayoutBuilder::begin_layer`] in stacking order (0 = bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub u16);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The handle returned by `add_field` (§2.1), used for all later reads
/// and writes. Cheap to copy; indexes into the compiled layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Field {
    /// The field's class.
    pub class: Class,
    /// Index within the class's declaration list.
    pub(crate) idx: u16,
}

impl Field {
    /// Constructs a handle from a class and declaration index.
    ///
    /// Normally handles come from `LayoutBuilder::add_field`; this
    /// constructor exists for tests and for tooling that replays a
    /// recorded declaration sequence. Using a handle whose index was
    /// never declared panics at the first access.
    pub fn new(class: Class, index: usize) -> Field {
        Field {
            class,
            idx: index as u16,
        }
    }

    /// Index of this field within its class's declaration order.
    pub fn index_in_class(&self) -> usize {
        self.idx as usize
    }
}

/// `[start, end)` of one name in a builder's arena of declared names.
pub(crate) type Span = (u32, u32);

/// A declared-but-not-yet-placed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Human-readable name (need not be unique; used in reports), as a
    /// span of the declaring builder's name arena.
    pub(crate) name: Span,
    /// Width in bits: 1..=64 for a scalar, or a whole number of bytes up
    /// to [`crate::layout::MAX_FIELD_BITS`] for a blob.
    pub bits: u32,
    /// Requested bit offset within the class header, or `None` for
    /// "don't care" (the paper's `offset = -1`).
    pub offset: Option<u32>,
    /// Declaring layer.
    pub layer: LayerId,
    /// The header class the field rides in.
    pub class: Class,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_roundtrip() {
        for c in Class::ALL {
            assert_eq!(Class::from_index(c.index()), c);
        }
    }

    #[test]
    fn wire_order_matches_figure_1() {
        assert_eq!(
            Class::ALL,
            [
                Class::ConnId,
                Class::Protocol,
                Class::Message,
                Class::Gossip
            ]
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Class::Protocol.to_string(), "protocol");
        assert_eq!(LayerId(3).to_string(), "L3");
    }
}
