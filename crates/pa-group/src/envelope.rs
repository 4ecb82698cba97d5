//! The group envelope: what a member's payload looks like to its peers.
//!
//! The PA carries opaque application bytes; group semantics need a few
//! fields of their own. They could be declared as a fifth protocol
//! layer's header fields — but this crate deliberately lives *above*
//! the stack, as a Horus application would, so it prepends its own
//! fixed envelope to each payload:
//!
//! ```text
//! [kind: u8][view: u64][origin: u32][gseq: u64] payload…
//! ```

use std::fmt;

/// Kind of group message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// FIFO multicast data (delivered on receipt; per-sender order from
    /// the window layer beneath).
    Fifo,
    /// A total-order request on its way to the sequencer.
    TotalRequest,
    /// Sequencer-stamped data (delivered in `gseq` order).
    TotalOrdered,
}

impl Kind {
    fn to_byte(self) -> u8 {
        match self {
            Kind::Fifo => 0,
            Kind::TotalRequest => 1,
            Kind::TotalOrdered => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Kind> {
        match b {
            0 => Some(Kind::Fifo),
            1 => Some(Kind::TotalRequest),
            2 => Some(Kind::TotalOrdered),
            _ => None,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Kind::Fifo => "fifo",
            Kind::TotalRequest => "total-req",
            Kind::TotalOrdered => "total-ord",
        };
        write!(f, "{s}")
    }
}

/// Wire length of the envelope header.
pub(crate) const ENVELOPE_LEN: usize = 1 + 8 + 4 + 8;

/// A decoded group envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Message kind.
    pub kind: Kind,
    /// View the sender was in.
    pub view: u64,
    /// Originating member.
    pub origin: u32,
    /// Global sequence number (0 until the sequencer stamps it).
    pub gseq: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Encodes to wire bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_LEN + self.payload.len());
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.view.to_be_bytes());
        out.extend_from_slice(&self.origin.to_be_bytes());
        out.extend_from_slice(&self.gseq.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes from wire bytes; `None` on truncation or unknown kind.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Envelope> {
        if bytes.len() < ENVELOPE_LEN {
            return None;
        }
        Some(Envelope {
            kind: Kind::from_byte(bytes[0])?,
            view: u64::from_be_bytes(bytes[1..9].try_into().expect("8")),
            origin: u32::from_be_bytes(bytes[9..13].try_into().expect("4")),
            gseq: u64::from_be_bytes(bytes[13..21].try_into().expect("8")),
            payload: bytes[21..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [Kind::Fifo, Kind::TotalRequest, Kind::TotalOrdered] {
            let e = Envelope {
                kind,
                view: 7,
                origin: 3,
                gseq: 99,
                payload: b"pp".to_vec(),
            };
            assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
        }
    }

    #[test]
    fn truncated_and_unknown_rejected() {
        assert!(Envelope::decode(&[0u8; ENVELOPE_LEN - 1]).is_none());
        let mut bad = Envelope {
            kind: Kind::Fifo,
            view: 0,
            origin: 0,
            gseq: 0,
            payload: vec![],
        }
        .encode();
        bad[0] = 9;
        assert!(Envelope::decode(&bad).is_none());
    }

    #[test]
    fn empty_payload_ok() {
        let e = Envelope {
            kind: Kind::Fifo,
            view: 1,
            origin: 2,
            gseq: 0,
            payload: vec![],
        };
        let d = Envelope::decode(&e.encode()).unwrap();
        assert!(d.payload.is_empty());
    }
}
