//! The 8-byte message preamble (§2.2, Figure 1).
//!
//! Every PA message starts with exactly eight bytes:
//!
//! ```text
//!  bit 0                                                         bit 63
//!  ┌─┬─┬────────────────────────────────────────────────────────────┐
//!  │C│B│                  connection cookie (62 bits)               │
//!  └─┴─┴────────────────────────────────────────────────────────────┘
//!   C = connection-identification-present bit
//!   B = byte-order bit (1 = little endian, 0 = big endian)
//! ```
//!
//! The preamble itself is always encoded in network bit order so a
//! receiver can parse it before knowing the sender's byte order — the
//! byte-order bit *inside* it governs everything after.

use crate::cookie::{Cookie, COOKIE_MASK};
use pa_buf::{ByteOrder, Msg};
use std::fmt;

/// Wire length of the preamble.
pub const PREAMBLE_LEN: usize = 8;

/// The decoded preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// True iff the Connection Identification header follows.
    pub conn_ident_present: bool,
    /// Byte order of every header after the preamble.
    pub byte_order: ByteOrder,
    /// The 62-bit connection cookie.
    pub cookie: Cookie,
}

/// Error from parsing a preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedPreamble {
    /// Bytes that were available.
    pub had: usize,
}

impl fmt::Display for TruncatedPreamble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame too short for preamble: {} bytes < {PREAMBLE_LEN}",
            self.had
        )
    }
}

impl std::error::Error for TruncatedPreamble {}

impl Preamble {
    /// Builds a preamble for an ordinary (cookie-only) message.
    pub fn common(cookie: Cookie, byte_order: ByteOrder) -> Preamble {
        Preamble {
            conn_ident_present: false,
            byte_order,
            cookie,
        }
    }

    /// Builds a preamble announcing that the conn-ident header follows
    /// (first message, retransmissions, "other unusual messages").
    pub fn with_conn_ident(cookie: Cookie, byte_order: ByteOrder) -> Preamble {
        Preamble {
            conn_ident_present: true,
            byte_order,
            cookie,
        }
    }

    /// Encodes to the 8 wire bytes.
    pub fn encode(&self) -> [u8; PREAMBLE_LEN] {
        let mut word = self.cookie.raw() & COOKIE_MASK;
        if self.conn_ident_present {
            word |= 1u64 << 63;
        }
        if self.byte_order == ByteOrder::Little {
            word |= 1u64 << 62;
        }
        word.to_be_bytes()
    }

    /// Decodes from wire bytes.
    ///
    /// Total over arbitrary input: the checked-chunk read is the only
    /// access, so no byte pattern or length can panic here.
    pub fn decode(bytes: &[u8]) -> Result<Preamble, TruncatedPreamble> {
        let Some(head) = bytes.first_chunk::<PREAMBLE_LEN>() else {
            return Err(TruncatedPreamble { had: bytes.len() });
        };
        let word = u64::from_be_bytes(*head);
        Ok(Preamble {
            conn_ident_present: word >> 63 != 0,
            byte_order: if (word >> 62) & 1 != 0 {
                ByteOrder::Little
            } else {
                ByteOrder::Big
            },
            cookie: Cookie::from_raw(word),
        })
    }

    /// Prepends this preamble to `msg` (the final step of the send path:
    /// "the connection cookie is pushed onto the message and it is
    /// sent").
    pub fn push_onto(&self, msg: &mut Msg) {
        msg.push_front(&self.encode());
    }

    /// Pops and decodes a preamble from the front of `msg`.
    pub fn pop_from(msg: &mut Msg) -> Result<Preamble, TruncatedPreamble> {
        let p = Preamble::decode(msg.as_slice())?;
        msg.skip_front(PREAMBLE_LEN);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flag_combinations() {
        for cip in [false, true] {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let p = Preamble {
                    conn_ident_present: cip,
                    byte_order: order,
                    cookie: Cookie::from_raw(0x1234_5678_9ABC_DEF0),
                };
                let decoded = Preamble::decode(&p.encode()).unwrap();
                assert_eq!(decoded, p);
            }
        }
    }

    #[test]
    fn encoding_is_exactly_8_bytes_with_flags_in_byte_0() {
        let p = Preamble::with_conn_ident(Cookie::from_raw(0), ByteOrder::Little);
        let e = p.encode();
        assert_eq!(e.len(), PREAMBLE_LEN);
        assert_eq!(e[0], 0b1100_0000, "CIP bit 63, BO bit 62");
        assert_eq!(&e[1..], &[0u8; 7]);
    }

    #[test]
    fn cookie_survives_flag_bits() {
        // A cookie with its top bits set must not bleed into the flags.
        let c = Cookie::from_raw(COOKIE_MASK);
        let p = Preamble::common(c, ByteOrder::Big);
        let d = Preamble::decode(&p.encode()).unwrap();
        assert_eq!(d.cookie, c);
        assert!(!d.conn_ident_present);
        assert_eq!(d.byte_order, ByteOrder::Big);
    }

    #[test]
    fn truncated_frames_rejected() {
        for n in 0..PREAMBLE_LEN {
            let e = Preamble::decode(&vec![0u8; n]).unwrap_err();
            assert_eq!(e.had, n);
        }
    }

    #[test]
    fn push_pop_on_message() {
        let mut m = Msg::from_payload(b"payload");
        let p = Preamble::common(Cookie::from_raw(42), ByteOrder::Big);
        p.push_onto(&mut m);
        assert_eq!(m.len(), 7 + PREAMBLE_LEN);
        let got = Preamble::pop_from(&mut m).unwrap();
        assert_eq!(got, p);
        assert_eq!(m.as_slice(), b"payload");
    }

    #[test]
    fn pop_from_short_message_leaves_it_intact() {
        let mut m = Msg::from_payload(b"abc");
        assert!(Preamble::pop_from(&mut m).is_err());
        assert_eq!(m.as_slice(), b"abc");
    }

    #[test]
    fn error_display() {
        let e = TruncatedPreamble { had: 3 };
        assert!(e.to_string().contains("3 bytes"));
    }
}
