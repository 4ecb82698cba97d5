//! Message packing (§3.4) — the Packing header and pack/unpack.
//!
//! When messages back up (post-processing not yet run, or the predicted
//! send header disabled), the PA drains the backlog by packing several
//! messages into a single protocol message: one pre-processing and one
//! post-processing phase amortized over the whole run. On delivery the
//! packed message is split and the pieces handed to the application
//! individually.
//!
//! Wire format of the packing header (always big-endian — it is parsed
//! by `deliver()` itself, not through the layout):
//!
//! ```text
//! kind 0:  [0u8]                                 single message
//! kind 1:  [1u8][count:u16][size:u32]            same-size pack (paper)
//! other:   refused (BadHeader)
//! ```
//!
//! As in the paper, "the PA only packs together messages of the same
//! size": a run shares its size, so the size is sent once. Kind 2 —
//! the Horus-style header listing every piece's size — is an unknown
//! kind like any other, refused as a malformed packing header.

use pa_buf::msg::DEFAULT_HEADROOM;
use pa_buf::Msg;
use std::fmt;

/// Decoded packing header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackInfo {
    /// A single, unpacked message.
    Single,
    /// `count` messages of `size` bytes each.
    SameSize {
        /// Number of packed messages.
        count: u16,
        /// Size of every packed message.
        size: u32,
    },
}

/// Error decoding a packing header or unpacking a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The header bytes were truncated or the kind byte unknown.
    BadHeader,
    /// The body length does not match what the header promises.
    LengthMismatch {
        /// Bytes the header promises.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::BadHeader => write!(f, "malformed packing header"),
            PackError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "packed body length mismatch: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Upper bound on zero-length pieces a single same-size pack may carry.
///
/// A 7-byte `SameSize { count: 65535, size: 0 }` header would otherwise
/// describe 65 535 empty application messages — a ~9 000× delivery
/// amplification an attacker gets for free, since the zero size makes
/// the body-length check vacuous. The backlog drain cuts a run of empty
/// messages at this many, so no pack it sends is refused ([`pack`]
/// debug-asserts the same bound).
pub const MAX_EMPTY_PIECES: usize = 1024;

impl PackInfo {
    /// Number of application messages this header describes.
    pub fn count(&self) -> usize {
        match self {
            PackInfo::Single => 1,
            PackInfo::SameSize { count, .. } => *count as usize,
        }
    }

    /// Total body bytes the header promises.
    pub(crate) fn body_len(&self) -> usize {
        match self {
            PackInfo::Single => usize::MAX, // unknown: single takes the rest
            PackInfo::SameSize { count, size } => *count as usize * *size as usize,
        }
    }

    /// Encoded wire length of this header.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            PackInfo::Single => 1,
            PackInfo::SameSize { .. } => 7,
        }
    }

    /// Prepends the encoded header onto `msg`, into its headroom: the
    /// one header writer.
    pub(crate) fn push_onto(&self, msg: &mut Msg) {
        match self {
            PackInfo::Single => msg.push_front(&[0u8]),
            PackInfo::SameSize { count, size } => {
                let mut b = [0u8; 7];
                b[0] = 1;
                b[1..3].copy_from_slice(&count.to_be_bytes());
                b[3..7].copy_from_slice(&size.to_be_bytes());
                msg.push_front(&b);
            }
        }
    }

    /// Decodes a header from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// Total and allocation-free over arbitrary wire input. Zero-size
    /// same-size packs are capped at [`MAX_EMPTY_PIECES`] to bound the
    /// delivery amplification a 7-byte header can describe.
    pub fn decode(bytes: &[u8]) -> Result<(PackInfo, usize), PackError> {
        match bytes.first() {
            Some(0) => Ok((PackInfo::Single, 1)),
            Some(1) => {
                if bytes.len() < 7 {
                    return Err(PackError::BadHeader);
                }
                let count = u16::from_be_bytes([bytes[1], bytes[2]]);
                let size = u32::from_be_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]);
                if count == 0 {
                    return Err(PackError::BadHeader);
                }
                if size == 0 && count as usize > MAX_EMPTY_PIECES {
                    return Err(PackError::BadHeader);
                }
                Ok((PackInfo::SameSize { count, size }, 7))
            }
            _ => Err(PackError::BadHeader),
        }
    }

    /// Pops and decodes a packing header from the front of `msg`.
    pub fn pop_from(msg: &mut Msg) -> Result<PackInfo, PackError> {
        let (info, used) = PackInfo::decode(msg.as_slice())?;
        msg.skip_front(used);
        Ok(info)
    }
}

/// Packs `msgs` (payload-only messages of one size) into one body with
/// its packing header: a lone message under the kind-0 byte, a run
/// through the body builder the backlog drain uses.
///
/// # Panics
///
/// If `msgs` is empty or its messages differ in size.
pub fn pack(msgs: &[Msg]) -> Msg {
    if let [one] = msgs {
        let mut m = one.clone();
        PackInfo::Single.push_onto(&mut m);
        return m;
    }
    pack_run(msgs.iter(), msgs[0].len())
}

/// The one body builder: a same-size run of `size`-byte messages,
/// packed under the kind-1 header into one freshly allocated buffer,
/// sized for the run before the first piece is copied in.
/// [`pack`] and the connection's backlog drain both build here. The body
/// leaves for the network and does not come back, so it is not taken
/// from a pool.
pub(crate) fn pack_run<'a>(run: impl ExactSizeIterator<Item = &'a Msg>, size: usize) -> Msg {
    let count = u16::try_from(run.len()).expect("a pack holds at most 65 535 messages");
    debug_assert!(
        size > 0 || count as usize <= MAX_EMPTY_PIECES,
        "an all-empty pack this large would be refused by the receiver"
    );
    let info = PackInfo::SameSize {
        count,
        size: u32::try_from(size).expect("a packed message is under 4 GiB"),
    };
    // One allocation: the header's room in front, the run's bytes
    // behind.
    let mut body = Msg::with_room(DEFAULT_HEADROOM + info.wire_len(), info.body_len());
    for m in run {
        assert_eq!(m.len(), size, "§3.4 packs only same-size runs");
        body.push_back(m.as_slice());
    }
    info.push_onto(&mut body);
    body
}

/// The one piece walk: the `count` pieces of `size` bytes at the front
/// of a same-size body, in order, zero-size pieces included. Delivery
/// hands each piece to the application as a pooled copy, [`unpack`] as
/// a fresh one. Total: a piece the body cannot hold ends the walk, so
/// the caller counts what it got.
pub(crate) fn pieces(body: &[u8], count: u16, size: u32) -> impl Iterator<Item = &[u8]> {
    let size = size as usize;
    let mut rest = body;
    (0..count).map_while(move |_| {
        let (piece, tail) = rest.split_at_checked(size)?;
        rest = tail;
        Some(piece)
    })
}

/// Splits a packed body (packing header already popped) into individual
/// application messages.
///
/// Total over arbitrary input: the body length is checked against the
/// header's promise before the walk, so even a hand-built `PackInfo`
/// that disagrees with the body yields an error rather than a panic.
pub fn unpack(info: &PackInfo, body: Msg) -> Result<Vec<Msg>, PackError> {
    let PackInfo::SameSize { count, size } = *info else {
        return Ok(vec![body]);
    };
    let expected = info.body_len();
    if body.len() != expected {
        return Err(PackError::LengthMismatch {
            expected,
            actual: body.len(),
        });
    }
    if size == 0 && count as usize > MAX_EMPTY_PIECES {
        return Err(PackError::BadHeader);
    }
    let mut out = Vec::with_capacity(count as usize);
    out.extend(pieces(body.as_slice(), count, size).map(Msg::from_payload));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs(sizes: &[usize]) -> Vec<Msg> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Msg::from_payload(&vec![i as u8; s]))
            .collect()
    }

    #[test]
    fn single_roundtrip() {
        let one = msgs(&[5]);
        let mut packed = pack(&one);
        let info = PackInfo::pop_from(&mut packed).unwrap();
        assert_eq!(info, PackInfo::Single);
        let out = unpack(&info, packed).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_slice(), &[0u8; 5]);
    }

    #[test]
    fn same_size_roundtrip() {
        let three = msgs(&[8, 8, 8]);
        let mut packed = pack(&three);
        let info = PackInfo::pop_from(&mut packed).unwrap();
        assert_eq!(info, PackInfo::SameSize { count: 3, size: 8 });
        let out = unpack(&info, packed).unwrap();
        assert_eq!(out.len(), 3);
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.as_slice(), &vec![i as u8; 8][..]);
        }
    }

    #[test]
    #[should_panic(expected = "same-size")]
    fn mixed_sizes_do_not_pack() {
        let _ = pack(&msgs(&[3, 10]));
    }

    #[test]
    fn header_sizes_match_wire_len() {
        for info in [
            PackInfo::Single,
            PackInfo::SameSize {
                count: 4,
                size: 100,
            },
        ] {
            let mut m = Msg::new();
            info.push_onto(&mut m);
            assert_eq!(m.len(), info.wire_len());
            assert_eq!(PackInfo::decode(m.as_slice()), Ok((info, info.wire_len())));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(PackInfo::decode(&[]), Err(PackError::BadHeader));
        assert_eq!(PackInfo::decode(&[9]), Err(PackError::BadHeader));
        assert_eq!(
            PackInfo::decode(&[1, 0, 1]),
            Err(PackError::BadHeader),
            "truncated"
        );
        assert_eq!(
            PackInfo::decode(&[1, 0, 0, 0, 0, 0, 8]),
            Err(PackError::BadHeader),
            "count 0"
        );
        assert_eq!(
            PackInfo::decode(&[2, 0, 0]),
            Err(PackError::BadHeader),
            "kind 2 is unknown"
        );
    }

    #[test]
    fn unpack_length_mismatch_detected() {
        let info = PackInfo::SameSize { count: 2, size: 8 };
        let short = Msg::from_payload(&[0u8; 15]);
        assert!(matches!(
            unpack(&info, short),
            Err(PackError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn forged_variable_count_cannot_buy_an_allocation() {
        // A kind-2 (Horus-style, one size per piece) header claiming
        // 65 535 pieces on a 10-byte frame, and an honest-looking one
        // with its size list present: no sender writes kind 2, so both
        // are an unknown kind, refused before anything is read past the
        // kind byte.
        let mut forged = vec![2u8, 0xFF, 0xFF];
        forged.extend_from_slice(&[0u8; 7]); // 10 bytes total
        assert_eq!(PackInfo::decode(&forged), Err(PackError::BadHeader));
        let mut honest = vec![2u8, 0, 2];
        honest.extend_from_slice(&0u32.to_be_bytes());
        honest.extend_from_slice(&3u32.to_be_bytes());
        honest.extend_from_slice(b"abc");
        assert_eq!(PackInfo::decode(&honest), Err(PackError::BadHeader));
        let mut msg = Msg::from_payload(&honest);
        assert_eq!(PackInfo::pop_from(&mut msg), Err(PackError::BadHeader));
        assert_eq!(msg.len(), honest.len(), "a refused header pops nothing");
    }

    #[test]
    fn forged_zero_size_amplification_rejected() {
        // `SameSize { count: 65535, size: 0 }` passes every length check
        // vacuously (0 × 65535 == 0 body bytes) yet promises 65 535
        // deliveries from a 7-byte header. The decode cap refuses it.
        let forged = [1u8, 0xFF, 0xFF, 0, 0, 0, 0];
        assert_eq!(PackInfo::decode(&forged), Err(PackError::BadHeader));
        // Just over the cap: refused; at the cap: accepted.
        let over = (MAX_EMPTY_PIECES as u16 + 1).to_be_bytes();
        assert_eq!(
            PackInfo::decode(&[1, over[0], over[1], 0, 0, 0, 0]),
            Err(PackError::BadHeader)
        );
        let at = (MAX_EMPTY_PIECES as u16).to_be_bytes();
        let (info, _) = PackInfo::decode(&[1, at[0], at[1], 0, 0, 0, 0]).unwrap();
        assert_eq!(info.count(), MAX_EMPTY_PIECES);
        // Unpack enforces the same bound on hand-built headers.
        assert_eq!(
            unpack(
                &PackInfo::SameSize {
                    count: MAX_EMPTY_PIECES as u16 + 1,
                    size: 0
                },
                Msg::from_payload(&[])
            ),
            Err(PackError::BadHeader)
        );
        // Nonzero sizes are untouched by the cap: the body-length check
        // already bounds them by bytes received.
        let (info, _) = PackInfo::decode(&[1, 0xFF, 0xFF, 0, 0, 0, 1]).unwrap();
        assert_eq!(
            info,
            PackInfo::SameSize {
                count: 0xFFFF,
                size: 1
            }
        );
    }

    #[test]
    fn unpack_never_panics_on_disagreeing_handbuilt_info() {
        // decode() can't produce these, but unpack is total anyway.
        let info = PackInfo::SameSize { count: 3, size: 4 };
        assert!(matches!(
            unpack(&info, Msg::from_payload(&[0u8; 13])),
            Err(PackError::LengthMismatch { .. })
        ));
        // The walk itself stops at the first piece the body cannot hold.
        assert_eq!(pieces(&[0u8; 9], 3, 4).count(), 2);
    }

    #[test]
    fn zero_length_messages_pack() {
        let zeroes = msgs(&[0, 0, 0]);
        let mut packed = pack(&zeroes);
        let info = PackInfo::pop_from(&mut packed).unwrap();
        assert_eq!(info, PackInfo::SameSize { count: 3, size: 0 });
        let out = unpack(&info, packed).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(Msg::is_empty));
    }

    #[test]
    fn same_size_header_is_7_bytes_regardless_of_count() {
        // The amortization the paper relies on: header cost is O(1) in
        // the number of packed messages.
        let few = pack(&msgs(&[8, 8]));
        let many = pack(&msgs(&[8; 50]));
        assert_eq!(few.len() - 2 * 8, 7);
        assert_eq!(many.len() - 50 * 8, 7);
    }

    #[test]
    fn pop_from_leaves_body_only() {
        let mut packed = pack(&msgs(&[4, 4]));
        let _ = PackInfo::pop_from(&mut packed).unwrap();
        assert_eq!(packed.len(), 8);
    }

    #[test]
    fn error_display() {
        assert!(PackError::LengthMismatch {
            expected: 10,
            actual: 3
        }
        .to_string()
        .contains("expected 10"));
    }
}
