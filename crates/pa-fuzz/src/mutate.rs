//! Structure-aware frame mutators.
//!
//! Every mutator is a pure function of `(rng, input frames)`, so a
//! campaign is reproducible from its seed alone. The mutators know the
//! PA's wire shape — the 8-byte network-bit-order preamble with the
//! conn-ident bit (63), the byte-order bit (62), and the 62-bit cookie
//! below them (§2.2, Figure 1) — and aim their damage at exactly the
//! bytes that steer the fast path.

use pa_obs::rng::{Rng, SplitMix64};

/// Length of the preamble at the front of every frame.
const PREAMBLE_LEN: usize = 8;

/// The mutation classes the fuzzer draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Cut the frame at a random point (including down to zero bytes).
    Truncate,
    /// Flip 1–8 random bits anywhere in the frame.
    BitFlip,
    /// Replace the whole preamble word with random bits.
    PreambleForge,
    /// Keep the preamble flags, randomize the 62-bit cookie (sometimes
    /// to the reserved all-zero forgery).
    CookieForge,
    /// Toggle the byte-order bit so every later header is read in the
    /// wrong endianness.
    ByteOrderFlip,
    /// Toggle the conn-ident-present bit so the demux mis-frames the
    /// bytes after the preamble.
    IdentBitFlip,
    /// Write a forged §3.4 packing header (`SameSize`, huge count,
    /// zero/small size) at a random offset in the front half.
    PackForge,
    /// Re-inject a previously seen frame verbatim (replay/duplicate).
    Duplicate,
    /// Hold the frame back and release it after later traffic
    /// (reordering). The harness implements the delay; the mutator
    /// just tags it.
    Reorder,
    /// Graft this frame's preamble onto another connection's body
    /// (cross-connection splice), usually with a forged cookie.
    Splice,
    /// Replace the frame with unstructured random bytes.
    RandomBytes,
}

impl Mutation {
    /// Number of mutation classes.
    pub(crate) const COUNT: usize = 11;

    /// All mutation classes, draw-index order.
    pub const ALL: [Mutation; Mutation::COUNT] = [
        Mutation::Truncate,
        Mutation::BitFlip,
        Mutation::PreambleForge,
        Mutation::CookieForge,
        Mutation::ByteOrderFlip,
        Mutation::IdentBitFlip,
        Mutation::PackForge,
        Mutation::Duplicate,
        Mutation::Reorder,
        Mutation::Splice,
        Mutation::RandomBytes,
    ];

    /// Stable index (for counters).
    pub fn index(self) -> usize {
        Mutation::ALL
            .iter()
            .position(|&m| m == self)
            .expect("in ALL")
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::Truncate => "truncate",
            Mutation::BitFlip => "bitflip",
            Mutation::PreambleForge => "preamble-forge",
            Mutation::CookieForge => "cookie-forge",
            Mutation::ByteOrderFlip => "byteorder-flip",
            Mutation::IdentBitFlip => "identbit-flip",
            Mutation::PackForge => "pack-forge",
            Mutation::Duplicate => "duplicate",
            Mutation::Reorder => "reorder",
            Mutation::Splice => "splice",
            Mutation::RandomBytes => "random-bytes",
        }
    }

    /// True if this mutation can alter payload bytes (so a delivered
    /// message may legitimately carry a garbled marker if the checksum
    /// happens to collide). Mutations that only touch the preamble or
    /// the routing metadata leave the payload bit-exact.
    pub(crate) fn corrupts_payload(self) -> bool {
        matches!(
            self,
            Mutation::BitFlip | Mutation::PackForge | Mutation::RandomBytes | Mutation::Truncate
        )
    }
}

/// Draws a mutation class.
pub fn draw_mutation(rng: &mut SplitMix64) -> Mutation {
    Mutation::ALL[rng.gen_index(Mutation::COUNT)]
}

/// Applies `m` to `frame` (wire bytes, preamble-first). `donor` is a
/// frame captured from a *different* connection, used by
/// [`Mutation::Splice`]; when `None`, splice degrades to a preamble
/// forgery. [`Mutation::Duplicate`] and [`Mutation::Reorder`] return
/// the frame unchanged — the harness realises them as scheduling.
pub fn apply(m: Mutation, rng: &mut SplitMix64, frame: &[u8], donor: Option<&[u8]>) -> Vec<u8> {
    let mut out = frame.to_vec();
    match m {
        Mutation::Truncate => {
            let cut = rng.gen_index(out.len() + 1);
            out.truncate(cut);
        }
        Mutation::BitFlip => {
            if !out.is_empty() {
                let flips = 1 + rng.gen_index(8);
                for _ in 0..flips {
                    let byte = rng.gen_index(out.len());
                    let bit = rng.gen_index(8);
                    out[byte] ^= 1 << bit;
                }
            }
        }
        Mutation::PreambleForge => {
            let word: u64 = rng.next_u64();
            overwrite_preamble(&mut out, word);
        }
        Mutation::CookieForge => {
            if let Some(word) = preamble_word(&out) {
                // 1-in-8: the reserved all-zero cookie, which a
                // legitimate sender can never mint.
                let cookie = if rng.gen_index(8) == 0 {
                    0
                } else {
                    rng.next_u64() & COOKIE_MASK
                };
                overwrite_preamble(&mut out, (word & FLAG_MASK) | cookie);
            }
        }
        Mutation::ByteOrderFlip => {
            if let Some(word) = preamble_word(&out) {
                overwrite_preamble(&mut out, word ^ (1 << 62));
            }
        }
        Mutation::IdentBitFlip => {
            if let Some(word) = preamble_word(&out) {
                overwrite_preamble(&mut out, word ^ (1 << 63));
            }
        }
        Mutation::PackForge => {
            // A §3.4 SameSize header is `[1][count:u16][size:u32]`.
            // Plant one with an amplified count and a tiny size at a
            // random offset in the front half, where the real packing
            // byte lives once the class headers end.
            if out.len() > PREAMBLE_LEN + 7 {
                let span = (out.len() - 7).max(PREAMBLE_LEN + 1);
                let at = PREAMBLE_LEN + rng.gen_index(span - PREAMBLE_LEN);
                let count: u16 = [u16::MAX, 0, 1, 513][rng.gen_index(4)];
                let size: u32 = [0u32, 1, 65_535][rng.gen_index(3)];
                let mut hdr = [0u8; 7];
                hdr[0] = 1;
                hdr[1..3].copy_from_slice(&count.to_be_bytes());
                hdr[3..7].copy_from_slice(&size.to_be_bytes());
                let end = (at + 7).min(out.len());
                out[at..end].copy_from_slice(&hdr[..end - at]);
            }
        }
        Mutation::Duplicate | Mutation::Reorder => {}
        Mutation::Splice => {
            // Preamble flags from `frame`, body from the donor — the
            // classic cross-connection graft — with a *forged* cookie:
            // the splicing attacker holds captured bytes, not the live
            // cookie capability (an attacker who knows the cookie can
            // inject valid traffic outright; no cookie scheme can
            // refuse that without a MAC, so it is out of scope).
            if let Some(donor) = donor {
                let body = donor.get(PREAMBLE_LEN..).unwrap_or(&[]);
                out.truncate(PREAMBLE_LEN.min(out.len()));
                out.extend_from_slice(body);
                if let Some(word) = preamble_word(&out) {
                    overwrite_preamble(
                        &mut out,
                        (word & FLAG_MASK) | (rng.next_u64() & COOKIE_MASK),
                    );
                }
            } else {
                overwrite_preamble(&mut out, rng.next_u64());
            }
        }
        Mutation::RandomBytes => {
            let n = rng.gen_index(96);
            out = (0..n).map(|_| rng.next_u64() as u8).collect();
        }
    }
    out
}

/// Mask of the two preamble flag bits.
const FLAG_MASK: u64 = 0b11 << 62;
/// Mask of the 62-bit cookie below them.
const COOKIE_MASK: u64 = !FLAG_MASK;

/// Reads the preamble word if the frame still has one.
fn preamble_word(frame: &[u8]) -> Option<u64> {
    frame
        .first_chunk::<PREAMBLE_LEN>()
        .map(|b| u64::from_be_bytes(*b))
}

/// Writes the preamble word back (no-op on frames shorter than a
/// preamble — there is nothing structured left to aim at).
fn overwrite_preamble(frame: &mut [u8], word: u64) {
    if let Some(head) = frame.first_chunk_mut::<PREAMBLE_LEN>() {
        *head = word.to_be_bytes();
    }
}

/// Renders `bytes` as a conventional 16-per-line hexdump, for failure
/// artifacts (the printed form is enough to re-create the frame).
pub fn hexdump(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let _ = write!(out, "{:08x}  ", i * 16);
        for (j, b) in chunk.iter().enumerate() {
            let _ = write!(out, "{b:02x}{}", if j == 7 { "  " } else { " " });
        }
        let pad = 16 - chunk.len();
        for j in 0..pad {
            let _ = write!(out, "   {}", if chunk.len() + j == 7 { " " } else { "" });
        }
        let _ = write!(out, " |");
        for b in chunk {
            let c = if b.is_ascii_graphic() || *b == b' ' {
                *b as char
            } else {
                '.'
            };
            out.push(c);
        }
        out.push_str("|\n");
    }
    if bytes.is_empty() {
        out.push_str("(empty)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u8> {
        let mut f = 0x8ABC_DEF0_1234_5678u64.to_be_bytes().to_vec();
        f.extend_from_slice(b"header-bytes-and-payload");
        f
    }

    #[test]
    fn mutations_are_deterministic_by_seed() {
        for m in Mutation::ALL {
            let run = |seed| {
                let mut rng = SplitMix64::new(seed);
                apply(
                    m,
                    &mut rng,
                    &frame(),
                    Some(b"\x11\x22\x33\x44\x55\x66\x77\x88donor-body"),
                )
            };
            assert_eq!(run(7), run(7), "{m:?}");
        }
    }

    #[test]
    fn cookie_forge_preserves_flags() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..64 {
            let out = apply(Mutation::CookieForge, &mut rng, &frame(), None);
            let before = preamble_word(&frame()).unwrap();
            let after = preamble_word(&out).unwrap();
            assert_eq!(before & FLAG_MASK, after & FLAG_MASK);
            assert_eq!(&out[PREAMBLE_LEN..], &frame()[PREAMBLE_LEN..]);
        }
    }

    #[test]
    fn byteorder_and_identbit_flip_exactly_one_bit() {
        let mut rng = SplitMix64::new(4);
        let before = preamble_word(&frame()).unwrap();
        let bo = apply(Mutation::ByteOrderFlip, &mut rng, &frame(), None);
        assert_eq!(preamble_word(&bo).unwrap() ^ before, 1 << 62);
        let id = apply(Mutation::IdentBitFlip, &mut rng, &frame(), None);
        assert_eq!(preamble_word(&id).unwrap() ^ before, 1 << 63);
    }

    #[test]
    fn truncate_only_shortens() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..64 {
            let out = apply(Mutation::Truncate, &mut rng, &frame(), None);
            assert!(out.len() <= frame().len());
            assert_eq!(out[..], frame()[..out.len()]);
        }
    }

    #[test]
    fn splice_takes_donor_body() {
        let mut rng = SplitMix64::new(6);
        let donor: Vec<u8> = (0..24).map(|i| 0x40 + i).collect();
        let out = apply(Mutation::Splice, &mut rng, &frame(), Some(&donor));
        assert_eq!(&out[PREAMBLE_LEN..], &donor[PREAMBLE_LEN..]);
    }

    #[test]
    fn mutators_total_over_tiny_frames() {
        // No frame is too short to mutate: every mutator must cope with
        // 0..=9-byte inputs without panicking.
        let mut rng = SplitMix64::new(7);
        for len in 0..=9usize {
            let tiny: Vec<u8> = (0..len as u8).collect();
            for m in Mutation::ALL {
                for _ in 0..16 {
                    let _ = apply(m, &mut rng, &tiny, Some(&tiny));
                    let _ = apply(m, &mut rng, &tiny, None);
                }
            }
        }
    }

    #[test]
    fn hexdump_covers_partial_lines() {
        let d = hexdump(&frame());
        assert!(d.starts_with("00000000  8a bc de f0 12 34 56 78  "));
        assert!(d.contains("|ytes-and-payload|"), "{d}");
        assert_eq!(hexdump(&[]), "(empty)\n");
    }
}
