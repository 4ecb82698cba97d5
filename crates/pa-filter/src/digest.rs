//! Message digests for the `DIGEST` filter instruction.
//!
//! Table 2 gives `DIGEST` a function pointer; we give it a small closed
//! set of algorithms so programs stay comparable, printable and
//! verifiable. All digests run over the *body* region of the frame —
//! everything after the gossip header (packing header + application
//! data) — which is the region whose integrity the message-specific
//! checksum protects. (The class headers themselves cannot be covered:
//! the checksum field lives inside one of them.)

use std::fmt;

/// Digest algorithm selector carried by [`crate::Op::Digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestKind {
    /// RFC 1071 one's-complement 16-bit sum (the Internet checksum).
    InternetChecksum,
    /// CRC-32 (IEEE 802.3 polynomial, bit-reflected).
    Crc32,
    /// XOR of all bytes — the cheapest possible integrity hint.
    Xor8,
}

impl DigestKind {
    /// Computes this digest over `data`.
    pub fn compute(self, data: &[u8]) -> u64 {
        self.compute_multi(&[data])
    }

    /// Computes this digest over the concatenation of `parts` without
    /// materializing it (used by `DIGEST_HEADERS`, which covers the
    /// protocol header + gossip header + body).
    pub fn compute_multi(self, parts: &[&[u8]]) -> u64 {
        match self {
            DigestKind::InternetChecksum => {
                // Streaming one's-complement sum of 16-bit big-endian
                // words (RFC 1071) with global byte-position parity
                // across part boundaries. This runs inside the packet
                // filter on every fast-path send and deliver, over
                // parts of a few bytes each; the long middle of a part
                // that has one goes through the wide kernel instead.
                let mut sum = 0u64;
                let mut odd = false;
                for part in parts {
                    let mut p: &[u8] = part;
                    if odd && !p.is_empty() {
                        // A part beginning at an odd global offset
                        // contributes its first byte in the low lane.
                        sum += p[0] as u64;
                        p = &p[1..];
                        odd = false;
                    }
                    if p.len() >= WIDE_FROM {
                        // `p` begins at an even offset here, so its
                        // blocks' words are the stream's words.
                        let (blocks, rest) = p.split_at(p.len() & !31);
                        sum += u16::from_be(fold16(wide_sum_ne(blocks))) as u64;
                        p = rest;
                    }
                    // Under `WIDE_FROM` bytes are left: 32 bits hold them.
                    let mut words = 0u32;
                    let mut chunks = p.chunks_exact(2);
                    for c in &mut chunks {
                        words += u16::from_be_bytes([c[0], c[1]]) as u32;
                    }
                    if let [last] = chunks.remainder() {
                        words += (*last as u32) << 8;
                        odd = true;
                    }
                    sum += words as u64;
                }
                (!fold16(sum)) as u64
            }
            DigestKind::Crc32 => {
                let mut crc = 0xFFFF_FFFFu32;
                for part in parts {
                    for &b in *part {
                        crc ^= b as u32;
                        for _ in 0..8 {
                            let lsb = crc & 1;
                            crc >>= 1;
                            if lsb != 0 {
                                crc ^= 0xEDB8_8320;
                            }
                        }
                    }
                }
                (!crc) as u64
            }
            DigestKind::Xor8 => parts.iter().flat_map(|p| p.iter()).fold(0u8, |a, &b| a ^ b) as u64,
        }
    }
}

impl fmt::Display for DigestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DigestKind::InternetChecksum => "inet16",
            DigestKind::Crc32 => "crc32",
            DigestKind::Xor8 => "xor8",
        };
        write!(f, "{s}")
    }
}

/// Length from which a part's 32-byte blocks go through
/// [`wide_sum_ne`]. Below it the word loop is as fast and an 8-byte
/// echo's digest (parts of 5, 4 and 9 bytes) pays for nothing new.
const WIDE_FROM: usize = 64;

/// The one's-complement sum of `blocks` — a whole number of 32-byte
/// blocks — read as native-endian 16-bit words, not yet folded.
///
/// This is the loop the packet filter spends a large message in, once a
/// side. It adds 32-bit words into four independent 64-bit lanes, 32
/// bytes an iteration, which the compiler vectorises; the carries the
/// 16-bit formulation folds in as it goes collect in the lanes' upper
/// halves instead and [`fold16`] brings them round at the end. The sum
/// is byte-order independent (RFC 1071 §2(B)): folded and byte-swapped
/// once, this native-endian one is the big-endian one. A lane gains
/// under 2^33 an iteration, so nothing overflows below 2^36 bytes.
fn wide_sum_ne(blocks: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    for b in blocks.chunks_exact(32) {
        let w = |i: usize| u32::from_ne_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]) as u64;
        lanes[0] += w(0) + w(16);
        lanes[1] += w(4) + w(20);
        lanes[2] += w(8) + w(24);
        lanes[3] += w(12) + w(28);
    }
    // One end-around carry each: under 2^33, so the four add up.
    lanes.iter().map(|&l| (l & 0xFFFF_FFFF) + (l >> 32)).sum()
}

/// Folds a one's-complement sum to 16 bits, end-around carry: zero only
/// for a sum of zero, `0xFFFF` for every other multiple of it.
fn fold16(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// RFC 1071 Internet checksum (one's-complement sum of 16-bit words,
/// odd trailing byte padded with zero), one big-endian word at a time:
/// the formulation [`DigestKind::InternetChecksum`] is checked against.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    // 32 768 words a block: a block's sum fits 32 bits, however long
    // the input. Blocks are of even length, so only the last can end in
    // an odd byte.
    for block in data.chunks(1 << 16) {
        let mut acc = 0u32;
        let mut chunks = block.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            acc += u16::from_be_bytes([*last, 0]) as u32;
        }
        sum += acc as u64;
    }
    !fold16(sum)
}

/// Bit-reflected CRC-32 (polynomial 0xEDB88320), tableless.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_checksum_rfc1071_example() {
        // The classic example from RFC 1071 §3: words 0x0001, 0xf203,
        // 0xf4f5, 0xf6f7 sum to 0xddf2 before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn internet_checksum_odd_length() {
        // Odd byte is padded with zero on the right.
        assert_eq!(internet_checksum(&[0xAB]), !0xAB00u16);
    }

    #[test]
    fn internet_checksum_detects_flips() {
        let a = internet_checksum(b"hello world");
        let b = internet_checksum(b"hellp world");
        assert_ne!(a, b);
    }

    #[test]
    fn internet_checksum_verification_property() {
        // Appending the checksum and re-summing yields 0 (all-ones
        // before complement) — the standard verification identity.
        let data = b"The quick brown fox!"; // even length
        let ck = internet_checksum(data);
        let mut with = data.to_vec();
        with.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical "123456789" check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn xor8_is_order_insensitive_but_cheap() {
        assert_eq!(DigestKind::Xor8.compute(b"ab"), (b'a' ^ b'b') as u64);
        assert_eq!(DigestKind::Xor8.compute(b""), 0);
    }

    #[test]
    fn compute_dispatch() {
        let d = b"data";
        assert_eq!(DigestKind::Crc32.compute(d), crc32(d) as u64);
        assert_eq!(
            DigestKind::InternetChecksum.compute(d),
            internet_checksum(d) as u64
        );
    }

    #[test]
    fn compute_multi_equals_concatenation() {
        let parts: [&[u8]; 3] = [b"odd", b"", b"length parts!"];
        let concat: Vec<u8> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        for kind in [
            DigestKind::InternetChecksum,
            DigestKind::Crc32,
            DigestKind::Xor8,
        ] {
            assert_eq!(kind.compute_multi(&parts), kind.compute(&concat), "{kind}");
        }
    }

    #[test]
    fn compute_multi_detects_cross_part_flips() {
        let a = DigestKind::InternetChecksum.compute_multi(&[b"abc", b"def"]);
        let b = DigestKind::InternetChecksum.compute_multi(&[b"abd", b"def"]);
        assert_ne!(a, b);
    }

    #[test]
    fn wide_kernel_matches_the_word_loop_at_every_length_alignment_and_split() {
        let data: Vec<u8> = (0..304u32).map(|i| (i * 197 + 13) as u8).collect();
        for align in 0..3 {
            for len in 0..=300 {
                let d = &data[align..align + len];
                let want = internet_checksum(d) as u64;
                assert_eq!(
                    DigestKind::InternetChecksum.compute(d),
                    want,
                    "{align}+{len}"
                );
                for cut in 0..=len {
                    let parts = [&d[..cut], &d[cut..]];
                    let got = DigestKind::InternetChecksum.compute_multi(&parts);
                    assert_eq!(got, want, "{align}+{len} cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn all_ones_input_past_128_kib_folds_instead_of_overflowing() {
        // 65 537 words of 0xFFFF overflow a 32-bit accumulator: a panic
        // in a debug build, a wrong sum in release.
        for len in [140_000usize, 140_001, 64 * 1024] {
            let data = vec![0xFFu8; len];
            let mut sum: u128 = (len as u128 / 2) * 0xFFFF + (len as u128 % 2) * 0xFF00;
            while sum >> 16 != 0 {
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
            let want = !(sum as u16);
            assert_eq!(internet_checksum(&data), want, "oracle, {len}");
            let got = DigestKind::InternetChecksum.compute(&data);
            assert_eq!(got, want as u64, "{len}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DigestKind::Crc32.to_string(), "crc32");
        assert_eq!(DigestKind::InternetChecksum.to_string(), "inet16");
    }
}
