//! Byte order of scalars on the wire.
//!
//! The PA supports peers of either endianness: the preamble carries a
//! byte-order bit (§2.2) and all field accessors "take byte-ordering into
//! account, so that layers do not have to worry about communicating
//! between heterogeneous machines" (§2.1). [`ByteOrder`] encodes and
//! decodes the scalars; bit-granular fields live in `pa-wire`.

use std::fmt;

/// Wire byte order of a message, advertised in the preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Most significant byte first (network order).
    Big,
    /// Least significant byte first.
    Little,
}

impl ByteOrder {
    /// The byte order of the machine we are running on.
    pub fn native() -> ByteOrder {
        if cfg!(target_endian = "little") {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        }
    }

    /// Encodes `v`'s low `n` bytes in this order (`n` ≤ 8).
    pub fn encode(self, v: u64, out: &mut [u8]) {
        let n = out.len();
        debug_assert!(n <= 8);
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = match self {
                ByteOrder::Big => (n - 1 - i) * 8,
                ByteOrder::Little => i * 8,
            };
            *slot = (v >> shift) as u8;
        }
    }

    /// Decodes `bytes` (≤ 8) in this order.
    pub fn decode(self, bytes: &[u8]) -> u64 {
        let n = bytes.len();
        debug_assert!(n <= 8);
        let mut v = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            let shift = match self {
                ByteOrder::Big => (n - 1 - i) * 8,
                ByteOrder::Little => i * 8,
            };
            v |= (b as u64) << shift;
        }
        v
    }
}

impl fmt::Display for ByteOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteOrder::Big => write!(f, "big-endian"),
            ByteOrder::Little => write!(f, "little-endian"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_big() {
        let mut b = [0u8; 4];
        ByteOrder::Big.encode(0x0102_0304, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(ByteOrder::Big.decode(&b), 0x0102_0304);
    }

    #[test]
    fn encode_decode_little() {
        let mut b = [0u8; 4];
        ByteOrder::Little.encode(0x0102_0304, &mut b);
        assert_eq!(b, [4, 3, 2, 1]);
        assert_eq!(ByteOrder::Little.decode(&b), 0x0102_0304);
    }

    #[test]
    fn odd_widths_roundtrip() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            for n in 1..=8usize {
                let mask = if n == 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * n)) - 1
                };
                let v = 0xDEAD_BEEF_CAFE_F00Du64 & mask;
                let mut buf = vec![0u8; n];
                order.encode(v, &mut buf);
                assert_eq!(order.decode(&buf), v, "order={order} n={n}");
            }
        }
    }

    #[test]
    fn native_is_consistent() {
        // We only run on little-endian CI hosts, but the check is
        // platform-agnostic: whatever native() says must roundtrip
        // through to_ne_bytes.
        let v = 0x1122_3344_5566_7788u64;
        let mut buf = [0u8; 8];
        ByteOrder::native().encode(v, &mut buf);
        assert_eq!(buf, v.to_ne_bytes());
    }
}
