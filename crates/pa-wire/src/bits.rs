//! Bit-granular field access within a header byte string.
//!
//! Bit addressing is MSB-first: bit 0 is the most significant bit of
//! byte 0 (network bit order, as in RFC diagrams). A field of `bits`
//! width starting at bit `off` occupies bits `off..off+bits`.
//!
//! Byte-order handling follows the rule documented on
//! [`crate::CompiledLayout`]: fields that are byte-aligned and a whole
//! number of bytes wide are stored in the message's advertised byte
//! order; all other (sub-byte or unaligned) fields are stored in network
//! bit order regardless, because "little-endian bit fields spanning
//! bytes" has no portable meaning.

use pa_buf::ByteOrder;

/// Reads `bits` (1..=64) starting at bit `off`, network bit order.
pub fn read_bits_be(buf: &[u8], off: u32, bits: u32) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    let mut v = 0u64;
    for i in 0..bits {
        let bit = off + i;
        let byte = (bit / 8) as usize;
        let shift = 7 - (bit % 8);
        let b = (buf[byte] >> shift) & 1;
        v = (v << 1) | b as u64;
    }
    v
}

/// Writes the low `bits` of `v` starting at bit `off`, network bit order.
pub fn write_bits_be(buf: &mut [u8], off: u32, bits: u32, v: u64) {
    debug_assert!((1..=64).contains(&bits));
    for i in 0..bits {
        let bit = off + i;
        let byte = (bit / 8) as usize;
        let shift = 7 - (bit % 8);
        let b = ((v >> (bits - 1 - i)) & 1) as u8;
        buf[byte] = (buf[byte] & !(1 << shift)) | (b << shift);
    }
}

/// Reads a field honouring the message byte order: byte-aligned whole-
/// byte fields decode in `order`; everything else is network bit order.
pub(crate) fn read_field(buf: &[u8], off: u32, bits: u32, order: ByteOrder) -> u64 {
    if off.is_multiple_of(8) && bits.is_multiple_of(8) {
        let start = (off / 8) as usize;
        let n = (bits / 8) as usize;
        order.decode(&buf[start..start + n])
    } else {
        read_bits_be(buf, off, bits)
    }
}

/// Writes a field honouring the message byte order (see [`read_field`]).
pub(crate) fn write_field(buf: &mut [u8], off: u32, bits: u32, v: u64, order: ByteOrder) {
    if off.is_multiple_of(8) && bits.is_multiple_of(8) {
        let start = (off / 8) as usize;
        let n = (bits / 8) as usize;
        order.encode(v, &mut buf[start..start + n]);
    } else {
        write_bits_be(buf, off, bits, v);
    }
}

/// Masks `v` to its low `bits` bits.
pub fn mask(v: u64, bits: u32) -> u64 {
    if bits >= 64 {
        v
    } else {
        v & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_positions() {
        let mut buf = [0u8; 2];
        write_bits_be(&mut buf, 0, 1, 1);
        assert_eq!(buf, [0b1000_0000, 0]);
        write_bits_be(&mut buf, 7, 1, 1);
        assert_eq!(buf, [0b1000_0001, 0]);
        write_bits_be(&mut buf, 8, 1, 1);
        assert_eq!(buf, [0b1000_0001, 0b1000_0000]);
        assert_eq!(read_bits_be(&buf, 7, 1), 1);
        assert_eq!(read_bits_be(&buf, 6, 1), 0);
    }

    #[test]
    fn cross_byte_field() {
        let mut buf = [0u8; 2];
        // 6-bit field starting at bit 5 spans both bytes.
        write_bits_be(&mut buf, 5, 6, 0b101101);
        assert_eq!(read_bits_be(&buf, 5, 6), 0b101101);
        // Neighbouring bits untouched.
        assert_eq!(read_bits_be(&buf, 0, 5), 0);
        assert_eq!(read_bits_be(&buf, 11, 5), 0);
    }

    #[test]
    fn write_clears_previous_value() {
        let mut buf = [0xFFu8; 2];
        write_bits_be(&mut buf, 4, 8, 0);
        assert_eq!(read_bits_be(&buf, 4, 8), 0);
        assert_eq!(read_bits_be(&buf, 0, 4), 0xF);
        assert_eq!(read_bits_be(&buf, 12, 4), 0xF);
    }

    #[test]
    fn full_64_bit_field() {
        let mut buf = [0u8; 8];
        let v = 0xDEAD_BEEF_0BAD_F00Du64;
        write_bits_be(&mut buf, 0, 64, v);
        assert_eq!(read_bits_be(&buf, 0, 64), v);
        assert_eq!(buf, v.to_be_bytes());
    }

    #[test]
    fn aligned_fields_respect_byte_order() {
        let mut buf = [0u8; 4];
        write_field(&mut buf, 0, 32, 0x0102_0304, ByteOrder::Little);
        assert_eq!(buf, [4, 3, 2, 1]);
        assert_eq!(read_field(&buf, 0, 32, ByteOrder::Little), 0x0102_0304);
        write_field(&mut buf, 0, 32, 0x0102_0304, ByteOrder::Big);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn unaligned_fields_ignore_byte_order() {
        let mut a = [0u8; 3];
        let mut b = [0u8; 3];
        write_field(&mut a, 3, 13, 0x1ABC & 0x1FFF, ByteOrder::Big);
        write_field(&mut b, 3, 13, 0x1ABC & 0x1FFF, ByteOrder::Little);
        assert_eq!(
            a, b,
            "sub-byte/unaligned fields have one canonical encoding"
        );
        assert_eq!(read_field(&a, 3, 13, ByteOrder::Little), 0x1ABC & 0x1FFF);
    }

    #[test]
    fn mask_behaviour() {
        assert_eq!(mask(0xFF, 4), 0xF);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(u64::MAX, 1), 1);
    }

    #[test]
    fn adjacent_fields_do_not_interfere() {
        let mut buf = [0u8; 4];
        write_bits_be(&mut buf, 0, 3, 0b111);
        write_bits_be(&mut buf, 3, 5, 0b10101);
        write_bits_be(&mut buf, 8, 16, 0xBEEF);
        write_bits_be(&mut buf, 24, 8, 0x42);
        assert_eq!(read_bits_be(&buf, 0, 3), 0b111);
        assert_eq!(read_bits_be(&buf, 3, 5), 0b10101);
        assert_eq!(read_bits_be(&buf, 8, 16), 0xBEEF);
        assert_eq!(read_bits_be(&buf, 24, 8), 0x42);
    }
}
