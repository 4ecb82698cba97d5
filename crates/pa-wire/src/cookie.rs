//! Connection cookies (§2.2).
//!
//! "A 62-bit magic number. It is chosen at random and identifies the
//! connection." The cookie replaces the large Connection Identification
//! header on every message after the first; the receiver keeps a
//! cookie → connection map. Cookies also cut connection lookup to one
//! hash probe (the paper cites a 31% latency win from the analogous
//! PathID scheme).

use pa_obs::rng::Rng;
use std::fmt;

/// Number of significant bits in a cookie.
pub(crate) const COOKIE_BITS: u32 = 62;

/// Mask selecting the 62 cookie bits.
pub(crate) const COOKIE_MASK: u64 = (1u64 << COOKIE_BITS) - 1;

/// A 62-bit random connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cookie(u64);

impl Cookie {
    /// Wraps a raw value, truncating to 62 bits.
    pub fn from_raw(v: u64) -> Cookie {
        Cookie(v & COOKIE_MASK)
    }

    /// Draws a fresh random cookie from `rng`.
    ///
    /// Zero is avoided so an all-zero preamble can never be mistaken for
    /// a valid connection.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Cookie {
        loop {
            let v = rng.next_u64() & COOKIE_MASK;
            if v != 0 {
                return Cookie(v);
            }
        }
    }

    /// The raw 62-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True for the reserved zero cookie.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_obs::rng::SplitMix64;

    #[test]
    fn from_raw_truncates_to_62_bits() {
        let c = Cookie::from_raw(u64::MAX);
        assert_eq!(c.raw(), COOKIE_MASK);
        assert_eq!(c.raw() >> 62, 0);
    }

    #[test]
    fn random_is_nonzero_and_62_bit() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let c = Cookie::random(&mut rng);
            assert!(!c.is_zero());
            assert_eq!(c.raw() & !COOKIE_MASK, 0);
        }
    }

    #[test]
    fn random_cookies_collide_rarely() {
        let mut rng = SplitMix64::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(
                seen.insert(Cookie::random(&mut rng)),
                "collision in 10k draws"
            );
        }
    }

    #[test]
    fn zero_is_reserved() {
        assert!(Cookie::from_raw(0).is_zero());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Cookie::from_raw(0xABC).to_string(), "0000000000000abc");
    }
}
