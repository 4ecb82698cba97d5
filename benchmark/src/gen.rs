//! Seeded inputs: the generator, the payload format and its verifier.
//!
//! Every payload starts with an 8-byte tag — connection id and sequence
//! number, little-endian `u32` each — followed by filler that is a pure
//! function of (seed, conn, seq): a slice of a seeded arena at a hashed
//! offset. The receiver recomputes the slice from the tag, so checking
//! a delivery byte for byte needs no per-message bookkeeping.

/// SplitMix64 finalizer.
#[inline]
pub const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64. The benchmark owns its generator so the inputs cannot
/// change under it when an engine crate is edited.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

pub const TAG_LEN: usize = 8;
const ARENA_LEN: usize = 1 << 20;

/// The filler arena and the payload codec over it.
pub struct Arena {
    seed: u64,
    bytes: Vec<u8>,
}

impl Arena {
    pub fn new(seed: u64) -> Arena {
        let mut rng = Rng::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        let mut bytes = Vec::with_capacity(ARENA_LEN);
        while bytes.len() < ARENA_LEN {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Arena { seed, bytes }
    }

    #[inline]
    fn filler(&self, conn: u32, seq: u32, len: usize) -> &[u8] {
        let key = self.seed ^ ((conn as u64) << 32 | seq as u64);
        let off = (mix(key) % (ARENA_LEN - len) as u64) as usize;
        &self.bytes[off..off + len]
    }

    /// Writes the payload for (conn, seq) into `out`; `out.len()` is the
    /// payload size, at least [`TAG_LEN`] and under 1 MiB.
    #[inline]
    pub fn fill(&self, conn: u32, seq: u32, out: &mut [u8]) {
        let (tag, rest) = out.split_at_mut(TAG_LEN);
        tag[..4].copy_from_slice(&conn.to_le_bytes());
        tag[4..].copy_from_slice(&seq.to_le_bytes());
        // The 8-byte workloads generate millions of tag-only payloads.
        if !rest.is_empty() {
            rest.copy_from_slice(self.filler(conn, seq, rest.len()));
        }
    }

    /// Checks a delivered payload byte for byte and returns its tag, or
    /// `None` if it is not a payload this arena would generate.
    #[inline]
    pub fn check(&self, got: &[u8]) -> Option<(u32, u32)> {
        let (tag, rest) = got.split_first_chunk::<TAG_LEN>()?;
        let conn = u32::from_le_bytes(tag[..4].try_into().expect("4 bytes"));
        let seq = u32::from_le_bytes(tag[4..].try_into().expect("4 bytes"));
        let filler_ok = rest.is_empty()
            || (rest.len() < ARENA_LEN && rest == self.filler(conn, seq, rest.len()));
        filler_ok.then_some((conn, seq))
    }
}

/// `k` distinct values in `[0, n)` written to `out[..k]`, uniform over
/// the k-subsets in a seeded order (rejection against the picks so far;
/// `k` is small next to `n` wherever this is used).
pub fn distinct(rng: &mut Rng, n: u32, out: &mut [u32]) {
    assert!(out.len() as u64 * 2 <= n as u64);
    for i in 0..out.len() {
        out[i] = loop {
            let pick = rng.below(n as u64) as u32;
            if !out[..i].contains(&pick) {
                break pick;
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (Arena::new(7), Arena::new(7), Arena::new(8));
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
        let mut pa = [0u8; 300];
        let mut pb = [0u8; 300];
        let mut pc = [0u8; 300];
        a.fill(3, 99, &mut pa);
        b.fill(3, 99, &mut pb);
        c.fill(3, 99, &mut pc);
        assert_eq!(pa, pb);
        assert_ne!(pa, pc);

        let picks = |seed| {
            let mut rng = Rng::new(seed);
            let mut out = [0u32; 32];
            distinct(&mut rng, 16_384, &mut out);
            out
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
        let p = picks(5);
        for (i, x) in p.iter().enumerate() {
            assert!(*x < 16_384 && !p[..i].contains(x));
        }
    }

    #[test]
    fn check_accepts_exactly_what_fill_wrote() {
        let arena = Arena::new(42);
        for len in [8usize, 32, 16 * 1024] {
            let mut p = vec![0u8; len];
            arena.fill(17, 123_456, &mut p);
            assert_eq!(arena.check(&p), Some((17, 123_456)));
            if len > TAG_LEN {
                *p.last_mut().unwrap() ^= 1;
                assert_eq!(arena.check(&p), None, "a flipped filler bit must be caught");
            }
        }
        assert_eq!(arena.check(&[1, 2, 3]), None, "shorter than a tag");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1);
        for n in [1u64, 2, 3, 1000, u32::MAX as u64] {
            for _ in 0..100 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
