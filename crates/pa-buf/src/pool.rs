//! Explicit message-buffer recycling.
//!
//! §6 of the paper: "We have been experimenting with allocating and
//! deallocating 'high-bandwidth' objects explicitly (in particular,
//! messages) … the number of garbage collections reduce dramatically."
//! [`MsgPool`] is that practice: a free list of [`Msg`] buffers that are
//! handed out, used, and returned, so steady-state traffic allocates
//! nothing. The pool counts hits and misses so the GC-pressure ablation
//! can report how much allocation the pool absorbed.

use crate::msg::{Msg, DEFAULT_HEADROOM};

/// Capacity up to which a buffer is *small*: below it, growing a buffer
/// that does not fit costs less than looking for one that does.
pub(crate) const SMALL: usize = 2048;

/// A free list of reusable [`Msg`] buffers.
///
/// Buffers keep what they grew to, and a pool that sees both 8-byte
/// acknowledgements and 16 KiB messages holds both kinds. It keeps them
/// apart. [`SMALL`] buffers are a stack, most recent first: the
/// small-message steady state pushes and pops and compares nothing.
/// Larger ones are kept by capacity and a large take is served by the
/// smallest that fits, so a fragment does not carry the 16 KiB staging
/// buffer away and the next 16 KiB message finds the buffer that
/// already holds it; a full pool takes a large buffer back in place of
/// a smaller large one and otherwise drops what is returned.
#[derive(Debug)]
pub struct MsgPool {
    /// Idle [`SMALL`] buffers, most recent last.
    small: Vec<Msg>,
    /// Larger idle buffers, by capacity, largest first (equal ones most
    /// recent last).
    large: Vec<Msg>,
    // 32 bits each: the second list above would otherwise take every
    // connection past its `size_of` pin (`tests/stack_plan.rs`).
    headroom: u32,
    max_retained: u32,
    hits: u64,
    misses: u64,
    returns: u64,
    capped: u64,
}

/// Counters describing pool effectiveness.
///
/// Flux identity (checked by the pool-flux tests): every buffer on the
/// free list got there through `put` (`returns`, minus the `capped`
/// ones the retention limit discarded), and every buffer that left it
/// was a `hit`, so at any quiescent point
/// `idle == returns - hits - capped`, exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from the free list.
    pub hits: u64,
    /// Allocations that had to create a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Returned buffers the retention cap discarded instead of keeping
    /// (still counted in `returns`; donated frames — e.g. unpacked
    /// packed bodies — can push a pool past its cap in steady state).
    pub capped: u64,
}

impl MsgPool {
    /// Creates a pool whose buffers carry `headroom` front bytes and that
    /// retains at most `max_retained` free buffers.
    ///
    /// # Panics
    /// If either does not fit 32 bits.
    pub fn new(headroom: usize, max_retained: usize) -> Self {
        MsgPool {
            small: Vec::new(),
            large: Vec::new(),
            headroom: u32::try_from(headroom).expect("headroom fits 32 bits"),
            max_retained: u32::try_from(max_retained).expect("retention fits 32 bits"),
            hits: 0,
            misses: 0,
            returns: 0,
            capped: 0,
        }
    }

    /// A pool with the default headroom retaining up to 64 buffers.
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_HEADROOM, 64)
    }

    /// Raises the headroom later takes carry to `headroom`, if that is
    /// more: a pool several connections take from serves the largest
    /// headroom among them, so none of their frames regrows.
    pub fn raise_headroom(&mut self, headroom: usize) {
        let headroom = u32::try_from(headroom).expect("headroom fits 32 bits");
        self.headroom = self.headroom.max(headroom);
    }

    /// The headroom every buffer taken from this pool carries.
    pub fn headroom(&self) -> usize {
        self.headroom as usize
    }

    /// Takes a buffer and fills it with `payload`. A miss allocates
    /// once, sized for the payload.
    #[inline]
    pub fn take_with(&mut self, payload: &[u8]) -> Msg {
        self.take_with_room(payload, 0)
    }

    /// [`MsgPool::take_with`] for a payload the caller will append up
    /// to `room` more bytes to. Past [`SMALL`], the buffer taken is the
    /// smallest idle one that holds `payload` and `room` without
    /// growing, else the smallest that holds `payload`, else the
    /// largest (which then grows). `room` only chooses among idle
    /// buffers — nothing is ever allocated for it.
    pub fn take_with_room(&mut self, payload: &[u8], room: usize) -> Msg {
        let need = self.headroom as usize + payload.len();
        if need + room <= SMALL {
            if let Some(m) = self.small.pop() {
                return self.hit(m, payload);
            }
        }
        self.take_sized(payload, need, room)
    }

    /// A take the stack of small buffers did not serve.
    #[inline(never)]
    fn take_sized(&mut self, payload: &[u8], need: usize, room: usize) -> Msg {
        // Largest first: the last that fits is the smallest that does.
        let smallest_of = |large: &[Msg], n| large.iter().rposition(|m| m.capacity() >= n);
        let at = smallest_of(&self.large, need + room)
            .or_else(|| smallest_of(&self.large, need))
            .or((!self.large.is_empty()).then_some(0));
        match at {
            Some(at) => {
                let m = self.large.remove(at);
                self.hit(m, payload)
            }
            None => {
                self.misses += 1;
                Msg::with_headroom(payload, self.headroom as usize)
            }
        }
    }

    #[inline]
    fn hit(&mut self, mut m: Msg, payload: &[u8]) -> Msg {
        self.hits += 1;
        m.reset(self.headroom as usize);
        m.push_back(payload);
        m
    }

    /// Returns a buffer to the free list; a full list drops one (see
    /// the type's description for which).
    pub fn put(&mut self, msg: Msg) {
        self.returns += 1;
        let full = self.idle() >= self.max_retained as usize;
        self.capped += full as u64;
        if msg.capacity() > SMALL {
            self.put_large(msg, full);
        } else if !full {
            self.small.push(msg);
        }
    }

    #[inline(never)]
    fn put_large(&mut self, msg: Msg, full: bool) {
        let smaller = |m: &Msg| m.capacity() < msg.capacity();
        if full {
            if !self.large.last().is_some_and(smaller) {
                return;
            }
            self.large.pop();
        }
        let at = self.large.iter().rposition(|m| !smaller(m));
        self.large.insert(at.map_or(0, |i| i + 1), msg);
    }

    /// Number of buffers currently on the free list.
    pub fn idle(&self) -> usize {
        self.small.len() + self.large.len()
    }

    /// Pool effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            returns: self.returns,
            capped: self.capped,
        }
    }
}

impl Default for MsgPool {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_is_a_miss_then_hits() {
        let mut p = MsgPool::new(32, 8);
        let m = p.take_with(&[]);
        assert_eq!(
            p.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                returns: 0,
                capped: 0
            }
        );
        p.put(m);
        let m2 = p.take_with(&[]);
        assert_eq!(
            p.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                returns: 1,
                capped: 0
            }
        );
        assert!(m2.is_empty());
        assert_eq!(m2.headroom(), 32);
    }

    #[test]
    fn recycled_buffer_is_clean() {
        let mut p = MsgPool::new(16, 8);
        let mut m = p.take_with(b"dirty payload");
        m.push_front(b"hdr");
        p.put(m);
        let m = p.take_with(&[]);
        assert!(m.is_empty(), "recycled buffer must not leak old bytes");
        assert_eq!(m.headroom(), 16);
    }

    #[test]
    fn retention_cap_drops_excess() {
        let mut p = MsgPool::new(8, 2);
        let msgs: Vec<Msg> = (0..5).map(|_| p.take_with(&[])).collect();
        for m in msgs {
            p.put(m);
        }
        assert_eq!(p.idle(), 2);
        assert_eq!(p.stats().returns, 5);
        assert_eq!(p.stats().capped, 3, "cap drops are accounted");
        let s = p.stats();
        assert_eq!(p.idle() as u64, s.returns - s.hits - s.capped);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut p = MsgPool::new(64, 4);
        // Warm up.
        let warm = p.take_with(&[]);
        p.put(warm);
        let misses_before = p.stats().misses;
        for i in 0..100u32 {
            let mut m = p.take_with(&i.to_be_bytes());
            m.push_front(b"h");
            p.put(m);
        }
        assert_eq!(
            p.stats().misses,
            misses_before,
            "steady state is allocation-free"
        );
    }

    #[test]
    fn take_with_carries_payload() {
        let mut p = MsgPool::with_defaults();
        let m = p.take_with(b"abc");
        assert_eq!(m.as_slice(), b"abc");
        assert_eq!(m.headroom(), DEFAULT_HEADROOM);
        assert_eq!(m.capacity(), DEFAULT_HEADROOM + 3, "a miss is sized once");
        assert_eq!(p.stats().misses, 1);
        p.put(m);
        assert_eq!(p.take_with(b"defg").as_slice(), b"defg");
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn a_large_take_is_served_by_the_smallest_buffer_that_fits() {
        let mut p = MsgPool::new(16, 8);
        let (mtu, big) = (p.take_with(&[1; 4096]), p.take_with(&[1; 16384]));
        let (mtu_cap, big_cap) = (mtu.capacity(), big.capacity());
        p.put(an_ack());
        p.put(big);
        p.put(mtu);
        p.put(an_ack());
        // A small take leaves the large buffers where they are.
        let m = p.take_with(b"hello");
        assert_eq!(m.capacity(), an_ack().capacity());
        p.put(m);
        // A fragment-sized one takes the fragment-sized buffer, not the
        // larger one, whichever came back last.
        let m = p.take_with(&[2u8; 4000]);
        assert_eq!(m.capacity(), mtu_cap);
        assert_eq!(m.as_slice(), &[2u8; 4000][..]);
        // Room chooses among idle buffers and allocates nothing.
        let r = p.take_with_room(&[3; 4000], 12000);
        assert_eq!(r.capacity(), big_cap);
        p.put(r);
        p.put(m);
        let r = p.take_with_room(&[3; 4000], 40000);
        assert_eq!(
            r.capacity(),
            mtu_cap,
            "none with room: the smallest that fits"
        );
        // Nothing fits: the largest idle buffer grows.
        let g = p.take_with(&[4u8; 20000]);
        assert_eq!(g.as_slice(), &[4u8; 20000][..]);
        assert_eq!((p.stats().misses, p.stats().hits), (2, 5));
        // With no small buffer idle a small take borrows the smallest
        // large one; with no large one idle a large take allocates.
        p.put(r);
        assert_eq!(p.take_with(b"a").capacity(), an_ack().capacity());
        assert_eq!(p.take_with(b"b").capacity(), an_ack().capacity());
        assert_eq!(p.take_with(b"c").capacity(), mtu_cap);
        p.put(an_ack());
        assert_eq!(p.take_with(&[5; 3000]).capacity(), 3016);
        assert_eq!(p.stats().misses, 3);
    }

    fn an_ack() -> Msg {
        Msg::with_headroom(b"an acknowledgement", 16)
    }

    #[test]
    fn a_full_pool_trades_a_large_buffer_for_a_larger_one() {
        let mut p = MsgPool::new(8, 3);
        p.put(an_ack());
        p.put(Msg::with_headroom(&[0; 3000], 8));
        p.put(Msg::with_headroom(&[0; 5000], 8));
        p.put(Msg::with_headroom(&[0; 9000], 8)); // the 3000 goes
        p.put(Msg::with_headroom(&[0; 2500], 8)); // dropped itself
        p.put(an_ack()); // dropped itself
        let s = p.stats();
        assert_eq!((p.idle(), s.returns, s.capped), (3, 6, 3));
        assert_eq!(p.idle() as u64, s.returns - s.hits - s.capped);
        assert_eq!(p.take_with(&[1; 6000]).capacity(), 9008);
        assert_eq!(p.take_with(&[]).capacity(), an_ack().capacity());
        assert_eq!(p.take_with(&[]).capacity(), 5008);
        assert_eq!(p.stats().misses, 0);
        // Small buffers are never let go for a large one.
        let mut p = MsgPool::new(8, 1);
        p.put(an_ack());
        p.put(Msg::with_headroom(&[0; 4000], 8));
        assert_eq!(p.take_with(&[]).capacity(), an_ack().capacity());
    }
}
