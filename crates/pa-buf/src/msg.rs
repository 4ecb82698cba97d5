//! The [`Msg`] buffer: a byte buffer with headroom for O(1) header pushes.

use std::fmt;

/// Default headroom reserved in front of a payload, in bytes.
///
/// Sized so that the preamble (8 B) plus the four compiled class headers
/// plus the packing header of a realistic stack fit without reallocating.
/// 128 bytes is generous: the whole point of the PA is that compiled
/// headers stay well under 40 bytes (§1).
pub const DEFAULT_HEADROOM: usize = 128;

/// A message buffer with cheap header push/pop at the front.
///
/// Live bytes occupy `data[start..end]`. `push_front` moves `start`
/// backwards while headroom remains; `pop_front` moves it forwards.
/// Both are O(1) in the common case. If headroom runs out the buffer is
/// re-centered with a copy (correct, merely slower).
pub struct Msg {
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl Msg {
    /// Creates an empty message with [`DEFAULT_HEADROOM`].
    pub fn new() -> Self {
        Self::with_headroom(&[], DEFAULT_HEADROOM)
    }

    /// Creates a message holding `payload`, with `headroom` bytes
    /// reserved in front for headers.
    pub fn with_headroom(payload: &[u8], headroom: usize) -> Self {
        let mut m = Self::with_room(headroom, payload.len());
        m.push_back(payload);
        m
    }

    /// Creates an empty message with `headroom` bytes reserved in front
    /// and room for `room` bytes behind, in one allocation: appending up
    /// to `room` bytes never regrows it.
    pub fn with_room(headroom: usize, room: usize) -> Self {
        // Sized once, each byte written once: zeroes for the headroom,
        // whatever is appended after it.
        let mut data = Vec::with_capacity(headroom + room);
        data.resize(headroom, 0);
        Msg {
            data,
            start: headroom,
            end: headroom,
        }
    }

    /// Creates a message holding `payload` with the default headroom.
    pub fn from_payload(payload: &[u8]) -> Self {
        Self::with_headroom(payload, DEFAULT_HEADROOM)
    }

    /// Creates a message whose live bytes are exactly `raw` (no
    /// headroom), as when a frame arrives from the network.
    pub fn from_wire(raw: Vec<u8>) -> Self {
        let end = raw.len();
        Msg {
            data: raw,
            start: 0,
            end,
        }
    }

    /// Number of live bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if there are no live bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Remaining headroom in front of the live bytes.
    pub(crate) fn headroom(&self) -> usize {
        self.start
    }

    /// The live bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// The live bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data[self.start..self.end]
    }

    /// Copies the live bytes into a standalone vector (the wire image).
    pub fn to_wire(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Prepends `bytes` in front of the live region (single write — the
    /// region is not zeroed first, it is about to be overwritten).
    pub fn push_front(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        if self.start < n {
            self.regrow_front(n);
        }
        self.start -= n;
        self.data[self.start..self.start + n].copy_from_slice(bytes);
    }

    /// Prepends `n` zero bytes and returns the newly created front region
    /// for in-place filling (used by the header writers).
    pub fn push_front_zeroed(&mut self, n: usize) -> &mut [u8] {
        if self.start < n {
            self.regrow_front(n);
        }
        self.start -= n;
        for b in &mut self.data[self.start..self.start + n] {
            *b = 0;
        }
        &mut self.data[self.start..self.start + n]
    }

    /// Removes and returns the first `n` live bytes.
    ///
    /// Returns `None` (leaving the message untouched) if fewer than `n`
    /// live bytes remain — a truncated frame, which the delivery path
    /// must treat as malformed rather than panic on.
    pub fn pop_front(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.len() < n {
            return None;
        }
        let out = self.data[self.start..self.start + n].to_vec();
        self.start += n;
        Some(out)
    }

    /// Drops the first `n` live bytes without copying them out.
    pub fn skip_front(&mut self, n: usize) -> bool {
        if self.len() < n {
            return false;
        }
        self.start += n;
        true
    }

    /// Appends `bytes` after the live region.
    pub fn push_back(&mut self, bytes: &[u8]) {
        if self.end + bytes.len() <= self.data.len() {
            self.data[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        } else {
            self.data.truncate(self.end);
            self.data.extend_from_slice(bytes);
        }
        self.end += bytes.len();
    }

    /// Removes and returns the last `n` live bytes.
    pub fn pop_back(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.len() < n {
            return None;
        }
        let out = self.data[self.end - n..self.end].to_vec();
        self.end -= n;
        Some(out)
    }

    /// Reads one live byte at `offset` (panics if out of range).
    pub fn byte_at(&self, offset: usize) -> u8 {
        self.data[self.start + offset]
    }

    /// Writes one live byte at `offset` (panics if out of range).
    pub fn set_byte_at(&mut self, offset: usize, value: u8) {
        self.data[self.start + offset] = value;
    }

    /// A sub-slice of the live bytes, or `None` if it overruns. The
    /// checked addition keeps the bound total even for wire-derived
    /// `offset`/`len` values large enough to wrap.
    pub fn get(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        if end > self.len() {
            return None;
        }
        Some(&self.data[self.start + offset..self.start + end])
    }

    /// Resets to an empty message, retaining the allocation. Used by
    /// [`crate::MsgPool`] when recycling buffers.
    pub(crate) fn reset(&mut self, headroom: usize) {
        if self.data.len() < headroom {
            self.data.resize(headroom, 0);
        }
        self.start = headroom;
        self.end = headroom;
    }

    /// Total capacity of the underlying allocation.
    pub(crate) fn capacity(&self) -> usize {
        self.data.len()
    }

    fn regrow_front(&mut self, need: usize) {
        // Double the shortfall so repeated pushes amortize.
        let extra = (need - self.start).max(self.start.max(16));
        let mut data = vec![0u8; self.data.len() + extra];
        data[self.start + extra..self.end + extra]
            .copy_from_slice(&self.data[self.start..self.end]);
        self.start += extra;
        self.end += extra;
        self.data = data;
    }
}

/// A clone carries the headroom and the live bytes and nothing else: a
/// recycled buffer that once held 16 KiB does not cost 16 KiB to clone
/// around an 8-byte frame.
impl Clone for Msg {
    fn clone(&self) -> Self {
        Msg {
            data: self.data[..self.end].to_vec(),
            start: self.start,
            end: self.end,
        }
    }
}

impl Default for Msg {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Msg[len={} headroom={}", self.len(), self.headroom())?;
        let show = self.len().min(24);
        write!(f, " bytes=")?;
        for b in &self.as_slice()[..show] {
            write!(f, "{b:02x}")?;
        }
        if self.len() > show {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Msg {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let m = Msg::from_payload(b"hello");
        assert_eq!(m.as_slice(), b"hello");
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_message() {
        let m = Msg::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.to_wire(), Vec::<u8>::new());
    }

    #[test]
    fn push_pop_front_lifo() {
        let mut m = Msg::from_payload(b"data");
        let cap = m.capacity();
        m.push_front(b"hdr2");
        m.push_front(b"h1");
        assert_eq!(m.as_slice(), b"h1hdr2data");
        assert_eq!(m.pop_front(2).unwrap(), b"h1");
        assert_eq!(m.pop_front(4).unwrap(), b"hdr2");
        assert_eq!(m.as_slice(), b"data");
        assert_eq!(m.capacity(), cap, "stayed within headroom");
    }

    #[test]
    fn pop_front_too_long_fails_cleanly() {
        let mut m = Msg::from_payload(b"abc");
        assert!(m.pop_front(4).is_none());
        assert_eq!(m.as_slice(), b"abc", "failed pop leaves message intact");
    }

    #[test]
    fn push_front_regrows_when_headroom_exhausted() {
        let mut m = Msg::with_headroom(b"x", 2);
        m.push_front(b"abcdef");
        assert_eq!(m.as_slice(), b"abcdefx");
        assert!(m.capacity() > 3, "the buffer grew");
        // Still correct after regrow.
        m.push_front(b"zz");
        assert_eq!(m.as_slice(), b"zzabcdefx");
    }

    #[test]
    fn push_front_zeroed_is_zero_and_writable() {
        let mut m = Msg::with_headroom(b"p", 16);
        {
            let zone = m.push_front_zeroed(4);
            assert_eq!(zone, &[0, 0, 0, 0]);
            zone[0] = 0xAA;
        }
        assert_eq!(m.as_slice(), &[0xAA, 0, 0, 0, b'p']);
    }

    #[test]
    fn skip_front_equivalent_to_pop() {
        let mut a = Msg::from_payload(b"abcdef");
        let mut b = a.clone();
        a.pop_front(3).unwrap();
        assert!(b.skip_front(3));
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(!b.skip_front(100));
    }

    #[test]
    fn push_pop_back() {
        let mut m = Msg::from_payload(b"head");
        m.push_back(b"tail");
        assert_eq!(m.as_slice(), b"headtail");
        assert_eq!(m.pop_back(4).unwrap(), b"tail");
        assert_eq!(m.as_slice(), b"head");
        assert!(m.pop_back(5).is_none());
    }

    #[test]
    fn push_back_past_capacity_grows() {
        let mut m = Msg::with_headroom(b"", 0);
        m.push_back(&[7u8; 100]);
        assert_eq!(m.len(), 100);
        assert!(m.as_slice().iter().all(|&b| b == 7));
    }

    #[test]
    fn byte_accessors() {
        let mut m = Msg::from_payload(b"abc");
        assert_eq!(m.byte_at(1), b'b');
        m.set_byte_at(1, b'B');
        assert_eq!(m.as_slice(), b"aBc");
    }

    #[test]
    fn get_ranges() {
        let m = Msg::from_payload(b"abcdef");
        assert_eq!(m.get(2, 3).unwrap(), b"cde");
        assert!(m.get(4, 3).is_none());
    }

    #[test]
    fn from_wire_has_no_headroom() {
        let m = Msg::from_wire(vec![1, 2, 3]);
        assert_eq!(m.headroom(), 0);
        assert_eq!(m.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn reset_recycles_allocation() {
        let mut m = Msg::from_payload(&[9u8; 64]);
        let cap = m.capacity();
        m.reset(32);
        assert!(m.is_empty());
        assert_eq!(m.headroom(), 32);
        assert_eq!(m.capacity(), cap, "allocation retained");
    }

    #[test]
    fn clone_leaves_stale_capacity_behind() {
        let mut m = Msg::with_headroom(&[7u8; 16 * 1024], 32);
        m.reset(32);
        m.push_back(b"8 bytes!");
        assert!(m.capacity() > 16 * 1024, "the source keeps what it grew to");
        let mut c = m.clone();
        assert_eq!(c, m);
        let cap = c.capacity();
        assert!(cap <= c.headroom() + c.len());
        c.push_front(&[0xAB; 32]);
        assert_eq!(c.capacity(), cap, "the clone kept its headroom");
        assert_eq!(&c.as_slice()[32..], b"8 bytes!");
    }

    #[test]
    fn equality_ignores_headroom() {
        let a = Msg::with_headroom(b"same", 4);
        let b = Msg::with_headroom(b"same", 99);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Msg::from_payload(&[0xFFu8; 1000]);
        let s = format!("{m:?}");
        assert!(s.len() < 120, "debug output stays short: {s}");
    }
}
