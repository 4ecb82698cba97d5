//! A bounded, wait-free single-producer/single-consumer channel.
//!
//! This is the only cross-thread transport in the workspace: telemetry
//! domains ship [`crate::domain::DomainEvent`]s over it, and the
//! post-drain worker ships whole `Connection`s (as boxed jobs) over a
//! second ring. Both uses share the same requirements:
//!
//! - **wait-free on both ends**: [`Producer::push`] and
//!   [`Consumer::pop`] complete in a bounded number of steps — no
//!   locks, no CAS loops, no blocking. A full ring *refuses* the push
//!   (returning the value) and counts the refusal; it never spins and
//!   never drops silently;
//! - **fixed capacity**: the slot array is allocated once at
//!   construction and never grows, so a steady-state producer performs
//!   zero heap allocations per push;
//! - **cached positions**: each side keeps a local copy of the other
//!   side's index and refreshes it only when the ring looks full/empty,
//!   so the common case touches one shared atomic, not two.
//!
//! Memory ordering is the classic Lamport queue protocol: the producer
//! publishes a slot with a `Release` store of `tail`; the consumer
//! acquires it with an `Acquire` load, and vice versa for `head`. The
//! slot array itself is `UnsafeCell<MaybeUninit<T>>` — this module is
//! the reason pa-obs does not `forbid(unsafe_code)` (every other crate
//! in the workspace does). The exhaustive-interleaving model in
//! `tests/concurrency_model.rs` checks the index protocol; the unit
//! tests here exercise the real implementation across real threads.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared counters of one channel, readable from either end (and from
/// a telemetry collector holding a clone of the ends' stats handle).
#[derive(Debug, Default)]
struct Counts {
    pushed: AtomicU64,
    popped: AtomicU64,
    refused: AtomicU64,
}

/// A point-in-time copy of a channel's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Values successfully enqueued.
    pub pushed: u64,
    /// Values successfully dequeued.
    pub popped: u64,
    /// Pushes refused because the ring was full (the value was handed
    /// back to the producer, not lost — but the *attempt* is counted
    /// so backpressure is visible in a snapshot).
    pub refused: u64,
}

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    /// Next slot to read (consumer-owned; producer reads it).
    head: AtomicUsize,
    /// Next slot to write (producer-owned; consumer reads it).
    tail: AtomicUsize,
    counts: Counts,
}

// SAFETY: the head/tail protocol hands each slot to exactly one side
// at a time — the producer writes a slot only while `tail - head <
// capacity` proves the consumer is not reading it, and the consumer
// reads a slot only after the producer's Release store of `tail`
// published it. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both handles are gone (`&mut self` proves it); drain the
        // initialized slots so queued values are not leaked.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            let slot = self.buf[i % self.capacity].get();
            // SAFETY: slots in [head, tail) were written and not read.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// The sending end. `Send` but not `Sync`/`Clone`: exactly one thread
/// owns it at a time.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of the consumer's head, refreshed on apparent full.
    cached_head: usize,
}

/// The receiving end. `Send` but not `Sync`/`Clone`.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of the producer's tail, refreshed on apparent empty.
    cached_tail: usize,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Creates a bounded SPSC channel with room for `capacity` values
/// (clamped to ≥ 1). The slot array is allocated here, once.
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        capacity,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        counts: Counts::default(),
    });
    (
        Producer {
            inner: inner.clone(),
            cached_head: 0,
        },
        Consumer {
            inner,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Enqueues `v`, or hands it back if the ring is full. Wait-free:
    /// at most two shared loads, one slot write, one shared store.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        if tail - self.cached_head >= inner.capacity {
            self.cached_head = inner.head.load(Ordering::Acquire);
            if tail - self.cached_head >= inner.capacity {
                inner.counts.refused.fetch_add(1, Ordering::Relaxed);
                return Err(v);
            }
        }
        let slot = inner.buf[tail % inner.capacity].get();
        // SAFETY: `tail - head < capacity` proves the consumer has
        // finished with this slot; only this producer writes slots.
        unsafe { (*slot).write(v) };
        inner.tail.store(tail + 1, Ordering::Release);
        inner.counts.pushed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Values currently in flight (pushed, not yet popped). Advisory.
    pub(crate) fn len(&self) -> usize {
        let inner = &*self.inner;
        inner.tail.load(Ordering::Relaxed) - inner.head.load(Ordering::Relaxed)
    }

    /// The ring's capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl<T> Consumer<T> {
    /// Dequeues the oldest value, or `None` if the ring is empty.
    /// Wait-free: at most two shared loads, one slot read, one store.
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = inner.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        let slot = inner.buf[head % inner.capacity].get();
        // SAFETY: `head < tail` (Acquire) proves the producer's write
        // of this slot happened-before; only this consumer reads it.
        let v = unsafe { (*slot).assume_init_read() };
        inner.head.store(head + 1, Ordering::Release);
        inner.counts.popped.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Values currently in flight. Advisory.
    pub(crate) fn len(&self) -> usize {
        let inner = &*self.inner;
        inner.tail.load(Ordering::Relaxed) - inner.head.load(Ordering::Relaxed)
    }

    /// True if no value is in flight. Advisory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// True once the producer end has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }

    /// Traffic counters (shared with the producer end).
    pub fn stats(&self) -> ChannelStats {
        stats_of(&self.inner)
    }
}

fn stats_of<T>(inner: &Inner<T>) -> ChannelStats {
    ChannelStats {
        pushed: inner.counts.pushed.load(Ordering::Relaxed),
        popped: inner.counts.popped.load(Ordering::Relaxed),
        refused: inner.counts.refused.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = channel::<u64>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        let s = rx.stats();
        assert_eq!((s.pushed, s.popped, s.refused), (8, 8, 0));
    }

    #[test]
    fn full_ring_refuses_and_counts() {
        let (mut tx, mut rx) = channel::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(3), "value handed back, not lost");
        assert_eq!(rx.stats().refused, 1);
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let (mut tx, mut rx) = channel::<u8>(0);
        tx.push(9).unwrap();
        assert_eq!(tx.push(10), Err(10));
        assert_eq!(rx.pop(), Some(9));
    }

    #[test]
    fn queued_values_drop_with_the_channel() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = channel::<Token>(4);
        tx.push(Token).unwrap();
        tx.push(Token).unwrap();
        tx.push(Token).unwrap();
        drop(rx.pop()); // one dropped by the consumer
        drop(tx);
        drop(rx); // two still queued, dropped by the ring
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = channel::<u64>(64);
        let producer = std::thread::spawn(move || {
            let mut refusals = 0u64;
            for i in 0..N {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    refusals += 1;
                    std::thread::yield_now();
                }
            }
            refusals
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "FIFO order violated");
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        let refusals = producer.join().unwrap();
        let s = rx.stats();
        assert_eq!(s.pushed, N);
        assert_eq!(s.popped, N);
        assert_eq!(s.refused, refusals);
    }

    #[test]
    fn boxed_payloads_cross_threads() {
        let (mut tx, mut rx) = channel::<Box<Vec<u8>>>(4);
        let t = std::thread::spawn(move || {
            for i in 0..32u8 {
                let mut v = Box::new(vec![i; 16]);
                while let Err(back) = tx.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut got = 0u8;
        while got < 32 {
            if let Some(b) = rx.pop() {
                assert_eq!(*b, vec![got; 16]);
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
    }
}
