//! A counting global allocator for the zero-allocation gates, counting
//! **per thread**.
//!
//! libtest runs a binary's tests on parallel threads, so a process-wide
//! counter makes every gate see its neighbours' allocations. Here each
//! thread bumps its own `const`-initialised `thread_local!` cell (no
//! lazy initialisation and no destructor, so it is usable from inside
//! the allocator at any point of a thread's life), and
//! [`allocations`] reads only the calling thread's count.
//!
//! A gate that hands work to another thread has that thread call
//! [`count_this_thread_into`] with a counter the gate owns; from then on
//! that thread's allocations land there, and the gate adds it to its
//! own thread's count.
//!
//! Each integration-test binary that includes this module installs the
//! allocator itself: `#[global_allocator] static A: CountingAlloc = CountingAlloc;`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

thread_local! {
    static LOCAL: Cell<usize> = const { Cell::new(0) };
    static SINK: Cell<Option<&'static AtomicUsize>> = const { Cell::new(None) };
}

fn bump() {
    match SINK.get() {
        // Relaxed: a statistic. The gate reads it only after the
        // handoff ring has returned the work, which orders the two.
        Some(sink) => {
            sink.fetch_add(1, Ordering::Relaxed);
        }
        None => LOCAL.set(LOCAL.get() + 1),
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only const-initialised thread-locals and an atomic, neither
// of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) the calling thread has made.
pub fn allocations() -> usize {
    LOCAL.get()
}

/// Registers the calling thread as a worker: its allocations are
/// counted into `sink` from now on.
// Only the gates that use a worker thread call this.
#[allow(dead_code)]
pub fn count_this_thread_into(sink: &'static AtomicUsize) {
    SINK.set(Some(sink));
}
