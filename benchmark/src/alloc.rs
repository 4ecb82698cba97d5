//! Counting global allocator.
//!
//! Counts per thread, not per process: the benchmark loop runs on one
//! thread and must not see allocations made by any other (the std
//! runtime, a child-process reaper). The counters are `const`
//! thread-locals with no destructor, so bumping them never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

#[inline]
fn bump(bytes: usize) {
    // `try_with`: the allocator can be entered while a thread is being
    // torn down; losing those counts is fine, panicking is not.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the only addition is bumping two thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocations, bytes requested) made by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
