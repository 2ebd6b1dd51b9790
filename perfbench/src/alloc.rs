//! A counting global allocator for the traced run.
//!
//! Counting is off until [`set_counting`] turns it on, so the untraced
//! run pays one relaxed load per allocation. While on, every allocation
//! is added to process-wide totals (what a whole round costs, worker
//! threads included) and to the calling thread's own totals (what one
//! of several concurrent load threads costs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_COUNT: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn record(size: usize) {
    // Statistics only: nothing is published through these counters.
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LOCAL_COUNT.with(|c| c.set(c.get() + 1));
        LOCAL_BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters neither allocate nor touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (count, requested bytes) counted so far on all threads.
pub fn global() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Allocations (count, requested bytes) counted so far on this thread.
pub fn local() -> (u64, u64) {
    (LOCAL_COUNT.with(Cell::get), LOCAL_BYTES.with(Cell::get))
}
