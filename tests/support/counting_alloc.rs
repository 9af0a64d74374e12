//! The counting allocator of the budget tests (`launch_budget`,
//! `data_plane_budget`, `uptime_budget`), each of which declares it with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;`.
//!
//! It wraps the system allocator and counts every block a thread is handed
//! (a `realloc` is one more block of the new size) and the bytes it is
//! handed, and over the whole process the bytes not yet given back. This
//! is the workspace's only unsafe code: integration tests are their own
//! crates, so the shim lives here and every crate root stays
//! `#![forbid(unsafe_code)]`. A test binary that declares it must hold a
//! single `#[test]`: a second test thread would allocate into the same
//! live-bytes counter.

#![allow(dead_code, reason = "each budget test reads the counters it pins")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator allocates nothing and works until the thread
    // ends.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(taken: usize, given_back: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.with(|n| n.set(n.get() + taken as u64));
    LIVE_BYTES.fetch_add(taken as i64 - given_back as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: as for `alloc`; `ptr` and `layout` describe a live block of
        // this allocator because `System` handed it out above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks allocated by this thread since it started. Per thread, so that
/// the test harness's main thread, which may allocate while it waits for
/// the test's result, never counts.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes allocated by this thread since it started.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// `f`'s value, and the `(allocations, bytes)` made while it ran.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations_before, bytes_before) = (allocations(), allocated_bytes());
    let value = f();
    (
        value,
        allocations() - allocations_before,
        allocated_bytes() - bytes_before,
    )
}
