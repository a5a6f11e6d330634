//! The counting allocator the allocation tests share: the system allocator,
//! noting per thread the largest single request, the bytes currently live
//! and their high-water mark. A test binary that includes this module
//! makes it its global allocator; each uses what it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single request this thread has made of the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (frees of memory
    /// another thread allocated count too, so it can dip below zero).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since `peak_bytes_in` last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised,
// destructor-free thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A block of `old` bytes became `new` bytes (either may be zero).
fn note(new: usize, old: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(new)));
    let live = LIVE.with(|live| {
        live.set(live.get() + new as isize - old as isize);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

/// Runs `f` and returns its result with the largest allocation it requested
/// on this thread.
pub fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The bytes this thread holds from the allocator right now.
pub fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its result with the most bytes this thread held at
/// once while it ran, over what it held when `f` began.
pub fn peak_bytes_in<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = live_bytes();
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}
