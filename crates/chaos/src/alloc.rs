//! Allocation tracking for the fuzz engine's resource-budget invariant.
//!
//! [`TrackingAllocator`] wraps the system allocator and keeps *per-thread*
//! counters of live and peak allocated bytes, and of allocation and
//! reallocation calls. Binaries that want the fuzz
//! engine's allocation invariant enforced install it as their
//! `#[global_allocator]`; when it is not installed the counters simply
//! never move and the engine skips the check (detected by
//! [`tracking_installed`]), so the same library code runs everywhere.
//!
//! The counters are thread-local `Cell<u64>`s with const initializers: no
//! allocation, no locks, no lazy initialization and no destructors, so the
//! bookkeeping is safe to run inside the allocator itself at any point in
//! a thread's life. Per-thread is exactly the granularity the engine needs
//! — each fuzz case runs start to finish on one worker thread, and other
//! threads' traffic must not pollute its measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `#[global_allocator]` wrapper around [`System`] that meters each
/// thread's live and peak heap usage.
pub struct TrackingAllocator;

thread_local! {
    /// Live heap bytes allocated by this thread (frees of another
    /// thread's blocks saturate at zero rather than underflow).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of [`CURRENT`] since the last [`reset_peak`].
    static PEAK: Cell<u64> = const { Cell::new(0) };
    /// [`CURRENT`] at the last [`reset_peak`]: the baseline that
    /// [`peak`] measures growth against.
    static BASELINE: Cell<u64> = const { Cell::new(0) };
    /// Successful `alloc`/`alloc_zeroed` calls made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Successful `realloc` calls made by this thread.
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|n| n.set(n.get() + 1));
}

fn grow(bytes: u64) {
    CURRENT.with(|current| {
        let now = current.get().saturating_add(bytes);
        current.set(now);
        PEAK.with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

fn shrink(bytes: u64) {
    CURRENT.with(|current| current.set(current.get().saturating_sub(bytes)));
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as u64);
            bump(&ALLOCATIONS);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as u64);
            bump(&ALLOCATIONS);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size() as u64);
            grow(new_size as u64);
            bump(&REALLOCATIONS);
        }
        p
    }
}

/// Starts a fresh measurement window on the calling thread: [`peak`]
/// reports heap growth from this point on.
pub fn reset_peak() {
    CURRENT.with(|current| {
        let live = current.get();
        BASELINE.with(|baseline| baseline.set(live));
        PEAK.with(|peak| peak.set(live));
    });
}

/// Peak heap growth (bytes) on the calling thread since the last
/// [`reset_peak`]. Zero when [`TrackingAllocator`] is not installed.
pub fn peak() -> u64 {
    let high = PEAK.with(Cell::get);
    let base = BASELINE.with(Cell::get);
    high.saturating_sub(base)
}

/// Allocations (`alloc` and `alloc_zeroed` calls) the calling thread has
/// made since it started; the difference of two readings counts the calls
/// between them. Zero when [`TrackingAllocator`] is not installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Reallocations the calling thread has made since it started, read like
/// [`allocations`].
pub fn reallocations() -> u64 {
    REALLOCATIONS.with(Cell::get)
}

/// Whether the tracking allocator is actually installed in this binary,
/// probed by watching a real allocation move the counters. Cheap enough
/// to call per fuzz case; callers must [`reset_peak`] afterwards before
/// measuring.
pub fn tracking_installed() -> bool {
    reset_peak();
    let probe: Vec<u8> = Vec::with_capacity(1024);
    std::hint::black_box(&probe);
    let seen = peak() >= 1024;
    drop(probe);
    seen
}

#[cfg(test)]
mod tests {
    // The tracking tests live in the crate root's test module, where the
    // test binary installs `TrackingAllocator` as its global allocator —
    // without that the counters legitimately never move.
    use super::*;

    #[test]
    fn shrink_saturates_instead_of_underflowing() {
        // A thread freeing more than it allocated (blocks handed over
        // from another thread) must not wrap the live counter.
        shrink(u64::MAX);
        reset_peak();
        assert_eq!(peak(), 0);
    }
}
