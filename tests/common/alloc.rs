//! A counting global allocator: how much heap an operation holds at its
//! peak. A test binary that includes this file declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
//! ```
//!
//! and keeps to a single `#[test]`, so no neighbour's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`], counting live bytes and their peak.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `op` and returns the most bytes the heap held above its level
/// at the start, with `op`'s result.
pub fn peak_growth<T>(op: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = op();
    (PEAK.load(Ordering::Relaxed) - before, out)
}
