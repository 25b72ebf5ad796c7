//! Live-heap high-water mark: a counting wrapper around the system
//! allocator.
//!
//! The process's resident high-water mark (`VmHWM`) moved by up to a sixth
//! between identical runs, with the allocator's per-thread arenas; the peak
//! of live heap bytes is what a memory change moves, and it repeats.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes right now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Peak of `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Restart the peak from the heap live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: the caller upholds `alloc_zeroed`'s contract, forwarded
    // unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: `ptr` and `layout` come from this allocator, that is from
    // `System`, so handing them back to `System` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    // SAFETY: as for `dealloc`, the block being resized came from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.cmp(&layout.size()) {
                std::cmp::Ordering::Greater => grow(new_size - layout.size()),
                std::cmp::Ordering::Less => shrink(layout.size() - new_size),
                std::cmp::Ordering::Equal => {}
            }
        }
        p
    }
}
