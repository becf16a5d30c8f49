//! A global allocator that counts only when asked to.
//!
//! The end-to-end runs must cost what the real binaries cost, so they
//! allocate straight through [`System`] (one relaxed load and a
//! not-taken branch per call). [`Mode::Counting`] allocates through
//! `panoptes_bench::mem`'s [`CountingAlloc`] instead: the study server
//! needs it (its artifact cache charges entries from the live-byte
//! counter, as in the `serve` binary), and the traced runs read
//! allocations per layer from it.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use panoptes_bench::mem::CountingAlloc;

/// What the allocator does besides allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing.
    Plain,
    /// `panoptes_bench::mem` counters.
    Counting,
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Switches the allocator's mode. Blocks are freed through the system
/// allocator in both modes; only the counters miss what the other mode
/// did, so call it before the work it should count.
pub fn set_mode(mode: Mode) {
    COUNTING.store(mode == Mode::Counting, Ordering::Relaxed);
}

/// The process allocator; see the module docs.
pub struct SwitchAlloc;

// SAFETY: both modes delegate to the system allocator (`CountingAlloc`
// wraps `System` and only bumps atomics), so a block allocated in one
// mode is always valid to free in the other. Counting allocates nothing.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.dealloc(ptr, layout)
        } else {
            System.dealloc(ptr, layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}
