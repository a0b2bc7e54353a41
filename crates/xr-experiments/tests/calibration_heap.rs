//! Peak live heap of the paper-scale context, pinned.
//!
//! `ExperimentContext::paper_scale` calibrates its four sub-models from
//! the 119 465-record training campaign as it is drawn, so the records are
//! never held: a dataset of them would take about 4.4 MB of columns. A
//! counting global allocator tracks the bytes the calling thread holds
//! while the context is built, and the highest value they reach. The count
//! is per thread, so the test harness's other threads do not enter it.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xr_experiments::ExperimentContext;

/// The most heap the paper-scale context may hold at once while it is
/// built. Measured at 5 812 bytes on x86-64 Linux; a materialized
/// training dataset would be about 4.4 MB.
const MAX_PEAK_LIVE_BYTES: usize = 16 * 1024;

struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated and not yet freed on this thread while counting.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` has been.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to this thread's live count while counting.
fn note(delta: isize) {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + delta);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

fn bytes(size: usize) -> isize {
    isize::try_from(size).expect("an allocation fits in isize")
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counting only touches const-initialised
// thread-local cells, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(bytes(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-bytes(layout.size()));
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn the_paper_scale_context_never_holds_its_training_records() {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|counting| counting.set(true));
    let ctx = ExperimentContext::paper_scale(2024).unwrap();
    COUNTING.with(|counting| counting.set(false));
    std::hint::black_box(&ctx);
    let peak = usize::try_from(PEAK.with(Cell::get)).expect("the peak is not negative");
    println!("peak live heap while building the paper-scale context: {peak} bytes");
    assert!(
        peak <= MAX_PEAK_LIVE_BYTES,
        "{peak} bytes live at the peak, above the pinned {MAX_PEAK_LIVE_BYTES}"
    );
}
