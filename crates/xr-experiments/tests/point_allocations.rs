//! Heap allocations on the campaign's point path, pinned.
//!
//! A counting global allocator tallies the allocations the calling thread
//! makes while a `sweep-wide`-shaped grid (every axis of the benchmark's
//! fixed-per-point-cost workload, fewer values per axis) runs through
//! `run_campaign_streaming_with` on one worker, so every point is
//! evaluated on this thread. The first run warms the per-worker storage
//! (engine columns, set-up vectors, the Student-t memo); only the second
//! run is counted. The count is per thread, so the test harness's other
//! threads do not enter it. A second test counts `point_totals` alone on a
//! warm walking point and on a warm contended roaming point, where the
//! engine makes no allocation: a worker keeps its walk map for a point
//! whose map inputs equal the last one's, refills its contention plans and
//! step-angle column in place.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xr_experiments::campaign::run_campaign_streaming_with;
use xr_experiments::ExperimentContext;
use xr_sweep::{parse_grid_spec, CampaignRunner};

/// The most allocations one warm point may make, on average over the grid:
/// the measured 2 026 over its 144 points, about 14.07.
const MAX_ALLOCATIONS_PER_POINT: f64 = 14.07;

/// The benchmark's `sweep-wide` axes with two or three values each:
/// 2 × 2 × 2 × 3 × 2 × 3 = 144 points of 3 replications.
const SWEEP_WIDE_SHAPED: &str = "\
frame_sizes  = 300, 700
cpu_clocks   = 1.0, 3.0
executions   = local, remote, split:0.5
devices      = XR1, XR7
wireless     = baseline, cell-edge:60:40
mobility     = static, walk:1.4:20, vehicle:25:10
replications = 3
";

struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = COUNT.try_with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counting only touches const-initialised
// thread-local cells, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.with(|count| count.set(0));
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    COUNT.with(Cell::get)
}

#[test]
fn a_warm_point_allocates_at_most_the_pinned_count() {
    let ctx = ExperimentContext::quick(2024).unwrap();
    let grid = parse_grid_spec(SWEEP_WIDE_SHAPED).unwrap();
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    let points = grid.len();
    let run = || {
        let mut rows = 0usize;
        run_campaign_streaming_with(&ctx, &grid, &runner, |_, row| {
            std::hint::black_box(&row);
            rows += 1;
        })
        .unwrap();
        assert_eq!(rows, points);
    };
    run();
    let allocations = allocations_in(run);
    let per_point = allocations as f64 / points as f64;
    println!("{allocations} allocations over {points} warm points: {per_point:.2} per point");
    assert!(
        per_point <= MAX_ALLOCATIONS_PER_POINT,
        "{per_point:.2} allocations per warm point, above the pinned {MAX_ALLOCATIONS_PER_POINT}"
    );
}

/// Allocations of `point_totals` on the first point of `spec` once a run
/// of the same point has warmed the worker's storage.
fn warm_point_totals_allocations(spec: &str, reps: usize) -> u64 {
    let ctx = ExperimentContext::quick(2024).unwrap();
    let points = parse_grid_spec(spec).unwrap().points().unwrap();
    let scenario = ctx.scenario_for(&points[0]).unwrap();
    assert!(scenario.execution.uses_edge() && scenario.mobility.speed.as_f64() > 0.0);
    let frames = ctx.frames_for(&points[0]);
    let mut totals = Vec::new();
    let mut run = || {
        ctx.testbed()
            .point_totals(&scenario, 7, reps, frames, &mut totals)
            .unwrap();
    };
    run();
    allocations_in(run)
}

#[test]
fn point_totals_alone_makes_no_allocation_on_a_warm_walking_point() {
    let walking = "executions = remote\nmobility = walk:1.4:20\nreplications = 3\n";
    assert_eq!(warm_point_totals_allocations(walking, 3), 0);
    // A `roam-durable` point: a contended hex map, where four walkers share
    // each batch's step-angle column.
    let roaming = "\
executions         = remote
frame_rates        = 5
users_per_edge     = 4
mobility           = vehicle:25:10
frames_per_session = 200
topology           = hex
site_density       = 1600
replications       = 4
";
    assert_eq!(warm_point_totals_allocations(roaming, 4), 0);
}
