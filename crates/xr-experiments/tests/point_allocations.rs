//! Heap allocations on the campaign's point path, pinned.
//!
//! A counting global allocator tallies the allocations the calling thread
//! makes while a `sweep-wide`-shaped grid (every axis of the benchmark's
//! fixed-per-point-cost workload, fewer values per axis) runs on one
//! worker, so every point is evaluated on this thread: once through
//! `run_campaign_streaming_with`, and once through
//! `run_campaign_shard_with` into a file, the path the `campaign` binary
//! runs, which also renders each row, appends it to the CSV and records it
//! in the checkpoint. The first run of each warms the per-worker storage
//! (engine columns, set-up vectors, the Student-t memo); only the second
//! run is counted. The count is per thread, so the test harness's other
//! threads do not enter it. Each path runs the grid and a part of it, so
//! what a point costs is told apart from what a run costs. A third test
//! counts `point_totals` alone on a warm walking point and on a warm
//! contended roaming point, where the engine makes no allocation: a worker
//! keeps its walk map for a point whose map inputs equal the last one's,
//! refills its contention plans and step-angle column in place.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use xr_experiments::campaign::run_campaign_streaming_with;
use xr_experiments::shard_campaign::{checkpoint_path, manifest_path};
use xr_experiments::{run_campaign_shard_with, ExperimentContext};
use xr_sweep::{parse_grid_spec, CampaignRunner, ShardSpec, SweepGrid};

/// The allocations one warm point makes on either path: one, the
/// scenario's edge-server list (`Scenario::edge_servers`), a `Vec` that
/// the grid's wireless axis edits point by point. Every other part of a
/// point (its labels, the scenario's catalog parts and sensors, the engine
/// storage, the row buffer, the CSV and checkpoint records) is shared or
/// reused.
const ALLOCATIONS_PER_POINT: u64 = 1;

/// The allocations a warm streamed run of [`SWEEP_WIDE_SHAPED`] (or of
/// its part) makes besides its points': the index list of the points it
/// runs and the runner's slot list (2), and the site list of a worker's
/// walk map (`EdgeTopology::single`), rebuilt each time a walking point
/// follows one whose map inputs differ — 8 times in either grid, as their
/// frame sizes are the fastest axis.
const STREAMING_ALLOCATIONS_PER_RUN: u64 = 10;

/// The allocations a warm run through the shard writer makes besides its
/// points': the streamed run's 10, the manifest text (1), the checkpoint
/// and manifest paths (2 each), the checkpoint header (2) and its write
/// buffer (1), the CSV's write buffer (1) and header line (2), and the row
/// buffer, grown over the first row (6).
const SHARD_ALLOCATIONS_PER_RUN: u64 = 27;

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

/// A part of [`SWEEP_WIDE_SHAPED`]: one frame size, 72 points.
const SWEEP_WIDE_PART: &str = "\
frame_sizes  = 300
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

/// The allocations of a warm `run` of `spec` on one worker, and its point
/// count.
fn warm_run_allocations(
    spec: &str,
    run: impl Fn(&ExperimentContext, &SweepGrid, &CampaignRunner),
) -> (u64, u64) {
    let ctx = ExperimentContext::quick(2024).unwrap();
    let grid = parse_grid_spec(spec).unwrap();
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    run(&ctx, &grid, &runner);
    let allocations = allocations_in(|| run(&ctx, &grid, &runner));
    (grid.len() as u64, allocations)
}

/// Checks the allocations of `run` against the per-point and `per_run`
/// pins: the grid and its part differ only in their points.
fn check_point_and_run_allocations(
    path: &str,
    per_run: u64,
    run: impl Fn(&ExperimentContext, &SweepGrid, &CampaignRunner),
) {
    let (points, whole) = warm_run_allocations(SWEEP_WIDE_SHAPED, &run);
    let (part_points, part) = warm_run_allocations(SWEEP_WIDE_PART, &run);
    println!("{path}: {whole} allocations over {points} warm points, {part} over {part_points}");
    assert_eq!(
        whole - part,
        (points - part_points) * ALLOCATIONS_PER_POINT,
        "{path}: the {} points past the part made {} allocations, not {ALLOCATIONS_PER_POINT} each",
        points - part_points,
        whole - part
    );
    assert_eq!(
        whole - points * ALLOCATIONS_PER_POINT,
        per_run,
        "{path}: allocations per run besides the points'"
    );
}

#[test]
fn a_warm_point_allocates_at_most_the_pinned_count() {
    check_point_and_run_allocations(
        "streamed",
        STREAMING_ALLOCATIONS_PER_RUN,
        |ctx, grid, runner| {
            let mut rows = 0usize;
            run_campaign_streaming_with(ctx, grid, runner, |_, row| {
                std::hint::black_box(&row);
                rows += 1;
            })
            .unwrap();
            assert_eq!(rows, grid.len());
        },
    );
}

#[test]
fn a_warm_point_written_by_the_shard_writer_allocates_the_pinned_count() {
    let dir = std::env::temp_dir().join(format!("xr-point-allocations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("campaign.csv");
    let artifacts: [PathBuf; 3] = [csv.clone(), checkpoint_path(&csv), manifest_path(&csv)];
    check_point_and_run_allocations(
        "shard writer",
        SHARD_ALLOCATIONS_PER_RUN,
        |ctx, grid, runner| {
            // Each counted run is a fresh one (the removals allocate too,
            // but a fresh `campaign` run does not make them).
            COUNTING.with(|counting| {
                let was = counting.replace(false);
                for path in &artifacts {
                    let _ = std::fs::remove_file(path);
                }
                counting.set(was);
            });
            let report =
                run_campaign_shard_with(ctx, grid, runner, ShardSpec::full(), &csv, usize::MAX)
                    .unwrap();
            assert_eq!(report.evaluated_rows, grid.len());
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
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
