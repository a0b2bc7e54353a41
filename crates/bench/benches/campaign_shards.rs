//! Shard scale-out of the campaign engine. The partition is round-robin by
//! original point index and every replication seed derives from that
//! original index, so the merged artifact is byte-identical to the
//! unsharded CSV — asserted before any timing. The timed quantity is **one
//! shard of N** on a single-worker runner: exactly the work one process of
//! an N-host fleet performs, so its wall-clock falling near-linearly in N
//! (constant per-shard rows/s) *is* the scale-out curve, measurable even on
//! a single-core bench host where concurrently driven shards would only
//! time-slice.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use xr_experiments::campaign::{quick_grid, write_campaign_csv};
use xr_experiments::shard_campaign::{
    checkpoint_path, manifest_path, merge_campaign_csvs, run_campaign_shard_with, shard_csv_name,
};
use xr_experiments::ExperimentContext;
use xr_sweep::{CampaignRunner, ShardSpec};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xr-bench-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Runs the whole campaign as `count` concurrent shard runs into fresh
/// artifacts (stale checkpoints removed first, so every iteration evaluates
/// every point) and returns the shard CSV paths.
fn run_sharded(ctx: &ExperimentContext, count: usize) -> Vec<PathBuf> {
    let grid = quick_grid();
    let checkpoint_every = grid.len(); // keep fsync cadence out of the timing
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=count)
            .map(|index| {
                let grid = &grid;
                scope.spawn(move || {
                    let shard = ShardSpec::new(index, count).expect("spec");
                    let path = scratch(&shard_csv_name(shard));
                    for stale in [&path, &checkpoint_path(&path), &manifest_path(&path)] {
                        let _ = std::fs::remove_file(stale);
                    }
                    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
                    run_campaign_shard_with(ctx, grid, &runner, shard, &path, checkpoint_every)
                        .expect("shard run");
                    path
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard"))
            .collect()
    })
}

fn campaign_shards(c: &mut Criterion) {
    let ctx = ExperimentContext::quick(2024).expect("context");
    let grid = quick_grid();

    // Byte-identity gate: the merged 3-shard artifact must equal the
    // unsharded CSV before shard throughput means anything.
    let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
    let mut reference = Vec::new();
    write_campaign_csv(&ctx, &grid, &runner, &mut reference, false).expect("campaign");
    let reference = String::from_utf8(reference).expect("campaign CSV is UTF-8");
    let merged = merge_campaign_csvs(&run_sharded(&ctx, 3)).expect("merge");
    assert_eq!(
        merged, reference,
        "sharded campaign diverged from unsharded"
    );

    let mut group = c.benchmark_group("campaign_shards");
    group.sample_size(10);
    for count in [1usize, 2, 4] {
        let shard = ShardSpec::new(1, count).expect("spec");
        let path = scratch(&format!("timed-{}", shard_csv_name(shard)));
        let checkpoint_every = grid.len();
        group.bench_function(format!("one_shard_of/{count}"), |b| {
            b.iter(|| {
                for stale in [&path, &checkpoint_path(&path), &manifest_path(&path)] {
                    let _ = std::fs::remove_file(stale);
                }
                let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
                black_box(
                    run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, checkpoint_every)
                        .expect("shard run"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, campaign_shards);
criterion_main!(benches);
