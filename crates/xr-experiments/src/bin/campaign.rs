//! The consolidated campaign binary: sweeps the full twelve-axis quick grid
//! (frame size × CPU clock × execution target × device × wireless condition
//! × mobility condition × campaign size × edge population × frame rate ×
//! topology layout × site density × migration policy,
//! with per-point replications)
//! through the parallel campaign engine and writes one mean-±-CI row per
//! operating point to `campaign.csv`.
//!
//! Flags (parsed by [`CampaignArgs`]; any other argument exits with
//! status 2 and names the offending token):
//!
//! - `--grid <file>` swaps the built-in quick grid for a data-defined one
//!   parsed by `xr_sweep::parse_grid_spec` (see that module's docs for the
//!   `key = value` format), so campaigns can change without recompiling.
//!   The extension figures are grid files under `configs/`.
//! - `--shard i/N` runs only the points `p % N == i - 1` (seeded by
//!   original grid index) into `campaign_shard_<i>of<N>.csv`;
//!   `campaign_merge` interleaves the shard CSVs back into the one-shot
//!   artifact byte for byte. Without it the run is shard `1/1` and writes
//!   `campaign.csv`.
//! - `--checkpoint-every <rows>` fsyncs the CSV and its `.checkpoint`
//!   every `<rows>` rows. Without it a sharded run fsyncs every row and a
//!   run without `--shard` once, at the end.
//! - `--progress` emits a `shard i/N: completed/total points` line to
//!   stderr after every completed point; stdout and the CSV are
//!   byte-identical either way.
//! - `--paper-scale` calibrates on the paper-scale measurement campaign.
//! - `--scalar-sessions` simulates every session through the scalar
//!   reference engine instead of the batched default.
//!
//! Every run streams each row into its CSV under `target/experiments/` as
//! the collector releases it, appends the point to a `.checkpoint` beside
//! it, and writes a `.manifest` when it completes, so a killed run resumes
//! at its last durable row. A finished run of another grid, seed or scale
//! in the same place is replaced; an unfinished one is refused. The run
//! prints a one-line summary on stdout: rows resumed and evaluated,
//! workers and the CSV path. A failed calibration or write exits with
//! status 1.
//!
//! `XR_CAMPAIGN_SEED` sets the campaign seed (default 2024) and
//! `XR_SWEEP_WORKERS` the worker count; a value that is not a non-negative
//! integer exits with status 2. The CSV is bit-identical for every worker
//! count and for both session engines; the batched engine runs all
//! replications of a point fused, sharing each wide pass. The `grid_pins`
//! integration test pins both across every checked-in grid file.

use xr_experiments::campaign_args::usage_error;
use xr_experiments::shard_campaign::{run_campaign_shard_with_progress, shard_csv_name};
use xr_experiments::{output, CampaignArgs, ExperimentContext};
use xr_sweep::{ShardSpec, DEFAULT_SYNC_EVERY};

/// Reports a failed run and exits with status 1.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

fn main() {
    let args = CampaignArgs::from_env();
    let grid = args.grid().unwrap_or_else(|message| usage_error(&message));
    let ctx = args
        .context(ExperimentContext::seed_from_env())
        .unwrap_or_else(|error| fail(&format!("campaign: calibration: {error}")));
    let runner = ctx.runner();
    let dir = output::artifact_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    // A run without `--shard` is shard 1/1 under its own name, synced once
    // at the end.
    let (shard, csv_name, sync_every) = match args.shard {
        Some(shard) => (shard, shard_csv_name(shard), DEFAULT_SYNC_EVERY),
        None => (ShardSpec::full(), "campaign.csv".to_string(), usize::MAX),
    };
    let csv_path = dir.join(csv_name);
    let report = run_campaign_shard_with_progress(
        &ctx,
        &grid,
        &runner,
        shard,
        &csv_path,
        args.checkpoint_every.unwrap_or(sync_every),
        args.progress,
    )
    .unwrap_or_else(|error| fail(&format!("campaign failed: {error}")));
    println!(
        "shard {shard}: {} row(s) resumed from checkpoint, {} evaluated ({} worker(s)); csv written to {}",
        report.resumed_rows,
        report.evaluated_rows,
        runner.workers(),
        csv_path.display()
    );
}
