//! Sharded, checkpointed campaign execution.
//!
//! A campaign is embarrassingly partitionable (every replication seed is a
//! pure function of `(campaign_seed, point_index, rep_index)`), so `campaign
//! --shard i/N` evaluates only the points `p % N == i - 1` — with seeds
//! derived from the **original** grid indices — and streams its rows into
//! `campaign_shard_<i>of<N>.csv`. Each shard artifact travels with:
//!
//! - a *manifest* (`<csv>.manifest`): the campaign seed, the grid
//!   fingerprint, the grid size, the shard spec and the row count, so
//!   [`merge_campaign_csvs`] can refuse shards of different campaigns or an
//!   incomplete cover before interleaving the rows back into the canonical
//!   order — byte-identical to an unsharded `campaign.csv`;
//! - a *checkpoint* (`<csv>.checkpoint`): an append-only, fsync'd record of
//!   completed points, so a SIGKILL'd shard resumes at the last durable unit
//!   instead of restarting. Resume trusts only what both files agree on
//!   (`min(checkpoint records, complete CSV rows)`) and truncates each to
//!   that prefix, so torn tails on either side are re-evaluated, never
//!   merged.

use crate::campaign::{run_campaign_subset_streaming_with, CAMPAIGN_HEADER};
use crate::context::ExperimentContext;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use xr_sweep::{
    merge_shard_rows, CampaignRunner, CheckpointHeader, OperatingPoint, ShardCheckpoint,
    ShardManifest, ShardSpec, SweepGrid,
};
use xr_types::{Error, Result};

fn io_error(path: &Path, op: &str, error: &std::io::Error) -> Error {
    Error::InvalidConfiguration(format!(
        "shard artifact {}: {op} failed: {error}",
        path.display()
    ))
}

/// Canonical file name of one shard's CSV artifact.
#[must_use]
pub fn shard_csv_name(shard: ShardSpec) -> String {
    format!("campaign_shard_{}of{}.csv", shard.index(), shard.count())
}

/// The manifest path a shard CSV travels with (`<csv>.manifest`).
#[must_use]
pub fn manifest_path(csv_path: &Path) -> PathBuf {
    let mut name = csv_path.as_os_str().to_os_string();
    name.push(".manifest");
    PathBuf::from(name)
}

/// The checkpoint path a shard CSV resumes from (`<csv>.checkpoint`).
#[must_use]
pub fn checkpoint_path(csv_path: &Path) -> PathBuf {
    let mut name = csv_path.as_os_str().to_os_string();
    name.push(".checkpoint");
    PathBuf::from(name)
}

/// What one shard run did: the manifest it wrote plus how much work the
/// checkpoint let it skip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunReport {
    /// The manifest written next to the CSV.
    pub manifest: ShardManifest,
    /// Rows already durable from a previous (interrupted) run.
    pub resumed_rows: usize,
    /// Rows evaluated by this run.
    pub evaluated_rows: usize,
    /// Where the shard CSV was written.
    pub csv_path: PathBuf,
}

/// Runs (or resumes) one shard of a campaign, streaming rows into
/// `csv_path` with a checkpoint fsync'd every `checkpoint_every` completed
/// points, and writes the manifest when the shard completes.
///
/// # Errors
///
/// Propagates grid, scenario, model and I/O errors; refuses stale
/// checkpoints and CSVs whose header does not match the campaign layout.
pub fn run_campaign_shard_with(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    shard: ShardSpec,
    csv_path: &Path,
    checkpoint_every: usize,
) -> Result<ShardRunReport> {
    run_campaign_shard_with_progress(ctx, grid, runner, shard, csv_path, checkpoint_every, false)
}

/// [`run_campaign_shard_with`] with optional progress reporting: when
/// `progress` is set, a `shard i/N: completed/total points` line goes to
/// **stderr** at every checkpoint boundary (the fsync cadence) and once when
/// the shard completes. Counts are shard-local; stdout and the CSV bytes
/// are untouched, so progress can be left on in scripted runs.
///
/// # Errors
///
/// Propagates grid, scenario, model and I/O errors; refuses stale
/// checkpoints and CSVs whose header does not match the campaign layout.
pub fn run_campaign_shard_with_progress(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    shard: ShardSpec,
    csv_path: &Path,
    checkpoint_every: usize,
    progress: bool,
) -> Result<ShardRunReport> {
    let total = grid.indices()?.len();
    let owned: Vec<(usize, OperatingPoint)> = shard
        .owned_indices(total)
        .map(|p| Ok((p, grid.point(p)?)))
        .collect::<Result<_>>()?;
    let mut checkpoint = ShardCheckpoint::open(
        checkpoint_path(csv_path),
        CheckpointHeader {
            campaign_seed: ctx.seed(),
            grid_fingerprint: grid.fingerprint(),
            points: total,
            shard,
        },
        checkpoint_every,
    )?;

    let header_line = CAMPAIGN_HEADER.join(",");
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(csv_path)
        .map_err(|e| io_error(csv_path, "open", &e))?;
    let mut text = String::new();
    file.read_to_string(&mut text)
        .map_err(|e| io_error(csv_path, "read", &e))?;
    // A fresh CSV gets the header; an existing one must carry it verbatim
    // (anything else is a foreign artifact, not a resumable shard). Progress
    // is the complete-line prefix after the header — a torn last line from a
    // crash mid-write is not progress.
    let (complete_rows, mut row_ends) = if text.is_empty() {
        file.write_all(format!("{header_line}\n").as_bytes())
            .map_err(|e| io_error(csv_path, "write header", &e))?;
        (0usize, Vec::new())
    } else {
        let mut lines = text.split_inclusive('\n');
        let first = lines.next().unwrap_or("");
        if first.trim_end_matches('\n') != header_line || !first.ends_with('\n') {
            return Err(Error::invalid_parameter(
                "shard csv",
                format!(
                    "{} does not start with the campaign header — refusing to resume into a foreign file",
                    csv_path.display()
                ),
            ));
        }
        let mut offset = first.len() as u64;
        let mut ends = Vec::new();
        for line in lines {
            offset += line.len() as u64;
            if !line.ends_with('\n') {
                break;
            }
            ends.push(offset);
        }
        (ends.len(), ends)
    };

    // Trust only what checkpoint and CSV agree on; rewind both to it. The
    // checkpoint's records must be exactly the shard's owned prefix —
    // anything else means the file belongs to some other partition.
    let durable = checkpoint.completed().len().min(complete_rows);
    for (slot, &recorded) in checkpoint.completed()[..durable].iter().enumerate() {
        let expected = owned[slot].0;
        if recorded != expected {
            return Err(Error::invalid_parameter(
                "checkpoint",
                format!(
                    "stale checkpoint {}: record {slot} completed point {recorded} but shard {shard} owns point {expected} there — delete the file or rerun the original campaign",
                    checkpoint.path().display()
                ),
            ));
        }
    }
    checkpoint.truncate_to(durable)?;
    row_ends.truncate(durable);
    let keep_end = row_ends
        .last()
        .copied()
        .unwrap_or(header_line.len() as u64 + 1);
    file.set_len(keep_end)
        .map_err(|e| io_error(csv_path, "truncate", &e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_error(csv_path, "seek", &e))?;

    // Stream the remaining owned points. The sink cannot return an error, so
    // the first I/O failure is parked and everything after it is dropped.
    let shard_total = owned.len();
    let mut reported = None;
    let mut report_progress = |completed: usize| {
        if progress && reported != Some(completed) {
            reported = Some(completed);
            eprintln!(
                "shard {}/{}: {completed}/{shard_total} points",
                shard.index(),
                shard.count()
            );
        }
    };
    let mut write_failure: Option<Error> = None;
    let mut line = String::new();
    run_campaign_subset_streaming_with(ctx, grid, runner, &owned[durable..], |index, row| {
        if write_failure.is_some() {
            return;
        }
        row.render_csv_into(&mut line);
        line.push('\n');
        // The row must be durable before the checkpoint says so — sharing
        // the checkpoint's fsync cadence keeps one knob, and gives progress
        // reporting its boundary.
        let at_boundary = (checkpoint.completed().len() + 1) % checkpoint.sync_every() == 0;
        let outcome = file
            .write_all(line.as_bytes())
            .map_err(|e| io_error(csv_path, "append", &e))
            .and_then(|()| {
                if at_boundary {
                    file.sync_data()
                        .map_err(|e| io_error(csv_path, "sync", &e))?;
                }
                checkpoint.record(index)
            });
        match outcome {
            Err(error) => write_failure = Some(error),
            Ok(()) if at_boundary => report_progress(checkpoint.completed().len()),
            Ok(()) => {}
        }
    })?;
    if let Some(error) = write_failure {
        return Err(error);
    }
    file.sync_data()
        .map_err(|e| io_error(csv_path, "sync", &e))?;
    checkpoint.sync()?;
    report_progress(checkpoint.completed().len());

    let manifest = ShardManifest::for_grid(grid, ctx.seed(), shard);
    let manifest_file = manifest_path(csv_path);
    std::fs::write(&manifest_file, manifest.render())
        .map_err(|e| io_error(&manifest_file, "write", &e))?;
    Ok(ShardRunReport {
        manifest,
        resumed_rows: durable,
        evaluated_rows: owned.len() - durable,
        csv_path: csv_path.to_path_buf(),
    })
}

/// Merges shard CSVs (each with its `<csv>.manifest` beside it) back into
/// the full campaign CSV **text**, byte-identical to an unsharded run:
/// header line plus the interleaved rows, one trailing newline each.
///
/// # Errors
///
/// Propagates I/O and manifest-parse errors, rejects CSVs whose header or
/// row count disagrees with their manifest, and applies every
/// [`merge_shard_rows`] cover check.
pub fn merge_campaign_csvs(csv_paths: &[PathBuf]) -> Result<String> {
    let header_line = CAMPAIGN_HEADER.join(",");
    let mut shards = Vec::with_capacity(csv_paths.len());
    for csv_path in csv_paths {
        let manifest_file = manifest_path(csv_path);
        let manifest_text = std::fs::read_to_string(&manifest_file)
            .map_err(|e| io_error(&manifest_file, "read", &e))?;
        let manifest = ShardManifest::parse(&manifest_text)?;
        let csv_text =
            std::fs::read_to_string(csv_path).map_err(|e| io_error(csv_path, "read", &e))?;
        let mut lines = csv_text.split_inclusive('\n');
        if lines.next().map(|l| l.trim_end_matches('\n')) != Some(header_line.as_str()) {
            return Err(Error::invalid_parameter(
                "shard merge",
                format!(
                    "{} does not start with the campaign header",
                    csv_path.display()
                ),
            ));
        }
        let mut rows = Vec::new();
        for line in lines {
            if !line.ends_with('\n') {
                return Err(Error::invalid_parameter(
                    "shard merge",
                    format!(
                        "{} ends with a torn row — the shard did not complete",
                        csv_path.display()
                    ),
                ));
            }
            rows.push(line.trim_end_matches('\n').to_string());
        }
        shards.push((manifest, rows));
    }
    let merged = merge_shard_rows(&shards)?;
    let mut out = String::with_capacity(
        header_line.len() + 1 + merged.iter().map(|r| r.len() + 1).sum::<usize>(),
    );
    out.push_str(&header_line);
    out.push('\n');
    for row in &merged {
        out.push_str(row);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::write_campaign_csv;
    use xr_sweep::parse_grid_spec;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xr-experiments-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_grid() -> SweepGrid {
        parse_grid_spec(
            "frame_sizes  = 300, 500\n\
             cpu_clocks   = 2.0\n\
             executions   = local, remote\n\
             mobility     = static, vehicle:25:10\n\
             replications = 2\n",
        )
        .unwrap()
    }

    fn unsharded_csv(ctx: &ExperimentContext, grid: &SweepGrid) -> String {
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let mut out = Vec::new();
        write_campaign_csv(ctx, grid, &runner, &mut out, false).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn sharded_runs_merge_byte_identically() {
        let ctx = ExperimentContext::quick(23).unwrap();
        let grid = small_grid();
        let reference = unsharded_csv(&ctx, &grid);
        for count in [1usize, 3] {
            let paths: Vec<PathBuf> = (1..=count)
                .map(|i| {
                    let shard = ShardSpec::new(i, count).unwrap();
                    let path = scratch(&format!("merge-{}", shard_csv_name(shard)));
                    let _ = std::fs::remove_file(&path);
                    let _ = std::fs::remove_file(checkpoint_path(&path));
                    let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
                    let report =
                        run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1).unwrap();
                    assert_eq!(report.resumed_rows, 0);
                    assert_eq!(report.evaluated_rows, shard.owned_len(grid.len()));
                    path
                })
                .collect();
            assert_eq!(
                merge_campaign_csvs(&paths).unwrap(),
                reference,
                "{count} shards"
            );
        }
    }

    #[test]
    fn interrupted_shards_resume_to_identical_bytes() {
        let ctx = ExperimentContext::quick(29).unwrap();
        let grid = small_grid();
        let shard = ShardSpec::new(1, 2).unwrap();
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let path = scratch("resume.csv");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(checkpoint_path(&path));
        run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1).unwrap();
        let full_csv = std::fs::read(&path).unwrap();
        let full_ckpt = std::fs::read(checkpoint_path(&path)).unwrap();

        // Simulate a SIGKILL after two rows: rewind both artifacts to a
        // two-row prefix, plus a torn third row in the CSV.
        let row_end = |data: &[u8], n: usize| {
            let mut seen = 0;
            data.iter()
                .position(|&b| {
                    if b == b'\n' {
                        seen += 1;
                    }
                    seen == n + 1
                })
                .unwrap()
                + 1
        };
        let cut = row_end(&full_csv, 2);
        std::fs::write(&path, &full_csv[..cut + 9]).unwrap(); // torn 3rd row
        let ckpt_cut = full_ckpt
            .windows(5)
            .position(|w| w == b"done ")
            .map(|start| {
                let mut seen = 0;
                full_ckpt[start..]
                    .iter()
                    .position(|&b| {
                        if b == b'\n' {
                            seen += 1;
                        }
                        seen == 2
                    })
                    .unwrap()
                    + start
                    + 1
            })
            .unwrap();
        std::fs::write(checkpoint_path(&path), &full_ckpt[..ckpt_cut]).unwrap();

        let report = run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1).unwrap();
        assert_eq!(report.resumed_rows, 2);
        assert_eq!(report.evaluated_rows, shard.owned_len(grid.len()) - 2);
        assert_eq!(std::fs::read(&path).unwrap(), full_csv);
        assert_eq!(std::fs::read(checkpoint_path(&path)).unwrap(), full_ckpt);
    }

    #[test]
    fn progress_and_fusion_leave_the_artifact_bytes_alone() {
        let ctx = ExperimentContext::quick(37).unwrap();
        let grid = small_grid();
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let shard = ShardSpec::new(2, 3).unwrap();
        let plain = scratch("progress_plain.csv");
        let noisy = scratch("progress_noisy.csv");
        let scalar = scratch("progress_scalar.csv");
        for path in [&plain, &noisy, &scalar] {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(checkpoint_path(path));
            let _ = std::fs::remove_file(manifest_path(path));
        }
        run_campaign_shard_with(&ctx, &grid, &runner, shard, &plain, 1).unwrap();
        // Progress lines go to stderr only; a different checkpoint cadence
        // moves the report boundaries but never the artifact.
        run_campaign_shard_with_progress(&ctx, &grid, &runner, shard, &noisy, 2, true).unwrap();
        // The default engine fuses each point's replications; the scalar
        // reference runs each replication on its own and must write the
        // same shard bytes.
        let scalar_ctx = ctx.clone().with_scalar_sessions();
        run_campaign_shard_with_progress(&scalar_ctx, &grid, &runner, shard, &scalar, 1, true)
            .unwrap();
        let reference = std::fs::read(&plain).unwrap();
        assert_eq!(std::fs::read(&noisy).unwrap(), reference);
        assert_eq!(std::fs::read(&scalar).unwrap(), reference);
    }

    #[test]
    fn foreign_artifacts_are_refused() {
        let ctx = ExperimentContext::quick(31).unwrap();
        let grid = small_grid();
        let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
        let shard = ShardSpec::new(1, 2).unwrap();
        let path = scratch("foreign.csv");
        let _ = std::fs::remove_file(checkpoint_path(&path));
        std::fs::write(&path, "not,a,campaign\n1,2,3\n").unwrap();
        let err = run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("does not start with the campaign header"),
            "{err}"
        );
    }

    #[test]
    fn artifact_paths_derive_from_the_csv() {
        let shard = ShardSpec::new(2, 4).unwrap();
        assert_eq!(shard_csv_name(shard), "campaign_shard_2of4.csv");
        let csv = Path::new("target/experiments/campaign_shard_2of4.csv");
        assert_eq!(
            manifest_path(csv),
            Path::new("target/experiments/campaign_shard_2of4.csv.manifest")
        );
        assert_eq!(
            checkpoint_path(csv),
            Path::new("target/experiments/campaign_shard_2of4.csv.checkpoint")
        );
    }
}
