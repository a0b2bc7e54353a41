//! Checkpointed campaign execution: the one path every `campaign` run takes.
//!
//! A campaign is embarrassingly partitionable (every replication seed is a
//! pure function of `(campaign_seed, point_index, rep_index)`), so `campaign
//! --shard i/N` evaluates only the points `p % N == i - 1` — with seeds
//! derived from the **original** grid indices — and streams its rows into
//! `campaign_shard_<i>of<N>.csv`. A run without `--shard` is shard `1/1`
//! writing `campaign.csv`. Each artifact travels with:
//!
//! - a *manifest* (`<csv>.manifest`), written when the run completes: the
//!   campaign seed, the grid fingerprint, the grid size, the shard spec and
//!   the row count, so [`merge_campaign_csvs`] can refuse shards of
//!   different campaigns or an incomplete cover before interleaving the
//!   rows back into the canonical order — byte-identical to a one-shot
//!   `campaign.csv`;
//! - a *checkpoint* (`<csv>.checkpoint`): an append-only record of
//!   completed points, fsync'd with the CSV at the run's cadence, so a
//!   SIGKILL'd run resumes at the last durable unit instead of restarting.
//!   Resume trusts only what both files agree on (`min(checkpoint records,
//!   complete CSV rows)`) and truncates each to that prefix, so torn tails
//!   on either side are re-evaluated, never merged.
//!
//! A run with no checkpoint records to resume writes its CSV afresh. A
//! finished run of another campaign (a manifest that is not this run's)
//! is replaced; an unfinished one (a checkpoint and no manifest) is
//! refused, so no progress is lost by accident.

use crate::campaign::{stream_indices, CAMPAIGN_HEADER};
use crate::context::ExperimentContext;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use xr_sweep::{
    merge_shard_rows, CampaignRunner, CheckpointHeader, ShardCheckpoint, ShardManifest, ShardSpec,
    SweepGrid,
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

/// How much work one shard run found done and how much it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Rows already durable from a previous (interrupted) run.
    pub resumed_rows: usize,
    /// Rows evaluated by this run.
    pub evaluated_rows: usize,
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
/// **stderr** after every completed point, and once for a run that had
/// nothing left to do. Counts are shard-local; stdout and the CSV bytes are
/// untouched, so progress can be left on in scripted runs.
///
/// Both files are written through buffers. At every `checkpoint_every`-th
/// point the CSV is flushed and fsync'd, then the checkpoint; at the end
/// both are, whatever the cadence. `usize::MAX` syncs only at the end.
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
    // The paper-scale context writes other rows than the quick one for the
    // same grid and seed, so its artifacts record a fingerprint of their
    // own: neither resumes, replaces or merges with the other's.
    let mut fingerprint = grid.fingerprint();
    if ctx.is_paper_scale() {
        fingerprint = xr_types::seed::mix(fingerprint, 0x7061_7065_722d_7363); // "paper-sc"
    }
    let manifest = ShardManifest {
        grid_fingerprint: fingerprint,
        ..ShardManifest::for_grid(grid, ctx.seed(), shard)
    }
    .render();
    let manifest_file = manifest_path(csv_path);
    if std::fs::read_to_string(&manifest_file).is_ok_and(|text| text != manifest) {
        // A finished run of another campaign: this run replaces it.
        for path in [manifest_file.clone(), checkpoint_path(csv_path)] {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(io_error(&path, "remove", &e))
                }
                _ => {}
            }
        }
    }
    let mut checkpoint = ShardCheckpoint::open(
        checkpoint_path(csv_path),
        CheckpointHeader {
            campaign_seed: ctx.seed(),
            grid_fingerprint: fingerprint,
            points: total,
            shard,
        },
        checkpoint_every,
    )?;

    // Only a checkpoint with records has anything to resume; otherwise the
    // CSV is written afresh and never read.
    let resume = checkpoint.records() > 0;
    let mut file = OpenOptions::new()
        .read(resume)
        .write(true)
        .create(true)
        .truncate(!resume)
        .open(csv_path)
        .map_err(|e| io_error(csv_path, "open", &e))?;
    let durable = if resume {
        rewind(&mut file, csv_path, &mut checkpoint, shard, total)?
    } else {
        0
    };
    let mut csv = BufWriter::new(file);
    if durable == 0 {
        let mut header = CAMPAIGN_HEADER.join(",");
        header.push('\n');
        csv.write_all(header.as_bytes())
            .map_err(|e| io_error(csv_path, "write header", &e))?;
    }

    // Stream the remaining owned points. The sink cannot return an error, so
    // the first I/O failure is parked and everything after it is dropped.
    let shard_total = shard.owned_len(total);
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
    let remaining = shard.owned_indices(total).skip(durable);
    stream_indices(ctx, grid, runner, remaining, |index, row| {
        if write_failure.is_some() {
            return;
        }
        row.render_csv_into(&mut line);
        line.push('\n');
        // The row must be durable before the checkpoint says so — sharing
        // the checkpoint's fsync cadence keeps one knob.
        let at_boundary = checkpoint.next_record_syncs();
        let outcome = csv
            .write_all(line.as_bytes())
            .map_err(|e| io_error(csv_path, "append", &e))
            .and_then(|()| {
                if at_boundary {
                    sync(&mut csv, csv_path)?;
                }
                checkpoint.record(index)
            });
        match outcome {
            Err(error) => write_failure = Some(error),
            Ok(()) => report_progress(checkpoint.records()),
        }
    })?;
    if let Some(error) = write_failure {
        return Err(error);
    }
    sync(&mut csv, csv_path)?;
    checkpoint.sync()?;
    report_progress(checkpoint.records());

    std::fs::write(&manifest_file, manifest).map_err(|e| io_error(&manifest_file, "write", &e))?;
    Ok(ShardRunReport {
        resumed_rows: durable,
        evaluated_rows: shard_total - durable,
    })
}

/// Writes the buffered CSV rows and forces them to stable storage.
fn sync(csv: &mut BufWriter<File>, csv_path: &Path) -> Result<()> {
    csv.flush().map_err(|e| io_error(csv_path, "write", &e))?;
    csv.get_ref()
        .sync_data()
        .map_err(|e| io_error(csv_path, "sync", &e))
}

/// Rewinds a resumed run's CSV and checkpoint to the rows both hold, leaves
/// `file` positioned at their end, and returns how many rows that is. A
/// torn last line from a crash mid-write is not progress. With no row to
/// keep, the CSV is emptied for a fresh header.
fn rewind(
    file: &mut File,
    csv_path: &Path,
    checkpoint: &mut ShardCheckpoint,
    shard: ShardSpec,
    total: usize,
) -> Result<usize> {
    let mut text = String::new();
    file.read_to_string(&mut text)
        .map_err(|e| io_error(csv_path, "read", &e))?;
    let rows = if text.is_empty() {
        Vec::new()
    } else {
        csv_rows(&text, csv_path)?.0
    };

    // Trust only what checkpoint and CSV agree on; rewind both to it. The
    // checkpoint's records must be exactly the shard's owned prefix —
    // anything else means the file belongs to some other partition.
    let durable = checkpoint.completed().len().min(rows.len());
    for (slot, (&recorded, expected)) in checkpoint.completed()[..durable]
        .iter()
        .zip(shard.owned_indices(total))
        .enumerate()
    {
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
    // The header and `durable` rows end at newline number `durable`.
    let keep_end = match durable {
        0 => 0,
        _ => text
            .match_indices('\n')
            .nth(durable)
            .map_or(0, |(end, _)| end + 1),
    };
    file.set_len(keep_end as u64)
        .map_err(|e| io_error(csv_path, "truncate", &e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_error(csv_path, "seek", &e))?;
    Ok(durable)
}

/// The complete rows of a campaign CSV, and whether a torn last line
/// follows them. Text that does not start with the campaign header is a
/// foreign file, neither resumed into nor merged.
fn csv_rows<'a>(text: &'a str, csv_path: &Path) -> Result<(Vec<&'a str>, bool)> {
    let mut lines = text.split_inclusive('\n');
    if lines.next().and_then(|line| line.strip_suffix('\n')) != Some(&CAMPAIGN_HEADER.join(",")) {
        return Err(Error::invalid_parameter(
            "campaign csv",
            format!(
                "{} does not start with the campaign header",
                csv_path.display()
            ),
        ));
    }
    let rows: Vec<&str> = lines
        .clone()
        .map_while(|line| line.strip_suffix('\n'))
        .collect();
    let torn = lines.count() > rows.len();
    Ok((rows, torn))
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
        let (rows, torn) = csv_rows(&csv_text, csv_path)?;
        if torn {
            return Err(Error::invalid_parameter(
                "shard merge",
                format!(
                    "{} ends with a torn row — the shard did not complete",
                    csv_path.display()
                ),
            ));
        }
        let rows = rows.into_iter().map(str::to_string).collect();
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

    /// Removes a CSV's artifacts from an earlier test run.
    fn clear(path: &Path) {
        for stale in [
            path.to_path_buf(),
            checkpoint_path(path),
            manifest_path(path),
        ] {
            let _ = std::fs::remove_file(stale);
        }
    }

    /// The bytes of a run without `--shard`: shard 1/1, synced at the end.
    fn unsharded_csv(ctx: &ExperimentContext, grid: &SweepGrid, name: &str) -> String {
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let path = scratch(name);
        clear(&path);
        run_campaign_shard_with(ctx, grid, &runner, ShardSpec::full(), &path, usize::MAX).unwrap();
        std::fs::read_to_string(&path).unwrap()
    }

    #[test]
    fn sharded_runs_merge_byte_identically() {
        let ctx = ExperimentContext::quick(23).unwrap();
        let grid = small_grid();
        let reference = unsharded_csv(&ctx, &grid, "merge-reference.csv");
        for count in [1usize, 3] {
            let paths: Vec<PathBuf> = (1..=count)
                .map(|i| {
                    let shard = ShardSpec::new(i, count).unwrap();
                    let path = scratch(&format!("merge-{}", shard_csv_name(shard)));
                    clear(&path);
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
        clear(&path);
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
            clear(path);
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
        // A checkpoint with records beside a CSV that is not a campaign's:
        // resuming into it is refused. (A CSV with no checkpoint records is
        // simply written afresh.)
        let ctx = ExperimentContext::quick(31).unwrap();
        let grid = small_grid();
        let runner = CampaignRunner::new(1).with_campaign_seed(ctx.seed());
        let shard = ShardSpec::new(1, 2).unwrap();
        let path = scratch("foreign.csv");
        clear(&path);
        run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1).unwrap();
        std::fs::remove_file(manifest_path(&path)).unwrap();
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
    fn reruns_in_one_place_resume_replace_or_refuse() {
        let quick = ExperimentContext::quick(41).unwrap();
        let paper = ExperimentContext::paper_scale(41).unwrap();
        let grid_a = small_grid();
        let grid_b = small_grid().with_replications(3);
        let runner = CampaignRunner::new(2).with_campaign_seed(41);
        let path = scratch("rerun.csv");
        clear(&path);
        let run = |ctx: &ExperimentContext, grid: &SweepGrid| {
            run_campaign_shard_with(ctx, grid, &runner, ShardSpec::full(), &path, usize::MAX)
                .map(|report| (report.resumed_rows, report.evaluated_rows))
        };
        let read = || std::fs::read_to_string(&path).unwrap();

        // A finished run, run again, resumes every row.
        run(&quick, &grid_a).unwrap();
        let bytes_a = read();
        assert_eq!(run(&quick, &grid_a), Ok((grid_a.len(), 0)));
        assert_eq!(read(), bytes_a);
        // A finished run of another campaign is replaced. The paper-scale
        // context writes other rows for the same grid and seed, so it is
        // another campaign too.
        assert_eq!(run(&paper, &grid_a), Ok((0, grid_a.len())));
        assert_ne!(read(), bytes_a);
        assert_eq!(read(), unsharded_csv(&paper, &grid_a, "rerun-paper.csv"));
        assert_eq!(run(&quick, &grid_b), Ok((0, grid_b.len())));
        let bytes_b = read();
        assert_eq!(bytes_b, unsharded_csv(&quick, &grid_b, "rerun-b.csv"));
        // An unfinished run (checkpoint records, no manifest) is not.
        std::fs::remove_file(manifest_path(&path)).unwrap();
        let err = run(&quick, &grid_a).unwrap_err().to_string();
        let stale = format!("stale checkpoint {}", checkpoint_path(&path).display());
        assert!(err.contains(&stale), "{err}");
        assert_eq!(read(), bytes_b);
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
