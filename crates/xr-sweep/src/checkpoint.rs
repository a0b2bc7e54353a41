//! Append-only per-shard checkpoints: crash-resumable campaign progress.
//!
//! A sharded campaign emits rows in canonical point order (the hold-back
//! collector guarantees it), so "progress" is exactly a prefix of the
//! shard's owned points. The checkpoint file records that prefix as one
//! `done <point>` line per completed point, appended after the row is in
//! the artifact. Records are buffered, and written and fsync'd every
//! `sync_every` records ([`ShardCheckpoint::open`]) — a SIGKILL'd shard
//! resumes at the last record that reached the file instead of restarting.
//!
//! The file opens with a header carrying the campaign seed, the grid
//! fingerprint ([`crate::SweepGrid::fingerprint`]), the grid size, and the
//! shard spec; reopening against a different campaign is *stale* and
//! refused loudly. Loading is torn-write tolerant: the longest valid prefix
//! of records wins, and anything after it (a partial last line from a crash
//! mid-write, or trailing corruption) is truncated before appending
//! resumes.

use crate::shard::ShardSpec;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use xr_types::{Error, Result};

/// First line of every checkpoint file; bump the version to invalidate old
/// layouts instead of misreading them.
const MAGIC: &str = "# xr-sweep shard checkpoint v1";

/// Default fsync cadence of a sharded run (`--shard i/N` without
/// `--checkpoint-every`): records per `fdatasync`. 1 is the safest: every
/// completed point is durable before the next one starts. A run without
/// `--shard` syncs once, at the end, unless `--checkpoint-every` is given.
pub const DEFAULT_SYNC_EVERY: usize = 1;

fn io_error(path: &Path, op: &str, error: &std::io::Error) -> Error {
    Error::InvalidConfiguration(format!(
        "checkpoint {}: {op} failed: {error}",
        path.display()
    ))
}

fn stale_error(
    path: &Path,
    field: &str,
    found: impl std::fmt::Display,
    expected: impl std::fmt::Display,
) -> Error {
    Error::invalid_parameter(
        "checkpoint",
        format!(
            "stale checkpoint {}: its {field} is {found} but this campaign's is {expected} — delete the file or rerun the original campaign",
            path.display()
        ),
    )
}

/// The campaign identity a checkpoint belongs to. Two runs may share a
/// checkpoint iff every field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// The campaign seed every replication seed derives from.
    pub campaign_seed: u64,
    /// [`crate::SweepGrid::fingerprint`] of the swept grid (a caller whose
    /// rows depend on more than the grid and seed mixes that in).
    pub grid_fingerprint: u64,
    /// Number of operating points in the full grid.
    pub points: usize,
    /// Which shard of how many this checkpoint tracks.
    pub shard: ShardSpec,
}

impl CheckpointHeader {
    fn render(&self) -> String {
        format!(
            "{MAGIC}\n\
             campaign_seed = {}\n\
             grid_fingerprint = {}\n\
             points = {}\n\
             shard = {}\n",
            self.campaign_seed, self.grid_fingerprint, self.points, self.shard
        )
    }
}

/// An open, appendable shard checkpoint. See the module docs for the file
/// format and durability contract.
#[derive(Debug)]
pub struct ShardCheckpoint {
    path: PathBuf,
    header: CheckpointHeader,
    /// Records are buffered and reach the file at each sync (or when the
    /// buffer fills); resume trusts only what the file holds.
    file: BufWriter<File>,
    /// The points the file held when opened, up to the last rewind.
    completed: Vec<usize>,
    /// Records in the file, appended ones included.
    records: usize,
    unsynced: usize,
    sync_every: usize,
}

impl ShardCheckpoint {
    /// Opens (or creates) the checkpoint at `path` for the campaign
    /// identified by `header`, fsync'ing every `sync_every` records
    /// (clamped to at least 1).
    ///
    /// An existing file is validated against `header` — any mismatch is a
    /// stale checkpoint and refused — then loaded tolerantly: the longest
    /// valid prefix of `done <point>` records becomes
    /// [`ShardCheckpoint::completed`], and the file is truncated to that
    /// prefix so a torn tail cannot corrupt subsequent appends.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt or foreign header, and stale checkpoints.
    pub fn open(
        path: impl Into<PathBuf>,
        header: CheckpointHeader,
        sync_every: usize,
    ) -> Result<Self> {
        let path = path.into();
        let sync_every = sync_every.max(1);
        let exists = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_error(&path, "open", &e))?;
        let mut checkpoint = Self {
            path,
            header,
            file: BufWriter::new(file),
            completed: Vec::new(),
            records: 0,
            unsynced: 0,
            sync_every,
        };
        if exists {
            // Drop the torn/corrupt tail (if any) so appends start at a
            // record boundary.
            checkpoint.cut_to(usize::MAX)?;
        } else {
            let file = checkpoint.file.get_mut();
            file.write_all(checkpoint.header.render().as_bytes())
                .map_err(|e| io_error(&checkpoint.path, "write header", &e))?;
            file.sync_data()
                .map_err(|e| io_error(&checkpoint.path, "sync", &e))?;
        }
        Ok(checkpoint)
    }

    /// Reads the file from its start, keeps at most `keep` of its valid
    /// records, and cuts the file to their end, leaving it positioned
    /// there. The record offsets come from [`ShardCheckpoint::validate`]
    /// on the file as it stands, so nothing but the count of the records
    /// appended since is held between cuts.
    fn cut_to(&mut self, keep: usize) -> Result<()> {
        let path = &self.path;
        let file = self.file.get_mut();
        let mut text = String::new();
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_string(&mut text))
            .map_err(|e| io_error(path, "read", &e))?;
        let (mut completed, record_ends, header_len) = Self::validate(path, &text, &self.header)?;
        completed.truncate(keep);
        let end = match completed.len() {
            0 => header_len,
            kept => record_ends[kept - 1],
        };
        file.set_len(end)
            .map_err(|e| io_error(path, "truncate", &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_error(path, "seek", &e))?;
        self.records = completed.len();
        self.completed = completed;
        Ok(())
    }

    /// Validates the header of an existing file against the campaign and
    /// returns the valid record prefix with each record's end offset, plus
    /// the byte offset where the header ends.
    fn validate(
        path: &Path,
        text: &str,
        expected: &CheckpointHeader,
    ) -> Result<(Vec<usize>, Vec<u64>, u64)> {
        let corrupt = |what: &str| {
            Error::invalid_parameter(
                "checkpoint",
                format!(
                    "corrupt checkpoint {}: {what} — delete the file to restart the shard",
                    path.display()
                ),
            )
        };
        let mut offset = 0u64;
        let mut lines = Vec::new(); // (line, end_offset, complete)
        for line in text.split_inclusive('\n') {
            offset += line.len() as u64;
            let complete = line.ends_with('\n');
            lines.push((line.trim_end_matches('\n'), offset, complete));
        }
        let mut it = lines.into_iter();
        let (magic, _, magic_complete) = it.next().ok_or_else(|| corrupt("empty file"))?;
        if magic != MAGIC || !magic_complete {
            return Err(corrupt("unrecognized first line"));
        }
        let mut fields: [(&str, Option<String>); 4] = [
            ("campaign_seed", None),
            ("grid_fingerprint", None),
            ("points", None),
            ("shard", None),
        ];
        let mut header_end = 0u64;
        for field in &mut fields {
            let (line, end, complete) = it.next().ok_or_else(|| corrupt("incomplete header"))?;
            if !complete {
                return Err(corrupt("incomplete header"));
            }
            let value = line
                .strip_prefix(field.0)
                .and_then(|rest| rest.trim_start().strip_prefix('='))
                .map(str::trim)
                .ok_or_else(|| corrupt("incomplete header"))?;
            field.1 = Some(value.to_string());
            header_end = end;
        }
        let parse_u64 = |value: &str| {
            value
                .parse::<u64>()
                .map_err(|_| corrupt("unreadable header value"))
        };
        let found = CheckpointHeader {
            campaign_seed: parse_u64(fields[0].1.as_deref().expect("filled"))?,
            grid_fingerprint: parse_u64(fields[1].1.as_deref().expect("filled"))?,
            points: parse_u64(fields[2].1.as_deref().expect("filled"))? as usize,
            shard: ShardSpec::parse(fields[3].1.as_deref().expect("filled"))
                .map_err(|_| corrupt("unreadable shard spec"))?,
        };
        if found.grid_fingerprint != expected.grid_fingerprint {
            return Err(stale_error(
                path,
                "grid fingerprint",
                found.grid_fingerprint,
                expected.grid_fingerprint,
            ));
        }
        if found.campaign_seed != expected.campaign_seed {
            return Err(stale_error(
                path,
                "campaign seed",
                found.campaign_seed,
                expected.campaign_seed,
            ));
        }
        if found.points != expected.points {
            return Err(stale_error(
                path,
                "grid size",
                found.points,
                expected.points,
            ));
        }
        if found.shard != expected.shard {
            return Err(stale_error(path, "shard spec", found.shard, expected.shard));
        }
        // Longest valid record prefix; a torn or malformed tail is simply
        // not-yet-done work.
        let mut completed = Vec::new();
        let mut record_ends = Vec::new();
        for (line, end, complete) in it {
            let Some(point) = complete
                .then(|| line.strip_prefix("done "))
                .flatten()
                .and_then(|n| n.parse::<usize>().ok())
            else {
                break;
            };
            completed.push(point);
            record_ends.push(end);
        }
        Ok((completed, record_ends, header_end))
    }

    /// The points the file recorded as completed when it was opened, in
    /// completion (= canonical) order, cut to the last
    /// [`ShardCheckpoint::truncate_to`]: what a resumed run checks against
    /// the points it owns. Records appended since are only counted
    /// ([`ShardCheckpoint::records`]).
    #[must_use]
    pub fn completed(&self) -> &[usize] {
        &self.completed
    }

    /// The number of records in the checkpoint: those it was opened (or
    /// last rewound) with, plus every one appended since.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// The checkpoint file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the next [`ShardCheckpoint::record`] syncs the file: the
    /// cadence counts records since the last sync, so after a resume it
    /// starts again from the resumed prefix. A writer whose rows must be
    /// durable before their records are syncs them first when this holds.
    #[must_use]
    pub fn next_record_syncs(&self) -> bool {
        self.unsynced + 1 >= self.sync_every
    }

    /// Drops all but the first `keep` records — used when the artifact the
    /// checkpoint describes turns out to be shorter (e.g. a crash lost
    /// buffered CSV rows the checkpoint had already made durable).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn truncate_to(&mut self, keep: usize) -> Result<()> {
        if keep >= self.records {
            return Ok(());
        }
        self.file
            .flush()
            .map_err(|e| io_error(&self.path, "flush", &e))?;
        self.cut_to(keep)?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| io_error(&self.path, "sync", &e))?;
        Ok(())
    }

    /// Appends a completed point to the buffer, and flushes and fsyncs it
    /// when the cadence comes due.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn record(&mut self, point: usize) -> Result<()> {
        // `done <point>\n`, right-aligned in a buffer that fits the widest
        // `usize`, with the digits written directly rather than formatted.
        const PREFIX: &[u8] = b"done ";
        let mut line = [0u8; PREFIX.len() + 20 + 1];
        let mut start = line.len() - 1;
        line[start] = b'\n';
        let mut rest = point;
        loop {
            start -= 1;
            line[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        start -= PREFIX.len();
        line[start..start + PREFIX.len()].copy_from_slice(PREFIX);
        self.file
            .write_all(&line[start..])
            .map_err(|e| io_error(&self.path, "append", &e))?;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes the buffered records and forces them to stable storage.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| io_error(&self.path, "flush", &e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| io_error(&self.path, "sync", &e))?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xr-sweep-checkpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            campaign_seed: 2024,
            grid_fingerprint: 0xFEED_F00D,
            points: 96,
            shard: ShardSpec::parse("2/3").unwrap(),
        }
    }

    #[test]
    fn records_survive_reopen() {
        let path = scratch("reopen.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), 2).unwrap();
        assert!(ckpt.completed().is_empty());
        for p in [1usize, 4, 7] {
            ckpt.record(p).unwrap();
        }
        ckpt.sync().unwrap();
        drop(ckpt);
        let ckpt = ShardCheckpoint::open(&path, header(), 2).unwrap();
        assert_eq!(ckpt.completed(), &[1, 4, 7]);
    }

    #[test]
    fn stale_checkpoints_are_refused() {
        let path = scratch("stale.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        ckpt.record(1).unwrap();
        drop(ckpt);
        let mut other = header();
        other.grid_fingerprint ^= 1;
        let err = ShardCheckpoint::open(&path, other, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("stale checkpoint"), "{err}");
        assert!(err.contains("grid fingerprint"), "{err}");
        let mut other = header();
        other.campaign_seed = 7;
        let err = ShardCheckpoint::open(&path, other, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("campaign seed"), "{err}");
        let mut other = header();
        other.shard = ShardSpec::parse("1/3").unwrap();
        let err = ShardCheckpoint::open(&path, other, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("shard spec"), "{err}");
        // The original campaign still resumes.
        let ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        assert_eq!(ckpt.completed(), &[1]);
    }

    #[test]
    fn torn_tails_resume_at_the_valid_prefix() {
        let path = scratch("torn.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        for p in [1usize, 4, 7, 10] {
            ckpt.record(p).unwrap();
        }
        drop(ckpt);
        let full = std::fs::read(&path).unwrap();

        // Torn mid-record: cut the file anywhere inside the last record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        assert_eq!(ckpt.completed(), &[1, 4, 7]);
        drop(ckpt);
        // …and the truncated file now ends on the record boundary, so a
        // fresh append produces a clean record stream.
        let mut ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        ckpt.record(10).unwrap();
        drop(ckpt);
        assert_eq!(std::fs::read(&path).unwrap(), full);

        // Garbage interior line: the prefix before it wins.
        let mut garbled = full.clone();
        let done7 = b"done 7\n";
        let at = full.windows(done7.len()).position(|w| w == done7).unwrap();
        garbled[at] = b'x';
        std::fs::write(&path, &garbled).unwrap();
        let ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        assert_eq!(ckpt.completed(), &[1, 4]);
    }

    #[test]
    fn records_are_written_as_done_lines() {
        let path = scratch("digits.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), usize::MAX).unwrap();
        for p in [0usize, 7, 10, 1890, usize::MAX] {
            ckpt.record(p).unwrap();
        }
        ckpt.sync().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<&str> = text.lines().filter(|l| l.starts_with("done")).collect();
        let max = format!("done {}", usize::MAX);
        assert_eq!(
            records,
            ["done 0", "done 7", "done 10", "done 1890", max.as_str()]
        );
    }

    #[test]
    fn truncate_to_rewinds_records() {
        let path = scratch("rewind.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        for p in [1usize, 4, 7] {
            ckpt.record(p).unwrap();
        }
        ckpt.truncate_to(1).unwrap();
        assert_eq!(ckpt.completed(), &[1]);
        ckpt.record(4).unwrap();
        drop(ckpt);
        let ckpt = ShardCheckpoint::open(&path, header(), 1).unwrap();
        assert_eq!(ckpt.completed(), &[1, 4]);
    }

    #[test]
    fn corrupt_headers_are_named() {
        let path = scratch("corrupt.ckpt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = ShardCheckpoint::open(&path, header(), 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("corrupt checkpoint"), "{err}");
        std::fs::write(&path, format!("{MAGIC}\ncampaign_seed = 2024\n")).unwrap();
        let err = ShardCheckpoint::open(&path, header(), 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("incomplete header"), "{err}");
    }

    #[test]
    fn the_next_sync_counts_from_the_last_one() {
        let path = scratch("next-sync.ckpt");
        let mut ckpt = ShardCheckpoint::open(&path, header(), 3).unwrap();
        let mut due = Vec::new();
        for p in 0..7 {
            due.push(ckpt.next_record_syncs());
            ckpt.record(p).unwrap();
        }
        assert_eq!(due, [false, false, true, false, false, true, false]);
        ckpt.sync().unwrap();
        drop(ckpt);
        // A resumed run counts from its resumed prefix of 7 records.
        let mut ckpt = ShardCheckpoint::open(&path, header(), 3).unwrap();
        let mut due = Vec::new();
        for p in 7..10 {
            due.push(ckpt.next_record_syncs());
            ckpt.record(p).unwrap();
        }
        assert_eq!(due, [false, false, true]);
    }

    #[test]
    fn sync_cadence_clamps_and_reports() {
        let path = scratch("cadence.ckpt");
        // Cadence 0 clamps to 1: every record syncs.
        let ckpt = ShardCheckpoint::open(&path, header(), 0).unwrap();
        assert!(ckpt.next_record_syncs());
        assert_eq!(DEFAULT_SYNC_EVERY, 1);
    }
}
