//! Deterministic campaign sharding: partition a grid's point enumeration
//! across independent processes, and merge the shard artifacts back into the
//! unsharded CSV **byte for byte**.
//!
//! Because every replication's seed is a pure function of
//! `(campaign_seed, point_index, rep_index)` — see [`crate::seed`] — a
//! campaign is embarrassingly partitionable: shard `i/N` evaluates exactly
//! the points whose original grid index `p` satisfies `p % N == i - 1`
//! (round-robin, so neighbouring grid corners spread across shards and the
//! load balances), derives every seed from the **original** index, and emits
//! its rows in canonical point order. Merging interleaves the shard CSVs
//! back into grid order: merged row `j` is shard `(j % N) + 1`'s local row
//! `j / N`. Nothing is re-measured and nothing is re-ordered by value, so
//! the merged artifact is provably identical to a one-shot run.
//!
//! Each shard CSV travels with a small `key = value` *manifest* recording
//! the campaign seed, the grid fingerprint ([`SweepGrid::fingerprint`]), the
//! shard spec, and the row count; [`merge_shard_rows`] refuses to combine
//! shards from different campaigns, different grids, or an incomplete /
//! overlapping cover.

use crate::grid::SweepGrid;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use xr_types::{Error, Result};

fn shard_error(message: impl fmt::Display) -> Error {
    Error::invalid_parameter("shard spec", message.to_string())
}

fn merge_error(message: impl fmt::Display) -> Error {
    Error::invalid_parameter("shard merge", message.to_string())
}

/// One shard of a campaign: `index/count` with a 1-based index, parsed from
/// the `campaign --shard i/N` flag. The full (unsharded) campaign is the
/// degenerate spec `1/1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// A validated `index/count` spec.
    ///
    /// # Errors
    ///
    /// Rejects a zero count, the 0-based-looking index `0`, and an index
    /// past the count, each with a message naming the offending value.
    pub fn new(index: usize, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(shard_error("shard count must be at least 1"));
        }
        if index == 0 {
            return Err(shard_error(format!(
                "shard index is 1-based: `0/{count}` names no shard (use `1/{count}` through `{count}/{count}`)"
            )));
        }
        if index > count {
            return Err(shard_error(format!(
                "shard index {index} exceeds shard count {count}"
            )));
        }
        Ok(Self { index, count })
    }

    /// The whole campaign as a single shard (`1/1`).
    #[must_use]
    pub fn full() -> Self {
        Self { index: 1, count: 1 }
    }

    /// Parses an `i/N` token (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Rejects malformed tokens and the same invalid pairs as
    /// [`ShardSpec::new`].
    pub fn parse(token: &str) -> Result<Self> {
        let malformed = || shard_error(format!("`{token}` is not `<index>/<count>` (e.g. `2/4`)"));
        let (index, count) = token.split_once('/').ok_or_else(malformed)?;
        let index: usize = index.trim().parse().map_err(|_| malformed())?;
        let count: usize = count.trim().parse().map_err(|_| malformed())?;
        Self::new(index, count)
    }

    /// The 1-based shard index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of points this shard owns out of a grid of `total_points`.
    #[must_use]
    pub fn owned_len(&self, total_points: usize) -> usize {
        // Owned indices are index-1, index-1+N, index-1+2N, … < total.
        total_points
            .saturating_sub(self.index - 1)
            .div_ceil(self.count)
    }

    /// The original grid indices this shard owns, in canonical order.
    pub fn owned_indices(&self, total_points: usize) -> impl Iterator<Item = usize> {
        (self.index - 1..total_points).step_by(self.count)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for ShardSpec {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        Self::parse(s)
    }
}

/// The provenance record a shard CSV travels with: enough to prove two
/// shards came from the same campaign (seed + grid fingerprint), to place
/// the shard in the cover (spec), and to cross-check the artifact (rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// The campaign seed every replication seed derives from.
    pub campaign_seed: u64,
    /// [`SweepGrid::fingerprint`] of the swept grid (a caller whose rows
    /// depend on more than the grid and seed mixes that in).
    pub grid_fingerprint: u64,
    /// Number of operating points in the full grid (all shards together).
    pub points: usize,
    /// Which shard of how many this artifact is.
    pub shard: ShardSpec,
    /// Number of data rows in the shard CSV (header excluded).
    pub rows: usize,
}

impl ShardManifest {
    /// Serializes the manifest in the workspace's `key = value` spec style.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "# xr-sweep shard manifest v1\n\
             campaign_seed = {}\n\
             grid_fingerprint = {}\n\
             points = {}\n\
             shard = {}\n\
             rows = {}\n",
            self.campaign_seed, self.grid_fingerprint, self.points, self.shard, self.rows
        )
    }

    /// Parses a manifest rendered by [`ShardManifest::render`]. Blank lines
    /// and `#` comments are ignored; all five keys are required, each once.
    ///
    /// # Errors
    ///
    /// Rejects unknown, repeated and missing keys and malformed values,
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<Self> {
        let mut campaign_seed = None;
        let mut grid_fingerprint = None;
        let mut points = None;
        let mut shard = None;
        let mut rows = None;
        let mut seen = BTreeSet::new();
        for (number, raw) in text.lines().enumerate() {
            let line_number = number + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                merge_error(format!(
                    "manifest line {line_number}: `{raw}` is not `key = value`"
                ))
            })?;
            let (key, value) = (key.trim(), value.trim());
            if !seen.insert(key) {
                return Err(merge_error(format!(
                    "manifest line {line_number}: duplicate key `{key}`"
                )));
            }
            let bad_value = || {
                merge_error(format!(
                    "manifest line {line_number}: `{value}` is not a valid {key}"
                ))
            };
            match key {
                "campaign_seed" => {
                    campaign_seed = Some(value.parse::<u64>().map_err(|_| bad_value())?);
                }
                "grid_fingerprint" => {
                    grid_fingerprint = Some(value.parse::<u64>().map_err(|_| bad_value())?);
                }
                "points" => points = Some(value.parse::<usize>().map_err(|_| bad_value())?),
                "shard" => shard = Some(ShardSpec::parse(value)?),
                "rows" => rows = Some(value.parse::<usize>().map_err(|_| bad_value())?),
                _ => {
                    return Err(merge_error(format!(
                        "manifest line {line_number}: unknown key `{key}`"
                    )))
                }
            }
        }
        let require = |name: &str, value: Option<u64>| {
            value.ok_or_else(|| merge_error(format!("manifest is missing `{name}`")))
        };
        Ok(Self {
            campaign_seed: require("campaign_seed", campaign_seed)?,
            grid_fingerprint: require("grid_fingerprint", grid_fingerprint)?,
            points: points.ok_or_else(|| merge_error("manifest is missing `points`"))?,
            shard: shard.ok_or_else(|| merge_error("manifest is missing `shard`"))?,
            rows: rows.ok_or_else(|| merge_error("manifest is missing `rows`"))?,
        })
    }

    /// The manifest a shard run over `grid` should carry.
    #[must_use]
    pub fn for_grid(grid: &SweepGrid, campaign_seed: u64, shard: ShardSpec) -> Self {
        Self {
            campaign_seed,
            grid_fingerprint: grid.fingerprint(),
            points: grid.len(),
            shard,
            rows: shard.owned_len(grid.len()),
        }
    }
}

/// Validates a set of shard artifacts and interleaves their data rows back
/// into canonical grid order: merged row `j` is shard `(j % N) + 1`'s local
/// row `j / N`. Returns the merged rows; prepending the campaign header
/// reproduces the unsharded CSV byte for byte.
///
/// # Errors
///
/// Rejects an empty set, shards of different campaigns (seed or grid
/// fingerprint mismatch), disagreeing shard counts, duplicate or missing
/// shard indices (the cover must be disjoint and complete), and row counts
/// inconsistent with the manifest or with the interleaving.
pub fn merge_shard_rows(shards: &[(ShardManifest, Vec<String>)]) -> Result<Vec<String>> {
    let Some(((first, _), rest)) = shards.split_first() else {
        return Err(merge_error("no shards to merge"));
    };
    for (manifest, _) in rest {
        if manifest.campaign_seed != first.campaign_seed {
            return Err(merge_error(format!(
                "campaign seeds differ: shard {} ran with seed {}, shard {} with seed {}",
                first.shard, first.campaign_seed, manifest.shard, manifest.campaign_seed
            )));
        }
        if manifest.grid_fingerprint != first.grid_fingerprint {
            return Err(merge_error(format!(
                "grid fingerprints differ: shard {} swept grid {:#x}, shard {} swept grid {:#x} — shards must come from one grid",
                first.shard,
                first.grid_fingerprint,
                manifest.shard,
                manifest.grid_fingerprint
            )));
        }
        if manifest.shard.count() != first.shard.count() {
            return Err(merge_error(format!(
                "shard counts differ: {} vs {}",
                first.shard, manifest.shard
            )));
        }
        if manifest.points != first.points {
            return Err(merge_error(format!(
                "grid sizes differ: shard {} swept {} points, shard {} swept {}",
                first.shard, first.points, manifest.shard, manifest.points
            )));
        }
    }
    let count = first.shard.count();
    // Order the shards 1..=N and demand a disjoint, complete cover.
    let mut by_index: Vec<Option<&(ShardManifest, Vec<String>)>> = vec![None; count];
    for entry in shards {
        let slot = &mut by_index[entry.0.shard.index() - 1];
        if slot.is_some() {
            return Err(merge_error(format!(
                "duplicate shard {} — the cover must be disjoint",
                entry.0.shard
            )));
        }
        *slot = Some(entry);
    }
    if let Some(missing) = by_index.iter().position(Option::is_none) {
        return Err(merge_error(format!(
            "missing shard {}/{count} — the cover must be complete",
            missing + 1
        )));
    }
    let shards: Vec<&(ShardManifest, Vec<String>)> = by_index
        .into_iter()
        .map(|s| s.expect("cover checked"))
        .collect();
    let total = first.points;
    for (manifest, rows) in &shards {
        if rows.len() != manifest.rows {
            return Err(merge_error(format!(
                "shard {} declares {} rows but its CSV carries {}",
                manifest.shard,
                manifest.rows,
                rows.len()
            )));
        }
        let expected = manifest.shard.owned_len(total);
        if manifest.rows != expected {
            return Err(merge_error(format!(
                "shard {} carries {} rows but a round-robin cover of {total} points gives it {expected}",
                manifest.shard, manifest.rows
            )));
        }
    }
    let mut merged = Vec::with_capacity(total);
    for j in 0..total {
        merged.push(shards[j % count].1[j / count].clone());
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_partition_round_robin() {
        let shard = ShardSpec::parse("2/3").unwrap();
        assert_eq!(shard.index(), 2);
        assert_eq!(shard.count(), 3);
        assert_eq!(shard.to_string(), "2/3");
        assert_eq!(ShardSpec::parse("1/1").unwrap().count(), 1);
        assert_eq!("4/8".parse::<ShardSpec>().unwrap().index(), 4);

        // Round-robin by original point index: shard 2/3 owns 1, 4, 7, …
        let owned: Vec<usize> = shard.owned_indices(10).collect();
        assert_eq!(owned, vec![1, 4, 7]);
        assert_eq!(shard.owned_len(10), 3);
        // Every point lands on exactly one shard.
        for total in [0usize, 1, 7, 10, 96] {
            for count in [1usize, 2, 3, 8] {
                let mut seen = vec![0usize; total];
                let mut len_sum = 0;
                for index in 1..=count {
                    let s = ShardSpec::new(index, count).unwrap();
                    len_sum += s.owned_len(total);
                    for p in s.owned_indices(total) {
                        seen[p] += 1;
                    }
                }
                assert_eq!(len_sum, total);
                assert!(seen.iter().all(|&n| n == 1), "{count} shards over {total}");
            }
        }
    }

    #[test]
    fn invalid_specs_name_the_offence() {
        let err = |token: &str| ShardSpec::parse(token).unwrap_err().to_string();
        assert!(
            err("0/4").contains("shard index is 1-based"),
            "{}",
            err("0/4")
        );
        assert!(err("5/4").contains("shard index 5 exceeds shard count 4"));
        assert!(err("1/0").contains("shard count must be at least 1"));
        for token in ["", "3", "a/b", "1/", "/4", "1//2", "-1/4", "1.5/4"] {
            assert!(
                err(token).contains("is not `<index>/<count>`"),
                "`{token}`: {}",
                err(token)
            );
        }
    }

    #[test]
    fn manifests_round_trip_and_reject_garbage() {
        let manifest = ShardManifest {
            campaign_seed: 2024,
            grid_fingerprint: 0xDEAD_BEEF,
            points: 96,
            shard: ShardSpec::parse("2/3").unwrap(),
            rows: 32,
        };
        let text = manifest.render();
        assert_eq!(ShardManifest::parse(&text).unwrap(), manifest);

        let err = ShardManifest::parse("campaign_seed = 1\n").unwrap_err();
        assert!(err.to_string().contains("missing `grid_fingerprint`"));
        let err = ShardManifest::parse("bogus = 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown key `bogus`"));
        let err = ShardManifest::parse("rows\n").unwrap_err();
        assert!(err.to_string().contains("is not `key = value`"));
        let err = ShardManifest::parse("rows = many\n").unwrap_err();
        assert!(err.to_string().contains("not a valid rows"));
        // `render` writes a comment line and five keys; a repeat of any key
        // is line 7 and must not silently override the first value.
        for repeat in ["rows = 31", "campaign_seed = 2025", "shard = 1/3"] {
            let key = repeat.split(" =").next().unwrap();
            let err = ShardManifest::parse(&format!("{text}{repeat}\n")).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("line 7: duplicate key `{key}`")),
                "{err}"
            );
        }
    }

    fn fake_shards(count: usize, total: usize) -> Vec<(ShardManifest, Vec<String>)> {
        (1..=count)
            .map(|index| {
                let shard = ShardSpec::new(index, count).unwrap();
                let rows: Vec<String> = shard
                    .owned_indices(total)
                    .map(|p| format!("row{p}"))
                    .collect();
                (
                    ShardManifest {
                        campaign_seed: 7,
                        grid_fingerprint: 42,
                        points: total,
                        shard,
                        rows: rows.len(),
                    },
                    rows,
                )
            })
            .collect()
    }

    #[test]
    fn merge_interleaves_back_to_canonical_order() {
        for (count, total) in [(1usize, 5usize), (2, 5), (3, 10), (8, 9), (3, 3)] {
            let mut shards = fake_shards(count, total);
            shards.reverse(); // input order must not matter
            let merged = merge_shard_rows(&shards).unwrap();
            let expected: Vec<String> = (0..total).map(|p| format!("row{p}")).collect();
            assert_eq!(merged, expected, "{count} shards over {total} points");
        }
    }

    #[test]
    fn merge_rejects_inconsistent_covers() {
        assert!(merge_shard_rows(&[])
            .unwrap_err()
            .to_string()
            .contains("no shards"));

        let mut shards = fake_shards(3, 10);
        shards[1].0.campaign_seed = 8;
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("campaign seeds differ"));

        let mut shards = fake_shards(3, 10);
        shards[2].0.grid_fingerprint = 43;
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("grid fingerprints differ"));

        let mut shards = fake_shards(3, 10);
        shards[0].0.shard = ShardSpec::new(1, 4).unwrap();
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("shard counts differ"));

        let mut shards = fake_shards(3, 10);
        shards[2] = shards[1].clone();
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("duplicate shard 2/3"));

        let shards = fake_shards(3, 10);
        assert!(merge_shard_rows(&shards[..2])
            .unwrap_err()
            .to_string()
            .contains("missing shard 3/3"));

        let mut shards = fake_shards(3, 10);
        shards[0].1.pop();
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("declares 4 rows but its CSV carries 3"));

        // A consistent-looking but short shard (manifest and CSV agree,
        // but not with the grid size) is caught by the cover check.
        let mut shards = fake_shards(3, 10);
        shards[0].1.pop();
        shards[0].0.rows -= 1;
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("round-robin cover"));

        let mut shards = fake_shards(3, 10);
        shards[1].0.points = 9;
        assert!(merge_shard_rows(&shards)
            .unwrap_err()
            .to_string()
            .contains("grid sizes differ"));
    }
}
