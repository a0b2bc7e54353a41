//! # xr-sweep
//!
//! The measurement-campaign engine behind every figure sweep in the
//! workspace. The paper's validation story (Figs. 4–5, Tables III–IV) is a
//! grid sweep — frame size × CPU clock × execution target — and related
//! frameworks (Lecci et al.'s XR traffic framework, Laha et al.'s 5G-NR
//! provisioning study) treat the *campaign* as the first-class object. This
//! crate does the same for the xr-perf workspace:
//!
//! - [`SweepGrid`] enumerates operating points over frame size, CPU clock,
//!   execution target, client device, wireless condition, mobility
//!   condition (speed × coverage radius), and measurement-campaign size
//!   (frames per session — the training-set scaling axis) in a fixed
//!   row-major order (campaign size → device → wireless → mobility →
//!   execution → clock → frame size, frame size innermost — the ordering
//!   the Fig. 4 panels print). A grid also carries a per-point
//!   `replications` count: how many independently seeded sessions each
//!   operating point is measured with.
//! - [`CampaignRunner`] executes the points with `std::thread::scope` over a
//!   configurable worker count. Each point's random seed is derived
//!   deterministically from `(campaign_seed, point_index)` via
//!   [`point_seed`] — and each replication's from
//!   `(campaign_seed, point_index, rep_index)` via [`replication_seed`],
//!   both thin wrappers over the workspace-wide SplitMix64 chaining in
//!   [`xr_types::seed`] — so campaign results are **bit-identical
//!   regardless of thread count or scheduling order**.
//! - [`spec::parse_grid_spec`] turns a `key = value` grid file into a
//!   [`SweepGrid`], so campaigns are data-defined (`campaign --grid
//!   <file>`), not recompiled.
//! - [`InOrderCollector`] streams completed results back into point order so
//!   rows can be appended to the existing CSV output layer as they finish,
//!   without ever reordering the artifact. Its hold-back window is bounded
//!   (default [`runner::DEFAULT_REORDER_CAP`]): one slow point applies
//!   backpressure to run-ahead workers instead of buffering the campaign in
//!   memory.
//! - [`ShardSpec`] partitions a campaign's points round-robin across `N`
//!   independent shard processes (`--shard i/N`), [`ShardManifest`] records
//!   what a shard's CSV covers, and [`merge_shard_rows`] interleaves shard
//!   CSVs back into the canonical order — byte-identical to an unsharded
//!   run, validated against the manifests' campaign seed, grid fingerprint
//!   ([`SweepGrid::fingerprint`]), and disjoint-complete cover.
//! - [`ShardCheckpoint`] gives each shard an append-only, fsync'd record of
//!   completed points, so a killed shard resumes at the last completed unit
//!   instead of recomputing from scratch; torn tails are truncated away and
//!   stale checkpoints (different grid/seed/shard) are refused.
//!
//! The experiment drivers in `xr-experiments` (`figures`, `comparison`,
//! `ablation`, the `reproduce` and `campaign` binaries) all drive this one
//! engine instead of hand-rolled sequential loops.
//!
//! ## Determinism contract
//!
//! A campaign's output is a pure function of `(grid, campaign_seed,
//! evaluation function)`. Worker count only changes wall-clock time. This is
//! enforced by construction — workers never share mutable state with the
//! evaluation closure, per-point seeds never depend on scheduling — and
//! checked by the `sweep_campaign` integration tests and by `grid_pins`,
//! which runs every checked-in grid file at one and at three workers
//! against its checked-in CSV.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod collector;
pub mod grid;
pub mod runner;
pub mod seed;
pub mod shard;
pub mod spec;

pub use checkpoint::{CheckpointHeader, ShardCheckpoint, DEFAULT_SYNC_EVERY};
pub use collector::InOrderCollector;
pub use grid::{MobilityCondition, OperatingPoint, SweepGrid, WirelessCondition};
pub use runner::{CampaignRunner, PointContext, DEFAULT_REORDER_CAP};
pub use seed::{point_seed, replication_seed};
pub use shard::{merge_shard_rows, ShardManifest, ShardSpec};
pub use spec::parse_grid_spec;
