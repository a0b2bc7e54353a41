//! # xr-experiments
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (Section VIII) against the simulated testbed:
//!
//! | Artifact | Module | Binary |
//! |---|---|---|
//! | Table I (devices) | [`tables`] | `table1` |
//! | Table II (CNNs) | [`tables`] | `table2` |
//! | Fig. 4(a)/(b) end-to-end latency, local/remote | [`figures`] | `fig4a`, `fig4b` |
//! | Fig. 4(c)/(d) end-to-end energy, local/remote | [`figures`] | `fig4c`, `fig4d` |
//! | Fig. 4(e)/(f) AoI and RoI | [`aoi_experiments`] | `fig4e`, `fig4f` |
//! | Fig. 5(a)/(b) comparison with FACT and LEAF | [`comparison`] | `fig5a`, `fig5b` |
//! | §VIII-A/B mean-error summary | [`errors`] | `error_summary` |
//! | Eqs. 3/10/12/21 regression fits | [`regression_report`] | `regression_report` |
//! | Consolidated twelve-axis replicated sweep | [`campaign`] | `campaign` |
//! | Mobility: latency/handoffs vs speed × radius | [`campaign`] | `campaign --grid configs/fig-mobility.grid` |
//! | Training scaling: CI width vs campaign size | [`campaign`] | `campaign --grid configs/fig-training-scaling.grid` |
//! | Contention: latency knee vs edge population | [`campaign`] | `campaign --grid configs/campaign-contention.grid` |
//! | Topology: migration cost vs edge-site density | [`campaign`] | `campaign --grid configs/fig-topology.grid` |
//!
//! Each binary prints the rows/series the paper reports and writes a CSV
//! artifact under `target/experiments/`; `campaign` streams its rows to
//! `campaign.csv` and prints a one-line summary. The extension figures are
//! grid files, so their rows are the campaign CSV's 27 columns. `run_all`
//! chains the paper artifacts in one invocation.
//!
//! Every sweep is executed by the shared campaign engine in `xr-sweep`: the
//! grids run in parallel over scoped worker threads (`XR_SWEEP_WORKERS`
//! overrides the count) and produce bit-identical rows for any worker count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod aoi_experiments;
pub mod campaign;
pub mod campaign_args;
pub mod comparison;
pub mod context;
pub mod errors;
pub mod figures;
pub mod output;
pub mod regression_report;
pub mod shard_campaign;
pub mod tables;

pub use ablation::{AblationRow, AblationStudy};
pub use aoi_experiments::{AoiPoint, AoiSweep, RoiPoint};
pub use campaign::{CampaignRow, ReplicateStats};
pub use campaign_args::CampaignArgs;
pub use comparison::{ComparisonPoint, ComparisonSweep, Metric};
pub use context::{parse_campaign_seed, ExperimentContext};
pub use errors::ErrorSummary;
pub use figures::{SweepPoint, SweepResult};
pub use regression_report::RegressionReport;
pub use shard_campaign::{
    merge_campaign_csvs, run_campaign_shard_with, run_campaign_shard_with_progress, ShardRunReport,
};
