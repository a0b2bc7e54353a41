//! # xr-experiments
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (Section VIII) against the simulated testbed:
//!
//! | Artifact | Module | Command |
//! |---|---|---|
//! | Table I (devices) | [`tables`] | `reproduce table1` |
//! | Table II (CNNs) | [`tables`] | `reproduce table2` |
//! | Fig. 4(a)/(b) end-to-end latency, local/remote | [`figures`] | `reproduce fig4a fig4b` |
//! | Fig. 4(c)/(d) end-to-end energy, local/remote | [`figures`] | `reproduce fig4c fig4d` |
//! | Fig. 4(e)/(f) AoI and RoI | [`aoi_experiments`] | `reproduce fig4e fig4f` |
//! | Fig. 5(a)/(b) comparison with FACT and LEAF | [`comparison`] | `reproduce fig5a fig5b` |
//! | §VIII-A/B mean-error summary | [`errors`] | `reproduce error_summary` |
//! | Eqs. 3/10/12/21 regression fits | [`regression_report`] | `reproduce regression_report` |
//! | Ablation of the latency model | [`ablation`] | `reproduce ablation_table` |
//! | Consolidated twelve-axis replicated sweep | [`campaign`] | `campaign` |
//! | Mobility: latency/handoffs vs speed × radius | [`campaign`] | `campaign --grid configs/fig-mobility.grid` |
//! | Training scaling: CI width vs campaign size | [`campaign`] | `campaign --grid configs/fig-training-scaling.grid` |
//! | Contention: latency knee vs edge population | [`campaign`] | `campaign --grid configs/campaign-contention.grid` |
//! | Topology: migration cost vs edge-site density | [`campaign`] | `campaign --grid configs/fig-topology.grid` |
//!
//! `reproduce` runs the [`artifacts::ARTIFACTS`] entries it names (all of
//! them by default): each prints its rows and writes `<name>.csv` under
//! `target/experiments/`, and `baselines/paper/` pins every CSV.
//! `campaign` streams its rows to `campaign.csv` and prints a one-line
//! summary. The extension figures are grid files, so their rows are the
//! campaign CSV's 27 columns.
//!
//! Every sweep is executed by the shared campaign engine in `xr-sweep`: the
//! grids run in parallel over scoped worker threads (`XR_SWEEP_WORKERS`
//! overrides the count) and produce bit-identical rows for any worker count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod aoi_experiments;
pub mod artifacts;
pub mod campaign;
pub mod campaign_args;
pub mod comparison;
pub mod context;
pub mod errors;
pub mod figures;
mod fixed;
pub mod output;
pub mod regression_report;
pub mod shard_campaign;
pub mod tables;

pub use ablation::{AblationRow, AblationStudy};
pub use aoi_experiments::{AoiPoint, AoiSweep, RoiPoint};
pub use artifacts::{Artifact, ARTIFACTS};
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
