//! The registry of the paper's evaluation artifacts (Section VIII).
//!
//! Each [`ARTIFACTS`] entry names its CSV, its console title and header,
//! the numbers the paper states for it, and a function that computes its
//! rows from an [`ExperimentContext`]. The `reproduce` binary runs the
//! entries in table order, and the golden test pins each one against
//! `baselines/paper/`.

use crate::ablation::AblationStudy;
use crate::aoi_experiments::{aoi_over_time, roi_staircase, RoiPoint};
use crate::comparison::{comparison_sweep, Metric};
use crate::context::ExperimentContext;
use crate::errors::ErrorSummary;
use crate::figures::{energy_sweep, latency_sweep, SweepResult};
use crate::regression_report::RegressionReport;
use crate::tables;
use xr_types::{ExecutionTarget, Result};

/// An artifact's CSV rows, one cell per header column.
pub type Rows = Vec<Vec<String>>;

/// What an artifact computes: its rows, and a one-line console summary
/// that sets the measured value beside the paper's.
pub type Rendered = (Rows, Option<String>);

/// One paper artifact.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The artifact's name and CSV stem, e.g. `fig4a`.
    pub name: &'static str,
    /// The console banner.
    pub title: &'static str,
    /// The CSV header line; its comma-separated cells head the console
    /// table too.
    pub header: &'static str,
    /// The numbers the paper states for this artifact, if any.
    pub paper: &'static [f64],
    /// Computes the rows and the summary.
    pub run: fn(&ExperimentContext) -> Result<Rendered>,
}

impl Artifact {
    /// The CSV file name: the artifact's name plus `.csv`.
    #[must_use]
    pub fn csv_name(&self) -> String {
        format!("{}.csv", self.name)
    }

    /// The header's cells.
    #[must_use]
    pub fn columns(&self) -> Vec<&'static str> {
        self.header.split(',').collect()
    }
}

/// Every paper artifact, in the order `reproduce` runs them.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1",
        title: "Table I — XR and edge devices used in the experiments",
        header: "name,model,soc,cpu_cores,cpu_ghz,gpu,ram_gb,mem_gbps,os,wifi,release",
        paper: &[],
        run: |_| Ok((tables::table1_rows(), None)),
    },
    Artifact {
        name: "table2",
        title: "Table II — CNNs used in this research",
        header: "model,depth_layers,size_mb,depth_scale,gpu_support,quantized,placement",
        paper: &[],
        run: |_| Ok((tables::table2_rows(), None)),
    },
    Artifact {
        name: "fig4a",
        title: "Fig. 4(a) — end-to-end latency, local inference (ms)",
        header: "frame_size,cpu_ghz,gt_ms,proposed_ms,error_%",
        paper: &[ErrorSummary::PAPER_PERCENT[0]],
        run: |ctx| Ok(fig4(&latency_sweep(ctx, ExecutionTarget::Local)?, 0)),
    },
    Artifact {
        name: "fig4b",
        title: "Fig. 4(b) — end-to-end latency, remote inference (ms)",
        header: "frame_size,cpu_ghz,gt_ms,proposed_ms,error_%",
        paper: &[ErrorSummary::PAPER_PERCENT[1]],
        run: |ctx| Ok(fig4(&latency_sweep(ctx, ExecutionTarget::Remote)?, 1)),
    },
    Artifact {
        name: "fig4c",
        title: "Fig. 4(c) — end-to-end energy, local inference (mJ)",
        header: "frame_size,cpu_ghz,gt_mj,proposed_mj,error_%",
        paper: &[ErrorSummary::PAPER_PERCENT[2]],
        run: |ctx| Ok(fig4(&energy_sweep(ctx, ExecutionTarget::Local)?, 2)),
    },
    Artifact {
        name: "fig4d",
        title: "Fig. 4(d) — end-to-end energy, remote inference (mJ)",
        header: "frame_size,cpu_ghz,gt_mj,proposed_mj,error_%",
        paper: &[ErrorSummary::PAPER_PERCENT[3]],
        run: |ctx| Ok(fig4(&energy_sweep(ctx, ExecutionTarget::Remote)?, 3)),
    },
    Artifact {
        name: "fig4e",
        title: "Fig. 4(e) — AoI over time at different information-generation frequencies (ms)",
        header: "freq_hz,time_ms,gt_aoi_ms,proposed_aoi_ms",
        paper: &[],
        run: |ctx| {
            let sweep = aoi_over_time(ctx)?;
            let mae = sweep.mean_absolute_error_ms();
            let summary = format!("mean absolute error across all series: {mae:.2} ms");
            Ok((sweep.rows(), Some(summary)))
        },
    },
    Artifact {
        name: "fig4f",
        title: "Fig. 4(f) — AoI and RoI for a 100 Hz sensor, 5 ms update requirement",
        header: "time_ms,aoi_ms,roi",
        paper: &[],
        run: |ctx| {
            let cells = |p: &RoiPoint| {
                vec![
                    format!("{:.1}", p.time_ms),
                    format!("{:.2}", p.aoi_ms),
                    format!("{:.3}", p.roi),
                ]
            };
            Ok((roi_staircase(ctx)?.iter().map(cells).collect(), None))
        },
    },
    Artifact {
        name: "fig5a",
        title: "Fig. 5(a) — normalized accuracy of end-to-end latency, remote inference (%)",
        header: "frame_size,GT,Proposed,FACT,LEAF",
        paper: &Metric::Latency.paper_gain_pp(),
        run: |ctx| fig5(ctx, Metric::Latency),
    },
    Artifact {
        name: "fig5b",
        title: "Fig. 5(b) — normalized accuracy of end-to-end energy, remote inference (%)",
        header: "frame_size,GT,Proposed,FACT,LEAF",
        paper: &Metric::Energy.paper_gain_pp(),
        run: |ctx| fig5(ctx, Metric::Energy),
    },
    Artifact {
        name: "error_summary",
        title: "Mean error of the proposed model vs ground truth (%)",
        header: "experiment,measured_%,paper_%",
        paper: &ErrorSummary::PAPER_PERCENT,
        run: |ctx| {
            let summary = ErrorSummary::compute(ctx)?;
            let worst = summary.worst_percent();
            Ok((summary.rows(), Some(format!("worst case: {worst:.2}%"))))
        },
    },
    Artifact {
        name: "regression_report",
        title: "Regression sub-model fits (R²)",
        header: "model,train_R2,held_out_R2,paper_R2",
        paper: &RegressionReport::PAPER_R_SQUARED,
        run: |ctx| {
            let records = if ctx.is_paper_scale() {
                119_465
            } else {
                20_000
            };
            let report = RegressionReport::compute(ctx, records)?;
            let (train, test) = (report.train_records, report.test_records);
            let summary = format!(
                "training records: {train}, held-out records: {test} (paper: 119,465 / 36,083)"
            );
            Ok((report.rows(), Some(summary)))
        },
    },
    Artifact {
        name: "ablation_table",
        title: "Ablation study — remote latency sweep at 2 GHz",
        header: "variant,mean_error_%,normalized_accuracy_%",
        paper: &[],
        run: |ctx| {
            let study = AblationStudy::run(ctx)?;
            let full = study.full_model().mean_error_percent;
            let summary =
                format!("full model error {full:.2}% — each removed ingredient increases it");
            Ok((study.table_rows(), Some(summary)))
        },
    },
];

/// The registry entry with this name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|artifact| artifact.name == name)
}

/// A Fig. 4(a)–(d) sweep beside the `i`-th mean error the paper reports.
fn fig4(sweep: &SweepResult, i: usize) -> Rendered {
    let (measured, paper) = (sweep.mean_error_percent(), ErrorSummary::PAPER_PERCENT[i]);
    let summary = format!("mean error: {measured:.2}% (paper: {paper:.2}%)");
    (sweep.rows(), Some(summary))
}

/// A Fig. 5 comparison beside the accuracy gains the paper reports.
fn fig5(ctx: &ExperimentContext, metric: Metric) -> Result<Rendered> {
    let sweep = comparison_sweep(ctx, metric)?;
    let (vs_fact, vs_leaf) = sweep.improvement_over_baselines();
    let [paper_fact, paper_leaf] = metric.paper_gain_pp();
    let summary = format!(
        "accuracy: proposed {:.2}%, FACT {:.2}%, LEAF {:.2}% — improvement {vs_fact:.2} pp over FACT (paper: {paper_fact:.2}), {vs_leaf:.2} pp over LEAF (paper: {paper_leaf:.2})",
        sweep.proposed_accuracy(),
        sweep.fact_accuracy(),
        sweep.leaf_accuracy(),
    );
    Ok((sweep.rows(), Some(summary)))
}
