//! Runs every experiment in sequence and prints a consolidated report — the
//! source of the numbers recorded in `EXPERIMENTS.md`.

use xr_experiments::aoi_experiments::{aoi_over_time, roi_staircase};
use xr_experiments::comparison::{comparison_sweep, Metric};
use xr_experiments::figures::{energy_sweep, latency_sweep};
use xr_experiments::{
    output, tables, CampaignArgs, ErrorSummary, ExperimentContext, RegressionReport,
};
use xr_types::ExecutionTarget;

fn main() {
    let args = CampaignArgs::experiment_from_env();
    let ctx = ExperimentContext::from_flags(&args);

    output::print_experiment(
        "Table I — devices",
        &tables::table1_header(),
        &tables::table1_rows(),
        "table1.csv",
    );
    output::print_experiment(
        "Table II — CNNs",
        &tables::table2_header(),
        &tables::table2_rows(),
        "table2.csv",
    );

    let figures = [
        (
            "Fig. 4(a) latency/local (ms)",
            ExecutionTarget::Local,
            true,
            "fig4a.csv",
            2.74,
        ),
        (
            "Fig. 4(b) latency/remote (ms)",
            ExecutionTarget::Remote,
            true,
            "fig4b.csv",
            3.23,
        ),
        (
            "Fig. 4(c) energy/local (mJ)",
            ExecutionTarget::Local,
            false,
            "fig4c.csv",
            3.52,
        ),
        (
            "Fig. 4(d) energy/remote (mJ)",
            ExecutionTarget::Remote,
            false,
            "fig4d.csv",
            5.38,
        ),
    ];
    for (title, execution, is_latency, csv, paper_error) in figures {
        let sweep = if is_latency {
            latency_sweep(&ctx, execution)
        } else {
            energy_sweep(&ctx, execution)
        }
        .expect("sweep failed");
        output::print_experiment(
            title,
            &[
                "frame_size",
                "cpu_ghz",
                "ground_truth",
                "proposed",
                "error_%",
            ],
            &sweep.rows(),
            csv,
        );
        println!(
            "{title}: mean error {:.2}% (paper {paper_error:.2}%)\n",
            sweep.mean_error_percent()
        );
    }

    let aoi = aoi_over_time(&ctx).expect("AoI experiment failed");
    output::print_experiment(
        "Fig. 4(e) AoI over time (ms)",
        &["freq_hz", "time_ms", "gt_aoi_ms", "proposed_aoi_ms"],
        &aoi.rows(),
        "fig4e.csv",
    );
    println!("Fig. 4(e): MAE {:.2} ms\n", aoi.mean_absolute_error_ms());

    let staircase = roi_staircase(&ctx).expect("RoI experiment failed");
    let rows: Vec<Vec<String>> = staircase
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.time_ms),
                format!("{:.2}", p.aoi_ms),
                format!("{:.3}", p.roi),
            ]
        })
        .collect();
    output::print_experiment(
        "Fig. 4(f) AoI/RoI staircase (100 Hz sensor)",
        &["time_ms", "aoi_ms", "roi"],
        &rows,
        "fig4f.csv",
    );

    for (metric, csv, paper_fact, paper_leaf) in [
        (Metric::Latency, "fig5a.csv", 17.59, 7.49),
        (Metric::Energy, "fig5b.csv", 15.30, 8.71),
    ] {
        let sweep = comparison_sweep(&ctx, metric).expect("comparison failed");
        output::print_experiment(
            &format!("{} normalized accuracy (%)", metric.figure()),
            &["frame_size", "GT", "Proposed", "FACT", "LEAF"],
            &sweep.rows(),
            csv,
        );
        let (vs_fact, vs_leaf) = sweep.improvement_over_baselines();
        println!(
            "{}: proposed {:.2}%, FACT {:.2}%, LEAF {:.2}% | improvement {:.2} pp vs FACT (paper {paper_fact}), {:.2} pp vs LEAF (paper {paper_leaf})\n",
            metric.figure(),
            sweep.proposed_accuracy(),
            sweep.fact_accuracy(),
            sweep.leaf_accuracy(),
            vs_fact,
            vs_leaf
        );
    }

    let summary = ErrorSummary::compute(&ctx).expect("error summary failed");
    output::print_experiment(
        "Mean-error summary (%)",
        &["experiment", "measured_%", "paper_%"],
        &summary.rows(),
        "error_summary.csv",
    );

    let records = if args.paper_scale { 119_465 } else { 20_000 };
    let regression = RegressionReport::compute(&ctx, records).expect("regression report failed");
    output::print_experiment(
        "Regression fits (R²)",
        &["model", "train_R2", "held_out_R2", "paper_R2"],
        &regression.rows(),
        "regression_report.csv",
    );
    println!(
        "regression records: {} train / {} held-out",
        regression.train_records, regression.test_records
    );
}
