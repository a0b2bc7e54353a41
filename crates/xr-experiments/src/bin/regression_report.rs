//! Regression-fit report: R² of the four regression sub-models, against the
//! paper's published values.

use xr_experiments::{output, CampaignArgs, ExperimentContext, RegressionReport};

fn main() {
    let args = CampaignArgs::experiment_from_env();
    let ctx = ExperimentContext::from_flags(&args);
    let records = if args.paper_scale { 119_465 } else { 20_000 };
    let report = RegressionReport::compute(&ctx, records).expect("regression report failed");
    output::print_experiment(
        "Regression sub-model fits (R²)",
        &["model", "train_R2", "held_out_R2", "paper_R2"],
        &report.rows(),
        "regression_report.csv",
    );
    println!(
        "training records: {}, held-out records: {} (paper: 119,465 / 36,083)",
        report.train_records, report.test_records
    );
}
