//! Regenerates the paper's evaluation artifacts, the entries of
//! [`xr_experiments::ARTIFACTS`]:
//!
//! ```text
//! reproduce [--paper-scale] [--scalar-sessions] [all | name...]
//! ```
//!
//! With no name, or with `all`, every entry runs in registry order. Each
//! writes `<name>.csv` under `target/experiments/`, then prints its table
//! and summary. `--paper-scale` calibrates on the paper-scale measurement
//! campaign; `--scalar-sessions` simulates through the scalar reference
//! engine. Any other argument, or a malformed `XR_CAMPAIGN_SEED` /
//! `XR_SWEEP_WORKERS`, exits with status 2 before any work. A failed
//! calibration, experiment or CSV write exits with status 1 as
//! `reproduce: <name>: <error>`.

use xr_experiments::{artifacts, output, CampaignArgs, ExperimentContext, ARTIFACTS};

/// Reports a failed run and exits with status 1.
fn fail(what: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("reproduce: {what}: {error}");
    std::process::exit(1)
}

fn main() {
    let args = CampaignArgs::experiment_from_env();
    let ctx = args
        .context(ExperimentContext::seed_from_env())
        .unwrap_or_else(|error| fail("calibration", error));
    let selected: Vec<_> = if args.artifacts.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        args.artifacts
            .iter()
            .filter_map(|name| artifacts::find(name))
            .collect()
    };
    for artifact in selected {
        let (rows, summary) = (artifact.run)(&ctx).unwrap_or_else(|e| fail(artifact.name, e));
        let columns = artifact.columns();
        let path = output::write_csv(&artifact.csv_name(), &columns, &rows)
            .unwrap_or_else(|e| fail(artifact.name, e));
        println!("== {} ==", artifact.title);
        print!("{}", output::render_table(&columns, &rows));
        println!("(csv written to {})", path.display());
        if let Some(summary) = summary {
            println!("{summary}");
        }
        println!();
    }
}
