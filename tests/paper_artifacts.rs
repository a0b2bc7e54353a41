//! Golden pin of the paper's artifacts: every entry of the artifact
//! registry, rendered at seed 2024 by the same function that writes its
//! CSV, must equal `baselines/paper/<scale>/<name>.csv` byte for byte, at
//! quick and paper scale, and at paper scale also with every session on the
//! scalar reference engine (`reproduce --paper-scale --scalar-sessions`).
//! Every entry needs a golden and every golden an entry, so no artifact
//! ships unpinned and no golden outlives its entry.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use xr_experiments::{output, ExperimentContext, ARTIFACTS};

/// The seed every golden was made with (`XR_CAMPAIGN_SEED` unset).
const GOLDEN_SEED: u64 = 2024;

fn check_goldens(scale: &str, ctx: &ExperimentContext) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines/paper")
        .join(scale);
    let goldens: BTreeSet<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let entries: BTreeSet<String> = ARTIFACTS.iter().map(|a| a.csv_name()).collect();
    assert_eq!(
        entries.len(),
        ARTIFACTS.len(),
        "registry names must be unique"
    );
    assert_eq!(
        goldens, entries,
        "{scale}: the goldens and the registry must name the same CSVs"
    );
    for artifact in ARTIFACTS {
        let (rows, _) = (artifact.run)(ctx).unwrap_or_else(|e| panic!("{}: {e}", artifact.name));
        let golden = fs::read_to_string(dir.join(artifact.csv_name())).unwrap();
        let csv = output::render_csv(&artifact.columns(), &rows);
        assert_eq!(
            csv, golden,
            "{scale}/{} differs from its golden",
            artifact.name
        );
    }
}

#[test]
fn quick_artifacts_match_their_goldens() {
    check_goldens("quick", &ExperimentContext::quick(GOLDEN_SEED).unwrap());
}

#[test]
fn paper_scale_artifacts_match_their_goldens() {
    check_goldens(
        "paper-scale",
        &ExperimentContext::paper_scale(GOLDEN_SEED).unwrap(),
    );
}

#[test]
fn paper_scale_artifacts_match_their_goldens_on_the_scalar_engine() {
    check_goldens(
        "paper-scale",
        &ExperimentContext::paper_scale(GOLDEN_SEED)
            .unwrap()
            .with_scalar_sessions(),
    );
}
