//! Statistical acceptance of the PR-8 draw-scheme re-key (cached Box–Muller
//! pair + vectorized transcendental kernels), and the cross-build
//! determinism pin for the re-keyed campaign artifacts.
//!
//! The checked-in baselines under `baselines/draw_scheme/` hold three runs
//! of every campaign grid: the old PR-7 scheme at seed 2024, the old scheme
//! reseeded to 2025 (the *same-scheme null* — how far two statistically
//! equivalent campaigns drift), and the re-keyed PR-8 scheme at seed 2024.
//! A sanctioned re-key is accepted when the old→new shift is no larger than
//! the reseed null, per `xr_stats::equivalence`.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use xr_experiments::campaign::quick_grid;
use xr_experiments::shard_campaign::{checkpoint_path, manifest_path};
use xr_experiments::{run_campaign_shard_with, ExperimentContext};
use xr_integration::config_spec;
use xr_stats::equivalence::{compare_campaigns, EquivalenceReport};
use xr_sweep::{parse_grid_spec, ShardSpec, SweepGrid};

const GRIDS: [&str; 4] = ["quick", "mobility", "contention", "topology"];

fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn baseline(name: &str) -> String {
    let path = repo_path("baselines/draw_scheme").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Pools the per-grid diffs between two baseline run prefixes.
fn pooled_diff(prefix_a: &str, prefix_b: &str) -> EquivalenceReport {
    GRIDS
        .iter()
        .map(|grid| {
            let a = baseline(&format!("{prefix_a}-{grid}.csv"));
            let b = baseline(&format!("{prefix_b}-{grid}.csv"));
            compare_campaigns(&a, &b)
                .unwrap_or_else(|e| panic!("{prefix_a} vs {prefix_b} on {grid}: {e}"))
        })
        .reduce(|acc, r| acc.pooled(&r))
        .expect("at least one grid")
}

#[test]
fn rekey_shift_is_within_the_same_scheme_reseed_null() {
    let null = pooled_diff("pr7-seed2024", "pr7-seed2025");
    let rekey = pooled_diff("pr7-seed2024", "pr8-seed2024");
    eprintln!(
        "reseed null: {null:?} (outside-CI rate {:.4})",
        null.outside_ci_rate()
    );
    eprintln!(
        "re-key:      {rekey:?} (outside-CI rate {:.4})",
        rekey.outside_ci_rate()
    );

    // The pooled baselines must be substantial enough for the rates to mean
    // something: 4 grids × (96 + 6 + 6 + 8 rows) × 2 metric triples × 2
    // directions = 464 containment checks.
    assert_eq!(null.comparisons, 464);
    assert_eq!(rekey.comparisons, null.comparisons);

    // The reseed null itself must be a real perturbation, not a copy of the
    // reference — otherwise the test would accept only byte-identity.
    assert!(null.mean_rel_shift > 0.0, "reseed null collapsed to zero");

    // Acceptance: the re-key drifts no more than an ordinary reseed. The
    // margins leave room for the discreteness of the outside-CI count (a
    // handful of borderline points) without letting a genuine distribution
    // change through — a biased re-key moves *every* mean, which multiplies
    // the pooled shift far beyond 1.5× the null.
    assert!(
        rekey.outside_ci_rate() <= null.outside_ci_rate() + 0.05,
        "re-key outside-CI rate {:.4} exceeds reseed null {:.4} + 0.05",
        rekey.outside_ci_rate(),
        null.outside_ci_rate()
    );
    assert!(
        rekey.mean_rel_shift <= null.mean_rel_shift * 1.5,
        "re-key mean shift {:.6} exceeds 1.5× reseed null {:.6}",
        rekey.mean_rel_shift,
        null.mean_rel_shift
    );
    assert!(
        rekey.max_rel_shift <= null.max_rel_shift * 1.5,
        "re-key max shift {:.6} exceeds 1.5× reseed null {:.6}",
        rekey.max_rel_shift,
        null.max_rel_shift
    );
}

#[test]
fn analytic_model_columns_are_untouched_by_the_rekey() {
    // The proposed-model columns are closed-form (no simulation draws), so
    // the re-key must leave them byte-identical in every grid.
    for grid in GRIDS {
        let old = baseline(&format!("pr7-seed2024-{grid}.csv"));
        let new = baseline(&format!("pr8-seed2024-{grid}.csv"));
        let header: Vec<&str> = old.lines().next().unwrap().split(',').collect();
        let analytic: Vec<usize> = header
            .iter()
            .enumerate()
            .filter(|(_, name)| name.starts_with("proposed_"))
            .map(|(i, _)| i)
            .collect();
        assert!(!analytic.is_empty());
        for (line_old, line_new) in old.lines().zip(new.lines()).skip(1) {
            let fields_old: Vec<&str> = line_old.split(',').collect();
            let fields_new: Vec<&str> = line_new.split(',').collect();
            for &i in &analytic {
                assert_eq!(
                    fields_old[i], fields_new[i],
                    "analytic column {} drifted on {grid}",
                    header[i]
                );
            }
        }
    }
}

/// The CSV a run without `--shard` writes (header line, one row per point,
/// trailing newline): shard 1/1, synced at the end, into a file of its own.
fn campaign_csv(ctx: &ExperimentContext, grid: &SweepGrid) -> String {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let csv_path =
        std::env::temp_dir().join(format!("xr-draw-scheme-{}-{run}.csv", std::process::id()));
    run_campaign_shard_with(
        ctx,
        grid,
        &ctx.runner(),
        ShardSpec::full(),
        &csv_path,
        usize::MAX,
    )
    .expect("campaign failed");
    let csv = std::fs::read_to_string(&csv_path).expect("campaign CSV is UTF-8");
    for path in [
        checkpoint_path(&csv_path),
        manifest_path(&csv_path),
        csv_path,
    ] {
        std::fs::remove_file(path).unwrap();
    }
    csv
}

fn config_grid(name: &str) -> SweepGrid {
    parse_grid_spec(&config_spec(&format!("campaign-{name}.grid")))
        .expect("checked-in grid spec must parse")
}

#[test]
fn checked_in_pr8_baselines_match_a_fresh_in_process_run() {
    // Cross-build determinism: the pinned CSVs were produced by the release
    // `campaign` binary; this re-derives them in-process (different build
    // profile, different process, in-memory sink) and requires byte
    // equality. The transcendental kernels are exact-arithmetic by
    // contract, so optimization level must not change a single bit.
    let ctx = ExperimentContext::quick(2024).unwrap();
    assert_eq!(
        campaign_csv(&ctx, &quick_grid()),
        baseline("pr8-seed2024-quick.csv"),
        "quick-grid campaign diverged from the checked-in PR-8 baseline"
    );
    // The contention baseline predates the grid file's move to the
    // contention figure's five replications; it was made at three.
    let grids = [
        ("mobility", config_grid("mobility")),
        ("contention", config_grid("contention").with_replications(3)),
    ];
    for (grid, spec) in grids {
        assert_eq!(
            campaign_csv(&ctx, &spec),
            baseline(&format!("pr8-seed2024-{grid}.csv")),
            "{grid} campaign diverged from the checked-in PR-8 baseline"
        );
    }
    // The scalar reference engine must reproduce the same bytes — the
    // re-keyed draw scheme is engine-agnostic.
    let scalar = ExperimentContext::quick(2024)
        .unwrap()
        .with_scalar_sessions();
    for grid in ["topology", "mobility"] {
        assert_eq!(
            campaign_csv(&scalar, &config_grid(grid)),
            baseline(&format!("pr8-seed2024-{grid}.csv")),
            "scalar-engine {grid} campaign diverged from the checked-in PR-8 baseline"
        );
    }
}
