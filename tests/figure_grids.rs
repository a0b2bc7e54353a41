//! The extension figures are campaign grid files under `configs/`: each is
//! run here exactly as `campaign --grid configs/<figure>.grid` runs it, and
//! must show the effect the figure exists to show, at the test's own seed
//! and at the binary's default seed.

use xr_experiments::campaign::{run_campaign, CAMPAIGN_HEADER};
use xr_experiments::{CampaignRow, ExperimentContext};
use xr_integration::config_spec;
use xr_sweep::parse_grid_spec;
use xr_types::{MigrationPolicy, TopologyLayout};

/// The context seed `campaign` runs at when `XR_CAMPAIGN_SEED` is unset.
const DEFAULT_SEED: u64 = 2024;

/// Runs the checked-in grid `name` at context seed `seed` and returns its
/// rows in point order, each checked to render one full campaign CSV line.
fn figure(name: &str, seed: u64) -> Vec<CampaignRow> {
    eprintln!("{name} at seed {seed}");
    let grid = parse_grid_spec(&config_spec(name)).expect("checked-in grid spec must parse");
    let ctx = ExperimentContext::quick(seed).unwrap();
    let rows = run_campaign(&ctx, &grid).unwrap();
    assert_eq!(rows.len(), grid.len());
    let mut line = String::new();
    for row in &rows {
        row.render_csv_into(&mut line);
        assert_eq!(line.split(',').count(), CAMPAIGN_HEADER.len());
    }
    rows
}

fn ci_width(stats: xr_experiments::ReplicateStats) -> f64 {
    stats.ci95_hi - stats.ci95_lo
}

#[test]
fn mobility_sweep_covers_the_speed_radius_grid() {
    for seed in [21, DEFAULT_SEED] {
        mobility_sweep_covers_the_speed_radius_grid_at(seed);
    }
}

fn mobility_sweep_covers_the_speed_radius_grid_at(seed: u64) {
    let rows = figure("fig-mobility.grid", seed);
    assert_eq!(rows.len(), 4 * 3, "speed × radius grid");
    for row in &rows {
        assert!(row.gt_latency_ms.mean > 0.0);
        assert_eq!(row.replications, 5);
    }
    // Static cells never hand off …
    for row in rows.iter().filter(|r| r.point.mobility.is_static()) {
        assert_eq!(row.gt_handoff_rate, 0.0);
    }
    // … while the fast-walker/small-zone corner must.
    let cell = |speed: f64, radius: f64| {
        rows.iter()
            .find(|r| {
                r.point.mobility.speed_mps == speed && r.point.mobility.coverage_radius_m == radius
            })
            .expect("cell present")
    };
    let corner = cell(25.0, 10.0);
    assert!(
        corner.gt_handoff_rate > 0.0,
        "vehicle in a 10 m cell never handed off"
    );
    // Handoffs carry a real latency penalty over the static baseline.
    let static_same_radius = cell(0.0, 10.0);
    assert!(
        corner.gt_latency_ms.mean > static_same_radius.gt_latency_ms.mean,
        "mobile latency {} should exceed static latency {}",
        corner.gt_latency_ms.mean,
        static_same_radius.gt_latency_ms.mean
    );
}

#[test]
fn ci_width_shrinks_with_campaign_size() {
    for seed in [23, DEFAULT_SEED] {
        ci_width_shrinks_with_campaign_size_at(seed);
    }
}

fn ci_width_shrinks_with_campaign_size_at(seed: u64) {
    let rows = figure("fig-training-scaling.grid", seed);
    let frames: Vec<u64> = rows.iter().map(|r| r.frames_per_session).collect();
    assert_eq!(frames, [5, 10, 20, 40, 80, 160]);
    for row in &rows {
        assert_eq!(row.replications, 8);
        assert!(row.gt_latency_ms.mean > 0.0);
        assert!(ci_width(row.gt_latency_ms) > 0.0);
    }
    // The scaling law itself: 32× more frames per session must shrink
    // the session-mean estimator's CI decisively (≈ √32 ≈ 5.7× in
    // expectation; 2× is a noise-proof bound).
    let smallest = &rows[0];
    let largest = rows.last().unwrap();
    assert!(
        ci_width(largest.gt_latency_ms) < ci_width(smallest.gt_latency_ms) / 2.0,
        "latency CI width did not shrink: {} frames → {:.4} ms, {} frames → {:.4} ms",
        smallest.frames_per_session,
        ci_width(smallest.gt_latency_ms),
        largest.frames_per_session,
        ci_width(largest.gt_latency_ms)
    );
    // Means agree across campaign sizes (they estimate the same
    // quantity): the largest campaign's mean lies within the smallest
    // campaign's CI.
    assert!(
        largest.gt_latency_ms.mean >= smallest.gt_latency_ms.ci95_lo
            && largest.gt_latency_ms.mean <= smallest.gt_latency_ms.ci95_hi,
        "large-campaign mean {} escaped the small-campaign CI [{}, {}]",
        largest.gt_latency_ms.mean,
        smallest.gt_latency_ms.ci95_lo,
        smallest.gt_latency_ms.ci95_hi
    );
}

#[test]
fn contention_sweep_traces_the_latency_knee() {
    for seed in [23, DEFAULT_SEED] {
        contention_sweep_traces_the_latency_knee_at(seed);
    }
}

fn contention_sweep_traces_the_latency_knee_at(seed: u64) {
    let rows = figure("campaign-contention.grid", seed);
    let populations: Vec<Option<u32>> = rows.iter().map(|r| r.point.users_per_edge).collect();
    assert_eq!(populations, [1, 2, 4, 6, 8, 10].map(Some));
    for row in &rows {
        assert_eq!(row.point.frame_rate_hz, Some(5.0));
        assert_eq!(row.replications, 5);
        assert!(row.gt_contention_ms_mean > 0.0);
    }
    // Utilisation is linear in the population and stays below 1 for
    // every swept point (the largest sits just before the wall).
    let unit = rows[0].edge_utilization;
    assert!(unit > 0.0);
    for row in &rows {
        let expected = unit * f64::from(row.point.users_per_edge.unwrap());
        assert!((row.edge_utilization - expected).abs() < 1e-9);
        assert!(row.edge_utilization < 1.0);
    }
    let last = rows.last().unwrap();
    assert!(
        last.edge_utilization >= 0.9,
        "the sweep should approach saturation, got ρ = {}",
        last.edge_utilization
    );
    // Measured latency rises monotonically with the population …
    for pair in rows.windows(2) {
        assert!(
            pair[1].gt_latency_ms.mean > pair[0].gt_latency_ms.mean,
            "latency must increase with the population: {:?} users {} ms vs {:?} users {} ms",
            pair[1].point.users_per_edge,
            pair[1].gt_latency_ms.mean,
            pair[0].point.users_per_edge,
            pair[0].gt_latency_ms.mean
        );
    }
    // … with a visible knee: the final step dwarfs the first one.
    let first_step = rows[1].gt_latency_ms.mean - rows[0].gt_latency_ms.mean;
    let last_step =
        rows[rows.len() - 1].gt_latency_ms.mean - rows[rows.len() - 2].gt_latency_ms.mean;
    assert!(
        last_step > 4.0 * first_step.max(0.0),
        "no knee: first step {first_step} ms, last step {last_step} ms"
    );
    // The knee is in the queueing delay itself.
    assert!(
        last.gt_contention_ms_mean > 10.0 * rows[0].gt_contention_ms_mean,
        "no visible knee in the contention delay: {} ms -> {} ms",
        rows[0].gt_contention_ms_mean,
        last.gt_contention_ms_mean
    );
    // The paper's private-edge analytical model is blind to the
    // population, so its prediction stays flat across the sweep.
    let proposed = rows[0].proposed_latency_ms;
    assert!(rows
        .iter()
        .all(|r| (r.proposed_latency_ms - proposed).abs() < 1e-9));
}

#[test]
fn topology_sweep_traces_the_density_curve() {
    for seed in [29, DEFAULT_SEED] {
        topology_sweep_traces_the_density_curve_at(seed);
    }
}

fn topology_sweep_traces_the_density_curve_at(seed: u64) {
    let rows = figure("fig-topology.grid", seed);
    assert_eq!(rows.len(), 5 * 2, "density × policy grid");
    for row in &rows {
        assert_eq!(row.point.topology, Some(TopologyLayout::Square));
        assert_eq!(row.replications, 5);
        assert_eq!(row.frames_per_session, 200);
        assert!(row.gt_handoff_rate > 0.0, "vehicle never crossed");
        assert!(row.gt_migration_ms_mean > 0.0, "no migration priced");
        assert!(row.sites_visited > 1, "session never left its site");
    }
    let policy = |wanted: MigrationPolicy| -> Vec<&CampaignRow> {
        rows.iter()
            .filter(|r| r.point.migration_policy == Some(wanted))
            .collect()
    };
    let eager = policy(MigrationPolicy::Eager);
    let lazy = policy(MigrationPolicy::Lazy);
    assert_eq!(eager.len(), 5);
    // Point order is density order, so each pair below is a step up in
    // density.
    for pair in eager.windows(2) {
        assert!(pair[1].point.site_density > pair[0].point.site_density);
    }
    // Denser tilings mean shorter residence and a strictly higher
    // per-frame migration bill under the eager policy.
    for pair in eager.windows(2) {
        assert!(
            pair[1].gt_migration_ms_mean > pair[0].gt_migration_ms_mean,
            "migration cost must grow with density: {:?} sites/km² {} ms vs {:?} sites/km² {} ms",
            pair[1].point.site_density,
            pair[1].gt_migration_ms_mean,
            pair[0].point.site_density,
            pair[0].gt_migration_ms_mean
        );
    }
    // Eager pays more than lazy at every density (same walk, same
    // migration count, larger per-migration base).
    for (e, l) in eager.iter().zip(&lazy) {
        assert_eq!(e.point.site_density, l.point.site_density);
        assert!(
            e.gt_migration_ms_mean > l.gt_migration_ms_mean,
            "eager {} ms ≤ lazy {} ms at {:?} sites/km²",
            e.gt_migration_ms_mean,
            l.gt_migration_ms_mean,
            e.point.site_density
        );
    }
    // More sites get visited as the tiling densifies (endpoints).
    assert!(
        eager.last().unwrap().sites_visited > eager[0].sites_visited,
        "densest tiling should visit more sites"
    );
}
