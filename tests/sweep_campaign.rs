//! End-to-end determinism of the campaign engine: the same grid evaluated
//! with different worker counts — or partitioned across shards and merged
//! back, or killed mid-shard and resumed from the checkpoint — must produce
//! byte-identical artifacts.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use xr_experiments::campaign::{
    quick_grid, run_campaign_streaming_with, run_campaign_with, CAMPAIGN_HEADER,
};
use xr_experiments::figures::latency_sweep;
use xr_experiments::shard_campaign::{
    checkpoint_path, manifest_path, merge_campaign_csvs, run_campaign_shard_with, shard_csv_name,
};
use xr_experiments::ExperimentContext;
use xr_integration::config_spec;
use xr_sweep::{parse_grid_spec, CampaignRunner, ShardSpec, SweepGrid};
use xr_types::ExecutionTarget;

/// A replicated mobility campaign: a moving device, four replications.
const MOBILITY_SPEC: &str = "frame_sizes  = 500\n\
     cpu_clocks   = 2.0\n\
     executions   = remote\n\
     mobility     = static, walk:1.4:20, vehicle:25:10\n\
     replications = 4\n";

/// A multi-tenant campaign threading the edge stage through the shared
/// M/M/1 queue.
const CONTENTION_SPEC: &str = "frame_sizes    = 300\n\
     cpu_clocks     = 2.0\n\
     executions     = remote\n\
     frame_rates    = 5\n\
     users_per_edge = 1, 4, 8\n\
     replications   = 3\n";

/// A vehicular session roaming multi-site edge maps.
const TOPOLOGY_SPEC: &str = "frame_sizes        = 300\n\
     cpu_clocks         = 2.0\n\
     executions         = remote\n\
     frame_rates        = 5\n\
     mobility           = vehicle:25:8\n\
     frames_per_session = 100\n\
     topology           = square, hex\n\
     site_density       = 400, 1600\n\
     migration_policy   = eager, lazy\n\
     replications       = 2\n";

/// Renders campaign rows exactly as the CSV layer writes them.
fn csv_lines(rows: &[xr_experiments::CampaignRow]) -> Vec<String> {
    let mut line = String::new();
    let mut lines = vec![CAMPAIGN_HEADER.join(",")];
    lines.extend(rows.iter().map(|row| {
        row.render_csv_into(&mut line);
        line.clone()
    }));
    lines
}

#[test]
fn campaign_csv_rows_are_byte_identical_across_worker_counts() {
    let ctx = ExperimentContext::quick(2024).unwrap();
    let grid = quick_grid();
    let reference = csv_lines(&run_campaign_with(&ctx, &grid, &CampaignRunner::new(1)).unwrap());
    assert_eq!(reference.len(), grid.len() + 1);
    for workers in [2, 4, 9] {
        let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(workers)).unwrap();
        assert_eq!(
            csv_lines(&rows),
            reference,
            "{workers} workers diverged from the sequential reference"
        );
    }
}

#[test]
fn replicated_mobility_campaign_is_byte_identical_across_worker_counts() {
    // The acceptance bar for the replication/mobility refactor: a campaign
    // with a moving device and several independently seeded replications per
    // point — defined through the data-driven grid-spec path — must stream
    // the same CSV bytes for every worker count.
    let ctx = ExperimentContext::quick(7).unwrap();
    let grid = parse_grid_spec(MOBILITY_SPEC).unwrap();
    assert_eq!(grid.replications(), 4);
    let reference = csv_lines(&run_campaign_with(&ctx, &grid, &CampaignRunner::new(1)).unwrap());
    for workers in [2, 3, 8] {
        let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(workers)).unwrap();
        assert_eq!(
            csv_lines(&rows),
            reference,
            "{workers} workers diverged on the replicated mobility campaign"
        );
    }
    // The replication machinery is real: every row aggregates 4 sessions,
    // and the mobile fast-walker point records handoffs.
    let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(2)).unwrap();
    assert!(rows.iter().all(|r| r.replications == 4));
    assert!(rows
        .iter()
        .all(|r| r.gt_latency_ms.ci95_lo <= r.gt_latency_ms.mean
            && r.gt_latency_ms.mean <= r.gt_latency_ms.ci95_hi));
    let vehicle = rows
        .iter()
        .find(|r| &*r.point.mobility.label == "vehicle")
        .expect("vehicle row");
    assert!(
        vehicle.gt_handoff_rate > 0.0,
        "fast walker in a 10 m zone never handed off"
    );
}

#[test]
fn fused_point_campaigns_match_the_per_rep_artifacts_across_worker_counts() {
    // The default engine runs all replications of a point fused, in one
    // wide SoA pass per batch of frames; its campaign CSVs must be byte-identical to
    // the scalar reference, which runs every replication on its own, on
    // every grid family — plain replicated, mobility, contention, and
    // topology — and for every worker count.
    let families: [(u64, SweepGrid); 4] = [
        (2024, quick_grid()),
        (7, parse_grid_spec(MOBILITY_SPEC).unwrap()),
        (13, parse_grid_spec(CONTENTION_SPEC).unwrap()),
        (19, parse_grid_spec(TOPOLOGY_SPEC).unwrap()),
    ];
    for (seed, grid) in families {
        let ctx = ExperimentContext::quick(seed).unwrap();
        let scalar_ctx = ctx.clone().with_scalar_sessions();
        let reference =
            csv_lines(&run_campaign_with(&scalar_ctx, &grid, &CampaignRunner::new(1)).unwrap());
        for workers in [1, 3, 4] {
            let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(workers)).unwrap();
            assert_eq!(
                csv_lines(&rows),
                reference,
                "default campaign diverged from the scalar artifact (seed {seed}, {workers} workers)"
            );
        }
    }
}

#[test]
fn contention_campaign_is_byte_identical_across_worker_counts_and_runs() {
    // The multi-tenant grid threads the edge stage through the CONTENTION
    // RNG streams; the campaign artifact must stay a pure function of
    // (grid, campaign seed) — identical bytes for every worker count and
    // across two independent runs of the same context seed.
    let ctx = ExperimentContext::quick(13).unwrap();
    let grid = parse_grid_spec(CONTENTION_SPEC).unwrap();
    let reference = csv_lines(&run_campaign_with(&ctx, &grid, &CampaignRunner::new(1)).unwrap());
    assert_eq!(reference.len(), grid.len() + 1);
    for workers in [2, 5] {
        let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(workers)).unwrap();
        assert_eq!(
            csv_lines(&rows),
            reference,
            "{workers} workers diverged on the contention campaign"
        );
    }
    // A second run from a fresh context with the same seed reproduces the
    // bytes exactly.
    let rerun_ctx = ExperimentContext::quick(13).unwrap();
    let rerun = csv_lines(&run_campaign_with(&rerun_ctx, &grid, &CampaignRunner::new(3)).unwrap());
    assert_eq!(rerun, reference, "a repeated run changed the artifact");
    // The contention columns carry real signal: utilisation scales linearly
    // with the population and the measured latency rises with it.
    let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(2)).unwrap();
    assert_eq!(rows.len(), 3);
    let unit = rows[0].edge_utilization;
    assert!(unit > 0.0);
    for row in &rows {
        let users = row.point.users_per_edge.expect("contended point");
        assert!((row.edge_utilization - unit * f64::from(users)).abs() < 1e-9);
        assert!(row.gt_contention_ms_mean > 0.0);
    }
    assert!(rows[1].gt_latency_ms.mean > rows[0].gt_latency_ms.mean);
    assert!(rows[2].gt_latency_ms.mean > rows[1].gt_latency_ms.mean);
}

#[test]
fn topology_campaign_is_byte_identical_across_worker_counts_and_runs() {
    // The topology grid routes the walk through the WALKER stream, prices
    // migrations on the MIGRATION stream, and pulls per-site contention
    // plans; the artifact must stay a pure function of (grid, campaign
    // seed) — identical bytes for every worker count and across two
    // independent runs of the same context seed.
    let ctx = ExperimentContext::quick(19).unwrap();
    let grid = parse_grid_spec(TOPOLOGY_SPEC).unwrap();
    let reference = csv_lines(&run_campaign_with(&ctx, &grid, &CampaignRunner::new(1)).unwrap());
    assert_eq!(reference.len(), grid.len() + 1);
    assert_eq!(grid.len(), 8);
    for workers in [2, 5] {
        let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(workers)).unwrap();
        assert_eq!(
            csv_lines(&rows),
            reference,
            "{workers} workers diverged on the topology campaign"
        );
    }
    let rerun_ctx = ExperimentContext::quick(19).unwrap();
    let rerun = csv_lines(&run_campaign_with(&rerun_ctx, &grid, &CampaignRunner::new(3)).unwrap());
    assert_eq!(rerun, reference, "a repeated run changed the artifact");
    // The topology columns carry real signal: the vehicular session roams
    // (sites_visited > 1, migration cost > 0), and at a fixed layout ×
    // policy the denser tiling bills more migration latency.
    let rows = run_campaign_with(&ctx, &grid, &CampaignRunner::new(2)).unwrap();
    for row in &rows {
        assert!(row.sites_visited > 1, "session never left its start site");
        assert!(row.gt_migration_ms_mean > 0.0);
        assert!(row.gt_handoff_rate > 0.0);
    }
    let find = |layout: &str, density: f64, policy: &str| {
        rows.iter()
            .find(|r| {
                r.point.topology.map(|l| l.to_string()) == Some(layout.to_string())
                    && r.point.site_density == Some(density)
                    && r.point.migration_policy.map(|p| p.to_string()) == Some(policy.to_string())
            })
            .expect("row exists")
    };
    assert!(
        find("square", 1600.0, "eager").gt_migration_ms_mean
            > find("square", 400.0, "eager").gt_migration_ms_mean,
        "denser square tiling must bill more migration latency"
    );
    assert!(
        find("hex", 1600.0, "eager").gt_migration_ms_mean
            > find("hex", 1600.0, "lazy").gt_migration_ms_mean,
        "eager must out-bill lazy on the same walk"
    );
}

/// A per-process scratch directory for shard artifacts.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xr-sweep-shard-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs every shard of an `N`-way partition into fresh artifacts and
/// returns the shard CSV paths.
fn run_all_shards(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    count: usize,
    tag: &str,
) -> Vec<PathBuf> {
    (1..=count)
        .map(|index| {
            let shard = ShardSpec::new(index, count).unwrap();
            let path = scratch(&format!("{tag}-{}", shard_csv_name(shard)));
            for stale in [&path, &checkpoint_path(&path), &manifest_path(&path)] {
                let _ = std::fs::remove_file(stale);
            }
            let report = run_campaign_shard_with(ctx, grid, runner, shard, &path, 1).unwrap();
            assert_eq!(report.evaluated_rows, shard.owned_len(grid.len()));
            path
        })
        .collect()
}

#[test]
fn sharded_campaigns_merge_byte_identically_across_grids() {
    // The tentpole acceptance bar: for every campaign family — the
    // twelve-axis quick grid and the mobility / contention / topology
    // config grids — partitioning the run across {2, 3, 8} shard processes
    // and merging the artifacts must reproduce the unsharded CSV byte for
    // byte. Seeds derive from original point indices, rows stream in
    // canonical order, and the merge interleaves without re-measuring.
    let families: [(&str, Option<&str>, u64); 4] = [
        ("quick", None, 2024),
        ("mobility", Some(MOBILITY_SPEC), 7),
        ("contention", Some(CONTENTION_SPEC), 13),
        ("topology", Some(TOPOLOGY_SPEC), 19),
    ];
    for (name, spec, seed) in families {
        let ctx = ExperimentContext::quick(seed).unwrap();
        let grid = spec.map_or_else(quick_grid, |s| parse_grid_spec(s).unwrap());
        let runner = CampaignRunner::new(3).with_campaign_seed(ctx.seed());
        let reference = {
            let mut text = csv_lines(&run_campaign_with(&ctx, &grid, &runner).unwrap()).join("\n");
            text.push('\n');
            text
        };
        for count in [2usize, 3, 8] {
            let paths = run_all_shards(&ctx, &grid, &runner, count, &format!("{name}-{count}"));
            assert_eq!(
                merge_campaign_csvs(&paths).unwrap(),
                reference,
                "{name} grid diverged at {count} shards"
            );
        }
    }
}

/// Everything the crash-resume property test replays: one completed shard
/// run's artifacts, plus the context/grid to resume under.
struct ResumeFixture {
    ctx: ExperimentContext,
    grid: SweepGrid,
    full_csv: Vec<u8>,
    full_checkpoint: Vec<u8>,
    /// Byte offset of the end of the header and of each data row/record.
    csv_boundaries: Vec<usize>,
    checkpoint_boundaries: Vec<usize>,
}

/// End offsets of the prefix ending at the header plus each subsequent
/// newline — the valid truncation boundaries of an append-only line file.
fn line_boundaries(data: &[u8], header_lines: usize) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut seen = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen >= header_lines {
                boundaries.push(i + 1);
            }
        }
    }
    boundaries
}

fn resume_fixture() -> &'static ResumeFixture {
    static FIXTURE: OnceLock<ResumeFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = ExperimentContext::quick(37).unwrap();
        let grid = parse_grid_spec(
            "frame_sizes  = 500\n\
             cpu_clocks   = 1.0, 3.0\n\
             executions   = remote\n\
             mobility     = static, walk:1.4:20, vehicle:25:10\n\
             replications = 2\n",
        )
        .unwrap();
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let shard = ShardSpec::new(1, 2).unwrap();
        let path = scratch("resume-fixture.csv");
        for stale in [&path, &checkpoint_path(&path), &manifest_path(&path)] {
            let _ = std::fs::remove_file(stale);
        }
        run_campaign_shard_with(&ctx, &grid, &runner, shard, &path, 1).unwrap();
        let full_csv = std::fs::read(&path).unwrap();
        let full_checkpoint = std::fs::read(checkpoint_path(&path)).unwrap();
        // CSV: 1 header line; checkpoint: magic + 4 header fields.
        let csv_boundaries = line_boundaries(&full_csv, 1);
        let checkpoint_boundaries = line_boundaries(&full_checkpoint, 5);
        ResumeFixture {
            ctx,
            grid,
            full_csv,
            full_checkpoint,
            csv_boundaries,
            checkpoint_boundaries,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    // A shard process can die at any instant: the CSV and the checkpoint
    // are each cut at an arbitrary record boundary — or *inside* a record,
    // the torn tail a crash mid-`write` leaves — independently, since the
    // kill can land between the row append and the checkpoint append.
    // Resuming must always reproduce the uninterrupted artifacts byte for
    // byte. (A plain comment: the proptest shim's matcher expects `#[test]`
    // immediately.)
    #[test]
    fn killed_shards_resume_to_byte_identical_artifacts(
        csv_keep in 0usize..4,
        csv_tear in 0usize..40,
        checkpoint_keep in 0usize..4,
        checkpoint_tear in 0usize..8,
    ) {
        let fixture = resume_fixture();
        let rows = fixture.csv_boundaries.len() - 1;
        prop_assert_eq!(rows, 3); // shard 1/2 of the 6-point grid
        let cut = |data: &[u8], boundaries: &[usize], keep: usize, tear: usize| {
            let keep = keep.min(boundaries.len() - 1);
            let at = boundaries[keep];
            // Tearing past the next boundary would fabricate a complete
            // record; stay strictly inside it.
            let next = boundaries.get(keep + 1).copied().unwrap_or(at);
            let torn = (at + tear).min(next.saturating_sub(1)).max(at);
            data[..torn].to_vec()
        };
        let tag = format!(
            "resume-{csv_keep}-{csv_tear}-{checkpoint_keep}-{checkpoint_tear}.csv"
        );
        let path = scratch(&tag);
        for stale in [&path, &checkpoint_path(&path), &manifest_path(&path)] {
            let _ = std::fs::remove_file(stale);
        }
        std::fs::write(
            &path,
            cut(&fixture.full_csv, &fixture.csv_boundaries, csv_keep, csv_tear),
        ).unwrap();
        std::fs::write(
            checkpoint_path(&path),
            cut(
                &fixture.full_checkpoint,
                &fixture.checkpoint_boundaries,
                checkpoint_keep,
                checkpoint_tear,
            ),
        ).unwrap();
        let runner = CampaignRunner::new(2).with_campaign_seed(fixture.ctx.seed());
        let report = run_campaign_shard_with(
            &fixture.ctx,
            &fixture.grid,
            &runner,
            ShardSpec::new(1, 2).unwrap(),
            &path,
            1,
        ).unwrap();
        // Only what CSV and checkpoint agree on survives as progress.
        prop_assert_eq!(report.resumed_rows, csv_keep.min(checkpoint_keep).min(rows));
        prop_assert_eq!(std::fs::read(&path).unwrap(), fixture.full_csv.clone());
        prop_assert_eq!(
            std::fs::read(checkpoint_path(&path)).unwrap(),
            fixture.full_checkpoint.clone()
        );
    }
}

#[test]
fn mobility_sweep_is_worker_count_invariant() {
    // The mobility figure's checked-in grid file, as `campaign --grid`
    // runs it.
    let ctx = ExperimentContext::quick(9).unwrap();
    let grid = parse_grid_spec(&config_spec("fig-mobility.grid")).unwrap();
    let reference = run_campaign_with(&ctx, &grid, &CampaignRunner::new(1)).unwrap();
    let parallel = run_campaign_with(&ctx, &grid, &CampaignRunner::new(5)).unwrap();
    assert_eq!(reference, parallel);
    assert_eq!(csv_lines(&reference), csv_lines(&parallel));
}

#[test]
fn single_replication_static_campaign_matches_a_hand_rolled_session_loop() {
    // With replications = 1 and a static mobility condition, a campaign row
    // is exactly one reseeded testbed session plus one model analysis —
    // pin the engine's aggregation to that hand-rolled equivalent.
    let ctx = ExperimentContext::quick(2024).unwrap();
    let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
        .with_frame_sizes([300.0, 700.0])
        .with_cpu_clocks([2.0]);
    assert_eq!(grid.replications(), 1);
    let runner = CampaignRunner::new(3).with_campaign_seed(ctx.seed());
    let rows = run_campaign_with(&ctx, &grid, &runner).unwrap();
    let points = grid.points().unwrap();
    assert_eq!(rows.len(), points.len());
    for (row, point) in rows.iter().zip(&points) {
        let seed = xr_sweep::replication_seed(ctx.seed(), point.index, 0);
        let scenario = ctx.scenario_for(point).unwrap();
        let session = ctx
            .testbed()
            .reseeded(seed)
            .simulate_session(&scenario, ctx.frames_per_point())
            .unwrap();
        let expected = session.mean_latency().as_f64() * 1e3;
        assert_eq!(row.gt_latency_ms.mean, expected);
        assert_eq!(row.gt_latency_ms.ci95_lo, expected);
        assert_eq!(row.gt_latency_ms.ci95_hi, expected);
        assert_eq!(row.gt_handoff_rate, 0.0);
    }
}

#[test]
fn streaming_campaign_emits_the_same_rows_in_order() {
    let ctx = ExperimentContext::quick(5).unwrap();
    let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
        .with_frame_sizes([300.0, 700.0])
        .with_cpu_clocks([2.0]);
    let collected = run_campaign_with(&ctx, &grid, &CampaignRunner::new(3)).unwrap();
    let mut streamed = Vec::new();
    run_campaign_streaming_with(&ctx, &grid, &CampaignRunner::new(3), |index, row| {
        assert_eq!(index, streamed.len(), "rows must stream in point order");
        streamed.push(row);
    })
    .unwrap();
    assert_eq!(streamed, collected);
}

#[test]
fn figure_sweep_matches_a_hand_rolled_sequential_loop() {
    // The engine-driven Fig. 4 panel must reproduce, number for number, what
    // the pre-engine nested loop computed: clock outer, frame size inner,
    // one testbed session and one model analysis per point.
    let ctx = ExperimentContext::quick(2024).unwrap();
    let sweep = latency_sweep(&ctx, ExecutionTarget::Local).unwrap();
    let mut expected = Vec::new();
    for &clock in &ExperimentContext::CPU_CLOCKS {
        for &size in &ExperimentContext::FRAME_SIZES {
            let scenario = ctx.scenario(size, clock, ExecutionTarget::Local).unwrap();
            let session = ctx
                .testbed()
                .simulate_session(&scenario, ctx.frames_per_point())
                .unwrap();
            let report = ctx.proposed().analyze(&scenario).unwrap();
            expected.push((
                size,
                clock,
                session.mean_latency().as_f64() * 1e3,
                report.latency_ms().as_f64(),
            ));
        }
    }
    assert_eq!(sweep.points.len(), expected.len());
    for (point, (size, clock, ground_truth, proposed)) in sweep.points.iter().zip(expected) {
        assert_eq!(point.frame_size, size);
        assert_eq!(point.cpu_clock_ghz, clock);
        assert_eq!(
            point.ground_truth, ground_truth,
            "GT diverged at {size}/{clock}"
        );
        assert_eq!(point.proposed, proposed, "model diverged at {size}/{clock}");
    }
}
