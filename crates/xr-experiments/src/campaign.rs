//! Consolidated measurement campaigns over the full twelve-axis sweep grid.
//!
//! Where the `figures`/`comparison` modules regenerate individual paper
//! panels, a *campaign* sweeps every axis the engine knows about — frame
//! size, CPU clock, execution target, client device, wireless condition,
//! mobility condition, measurement-campaign size (frames per session),
//! edge population (`users_per_edge`), per-session frame rate, edge
//! topology layout, site density, migration policy —
//! and measures each operating point with
//! `grid.replications()` independently seeded testbed sessions, exactly as
//! the paper's campaign repeats measurements under a moving user. Each row
//! aggregates its replications into a mean with a two-sided 95 % Student-t
//! confidence interval. The `campaign` binary drives [`quick_grid`] (or a
//! `--grid <file>` spec) and is also the CI determinism probe: run twice
//! with different `XR_SWEEP_WORKERS`, the CSVs must be identical.

use crate::context::ExperimentContext;
use crate::fixed::{push_fixed, push_uint};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt::Write as _;
use xr_stats::mean_confidence_interval;
use xr_sweep::{CampaignRunner, OperatingPoint, PointContext, SweepGrid, WirelessCondition};
use xr_testbed::SessionTotals;
use xr_types::{Error, ExecutionTarget, Result};

/// Column header of the consolidated campaign CSV.
pub const CAMPAIGN_HEADER: [&str; 27] = [
    "point",
    "device",
    "wireless",
    "mobility",
    "execution",
    "cpu_ghz",
    "frame_size",
    "frame_rate_hz",
    "users_per_edge",
    "topology",
    "site_density",
    "migration_policy",
    "frames_per_session",
    "replications",
    "gt_latency_ms_mean",
    "gt_latency_ms_ci95_lo",
    "gt_latency_ms_ci95_hi",
    "gt_energy_mj_mean",
    "gt_energy_mj_ci95_lo",
    "gt_energy_mj_ci95_hi",
    "gt_handoff_rate",
    "gt_migration_ms_mean",
    "sites_visited",
    "edge_utilization",
    "gt_contention_ms_mean",
    "proposed_latency_ms",
    "proposed_energy_mj",
];

/// Mean and two-sided 95 % Student-t confidence bounds over the
/// replications of one operating point. With a single replication the
/// interval degenerates to the mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicateStats {
    /// Mean over the replications.
    pub mean: f64,
    /// Lower 95 % confidence bound.
    pub ci95_lo: f64,
    /// Upper 95 % confidence bound.
    pub ci95_hi: f64,
}

impl ReplicateStats {
    /// Aggregates per-replication measurements.
    ///
    /// # Panics
    ///
    /// Panics with the typed error of [`mean_confidence_interval`] if
    /// `samples` is empty or holds a NaN or infinite value. The campaign
    /// rejects such a point with an error before it aggregates; other
    /// callers that cannot rule it out call [`mean_confidence_interval`].
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let (ci95_lo, ci95_hi) =
            mean_confidence_interval(samples, 0.95).unwrap_or_else(|error| panic!("{error}"));
        Self {
            mean,
            ci95_lo,
            ci95_hi,
        }
    }
}

/// Rejects a point whose sessions measured a non-finite latency or energy,
/// naming the point and the replication, so a broken session fails the
/// campaign with an error instead of a panic in the row aggregation.
/// `latencies[r]` and `energies[r]` are replication `r`'s means.
fn check_finite_samples(point_index: usize, latencies: &[f64], energies: &[f64]) -> Result<()> {
    for (rep, (&latency_ms, &energy_mj)) in latencies.iter().zip(energies).enumerate() {
        for (what, value) in [("latency_ms", latency_ms), ("energy_mj", energy_mj)] {
            if !value.is_finite() {
                return Err(Error::invalid_parameter(
                    format!("point {point_index} replication {rep} {what}"),
                    format!("ground-truth measurement is {value}, not finite"),
                ));
            }
        }
    }
    Ok(())
}

/// One campaign worker's point buffers, reused from point to point: the
/// replications' session totals, then their mean latencies and energies
/// for the aggregation.
#[derive(Debug, Default)]
struct PointBuffers {
    totals: Vec<SessionTotals>,
    latencies: Vec<f64>,
    energies: Vec<f64>,
}

thread_local! {
    static POINT_BUFFERS: RefCell<PointBuffers> = RefCell::new(PointBuffers::default());
}

/// One consolidated campaign measurement: the operating point plus
/// replication-aggregated ground truth and the (deterministic)
/// proposed-model prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// The operating point this row measures.
    pub point: OperatingPoint,
    /// Resolved measurement-campaign size: ground-truth frames simulated
    /// per session (the point's own `frames_per_session`, or the context
    /// default when the grid does not sweep the campaign-size axis).
    pub frames_per_session: u64,
    /// Number of independently seeded sessions aggregated into this row.
    pub replications: usize,
    /// Ground-truth mean end-to-end latency (ms) with 95 % CI.
    pub gt_latency_ms: ReplicateStats,
    /// Ground-truth mean per-frame energy (mJ) with 95 % CI.
    pub gt_energy_mj: ReplicateStats,
    /// Ground-truth fraction of frames with a handoff, averaged over
    /// replications.
    pub gt_handoff_rate: f64,
    /// Ground-truth mean per-frame edge-to-edge state-migration latency
    /// (ms), averaged over replications; zero on untopologized points.
    pub gt_migration_ms_mean: f64,
    /// Maximum number of distinct edge sites any replication's session
    /// attached to; 1 on untopologized points.
    pub sites_visited: u32,
    /// Utilisation `ρ` of the bottleneck shared edge queue at this point —
    /// deterministic (offered load over service rate), `0` when the point
    /// runs contention-free.
    pub edge_utilization: f64,
    /// Analytic mean contention delay (ms) of the shared edge queue: the
    /// expectation of the M/M/1 sojourn term the contended remote stage
    /// draws from, `0` when the point runs contention-free.
    pub gt_contention_ms_mean: f64,
    /// Proposed-model latency prediction (ms) — deterministic per point.
    pub proposed_latency_ms: f64,
    /// Proposed-model energy prediction (mJ) — deterministic per point.
    pub proposed_energy_mj: f64,
}

impl CampaignRow {
    /// Renders the row as one CSV line (no trailing newline) into `out`,
    /// clearing it first — the one row renderer behind every campaign
    /// artifact, unsharded or sharded. It reuses the caller's buffer, so a
    /// streamed campaign allocates no `String` per row or cell. Every
    /// number is written by an exact integer digit writer that gives the
    /// bytes of `format!("{x:.N}")` (floats, rounded half to even on the
    /// exact binary value) and `format!("{n}")` (integers) without going
    /// through `core::fmt`.
    pub fn render_csv_into(&self, out: &mut String) {
        out.clear();
        push_uint(out, self.point.index as u64);
        for label in [
            &self.point.device,
            &self.point.wireless.label,
            &self.point.mobility.label,
        ] {
            out.push(',');
            out.push_str(label);
        }
        out.push(',');
        match self.point.execution {
            ExecutionTarget::Local => out.push_str("local"),
            ExecutionTarget::Remote => out.push_str("remote"),
            ExecutionTarget::Split { client_share } => {
                out.push_str("split");
                push_fixed(out, client_share, 2);
            }
        }
        out.push(',');
        push_fixed(out, self.point.cpu_clock_ghz, 1);
        out.push(',');
        push_fixed(out, self.point.frame_size, 0);
        out.push(',');
        match self.point.frame_rate_hz {
            Some(rate) => push_fixed(out, rate, 1),
            None => out.push_str("default"),
        }
        out.push(',');
        match self.point.users_per_edge {
            Some(users) => push_uint(out, u64::from(users)),
            None => out.push_str("off"),
        }
        out.push(',');
        match self.point.topology {
            Some(layout) => {
                let _ = write!(out, "{layout}");
            }
            None => out.push_str("off"),
        }
        out.push(',');
        match self.point.site_density {
            Some(density) => push_fixed(out, density, 0),
            None => out.push_str("default"),
        }
        out.push(',');
        match self.point.migration_policy {
            Some(policy) => {
                let _ = write!(out, "{policy}");
            }
            None => out.push_str("default"),
        }
        for count in [self.frames_per_session, self.replications as u64] {
            out.push(',');
            push_uint(out, count);
        }
        for (value, decimals) in [
            (self.gt_latency_ms.mean, 3),
            (self.gt_latency_ms.ci95_lo, 3),
            (self.gt_latency_ms.ci95_hi, 3),
            (self.gt_energy_mj.mean, 3),
            (self.gt_energy_mj.ci95_lo, 3),
            (self.gt_energy_mj.ci95_hi, 3),
            (self.gt_handoff_rate, 4),
            (self.gt_migration_ms_mean, 4),
        ] {
            out.push(',');
            push_fixed(out, value, decimals);
        }
        out.push(',');
        push_uint(out, u64::from(self.sites_visited));
        for (value, decimals) in [
            (self.edge_utilization, 4),
            (self.gt_contention_ms_mean, 3),
            (self.proposed_latency_ms, 3),
            (self.proposed_energy_mj, 3),
        ] {
            out.push(',');
            push_fixed(out, value, decimals);
        }
    }
}

/// The quick consolidated grid the `campaign` binary sweeps: a scenario
/// spread no single figure covers — two client devices, local and remote
/// execution, a degraded cell-edge link next to the nominal one, a moving
/// device next to the static one, and three replications per point.
#[must_use]
pub fn quick_grid() -> SweepGrid {
    // Every axis of the starting panel is replaced below, so its execution
    // target carries no meaning here; `paper_panel` is just the only grid
    // constructor.
    SweepGrid::paper_panel(ExecutionTarget::Remote)
        .with_frame_sizes([300.0, 500.0, 700.0])
        .with_cpu_clocks([1.0, 3.0])
        .with_executions([ExecutionTarget::Local, ExecutionTarget::Remote])
        .with_devices(vec!["XR2".to_string(), "XR3".to_string()])
        .with_wireless(vec![
            WirelessCondition::baseline(),
            WirelessCondition::new("cell-edge", Some(60.0), Some(40.0)),
        ])
        .with_mobility(vec![
            xr_sweep::MobilityCondition::static_device(),
            xr_sweep::MobilityCondition::new("vehicle", 25.0, 10.0),
        ])
        .with_replications(3)
}

/// Runs a replicated campaign over `grid` on `runner`, streaming aggregated
/// rows **in point order** into `sink` as each point's replications
/// complete (the engine's hold-back collector guarantees the order
/// regardless of worker count). Every replication simulates an
/// independently seeded testbed session; seeds derive from
/// `(campaign_seed, point_index, rep_index)`, so the artifact is
/// bit-identical for any worker count.
///
/// # Errors
///
/// Propagates grid, scenario and model errors.
pub fn run_campaign_streaming_with(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    sink: impl FnMut(usize, CampaignRow) + Send,
) -> Result<()> {
    stream_indices(ctx, grid, runner, grid.indices()?, sink)
}

/// Streams the rows of the grid points at `indices`, in that order. Each
/// point is built by the worker that evaluates it and moves into its row,
/// so no list of the points is made up front.
pub(crate) fn stream_indices(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    indices: impl Iterator<Item = usize>,
    sink: impl FnMut(usize, CampaignRow) + Send,
) -> Result<()> {
    let indices: Vec<(usize, ())> = indices.map(|index| (index, ())).collect();
    stream_rows(
        ctx,
        grid,
        runner,
        &indices,
        |index, ()| grid.point(index),
        sink,
    )
}

/// Streams aggregated rows for an explicitly indexed **subset** of a grid's
/// points, given ready-made, in subset order. Each pair carries the point's
/// index in the full grid enumeration; replication seeds derive from that
/// original index, so a subset's rows are bit-identical to the same rows of
/// the whole campaign. The campaign itself builds each point from its index
/// on the worker instead ([`run_campaign_streaming_with`]).
///
/// # Errors
///
/// Propagates grid, scenario and model errors.
pub fn run_campaign_subset_streaming_with(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    subset: &[(usize, OperatingPoint)],
    sink: impl FnMut(usize, CampaignRow) + Send,
) -> Result<()> {
    stream_rows(
        ctx,
        grid,
        runner,
        subset,
        |_, point| Ok(point.clone()),
        sink,
    )
}

/// Evaluates `items` on `runner` and streams each row, in item order, into
/// `sink`. `point_of(index, item)` gives the operating point of the item at
/// grid index `index`; it runs on the worker, and the point moves into the
/// row.
fn stream_rows<T: Sync>(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    items: &[(usize, T)],
    point_of: impl Fn(usize, &T) -> Result<OperatingPoint> + Sync,
    sink: impl FnMut(usize, CampaignRow) + Send,
) -> Result<()> {
    let replications = grid.replications().max(1);
    runner.run_indexed_streaming(
        items,
        |point_ctx, item| {
            let point = point_of(point_ctx.index, item)?;
            evaluate_point(ctx, point, point_ctx, replications)
        },
        sink,
    )
}

/// Evaluates one operating point into its row, on the calling worker. The
/// point is the work item: the testbed evaluates all its replications in
/// one fused run into the worker's reused totals buffer, so no per-frame
/// record is ever built, and the replications are aggregated here.
fn evaluate_point(
    ctx: &ExperimentContext,
    point: OperatingPoint,
    point_ctx: PointContext,
    replications: usize,
) -> Result<CampaignRow> {
    let scenario = ctx.scenario_for(&point)?;
    let frames_per_session = ctx.frames_for(&point);
    POINT_BUFFERS.with_borrow_mut(|buffers| {
        let PointBuffers {
            totals,
            latencies,
            energies,
        } = buffers;
        ctx.testbed().point_totals(
            &scenario,
            point_ctx.seed,
            replications,
            frames_per_session,
            totals,
        )?;
        latencies.clear();
        latencies.extend(totals.iter().map(|t| t.mean_latency().as_f64() * 1e3));
        energies.clear();
        energies.extend(totals.iter().map(|t| t.mean_energy().as_f64() * 1e3));
        check_finite_samples(point_ctx.index, latencies, energies)?;
        // The model prediction and the contention snapshot are
        // deterministic per point. Rows need no AoI, so the model predicts
        // latency and energy only.
        let (latency, energy) = ctx.proposed().predict(&scenario)?;
        let (edge_utilization, gt_contention_ms_mean) = ctx
            .testbed()
            .contention_snapshot(&scenario)?
            .map_or((0.0, 0.0), |snapshot| {
                (
                    snapshot.utilization(),
                    snapshot.mean_contention_delay().as_f64() * 1e3,
                )
            });
        let n = totals.len() as f64;
        Ok(CampaignRow {
            point,
            frames_per_session,
            replications: totals.len(),
            gt_latency_ms: ReplicateStats::of(latencies),
            gt_energy_mj: ReplicateStats::of(energies),
            gt_handoff_rate: totals.iter().map(SessionTotals::handoff_rate).sum::<f64>() / n,
            gt_migration_ms_mean: totals
                .iter()
                .map(|t| t.mean_migration_latency().as_f64() * 1e3)
                .sum::<f64>()
                / n,
            sites_visited: totals
                .iter()
                .map(SessionTotals::sites_visited)
                .max()
                .unwrap_or(1),
            edge_utilization,
            gt_contention_ms_mean,
            proposed_latency_ms: latency.total().to_millis().as_f64(),
            proposed_energy_mj: energy.total().to_millijoules().as_f64(),
        })
    })
}

/// Runs a campaign over `grid` and returns every aggregated row in point
/// order.
///
/// # Errors
///
/// Propagates grid, scenario and model errors.
pub fn run_campaign(ctx: &ExperimentContext, grid: &SweepGrid) -> Result<Vec<CampaignRow>> {
    run_campaign_with(ctx, grid, &ctx.runner())
}

/// [`run_campaign`] with an explicit runner.
///
/// # Errors
///
/// Propagates grid, scenario and model errors.
pub fn run_campaign_with(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
) -> Result<Vec<CampaignRow>> {
    let mut rows = Vec::new();
    run_campaign_streaming_with(ctx, grid, runner, |_, row| rows.push(row))?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_covers_every_axis_in_order() {
        let ctx = ExperimentContext::quick(17).unwrap();
        let grid = quick_grid();
        let rows = run_campaign(&ctx, &grid).unwrap();
        assert_eq!(rows.len(), grid.len());
        assert_eq!(rows.len(), 96); // 3 sizes × 2 clocks × 2 targets × 2 devices × 2 links × 2 mobility
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.point.index, i);
            assert_eq!(row.replications, 3);
            assert_eq!(
                row.frames_per_session, 20,
                "grids without a campaign-size axis resolve to the context default"
            );
            assert!(row.gt_latency_ms.mean > 0.0);
            assert!(row.gt_latency_ms.ci95_lo <= row.gt_latency_ms.mean);
            assert!(row.gt_latency_ms.ci95_hi >= row.gt_latency_ms.mean);
            assert!(row.gt_energy_mj.mean > 0.0);
            assert!(row.proposed_latency_ms > 0.0);
            assert!(row.proposed_energy_mj > 0.0);
        }
        let devices: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| &*r.point.device).collect();
        assert_eq!(devices.len(), 2);
        let links: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| &*r.point.wireless.label).collect();
        assert_eq!(links.len(), 2);
        // Mobile remote points hand off; static points never do.
        let mobile_rate: f64 = rows
            .iter()
            .filter(|r| {
                !r.point.mobility.is_static() && r.point.execution == ExecutionTarget::Remote
            })
            .map(|r| r.gt_handoff_rate)
            .sum();
        assert!(mobile_rate > 0.0, "no mobile remote point handed off");
        assert!(rows
            .iter()
            .filter(|r| r.point.mobility.is_static())
            .all(|r| r.gt_handoff_rate == 0.0));
        // Replication spread is real: some row has a non-degenerate CI.
        assert!(rows
            .iter()
            .any(|r| r.gt_latency_ms.ci95_hi > r.gt_latency_ms.ci95_lo));
    }

    #[test]
    fn fused_campaign_rows_match_the_per_rep_path() {
        let ctx = ExperimentContext::quick(23).unwrap();
        let grid = quick_grid();
        let subset: Vec<(usize, OperatingPoint)> = grid
            .points()
            .unwrap()
            .into_iter()
            .enumerate()
            .step_by(11)
            .collect();
        // The default engine fuses each point's replications; the scalar
        // reference runs every replication on its own.
        let runner = CampaignRunner::new(2).with_campaign_seed(ctx.seed());
        let scalar_ctx = ctx.clone().with_scalar_sessions();
        let mut reference = Vec::new();
        run_campaign_subset_streaming_with(&scalar_ctx, &grid, &runner, &subset, |index, row| {
            reference.push((index, row));
        })
        .unwrap();
        let mut fused = Vec::new();
        run_campaign_subset_streaming_with(&ctx, &grid, &runner, &subset, |index, row| {
            fused.push((index, row));
        })
        .unwrap();
        assert_eq!(fused, reference);
    }

    #[test]
    fn csv_rendering_matches_the_golden_lines() {
        // Rows of a grid exercising every optional column (frame rate,
        // contention, topology axes and a split execution target), then the
        // first eight quick-grid rows, as the campaign CSV has always
        // written them at seed 29.
        const GOLDEN: [&str; 9] = [
            "0,XR2,baseline,static,split0.25,2.0,300,10.0,2,hex,900,lazy,20,2,483.299,482.360,484.239,1501.863,1422.215,1581.511,0.0000,0.0000,1,0.6227,26.617,481.557,1461.365",
            "0,XR2,baseline,static,local,1.0,300,default,off,off,default,default,20,3,316.286,314.835,317.737,793.762,789.212,798.313,0.0000,0.0000,1,0.0000,0.000,329.363,803.953",
            "1,XR2,baseline,static,local,1.0,500,default,off,off,default,default,20,3,446.823,445.229,448.416,1158.441,1154.738,1162.144,0.0000,0.0000,1,0.0000,0.000,465.672,1174.646",
            "2,XR2,baseline,static,local,1.0,700,default,off,off,default,default,20,3,560.734,553.119,568.349,1476.057,1454.727,1497.387,0.0000,0.0000,1,0.0000,0.000,586.317,1502.741",
            "3,XR2,baseline,static,local,3.0,300,default,off,off,default,default,20,3,245.075,244.200,245.949,851.255,847.901,854.608,0.0000,0.0000,1,0.0000,0.000,244.901,804.768",
            "4,XR2,baseline,static,local,3.0,500,default,off,off,default,default,20,3,325.860,324.267,327.452,1210.183,1204.802,1215.565,0.0000,0.0000,1,0.0000,0.000,324.902,1141.380",
            "5,XR2,baseline,static,local,3.0,700,default,off,off,default,default,20,3,398.309,397.045,399.573,1532.147,1525.713,1538.580,0.0000,0.0000,1,0.0000,0.000,395.723,1439.362",
            "6,XR2,baseline,static,remote,1.0,300,default,off,off,default,default,20,3,739.763,728.807,750.718,1931.709,1899.475,1963.942,0.0000,0.0000,1,0.0000,0.000,746.158,1889.450",
            "7,XR2,baseline,static,remote,1.0,500,default,off,off,default,default,20,3,841.055,837.791,844.319,2196.739,2188.780,2204.699,0.0000,0.0000,1,0.0000,0.000,852.903,2160.487",
        ];
        let ctx = ExperimentContext::quick(29).unwrap();
        let grid = SweepGrid::paper_panel(ExecutionTarget::Split { client_share: 0.25 })
            .with_frame_sizes([300.0])
            .with_cpu_clocks([2.0])
            .with_frame_rates([10.0])
            .with_users_per_edge([2])
            .with_topologies([xr_types::TopologyLayout::Hex])
            .with_site_densities([900.0])
            .with_migration_policies([xr_types::MigrationPolicy::Lazy])
            .with_replications(2);
        let mut rows = run_campaign(&ctx, &grid).unwrap();
        rows.extend(
            run_campaign(&ctx, &quick_grid())
                .unwrap()
                .into_iter()
                .take(8),
        );
        let mut line = String::new();
        let rendered: Vec<String> = rows
            .iter()
            .map(|row| {
                row.render_csv_into(&mut line);
                line.clone()
            })
            .collect();
        assert_eq!(rendered, GOLDEN);
    }

    #[test]
    fn non_finite_samples_fail_with_the_point_index() {
        assert_eq!(check_finite_samples(7, &[12.5, 12.5], &[3.0, 3.0]), Ok(()));
        let cases = [
            (
                [12.5, f64::NAN, 12.5],
                [3.0; 3],
                "point 41 replication 1 latency_ms",
            ),
            (
                [12.5; 3],
                [3.0, f64::INFINITY, 3.0],
                "point 41 replication 1 energy_mj",
            ),
        ];
        for (latencies, energies, name) in cases {
            match check_finite_samples(41, &latencies, &energies) {
                Err(Error::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected an invalid-parameter error, got {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_link_slows_remote_frames_only() {
        let ctx = ExperimentContext::quick(18).unwrap();
        let grid = quick_grid();
        let rows = run_campaign(&ctx, &grid).unwrap();
        // Pair rows that differ only in the wireless condition.
        let find = |device: &str, wireless: &str, execution, clock: f64, size: f64| {
            rows.iter()
                .find(|r| {
                    &*r.point.device == device
                        && &*r.point.wireless.label == wireless
                        && r.point.mobility.is_static()
                        && r.point.execution == execution
                        && (r.point.cpu_clock_ghz - clock).abs() < 1e-9
                        && (r.point.frame_size - size).abs() < 1e-9
                })
                .expect("row exists")
        };
        let nominal = find("XR2", "baseline", ExecutionTarget::Remote, 3.0, 500.0);
        let degraded = find("XR2", "cell-edge", ExecutionTarget::Remote, 3.0, 500.0);
        assert!(
            degraded.gt_latency_ms.mean > nominal.gt_latency_ms.mean,
            "cell-edge {} vs baseline {}",
            degraded.gt_latency_ms.mean,
            nominal.gt_latency_ms.mean
        );
        // Local execution never touches the link, so the condition is inert:
        // the deterministic model predicts identical latency, and the two
        // independently seeded ground-truth measurements agree to within
        // measurement noise.
        let local_a = find("XR2", "baseline", ExecutionTarget::Local, 3.0, 500.0);
        let local_b = find("XR2", "cell-edge", ExecutionTarget::Local, 3.0, 500.0);
        assert!((local_a.proposed_latency_ms - local_b.proposed_latency_ms).abs() < 1e-9);
        let gap = (local_a.gt_latency_ms.mean - local_b.gt_latency_ms.mean).abs()
            / local_a.gt_latency_ms.mean;
        assert!(
            gap < 0.05,
            "independent local measurements diverged by {gap}"
        );
    }
}
