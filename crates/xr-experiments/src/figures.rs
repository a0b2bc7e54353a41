//! The Fig. 4(a)–(d) sweeps: end-to-end latency and energy versus frame size
//! at 1/2/3 GHz, for local and remote inference, ground truth versus the
//! calibrated proposed model.

use crate::context::ExperimentContext;
use serde::{Deserialize, Serialize};
use xr_stats::metrics;
use xr_sweep::SweepGrid;
use xr_types::{ExecutionTarget, Result};

/// One operating point of a Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The frame-size parameter (pixel², 300–700).
    pub frame_size: f64,
    /// CPU clock in GHz (1, 2 or 3).
    pub cpu_clock_ghz: f64,
    /// Ground-truth value (ms for latency sweeps, mJ for energy sweeps).
    pub ground_truth: f64,
    /// Proposed-model value in the same unit.
    pub proposed: f64,
}

impl SweepPoint {
    /// Relative error of the proposed model at this point, in percent.
    #[must_use]
    pub fn error_percent(&self) -> f64 {
        if self.ground_truth.abs() < f64::EPSILON {
            return 0.0;
        }
        ((self.ground_truth - self.proposed) / self.ground_truth).abs() * 100.0
    }
}

/// A whole Fig. 4 panel: every (frame size × clock) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Which execution target the sweep used.
    pub execution: ExecutionTarget,
    /// `"latency"` or `"energy"`.
    pub metric: String,
    /// The swept points, ordered by clock then frame size.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The paper's mean-error statistic over the whole panel (the 2.74 % /
    /// 3.23 % / 3.52 % / 5.38 % numbers of §VIII-A/B).
    #[must_use]
    pub fn mean_error_percent(&self) -> f64 {
        let truth: Vec<f64> = self.points.iter().map(|p| p.ground_truth).collect();
        let predicted: Vec<f64> = self.points.iter().map(|p| p.proposed).collect();
        metrics::mean_error_percent(&truth, &predicted)
    }

    /// CSV/console rows for the experiment binaries.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}", p.frame_size),
                    format!("{:.0}", p.cpu_clock_ghz),
                    format!("{:.2}", p.ground_truth),
                    format!("{:.2}", p.proposed),
                    format!("{:.2}", p.error_percent()),
                ]
            })
            .collect()
    }
}

/// Runs the latency sweep of Fig. 4(a) (local) or Fig. 4(b) (remote).
///
/// # Errors
///
/// Propagates scenario and model errors.
pub fn latency_sweep(ctx: &ExperimentContext, execution: ExecutionTarget) -> Result<SweepResult> {
    sweep(ctx, execution, Metric::Latency)
}

/// Runs the energy sweep of Fig. 4(c) (local) or Fig. 4(d) (remote).
///
/// # Errors
///
/// Propagates scenario and model errors.
pub fn energy_sweep(ctx: &ExperimentContext, execution: ExecutionTarget) -> Result<SweepResult> {
    sweep(ctx, execution, Metric::Energy)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    Latency,
    Energy,
}

fn sweep(
    ctx: &ExperimentContext,
    execution: ExecutionTarget,
    metric: Metric,
) -> Result<SweepResult> {
    // One campaign per panel: the paper grid (clock outer, frame size inner)
    // evaluated by the shared engine — in parallel when workers are
    // available, with output independent of the worker count.
    let grid = SweepGrid::paper_panel(execution);
    let points = ctx.runner().run(&grid.points()?, |_, point| {
        let scenario = ctx.scenario_for(point)?;
        let session = ctx
            .testbed()
            .simulate_session(&scenario, ctx.frames_per_point())?;
        let report = ctx.proposed().analyze(&scenario)?;
        let (ground_truth, proposed) = match metric {
            Metric::Latency => (
                session.mean_latency().as_f64() * 1e3,
                report.latency_ms().as_f64(),
            ),
            Metric::Energy => (
                session.mean_energy().as_f64() * 1e3,
                report.energy_mj().as_f64(),
            ),
        };
        Ok(SweepPoint {
            frame_size: point.frame_size,
            cpu_clock_ghz: point.cpu_clock_ghz,
            ground_truth,
            proposed,
        })
    })?;
    Ok(SweepResult {
        execution,
        metric: match metric {
            Metric::Latency => "latency".to_string(),
            Metric::Energy => "energy".to_string(),
        },
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_latency(execution: ExecutionTarget) -> SweepResult {
        let ctx = ExperimentContext::quick(11).unwrap();
        latency_sweep(&ctx, execution).unwrap()
    }

    #[test]
    fn latency_sweep_covers_the_grid_and_tracks_ground_truth() {
        let sweep = quick_latency(ExecutionTarget::Local);
        assert_eq!(sweep.points.len(), 15);
        assert_eq!(sweep.metric, "latency");
        // Shape: latency grows with frame size within each clock series.
        for &clock in &ExperimentContext::CPU_CLOCKS {
            let series: Vec<&SweepPoint> = sweep
                .points
                .iter()
                .filter(|p| (p.cpu_clock_ghz - clock).abs() < 1e-9)
                .collect();
            assert_eq!(series.len(), 5);
            assert!(series.last().unwrap().ground_truth > series.first().unwrap().ground_truth);
            assert!(series.last().unwrap().proposed > series.first().unwrap().proposed);
        }
        // Accuracy: the calibrated model stays within ~15 % of ground truth
        // on average (the paper reports 2.74 % on real hardware).
        assert!(
            sweep.mean_error_percent() < 15.0,
            "mean error {}",
            sweep.mean_error_percent()
        );
    }

    #[test]
    fn faster_clock_gives_lower_latency_at_fixed_size() {
        let sweep = quick_latency(ExecutionTarget::Local);
        let at = |clock: f64, size: f64| {
            sweep
                .points
                .iter()
                .find(|p| {
                    (p.cpu_clock_ghz - clock).abs() < 1e-9 && (p.frame_size - size).abs() < 1e-9
                })
                .copied()
                .unwrap()
        };
        assert!(at(3.0, 500.0).ground_truth < at(1.0, 500.0).ground_truth);
        assert!(at(3.0, 500.0).proposed < at(1.0, 500.0).proposed);
    }

    #[test]
    fn energy_sweep_has_the_same_structure() {
        let ctx = ExperimentContext::quick(13).unwrap();
        let sweep = energy_sweep(&ctx, ExecutionTarget::Remote).unwrap();
        assert_eq!(sweep.points.len(), 15);
        assert_eq!(sweep.metric, "energy");
        assert!(
            sweep.mean_error_percent() < 20.0,
            "{}",
            sweep.mean_error_percent()
        );
        assert_eq!(sweep.rows().len(), 15);
        assert_eq!(sweep.rows()[0].len(), 5);
    }
}
