//! The Fig. 5 comparison: normalized accuracy of the proposed model, FACT,
//! and LEAF against the ground truth for remote inference.

use crate::context::ExperimentContext;
use serde::{Deserialize, Serialize};
use xr_baselines::{BaselineModel, FactModel, LeafModel};
use xr_stats::metrics;
use xr_sweep::SweepGrid;
use xr_types::{ExecutionTarget, Joules, Result, Seconds};

/// Which quantity Fig. 5 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Fig. 5(a): end-to-end latency.
    Latency,
    /// Fig. 5(b): end-to-end energy consumption.
    Energy,
}

impl Metric {
    /// The accuracy gains of the proposed model the paper reports for this
    /// metric, in percentage points: `[over FACT, over LEAF]`.
    #[must_use]
    pub const fn paper_gain_pp(self) -> [f64; 2] {
        match self {
            Metric::Latency => [17.59, 7.49],
            Metric::Energy => [15.30, 8.71],
        }
    }
}

/// One frame-size point of the Fig. 5 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// The frame-size parameter.
    pub frame_size: f64,
    /// Ground-truth value (ms or mJ).
    pub ground_truth: f64,
    /// Proposed-model prediction.
    pub proposed: f64,
    /// FACT prediction.
    pub fact: f64,
    /// LEAF prediction.
    pub leaf: f64,
}

/// The whole Fig. 5 panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonSweep {
    /// Which metric was compared.
    pub metric: Metric,
    /// Per-frame-size points.
    pub points: Vec<ComparisonPoint>,
}

impl ComparisonSweep {
    fn series(&self, select: impl Fn(&ComparisonPoint) -> f64) -> Vec<f64> {
        self.points.iter().map(select).collect()
    }

    /// Normalized accuracy (%) of the proposed model over the sweep.
    #[must_use]
    pub fn proposed_accuracy(&self) -> f64 {
        metrics::normalized_accuracy(
            &self.series(|p| p.ground_truth),
            &self.series(|p| p.proposed),
        )
    }

    /// Normalized accuracy (%) of FACT over the sweep.
    #[must_use]
    pub fn fact_accuracy(&self) -> f64 {
        metrics::normalized_accuracy(&self.series(|p| p.ground_truth), &self.series(|p| p.fact))
    }

    /// Normalized accuracy (%) of LEAF over the sweep.
    #[must_use]
    pub fn leaf_accuracy(&self) -> f64 {
        metrics::normalized_accuracy(&self.series(|p| p.ground_truth), &self.series(|p| p.leaf))
    }

    /// The paper's headline improvement figures: (accuracy gain over FACT,
    /// accuracy gain over LEAF), in percentage points.
    #[must_use]
    pub fn improvement_over_baselines(&self) -> (f64, f64) {
        (
            self.proposed_accuracy() - self.fact_accuracy(),
            self.proposed_accuracy() - self.leaf_accuracy(),
        )
    }

    /// CSV/console rows: per-point normalized accuracy for every model (GT is
    /// 100 % by definition, as in the figure).
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        let gt: Vec<f64> = self.series(|p| p.ground_truth);
        let acc = |pred: Vec<f64>| metrics::normalized_accuracy_series(&gt, &pred);
        let proposed = acc(self.series(|p| p.proposed));
        let fact = acc(self.series(|p| p.fact));
        let leaf = acc(self.series(|p| p.leaf));
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                vec![
                    format!("{:.0}", p.frame_size),
                    "100.00".to_string(),
                    format!("{:.2}", proposed[i]),
                    format!("{:.2}", fact[i]),
                    format!("{:.2}", leaf[i]),
                ]
            })
            .collect()
    }
}

/// Runs the Fig. 5 comparison for one metric.
///
/// Every model sees the same scenarios; FACT and LEAF are first calibrated at
/// the central operating point (500 px², 2 GHz) against the ground truth,
/// mirroring how their constants would be fitted on measurement data.
///
/// # Errors
///
/// Propagates scenario and model errors.
pub fn comparison_sweep(ctx: &ExperimentContext, metric: Metric) -> Result<ComparisonSweep> {
    let clock = 2.0;
    let mut fact = FactModel::new();
    let mut leaf = LeafModel::new();

    // Calibrate the baselines at the centre of the sweep.
    let reference = ctx.scenario(500.0, clock, ExecutionTarget::Remote)?;
    let reference_session = ctx
        .testbed()
        .simulate_session(&reference, ctx.frames_per_point())?;
    let observed_latency = reference_session.mean_latency();
    let observed_energy = reference_session.mean_energy();
    fact.calibrate(&reference, observed_latency, observed_energy)?;
    leaf.calibrate(&reference, observed_latency, observed_energy)?;

    // The Fig. 5 sweep is a single-clock campaign over the frame-size axis,
    // driven by the shared engine once the baselines are calibrated.
    let grid = SweepGrid::paper_panel(ExecutionTarget::Remote).with_cpu_clocks([clock]);
    let points = ctx.runner().run(&grid.points()?, |_, point| {
        let scenario = ctx.scenario_for(point)?;
        let session = ctx
            .testbed()
            .simulate_session(&scenario, ctx.frames_per_point())?;
        let report = ctx.proposed().analyze(&scenario)?;
        let (ground_truth, proposed, fact_value, leaf_value) = match metric {
            Metric::Latency => (
                session.mean_latency().as_f64() * 1e3,
                report.latency_ms().as_f64(),
                to_ms(fact.predict_latency(&scenario)?),
                to_ms(leaf.predict_latency(&scenario)?),
            ),
            Metric::Energy => (
                session.mean_energy().as_f64() * 1e3,
                report.energy_mj().as_f64(),
                to_mj(fact.predict_energy(&scenario)?),
                to_mj(leaf.predict_energy(&scenario)?),
            ),
        };
        Ok(ComparisonPoint {
            frame_size: point.frame_size,
            ground_truth,
            proposed,
            fact: fact_value,
            leaf: leaf_value,
        })
    })?;
    Ok(ComparisonSweep { metric, points })
}

fn to_ms(latency: Seconds) -> f64 {
    latency.as_f64() * 1e3
}

fn to_mj(energy: Joules) -> f64 {
    energy.as_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_model_beats_both_baselines_on_latency() {
        let ctx = ExperimentContext::quick(21).unwrap();
        let sweep = comparison_sweep(&ctx, Metric::Latency).unwrap();
        assert_eq!(sweep.points.len(), 5);
        assert!(
            sweep.proposed_accuracy() > sweep.fact_accuracy(),
            "proposed {} vs FACT {}",
            sweep.proposed_accuracy(),
            sweep.fact_accuracy()
        );
        assert!(
            sweep.proposed_accuracy() > sweep.leaf_accuracy(),
            "proposed {} vs LEAF {}",
            sweep.proposed_accuracy(),
            sweep.leaf_accuracy()
        );
        let (vs_fact, vs_leaf) = sweep.improvement_over_baselines();
        assert!(vs_fact > 0.0 && vs_leaf > 0.0);
        assert_eq!(sweep.rows().len(), 5);
    }

    #[test]
    fn proposed_model_beats_both_baselines_on_energy() {
        let ctx = ExperimentContext::quick(22).unwrap();
        let sweep = comparison_sweep(&ctx, Metric::Energy).unwrap();
        assert!(sweep.proposed_accuracy() > sweep.fact_accuracy());
        assert!(sweep.proposed_accuracy() > sweep.leaf_accuracy());
        assert!(sweep.proposed_accuracy() > 70.0);
    }
}
