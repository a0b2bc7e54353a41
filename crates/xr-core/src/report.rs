//! The combined performance model and its per-frame report.

use crate::aoi::{AoiModel, AoiReport};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::latency::{LatencyBreakdown, LatencyModel};
use crate::scenario::CheckedScenario;
use serde::{Deserialize, Serialize};
use xr_types::{MilliJoules, MilliSeconds, Result};

/// The full per-frame analysis: latency, energy, and AoI/RoI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceReport {
    /// Latency breakdown (Eq. 1).
    pub latency: LatencyBreakdown,
    /// Energy breakdown (Eq. 19).
    pub energy: EnergyBreakdown,
    /// AoI/RoI report (Eqs. 22–26).
    pub aoi: AoiReport,
}

impl PerformanceReport {
    /// End-to-end latency in the figure's unit (milliseconds).
    #[must_use]
    pub fn latency_ms(&self) -> MilliSeconds {
        self.latency.total().to_millis()
    }

    /// Total energy in the figure's unit (millijoules).
    #[must_use]
    pub fn energy_mj(&self) -> MilliJoules {
        self.energy.total().to_millijoules()
    }
}

/// The proposed XR performance-analysis framework: latency, energy and AoI
/// models bundled behind a single entry point.
#[derive(Debug, Clone, Default)]
pub struct XrPerformanceModel {
    latency: LatencyModel,
    energy: EnergyModel,
}

impl XrPerformanceModel {
    /// Builds the framework with every sub-model at its published
    /// coefficients.
    #[must_use]
    pub fn published() -> Self {
        Self {
            latency: LatencyModel::published(),
            energy: EnergyModel::published(),
        }
    }

    /// Builds the framework from explicit sub-models (e.g. after refitting
    /// the regressions on simulated training data).
    #[must_use]
    pub fn new(latency: LatencyModel, energy: EnergyModel) -> Self {
        Self { latency, energy }
    }

    /// Predicts one frame of a scenario: the latency (Eq. 1) and energy
    /// (Eq. 19) breakdowns, without the AoI/RoI report. Campaign rows need
    /// only these totals; [`XrPerformanceModel::analyze`] adds the AoI.
    ///
    /// # Errors
    ///
    /// Returns queueing errors.
    pub fn predict(
        &self,
        scenario: &CheckedScenario,
    ) -> Result<(LatencyBreakdown, EnergyBreakdown)> {
        let latency = self.latency.analyze(scenario)?;
        let energy = self.energy.analyze_with_latency(scenario, &latency);
        Ok((latency, energy))
    }

    /// Analyses one frame of a scenario: latency (Eq. 1), energy (Eq. 19),
    /// and AoI/RoI (Eqs. 22–26), as the AoI figures (Figs. 4(e)/(f)) read
    /// it. The latency and energy are [`XrPerformanceModel::predict`]'s.
    ///
    /// # Errors
    ///
    /// Returns queueing errors.
    pub fn analyze(&self, scenario: &CheckedScenario) -> Result<PerformanceReport> {
        let (latency, energy) = self.predict(scenario)?;
        let aoi = AoiModel::published().analyze(scenario, latency.total())?;
        Ok(PerformanceReport {
            latency,
            energy,
            aoi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use xr_types::{ExecutionTarget, Segment};

    #[test]
    fn full_report_for_local_and_remote() {
        let model = XrPerformanceModel::published();
        for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
            let scenario = Scenario::builder().execution(target).build().unwrap();
            let report = model.analyze(&scenario).unwrap();
            assert!(report.latency_ms().as_f64() > 0.0);
            assert!(report.energy_mj().as_f64() > 0.0);
            assert_eq!(report.aoi.sensors.len(), scenario.sensors.len());
        }
    }

    #[test]
    fn report_units_are_consistent() {
        let model = XrPerformanceModel::published();
        let scenario = Scenario::builder().build().unwrap();
        let report = model.analyze(&scenario).unwrap();
        assert!(
            (report.latency_ms().as_f64() - report.latency.total().as_f64() * 1e3).abs() < 1e-9
        );
        assert!((report.energy_mj().as_f64() - report.energy.total().as_f64() * 1e3).abs() < 1e-9);
    }

    #[test]
    fn sub_model_accessors_and_replacement() {
        let model = XrPerformanceModel::published();
        let scenario = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .build()
            .unwrap();
        let baseline = model.analyze(&scenario).unwrap();
        // Replace the latency model with an ablated variant; remote totals
        // must drop because the memory terms disappear.
        let ablated = XrPerformanceModel::new(
            LatencyModel::published().without_memory_terms(),
            EnergyModel::published(),
        );
        let report = ablated.analyze(&scenario).unwrap();
        assert!(report.latency.total() < baseline.latency.total());
    }

    #[test]
    fn default_equals_published_behaviour() {
        let scenario = Scenario::builder().build().unwrap();
        let a = XrPerformanceModel::default().analyze(&scenario).unwrap();
        let b = XrPerformanceModel::published().analyze(&scenario).unwrap();
        assert_eq!(a.latency.total(), b.latency.total());
        assert_eq!(a.energy.total(), b.energy.total());
    }

    #[test]
    fn predict_is_analyze_without_the_aoi() {
        let model = XrPerformanceModel::published();
        for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
            let scenario = Scenario::builder().execution(target).build().unwrap();
            let (latency, energy) = model.predict(&scenario).unwrap();
            let report = model.analyze(&scenario).unwrap();
            assert_eq!(latency, report.latency);
            assert_eq!(energy, report.energy);
        }
    }

    #[test]
    fn rendering_is_always_part_of_the_breakdown() {
        let model = XrPerformanceModel::published();
        let scenario = Scenario::builder().build().unwrap();
        let report = model.analyze(&scenario).unwrap();
        assert!(report.latency.segment(Segment::FrameRendering).as_f64() > 0.0);
        assert!(report.energy.segment(Segment::FrameRendering).as_f64() > 0.0);
    }
}
