//! Shared experiment context: the simulated testbed, the measurement
//! campaign, and the calibrated analytical framework.

use crate::campaign_args::usage_error;
use xr_core::{ClientConfig, Scenario, ScenarioBuilder, XrPerformanceModel};
use xr_devices::DeviceCatalog;
use xr_sweep::{grid, CampaignRunner, MobilityCondition, OperatingPoint, WirelessCondition};
use xr_testbed::{CalibratedModels, MeasurementCampaign, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, MegaBitsPerSecond, Meters, MetersPerSecond, Result};

/// Everything an experiment needs: the ground-truth simulator, the calibrated
/// proposed model, and the sweep bookkeeping.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    testbed: TestbedSimulator,
    calibrated: CalibratedModels,
    proposed: XrPerformanceModel,
    frames_per_point: u64,
    seed: u64,
    paper_scale: bool,
}

/// Parses the `XR_CAMPAIGN_SEED` value: the default seed 2024 when the
/// variable is unset.
///
/// # Errors
///
/// Returns a human-readable message when the value is not a non-negative
/// integer.
pub fn parse_campaign_seed(value: Option<&str>) -> std::result::Result<u64, String> {
    match value {
        None => Ok(2024),
        Some(token) => token.parse::<u64>().map_err(|_| {
            format!("invalid XR_CAMPAIGN_SEED `{token}`: expected a non-negative integer")
        }),
    }
}

impl ExperimentContext {
    /// The frame sizes swept in Figs. 4–5 (the paper's x-axis; the canonical
    /// definition lives in `xr-sweep`, the campaign engine).
    pub const FRAME_SIZES: [f64; 5] = grid::PAPER_FRAME_SIZES;
    /// The CPU clocks swept in Fig. 4 (GHz).
    pub const CPU_CLOCKS: [f64; 3] = grid::PAPER_CPU_CLOCKS;

    /// A fast context for tests and the default campaign: a small measurement
    /// campaign and 20 ground-truth frames per operating point.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn quick(seed: u64) -> Result<Self> {
        Self::with_campaign(seed, MeasurementCampaign::small(seed), 20)
    }

    /// The paper-scale context: 119 465 training records and 100 frames of
    /// ground truth per operating point.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn paper_scale(seed: u64) -> Result<Self> {
        let ctx = Self::with_campaign(seed, MeasurementCampaign::paper_scale(seed), 100)?;
        Ok(Self {
            paper_scale: true,
            ..ctx
        })
    }

    /// The base session seed from `XR_CAMPAIGN_SEED` (2024 when unset).
    /// A value that is not a non-negative integer exits with status 2 and a
    /// message rather than silently running the default seed.
    ///
    /// Re-running the same grid under a different seed produces the
    /// *same-scheme reseed* distribution that calibrates the null rate for
    /// sanctioned draw-scheme re-keys (see `xr_stats::equivalence`).
    #[must_use]
    pub fn seed_from_env() -> u64 {
        parse_campaign_seed(std::env::var("XR_CAMPAIGN_SEED").ok().as_deref())
            .unwrap_or_else(|m| usage_error(&m))
    }

    /// This context with ground-truth sessions simulated by the scalar
    /// frame-by-frame reference engine instead of the batched default. The
    /// two engines are bit-identical by contract; campaigns run both ways
    /// must produce byte-identical artifacts.
    #[must_use]
    pub fn with_scalar_sessions(mut self) -> Self {
        self.testbed = self
            .testbed
            .with_engine(xr_testbed::SimulationEngine::Scalar);
        self
    }

    /// Builds a context from an explicit measurement campaign over the
    /// training devices, calibrated as the campaign is drawn
    /// ([`CalibratedModels::calibrate`]): the records are never held.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn with_campaign(
        seed: u64,
        campaign: MeasurementCampaign,
        frames_per_point: u64,
    ) -> Result<Self> {
        let testbed = TestbedSimulator::new(seed);
        let calibrated = CalibratedModels::calibrate(
            &campaign,
            testbed.laws(),
            &DeviceCatalog::training_devices(),
        )?;
        let proposed = calibrated.performance_model();
        Ok(Self {
            testbed,
            calibrated,
            proposed,
            frames_per_point: frames_per_point.max(1),
            seed,
            paper_scale: false,
        })
    }

    /// The ground-truth simulator.
    #[must_use]
    pub fn testbed(&self) -> &TestbedSimulator {
        &self.testbed
    }

    /// The calibrated sub-models (for the ablation table). They carry no
    /// in-sample diagnostics; the regression report fits its own.
    #[must_use]
    pub fn calibrated(&self) -> &CalibratedModels {
        &self.calibrated
    }

    /// The calibrated proposed framework.
    #[must_use]
    pub fn proposed(&self) -> &XrPerformanceModel {
        &self.proposed
    }

    /// Number of ground-truth frames simulated per operating point.
    #[must_use]
    pub fn frames_per_point(&self) -> u64 {
        self.frames_per_point
    }

    /// The measurement-campaign size at one operating point: the point's
    /// own `frames_per_session` when its grid sweeps the campaign-size
    /// axis, this context's default otherwise.
    #[must_use]
    pub fn frames_for(&self, point: &OperatingPoint) -> u64 {
        point.frames_per_session.unwrap_or(self.frames_per_point)
    }

    /// The context's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this is the paper-scale context ([`Self::paper_scale`]).
    #[must_use]
    pub fn is_paper_scale(&self) -> bool {
        self.paper_scale
    }

    /// Builds the evaluation scenario at one operating point of the Fig. 4/5
    /// sweep: the held-out XR2 client, a given frame size and CPU clock, and
    /// the given execution target.
    ///
    /// # Errors
    ///
    /// Propagates scenario-validation errors.
    pub fn scenario(
        &self,
        frame_size: f64,
        cpu_clock_ghz: f64,
        execution: ExecutionTarget,
    ) -> Result<Scenario> {
        self.scenario_for(&OperatingPoint {
            index: 0,
            frame_size,
            cpu_clock_ghz,
            execution,
            device: grid::PAPER_EVAL_DEVICE.into(),
            wireless: WirelessCondition::baseline(),
            mobility: MobilityCondition::static_device(),
            frames_per_session: None,
            users_per_edge: None,
            frame_rate_hz: None,
            topology: None,
            site_density: None,
            migration_policy: None,
        })
    }

    /// Builds the evaluation scenario for one operating point of a campaign
    /// grid: the point's client device, frame size, CPU clock and execution
    /// target, with the point's wireless condition applied to the scenario's
    /// own edge servers and the point's mobility condition applied to the
    /// device — a wireless condition overrides only the fields it names, so
    /// every non-baseline point stays pairwise comparable with its baseline
    /// twin. The baseline wireless condition applies no overrides at all;
    /// the static mobility condition equals the scenario defaults. A point
    /// on the `users_per_edge` axis turns multi-tenant edge contention on,
    /// and one on the `frame_rates` axis overrides the per-session frame
    /// rate (which is also the per-session arrival rate the shared edge
    /// queue sees). A point on any topology axis (`topology`,
    /// `site_density`, `migration_policy`) places the session on a
    /// multi-site edge map: unspecified companion axes default to a square
    /// tiling at 400 sites/km² with eager state migration.
    ///
    /// # Errors
    ///
    /// Propagates catalog-lookup and scenario-validation errors.
    pub fn scenario_for(&self, point: &OperatingPoint) -> Result<Scenario> {
        let mut builder = ScenarioBuilder::for_client(ClientConfig::from_catalog(&point.device)?)
            .frame_side(point.frame_size)
            .cpu_clock(GigaHertz::new(point.cpu_clock_ghz))
            .execution(point.execution);
        if let Some(rate) = point.frame_rate_hz {
            builder = builder.frame_rate(xr_types::Hertz::new(rate));
        }
        if let Some(users) = point.users_per_edge {
            builder = builder.contention(users);
        }
        // Any topology axis turns the multi-site edge map on; unspecified
        // companions fall back to a square tiling at 400 sites/km² with
        // eager state migration, so a grid can sweep one axis alone.
        if point.topology.is_some()
            || point.site_density.is_some()
            || point.migration_policy.is_some()
        {
            builder = builder.topology(xr_core::TopologyConfig {
                layout: point.topology.unwrap_or(xr_types::TopologyLayout::Square),
                site_density: point.site_density.unwrap_or(400.0),
                migration_policy: point
                    .migration_policy
                    .unwrap_or(xr_types::MigrationPolicy::Eager),
            });
        }
        let mut scenario = builder.build()?;
        for server in &mut scenario.edge_servers {
            if let Some(distance) = point.wireless.distance_m {
                server.distance = Meters::new(distance);
            }
            if let Some(throughput) = point.wireless.throughput_mbps {
                server.throughput = Some(MegaBitsPerSecond::new(throughput));
            }
        }
        // Applied unconditionally so a static condition's coverage radius is
        // really in effect (artifact columns must state the measured
        // condition); `MobilityCondition::static_device()` equals the
        // scenario defaults, so baseline grids are unchanged.
        scenario.mobility.speed = MetersPerSecond::new(point.mobility.speed_mps);
        scenario.mobility.coverage_radius = Meters::new(point.mobility.coverage_radius_m);
        scenario.validate()?;
        Ok(scenario)
    }

    /// The campaign runner every experiment drives: worker count from
    /// `XR_SWEEP_WORKERS` (default: available parallelism; a value that is
    /// not a non-negative integer exits with status 2). Results are
    /// bit-identical for any worker count: the current experiment closures
    /// are deterministic per point because [`TestbedSimulator`] seeds every
    /// frame from its own seed, independent of evaluation order. The
    /// runner's per-point seeds (derived from this context's seed, exposed
    /// via `PointContext::seed`) are there for *stochastic* evaluations —
    /// consume them instead of any shared RNG to keep that property.
    #[must_use]
    pub fn runner(&self) -> CampaignRunner {
        CampaignRunner::from_env().with_campaign_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_and_analyses() {
        let ctx = ExperimentContext::quick(7).unwrap();
        let scenario = ctx.scenario(500.0, 2.0, ExecutionTarget::Remote).unwrap();
        let report = ctx.proposed().analyze(&scenario).unwrap();
        assert!(report.latency.total().as_f64() > 0.0);
        let gt = ctx
            .testbed()
            .simulate_session(&scenario, ctx.frames_per_point())
            .unwrap();
        assert!(gt.mean_latency().as_f64() > 0.0);
        assert_eq!(ctx.seed(), 7);
        assert_eq!(ctx.frames_per_point(), 20);
        assert!(!ctx.is_paper_scale());
        // The context calibrates from the streamed campaign: the row fit on
        // the collected dataset has the same coefficients, and only the
        // row fit has in-sample R².
        let train = MeasurementCampaign::small(7)
            .collect(ctx.testbed().laws(), &DeviceCatalog::training_devices());
        let row_fit = CalibratedModels::fit(&train).unwrap();
        assert!(row_fit.training_r_squared().unwrap().resource_r_squared > 0.5);
        assert_eq!(ctx.calibrated().training_r_squared(), None);
        let bits = |models: &CalibratedModels| -> Vec<u64> {
            [
                models.compute.regression(),
                models.power.regression(),
                models.encoding.regression(),
                models.complexity.regression(),
            ]
            .into_iter()
            .flat_map(|fit| std::iter::once(fit.intercept()).chain(fit.coefficients().to_vec()))
            .map(f64::to_bits)
            .collect()
        };
        assert_eq!(bits(ctx.calibrated()), bits(&row_fit));
    }

    #[test]
    fn sweep_constants_match_the_paper() {
        assert_eq!(ExperimentContext::FRAME_SIZES.len(), 5);
        assert_eq!(ExperimentContext::CPU_CLOCKS, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn contended_points_carry_population_and_frame_rate_into_the_scenario() {
        let ctx = ExperimentContext::quick(7).unwrap();
        let mut point = OperatingPoint {
            index: 0,
            frame_size: 300.0,
            cpu_clock_ghz: 2.0,
            execution: ExecutionTarget::Remote,
            device: grid::PAPER_EVAL_DEVICE.into(),
            wireless: WirelessCondition::baseline(),
            mobility: MobilityCondition::static_device(),
            frames_per_session: None,
            users_per_edge: Some(4),
            frame_rate_hz: Some(5.0),
            topology: None,
            site_density: None,
            migration_policy: None,
        };
        let scenario = ctx.scenario_for(&point).unwrap();
        assert_eq!(
            scenario.contention,
            Some(xr_core::ContentionConfig { users_per_edge: 4 })
        );
        assert!((scenario.frame.frame_rate.as_f64() - 5.0).abs() < 1e-12);
        assert!(scenario.topology.is_none());
        // The default point keeps contention off and the 30 fps default.
        point.users_per_edge = None;
        point.frame_rate_hz = None;
        let scenario = ctx.scenario_for(&point).unwrap();
        assert!(scenario.contention.is_none());
        assert!((scenario.frame.frame_rate.as_f64() - 30.0).abs() < 1e-12);
        // Any topology axis turns the edge map on; absent companions fall
        // back to square/400/eager.
        point.site_density = Some(900.0);
        let scenario = ctx.scenario_for(&point).unwrap();
        assert_eq!(
            scenario.topology,
            Some(xr_core::TopologyConfig {
                layout: xr_types::TopologyLayout::Square,
                site_density: 900.0,
                migration_policy: xr_types::MigrationPolicy::Eager,
            })
        );
        point.topology = Some(xr_types::TopologyLayout::Hex);
        point.migration_policy = Some(xr_types::MigrationPolicy::Lazy);
        let scenario = ctx.scenario_for(&point).unwrap();
        let config = scenario.topology.unwrap();
        assert_eq!(config.layout, xr_types::TopologyLayout::Hex);
        assert_eq!(config.migration_policy, xr_types::MigrationPolicy::Lazy);
    }

    #[test]
    fn campaign_seeds_parse_or_explain() {
        assert_eq!(parse_campaign_seed(None), Ok(2024));
        assert_eq!(parse_campaign_seed(Some("2025")), Ok(2025));
        for bad in ["", "abc", "-1", "20 24"] {
            assert_eq!(
                parse_campaign_seed(Some(bad)),
                Err(format!(
                    "invalid XR_CAMPAIGN_SEED `{bad}`: expected a non-negative integer"
                ))
            );
        }
    }

    #[test]
    fn static_mobility_condition_equals_the_scenario_default() {
        // `scenario_for` applies the point's mobility condition
        // unconditionally, which is only override-free for baseline grids
        // because `MobilityCondition::static_device()` mirrors
        // `MobilityConfig::default()`. xr-sweep cannot depend on xr-core,
        // so this cross-crate guard keeps the two literals tied together.
        let condition = MobilityCondition::static_device();
        let default = xr_core::MobilityConfig::default();
        assert_eq!(condition.speed_mps, default.speed.as_f64());
        assert_eq!(
            condition.coverage_radius_m,
            default.coverage_radius.as_f64()
        );
    }
}
