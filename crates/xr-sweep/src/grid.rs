//! The operating-point grid a campaign sweeps.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xr_types::{Error, ExecutionTarget, MigrationPolicy, Result, TopologyLayout};

/// The frame sizes swept in Figs. 4–5 (the paper's x-axis, pixel²).
pub const PAPER_FRAME_SIZES: [f64; 5] = [300.0, 400.0, 500.0, 600.0, 700.0];
/// The CPU clocks swept in Fig. 4 (GHz).
pub const PAPER_CPU_CLOCKS: [f64; 3] = [1.0, 2.0, 3.0];
/// The held-out client device the paper evaluates on.
pub const PAPER_EVAL_DEVICE: &str = "XR2";

/// One wireless condition of the sweep: overrides applied to every edge
/// server of the scenario. The [`WirelessCondition::baseline`] condition
/// applies no overrides, reproducing the testbed's nominal link exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirelessCondition {
    /// Label used in campaign rows (e.g. `"baseline"`, `"cell-edge"`),
    /// shared by every point of the condition.
    pub label: Arc<str>,
    /// Distance from the client to each edge server in metres; `None` keeps
    /// the scenario default.
    pub distance_m: Option<f64>,
    /// Link throughput override in Mbit/s; `None` keeps the technology's
    /// nominal throughput.
    pub throughput_mbps: Option<f64>,
}

impl WirelessCondition {
    /// The testbed's nominal link: no overrides.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            label: "baseline".into(),
            distance_m: None,
            throughput_mbps: None,
        }
    }

    /// A named condition overriding edge distance and/or throughput.
    #[must_use]
    pub fn new(
        label: impl Into<Arc<str>>,
        distance_m: Option<f64>,
        throughput_mbps: Option<f64>,
    ) -> Self {
        Self {
            label: label.into(),
            distance_m,
            throughput_mbps,
        }
    }
}

impl Default for WirelessCondition {
    fn default() -> Self {
        Self::baseline()
    }
}

/// One mobility condition of the sweep: the device's random-walk speed and
/// the coverage radius of its serving zone. The
/// [`MobilityCondition::static_device`] condition (zero speed) applies no
/// overrides, reproducing the testbed's stationary default exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityCondition {
    /// Label used in campaign rows (e.g. `"static"`, `"walk"`, `"vehicle"`),
    /// shared by every point of the condition.
    pub label: Arc<str>,
    /// Device speed in m/s; zero disables mobility entirely.
    pub speed_mps: f64,
    /// Coverage radius of the serving zone in metres.
    pub coverage_radius_m: f64,
}

impl MobilityCondition {
    /// The stationary default: no mobility, the scenario's nominal coverage
    /// radius.
    #[must_use]
    pub fn static_device() -> Self {
        Self {
            label: "static".into(),
            speed_mps: 0.0,
            coverage_radius_m: 30.0,
        }
    }

    /// A named mobility condition.
    #[must_use]
    pub fn new(label: impl Into<Arc<str>>, speed_mps: f64, coverage_radius_m: f64) -> Self {
        Self {
            label: label.into(),
            speed_mps,
            coverage_radius_m,
        }
    }

    /// `true` when the device does not move.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.speed_mps <= 0.0
    }
}

impl Default for MobilityCondition {
    fn default() -> Self {
        Self::static_device()
    }
}

/// One operating point of a campaign: the cartesian coordinates of a single
/// measurement, plus its stable index in the grid's enumeration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Position in the grid's enumeration order (0-based). Stable across
    /// runs; the per-point seed and the output row order both derive from
    /// it. Valid only for a full `points()` enumeration: when sub-slicing or
    /// filtering points before handing them to a runner, the runner's
    /// `PointContext::index` (the slice position) is the authoritative index
    /// and seed source, not this field.
    pub index: usize,
    /// Frame-size parameter (pixel²).
    pub frame_size: f64,
    /// CPU clock in GHz.
    pub cpu_clock_ghz: f64,
    /// Where the inference task executes.
    pub execution: ExecutionTarget,
    /// Client device catalog name, shared by every point of the device.
    pub device: Arc<str>,
    /// Wireless condition applied to the scenario's edge links.
    pub wireless: WirelessCondition,
    /// Mobility condition applied to the scenario's device.
    pub mobility: MobilityCondition,
    /// Measurement-campaign size at this point: how many ground-truth
    /// frames each session simulates. `None` keeps the experiment context's
    /// default (20 quick / 100 paper-scale).
    pub frames_per_session: Option<u64>,
    /// Number of concurrent sessions sharing the tagged session's edge
    /// server. `None` keeps contention off entirely (the paper's
    /// private-edge assumption); `Some(1)` routes the edge stage through an
    /// M/M/1 queue occupied by the tagged session alone.
    pub users_per_edge: Option<u32>,
    /// Per-session frame rate override in Hz. `None` keeps the scenario
    /// default (30 fps). Contention sweeps pin this low so the shared edge
    /// queue has headroom for a multi-user population before `ρ = 1`.
    pub frame_rate_hz: Option<f64>,
    /// Edge-topology layout the session roams. `None` keeps the legacy
    /// single-zone mobility model (no `xr_core::TopologyConfig` at all).
    pub topology: Option<TopologyLayout>,
    /// Edge-site density in sites/km² for tiled/Voronoi layouts. `None`
    /// keeps the topology's default density when a layout is set.
    pub site_density: Option<f64>,
    /// State-migration policy priced on edge-to-edge handoffs. `None` keeps
    /// the default (eager) when a layout is set.
    pub migration_policy: Option<MigrationPolicy>,
}

/// A campaign grid: the cartesian product of twelve axes, enumerated in a
/// fixed row-major order (topology layout, site density, migration policy,
/// edge population, frame rate, campaign size, device, wireless, mobility,
/// execution, CPU clock, frame size — frame size varies fastest, matching
/// the Fig. 4 panel layout), plus the
/// per-point replication count (how many independently seeded sessions each
/// operating point is measured with — not an enumeration axis, the
/// collector aggregates replications into one row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    frame_sizes: Vec<f64>,
    cpu_clocks: Vec<f64>,
    executions: Vec<ExecutionTarget>,
    devices: Vec<Arc<str>>,
    wireless: Vec<WirelessCondition>,
    mobility: Vec<MobilityCondition>,
    /// Measurement-campaign sizes (frames per session); `None` entries keep
    /// the context default. The axis opens training-set scaling studies:
    /// sweeping it plots estimator precision against campaign size.
    frames_per_session: Vec<Option<u64>>,
    /// Edge-population axis: how many concurrent sessions share the tagged
    /// session's edge server. `None` entries keep contention off (the
    /// paper's private-edge assumption). Sweeping it plots the latency knee
    /// against the tenant population.
    users_per_edge: Vec<Option<u32>>,
    /// Per-session frame-rate axis in Hz; `None` entries keep the scenario
    /// default (30 fps).
    frame_rates: Vec<Option<f64>>,
    /// Edge-topology layout axis. `None` entries keep the legacy
    /// single-zone mobility model; sweeping it plots migration cost against
    /// the site tiling.
    topologies: Vec<Option<TopologyLayout>>,
    /// Edge-site density axis in sites/km²; `None` entries keep the
    /// topology default.
    site_densities: Vec<Option<f64>>,
    /// State-migration policy axis; `None` entries keep the default
    /// (eager).
    migration_policies: Vec<Option<MigrationPolicy>>,
    replications: usize,
}

impl SweepGrid {
    /// The paper's Fig. 4 panel grid for one execution target: 5 frame sizes
    /// × 3 clocks on the held-out XR2 client over the nominal link.
    #[must_use]
    pub fn paper_panel(execution: ExecutionTarget) -> Self {
        Self {
            frame_sizes: PAPER_FRAME_SIZES.to_vec(),
            cpu_clocks: PAPER_CPU_CLOCKS.to_vec(),
            executions: vec![execution],
            devices: vec![PAPER_EVAL_DEVICE.into()],
            wireless: vec![WirelessCondition::baseline()],
            mobility: vec![MobilityCondition::static_device()],
            frames_per_session: vec![None],
            users_per_edge: vec![None],
            frame_rates: vec![None],
            topologies: vec![None],
            site_densities: vec![None],
            migration_policies: vec![None],
            replications: 1,
        }
    }

    /// Replaces the frame-size axis.
    #[must_use]
    pub fn with_frame_sizes(mut self, sizes: impl Into<Vec<f64>>) -> Self {
        self.frame_sizes = sizes.into();
        self
    }

    /// Replaces the CPU-clock axis.
    #[must_use]
    pub fn with_cpu_clocks(mut self, clocks: impl Into<Vec<f64>>) -> Self {
        self.cpu_clocks = clocks.into();
        self
    }

    /// Replaces the execution-target axis.
    #[must_use]
    pub fn with_executions(mut self, executions: impl Into<Vec<ExecutionTarget>>) -> Self {
        self.executions = executions.into();
        self
    }

    /// Replaces the device axis (client catalog names).
    #[must_use]
    pub fn with_devices(mut self, devices: Vec<String>) -> Self {
        self.devices = devices.into_iter().map(Arc::from).collect();
        self
    }

    /// Replaces the wireless-condition axis.
    #[must_use]
    pub fn with_wireless(mut self, wireless: Vec<WirelessCondition>) -> Self {
        self.wireless = wireless;
        self
    }

    /// Replaces the mobility-condition axis.
    #[must_use]
    pub fn with_mobility(mut self, mobility: Vec<MobilityCondition>) -> Self {
        self.mobility = mobility;
        self
    }

    /// Replaces the measurement-campaign-size axis: each value is a
    /// frames-per-session count every other axis combination is measured
    /// with (values clamped to at least 1 frame).
    #[must_use]
    pub fn with_frames_per_session(mut self, frames: impl Into<Vec<u64>>) -> Self {
        self.frames_per_session = frames.into().into_iter().map(|f| Some(f.max(1))).collect();
        self
    }

    /// Replaces the edge-population axis: each value is a number of
    /// concurrent sessions sharing the tagged session's edge server (values
    /// clamped to at least 1 user — the tagged session itself).
    #[must_use]
    pub fn with_users_per_edge(mut self, users: impl Into<Vec<u32>>) -> Self {
        self.users_per_edge = users.into().into_iter().map(|u| Some(u.max(1))).collect();
        self
    }

    /// Replaces the per-session frame-rate axis (Hz). Non-positive rates are
    /// rejected later, when the operating point is turned into a scenario.
    #[must_use]
    pub fn with_frame_rates(mut self, rates: impl Into<Vec<f64>>) -> Self {
        self.frame_rates = rates.into().into_iter().map(Some).collect();
        self
    }

    /// Replaces the edge-topology layout axis. Each entry places the
    /// session on a multi-site `xr_core::TopologyConfig` with the given
    /// tiling; the legacy single-zone model is spelled
    /// [`TopologyLayout::Single`].
    #[must_use]
    pub fn with_topologies(mut self, layouts: impl Into<Vec<TopologyLayout>>) -> Self {
        self.topologies = layouts.into().into_iter().map(Some).collect();
        self
    }

    /// Replaces the edge-site density axis (sites/km²). Non-positive
    /// densities are rejected later, when the operating point is turned
    /// into a scenario.
    #[must_use]
    pub fn with_site_densities(mut self, densities: impl Into<Vec<f64>>) -> Self {
        self.site_densities = densities.into().into_iter().map(Some).collect();
        self
    }

    /// Replaces the state-migration policy axis.
    #[must_use]
    pub fn with_migration_policies(mut self, policies: impl Into<Vec<MigrationPolicy>>) -> Self {
        self.migration_policies = policies.into().into_iter().map(Some).collect();
        self
    }

    /// Sets the per-point replication count (clamped to at least 1).
    #[must_use]
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Number of independently seeded sessions per operating point.
    #[must_use]
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Number of operating points in the grid (replications excluded — they
    /// aggregate into the same row).
    #[must_use]
    pub fn len(&self) -> usize {
        self.frame_sizes.len()
            * self.cpu_clocks.len()
            * self.executions.len()
            * self.devices.len()
            * self.wireless.len()
            * self.mobility.len()
            * self.frames_per_session.len()
            * self.users_per_edge.len()
            * self.frame_rates.len()
            * self.topologies.len()
            * self.site_densities.len()
            * self.migration_policies.len()
    }

    /// `true` when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A 64-bit fingerprint of the grid's exact contents: every axis value
    /// (floats by bit pattern, labels by bytes) and the replication count,
    /// folded through the workspace's SplitMix64 chain ([`xr_types::seed`])
    /// with a distinct tag per axis so reordered or re-typed values cannot
    /// collide by construction of the input encoding.
    ///
    /// Two grids fingerprint equally iff they enumerate the same points with
    /// the same replications — this is what shard manifests and checkpoint
    /// files carry to detect merging or resuming against the wrong grid.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use xr_types::seed::mix;
        fn fold_f64s(h: u64, tag: u64, values: impl IntoIterator<Item = Option<f64>>) -> u64 {
            let mut h = mix(h, tag);
            let mut len = 0u64;
            for value in values {
                h = match value {
                    // `to_bits` keeps -0.0 ≠ 0.0 and NaN payloads distinct;
                    // identity is "same bits", matching CSV formatting.
                    Some(v) => mix(mix(h, 1), v.to_bits()),
                    None => mix(h, 0),
                };
                len += 1;
            }
            mix(h, len)
        }
        fn fold_str(h: u64, s: &str) -> u64 {
            let mut h = mix(h, s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(word));
            }
            h
        }
        // Version tag: bump if the encoding ever changes, so stale
        // checkpoints from older layouts are detected rather than trusted.
        let mut h = mix(0x7852_5347_5249_4431, 1); // "xRSGRID1", v1
        h = fold_f64s(h, 1, self.frame_sizes.iter().map(|&v| Some(v)));
        h = fold_f64s(h, 2, self.cpu_clocks.iter().map(|&v| Some(v)));
        h = mix(h, 3);
        for execution in &self.executions {
            h = match execution {
                ExecutionTarget::Local => mix(h, 1),
                ExecutionTarget::Remote => mix(h, 2),
                ExecutionTarget::Split { client_share } => mix(mix(h, 3), client_share.to_bits()),
            };
        }
        h = mix(h, self.executions.len() as u64);
        h = mix(h, 4);
        for device in &self.devices {
            h = fold_str(h, device);
        }
        h = mix(h, self.devices.len() as u64);
        h = mix(h, 5);
        for w in &self.wireless {
            h = fold_str(h, &w.label);
            h = fold_f64s(h, 0, [w.distance_m, w.throughput_mbps]);
        }
        h = mix(h, self.wireless.len() as u64);
        h = mix(h, 6);
        for m in &self.mobility {
            h = fold_str(h, &m.label);
            h = fold_f64s(h, 0, [Some(m.speed_mps), Some(m.coverage_radius_m)]);
        }
        h = mix(h, self.mobility.len() as u64);
        h = mix(h, 7);
        for frames in &self.frames_per_session {
            h = match frames {
                Some(f) => mix(mix(h, 1), *f),
                None => mix(h, 0),
            };
        }
        h = mix(h, self.frames_per_session.len() as u64);
        h = mix(h, 8);
        for users in &self.users_per_edge {
            h = match users {
                Some(u) => mix(mix(h, 1), u64::from(*u)),
                None => mix(h, 0),
            };
        }
        h = mix(h, self.users_per_edge.len() as u64);
        h = fold_f64s(h, 9, self.frame_rates.iter().copied());
        h = mix(h, 10);
        for layout in &self.topologies {
            h = match layout {
                None => mix(h, 0),
                Some(TopologyLayout::Single) => mix(h, 1),
                Some(TopologyLayout::Square) => mix(h, 2),
                Some(TopologyLayout::Hex) => mix(h, 3),
                Some(TopologyLayout::Voronoi) => mix(h, 4),
            };
        }
        h = mix(h, self.topologies.len() as u64);
        h = fold_f64s(h, 11, self.site_densities.iter().copied());
        h = mix(h, 12);
        for policy in &self.migration_policies {
            h = match policy {
                None => mix(h, 0),
                Some(MigrationPolicy::Eager) => mix(h, 1),
                Some(MigrationPolicy::Lazy) => mix(h, 2),
            };
        }
        h = mix(h, self.migration_policies.len() as u64);
        mix(h, self.replications as u64)
    }

    /// The index of every operating point, in the grid's canonical order:
    /// `0..len()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when an axis is empty — an empty
    /// campaign is almost always a configuration bug, so it is rejected
    /// loudly instead of silently producing zero rows.
    pub fn indices(&self) -> Result<std::ops::Range<usize>> {
        if self.is_empty() {
            return Err(Error::invalid_parameter(
                "grid",
                "every sweep axis needs at least one value",
            ));
        }
        Ok(0..self.len())
    }

    /// The operating point at `index` in the grid's canonical order (entry
    /// `index` of [`SweepGrid::points`]), built alone. The index is read
    /// as a mixed-radix number whose fastest digit is the frame size, then
    /// the CPU clock, execution, mobility, wireless condition, device,
    /// frames per session, frame rate, edge population, migration policy,
    /// site density and, slowest, the topology.
    ///
    /// # Errors
    ///
    /// As [`SweepGrid::indices`], and [`Error::InvalidParameter`] when
    /// `index` is not below [`SweepGrid::len`].
    pub fn point(&self, index: usize) -> Result<OperatingPoint> {
        if !self.indices()?.contains(&index) {
            return Err(Error::invalid_parameter(
                "index",
                format!("point {index} is outside a grid of {} points", self.len()),
            ));
        }
        let mut rest = index;
        let mut digit = |radix: usize| {
            let d = rest % radix;
            rest /= radix;
            d
        };
        let frame_size = self.frame_sizes[digit(self.frame_sizes.len())];
        let cpu_clock_ghz = self.cpu_clocks[digit(self.cpu_clocks.len())];
        let execution = self.executions[digit(self.executions.len())];
        let mobility = &self.mobility[digit(self.mobility.len())];
        let wireless = &self.wireless[digit(self.wireless.len())];
        let device = &self.devices[digit(self.devices.len())];
        let frames_per_session = self.frames_per_session[digit(self.frames_per_session.len())];
        let frame_rate_hz = self.frame_rates[digit(self.frame_rates.len())];
        let users_per_edge = self.users_per_edge[digit(self.users_per_edge.len())];
        let migration_policy = self.migration_policies[digit(self.migration_policies.len())];
        let site_density = self.site_densities[digit(self.site_densities.len())];
        let topology = self.topologies[digit(self.topologies.len())];
        Ok(OperatingPoint {
            index,
            frame_size,
            cpu_clock_ghz,
            execution,
            device: device.clone(),
            wireless: wireless.clone(),
            mobility: mobility.clone(),
            frames_per_session,
            users_per_edge,
            frame_rate_hz,
            topology,
            site_density,
            migration_policy,
        })
    }

    /// Enumerates every operating point in the grid's canonical order.
    ///
    /// # Errors
    ///
    /// As [`SweepGrid::indices`].
    pub fn points(&self) -> Result<Vec<OperatingPoint>> {
        self.indices()?.map(|index| self.point(index)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_panel_matches_the_figure_layout() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Local);
        assert_eq!(grid.len(), 15);
        let points = grid.points().unwrap();
        assert_eq!(points.len(), 15);
        // Frame size varies fastest, clock next: the Fig. 4 row order.
        assert_eq!(points[0].frame_size, 300.0);
        assert_eq!(points[0].cpu_clock_ghz, 1.0);
        assert_eq!(points[4].frame_size, 700.0);
        assert_eq!(points[5].frame_size, 300.0);
        assert_eq!(points[5].cpu_clock_ghz, 2.0);
        assert_eq!(points[14].cpu_clock_ghz, 3.0);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(&*p.device, "XR2");
            assert!(p.wireless.distance_m.is_none() && p.wireless.throughput_mbps.is_none());
            assert!(p.mobility.is_static());
        }
        assert_eq!(grid.replications(), 1);
    }

    #[test]
    fn axes_multiply_and_enumerate_outer_to_inner() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
            .with_frame_sizes([300.0, 500.0])
            .with_cpu_clocks([2.0])
            .with_executions([ExecutionTarget::Local, ExecutionTarget::Remote])
            .with_devices(vec!["XR2".into(), "XR3".into()])
            .with_wireless(vec![
                WirelessCondition::baseline(),
                WirelessCondition::new("far", Some(60.0), None),
            ]);
        assert_eq!(grid.len(), 16); // 2 sizes × 1 clock × 2 targets × 2 devices × 2 links
        let points = grid.points().unwrap();
        assert_eq!(points.len(), 16);
        assert_eq!(&*points[0].device, "XR2");
        assert_eq!(&*points[8].device, "XR3");
        assert!(points[0].wireless.distance_m.is_none());
        assert!(points[0].wireless.throughput_mbps.is_none());
        assert_eq!(&*points[4].wireless.label, "far");
        assert!(
            points[4].wireless.distance_m.is_some() || points[4].wireless.throughput_mbps.is_some()
        );
    }

    #[test]
    fn empty_axes_are_rejected() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Local).with_frame_sizes([]);
        assert!(grid.is_empty());
        assert!(grid.points().is_err());
        assert!(grid.indices().is_err());
        assert!(grid.point(0).is_err());
        let grid = SweepGrid::paper_panel(ExecutionTarget::Local).with_mobility(vec![]);
        assert!(grid.points().is_err());
    }

    #[test]
    fn point_decodes_the_nested_enumeration_order() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Local)
            .with_frame_sizes([300.0, 500.0])
            .with_cpu_clocks([1.0, 3.0])
            .with_executions([ExecutionTarget::Local, ExecutionTarget::Remote])
            .with_devices(vec!["XR1".into(), "XR2".into()])
            .with_wireless(vec![
                WirelessCondition::baseline(),
                WirelessCondition::new("far", Some(60.0), None),
            ])
            .with_mobility(vec![
                MobilityCondition::static_device(),
                MobilityCondition::new("walk", 1.4, 20.0),
            ])
            .with_frames_per_session([10, 20])
            .with_frame_rates([5.0, 30.0])
            .with_users_per_edge([1, 4])
            .with_migration_policies([MigrationPolicy::Eager, MigrationPolicy::Lazy])
            .with_site_densities([400.0, 1600.0])
            .with_topologies([TopologyLayout::Square, TopologyLayout::Hex]);
        assert_eq!(grid.indices().unwrap(), 0..4096);
        // The canonical order as a loop nest, outermost axis first.
        let mut nested = Vec::new();
        for &topology in &grid.topologies {
            for &site_density in &grid.site_densities {
                for &migration_policy in &grid.migration_policies {
                    for &users_per_edge in &grid.users_per_edge {
                        for &frame_rate_hz in &grid.frame_rates {
                            for &frames_per_session in &grid.frames_per_session {
                                for device in &grid.devices {
                                    for wireless in &grid.wireless {
                                        for mobility in &grid.mobility {
                                            for &execution in &grid.executions {
                                                for &clock in &grid.cpu_clocks {
                                                    for &size in &grid.frame_sizes {
                                                        nested.push(OperatingPoint {
                                                            index: nested.len(),
                                                            frame_size: size,
                                                            cpu_clock_ghz: clock,
                                                            execution,
                                                            device: device.clone(),
                                                            wireless: wireless.clone(),
                                                            mobility: mobility.clone(),
                                                            frames_per_session,
                                                            users_per_edge,
                                                            frame_rate_hz,
                                                            topology,
                                                            site_density,
                                                            migration_policy,
                                                        });
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(grid.points().unwrap(), nested);
        for (index, point) in nested.iter().enumerate() {
            assert_eq!(&grid.point(index).unwrap(), point);
        }
        assert!(grid.point(4096).is_err());
    }

    #[test]
    fn frames_per_session_axis_multiplies_outermost() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Local)
            .with_frame_sizes([300.0, 500.0])
            .with_cpu_clocks([2.0]);
        assert_eq!(grid.len(), 2);
        let points = grid.points().unwrap();
        assert!(points.iter().all(|p| p.frames_per_session.is_none()));
        let grid = grid.with_frames_per_session([10, 40, 0]);
        assert_eq!(grid.len(), 6, "campaign-size axis multiplies the grid");
        let points = grid.points().unwrap();
        // Campaign size is the outermost axis: each size's block is
        // contiguous, the inner layout is unchanged.
        assert_eq!(points[0].frames_per_session, Some(10));
        assert_eq!(points[1].frames_per_session, Some(10));
        assert_eq!(points[2].frames_per_session, Some(40));
        assert_eq!(points[4].frames_per_session, Some(1), "zero clamps to 1");
        assert_eq!(points[2].frame_size, 300.0);
        assert_eq!(points[3].frame_size, 500.0);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn contention_axes_multiply_outermost_and_default_off() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
            .with_frame_sizes([300.0])
            .with_cpu_clocks([2.0]);
        let points = grid.points().unwrap();
        assert!(points.iter().all(|p| p.users_per_edge.is_none()));
        assert!(points.iter().all(|p| p.frame_rate_hz.is_none()));

        let grid = grid
            .with_users_per_edge([1, 4, 0])
            .with_frame_rates([5.0, 10.0]);
        assert_eq!(grid.len(), 6, "population × frame-rate axes multiply");
        let points = grid.points().unwrap();
        // Population is the outermost axis, frame rate the next: each
        // population's block is contiguous and spans every frame rate.
        assert_eq!(points[0].users_per_edge, Some(1));
        assert_eq!(points[0].frame_rate_hz, Some(5.0));
        assert_eq!(points[1].frame_rate_hz, Some(10.0));
        assert_eq!(points[2].users_per_edge, Some(4));
        assert_eq!(points[4].users_per_edge, Some(1), "zero clamps to 1 user");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn topology_axes_multiply_outermost_and_default_off() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
            .with_frame_sizes([300.0])
            .with_cpu_clocks([2.0]);
        let points = grid.points().unwrap();
        assert!(points.iter().all(|p| p.topology.is_none()));
        assert!(points.iter().all(|p| p.site_density.is_none()));
        assert!(points.iter().all(|p| p.migration_policy.is_none()));

        let grid = grid
            .with_topologies([TopologyLayout::Square, TopologyLayout::Hex])
            .with_site_densities([400.0, 1600.0])
            .with_migration_policies([MigrationPolicy::Eager, MigrationPolicy::Lazy])
            .with_users_per_edge([3]);
        assert_eq!(grid.len(), 8, "layout × density × policy axes multiply");
        let points = grid.points().unwrap();
        // Layout is the outermost axis, density next, policy third: each
        // layout's block is contiguous and spans every density × policy.
        assert_eq!(points[0].topology, Some(TopologyLayout::Square));
        assert_eq!(points[0].site_density, Some(400.0));
        assert_eq!(points[0].migration_policy, Some(MigrationPolicy::Eager));
        assert_eq!(points[1].migration_policy, Some(MigrationPolicy::Lazy));
        assert_eq!(points[2].site_density, Some(1600.0));
        assert_eq!(points[4].topology, Some(TopologyLayout::Hex));
        assert!(points.iter().all(|p| p.users_per_edge == Some(3)));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn fingerprints_separate_every_axis_and_stay_pure() {
        let base = SweepGrid::paper_panel(ExecutionTarget::Local);
        assert_eq!(base.fingerprint(), base.fingerprint());
        assert_eq!(
            base.fingerprint(),
            SweepGrid::paper_panel(ExecutionTarget::Local).fingerprint()
        );
        // Every axis perturbation moves the fingerprint.
        let variants = [
            base.clone().with_frame_sizes([300.0]),
            base.clone().with_cpu_clocks([1.5]),
            base.clone().with_executions([ExecutionTarget::Remote]),
            base.clone()
                .with_executions([ExecutionTarget::Split { client_share: 0.5 }]),
            base.clone()
                .with_executions([ExecutionTarget::Split { client_share: 0.6 }]),
            base.clone().with_devices(vec!["XR3".into()]),
            base.clone()
                .with_wireless(vec![WirelessCondition::new("far", Some(60.0), None)]),
            base.clone()
                .with_wireless(vec![WirelessCondition::new("far", None, Some(60.0))]),
            base.clone()
                .with_mobility(vec![MobilityCondition::new("walk", 1.5, 30.0)]),
            base.clone().with_frames_per_session([20]),
            base.clone().with_users_per_edge([2]),
            base.clone().with_frame_rates([20.0]),
            base.clone().with_topologies([TopologyLayout::Hex]),
            base.clone().with_site_densities([400.0]),
            base.clone()
                .with_migration_policies([MigrationPolicy::Lazy]),
            base.clone().with_replications(2),
            base.clone().with_frame_sizes([300.0, 400.0]),
        ];
        let mut prints: Vec<u64> = variants.iter().map(SweepGrid::fingerprint).collect();
        prints.push(base.fingerprint());
        let total = prints.len();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), total, "fingerprint collision across axes");
    }

    #[test]
    fn mobility_axis_multiplies_and_replications_clamp() {
        let grid = SweepGrid::paper_panel(ExecutionTarget::Remote)
            .with_frame_sizes([500.0])
            .with_cpu_clocks([2.0])
            .with_mobility(vec![
                MobilityCondition::static_device(),
                MobilityCondition::new("vehicle", 20.0, 15.0),
            ])
            .with_replications(0);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid.replications(), 1, "replications clamp to at least 1");
        let points = grid.points().unwrap();
        assert!(points[0].mobility.is_static());
        assert_eq!(&*points[1].mobility.label, "vehicle");
        assert_eq!(points[1].mobility.speed_mps, 20.0);
        assert_eq!(points[1].mobility.coverage_radius_m, 15.0);
        assert!(!points[1].mobility.is_static());
        let grid = grid.with_replications(7);
        assert_eq!(grid.replications(), 7);
        assert_eq!(grid.len(), 2, "replications are not an enumeration axis");
    }
}
