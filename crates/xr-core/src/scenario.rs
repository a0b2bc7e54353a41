//! Scenario configuration: everything the analytical models need to know
//! about one XR application deployment.
//!
//! A [`Scenario`] bundles the client device, the edge server(s), the CNNs,
//! the per-frame workload, the encoder settings, the external sensors, the
//! input-buffer queueing parameters, the wireless links, device mobility, and
//! the execution decision (`ω_loc` / task split). Both the analytical models
//! (`xr-core`) and the ground-truth simulator (`xr-testbed`) consume the same
//! `Scenario`, which is what makes the validation experiments of Section VIII
//! an apples-to-apples comparison.

use crate::encoding::EncodingConfig;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use xr_devices::{CnnCatalog, CnnModel, DeviceCatalog};
use xr_types::{
    Error, ExecutionTarget, Frame, FrameId, GigaBytesPerSecond, GigaHertz, Hertz,
    MegaBitsPerSecond, MegaBytes, Meters, MetersPerSecond, MigrationPolicy, Ratio, Result,
    SegmentSet, TopologyLayout,
};
use xr_wireless::{AccessTechnology, HandoffKind};

/// The XR client device's compute-relevant parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Catalog name (informational).
    pub name: &'static str,
    /// CPU clock `f_c`.
    pub cpu_clock: GigaHertz,
    /// GPU clock `f_g`.
    pub gpu_clock: GigaHertz,
    /// CPU share of the task `ω_c` (GPU share is the complement).
    pub cpu_share: Ratio,
    /// Memory bandwidth `m_client`.
    pub memory_bandwidth: GigaBytesPerSecond,
}

impl ClientConfig {
    /// Builds a client configuration from a Table I catalog entry, using the
    /// evaluation's default utilisation split (`ω_c = 0.6`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown device names.
    pub fn from_catalog(name: &str) -> Result<Self> {
        let catalog = DeviceCatalog::table1();
        let spec = catalog.device(name)?;
        Ok(Self {
            name: &spec.name,
            cpu_clock: spec.cpu_clock,
            gpu_clock: spec.gpu_clock,
            cpu_share: Ratio::new(0.6),
            memory_bandwidth: spec.memory_bandwidth,
        })
    }
}

/// One edge server able to host (part of) the remote inference task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeServerConfig {
    /// Catalog name (informational).
    pub name: &'static str,
    /// Explicit compute resource `c_ε` in the same unit as `c_client`
    /// (pixel²/ms). `None` means "derive from the client through the paper's
    /// coupling `c_ε = 11.76 · c_client`".
    pub compute_resource: Option<f64>,
    /// Memory bandwidth `m_ε`.
    pub memory_bandwidth: GigaBytesPerSecond,
    /// Share of the inference task assigned to this server (`ω_edge^e`);
    /// shares are normalised against the client share at analysis time.
    pub task_share: f64,
    /// Distance to the XR device `d_ε`.
    pub distance: Meters,
    /// Access technology of the link to this server.
    pub technology: AccessTechnology,
    /// Available throughput `r_w` of the link; `None` uses the technology's
    /// nominal throughput.
    pub throughput: Option<MegaBitsPerSecond>,
}

impl EdgeServerConfig {
    /// The Jetson AGX Xavier edge server of the testbed on the 5 GHz Wi-Fi
    /// link, 15 m from the XR device, taking the whole offloaded task.
    ///
    /// # Panics
    ///
    /// Never panics: the catalog entry exists.
    #[must_use]
    pub fn jetson_xavier() -> Self {
        let catalog = DeviceCatalog::table1();
        let spec = catalog.device("EDGE-XAVIER").expect("catalog entry exists");
        Self {
            name: &spec.name,
            compute_resource: None,
            memory_bandwidth: spec.memory_bandwidth,
            task_share: 1.0,
            distance: Meters::new(15.0),
            technology: AccessTechnology::WiFi5GHz,
            throughput: None,
        }
    }
}

/// An external sensor or device that streams control/environment information
/// to the XR device (Section III, "external sensor information generation").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Human-readable label.
    pub name: String,
    /// Information-generation frequency `f_t^m`.
    pub generation_frequency: Hertz,
    /// Distance to the XR device `d_m`.
    pub distance: Meters,
    /// Packet arrival rate `λ_m` into the XR input buffer (packets/s); by
    /// default equal to the generation frequency.
    pub arrival_rate: f64,
}

impl SensorConfig {
    /// Creates a sensor whose buffer arrival rate equals its generation
    /// frequency.
    #[must_use]
    pub fn new(name: impl Into<String>, generation_frequency: Hertz, distance: Meters) -> Self {
        let rate = generation_frequency.as_f64();
        Self {
            name: name.into(),
            generation_frequency,
            distance,
            arrival_rate: rate,
        }
    }
}

/// Input-buffer queueing parameters (Eq. 7 / Eq. 22): the buffer is modelled
/// as a set of stable M/M/1 flows sharing a service rate `µ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Service rate `µ` of the input buffer in items/s.
    pub service_rate: f64,
    /// Arrival rate of captured frames (defaults to the frame rate).
    pub frame_arrival_rate: Option<f64>,
    /// Arrival rate of volumetric-data items (defaults to the frame rate).
    pub volumetric_arrival_rate: Option<f64>,
}

impl Default for BufferConfig {
    fn default() -> Self {
        Self {
            service_rate: 2_000.0,
            frame_arrival_rate: None,
            volumetric_arrival_rate: None,
        }
    }
}

/// Multi-tenant edge contention: how many concurrent XR sessions share each
/// edge inference server.
///
/// When present on a [`Scenario`], the testbed's uplink/edge-inference stage
/// stops treating the edge as a private accelerator and instead draws the
/// tagged session's per-frame sojourn from a stable M/M/1 queue whose arrival
/// rate is `users_per_edge × frame rate` and whose service rate is the
/// reciprocal of the deterministic per-frame edge service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionConfig {
    /// Number of sessions sharing each edge server, including this one.
    pub users_per_edge: u32,
}

/// A multi-edge service-area topology for the session to roam across.
///
/// When present on a [`Scenario`], the testbed replaces the paper's single
/// coverage zone with an `xr-wireless` `EdgeTopology`: a map of edge sites
/// whose per-site coverage radius follows from `site_density`, whose tenant
/// populations cycle around [`ContentionConfig::users_per_edge`] (when
/// contention is configured), and between which boundary crossings become
/// inter-site **state migrations** priced by `migration_policy`. `None`
/// keeps the legacy single-zone mobility model byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// The site-layout family of the map.
    pub layout: TopologyLayout,
    /// Edge-site density in sites per square kilometre; fixes the lattice
    /// spacing and with it every site's coverage radius (tiled layouts
    /// ignore [`MobilityConfig::coverage_radius`]). Ignored by
    /// [`TopologyLayout::Single`], which reuses the mobility radius.
    pub site_density: f64,
    /// How session state follows the device across an inter-site handoff.
    pub migration_policy: MigrationPolicy,
}

/// Device mobility and handoff parameters (Eq. 17).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Device speed; zero disables handoffs entirely.
    pub speed: MetersPerSecond,
    /// Coverage radius of the serving zone.
    pub coverage_radius: Meters,
    /// The kind of handoff performed on leaving the zone.
    pub handoff_kind: HandoffKind,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        Self {
            speed: MetersPerSecond::new(0.0),
            coverage_radius: Meters::new(30.0),
            handoff_kind: HandoffKind::Vertical,
        }
    }
}

/// XR-cooperation parameters (Eq. 18).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CooperationConfig {
    /// Payload shared with the cooperative device `δ_f4`.
    pub payload: MegaBytes,
    /// Distance to the cooperative device `d_coop`.
    pub distance: Meters,
    /// Link throughput towards the cooperative device.
    pub throughput: MegaBitsPerSecond,
    /// Whether cooperation latency/energy is included in the end-to-end
    /// totals (the paper's default is *not*, because cooperation runs in
    /// parallel with rendering).
    pub include_in_totals: bool,
}

impl Default for CooperationConfig {
    fn default() -> Self {
        Self {
            payload: MegaBytes::new(0.05),
            distance: Meters::new(20.0),
            throughput: AccessTechnology::WiFi5GHz.nominal_throughput(),
            include_in_totals: false,
        }
    }
}

/// A complete XR application scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The XR client device.
    pub client: ClientConfig,
    /// Edge servers available for remote inference (may be empty for a
    /// purely local scenario).
    pub edge_servers: Vec<EdgeServerConfig>,
    /// Where the inference task executes.
    pub execution: ExecutionTarget,
    /// The per-frame workload.
    pub frame: Frame,
    /// H.264 encoder settings (only relevant to the remote path).
    pub encoding: EncodingConfig,
    /// The lightweight on-device CNN, a Table II entry.
    pub local_cnn: &'static CnnModel,
    /// The edge-side CNN, a Table II entry.
    pub remote_cnn: &'static CnnModel,
    /// External sensors streaming control information. Shared, so a
    /// scenario built with the default sensors copies no sensor.
    pub sensors: Arc<[SensorConfig]>,
    /// Number of information updates `N` the application requires per frame.
    pub updates_per_frame: u32,
    /// Input-buffer queueing parameters.
    pub buffer: BufferConfig,
    /// Mobility and handoff parameters.
    pub mobility: MobilityConfig,
    /// XR-cooperation parameters.
    pub cooperation: CooperationConfig,
    /// Multi-tenant edge contention; `None` keeps the paper's private-edge
    /// assumption.
    pub contention: Option<ContentionConfig>,
    /// Multi-edge service-area topology; `None` keeps the paper's
    /// single-coverage-zone mobility model.
    pub topology: Option<TopologyConfig>,
    /// Which segments are included in the end-to-end totals.
    pub segments: SegmentSet,
}

impl Scenario {
    /// Starts building a scenario from defaults matching the paper's
    /// evaluation setup.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The per-frame processing window used for mobility/AoI computations:
    /// one frame interval `1/n_fps`.
    #[must_use]
    pub fn frame_window(&self) -> xr_types::Seconds {
        self.frame.frame_rate.period()
    }

    /// Total external-information arrival rate into the input buffer.
    #[must_use]
    pub fn external_arrival_rate(&self) -> f64 {
        self.sensors.iter().map(|s| s.arrival_rate).sum()
    }

    /// Validates structural consistency: remote execution requires at least
    /// one edge server, buffer stability, and positive workload parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfiguration`] or [`Error::UnstableQueue`]
    /// when the scenario cannot be analysed.
    pub fn validate(&self) -> Result<()> {
        if self.execution.uses_edge() && self.edge_servers.is_empty() {
            return Err(Error::invalid_configuration(
                "remote or split execution requires at least one edge server",
            ));
        }
        if !self.frame.frame_rate.is_positive() {
            return Err(Error::invalid_parameter("frame_rate", "must be positive"));
        }
        if !self.client.memory_bandwidth.is_positive() {
            return Err(Error::invalid_parameter(
                "memory_bandwidth",
                "must be positive",
            ));
        }
        if self.execution.uses_edge() {
            let total_share: f64 = self.edge_servers.iter().map(|e| e.task_share).sum();
            if total_share <= 0.0 {
                return Err(Error::invalid_configuration(
                    "edge task shares must sum to a positive value",
                ));
            }
        }
        // Buffer stability for every flow (the paper requires a *stable*
        // M/M/1 system).
        let mu = self.buffer.service_rate;
        let frame_rate = self.frame.frame_rate.as_f64();
        let flows = [
            self.buffer.frame_arrival_rate.unwrap_or(frame_rate),
            self.buffer.volumetric_arrival_rate.unwrap_or(frame_rate),
            self.external_arrival_rate().max(f64::MIN_POSITIVE),
        ];
        for lambda in flows {
            if lambda >= mu {
                return Err(Error::UnstableQueue {
                    arrival_rate: lambda,
                    service_rate: mu,
                });
            }
        }
        if self.updates_per_frame == 0 {
            return Err(Error::invalid_parameter(
                "updates_per_frame",
                "must be at least 1",
            ));
        }
        if let Some(contention) = self.contention {
            if contention.users_per_edge == 0 {
                return Err(Error::invalid_parameter(
                    "users_per_edge",
                    "must be at least 1",
                ));
            }
        }
        if let Some(topology) = self.topology {
            if topology.layout != TopologyLayout::Single
                && !(topology.site_density.is_finite() && topology.site_density > 0.0)
            {
                return Err(Error::invalid_parameter(
                    "site_density",
                    "must be a positive number of sites per km²",
                ));
            }
        }
        Ok(())
    }
}

/// The three vehicular-style external sensors of the evaluation defaults,
/// built once and shared by every scenario that keeps them.
fn default_sensors() -> Arc<[SensorConfig]> {
    static DEFAULT: OnceLock<Arc<[SensorConfig]>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            Arc::new([
                SensorConfig::new("roadside-unit", Hertz::new(200.0), Meters::new(50.0)),
                SensorConfig::new("neighbor-xr", Hertz::new(100.0), Meters::new(20.0)),
                SensorConfig::new("iot-beacon", Hertz::new(66.67), Meters::new(35.0)),
            ])
        })
        .clone()
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    client: ClientConfig,
    edge_servers: Vec<EdgeServerConfig>,
    execution: ExecutionTarget,
    frame_side: f64,
    frame_rate: Hertz,
    encoding: EncodingConfig,
    local_cnn: &'static CnnModel,
    remote_cnn: &'static CnnModel,
    sensors: Arc<[SensorConfig]>,
    updates_per_frame: u32,
    buffer: BufferConfig,
    mobility: MobilityConfig,
    cooperation: CooperationConfig,
    contention: Option<ContentionConfig>,
    topology: Option<TopologyConfig>,
    segments: SegmentSet,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Creates a builder pre-loaded with the paper's evaluation defaults:
    /// the OnePlus 8 Pro client (XR2), a Jetson AGX Xavier edge server,
    /// MobileNetV2-300 locally, YOLOv3 remotely, 30 fps, a 500 px² frame,
    /// three vehicular-style external sensors, and a static device.
    #[must_use]
    pub fn new() -> Self {
        Self::for_client(ClientConfig::from_catalog("XR2").expect("XR2 exists in Table I"))
    }

    /// A builder with [`ScenarioBuilder::new`]'s defaults around the given
    /// client.
    #[must_use]
    pub fn for_client(client: ClientConfig) -> Self {
        let cnn_catalog = CnnCatalog::table2();
        Self {
            client,
            edge_servers: vec![EdgeServerConfig::jetson_xavier()],
            execution: ExecutionTarget::Local,
            frame_side: 500.0,
            frame_rate: Hertz::new(30.0),
            encoding: EncodingConfig::default(),
            local_cnn: cnn_catalog.default_local(),
            remote_cnn: cnn_catalog.default_remote(),
            sensors: default_sensors(),
            updates_per_frame: 6,
            buffer: BufferConfig::default(),
            mobility: MobilityConfig::default(),
            cooperation: CooperationConfig::default(),
            contention: None,
            topology: None,
            segments: SegmentSet::standard(),
        }
    }

    /// Sets the client from a Table I catalog entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown device names.
    pub fn client_from_catalog(mut self, name: &str) -> Result<Self> {
        self.client = ClientConfig::from_catalog(name)?;
        Ok(self)
    }

    /// Sets the client configuration explicitly.
    #[must_use]
    pub fn client(mut self, client: ClientConfig) -> Self {
        self.client = client;
        self
    }

    /// Overrides the client CPU clock (the 1/2/3 GHz sweep of Fig. 4).
    #[must_use]
    pub fn cpu_clock(mut self, clock: GigaHertz) -> Self {
        self.client.cpu_clock = clock;
        self
    }

    /// Overrides the CPU/GPU utilisation split `ω_c`.
    #[must_use]
    pub fn cpu_share(mut self, share: Ratio) -> Self {
        self.client.cpu_share = share;
        self
    }

    /// Replaces the edge-server list.
    #[must_use]
    pub fn edge_servers(mut self, servers: Vec<EdgeServerConfig>) -> Self {
        self.edge_servers = servers;
        self
    }

    /// Sets the execution target (`ω_loc` / task split).
    #[must_use]
    pub fn execution(mut self, execution: ExecutionTarget) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the frame side (the paper's "frame size (pixel²)" sweep variable,
    /// 300–700).
    #[must_use]
    pub fn frame_side(mut self, side: f64) -> Self {
        self.frame_side = side;
        self
    }

    /// Sets the capture frame rate `n_fps`.
    #[must_use]
    pub fn frame_rate(mut self, rate: Hertz) -> Self {
        self.frame_rate = rate;
        self
    }

    /// Sets the H.264 encoder configuration.
    #[must_use]
    pub fn encoding(mut self, encoding: EncodingConfig) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the on-device CNN by Table II name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown CNN names.
    pub fn local_cnn(mut self, name: &str) -> Result<Self> {
        self.local_cnn = CnnCatalog::table2().model(name)?;
        Ok(self)
    }

    /// Sets the edge-side CNN by Table II name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for unknown CNN names.
    pub fn remote_cnn(mut self, name: &str) -> Result<Self> {
        self.remote_cnn = CnnCatalog::table2().model(name)?;
        Ok(self)
    }

    /// Replaces the external sensor list (a `Vec`, an array or a shared
    /// list).
    #[must_use]
    pub fn sensors(mut self, sensors: impl Into<Arc<[SensorConfig]>>) -> Self {
        self.sensors = sensors.into();
        self
    }

    /// Sets the number of information updates the application requires per
    /// frame (`N`).
    #[must_use]
    pub fn updates_per_frame(mut self, updates: u32) -> Self {
        self.updates_per_frame = updates;
        self
    }

    /// Sets the input-buffer queueing parameters.
    #[must_use]
    pub fn buffer(mut self, buffer: BufferConfig) -> Self {
        self.buffer = buffer;
        self
    }

    /// Sets device mobility.
    #[must_use]
    pub fn mobility(mut self, mobility: MobilityConfig) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets XR-cooperation parameters.
    #[must_use]
    pub fn cooperation(mut self, cooperation: CooperationConfig) -> Self {
        self.cooperation = cooperation;
        self
    }

    /// Shares each edge server between `users` concurrent sessions (multi-
    /// tenant contention); one user means an aggregate queue carrying only
    /// the tagged session.
    #[must_use]
    pub fn contention(mut self, users: u32) -> Self {
        self.contention = Some(ContentionConfig {
            users_per_edge: users,
        });
        self
    }

    /// Spreads the session over a multi-edge topology; boundary crossings
    /// then migrate the session between edge sites instead of re-entering
    /// one zone.
    #[must_use]
    pub fn topology(mut self, topology: TopologyConfig) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the segment set included in the totals.
    #[must_use]
    pub fn segments(mut self, segments: SegmentSet) -> Self {
        self.segments = segments;
        self
    }

    /// Builds and validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`Scenario::validate`].
    pub fn build(self) -> Result<Scenario> {
        let frame = Frame::from_resolution(FrameId::new(1), self.frame_side, self.frame_rate);
        let scenario = Scenario {
            client: self.client,
            edge_servers: self.edge_servers,
            execution: self.execution,
            frame,
            encoding: self.encoding,
            local_cnn: self.local_cnn,
            remote_cnn: self.remote_cnn,
            sensors: self.sensors,
            updates_per_frame: self.updates_per_frame,
            buffer: self.buffer,
            mobility: self.mobility,
            cooperation: self.cooperation,
            contention: self.contention,
            topology: self.topology,
            segments: self.segments,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_types::Segment;

    #[test]
    fn default_builder_produces_valid_local_scenario() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.execution, ExecutionTarget::Local);
        assert_eq!(s.sensors.len(), 3);
        assert!(s.segments.contains(Segment::FrameGeneration));
        assert!(!s.segments.contains(Segment::XrCooperation));
        assert!((s.frame_window().as_f64() - 1.0 / 30.0).abs() < 1e-12);
        assert!(s.external_arrival_rate() > 0.0);
    }

    #[test]
    fn remote_scenario_requires_edge_server() {
        let err = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .edge_servers(Vec::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfiguration(_)));

        let ok = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn unstable_buffer_rejected() {
        let err = Scenario::builder()
            .buffer(BufferConfig {
                service_rate: 10.0,
                ..BufferConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnstableQueue { .. }));
    }

    #[test]
    fn zero_updates_rejected() {
        let err = Scenario::builder()
            .updates_per_frame(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
    }

    #[test]
    fn builder_setters_apply() {
        let s = Scenario::builder()
            .client_from_catalog("XR1")
            .unwrap()
            .cpu_clock(GigaHertz::new(2.0))
            .cpu_share(Ratio::new(0.8))
            .frame_side(640.0)
            .frame_rate(Hertz::new(60.0))
            .updates_per_frame(4)
            .local_cnn("EfficientNet_Float")
            .unwrap()
            .remote_cnn("YoloV7")
            .unwrap()
            .execution(ExecutionTarget::Split { client_share: 0.4 })
            .build()
            .unwrap();
        assert_eq!(s.client.name, "XR1");
        assert!((s.client.cpu_clock.as_f64() - 2.0).abs() < 1e-12);
        assert!((s.client.cpu_share.as_f64() - 0.8).abs() < 1e-12);
        assert!((s.frame.raw_size.as_f64() - 640.0).abs() < 1e-9);
        assert_eq!(s.local_cnn.name, "EfficientNet_Float");
        assert_eq!(s.remote_cnn.name, "YoloV7");
        assert_eq!(s.updates_per_frame, 4);
        assert!(s.execution.uses_edge() && s.execution.uses_client());
    }

    #[test]
    fn unknown_names_are_reported() {
        assert!(Scenario::builder().client_from_catalog("XR42").is_err());
        assert!(Scenario::builder().local_cnn("ImaginaryNet").is_err());
        assert!(Scenario::builder().remote_cnn("ImaginaryNet").is_err());
    }

    #[test]
    fn edge_share_must_be_positive_for_remote() {
        let mut server = EdgeServerConfig::jetson_xavier();
        server.task_share = 0.0;
        let err = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .edge_servers(vec![server])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfiguration(_)));
    }

    #[test]
    fn contention_defaults_off_and_rejects_zero_users() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.contention, None);

        let shared = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .contention(4)
            .build()
            .unwrap();
        assert_eq!(
            shared.contention,
            Some(ContentionConfig { users_per_edge: 4 })
        );

        let err = Scenario::builder().contention(0).build().unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }));
        assert!(err.to_string().contains("users_per_edge"));
    }

    #[test]
    fn topology_defaults_off_and_rejects_bad_density() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.topology, None);

        let tiled = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .topology(TopologyConfig {
                layout: TopologyLayout::Hex,
                site_density: 400.0,
                migration_policy: MigrationPolicy::Eager,
            })
            .build()
            .unwrap();
        assert_eq!(tiled.topology.unwrap().layout, TopologyLayout::Hex);

        for density in [0.0, -25.0, f64::NAN] {
            let err = Scenario::builder()
                .topology(TopologyConfig {
                    layout: TopologyLayout::Square,
                    site_density: density,
                    migration_policy: MigrationPolicy::Lazy,
                })
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("site_density"), "{density}");
        }

        // The single layout reuses the mobility radius; density is ignored.
        let single = Scenario::builder()
            .topology(TopologyConfig {
                layout: TopologyLayout::Single,
                site_density: 0.0,
                migration_policy: MigrationPolicy::Eager,
            })
            .build();
        assert!(single.is_ok());
    }

    #[test]
    fn sensor_defaults_tie_arrival_to_generation() {
        let s = SensorConfig::new("lidar", Hertz::new(100.0), Meters::new(5.0));
        assert!((s.arrival_rate - 100.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_debug_output_is_informative() {
        let s = Scenario::builder().build().unwrap();
        let text = format!("{s:?}");
        assert!(text.contains("XR2"));
        assert!(text.contains("YoloV3"));
    }
}
