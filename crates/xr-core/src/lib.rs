//! # xr-core
//!
//! The paper's primary contribution: a per-segment performance-analysis
//! framework for XR applications in edge-assisted wireless networks.
//!
//! Given a [`Scenario`] (device, edge servers, CNNs, frame workload, encoder
//! settings, external sensors, wireless links, mobility), the framework
//! computes, per generated frame:
//!
//! * the **end-to-end latency** breakdown of Eq. 1 with the per-segment
//!   models of Eqs. 2–18 ([`LatencyModel`]),
//! * the **energy consumption** breakdown of Eqs. 19–21 plus base energy and
//!   thermal energy ([`EnergyModel`]),
//! * the **Age-of-Information** and **Relevance-of-Information** of every
//!   external sensor, Eqs. 22–26 ([`AoiModel`]).
//!
//! [`XrPerformanceModel::analyze`] returns all three;
//! [`XrPerformanceModel::predict`] returns the latency and energy
//! breakdowns alone, which is all a campaign row reads.
//!
//! The regression sub-models the framework relies on — compute-resource
//! availability (Eq. 3), encoding latency (Eq. 10), CNN complexity (Eq. 12)
//! and mean power (Eq. 21) — live in [`xr_devices`] and
//! [`encoding::EncodingLatencyModel`]; the framework can run them either with
//! the paper's published coefficients or refit on a (simulated) training
//! dataset, which is how the experiment harness mirrors the paper's
//! methodology.
//!
//! ```
//! use xr_core::{Scenario, XrPerformanceModel};
//! use xr_types::ExecutionTarget;
//!
//! // A OnePlus 8 Pro offloading object detection to a Jetson edge server.
//! let scenario = Scenario::builder()
//!     .client_from_catalog("XR2")?
//!     .frame_side(500.0)
//!     .execution(ExecutionTarget::Remote)
//!     .build()?;
//!
//! let model = XrPerformanceModel::published();
//! let report = model.analyze(&scenario)?;
//! assert!(report.latency.total().as_f64() > 0.0);
//! assert!(report.energy.total().as_f64() > 0.0);
//! # Ok::<(), xr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod aoi;
pub mod encoding;
pub mod energy;
pub mod latency;
pub mod report;
pub mod scenario;

pub use aoi::{AoiModel, AoiReport, SensorAoi};
pub use encoding::{EncodingConfig, EncodingLatencyModel, DECODE_DISCOUNT};
pub use energy::{EnergyBreakdown, EnergyModel, RadioPowerModel};
pub use latency::{LatencyBreakdown, LatencyModel};
pub use report::{PerformanceReport, XrPerformanceModel};
pub use scenario::{
    BufferConfig, CheckedScenario, ClientConfig, ContentionConfig, CooperationConfig,
    EdgeServerConfig, MobilityConfig, Scenario, ScenarioBuilder, SensorConfig, TopologyConfig,
};
