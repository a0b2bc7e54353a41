//! # xr-testbed
//!
//! The ground-truth substitute for the paper's physical testbed.
//!
//! The paper validates its analytical framework against measurements taken on
//! seven XR devices, two Jetson edge servers, and a Monsoon power monitor.
//! None of that hardware is available here, so this crate provides a
//! discrete-event simulator with the same observable surface:
//!
//! * [`laws`] — the *hidden true laws* of the simulated hardware: monotone
//!   compute-resource and power curves, an encoder cost law with interaction
//!   terms, a CNN complexity law, and per-device bias factors. These are
//!   deliberately **not** the same functional forms as the paper's regression
//!   sub-models; the analytical framework only ever sees them through noisy
//!   measurements, exactly as in the real methodology.
//! * [`power`] — a Monsoon-style power monitor sampling a noisy power trace
//!   every 0.2 ms and integrating it to energy.
//! * [`simulator`] — the per-frame / per-session pipeline simulator that
//!   produces ground-truth latency and energy breakdowns (with queueing,
//!   handoff, and measurement noise). Every stage draws from its own named
//!   RNG stream keyed by `(session_seed, stage_id, frame_index)`.
//! * [`batch`] — the batched structure-of-arrays session engine: stages run
//!   as column loops over many frames, bit-identical to the scalar
//!   reference; [`TestbedSimulator::simulate_session`] uses it by default.
//! * [`lanes`] — the wide RNG lane banks the batched engine draws its
//!   columns from, one lane per frame, each replaying that frame's own
//!   stage stream.
//! * [`aoi`] — event-driven ground truth for the AoI experiments.
//! * [`dataset`] — measurement-campaign generation (the 119 465-sample
//!   training set and 36 083-sample test set) and regression refitting, which
//!   yields the *calibrated* analytical framework used in the evaluation.
//!
//! ```
//! use xr_core::Scenario;
//! use xr_testbed::TestbedSimulator;
//!
//! let scenario = Scenario::builder().build()?;
//! let testbed = TestbedSimulator::new(42);
//! let session = testbed.simulate_session(&scenario, 20)?;
//! assert!(session.mean_latency().as_f64() > 0.0);
//! # Ok::<(), xr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod aoi;
pub mod batch;
pub mod dataset;
pub mod lanes;
pub mod laws;
pub mod power;
pub mod simulator;

pub use aoi::AoiGroundTruth;
pub use batch::{SimulationEngine, DEFAULT_BATCH_WIDTH};
pub use dataset::{CalibratedModels, MeasurementCampaign, MeasurementDataset};
pub use laws::{DeviceBias, TrueLaws};
pub use power::{PowerMonitor, PowerTrace};
pub use simulator::{
    ContentionSnapshot, GroundTruthFrame, GroundTruthSession, SessionState, SessionTotals,
    TestbedSimulator,
};
