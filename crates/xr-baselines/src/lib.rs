//! # xr-baselines
//!
//! Reimplementations of the two state-of-the-art analytical models the paper
//! compares against in Section VIII-D / Fig. 5:
//!
//! * **FACT** (Liu et al., INFOCOM'18) — an edge-orchestrator service-latency
//!   model for mobile AR that sums computation latency (a cycles-per-pixel
//!   model over the CPU clock), wireless transmission, and a core-network
//!   term. It does not model GPU/memory resources, codec parameters, frame
//!   rate, buffering, or per-segment structure.
//! * **LEAF** (Wang et al., TMC'23) — a per-segment latency/energy model for
//!   edge-assisted AR that breaks the pipeline down like the proposed
//!   framework but keeps FACT's simplified cycles-based computation model
//!   (no memory-bandwidth terms, no encoder-parameter regression, no
//!   CPU/GPU split, no queueing).
//!
//! Both baselines expose a [`BaselineModel`] interface over the same
//! [`CheckedScenario`] type the proposed framework uses, plus a one-point
//! [`BaselineModel::calibrate`] step that plays the role of fitting their
//! constants on training data. The Fig. 5 experiment calibrates every model
//! (including the proposed one, which needs no calibration) at the central
//! operating point and compares normalized accuracy across the frame-size
//! sweep.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod fact;
pub mod leaf;

pub use fact::FactModel;
pub use leaf::LeafModel;

use xr_core::CheckedScenario;
use xr_types::{Joules, Seconds};

/// A latency + energy analytical model that can be compared against the
/// proposed framework on the same scenarios.
pub trait BaselineModel {
    /// Human-readable model name used in figure legends.
    fn name(&self) -> &'static str;

    /// Predicted end-to-end latency for one frame of the scenario.
    fn predict_latency(&self, scenario: &CheckedScenario) -> Seconds;

    /// Predicted per-frame energy consumption of the XR device.
    fn predict_energy(&self, scenario: &CheckedScenario) -> Joules;

    /// Calibrates the model's free constants against one observed operating
    /// point (the analogue of training the baseline on measurement data).
    fn calibrate(
        &mut self,
        scenario: &CheckedScenario,
        observed_latency: Seconds,
        observed_energy: Joules,
    );
}
