//! The §VIII-A/B mean-error summary: the proposed model's mean error against
//! ground truth for latency and energy, local and remote execution.

use crate::context::ExperimentContext;
use crate::figures::{energy_sweep, latency_sweep};
use serde::{Deserialize, Serialize};
use xr_types::{ExecutionTarget, Result};

/// The proposed model's mean errors over the Fig. 4 sweeps, the
/// counterparts of the four numbers the paper reports in §VIII-A/B
/// ([`ErrorSummary::PAPER_PERCENT`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Mean error of the latency model under local inference (%).
    pub latency_local_percent: f64,
    /// Mean error of the latency model under remote inference (%).
    pub latency_remote_percent: f64,
    /// Mean error of the energy model under local inference (%).
    pub energy_local_percent: f64,
    /// Mean error of the energy model under remote inference (%).
    pub energy_remote_percent: f64,
}

impl ErrorSummary {
    /// The mean errors the paper reports on its real testbed (%), in row
    /// order: latency local, latency remote, energy local, energy remote.
    pub const PAPER_PERCENT: [f64; 4] = [2.74, 3.23, 3.52, 5.38];

    /// Computes the summary over the full Fig. 4 sweeps.
    ///
    /// # Errors
    ///
    /// Propagates scenario and model errors.
    pub fn compute(ctx: &ExperimentContext) -> Result<Self> {
        Ok(Self {
            latency_local_percent: latency_sweep(ctx, ExecutionTarget::Local)?.mean_error_percent(),
            latency_remote_percent: latency_sweep(ctx, ExecutionTarget::Remote)?
                .mean_error_percent(),
            energy_local_percent: energy_sweep(ctx, ExecutionTarget::Local)?.mean_error_percent(),
            energy_remote_percent: energy_sweep(ctx, ExecutionTarget::Remote)?.mean_error_percent(),
        })
    }

    /// The largest of the four errors.
    #[must_use]
    pub fn worst_percent(&self) -> f64 {
        self.latency_local_percent
            .max(self.latency_remote_percent)
            .max(self.energy_local_percent)
            .max(self.energy_remote_percent)
    }

    /// Console/CSV rows comparing against the paper's reported values.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        let measured = [
            self.latency_local_percent,
            self.latency_remote_percent,
            self.energy_local_percent,
            self.energy_remote_percent,
        ];
        [
            "latency/local",
            "latency/remote",
            "energy/local",
            "energy/remote",
        ]
        .iter()
        .zip(measured.iter().zip(Self::PAPER_PERCENT))
        .map(|(name, (measured, paper))| {
            vec![
                (*name).to_string(),
                format!("{measured:.2}"),
                format!("{paper:.2}"),
            ]
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_summary_stays_in_single_digit_territory() {
        let ctx = ExperimentContext::quick(41).unwrap();
        let summary = ErrorSummary::compute(&ctx).unwrap();
        // On the simulated testbed the calibrated model should stay within a
        // handful of percent — the same order as the paper's 2.7–5.4 %.
        assert!(summary.worst_percent() < 20.0, "{summary:?}");
        assert!(summary.latency_local_percent > 0.0);
        assert_eq!(summary.rows().len(), 4);
    }
}
