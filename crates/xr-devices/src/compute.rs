//! The computation-resource availability model of Eq. 3.
//!
//! The XR application asks the OS for a share of the CPU and GPU; the
//! *effective* compute resource `c_client` that results cannot be written in
//! closed form, so the paper regresses it on the clock frequencies and the
//! utilisation split:
//!
//! ```text
//! c_client = ω_c·(18.24 + 1.84·f_c² − 6.02·f_c)
//!          + (1 − ω_c)·(193.67 + 400.96·f_g² − 558.29·f_g)      (R² = 0.87)
//! ```
//!
//! `c_client` divides the frame-size terms in every computation segment
//! (Eqs. 2, 4, 8–11), so its unit is "pixel² per millisecond of work". The
//! paper also derives the edge/client coupling `c_ε = 11.76 · c_client` from
//! the decoding-discount experiment around Eq. 14.
//!
//! Two usage modes are provided, mirroring the paper's methodology:
//!
//! * [`ComputeResourceModel::published`] — the exact published coefficients.
//! * [`ComputeResourceModel::fit`] — refit the same functional form on a
//!   (simulated) training set, which is what the experiment harness does
//!   before validating against held-out devices.

use serde::{Deserialize, Serialize};
use xr_stats::{FittedLinearModel, LinearRegression, NormalEquations};
use xr_types::{GigaHertz, Ratio, Result};

/// Edge-to-client compute coupling derived in the paper from the
/// decode-discount experiment: `c_ε = 11.76 · c_client`.
pub const EDGE_CLIENT_COMPUTE_RATIO: f64 = 11.76;

/// Lower clamp applied to the regression output so the resource stays usable
/// as a divisor even outside the fitted covariate range.
const MIN_RESOURCE: f64 = 0.5;

/// The Eq.-3 regression: linear in [`ComputeResourceModel::features`], no
/// global intercept.
const REGRESSION: LinearRegression = LinearRegression::new().without_intercept();

/// The compute-resource availability regression (Eq. 3).
///
/// Internally the model is linear in the six structural features
/// `[ω_c, ω_c·f_c, ω_c·f_c², ω̄_c, ω̄_c·f_g, ω̄_c·f_g²]` with no global
/// intercept, which is exactly the shape of Eq. 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComputeResourceModel {
    model: FittedLinearModel,
}

impl ComputeResourceModel {
    /// The published coefficients of Eq. 3 (R² = 0.87).
    #[must_use]
    pub fn published() -> Self {
        // Feature order: [ω_c, ω_c·f_c, ω_c·f_c², ω̄_c, ω̄_c·f_g, ω̄_c·f_g²]
        Self {
            model: FittedLinearModel::from_coefficients(
                0.0,
                vec![18.24, -6.02, 1.84, 193.67, -558.29, 400.96],
                0.87,
            ),
        }
    }

    /// Refits the Eq.-3 functional form on observations
    /// `(f_c, f_g, ω_c) → c_client`.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (empty, mismatched, or singular designs).
    pub fn fit(observations: &[(GigaHertz, GigaHertz, Ratio)], resources: &[f64]) -> Result<Self> {
        let model = REGRESSION.fit(
            observations.len(),
            |i| {
                let (fc, fg, wc) = observations[i];
                Self::features(fc, fg, wc)
            },
            resources,
        )?;
        Ok(Self { model })
    }

    /// Empty normal equations of the Eq.-3 form, to push
    /// [`Self::features`] rows into.
    #[must_use]
    pub fn equations() -> NormalEquations<6> {
        REGRESSION.equations()
    }

    /// The Eq.-3 model solved from accumulated normal equations: the
    /// coefficients [`Self::fit`] gives on the same rows, without in-sample
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (no rows, or a singular design).
    pub fn solve(equations: &NormalEquations<6>) -> Result<Self> {
        Ok(Self {
            model: equations.solve()?,
        })
    }

    /// The structural feature vector of Eq. 3 for a covariate triple.
    #[must_use]
    pub fn features(cpu_clock: GigaHertz, gpu_clock: GigaHertz, cpu_share: Ratio) -> [f64; 6] {
        let fc = cpu_clock.as_f64();
        let fg = gpu_clock.as_f64();
        let wc = cpu_share.as_f64();
        let wg = 1.0 - wc;
        [wc, wc * fc, wc * fc * fc, wg, wg * fg, wg * fg * fg]
    }

    /// The allocated client compute resource `c_client` (pixel²/ms), clamped
    /// below so it remains usable as a divisor outside the fitted range.
    #[must_use]
    pub fn client_resource(
        &self,
        cpu_clock: GigaHertz,
        gpu_clock: GigaHertz,
        cpu_share: Ratio,
    ) -> f64 {
        self.model
            .predict(&Self::features(cpu_clock, gpu_clock, cpu_share))
            .max(MIN_RESOURCE)
    }

    /// The edge-server compute resource `c_ε` coupled to a client resource
    /// through the paper's ratio [`EDGE_CLIENT_COMPUTE_RATIO`].
    #[must_use]
    pub fn edge_resource_from_client(&self, client_resource: f64) -> f64 {
        (client_resource * EDGE_CLIENT_COMPUTE_RATIO).max(MIN_RESOURCE)
    }

    /// The edge-server compute resource evaluated directly from the edge
    /// device's own clocks (used when the edge server is modelled explicitly
    /// rather than through the coupling ratio).
    #[must_use]
    pub fn edge_resource(
        &self,
        cpu_clock: GigaHertz,
        gpu_clock: GigaHertz,
        cpu_share: Ratio,
    ) -> f64 {
        self.client_resource(cpu_clock, gpu_clock, cpu_share) * EDGE_CLIENT_COMPUTE_RATIO
    }

    /// R² of the underlying regression; `None` for a model from
    /// [`Self::solve`].
    #[must_use]
    pub fn r_squared(&self) -> Option<f64> {
        self.model.r_squared()
    }

    /// Access to the fitted regression.
    #[must_use]
    pub fn regression(&self) -> &FittedLinearModel {
        &self.model
    }
}

impl Default for ComputeResourceModel {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(v: f64) -> GigaHertz {
        GigaHertz::new(v)
    }

    #[test]
    fn published_matches_eq3_cpu_only() {
        let m = ComputeResourceModel::published();
        // ω_c = 1: c = 18.24 + 1.84·f² − 6.02·f
        for f in [1.0, 2.0, 2.5, 3.0] {
            let expected = 18.24 + 1.84 * f * f - 6.02 * f;
            let got = m.client_resource(ghz(f), ghz(0.6), Ratio::ONE);
            assert!((got - expected).abs() < 1e-9, "f={f}: {got} vs {expected}");
        }
    }

    #[test]
    fn published_matches_eq3_gpu_only() {
        let m = ComputeResourceModel::published();
        // ω_c = 0: c = 193.67 + 400.96·f_g² − 558.29·f_g (clamped below).
        let f = 1.3;
        let expected = 193.67 + 400.96 * f * f - 558.29 * f;
        let got = m.client_resource(ghz(2.0), ghz(f), Ratio::ZERO);
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn mixed_share_interpolates() {
        let m = ComputeResourceModel::published();
        let cpu_only = m.client_resource(ghz(3.0), ghz(1.3), Ratio::ONE);
        let gpu_only = m.client_resource(ghz(3.0), ghz(1.3), Ratio::ZERO);
        let mixed = m.client_resource(ghz(3.0), ghz(1.3), Ratio::new(0.5));
        let expected = 0.5 * cpu_only + 0.5 * gpu_only;
        assert!((mixed - expected).abs() < 1e-9);
    }

    #[test]
    fn extrapolated_negative_region_is_clamped() {
        let m = ComputeResourceModel::published();
        // Near the GPU quadratic's minimum (~0.7 GHz) the raw value dips below
        // zero; the clamp keeps it usable as a divisor.
        let c = m.client_resource(ghz(2.0), ghz(0.7), Ratio::ZERO);
        assert!(c >= 0.5);
    }

    #[test]
    fn edge_resource_uses_published_coupling() {
        let m = ComputeResourceModel::published();
        let c = m.client_resource(ghz(2.84), ghz(0.587), Ratio::new(0.7));
        assert!((m.edge_resource_from_client(c) - 11.76 * c).abs() < 1e-9);
        assert!((m.edge_resource(ghz(2.84), ghz(0.587), Ratio::new(0.7)) - 11.76 * c).abs() < 1e-9);
    }

    #[test]
    fn refit_recovers_structural_coefficients() {
        // Generate data from a known monotone law and refit the Eq.-3 form.
        let mut observations = Vec::new();
        let mut resources = Vec::new();
        for fc10 in 10..=32 {
            for fg10 in 4..=14 {
                for wc10 in 0..=10 {
                    let fc = fc10 as f64 / 10.0;
                    let fg = fg10 as f64 / 10.0;
                    let wc = wc10 as f64 / 10.0;
                    observations.push((ghz(fc), ghz(fg), Ratio::new(wc)));
                    // True law: c = ω_c·(4 + 5·f_c) + ω̄_c·(2 + 30·f_g)
                    resources.push(wc * (4.0 + 5.0 * fc) + (1.0 - wc) * (2.0 + 30.0 * fg));
                }
            }
        }
        let fit = ComputeResourceModel::fit(&observations, &resources).unwrap();
        assert!(fit.r_squared().unwrap() > 0.999);
        let predicted = fit.client_resource(ghz(2.2), ghz(1.0), Ratio::new(0.3));
        let truth = 0.3 * (4.0 + 5.0 * 2.2) + 0.7 * (2.0 + 30.0 * 1.0);
        assert!((predicted - truth).abs() < 1e-6);
    }

    #[test]
    fn feature_vector_structure() {
        let f = ComputeResourceModel::features(ghz(2.0), ghz(1.0), Ratio::new(0.25));
        assert_eq!(f, [0.25, 0.5, 1.0, 0.75, 0.75, 0.75]);
    }
}
