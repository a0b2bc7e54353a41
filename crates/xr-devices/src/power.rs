//! The power-consumption sub-models of Section V.
//!
//! * [`MeanPowerModel`] — the mean-power regression of Eq. 21,
//!   `P_mean = ω_c·(18.85·f_c − 3.64·f_c² − 20.74)
//!           + (1 − ω_c)·(187.48·f_g − 135.11·f_g² − 62.197)` (R² = 0.863),
//!   in watts.
//! * [`BasePower`] — the always-on background power (system clock, display,
//!   connectivity, leakage current) that accrues as `E_base` over the frame.
//! * [`ThermalModel`] — the small fraction of consumed electrical energy that
//!   is converted to heat (`E_θ`).

use serde::{Deserialize, Serialize};
use xr_stats::{FittedLinearModel, LinearRegression, NormalEquations};
use xr_types::{GigaHertz, Joules, Ratio, Result, Seconds, Watts};

/// Lower clamp on the regression output: a running XR workload never draws
/// less than this (Eq. 21 extrapolates below zero outside the fitted range).
const MIN_ACTIVE_POWER_W: f64 = 0.25;

/// The Eq.-21 regression: linear in [`MeanPowerModel::features`], no
/// global intercept.
const REGRESSION: LinearRegression = LinearRegression::new().without_intercept();

/// The mean-power regression of Eq. 21.
///
/// Like [`crate::ComputeResourceModel`], the model is linear in the six
/// structural features `[ω_c, ω_c·f_c, ω_c·f_c², ω̄_c, ω̄_c·f_g, ω̄_c·f_g²]`
/// with no global intercept.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeanPowerModel {
    model: FittedLinearModel,
}

impl MeanPowerModel {
    /// The published coefficients of Eq. 21 (R² = 0.863).
    #[must_use]
    pub fn published() -> Self {
        // Feature order: [ω_c, ω_c·f_c, ω_c·f_c², ω̄_c, ω̄_c·f_g, ω̄_c·f_g²]
        Self {
            model: FittedLinearModel::from_coefficients(
                0.0,
                vec![-20.74, 18.85, -3.64, -62.197, 187.48, -135.11],
                0.863,
            ),
        }
    }

    /// Refits the Eq.-21 functional form on observations
    /// `(f_c, f_g, ω_c) → mean power (W)`.
    ///
    /// # Errors
    ///
    /// Propagates regression errors.
    pub fn fit(observations: &[(GigaHertz, GigaHertz, Ratio)], power_w: &[f64]) -> Result<Self> {
        let model = REGRESSION.fit(
            observations.len(),
            |i| {
                let (fc, fg, wc) = observations[i];
                Self::features(fc, fg, wc)
            },
            power_w,
        )?;
        Ok(Self { model })
    }

    /// Empty normal equations of the Eq.-21 form, to push
    /// [`Self::features`] rows into.
    #[must_use]
    pub fn equations() -> NormalEquations<6> {
        REGRESSION.equations()
    }

    /// The Eq.-21 model solved from accumulated normal equations: the
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

    /// The structural feature vector of Eq. 21.
    #[must_use]
    pub fn features(cpu_clock: GigaHertz, gpu_clock: GigaHertz, cpu_share: Ratio) -> [f64; 6] {
        let fc = cpu_clock.as_f64();
        let fg = gpu_clock.as_f64();
        let wc = cpu_share.as_f64();
        let wg = 1.0 - wc;
        [wc, wc * fc, wc * fc * fc, wg, wg * fg, wg * fg * fg]
    }

    /// Mean power draw while executing a computation segment, clamped below
    /// at a small positive floor.
    #[must_use]
    pub fn mean_power(
        &self,
        cpu_clock: GigaHertz,
        gpu_clock: GigaHertz,
        cpu_share: Ratio,
    ) -> Watts {
        Watts::new(
            self.model
                .predict(&Self::features(cpu_clock, gpu_clock, cpu_share))
                .max(MIN_ACTIVE_POWER_W),
        )
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

impl Default for MeanPowerModel {
    fn default() -> Self {
        Self::published()
    }
}

/// Always-on base power of an XR device (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BasePower {
    power: Watts,
}

impl BasePower {
    /// Typical smartphone base draw with the screen on and radios idle,
    /// matching the measurement literature the paper builds on (≈ 0.8 W).
    #[must_use]
    pub fn typical_smartphone() -> Self {
        Self {
            power: Watts::new(0.8),
        }
    }

    /// Base energy over a window: `E_base = P_base · T`.
    #[must_use]
    pub fn energy_over(&self, window: Seconds) -> Joules {
        self.power * window.max(Seconds::ZERO)
    }
}

impl Default for BasePower {
    fn default() -> Self {
        Self::typical_smartphone()
    }
}

/// Fraction of the consumed electrical energy converted to heat (`E_θ`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    fraction: Ratio,
}

impl ThermalModel {
    /// Typical conversion fraction for a passively-cooled mobile SoC (≈ 5 %).
    #[must_use]
    pub fn typical() -> Self {
        Self {
            fraction: Ratio::new(0.05),
        }
    }

    /// Thermal energy `E_θ` produced while consuming `consumed` joules of
    /// electrical energy.
    #[must_use]
    pub fn thermal_energy(&self, consumed: Joules) -> Joules {
        consumed.max_zero() * self.fraction.as_f64()
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(v: f64) -> GigaHertz {
        GigaHertz::new(v)
    }

    #[test]
    fn published_matches_eq21_cpu_only() {
        let m = MeanPowerModel::published();
        for f in [2.0, 2.5, 3.0] {
            let expected = 18.85 * f - 3.64 * f * f - 20.74;
            let got = m.mean_power(ghz(f), ghz(0.6), Ratio::ONE).as_f64();
            assert!((got - expected).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn published_matches_eq21_gpu_only() {
        let m = MeanPowerModel::published();
        let f = 0.6_f64;
        let expected = 187.48 * f - 135.11 * f * f - 62.197;
        let got = m.mean_power(ghz(2.0), ghz(f), Ratio::ZERO).as_f64();
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn power_clamped_outside_fitted_range() {
        let m = MeanPowerModel::published();
        // At 1 GHz CPU-only the raw Eq. 21 value is negative; clamp applies.
        let p = m.mean_power(ghz(1.0), ghz(0.6), Ratio::ONE);
        assert!(p.as_f64() >= MIN_ACTIVE_POWER_W);
    }

    #[test]
    fn refit_recovers_known_power_law() {
        let mut obs = Vec::new();
        let mut ys = Vec::new();
        for fc10 in 18..=32 {
            for fg10 in 4..=14 {
                for wc10 in 0..=10 {
                    let fc = fc10 as f64 / 10.0;
                    let fg = fg10 as f64 / 10.0;
                    let wc = wc10 as f64 / 10.0;
                    obs.push((ghz(fc), ghz(fg), Ratio::new(wc)));
                    ys.push(wc * (0.5 + 1.1 * fc) + (1.0 - wc) * (0.3 + 2.5 * fg));
                }
            }
        }
        let fit = MeanPowerModel::fit(&obs, &ys).unwrap();
        assert!(fit.r_squared().unwrap() > 0.999);
        let p = fit.mean_power(ghz(2.5), ghz(1.0), Ratio::new(0.4)).as_f64();
        let truth = 0.4 * (0.5 + 1.1 * 2.5) + 0.6 * (0.3 + 2.5 * 1.0);
        assert!((p - truth).abs() < 1e-6);
        assert_eq!(fit.regression().coefficients().len(), 6);
    }

    #[test]
    fn base_power_energy_accrues_linearly() {
        let base = BasePower::typical_smartphone();
        assert!((base.energy_over(Seconds::new(1.0)).as_f64() - 0.8).abs() < 1e-12);
        let e = base.energy_over(Seconds::new(2.0));
        assert!((e.as_f64() - 1.6).abs() < 1e-12);
        assert_eq!(base.energy_over(Seconds::new(-1.0)).as_f64(), 0.0);
    }

    #[test]
    fn thermal_energy_is_a_fraction() {
        let t = ThermalModel::typical();
        let e = t.thermal_energy(Joules::new(10.0));
        assert!((e.as_f64() - 0.5).abs() < 1e-12);
        assert_eq!(t.thermal_energy(Joules::new(-3.0)).as_f64(), 0.0);
    }

    #[test]
    fn higher_gpu_clock_draws_more_power_in_fitted_range() {
        let m = MeanPowerModel::published();
        // Within the fitted band (≈0.45–0.7 GHz for the GPUs of Table I) the
        // published quadratic is increasing.
        let low = m.mean_power(ghz(2.5), ghz(0.45), Ratio::ZERO);
        let high = m.mean_power(ghz(2.5), ghz(0.65), Ratio::ZERO);
        assert!(high > low);
    }
}
