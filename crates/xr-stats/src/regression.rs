//! Multiple linear regression by ordinary least squares.
//!
//! The paper trains its regression sub-models with a 95 % confidence boundary
//! on datasets collected from a subset of devices (XR1, XR3, XR5, XR6) and
//! validates on held-out devices (XR2, XR4, XR7). [`LinearRegression`]
//! reproduces that workflow: fit on training rows, report R² / adjusted R²,
//! and predict (with optional 95 % confidence intervals) on test covariates.
//!
//! The fit streams its rows: the caller passes a row count and a function
//! that returns row `i` as a fixed-width `[f64; F]`, and the fit reads every
//! row twice without building a design matrix. Pass 1 accumulates the upper
//! triangle of `XᵀX` and `Xᵀy` on the stack, one row at a time in row order,
//! skipping the products of a zero entry; pass 2 recomputes each prediction
//! and folds the residual sum of squares. Every accumulator sees the same
//! addends in the same order as the textbook `XᵀX`/`Xᵀy` products over a
//! materialised design, so the coefficients and diagnostics are bit-for-bit
//! those of that computation. Only the `k × k` normal equations go through
//! [`Matrix`].

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use xr_types::{Error, Result};

/// Critical value of the standard normal distribution for a two-sided 95 %
/// interval. With the dataset sizes used in this workspace (≥ 10⁴ rows) the
/// Student-t value is indistinguishable from the normal one.
const Z_95: f64 = 1.959_963_984_540_054;

/// Widest design row the streamed fit accumulates on the stack: the feature
/// columns plus the intercept column.
const MAX_DESIGN_COLS: usize = 8;

/// Ordinary-least-squares fitter (configuration half of the builder pair).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRegression {
    fit_intercept: bool,
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl LinearRegression {
    /// Creates a fitter with an intercept — the paper's setting.
    #[must_use]
    pub fn new() -> Self {
        Self {
            fit_intercept: true,
        }
    }

    /// Disables the intercept column.
    #[must_use]
    pub fn without_intercept(mut self) -> Self {
        self.fit_intercept = false;
        self
    }

    /// Fits the model to `n` feature rows and their targets `ys`; `row(i)`
    /// returns feature row `i` and is called twice per row.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no rows, if `n` differs from
    /// `ys.len()`, or if the design is singular / under-determined.
    pub fn fit<const F: usize>(
        &self,
        n: usize,
        row: impl Fn(usize) -> [f64; F],
        ys: &[f64],
    ) -> Result<FittedLinearModel> {
        const {
            assert!(
                F > 0 && F < MAX_DESIGN_COLS,
                "the streamed fit takes 1 to 7 features"
            );
        }
        if n == 0 || ys.is_empty() {
            return Err(Error::invalid_parameter("rows/ys", "must be non-empty"));
        }
        if n != ys.len() {
            return Err(Error::invalid_parameter(
                "ys",
                format!("expected {n} targets, got {}", ys.len()),
            ));
        }
        let first = usize::from(self.fit_intercept);
        let k = F + first;
        if n < k {
            return Err(Error::SingularDesignMatrix { rows: n, cols: k });
        }
        // Design row `i`: the intercept's 1.0 (when enabled) then row(i).
        let design = |i: usize| {
            let mut d = [1.0; MAX_DESIGN_COLS];
            d[first..k].copy_from_slice(&row(i));
            d
        };

        // Pass 1: the normal equations, upper triangle of XᵀX only.
        let mut xtx = [[0.0; MAX_DESIGN_COLS]; MAX_DESIGN_COLS];
        let mut xty = [0.0; MAX_DESIGN_COLS];
        for (r, &y) in ys.iter().enumerate() {
            let d = design(r);
            for i in 0..k {
                let di = d[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..k {
                    xtx[i][j] += di * d[j];
                }
            }
            for (o, x) in xty[..k].iter_mut().zip(&d) {
                *o += x * y;
            }
        }
        // Mirror the upper triangle into the k × k system.
        let mut gram = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                gram[(i, j)] = if j >= i { xtx[i][j] } else { xtx[j][i] };
            }
        }
        let beta = gram.solve(&xty[..k])?;

        // Pass 2: goodness of fit.
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = ys
            .iter()
            .enumerate()
            .map(|(r, y)| {
                let p: f64 = design(r)[..k].iter().zip(&beta).map(|(x, b)| x * b).sum();
                (y - p).powi(2)
            })
            .sum();
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        let n = ys.len() as f64;
        let dof = (ys.len().saturating_sub(k)).max(1) as f64;
        let adjusted = 1.0 - (1.0 - r_squared) * (n - 1.0) / dof;
        let sigma2 = ss_res / dof;

        // (XᵀX)⁻¹ for prediction standard errors; tolerate failure (a
        // nearly-singular design) by omitting intervals.
        let gram_inverse = gram.inverse().ok();

        let (intercept, coefficients) = if self.fit_intercept {
            (beta[0], beta[1..].to_vec())
        } else {
            (0.0, beta)
        };

        Ok(FittedLinearModel {
            intercept,
            coefficients,
            fit_intercept: self.fit_intercept,
            r_squared,
            adjusted_r_squared: adjusted,
            residual_variance: sigma2,
            gram_inverse,
        })
    }
}

/// The result of an OLS fit: coefficients plus goodness-of-fit diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FittedLinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
    fit_intercept: bool,
    r_squared: f64,
    adjusted_r_squared: f64,
    residual_variance: f64,
    gram_inverse: Option<Matrix>,
}

impl FittedLinearModel {
    /// Constructs a fitted model directly from known coefficients.
    ///
    /// The paper publishes the fitted coefficients of Eqs. 3, 10, 12 and 21;
    /// this constructor lets `xr-devices` instantiate those exact published
    /// models without refitting.
    #[must_use]
    pub fn from_coefficients(intercept: f64, coefficients: Vec<f64>, r_squared: f64) -> Self {
        Self {
            intercept,
            coefficients,
            fit_intercept: true,
            r_squared,
            adjusted_r_squared: r_squared,
            residual_variance: 0.0,
            gram_inverse: None,
        }
    }

    /// Intercept term (zero when fitted without an intercept).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Slope coefficients, in feature order.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination R².
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Adjusted R², penalising the number of regressors.
    #[must_use]
    pub fn adjusted_r_squared(&self) -> f64 {
        self.adjusted_r_squared
    }

    /// Residual variance `σ̂² = SSR / (n − k)`.
    #[must_use]
    pub fn residual_variance(&self) -> f64 {
        self.residual_variance
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the number of coefficients.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "expected {} features, got {}",
            self.coefficients.len(),
            features.len()
        );
        self.intercept
            + features
                .iter()
                .zip(&self.coefficients)
                .map(|(x, b)| x * b)
                .sum::<f64>()
    }

    /// Predicts with a symmetric 95 % confidence half-width for the *mean
    /// response* at `features`, mirroring the paper's "95 % confidence
    /// boundary" training procedure.
    ///
    /// Returns `(prediction, half_width)`. The half-width is zero when the
    /// model was constructed from published coefficients (no residual
    /// information available).
    #[must_use]
    pub fn predict_with_interval(&self, features: &[f64]) -> (f64, f64) {
        let prediction = self.predict(features);
        let Some(gram_inv) = &self.gram_inverse else {
            return (prediction, 0.0);
        };
        // x vector in design space (intercept first when present).
        let x: Vec<f64> = if self.fit_intercept {
            std::iter::once(1.0)
                .chain(features.iter().copied())
                .collect()
        } else {
            features.to_vec()
        };
        // var(ŷ) = σ² · xᵀ (XᵀX)⁻¹ x
        let tmp = gram_inv.mul_vec(&x);
        let quad: f64 = x.iter().zip(&tmp).map(|(a, b)| a * b).sum();
        let half_width = Z_95 * (self.residual_variance * quad.max(0.0)).sqrt();
        (prediction, half_width)
    }

    /// R² evaluated on an *out-of-sample* dataset (the held-out devices in
    /// the paper's methodology), with rows read as in
    /// [`LinearRegression::fit`]. Residuals are taken over the first
    /// `min(n, ys.len())` rows.
    #[must_use]
    pub fn score<const F: usize>(
        &self,
        n: usize,
        row: impl Fn(usize) -> [f64; F],
        ys: &[f64],
    ) -> f64 {
        if ys.is_empty() {
            return f64::NAN;
        }
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = ys[..n.min(ys.len())]
            .iter()
            .enumerate()
            .map(|(r, y)| {
                let residual = y - self.predict(&row(r));
                residual * residual
            })
            .sum();
        if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else if ss_res < 1e-12 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noiseless_dataset() -> (Vec<[f64; 2]>, Vec<f64>) {
        // y = 1.5 + 2·x1 − 0.5·x2
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let x1 = i as f64 * 0.25;
            let x2 = (i % 7) as f64;
            xs.push([x1, x2]);
            ys.push(1.5 + 2.0 * x1 - 0.5 * x2);
        }
        (xs, ys)
    }

    fn fit_rows<const F: usize>(
        regression: &LinearRegression,
        xs: &[[f64; F]],
        ys: &[f64],
    ) -> Result<FittedLinearModel> {
        regression.fit(xs.len(), |i| xs[i], ys)
    }

    #[test]
    fn recovers_exact_coefficients_on_noiseless_data() {
        let (xs, ys) = noiseless_dataset();
        let fit = fit_rows(&LinearRegression::new(), &xs, &ys).unwrap();
        assert!((fit.intercept() - 1.5).abs() < 1e-9);
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients()[1] + 0.5).abs() < 1e-9);
        assert!(fit.r_squared() > 0.999_999);
        assert!(fit.adjusted_r_squared() > 0.999_99);
    }

    #[test]
    fn without_intercept_forces_origin() {
        let ys: Vec<f64> = (1..=20).map(|i| 4.0 * i as f64).collect();
        let fit = LinearRegression::new()
            .without_intercept()
            .fit(ys.len(), |i| [(i + 1) as f64], &ys)
            .unwrap();
        assert_eq!(fit.intercept(), 0.0);
        assert!((fit.coefficients()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_has_reasonable_r_squared_and_intervals() {
        // Deterministic pseudo-noise so the test stays reproducible.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..500 {
            let x = i as f64 * 0.01;
            let noise = ((i * 2_654_435_761_u64 % 1000) as f64 / 1000.0 - 0.5) * 0.2;
            xs.push([x]);
            ys.push(3.0 + 0.7 * x + noise);
        }
        let fit = fit_rows(&LinearRegression::new(), &xs, &ys).unwrap();
        assert!(fit.r_squared() > 0.95, "R² = {}", fit.r_squared());
        let (pred, half) = fit.predict_with_interval(&[2.5]);
        assert!((pred - (3.0 + 0.7 * 2.5)).abs() < 0.1);
        assert!(half > 0.0 && half < 0.1);
    }

    #[test]
    fn score_on_held_out_data() {
        let (xs, ys) = noiseless_dataset();
        let fit = fit_rows(&LinearRegression::new(), &xs, &ys).unwrap();
        let held_x = [[100.0, 3.0], [200.0, 1.0]];
        let held_y = held_x.map(|r| 1.5 + 2.0 * r[0] - 0.5 * r[1]);
        assert!(fit.score(held_x.len(), |i| held_x[i], &held_y) > 0.999_999);
    }

    #[test]
    fn residuals_are_zero_on_noiseless_fit() {
        let (xs, ys) = noiseless_dataset();
        let fit = fit_rows(&LinearRegression::new(), &xs, &ys).unwrap();
        assert!(xs
            .iter()
            .zip(&ys)
            .all(|(x, y)| (y - fit.predict(x)).abs() < 1e-9));
    }

    #[test]
    fn from_coefficients_predicts_directly() {
        // Eq. 12 of the paper: C_CNN = 2.45 + 0.0025·d + 0.03·s + 0.0029·scale
        let model = FittedLinearModel::from_coefficients(2.45, vec![0.0025, 0.03, 0.0029], 0.844);
        let c = model.predict(&[106.0, 210.0, 0.0]);
        assert!((c - (2.45 + 0.0025 * 106.0 + 0.03 * 210.0)).abs() < 1e-9);
        assert!((model.r_squared() - 0.844).abs() < 1e-12);
        let (p, h) = model.predict_with_interval(&[106.0, 210.0, 0.0]);
        assert_eq!(p, c);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn under_determined_fit_rejected() {
        assert!(matches!(
            fit_rows(&LinearRegression::new(), &[[1.0, 2.0, 3.0]], &[1.0]),
            Err(Error::SingularDesignMatrix { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let regression = LinearRegression::new();
        assert!(fit_rows(&regression, &[[1.0], [2.0]], &[1.0]).is_err());
        assert!(fit_rows::<1>(&regression, &[], &[]).is_err());
        assert!(regression.fit(0, |_| [1.0], &[1.0]).is_err());
    }

    #[test]
    fn collinear_design_rejected() {
        // Second column is an exact copy of the first.
        let xs: Vec<[f64; 2]> = (0..30).map(|i| [i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| 2.0 * i as f64).collect();
        assert!(matches!(
            fit_rows(&LinearRegression::new(), &xs, &ys),
            Err(Error::SingularDesignMatrix { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn predict_wrong_arity_panics() {
        let (xs, ys) = noiseless_dataset();
        let fit = fit_rows(&LinearRegression::new(), &xs, &ys).unwrap();
        let _ = fit.predict(&[1.0]);
    }
}
