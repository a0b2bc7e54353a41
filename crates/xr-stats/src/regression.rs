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
//! row twice without building a design matrix. Pass 1 is a
//! [`NormalEquations`] accumulator: it adds each row to the upper triangle
//! of `XᵀX` and to `Xᵀy` on the stack, one row at a time in row order,
//! skipping the products of a zero entry. Pass 2 recomputes each prediction
//! and folds the residual sum of squares. Every accumulator sees the same
//! addends in the same order as the textbook `XᵀX`/`Xᵀy` products over a
//! materialised design, so the coefficients and diagnostics are bit-for-bit
//! those of that computation. Only the `k × k` normal equations go through
//! [`Matrix`].
//!
//! A caller that produces its rows once, as a stream it cannot replay,
//! pushes them into a [`NormalEquations`] itself and solves it: the
//! coefficients have the row fit's bits, but without a second pass the
//! model has no in-sample diagnostics, and its accessors say so with
//! `None`.

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
    pub const fn new() -> Self {
        Self {
            fit_intercept: true,
        }
    }

    /// Disables the intercept column.
    #[must_use]
    pub const fn without_intercept(mut self) -> Self {
        self.fit_intercept = false;
        self
    }

    /// Empty normal equations of this regression over `F` features, to
    /// push rows into and [`solve`](NormalEquations::solve).
    #[must_use]
    pub fn equations<const F: usize>(&self) -> NormalEquations<F> {
        const {
            assert!(
                F > 0 && F < MAX_DESIGN_COLS,
                "the streamed fit takes 1 to 7 features"
            );
        }
        NormalEquations {
            fit_intercept: self.fit_intercept,
            rows: 0,
            xtx: [[0.0; MAX_DESIGN_COLS]; MAX_DESIGN_COLS],
            xty: [0.0; MAX_DESIGN_COLS],
        }
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
        if n == 0 || ys.is_empty() {
            return Err(Error::invalid_parameter("rows/ys", "must be non-empty"));
        }
        if n != ys.len() {
            return Err(Error::invalid_parameter(
                "ys",
                format!("expected {n} targets, got {}", ys.len()),
            ));
        }
        // Pass 1: the normal equations.
        let mut equations = self.equations::<F>();
        for (r, &y) in ys.iter().enumerate() {
            equations.push(row(r), y);
        }
        let (gram, beta) = equations.system()?;
        let first = usize::from(self.fit_intercept);
        let k = F + first;

        // Pass 2: goodness of fit.
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = ys
            .iter()
            .enumerate()
            .map(|(r, y)| {
                let p: f64 = design(first, &row(r))[..k]
                    .iter()
                    .zip(&beta)
                    .map(|(x, b)| x * b)
                    .sum();
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

        Ok(FittedLinearModel::new(
            self.fit_intercept,
            beta,
            Some(Diagnostics {
                r_squared,
                adjusted_r_squared: adjusted,
                residual_variance: sigma2,
                gram_inverse,
            }),
        ))
    }
}

/// Design row of a feature row: the intercept's 1.0 (when `first` is 1)
/// then the features.
fn design<const F: usize>(first: usize, row: &[f64; F]) -> [f64; MAX_DESIGN_COLS] {
    let mut d = [1.0; MAX_DESIGN_COLS];
    d[first..first + F].copy_from_slice(row);
    d
}

/// The normal equations `XᵀX β = Xᵀy` of a regression over `F` features,
/// accumulated one row at a time: pass 1 of [`LinearRegression::fit`].
///
/// Rows must be pushed in the order the row fit reads them for
/// [`solve`](Self::solve) to return its coefficients bit for bit. Built by
/// [`LinearRegression::equations`].
#[derive(Debug, Clone)]
pub struct NormalEquations<const F: usize> {
    fit_intercept: bool,
    rows: usize,
    /// Upper triangle of `XᵀX`; the entries below the diagonal stay zero.
    xtx: [[f64; MAX_DESIGN_COLS]; MAX_DESIGN_COLS],
    xty: [f64; MAX_DESIGN_COLS],
}

impl<const F: usize> NormalEquations<F> {
    /// Adds one feature row and its target.
    #[inline]
    pub fn push(&mut self, row: [f64; F], y: f64) {
        let first = usize::from(self.fit_intercept);
        let k = F + first;
        let d = design(first, &row);
        for (i, &di) in d[..k].iter().enumerate() {
            if di == 0.0 {
                continue;
            }
            for (x, dj) in self.xtx[i][i..k].iter_mut().zip(&d[i..k]) {
                *x += di * dj;
            }
        }
        for (o, x) in self.xty[..k].iter_mut().zip(&d) {
            *o += x * y;
        }
        self.rows += 1;
    }

    /// Solves the equations. The model has the coefficients the row fit
    /// gives on the same rows, and no in-sample diagnostics.
    ///
    /// # Errors
    ///
    /// Returns an error if no row was pushed, or if the design is singular
    /// / under-determined.
    pub fn solve(&self) -> Result<FittedLinearModel> {
        let (_, beta) = self.system()?;
        Ok(FittedLinearModel::new(self.fit_intercept, beta, None))
    }

    /// The mirrored `k × k` system `XᵀX` and its solution `β`.
    fn system(&self) -> Result<(Matrix, Vec<f64>)> {
        let k = F + usize::from(self.fit_intercept);
        if self.rows == 0 {
            return Err(Error::invalid_parameter("rows", "must be non-empty"));
        }
        if self.rows < k {
            return Err(Error::SingularDesignMatrix {
                rows: self.rows,
                cols: k,
            });
        }
        let mut gram = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                gram[(i, j)] = if j >= i {
                    self.xtx[i][j]
                } else {
                    self.xtx[j][i]
                };
            }
        }
        let beta = gram.solve(&self.xty[..k])?;
        Ok((gram, beta))
    }
}

/// The result of an OLS fit: coefficients, plus goodness-of-fit
/// diagnostics when the fit read its rows twice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FittedLinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
    fit_intercept: bool,
    /// `None` for a model solved from streamed [`NormalEquations`].
    diagnostics: Option<Diagnostics>,
}

/// In-sample goodness of fit of a [`FittedLinearModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Diagnostics {
    r_squared: f64,
    adjusted_r_squared: f64,
    residual_variance: f64,
    /// `(XᵀX)⁻¹`, for prediction intervals; `None` for a nearly singular
    /// design or published coefficients.
    gram_inverse: Option<Matrix>,
}

impl FittedLinearModel {
    /// A model with solution `beta` of the design's normal equations
    /// (intercept first when fitted).
    fn new(fit_intercept: bool, beta: Vec<f64>, diagnostics: Option<Diagnostics>) -> Self {
        let (intercept, coefficients) = if fit_intercept {
            (beta[0], beta[1..].to_vec())
        } else {
            (0.0, beta)
        };
        Self {
            intercept,
            coefficients,
            fit_intercept,
            diagnostics,
        }
    }

    /// Constructs a fitted model directly from known coefficients.
    ///
    /// The paper publishes the fitted coefficients of Eqs. 3, 10, 12 and 21;
    /// this constructor lets `xr-devices` instantiate those exact published
    /// models without refitting. The published R² is the model's R² and
    /// adjusted R²; its residual variance is zero.
    #[must_use]
    pub fn from_coefficients(intercept: f64, coefficients: Vec<f64>, r_squared: f64) -> Self {
        Self {
            intercept,
            coefficients,
            fit_intercept: true,
            diagnostics: Some(Diagnostics {
                r_squared,
                adjusted_r_squared: r_squared,
                residual_variance: 0.0,
                gram_inverse: None,
            }),
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

    /// Coefficient of determination R²; `None` for a model solved from
    /// streamed [`NormalEquations`].
    #[must_use]
    pub fn r_squared(&self) -> Option<f64> {
        self.diagnostics.as_ref().map(|d| d.r_squared)
    }

    /// Adjusted R², penalising the number of regressors; `None` for a
    /// model solved from streamed [`NormalEquations`].
    #[must_use]
    pub fn adjusted_r_squared(&self) -> Option<f64> {
        self.diagnostics.as_ref().map(|d| d.adjusted_r_squared)
    }

    /// Residual variance `σ̂² = SSR / (n − k)`; `None` for a model solved
    /// from streamed [`NormalEquations`].
    #[must_use]
    pub fn residual_variance(&self) -> Option<f64> {
        self.diagnostics.as_ref().map(|d| d.residual_variance)
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
    /// Returns `(prediction, half_width)`, or `None` for a model solved
    /// from streamed [`NormalEquations`]. The half-width is zero when the
    /// model was constructed from published coefficients (no residual
    /// information available).
    #[must_use]
    pub fn predict_with_interval(&self, features: &[f64]) -> Option<(f64, f64)> {
        let diagnostics = self.diagnostics.as_ref()?;
        let prediction = self.predict(features);
        let Some(gram_inv) = &diagnostics.gram_inverse else {
            return Some((prediction, 0.0));
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
        let half_width = Z_95 * (diagnostics.residual_variance * quad.max(0.0)).sqrt();
        Some((prediction, half_width))
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
        assert!(fit.r_squared().unwrap() > 0.999_999);
        assert!(fit.adjusted_r_squared().unwrap() > 0.999_99);
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
        let r_squared = fit.r_squared().unwrap();
        assert!(r_squared > 0.95, "R² = {r_squared}");
        let (pred, half) = fit.predict_with_interval(&[2.5]).unwrap();
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
        assert!((model.r_squared().unwrap() - 0.844).abs() < 1e-12);
        let (p, h) = model.predict_with_interval(&[106.0, 210.0, 0.0]).unwrap();
        assert_eq!(p, c);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn solved_equations_give_the_row_fit_coefficients_bit_for_bit() {
        // Rows 0 and every seventh hold zero entries: the skipped products.
        let (xs, ys) = noiseless_dataset();
        for regression in [
            LinearRegression::new(),
            LinearRegression::new().without_intercept(),
        ] {
            let fit = fit_rows(&regression, &xs, &ys).unwrap();
            let mut equations = regression.equations::<2>();
            for (&row, &y) in xs.iter().zip(&ys) {
                equations.push(row, y);
            }
            let solved = equations.solve().unwrap();
            let bits = |m: &FittedLinearModel| -> Vec<u64> {
                std::iter::once(m.intercept())
                    .chain(m.coefficients().iter().copied())
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(bits(&solved), bits(&fit));
            assert!(fit.r_squared().is_some());
            assert_eq!(solved.r_squared(), None);
            assert_eq!(solved.adjusted_r_squared(), None);
            assert_eq!(solved.residual_variance(), None);
            assert_eq!(solved.predict_with_interval(&xs[1]), None);
        }
    }

    #[test]
    fn unsolvable_equations_rejected() {
        let regression = LinearRegression::new();
        assert!(regression.equations::<1>().solve().is_err());
        let mut equations = regression.equations::<3>();
        equations.push([1.0, 2.0, 3.0], 1.0);
        assert!(matches!(
            equations.solve(),
            Err(Error::SingularDesignMatrix { rows: 1, cols: 4 })
        ));
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
