//! # xr-stats
//!
//! Numerics substrate for the xr-perf workspace: dense linear algebra,
//! ordinary-least-squares multiple linear regression, error metrics, and
//! Student-t inference.
//!
//! The paper fits four multiple-linear-regression sub-models from testbed
//! measurements (compute-resource availability Eq. 3, encoding latency Eq. 10,
//! CNN complexity Eq. 12, mean power Eq. 21) and reports their R² values.
//! Mature numerics crates are not available in this offline environment, so
//! this crate implements the required pieces from first principles:
//!
//! * [`Matrix`] — a small dense row-major matrix that holds the `k × k`
//!   normal equations: linear-system solving via Gaussian elimination with
//!   partial pivoting, inversion, and matrix–vector products.
//! * [`LinearRegression`] / [`FittedLinearModel`] — OLS via the normal
//!   equations, exposing coefficients, R², adjusted R², out-of-sample R²,
//!   and 95 % confidence intervals for predictions. The fit streams
//!   fixed-width `[f64; F]` rows from a caller's function in two passes and
//!   never builds a design matrix; it accumulates `XᵀX` and `Xᵀy` in the
//!   same order as the explicit products, so it returns the same bits.
//!   Its first pass is [`NormalEquations`], which a caller with a one-shot
//!   row stream fills and solves itself (coefficients only).
//! * [`metrics`] — MAE, MAPE, mean error %, R², and the *normalized
//!   accuracy* measure of Fig. 5.
//! * [`inference`] — the Student-t distribution (incomplete-beta CDF and
//!   quantile) and small-sample confidence intervals for replicated
//!   campaign measurements.
//! * [`equivalence`] — statistical diffing of two replicated campaign CSVs
//!   (outside-CI rates, relative mean shifts) used to accept sanctioned
//!   draw-scheme re-keys against a same-scheme reseed null.
//!
//! ```
//! use xr_stats::{LinearRegression, metrics};
//!
//! // y = 2 + 3·x, recovered exactly from noiseless data.
//! let xs: Vec<[f64; 1]> = (0..20).map(|i| [i as f64]).collect();
//! let ys: Vec<f64> = (0..20).map(|i| 2.0 + 3.0 * i as f64).collect();
//! let fit = LinearRegression::new().fit(xs.len(), |i| xs[i], &ys)?;
//! assert!((fit.intercept() - 2.0).abs() < 1e-9);
//! assert!((fit.coefficients()[0] - 3.0).abs() < 1e-9);
//! assert!(fit.r_squared() > Some(0.999));
//! let predicted: Vec<f64> = xs.iter().map(|x| fit.predict(x)).collect();
//! assert!(metrics::mean_absolute_error(&ys, &predicted) < 1e-9);
//! # Ok::<(), xr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod equivalence;
pub mod inference;
pub mod matrix;
pub mod metrics;
pub mod regression;

pub use equivalence::{compare_campaigns, EquivalenceReport};
pub use inference::{mean_confidence_interval, students_t_quantile};
pub use matrix::Matrix;
pub use regression::{FittedLinearModel, LinearRegression, NormalEquations};
