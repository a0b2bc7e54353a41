//! Descriptive statistics for simulated traces (latency samples, power
//! samples, AoI series).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
    median: f64,
    p95: f64,
    p99: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "sample contains NaN values"
        );
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after assertion"));
        Self {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_of_sorted(&sorted, 50.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (50th percentile, linearly interpolated).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.median
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99
    }

    /// Coefficient of variation `σ/µ`; NaN when the mean is zero.
    #[must_use]
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            f64::NAN
        } else {
            self.std_dev / self.mean
        }
    }

    /// Two-sided Student-t confidence interval for the population mean at
    /// the given confidence `level` (e.g. `0.95`), using `count − 1` degrees
    /// of freedom. With fewer than two samples there is no dispersion
    /// information and the degenerate `(mean, mean)` interval is returned.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `(0, 1)`.
    #[must_use]
    pub fn confidence_interval(&self, level: f64) -> (f64, f64) {
        assert!(level > 0.0 && level < 1.0, "level must be in (0, 1)");
        if self.count < 2 {
            return (self.mean, self.mean);
        }
        let n = self.count as f64;
        // `std_dev` is the population form; rescale to the sample (n − 1)
        // estimator the t interval is built on.
        let sample_std = self.std_dev * (n / (n - 1.0)).sqrt();
        let t = crate::inference::students_t_quantile(0.5 + level / 2.0, n - 1.0);
        let half_width = t * sample_std / n.sqrt();
        (self.mean - half_width, self.mean + half_width)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.median,
            self.p95,
            self.p99,
            self.max
        )
    }
}

/// Linearly-interpolated percentile of an *already sorted* sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is outside `[0, 100]`.
#[must_use]
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&pct), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean of a sample (0.0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance of a sample (0.0 for fewer than two values).
#[must_use]
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.median() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.std_dev() - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(s.p95() >= s.median());
        assert!(s.p99() >= s.p95());
        assert!((s.coefficient_of_variation() - 2.0_f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile_of_sorted(&sorted, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile_of_sorted(&sorted, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile_of_sorted(&sorted, 50.0) - 25.0).abs() < 1e-12);
        assert_eq!(percentile_of_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn confidence_interval_matches_the_direct_computation() {
        let sample = [9.8, 10.1, 10.3, 9.9, 10.4];
        let summary = Summary::of(&sample);
        let (lo, hi) = summary.confidence_interval(0.95);
        let (direct_lo, direct_hi) =
            crate::inference::mean_confidence_interval(&sample, 0.95).unwrap();
        assert!((lo - direct_lo).abs() < 1e-12);
        assert!((hi - direct_hi).abs() < 1e-12);
        assert!(lo < summary.mean() && summary.mean() < hi);
        // One sample: degenerate interval.
        assert_eq!(Summary::of(&[7.0]).confidence_interval(0.95), (7.0, 7.0));
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn display_mentions_percentiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = format!("{s}");
        assert!(text.contains("p95"));
        assert!(text.contains("n=3"));
    }

    #[test]
    fn helper_mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((mean(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
        assert!((variance(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn nan_sample_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_range_checked() {
        let _ = percentile_of_sorted(&[1.0], 101.0);
    }
}
