//! Error metrics used in the paper's evaluation.
//!
//! Section VIII reports the proposed model's *mean error* relative to the
//! ground truth (2.74 % / 3.23 % for latency, 3.52 % / 5.38 % for energy) and
//! compares models by *normalized accuracy* (Fig. 5), where the ground truth
//! scores 100 % and a model's accuracy is `100 − MAPE` clamped at zero.

/// Mean absolute error `mean(|y − ŷ|)`.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
#[must_use]
pub fn mean_absolute_error(truth: &[f64], predicted: &[f64]) -> f64 {
    check_pair(truth, predicted);
    truth
        .iter()
        .zip(predicted)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// Mean absolute percentage error, in percent. Ground-truth zeros are
/// skipped (they carry no relative-error information).
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
#[must_use]
pub fn mean_absolute_percentage_error(truth: &[f64], predicted: &[f64]) -> f64 {
    check_pair(truth, predicted);
    let mut total = 0.0;
    let mut count = 0usize;
    for (t, p) in truth.iter().zip(predicted) {
        if t.abs() > f64::EPSILON {
            total += ((t - p) / t).abs() * 100.0;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The paper's "mean error" statistic: mean absolute percentage error of the
/// model against the ground truth, in percent (Section VIII-A/B).
#[must_use]
pub fn mean_error_percent(truth: &[f64], predicted: &[f64]) -> f64 {
    mean_absolute_percentage_error(truth, predicted)
}

/// Normalized accuracy in percent, as plotted in Fig. 5: the ground truth is
/// 100 % and a model scores `100 − MAPE`, clamped to `[0, 100]`.
#[must_use]
pub fn normalized_accuracy(truth: &[f64], predicted: &[f64]) -> f64 {
    (100.0 - mean_absolute_percentage_error(truth, predicted)).clamp(0.0, 100.0)
}

/// Per-point normalized accuracy series (one value per ground-truth sample),
/// used to draw the Fig. 5 curves point by point.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
#[must_use]
pub fn normalized_accuracy_series(truth: &[f64], predicted: &[f64]) -> Vec<f64> {
    check_pair(truth, predicted);
    truth
        .iter()
        .zip(predicted)
        .map(|(t, p)| {
            if t.abs() <= f64::EPSILON {
                100.0
            } else {
                (100.0 - ((t - p) / t).abs() * 100.0).clamp(0.0, 100.0)
            }
        })
        .collect()
}

/// Coefficient of determination R² of predictions against truth.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
#[must_use]
pub fn r_squared(truth: &[f64], predicted: &[f64]) -> f64 {
    check_pair(truth, predicted);
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    let ss_res: f64 = truth
        .iter()
        .zip(predicted)
        .map(|(t, p)| (t - p).powi(2))
        .sum();
    if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res < 1e-12 {
        1.0
    } else {
        f64::NEG_INFINITY
    }
}

fn check_pair(truth: &[f64], predicted: &[f64]) {
    assert!(!truth.is_empty(), "metric inputs must be non-empty");
    assert_eq!(
        truth.len(),
        predicted.len(),
        "truth and prediction lengths differ"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_perfectly() {
        let y = vec![1.0, 2.0, 3.0];
        assert_eq!(mean_absolute_error(&y, &y), 0.0);
        assert_eq!(mean_absolute_percentage_error(&y, &y), 0.0);
        assert_eq!(normalized_accuracy(&y, &y), 100.0);
        assert_eq!(r_squared(&y, &y), 1.0);
    }

    #[test]
    fn known_errors() {
        let truth = vec![100.0, 200.0];
        let pred = vec![110.0, 180.0];
        assert!((mean_absolute_error(&truth, &pred) - 15.0).abs() < 1e-12);
        // MAPE = (10% + 10%) / 2 = 10%
        assert!((mean_absolute_percentage_error(&truth, &pred) - 10.0).abs() < 1e-12);
        assert!((normalized_accuracy(&truth, &pred) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn mean_error_percent_is_mape() {
        let truth = vec![100.0, 100.0];
        let pred = vec![97.26, 102.74];
        assert!((mean_error_percent(&truth, &pred) - 2.74).abs() < 1e-9);
    }

    #[test]
    fn zero_truth_entries_are_skipped_in_mape() {
        let truth = vec![0.0, 100.0];
        let pred = vec![5.0, 110.0];
        assert!((mean_absolute_percentage_error(&truth, &pred) - 10.0).abs() < 1e-12);
        let all_zero = vec![0.0, 0.0];
        assert_eq!(mean_absolute_percentage_error(&all_zero, &pred), 0.0);
    }

    #[test]
    fn accuracy_clamped_to_zero_for_terrible_models() {
        let truth = vec![1.0];
        let pred = vec![10.0];
        assert_eq!(normalized_accuracy(&truth, &pred), 0.0);
    }

    #[test]
    fn accuracy_series_is_per_point() {
        let truth = vec![100.0, 200.0, 0.0];
        let pred = vec![90.0, 210.0, 3.0];
        let series = normalized_accuracy_series(&truth, &pred);
        assert_eq!(series.len(), 3);
        assert!((series[0] - 90.0).abs() < 1e-12);
        assert!((series[1] - 95.0).abs() < 1e-12);
        assert_eq!(series[2], 100.0);
    }

    #[test]
    fn r_squared_penalises_bias() {
        let truth = vec![1.0, 2.0, 3.0, 4.0];
        let biased: Vec<f64> = truth.iter().map(|t| t + 1.0).collect();
        assert!(r_squared(&truth, &biased) < 1.0);
    }

    #[test]
    fn constant_truth_handled() {
        let truth = vec![5.0, 5.0];
        assert_eq!(r_squared(&truth, &truth), 1.0);
        assert_eq!(r_squared(&truth, &[1.0, 9.0]), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = mean_absolute_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_inputs_panic() {
        let _ = mean_absolute_error(&[], &[]);
    }
}
