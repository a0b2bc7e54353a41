//! The regression-fit report: in-sample and held-out R² of the four
//! regression sub-models, the counterpart of the R² the paper reports
//! ([`RegressionReport::PAPER_R_SQUARED`]).

use crate::context::ExperimentContext;
use serde::{Deserialize, Serialize};
use xr_devices::DeviceCatalog;
use xr_testbed::{CalibratedModels, MeasurementCampaign};
use xr_types::Result;

/// In-sample and held-out R² for each regression sub-model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegressionReport {
    /// Training-set R² (compute resource, power, encoding, complexity).
    pub train: [f64; 4],
    /// Held-out-device R² in the same order.
    pub test: [f64; 4],
    /// Number of training records.
    pub train_records: usize,
    /// Number of test records.
    pub test_records: usize,
}

impl RegressionReport {
    /// The R² the paper publishes, in row order: compute resource (Eq. 3),
    /// mean power (Eq. 21), encoding latency (Eq. 10) and CNN complexity
    /// (Eq. 12).
    pub const PAPER_R_SQUARED: [f64; 4] = [0.87, 0.863, 0.79, 0.844];

    /// Fits the sub-models on a training campaign over the training devices
    /// and scores them on a test campaign over the held-out devices,
    /// reproducing the paper's methodology.
    ///
    /// # Errors
    ///
    /// Propagates regression errors.
    pub fn compute(ctx: &ExperimentContext, records: usize) -> Result<Self> {
        let laws = ctx.testbed().laws();
        let train_campaign =
            MeasurementCampaign::paper_scale(ctx.seed()).with_target_records(records);
        let test_campaign = MeasurementCampaign::paper_scale_test(ctx.seed() + 1)
            .with_target_records(records * 36_083 / 119_465 + 100);
        let train = train_campaign.collect(laws, &DeviceCatalog::training_devices());
        let test = test_campaign.collect(laws, &DeviceCatalog::validation_devices());
        let models = CalibratedModels::fit(&train)?;
        let in_sample = models
            .training_r_squared()
            .expect("a row fit keeps its in-sample R²");
        let held_out = models.evaluate(&test);
        Ok(Self {
            train: [
                in_sample.resource_r_squared,
                in_sample.power_r_squared,
                in_sample.encoding_r_squared,
                in_sample.complexity_r_squared,
            ],
            test: [
                held_out.resource_r_squared,
                held_out.power_r_squared,
                held_out.encoding_r_squared,
                held_out.complexity_r_squared,
            ],
            train_records: train.len(),
            test_records: test.len(),
        })
    }

    /// Console/CSV rows comparing against the paper's published R² values.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        let names = [
            "compute resource (Eq. 3)",
            "mean power (Eq. 21)",
            "encoding latency (Eq. 10)",
            "CNN complexity (Eq. 12)",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                vec![
                    (*name).to_string(),
                    format!("{:.3}", self.train[i]),
                    format!("{:.3}", self.test[i]),
                    format!("{:.3}", Self::PAPER_R_SQUARED[i]),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_report_shows_strong_fits() {
        let ctx = ExperimentContext::quick(51).unwrap();
        let report = RegressionReport::compute(&ctx, 4_000).unwrap();
        for r2 in report.train {
            assert!(r2 > 0.8, "train R² {r2}");
        }
        for r2 in report.test {
            assert!(r2 > 0.7, "test R² {r2}");
        }
        assert!(report.train_records > 3_000);
        assert!(report.test_records > 1_000);
        assert_eq!(report.rows().len(), 4);
    }
}
