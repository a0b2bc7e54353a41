//! Measurement-campaign generation and regression refitting.
//!
//! The paper collects 119 465 training samples from devices XR1/XR3/XR5/XR6
//! and 36 083 test samples from the held-out devices XR2/XR4/XR7, then trains
//! its regression sub-models (Eqs. 3, 10, 12, 21) on the training portion.
//! [`MeasurementCampaign`] reproduces that campaign against the simulated
//! testbed's true laws, and [`CalibratedModels`] refits the analytical
//! framework's sub-models on the result — yielding the *calibrated* proposed
//! model that the evaluation experiments compare against the ground truth.
//!
//! This is the set-up cost of every `--paper-scale` process, so neither half
//! allocates per record. [`MeasurementCampaign::collect`] sizes its eight
//! columns exactly before drawing and looks up each device's bias once.
//! [`CalibratedModels::fit`] and [`CalibratedModels::evaluate`] read the
//! columns as fixed-width feature rows through the streamed OLS fit of
//! `xr_stats`, which builds no design matrix and accumulates in the order of
//! the explicit `XᵀX`/`Xᵀy` products, so the calibrated coefficients keep
//! their bits.

use crate::laws::{DeviceBias, TrueLaws};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use xr_core::{
    AoiModel, EncodingConfig, EncodingLatencyModel, EnergyModel, LatencyModel, XrPerformanceModel,
};
use xr_devices::{
    CnnCatalog, CnnComplexityModel, ComputeResourceModel, DeviceCatalog, MeanPowerModel,
};
use xr_types::{Frame, FrameId, GigaHertz, Hertz, Ratio, Result};

/// A labelled dataset of simulated measurements for the four regression
/// sub-models.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MeasurementDataset {
    /// Covariates of the compute-resource model: `(f_c, f_g, ω_c)`.
    pub resource_x: Vec<(GigaHertz, GigaHertz, Ratio)>,
    /// Observed compute resources (pixel²/ms).
    pub resource_y: Vec<f64>,
    /// Covariates of the mean-power model: `(f_c, f_g, ω_c)`.
    pub power_x: Vec<(GigaHertz, GigaHertz, Ratio)>,
    /// Observed mean power (W).
    pub power_y: Vec<f64>,
    /// Covariates of the encoding model:
    /// `[n_i, n_b, n_bitrate, s_f1, n_fps, n_quant]`.
    pub encoding_x: Vec<[f64; 6]>,
    /// Observed encoder work (pixel²-equivalents).
    pub encoding_y: Vec<f64>,
    /// Covariates of the CNN-complexity model: `(depth, size, scale)`.
    pub complexity_x: Vec<(f64, f64, f64)>,
    /// Observed complexity multipliers.
    pub complexity_y: Vec<f64>,
}

impl MeasurementDataset {
    /// Total number of records across the four sub-datasets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resource_y.len() + self.power_y.len() + self.encoding_y.len() + self.complexity_y.len()
    }

    /// Returns `true` when no records were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration of a simulated measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementCampaign {
    seed: u64,
    /// Relative standard deviation of measurement noise on every observation.
    noise_sigma: f64,
    /// Target number of records to collect.
    target_records: usize,
}

impl MeasurementCampaign {
    /// The paper-scale campaign: 119 465 records, 3 % measurement noise.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            seed,
            noise_sigma: 0.03,
            target_records: 119_465,
        }
    }

    /// The paper-scale *test* campaign on the held-out devices:
    /// 36 083 records.
    #[must_use]
    pub fn paper_scale_test(seed: u64) -> Self {
        Self {
            seed,
            noise_sigma: 0.03,
            target_records: 36_083,
        }
    }

    /// A small campaign for unit tests and quick experiments.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            noise_sigma: 0.03,
            target_records: 4_000,
        }
    }

    /// Overrides the number of records collected.
    #[must_use]
    pub fn with_target_records(mut self, records: usize) -> Self {
        self.target_records = records.max(100);
        self
    }

    /// Overrides the measurement noise.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise must be non-negative");
        self.noise_sigma = sigma;
        self
    }

    /// Runs the campaign against the given devices (catalog names) and
    /// returns the collected dataset. The record budget is split roughly
    /// 40 % / 35 % / 20 % / 5 % across the resource, power, encoding and
    /// complexity sub-datasets.
    #[must_use]
    pub fn collect(&self, laws: &TrueLaws, devices: &[&str]) -> MeasurementDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let noise =
            Normal::new(0.0, self.noise_sigma.max(f64::MIN_POSITIVE)).expect("valid noise sigma");
        let sample_noise = |rng: &mut StdRng| -> f64 {
            if self.noise_sigma > 0.0 {
                noise.sample(rng).exp()
            } else {
                1.0
            }
        };

        let catalog = DeviceCatalog::table1();
        let cnn_catalog = CnnCatalog::table2();
        let specs: Vec<_> = devices
            .iter()
            .filter_map(|name| catalog.device(name).ok())
            .map(|spec| (spec, DeviceBias::for_device(&spec.name)))
            .collect();
        let mut dataset = MeasurementDataset::default();
        if specs.is_empty() {
            return dataset;
        }

        let n_resource = self.target_records * 40 / 100;
        let n_power = self.target_records * 35 / 100;
        let n_encoding = self.target_records * 20 / 100;
        let n_complexity = self
            .target_records
            .saturating_sub(n_resource + n_power + n_encoding);
        dataset.resource_x.reserve_exact(n_resource);
        dataset.resource_y.reserve_exact(n_resource);
        dataset.power_x.reserve_exact(n_power);
        dataset.power_y.reserve_exact(n_power);
        dataset.encoding_x.reserve_exact(n_encoding);
        dataset.encoding_y.reserve_exact(n_encoding);
        dataset.complexity_x.reserve_exact(n_complexity);
        dataset.complexity_y.reserve_exact(n_complexity);

        // Compute-resource and power observations over random operating
        // points of the campaign devices.
        for i in 0..(n_resource + n_power) {
            let (spec, bias) = specs[rng.gen_range(0..specs.len())];
            let fc = GigaHertz::new(rng.gen_range(0.8..=spec.cpu_clock.as_f64()));
            let fg = GigaHertz::new(rng.gen_range(0.3..=spec.gpu_clock.as_f64().max(0.35)));
            let wc = Ratio::new(rng.gen_range(0.0..=1.0));
            if i < n_resource {
                let observed = laws.compute_resource(fc, fg, wc, bias) * sample_noise(&mut rng);
                dataset.resource_x.push((fc, fg, wc));
                dataset.resource_y.push(observed);
            } else {
                let observed = laws.mean_power(fc, fg, wc, bias).as_f64() * sample_noise(&mut rng);
                dataset.power_x.push((fc, fg, wc));
                dataset.power_y.push(observed);
            }
        }

        // Encoding observations over random codec settings and frame sizes.
        for _ in 0..n_encoding {
            let (_, bias) = specs[rng.gen_range(0..specs.len())];
            let config = EncodingConfig {
                i_frame_interval: rng.gen_range(5.0..=60.0),
                b_frame_interval: rng.gen_range(0.0..=3.0),
                bitrate_mbps: rng.gen_range(1.0..=20.0),
                quantization: rng.gen_range(18.0..=40.0),
                decode_discount: 1.0 / 3.0,
            };
            let side = rng.gen_range(240.0..=720.0);
            let fps = *[15.0, 24.0, 30.0, 60.0]
                .get(rng.gen_range(0..4))
                .expect("index in range");
            let frame = Frame::from_resolution(FrameId::new(1), side, Hertz::new(fps));
            let observed = laws.encoding_work(&config, &frame, bias) * sample_noise(&mut rng);
            dataset
                .encoding_x
                .push(EncodingLatencyModel::features(&config, &frame));
            dataset.encoding_y.push(observed);
        }

        // CNN-complexity observations: repeated noisy measurements of the
        // Table II models.
        let cnns: Vec<_> = cnn_catalog.iter().cloned().collect();
        for _ in 0..n_complexity {
            let cnn = &cnns[rng.gen_range(0..cnns.len())];
            let observed = laws.cnn_complexity(cnn) * sample_noise(&mut rng);
            dataset
                .complexity_x
                .push((f64::from(cnn.depth), cnn.size.as_f64(), cnn.depth_scale));
            dataset.complexity_y.push(observed);
        }

        dataset
    }
}

/// The four regression sub-models refit on a simulated measurement dataset,
/// plus the calibrated end-to-end framework built from them.
#[derive(Debug, Clone)]
pub struct CalibratedModels {
    /// Refit compute-resource model (Eq. 3 form).
    pub compute: ComputeResourceModel,
    /// Refit mean-power model (Eq. 21 form).
    pub power: MeanPowerModel,
    /// Refit encoding-latency model (Eq. 10 form).
    pub encoding: EncodingLatencyModel,
    /// Refit CNN-complexity model (Eq. 12 form).
    pub complexity: CnnComplexityModel,
}

/// Held-out goodness of fit of the calibrated sub-models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Out-of-sample R² of the compute-resource model.
    pub resource_r_squared: f64,
    /// Out-of-sample R² of the mean-power model.
    pub power_r_squared: f64,
    /// Out-of-sample R² of the encoding model.
    pub encoding_r_squared: f64,
    /// Out-of-sample R² of the CNN-complexity model.
    pub complexity_r_squared: f64,
}

impl CalibratedModels {
    /// Fits the four sub-models on a training dataset.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (e.g. an empty dataset).
    pub fn fit(train: &MeasurementDataset) -> Result<Self> {
        let compute = ComputeResourceModel::fit(&train.resource_x, &train.resource_y)?;
        let power = MeanPowerModel::fit(&train.power_x, &train.power_y)?;
        let encoding = EncodingLatencyModel::fit(&train.encoding_x, &train.encoding_y)?;
        let complexity = CnnComplexityModel::fit(&train.complexity_x, &train.complexity_y)?;
        Ok(Self {
            compute,
            power,
            encoding,
            complexity,
        })
    }

    /// Builds the calibrated analytical framework (latency + energy + AoI)
    /// from the refit sub-models.
    #[must_use]
    pub fn performance_model(&self) -> XrPerformanceModel {
        let latency = LatencyModel::published()
            .with_compute_model(self.compute.clone())
            .with_cnn_complexity(self.complexity.clone())
            .with_encoding_model(self.encoding.clone());
        let energy = EnergyModel::published().with_power_model(self.power.clone());
        XrPerformanceModel::new(latency, energy, AoiModel::published())
    }

    /// In-sample R² of the four fits (the numbers the paper reports as 0.87,
    /// 0.863, 0.79 and 0.844).
    #[must_use]
    pub fn training_r_squared(&self) -> CalibrationReport {
        CalibrationReport {
            resource_r_squared: self.compute.r_squared(),
            power_r_squared: self.power.r_squared(),
            encoding_r_squared: self.encoding.r_squared(),
            complexity_r_squared: self.complexity.r_squared(),
        }
    }

    /// Out-of-sample R² on a held-out dataset (the validation-device split).
    #[must_use]
    pub fn evaluate(&self, test: &MeasurementDataset) -> CalibrationReport {
        CalibrationReport {
            resource_r_squared: self.compute.regression().score(
                test.resource_x.len(),
                |i| {
                    let (fc, fg, wc) = test.resource_x[i];
                    ComputeResourceModel::features(fc, fg, wc)
                },
                &test.resource_y,
            ),
            power_r_squared: self.power.regression().score(
                test.power_x.len(),
                |i| {
                    let (fc, fg, wc) = test.power_x[i];
                    MeanPowerModel::features(fc, fg, wc)
                },
                &test.power_y,
            ),
            encoding_r_squared: self.encoding.regression().score(
                test.encoding_x.len(),
                |i| test.encoding_x[i],
                &test.encoding_y,
            ),
            complexity_r_squared: self.complexity.regression().score(
                test.complexity_x.len(),
                |i| {
                    let (d, s, c) = test.complexity_x[i];
                    [d, s, c]
                },
                &test.complexity_y,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_test() -> (MeasurementDataset, MeasurementDataset) {
        let laws = TrueLaws::standard();
        let train =
            MeasurementCampaign::small(1).collect(&laws, &DeviceCatalog::training_devices());
        let test = MeasurementCampaign::small(2)
            .with_target_records(1_500)
            .collect(&laws, &DeviceCatalog::validation_devices());
        (train, test)
    }

    #[test]
    fn campaign_collects_the_requested_volume() {
        let (train, test) = train_test();
        assert!(
            train.len() >= 3_800 && train.len() <= 4_000,
            "{}",
            train.len()
        );
        assert!(test.len() >= 1_400 && test.len() <= 1_500);
        assert!(!train.is_empty());
        assert!(!train.resource_y.is_empty());
        assert!(!train.power_y.is_empty());
        assert!(!train.encoding_y.is_empty());
        assert!(!train.complexity_y.is_empty());
    }

    #[test]
    fn paper_scale_matches_reported_counts() {
        let c = MeasurementCampaign::paper_scale(0);
        assert_eq!(c.target_records, 119_465);
        assert_eq!(
            MeasurementCampaign::paper_scale_test(0).target_records,
            36_083
        );
    }

    #[test]
    fn calibrated_fits_have_strong_in_sample_r_squared() {
        let (train, _) = train_test();
        let models = CalibratedModels::fit(&train).unwrap();
        let report = models.training_r_squared();
        assert!(report.resource_r_squared > 0.8, "{report:?}");
        assert!(report.power_r_squared > 0.8, "{report:?}");
        assert!(report.encoding_r_squared > 0.8, "{report:?}");
        assert!(report.complexity_r_squared > 0.8, "{report:?}");
    }

    #[test]
    fn calibrated_fits_generalise_to_held_out_devices() {
        let (train, test) = train_test();
        let models = CalibratedModels::fit(&train).unwrap();
        let report = models.evaluate(&test);
        assert!(report.resource_r_squared > 0.7, "{report:?}");
        assert!(report.power_r_squared > 0.7, "{report:?}");
        assert!(report.encoding_r_squared > 0.7, "{report:?}");
        assert!(report.complexity_r_squared > 0.7, "{report:?}");
    }

    #[test]
    fn calibrated_framework_analyses_scenarios() {
        let (train, _) = train_test();
        let models = CalibratedModels::fit(&train).unwrap();
        let framework = models.performance_model();
        let scenario = xr_core::Scenario::builder().build().unwrap();
        let report = framework.analyze(&scenario).unwrap();
        assert!(report.latency.total().as_f64() > 0.0);
        assert!(report.energy.total().as_f64() > 0.0);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let laws = TrueLaws::standard();
        let a = MeasurementCampaign::small(9).collect(&laws, &["XR1", "XR3"]);
        let b = MeasurementCampaign::small(9).collect(&laws, &["XR1", "XR3"]);
        let c = MeasurementCampaign::small(10).collect(&laws, &["XR1", "XR3"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_devices_yield_empty_dataset() {
        let laws = TrueLaws::standard();
        let d = MeasurementCampaign::small(1).collect(&laws, &["nonexistent"]);
        assert!(d.is_empty());
        assert!(CalibratedModels::fit(&d).is_err());
    }
}
