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
//! allocates per record. One private record visitor draws the campaign and
//! hands each record, as the sub-model's covariates and its noisy
//! observation, to a closure. [`MeasurementCampaign::collect`] stores them
//! in a [`MeasurementDataset`] whose eight columns it sizes exactly before
//! drawing; [`CalibratedModels::calibrate`] pushes each one through its
//! sub-model's own `features` into that sub-model's normal equations and
//! never holds the records. The visitor looks up each device's bias once
//! and draws its one `StdRng` stream as chunked word columns. Every record
//! kind draws a fixed number of raw words — its body, then one word pair
//! for its log-normal noise:
//!
//! | record | body words | noise pair |
//! |---|---|---|
//! | resource, power | device index, `f_c`, `f_g`, `ω_c` (4) | 2 |
//! | encoding | device index, four codec settings, side, fps index (7) | 2 |
//! | CNN complexity | model index (1) | 2 |
//!
//! A chunk of up to 32 records fills its body words and its two noise-pair
//! columns in stream order, into a few KB of scratch that every chunk
//! reuses. The noise columns go through the tier-dispatched Box–Muller
//! kernel `rand_distr::column::fill_normal`. Scalar code then maps each
//! record: it reads the body words through the `rand` shim's own samplers
//! and scales the law's value by the platform `exp` of the record's
//! variate. So each record keeps the bits of the same record drawn on its
//! own from the stream; `tests/calibration_golden.rs` pins that against a
//! per-record oracle.
//!
//! [`CalibratedModels::fit`] and [`CalibratedModels::evaluate`] read the
//! columns as fixed-width feature rows through the streamed OLS fit of
//! `xr_stats`, which builds no design matrix and accumulates in the order of
//! the explicit `XᵀX`/`Xᵀy` products. `calibrate` feeds the same rows in
//! the same order to the fit's first pass, so its coefficients have the
//! row fit's bits; having no second pass, its models carry no in-sample
//! R².

use crate::laws::{DeviceBias, TrueLaws};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::math::Tier;
use rand_distr::{column, Normal};
use serde::{Deserialize, Serialize};
use xr_core::{
    EncodingConfig, EncodingLatencyModel, EnergyModel, LatencyModel, XrPerformanceModel,
};
use xr_devices::{
    CnnCatalog, CnnComplexityModel, CnnModel, ComputeResourceModel, DeviceCatalog, DeviceSpec,
    MeanPowerModel,
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

/// Relative standard deviation of the measurement noise on every
/// observation.
const NOISE_SIGMA: f64 = 0.03;

/// Records per chunk of [`MeasurementCampaign::collect`]'s column pass.
const CHUNK: usize = 32;

/// The most raw words a record draws before its noise pair (an encoding
/// record's seven).
const MAX_BODY: usize = 7;

/// Configuration of a simulated measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementCampaign {
    seed: u64,
    /// Target number of records to collect.
    target_records: usize,
}

impl MeasurementCampaign {
    /// The paper-scale campaign: 119 465 records, 3 % measurement noise.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            seed,
            target_records: 119_465,
        }
    }

    /// The paper-scale *test* campaign on the held-out devices:
    /// 36 083 records.
    #[must_use]
    pub fn paper_scale_test(seed: u64) -> Self {
        Self {
            seed,
            target_records: 36_083,
        }
    }

    /// A small campaign for unit tests and quick experiments.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            target_records: 4_000,
        }
    }

    /// Overrides the number of records collected.
    #[must_use]
    pub fn with_target_records(mut self, records: usize) -> Self {
        self.target_records = records.max(100);
        self
    }

    /// Runs the campaign against the given devices (catalog names) and
    /// returns the collected dataset. The record budget is split roughly
    /// 40 % / 35 % / 20 % / 5 % across the resource, power, encoding and
    /// complexity sub-datasets.
    #[must_use]
    pub fn collect(&self, laws: &TrueLaws, devices: &[&str]) -> MeasurementDataset {
        self.collect_at(Tier::dispatched(), laws, devices)
    }

    /// [`collect`](Self::collect) with the noise columns drawn on an
    /// explicit tier.
    fn collect_at(&self, tier: Tier, laws: &TrueLaws, devices: &[&str]) -> MeasurementDataset {
        let mut dataset = MeasurementDataset::default();
        let [n_resource, n_power, n_encoding, n_complexity] = self.split();
        dataset.resource_x.reserve_exact(n_resource);
        dataset.resource_y.reserve_exact(n_resource);
        dataset.power_x.reserve_exact(n_power);
        dataset.power_y.reserve_exact(n_power);
        dataset.encoding_x.reserve_exact(n_encoding);
        dataset.encoding_y.reserve_exact(n_encoding);
        dataset.complexity_x.reserve_exact(n_complexity);
        dataset.complexity_y.reserve_exact(n_complexity);
        self.visit_at(
            tier,
            laws,
            &campaign_devices(devices),
            |record| match record {
                Record::Resource(x, y) => {
                    dataset.resource_x.push(x);
                    dataset.resource_y.push(y);
                }
                Record::Power(x, y) => {
                    dataset.power_x.push(x);
                    dataset.power_y.push(y);
                }
                Record::Encoding(x, y) => {
                    dataset.encoding_x.push(x);
                    dataset.encoding_y.push(y);
                }
                Record::Complexity(cnn, y) => {
                    let [depth, size, scale] = CnnComplexityModel::features(cnn);
                    dataset.complexity_x.push((depth, size, scale));
                    dataset.complexity_y.push(y);
                }
            },
        );
        dataset
    }

    /// The record counts of the resource, power, encoding and complexity
    /// sub-datasets.
    fn split(&self) -> [usize; 4] {
        let n_resource = self.target_records * 40 / 100;
        let n_power = self.target_records * 35 / 100;
        let n_encoding = self.target_records * 20 / 100;
        let n_complexity = self
            .target_records
            .saturating_sub(n_resource + n_power + n_encoding);
        [n_resource, n_power, n_encoding, n_complexity]
    }

    /// Draws the campaign over `specs` and hands every record to `visit`,
    /// sub-dataset after sub-dataset, each in record order. Nothing is
    /// drawn when `specs` is empty.
    fn visit_at(
        &self,
        tier: Tier,
        laws: &TrueLaws,
        specs: &[(&DeviceSpec, DeviceBias)],
        mut visit: impl FnMut(Record),
    ) {
        if specs.is_empty() {
            return;
        }
        let [n_resource, n_power, n_encoding, n_complexity] = self.split();
        let mut draws = ChunkedDraws::new(self.seed, tier);
        // A random operating point of a campaign device: its bias and
        // `(f_c, f_g, ω_c)`.
        let operating_point = |words: &mut Words| {
            let (spec, bias) = specs[words.gen_range(0..specs.len())];
            let fc = GigaHertz::new(words.gen_range(0.8..=spec.cpu_clock.as_f64()));
            let fg = GigaHertz::new(words.gen_range(0.3..=spec.gpu_clock.as_f64().max(0.35)));
            let wc = Ratio::new(words.gen_range(0.0..=1.0));
            (bias, (fc, fg, wc))
        };

        // Compute-resource and power observations over random operating
        // points of the campaign devices.
        draws.records::<4>(n_resource, |words, factor| {
            let (bias, (fc, fg, wc)) = operating_point(words);
            let y = laws.compute_resource(fc, fg, wc, bias) * factor;
            visit(Record::Resource((fc, fg, wc), y));
        });
        draws.records::<4>(n_power, |words, factor| {
            let (bias, (fc, fg, wc)) = operating_point(words);
            let y = laws.mean_power(fc, fg, wc, bias).as_f64() * factor;
            visit(Record::Power((fc, fg, wc), y));
        });

        // Encoding observations over random codec settings and frame sizes.
        draws.records::<7>(n_encoding, |words, factor| {
            let (_, bias) = specs[words.gen_range(0..specs.len())];
            let config = EncodingConfig {
                i_frame_interval: words.gen_range(5.0..=60.0),
                b_frame_interval: words.gen_range(0.0..=3.0),
                bitrate_mbps: words.gen_range(1.0..=20.0),
                quantization: words.gen_range(18.0..=40.0),
                decode_discount: 1.0 / 3.0,
            };
            let side = words.gen_range(240.0..=720.0);
            let fps = *[15.0, 24.0, 30.0, 60.0]
                .get(words.gen_range(0..4))
                .expect("index in range");
            let frame = Frame::from_resolution(FrameId::new(1), side, Hertz::new(fps));
            let y = laws.encoding_work(&config, &frame, bias) * factor;
            visit(Record::Encoding(
                EncodingLatencyModel::features(&config, &frame),
                y,
            ));
        });

        // CNN-complexity observations: repeated noisy measurements of the
        // Table II models.
        let cnns: Vec<_> = CnnCatalog::table2().iter().collect();
        draws.records::<1>(n_complexity, |words, factor| {
            let cnn = cnns[words.gen_range(0..cnns.len())];
            visit(Record::Complexity(cnn, laws.cnn_complexity(cnn) * factor));
        });
    }
}

/// The catalog devices named in `devices`, each with its bias; unknown
/// names are skipped.
fn campaign_devices(devices: &[&str]) -> Vec<(&'static DeviceSpec, DeviceBias)> {
    let catalog = DeviceCatalog::table1();
    devices
        .iter()
        .filter_map(|name| catalog.device(name).ok())
        .map(|spec| (spec, DeviceBias::for_device(&spec.name)))
        .collect()
}

/// One calibration record as the campaign draws it: a sub-model's
/// covariates and its noisy observation.
enum Record {
    /// `(f_c, f_g, ω_c)` and the observed compute resource.
    Resource((GigaHertz, GigaHertz, Ratio), f64),
    /// `(f_c, f_g, ω_c)` and the observed mean power (W).
    Power((GigaHertz, GigaHertz, Ratio), f64),
    /// The encoding model's features and the observed encoder work.
    Encoding([f64; 6], f64),
    /// The measured CNN and its observed complexity multiplier.
    Complexity(&'static CnnModel, f64),
}

/// The campaign's one `StdRng` stream, drawn a chunk of records at a time
/// into fixed scratch columns that every chunk reuses.
struct ChunkedDraws {
    rng: StdRng,
    tier: Tier,
    noise: Normal,
    /// Each record's words before its noise pair, record after record.
    body: [u64; CHUNK * MAX_BODY],
    /// The first and second word of each record's noise pair.
    noise_a: [u64; CHUNK],
    noise_b: [u64; CHUNK],
    /// Each record's noise variate.
    variates: [f64; CHUNK],
}

impl ChunkedDraws {
    fn new(seed: u64, tier: Tier) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            tier,
            noise: Normal::new(0.0, NOISE_SIGMA).expect("valid noise sigma"),
            body: [0; CHUNK * MAX_BODY],
            noise_a: [0; CHUNK],
            noise_b: [0; CHUNK],
            variates: [0.0; CHUNK],
        }
    }

    /// Draws `n` records of `BODY` words plus a noise pair each, in stream
    /// order, and hands each record's words and noise factor
    /// `exp(N(0, σ))` to `record`, in record order.
    fn records<const BODY: usize>(&mut self, n: usize, mut record: impl FnMut(&mut Words, f64)) {
        const { assert!(BODY <= MAX_BODY) };
        let mut left = n;
        while left > 0 {
            let len = left.min(CHUNK);
            left -= len;
            for k in 0..len {
                for word in &mut self.body[k * BODY..(k + 1) * BODY] {
                    *word = self.rng.next_u64();
                }
                self.noise_a[k] = self.rng.next_u64();
                self.noise_b[k] = self.rng.next_u64();
            }
            column::fill_normal(
                self.tier,
                &self.noise,
                &self.noise_a[..len],
                &self.noise_b[..len],
                &mut self.variates[..len],
            );
            let bodies = self.body[..len * BODY].chunks_exact(BODY);
            for (body, &variate) in bodies.zip(&self.variates[..len]) {
                let mut words = Words(body.iter());
                record(&mut words, variate.exp());
                debug_assert_eq!(words.0.len(), 0, "a record left words undrawn");
            }
        }
    }
}

/// One record's words before its noise pair, handed out in stream order.
/// The record draws them through the `rand` shim's own samplers, so every
/// value has the expression of the same draw from the campaign's `StdRng`.
struct Words<'a>(core::slice::Iter<'a, u64>);

impl RngCore for Words<'_> {
    fn next_u64(&mut self) -> u64 {
        *self
            .0
            .next()
            .expect("a record drew more words than its layout holds")
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
    /// Runs `campaign` over `devices` and fits the four sub-models on its
    /// records as they are drawn, without building the dataset: each
    /// record goes through its sub-model's own features into that
    /// sub-model's [`NormalEquations`](xr_stats::NormalEquations), in
    /// record order. The coefficients are those of
    /// [`fit`](Self::fit) on [`MeasurementCampaign::collect`]'s dataset, bit
    /// for bit; the models have no in-sample diagnostics, so
    /// [`training_r_squared`](Self::training_r_squared) is `None`.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (e.g. no known device).
    pub fn calibrate(
        campaign: &MeasurementCampaign,
        laws: &TrueLaws,
        devices: &[&str],
    ) -> Result<Self> {
        Self::calibrate_at(Tier::dispatched(), campaign, laws, devices)
    }

    /// [`calibrate`](Self::calibrate) with the noise columns drawn on an
    /// explicit tier.
    fn calibrate_at(
        tier: Tier,
        campaign: &MeasurementCampaign,
        laws: &TrueLaws,
        devices: &[&str],
    ) -> Result<Self> {
        let mut compute = ComputeResourceModel::equations();
        let mut power = MeanPowerModel::equations();
        let mut encoding = EncodingLatencyModel::equations();
        let mut complexity = CnnComplexityModel::equations();
        campaign.visit_at(
            tier,
            laws,
            &campaign_devices(devices),
            |record| match record {
                Record::Resource((fc, fg, wc), y) => {
                    compute.push(ComputeResourceModel::features(fc, fg, wc), y);
                }
                Record::Power((fc, fg, wc), y) => {
                    power.push(MeanPowerModel::features(fc, fg, wc), y);
                }
                Record::Encoding(x, y) => encoding.push(x, y),
                Record::Complexity(cnn, y) => {
                    complexity.push(CnnComplexityModel::features(cnn), y);
                }
            },
        );
        Ok(Self {
            compute: ComputeResourceModel::solve(&compute)?,
            power: MeanPowerModel::solve(&power)?,
            encoding: EncodingLatencyModel::solve(&encoding)?,
            complexity: CnnComplexityModel::solve(&complexity)?,
        })
    }

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
        XrPerformanceModel::new(latency, energy)
    }

    /// In-sample R² of the four fits (the numbers the paper reports as 0.87,
    /// 0.863, 0.79 and 0.844); `None` for models from
    /// [`calibrate`](Self::calibrate), which never hold their rows.
    #[must_use]
    pub fn training_r_squared(&self) -> Option<CalibrationReport> {
        Some(CalibrationReport {
            resource_r_squared: self.compute.r_squared()?,
            power_r_squared: self.power.r_squared()?,
            encoding_r_squared: self.encoding.r_squared()?,
            complexity_r_squared: self.complexity.r_squared()?,
        })
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
        let report = models.training_r_squared().unwrap();
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
    fn every_tier_collects_the_same_bits() {
        // 1 301 records split 520 / 455 / 260 / 66: every sub-dataset
        // ends in a chunk shorter than `CHUNK` (32).
        let laws = TrueLaws::standard();
        let devices = DeviceCatalog::training_devices();
        let campaign = MeasurementCampaign::small(5).with_target_records(1_301);
        let bits = |d: &MeasurementDataset| -> Vec<u64> {
            let pairs = d.resource_x.iter().chain(&d.power_x);
            pairs
                .flat_map(|&(fc, fg, wc)| [fc.as_f64(), fg.as_f64(), wc.as_f64()])
                .chain(d.resource_y.iter().chain(&d.power_y).copied())
                .chain(d.encoding_x.iter().flatten().copied())
                .chain(d.encoding_y.iter().copied())
                .chain(d.complexity_x.iter().flat_map(|&(a, b, c)| [a, b, c]))
                .chain(d.complexity_y.iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        let portable = campaign.collect_at(Tier::Portable, &laws, &devices);
        assert_eq!(portable.len(), 1_301);
        for tier in Tier::ALL {
            if !tier.supported() {
                eprintln!("skipping the {tier:?} tier: this host cannot run it");
                continue;
            }
            let collected = campaign.collect_at(tier, &laws, &devices);
            assert_eq!(collected.len(), portable.len(), "{tier:?}");
            assert_eq!(bits(&collected), bits(&portable), "{tier:?}");
        }
    }

    #[test]
    fn unknown_devices_yield_empty_dataset() {
        let laws = TrueLaws::standard();
        let campaign = MeasurementCampaign::small(1);
        let d = campaign.collect(&laws, &["nonexistent"]);
        assert!(d.is_empty());
        assert!(CalibratedModels::fit(&d).is_err());
        assert!(CalibratedModels::calibrate(&campaign, &laws, &["nonexistent"]).is_err());
    }

    #[test]
    fn every_tier_calibrates_the_paper_scale_campaign_to_the_row_fit_bits() {
        let bits = |models: &CalibratedModels| -> Vec<u64> {
            [
                models.compute.regression(),
                models.power.regression(),
                models.encoding.regression(),
                models.complexity.regression(),
            ]
            .into_iter()
            .flat_map(|fit| std::iter::once(fit.intercept()).chain(fit.coefficients().to_vec()))
            .map(f64::to_bits)
            .collect()
        };
        let laws = TrueLaws::standard();
        let devices = DeviceCatalog::training_devices();
        let campaign = MeasurementCampaign::paper_scale(2024);
        for tier in Tier::ALL {
            if !tier.supported() {
                eprintln!("skipping the {tier:?} tier: this host cannot run it");
                continue;
            }
            let row_fit =
                CalibratedModels::fit(&campaign.collect_at(tier, &laws, &devices)).unwrap();
            let streamed =
                CalibratedModels::calibrate_at(tier, &campaign, &laws, &devices).unwrap();
            assert_eq!(bits(&streamed), bits(&row_fit), "{tier:?}");
            assert_eq!(streamed.training_r_squared(), None);
        }
    }
}
