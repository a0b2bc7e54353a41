//! Workspace-level integration-test package.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]`
//! targets in `Cargo.toml`; this library only hosts shared helpers.

#![forbid(unsafe_code)]

/// Builds the standard evaluation scenario used across the integration tests:
/// the held-out XR2 client at a given frame size, clock and execution target.
///
/// # Panics
///
/// Panics if the scenario fails validation (it never does for valid sweep
/// inputs).
#[must_use]
pub fn evaluation_scenario(
    frame_size: f64,
    cpu_clock_ghz: f64,
    execution: xr_types::ExecutionTarget,
) -> xr_core::Scenario {
    xr_core::Scenario::builder()
        .client_from_catalog("XR2")
        .expect("XR2 exists")
        .frame_side(frame_size)
        .cpu_clock(xr_types::GigaHertz::new(cpu_clock_ghz))
        .execution(execution)
        .build()
        .expect("valid scenario")
}

/// The text of a checked-in grid spec under the repository's `configs/`
/// directory, such as `fig-mobility.grid`.
///
/// # Panics
///
/// Panics with the path if the file cannot be read.
#[must_use]
pub fn config_spec(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../configs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The calibration seed pinned by [`CALIBRATION_GOLDEN`].
pub const CALIBRATION_SEED: u64 = 2024;

/// The checked-in bits of [`calibration_fingerprint`] at
/// [`CALIBRATION_SEED`]: the oracle for any change to the measurement
/// campaign or the OLS fit.
pub const CALIBRATION_GOLDEN: &str = include_str!("golden/calibration-2024.txt");

/// Renders the bits of the context calibration at `seed`, one `key value`
/// line each.
///
/// For the `small` and `paper` training campaigns over the training devices
/// it records the record counts and an order-sensitive hash of every
/// record's bits, and for each of the four sub-model fits the intercept,
/// coefficients, R², adjusted R², residual variance and the 95 % half-width
/// at the first training row. Both fits are then scored with
/// `CalibratedModels::evaluate` on the paper-scale held-out campaign at
/// `seed + 1`. Floats are written as their IEEE-754 bits in hex.
///
/// # Panics
///
/// Panics if a fit fails (it never does for the built-in campaigns).
#[must_use]
pub fn calibration_fingerprint(seed: u64) -> String {
    use std::fmt::Write as _;
    use xr_devices::{ComputeResourceModel, DeviceCatalog, MeanPowerModel};
    use xr_stats::FittedLinearModel;
    use xr_testbed::{CalibratedModels, MeasurementCampaign, TestbedSimulator};

    fn bits(values: impl IntoIterator<Item = f64>) -> String {
        values
            .into_iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    let testbed = TestbedSimulator::new(seed);
    let test = MeasurementCampaign::paper_scale_test(seed + 1)
        .collect(testbed.laws(), &DeviceCatalog::validation_devices());
    let mut out = String::new();
    for (scale, campaign) in [
        ("small", MeasurementCampaign::small(seed)),
        ("paper", MeasurementCampaign::paper_scale(seed)),
    ] {
        let train = campaign.collect(testbed.laws(), &DeviceCatalog::training_devices());
        // FNV-1a over 64-bit words, column by column in record order.
        let words = dataset_words(&train);
        let hash = words.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let words = words.len();
        let _ = writeln!(
            out,
            "{scale}.dataset.records {} {} {} {}",
            train.resource_y.len(),
            train.power_y.len(),
            train.encoding_y.len(),
            train.complexity_y.len()
        );
        let _ = writeln!(out, "{scale}.dataset.hash {hash:016x} {words}");

        let models = CalibratedModels::fit(&train).expect("calibration succeeds");
        let (fc, fg, wc) = train.resource_x[0];
        let (pc, pg, pw) = train.power_x[0];
        let (d, s, c) = train.complexity_x[0];
        let fits: [(&str, &FittedLinearModel, &[f64]); 4] = [
            (
                "resource",
                models.compute.regression(),
                &ComputeResourceModel::features(fc, fg, wc),
            ),
            (
                "power",
                models.power.regression(),
                &MeanPowerModel::features(pc, pg, pw),
            ),
            (
                "encoding",
                models.encoding.regression(),
                &train.encoding_x[0],
            ),
            ("complexity", models.complexity.regression(), &[d, s, c]),
        ];
        for (name, fit, first_row) in fits {
            let in_sample = "a row fit keeps its in-sample diagnostics";
            let (_, half_width) = fit.predict_with_interval(first_row).expect(in_sample);
            for (field, values) in [
                ("intercept", vec![fit.intercept()]),
                ("coefficients", fit.coefficients().to_vec()),
                ("r_squared", vec![fit.r_squared().expect(in_sample)]),
                (
                    "adjusted_r_squared",
                    vec![fit.adjusted_r_squared().expect(in_sample)],
                ),
                (
                    "residual_variance",
                    vec![fit.residual_variance().expect(in_sample)],
                ),
                ("half_width", vec![half_width]),
            ] {
                let _ = writeln!(out, "{scale}.{name}.{field} {}", bits(values));
            }
        }
        let held_out = models.evaluate(&test);
        let _ = writeln!(
            out,
            "{scale}.held_out.r_squared {}",
            bits([
                held_out.resource_r_squared,
                held_out.power_r_squared,
                held_out.encoding_r_squared,
                held_out.complexity_r_squared,
            ])
        );
    }
    out
}

/// Every number of a measurement dataset, column by column in record
/// order: the resource and power covariates, their observations, then the
/// encoding and CNN-complexity covariates and observations.
#[must_use]
pub fn dataset_words(dataset: &xr_testbed::MeasurementDataset) -> Vec<f64> {
    let resource_and_power = dataset.resource_x.iter().chain(&dataset.power_x);
    resource_and_power
        .flat_map(|&(fc, fg, wc)| [fc.as_f64(), fg.as_f64(), wc.as_f64()])
        .chain(dataset.resource_y.iter().chain(&dataset.power_y).copied())
        .chain(dataset.encoding_x.iter().flatten().copied())
        .chain(dataset.encoding_y.iter().copied())
        .chain(dataset.complexity_x.iter().flat_map(|&(d, s, c)| [d, s, c]))
        .chain(dataset.complexity_y.iter().copied())
        .collect()
}

/// The measurement campaign's 3 % log-normal noise, as the oracle below
/// draws it.
const ORACLE_NOISE_SIGMA: f64 = 0.03;

/// The measurement campaign drawn one record at a time: the oracle that
/// `MeasurementCampaign::collect`'s chunked column pass is pinned against.
/// It draws every record straight from one `StdRng` in stream order — the
/// record's words, then `Normal::sample`'s word pair, whose variate goes
/// through the platform `exp` — and pushes it before drawing the next.
/// `records` is the campaign's target record count.
#[must_use]
pub fn collect_per_record(
    seed: u64,
    records: usize,
    laws: &xr_testbed::TrueLaws,
    devices: &[&str],
) -> xr_testbed::MeasurementDataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rand_distr::{Distribution, Normal};
    use xr_core::{EncodingConfig, EncodingLatencyModel};
    use xr_devices::{CnnCatalog, DeviceCatalog};
    use xr_testbed::{DeviceBias, MeasurementDataset};
    use xr_types::{Frame, FrameId, GigaHertz, Hertz, Ratio};

    let mut rng = StdRng::seed_from_u64(seed);
    let noise = Normal::new(0.0, ORACLE_NOISE_SIGMA).expect("valid noise sigma");
    let catalog = DeviceCatalog::table1();
    let specs: Vec<_> = devices
        .iter()
        .filter_map(|name| catalog.device(name).ok())
        .map(|spec| (spec, DeviceBias::for_device(&spec.name)))
        .collect();
    let mut dataset = MeasurementDataset::default();
    if specs.is_empty() {
        return dataset;
    }
    let n_resource = records * 40 / 100;
    let n_power = records * 35 / 100;
    let n_encoding = records * 20 / 100;
    let n_complexity = records.saturating_sub(n_resource + n_power + n_encoding);

    for i in 0..(n_resource + n_power) {
        let (spec, bias) = specs[rng.gen_range(0..specs.len())];
        let fc = GigaHertz::new(rng.gen_range(0.8..=spec.cpu_clock.as_f64()));
        let fg = GigaHertz::new(rng.gen_range(0.3..=spec.gpu_clock.as_f64().max(0.35)));
        let wc = Ratio::new(rng.gen_range(0.0..=1.0));
        let factor = noise.sample(&mut rng).exp();
        if i < n_resource {
            dataset.resource_x.push((fc, fg, wc));
            dataset
                .resource_y
                .push(laws.compute_resource(fc, fg, wc, bias) * factor);
        } else {
            dataset.power_x.push((fc, fg, wc));
            dataset
                .power_y
                .push(laws.mean_power(fc, fg, wc, bias).as_f64() * factor);
        }
    }
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
        let fps = [15.0, 24.0, 30.0, 60.0][rng.gen_range(0..4)];
        let frame = Frame::from_resolution(FrameId::new(1), side, Hertz::new(fps));
        let factor = noise.sample(&mut rng).exp();
        dataset
            .encoding_x
            .push(EncodingLatencyModel::features(&config, &frame));
        dataset
            .encoding_y
            .push(laws.encoding_work(&config, &frame, bias) * factor);
    }
    let cnns: Vec<_> = CnnCatalog::table2().iter().collect();
    for _ in 0..n_complexity {
        let cnn = cnns[rng.gen_range(0..cnns.len())];
        let factor = noise.sample(&mut rng).exp();
        dataset
            .complexity_x
            .push((f64::from(cnn.depth), cnn.size.as_f64(), cnn.depth_scale));
        dataset.complexity_y.push(laws.cnn_complexity(cnn) * factor);
    }
    dataset
}

/// The checked-in bits of [`libm_fingerprint`] at [`CALIBRATION_SEED`].
pub const CALIBRATION_LIBM_GOLDEN: &str = include_str!("golden/calibration-libm-2024.txt");

/// The platform libm's results at the inputs the calibration golden
/// reaches, one `function input output` line each, as IEEE-754 bits in hex:
/// `exp` at the first 64 noise variates of the training campaign at
/// `seed`, then `powf(f_c, 1.35)` and `powf(f_g, 1.25)` (the mean-power
/// law) at its first 64 power records, at paper scale.
///
/// A resource record draws four words before its noise pair, so the
/// variates are replayed from the campaign's stream directly.
#[must_use]
pub fn libm_fingerprint(seed: u64) -> String {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rand_distr::{Distribution, Normal};
    use std::fmt::Write as _;
    use xr_devices::DeviceCatalog;
    use xr_testbed::{MeasurementCampaign, TrueLaws};

    let mut out = String::new();
    let mut line = |name: &str, x: f64, y: f64| {
        let _ = writeln!(out, "{name} {:016x} {:016x}", x.to_bits(), y.to_bits());
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = Normal::new(0.0, ORACLE_NOISE_SIGMA).expect("valid noise sigma");
    for _ in 0..64 {
        for _ in 0..4 {
            rng.next_u64();
        }
        let x = noise.sample(&mut rng);
        line("exp", x, x.exp());
    }
    let train = MeasurementCampaign::paper_scale(seed)
        .collect(&TrueLaws::standard(), &DeviceCatalog::training_devices());
    let power = &train.power_x[..64];
    for &(fc, _, _) in power {
        line("powf_1.35", fc.as_f64(), fc.as_f64().powf(1.35));
    }
    for &(_, fg, _) in power {
        line("powf_1.25", fg.as_f64(), fg.as_f64().powf(1.25));
    }
    out
}
