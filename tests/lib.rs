//! Workspace-level integration-test package.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]`
//! targets in `Cargo.toml`; this library only hosts shared helpers.

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
        let resource_and_power = train.resource_x.iter().chain(&train.power_x);
        let words: Vec<f64> = resource_and_power
            .flat_map(|&(fc, fg, wc)| [fc.as_f64(), fg.as_f64(), wc.as_f64()])
            .chain(train.resource_y.iter().chain(&train.power_y).copied())
            .chain(train.encoding_x.iter().flatten().copied())
            .chain(train.encoding_y.iter().copied())
            .chain(train.complexity_x.iter().flat_map(|&(d, s, c)| [d, s, c]))
            .chain(train.complexity_y.iter().copied())
            .collect();
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
            let (_, half_width) = fit.predict_with_interval(first_row);
            for (field, values) in [
                ("intercept", vec![fit.intercept()]),
                ("coefficients", fit.coefficients().to_vec()),
                ("r_squared", vec![fit.r_squared()]),
                ("adjusted_r_squared", vec![fit.adjusted_r_squared()]),
                ("residual_variance", vec![fit.residual_variance()]),
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
