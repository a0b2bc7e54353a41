//! Golden pin of the context calibration: the measurement campaign and the
//! four OLS sub-model fits must keep every bit, at quick and paper scale.
//! The chunked column pass of `MeasurementCampaign::collect` is pinned
//! against the per-record oracle, the streamed `CalibratedModels::calibrate`
//! against the row fit of the collected dataset, and the platform libm
//! results the golden depends on are pinned too, so a golden that fails on
//! a host with another libm says why. The fixed seed-2024 paper-scale
//! streamed case is `xr-testbed`'s unit test
//! `every_tier_calibrates_the_paper_scale_campaign_to_the_row_fit_bits`,
//! which can choose the SIMD tier and runs it on each one the host has.

use proptest::prelude::*;
use xr_devices::DeviceCatalog;
use xr_integration::{
    calibration_fingerprint, collect_per_record, dataset_words, libm_fingerprint,
    CALIBRATION_GOLDEN, CALIBRATION_LIBM_GOLDEN, CALIBRATION_SEED,
};
use xr_testbed::{CalibratedModels, MeasurementCampaign, MeasurementDataset, TrueLaws};

#[test]
fn calibration_matches_the_checked_in_bits() {
    let actual = calibration_fingerprint(CALIBRATION_SEED);
    for (line, (got, want)) in actual.lines().zip(CALIBRATION_GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "calibration golden line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        CALIBRATION_GOLDEN.lines().count(),
        "calibration golden line count"
    );
}

#[test]
fn platform_libm_matches_the_checked_in_bits() {
    let actual = libm_fingerprint(CALIBRATION_SEED);
    for (line, (got, want)) in actual
        .lines()
        .zip(CALIBRATION_LIBM_GOLDEN.lines())
        .enumerate()
    {
        // `function input` first, then the output bits.
        let (got_call, got_bits) = got.rsplit_once(' ').expect("function input output");
        let (want_call, want_bits) = want.rsplit_once(' ').expect("function input output");
        assert_eq!(
            got_call,
            want_call,
            "libm golden line {}: the calibration's inputs moved, so this is a \
             code change, not a libm difference",
            line + 1
        );
        assert_eq!(
            got_bits,
            want_bits,
            "libm golden line {}: this host's libm gives other bits than the libm \
             the calibration goldens were made with (glibc 2.36), so the \
             calibration and paper goldens cannot match here",
            line + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        CALIBRATION_LIBM_GOLDEN.lines().count(),
        "libm golden line count"
    );
}

/// The device lists the oracle comparison runs over: training, validation,
/// one device, and only unknown names (an empty dataset).
const DEVICE_LISTS: [&[&str]; 4] = [
    &["XR1", "XR3", "XR5", "XR6"],
    &["XR2", "XR4", "XR7"],
    &["XR3"],
    &["nonexistent"],
];

/// Asserts that the chunked `collect` gives the per-record oracle's
/// records, bit for bit.
fn assert_matches_oracle(seed: u64, records: usize, devices: &[&str]) {
    let laws = TrueLaws::standard();
    let chunked = MeasurementCampaign::small(seed)
        .with_target_records(records)
        .collect(&laws, devices);
    let oracle = collect_per_record(seed, records, &laws, devices);
    let counts = |d: &MeasurementDataset| {
        [
            d.resource_y.len(),
            d.power_y.len(),
            d.encoding_y.len(),
            d.complexity_y.len(),
        ]
    };
    assert_eq!(
        counts(&chunked),
        counts(&oracle),
        "{seed} {records} {devices:?}"
    );
    let bits = |d: &MeasurementDataset| {
        dataset_words(d)
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&chunked),
        bits(&oracle),
        "{seed} {records} {devices:?}"
    );
}

/// Every coefficient bit of the four sub-models, intercepts first.
fn coefficient_bits(models: &CalibratedModels) -> Vec<u64> {
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
}

/// Asserts that calibrating from the streamed campaign gives the row fit's
/// coefficients on the collected dataset, bit for bit, or fails as it does.
fn assert_calibrate_matches_the_row_fit(campaign: &MeasurementCampaign, devices: &[&str]) {
    let laws = TrueLaws::standard();
    let streamed = CalibratedModels::calibrate(campaign, &laws, devices);
    let row_fit = CalibratedModels::fit(&campaign.collect(&laws, devices));
    match (streamed, row_fit) {
        (Ok(streamed), Ok(row_fit)) => {
            assert_eq!(
                coefficient_bits(&streamed),
                coefficient_bits(&row_fit),
                "{campaign:?} {devices:?}"
            );
            assert_eq!(streamed.training_r_squared(), None);
        }
        (Err(_), Err(_)) => {}
        (streamed, row_fit) => panic!(
            "{campaign:?} {devices:?}: calibrate gave {:?}, the row fit {:?}",
            streamed.err(),
            row_fit.err()
        ),
    }
}

#[test]
fn chunked_collect_matches_the_oracle_at_chunk_boundaries() {
    // 160 and 640 records give 64 and 256 resource records, whole
    // 32-record chunks; 4 000 is the quick context's campaign.
    for records in [100, 160, 640, 4_000] {
        for devices in DEVICE_LISTS {
            assert_matches_oracle(CALIBRATION_SEED, records, devices);
        }
    }
    assert!(collect_per_record(1, 500, &TrueLaws::standard(), DEVICE_LISTS[3]).is_empty());
    // The first two lists are the catalog's training and validation splits.
    assert_eq!(
        DEVICE_LISTS[..2],
        [
            DeviceCatalog::training_devices().as_slice(),
            DeviceCatalog::validation_devices().as_slice(),
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // 100 to 600 records: 40 to 240 resource records, about one to seven
    // 32-record chunks, usually with a ragged tail; the complexity
    // sub-dataset, and often the encoding one, is shorter than one chunk.
    #[test]
    fn chunked_collect_matches_the_per_record_oracle(
        seed in 0u64..u64::MAX,
        records in 100usize..601,
        devices in prop::sample::select(DEVICE_LISTS.to_vec()),
    ) {
        assert_matches_oracle(seed, records, devices);
    }

    // The same cases, calibrated from the stream.
    #[test]
    fn calibrate_matches_the_row_fit_of_the_collected_dataset(
        seed in 0u64..u64::MAX,
        records in 100usize..601,
        devices in prop::sample::select(DEVICE_LISTS.to_vec()),
    ) {
        let campaign = MeasurementCampaign::small(seed).with_target_records(records);
        assert_calibrate_matches_the_row_fit(&campaign, devices);
    }
}
