//! Benchmarks the regression substrate: OLS fits of the paper's four
//! sub-models and the measurement campaign that feeds them, at increasing
//! dataset sizes up to the paper's campaign of 119 465 records (the size
//! every `--paper-scale` process calibrates on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xr_devices::DeviceCatalog;
use xr_integration::{calibration_fingerprint, CALIBRATION_GOLDEN, CALIBRATION_SEED};
use xr_testbed::{CalibratedModels, MeasurementCampaign, TestbedSimulator};

/// The paper's training-campaign size.
const PAPER_RECORDS: usize = 119_465;

fn fit_at_scale(c: &mut Criterion) {
    // Bit-identity gate: a faster calibration that moves a coefficient bit
    // is not a speedup. CI smoke-runs this bench with XR_BENCH_SAMPLE_SIZE=2
    // precisely for this check.
    assert_eq!(
        calibration_fingerprint(CALIBRATION_SEED),
        CALIBRATION_GOLDEN,
        "calibration drifted from tests/golden/calibration-2024.txt"
    );

    let testbed = TestbedSimulator::new(7);
    let mut group = c.benchmark_group("regression_fit/calibrate_all_submodels");
    group.sample_size(10);
    for records in [2_000usize, 10_000, 40_000, PAPER_RECORDS] {
        let dataset = MeasurementCampaign::small(7)
            .with_target_records(records)
            .collect(testbed.laws(), &DeviceCatalog::training_devices());
        group.bench_with_input(BenchmarkId::from_parameter(records), &dataset, |b, d| {
            b.iter(|| black_box(CalibratedModels::fit(d).unwrap()))
        });
    }
    group.finish();
}

fn collect_campaign(c: &mut Criterion) {
    let testbed = TestbedSimulator::new(7);
    let mut group = c.benchmark_group("regression_fit/collect_campaign");
    group.sample_size(10);
    for records in [2_000usize, 10_000, PAPER_RECORDS] {
        group.bench_with_input(BenchmarkId::from_parameter(records), &records, |b, &r| {
            b.iter(|| {
                black_box(
                    MeasurementCampaign::small(7)
                        .with_target_records(r)
                        .collect(testbed.laws(), &DeviceCatalog::training_devices()),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fit_at_scale, collect_campaign);
criterion_main!(benches);
