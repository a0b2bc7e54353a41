//! End-to-end integration: scenario → analytical framework → report, across
//! execution targets, devices and CNNs.

use xr_core::{CheckedScenario, Scenario, XrPerformanceModel};
use xr_devices::{CnnCatalog, DeviceCatalog};
use xr_integration::evaluation_scenario;
use xr_types::{ExecutionTarget, Segment};

#[test]
fn every_device_and_target_produces_a_consistent_report() {
    let model = XrPerformanceModel::published();
    for device in DeviceCatalog::table1().xr_clients() {
        for target in [
            ExecutionTarget::Local,
            ExecutionTarget::Remote,
            ExecutionTarget::Split { client_share: 0.5 },
        ] {
            let scenario = Scenario::builder()
                .client_from_catalog(&device.name)
                .unwrap()
                .execution(target)
                .build()
                .unwrap();
            let report = model.analyze(&scenario).unwrap();
            assert!(
                report.latency.total().as_f64() > 0.0,
                "{} / {target}",
                device.name
            );
            assert!(report.energy.total().as_f64() > 0.0);
            // The gated total never exceeds the sum of all segments.
            assert!(report.latency.total() <= report.latency.sum_of_segments());
            // Energy includes base + thermal on top of the segments.
            assert!(report.energy.total() > report.energy.base());
        }
    }
}

#[test]
fn every_on_device_cnn_is_analysable() {
    let model = XrPerformanceModel::published();
    let catalog = CnnCatalog::table2();
    let mut latencies = Vec::new();
    for cnn in catalog.on_device_models() {
        let scenario = Scenario::builder()
            .local_cnn(&cnn.name)
            .unwrap()
            .execution(ExecutionTarget::Local)
            .build()
            .unwrap();
        let report = model.analyze(&scenario).unwrap();
        latencies.push((
            cnn.name.clone(),
            report.latency.segment(Segment::LocalInference),
        ));
    }
    assert_eq!(latencies.len(), 9);
    // Heavier networks must never be faster than the lightest quantised one.
    let lightest = latencies
        .iter()
        .find(|(name, _)| name == "MobileNetV1_240_Quant")
        .unwrap()
        .1;
    for (name, latency) in &latencies {
        assert!(
            *latency >= lightest * 0.99,
            "{name} faster than the lightest model"
        );
    }
}

#[test]
fn remote_offload_reduces_client_compute_energy() {
    let model = XrPerformanceModel::published();
    let local = model
        .analyze(&evaluation_scenario(500.0, 2.0, ExecutionTarget::Local))
        .unwrap();
    let remote = model
        .analyze(&evaluation_scenario(500.0, 2.0, ExecutionTarget::Remote))
        .unwrap();
    // Offloading removes local inference energy entirely…
    assert_eq!(remote.energy.segment(Segment::LocalInference).as_f64(), 0.0);
    assert!(local.energy.segment(Segment::LocalInference).as_f64() > 0.0);
    // …and the energy spent while waiting for the edge (idle radio) is far
    // below what the same inference would have cost locally.
    assert!(
        remote.energy.segment(Segment::RemoteInference)
            < local.energy.segment(Segment::LocalInference)
    );
}

#[test]
fn latency_budget_analysis_is_monotone_in_frame_size() {
    let model = XrPerformanceModel::published();
    let mut last = 0.0;
    for size in [300.0, 400.0, 500.0, 600.0, 700.0] {
        let report = model
            .analyze(&evaluation_scenario(size, 2.0, ExecutionTarget::Remote))
            .unwrap();
        let total = report.latency_ms().as_f64();
        assert!(total > last, "latency must grow with frame size");
        last = total;
    }
}

#[test]
fn cooperation_segment_only_counts_when_requested() {
    let model = XrPerformanceModel::published();
    let default_scenario = evaluation_scenario(500.0, 2.0, ExecutionTarget::Local);
    let default_report = model.analyze(&default_scenario).unwrap();

    let mut coop = default_scenario.into_inner();
    coop.cooperation.include_in_totals = true;
    coop.segments = xr_types::SegmentSet::full();
    let coop = CheckedScenario::new(coop).unwrap();
    let coop_report = model.analyze(&coop).unwrap();
    assert!(coop_report.latency.total() > default_report.latency.total());
    assert!(coop_report.energy.total() > default_report.energy.total());
}
