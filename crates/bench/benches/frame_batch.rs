//! Frame-simulation throughput: the scalar frame-by-frame reference
//! pipeline versus the batched structure-of-arrays engine, over the three
//! scenario shapes campaigns sweep most (local compute-bound, remote
//! edge-assisted, remote with a mobile device).
//!
//! The two engines are bit-identical by contract — asserted here before any
//! timing, so the speedup measures pure engine overhead, not divergent
//! work. Measured numbers are recorded in `BENCH_frame_batch.json` at the
//! repository root; the acceptance bar for the batched engine is ≥ 1.5×
//! scalar throughput on every scenario shape.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use xr_core::{MobilityConfig, Scenario};
use xr_testbed::{SimulationEngine, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, Meters, MetersPerSecond};
use xr_wireless::HandoffKind;

const FRAMES: u64 = 512;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let base = |execution| {
        Scenario::builder()
            .frame_side(500.0)
            .cpu_clock(GigaHertz::new(2.0))
            .execution(execution)
    };
    vec![
        ("local", base(ExecutionTarget::Local).build().unwrap()),
        ("remote", base(ExecutionTarget::Remote).build().unwrap()),
        (
            "mobile",
            base(ExecutionTarget::Remote)
                .mobility(MobilityConfig {
                    speed: MetersPerSecond::new(25.0),
                    coverage_radius: Meters::new(10.0),
                    handoff_kind: HandoffKind::Vertical,
                })
                .build()
                .unwrap(),
        ),
    ]
}

fn frame_batch_throughput(c: &mut Criterion) {
    let testbed = TestbedSimulator::new(2024);

    // Bit-identity gate: a faster engine that drifts is not a speedup.
    // CI smoke-runs this bench with XR_BENCH_SAMPLE_SIZE=2 precisely for
    // this block — the lane-oriented draw layer must replay the scalar
    // streams bit for bit on the CI host before any timing happens.
    for (label, scenario) in &scenarios() {
        let scalar = testbed.simulate_session_scalar(scenario, FRAMES).unwrap();
        for width in [1, 7, 64, 256, 512] {
            let batched = testbed
                .clone()
                .with_engine(SimulationEngine::Batched { width })
                .simulate_session(scenario, FRAMES)
                .unwrap();
            assert_eq!(
                batched, scalar,
                "{label}: batched(width {width}) diverged from the scalar reference"
            );
        }
    }

    let mut group = c.benchmark_group("frame_batch");
    group.sample_size(20);
    for (label, scenario) in &scenarios() {
        group.bench_with_input(
            BenchmarkId::new("scalar", label),
            scenario,
            |b, scenario| {
                b.iter(|| black_box(testbed.simulate_session_scalar(scenario, FRAMES).unwrap()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched", label),
            scenario,
            |b, scenario| b.iter(|| black_box(testbed.simulate_session(scenario, FRAMES).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, frame_batch_throughput);
criterion_main!(benches);
