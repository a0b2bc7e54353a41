//! Replicated-point throughput: R standalone batched sessions, one after
//! another, versus `simulate_point`, which runs all R replications fused,
//! each pass splitting the batch width across them. The shapes are the
//! ones campaigns actually evaluate: short quick-grid sessions where the
//! per-rep constant costs (the `BatchConsts` hoist, lane-bank seeding,
//! walker and monitor setup) dominate, plus a longer paper-scale shape
//! where the draw kernels do.
//!
//! Before any timing, both are checked bit for bit against R standalone
//! sessions of the scalar reference engine, so the speedup measures pure
//! per-point overhead, not divergent work. R=1 is included honestly: a
//! one-replication point is a single standalone session, so its ratio is
//! ~1.0×. Measured numbers are recorded in `BENCH_point_fused.json` at the
//! repository root; the acceptance bar is ≥ 1.3× on at least one multi-rep
//! shape.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use xr_core::{MobilityConfig, Scenario};
use xr_testbed::{GroundTruthSession, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, Meters, MetersPerSecond};
use xr_wireless::HandoffKind;

const POINT_SEED: u64 = 2024;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let base = |execution| {
        Scenario::builder()
            .frame_side(500.0)
            .cpu_clock(GigaHertz::new(2.0))
            .execution(execution)
    };
    vec![
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
        (
            // A vehicular session roaming a dense contended edge map: the
            // per-rep path rebuilds every site's contention plan for every
            // replication; the fused path hoists them once per point.
            "roaming",
            base(ExecutionTarget::Remote)
                .frame_rate(xr_types::Hertz::new(5.0))
                .contention(4)
                .topology(xr_core::TopologyConfig {
                    layout: xr_types::TopologyLayout::Hex,
                    site_density: 1600.0,
                    migration_policy: xr_types::MigrationPolicy::Eager,
                })
                .mobility(MobilityConfig {
                    speed: MetersPerSecond::new(25.0),
                    coverage_radius: Meters::new(8.0),
                    handoff_kind: HandoffKind::Vertical,
                })
                .build()
                .unwrap(),
        ),
    ]
}

/// `(replications, frames)` shapes: the quick-grid point (20 frames) at
/// R ∈ {1, 3, 8} plus the paper-scale point (100 frames) at R = 3.
fn shapes() -> [(usize, u64); 5] {
    [(1, 20), (3, 20), (8, 20), (8, 5), (3, 100)]
}

/// R standalone sessions of one point, one after another.
fn per_rep_sessions(
    testbed: &TestbedSimulator,
    scenario: &Scenario,
    reps: usize,
    frames: u64,
    scalar: bool,
) -> Vec<GroundTruthSession> {
    (0..reps)
        .map(|rep| {
            let session = testbed.reseeded(xr_types::seed::mix(POINT_SEED, rep as u64));
            if scalar {
                session.simulate_session_scalar(scenario, frames).unwrap()
            } else {
                session.simulate_session(scenario, frames).unwrap()
            }
        })
        .collect()
}

fn point_fused_throughput(c: &mut Criterion) {
    let testbed = TestbedSimulator::new(7);

    // Bit-identity gate: a faster point engine that drifts is not a
    // speedup. CI smoke-runs this bench with XR_BENCH_SAMPLE_SIZE=2 on both
    // the SIMD and XR_FORCE_PORTABLE=1 legs precisely for this block.
    for (label, scenario) in &scenarios() {
        for (reps, frames) in shapes() {
            let reference = per_rep_sessions(&testbed, scenario, reps, frames, true);
            assert_eq!(
                per_rep_sessions(&testbed, scenario, reps, frames, false),
                reference,
                "{label}: per-rep batched sessions (reps {reps}, frames {frames}) diverged from the scalar reference"
            );
            assert_eq!(
                testbed
                    .simulate_point(scenario, POINT_SEED, reps, frames)
                    .unwrap(),
                reference,
                "{label}: point (reps {reps}, frames {frames}) diverged from the scalar reference"
            );
        }
    }

    let mut group = c.benchmark_group("point_fused");
    group.sample_size(20);
    for (label, scenario) in &scenarios() {
        for (reps, frames) in shapes() {
            let shape = format!("{label}/r{reps}xf{frames}");
            group.bench_with_input(
                BenchmarkId::new("per_rep", &shape),
                scenario,
                |b, scenario| {
                    b.iter(|| black_box(per_rep_sessions(&testbed, scenario, reps, frames, false)))
                },
            );
            group.bench_with_input(
                BenchmarkId::new("fused", &shape),
                scenario,
                |b, scenario| {
                    b.iter(|| {
                        black_box(
                            testbed
                                .simulate_point(scenario, POINT_SEED, reps, frames)
                                .unwrap(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, point_fused_throughput);
criterion_main!(benches);
