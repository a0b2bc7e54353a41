//! Benchmarks the ground-truth substrate: one-frame session simulation, the
//! Monsoon-style power sampling, and the M/M/1 discrete-event simulator.

use bench::bench_scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xr_queueing::MM1Simulator;
use xr_testbed::{PowerMonitor, TestbedSimulator};
use xr_types::{ExecutionTarget, Seconds, Watts};

fn frame_simulation(c: &mut Criterion) {
    let testbed = TestbedSimulator::new(3);
    let mut group = c.benchmark_group("testbed/one_frame_session");
    for (label, target) in [
        ("local", ExecutionTarget::Local),
        ("remote", ExecutionTarget::Remote),
    ] {
        let scenario = bench_scenario(500.0, target);
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            b.iter(|| black_box(testbed.simulate_session(s, 1).unwrap()))
        });
    }
    group.finish();
}

fn power_sampling(c: &mut Criterion) {
    let monitor = PowerMonitor::monsoon();
    let phases = [
        (Watts::new(2.5), Seconds::new(0.2)),
        (Watts::new(1.2), Seconds::new(0.1)),
        (Watts::new(0.4), Seconds::new(0.15)),
    ];
    c.bench_function("testbed/power_monitor_450ms_frame", |b| {
        b.iter(|| black_box(monitor.record(&phases, Watts::new(0.85), 9).energy()))
    });
}

fn queue_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("testbed/mm1_des");
    group.sample_size(20);
    for customers in [1_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(customers),
            &customers,
            |b, &n| {
                let sim = MM1Simulator::new(300.0, 1_000.0, 5)
                    .unwrap()
                    .with_warmup(100);
                b.iter(|| black_box(sim.run(n).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, frame_simulation, power_sampling, queue_simulation);
criterion_main!(benches);
