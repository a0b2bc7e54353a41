//! Transcendental-kernel throughput: the draw layer's polynomial
//! `ln`/`exp`/`sincos` kernels against the platform libm, scalar and as
//! column transforms — the hot path PR-8 vectorized.
//!
//! Three tiers:
//!
//! * `scalar/*` — one kernel call vs one `std` (libm) call over a column
//!   of sampler-domain inputs, timing pure function cost.
//! * `column/*` — the `rand_distr::column` fills on raw word columns: the
//!   runtime-dispatched entry (the widest SIMD tier the host runs) vs the
//!   portable tier vs a per-sample scalar loop emulating the pre-PR-8 scheme
//!   (stateless `Normal::sample`, one discarded variate per draw).
//! * `pipeline/noise` — the full kept-pair noise column (two lognormal
//!   factors from one word-pair column), the shape `batch_generate` runs
//!   per batch.
//!
//! Measured numbers live in `BENCH_transcendental.json` at the repository
//! root. The acceptance bar is the engine-level one in
//! `BENCH_frame_batch.json` (batched sessions ≥ 1.5× the PR-5/PR-7 means);
//! this bench localizes where that speedup comes from.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rand_distr::math::Tier;
use rand_distr::{column, math, Distribution, Normal};

const LEN: usize = 4096;

fn words(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..LEN).map(|_| rng.next_u64()).collect()
}

/// Sampler-domain inputs: `u1` clamped away from zero (ln), `σ·z`-sized
/// exponents (exp), Box–Muller angles (sincos).
fn unit_inputs() -> Vec<f64> {
    words(7)
        .into_iter()
        .map(|w| rand::unit_f64_from_word(w).max(f64::MIN_POSITIVE))
        .collect()
}

fn transcendental(c: &mut Criterion) {
    let units = unit_inputs();
    let exponents: Vec<f64> = units.iter().map(|u| 0.25 * (u - 0.5)).collect();
    let angles: Vec<f64> = units.iter().map(|u| core::f64::consts::TAU * u).collect();

    let mut group = c.benchmark_group("transcendental/scalar");
    group.bench_function("ln/kernel", |b| {
        b.iter(|| units.iter().map(|&u| math::ln(u)).sum::<f64>())
    });
    group.bench_function("ln/std", |b| {
        b.iter(|| units.iter().map(|&u| u.ln()).sum::<f64>())
    });
    group.bench_function("exp/kernel", |b| {
        b.iter(|| exponents.iter().map(|&x| math::exp(x)).sum::<f64>())
    });
    group.bench_function("exp/std", |b| {
        b.iter(|| exponents.iter().map(|&x| x.exp()).sum::<f64>())
    });
    group.bench_function("sincos/kernel", |b| {
        b.iter(|| {
            angles
                .iter()
                .map(|&t| {
                    let (s, c) = math::sincos(t);
                    s + c
                })
                .sum::<f64>()
        })
    });
    group.bench_function("sincos/std", |b| {
        b.iter(|| angles.iter().map(|&t| t.sin() + t.cos()).sum::<f64>())
    });
    group.finish();

    let normal = Normal::new(0.0, 0.05).unwrap();
    let wa = words(11);
    let wb = words(12);
    let mut out = vec![0.0; LEN];
    let mut out_sin = vec![0.0; LEN];

    let mut group = c.benchmark_group("transcendental/column");
    group.bench_function("lognormal/dispatched", |b| {
        b.iter(|| {
            column::fill_lognormal(&normal, &wa, &wb, &mut out);
            black_box(out[LEN - 1])
        })
    });
    group.bench_function("lognormal/portable", |b| {
        b.iter(|| {
            column::fill_lognormal_at(Tier::Portable, &normal, &wa, &wb, &mut out);
            black_box(out[LEN - 1])
        })
    });
    group.bench_function("lognormal/per_sample_std", |b| {
        // The pre-PR-8 scheme: a stateless sample per element (sine half
        // discarded) through the libm.
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            for slot in &mut out {
                *slot = normal.sample(&mut rng).exp();
            }
            black_box(out[LEN - 1])
        })
    });
    group.finish();

    let mut group = c.benchmark_group("transcendental/pipeline");
    group.bench_function("noise_pair/dispatched", |b| {
        b.iter(|| {
            column::fill_lognormal_pair(&normal, &wa, &wb, &mut out, &mut out_sin);
            black_box(out[LEN - 1] + out_sin[LEN - 1])
        })
    });
    group.bench_function("noise_pair/portable", |b| {
        b.iter(|| {
            column::fill_lognormal_pair_at(
                Tier::Portable,
                &normal,
                &wa,
                &wb,
                &mut out,
                &mut out_sin,
            );
            black_box(out[LEN - 1] + out_sin[LEN - 1])
        })
    });
    group.finish();
}

criterion_group!(benches, transcendental);
criterion_main!(benches);
