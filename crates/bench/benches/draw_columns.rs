//! The lane-oriented draw layer in isolation: wide-lane stream seeding and
//! column transforms (`rand_distr::column`) versus the per-frame scalar
//! path the pipelines used before (one `StdRng::seed_from_u64` + scalar
//! sampler call per frame).
//!
//! Both paths produce bit-identical draws — asserted here before any
//! timing, on every SIMD tier the host runs — so the measured ratio is
//! pure draw-layer overhead. The raw-word cases time `depth` one-column
//! `fill_next` calls against one `depth`-column block fill, after the
//! same gate pins the block to the single fills. Measured numbers are recorded in
//! `BENCH_draw_columns.json` at the repository root.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{column, math, Distribution, Normal};
use xr_testbed::lanes::LaneStreams;
use xr_types::seed;

/// Frames per measured pass — one campaign-sized stretch of a session.
const FRAMES: usize = 4096;
/// Lanes per bank — the engine's default batch width.
const WIDTH: usize = 256;
const STAGE_BASE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Columns per block fill in the raw-word cases.
const BLOCK_DEPTHS: [usize; 2] = [2, 6];

fn frame_rng(frame: usize) -> StdRng {
    StdRng::seed_from_u64(seed::mix(STAGE_BASE, frame as u64))
}

fn draw_columns(c: &mut Criterion) {
    let normal = Normal::new(0.0, 0.04).expect("valid sigma");

    // Bit-identity gate: on every tier this host runs, the lane path must
    // replay the per-frame streams word for word before its throughput
    // means anything. The timed passes below run the dispatched tier.
    println!(
        "draw_columns: dispatched tier: {:?}",
        math::Tier::dispatched()
    );
    for tier in math::Tier::ALL {
        if !tier.supported() {
            println!("draw_columns: skipping the {tier:?} tier: this host cannot run it");
            continue;
        }
        let mut lanes = LaneStreams::with_tier(tier);
        lanes.reseed(&[STAGE_BASE], 0, FRAMES);
        let mut raw_a = vec![0u64; FRAMES];
        let mut raw_b = vec![0u64; FRAMES];
        let mut normals = vec![0.0; FRAMES];
        let mut factors = vec![0.0; FRAMES];
        let mut uniforms = vec![0.0; FRAMES];
        lanes.fill_next(&mut raw_a);
        lanes.fill_next(&mut raw_b);
        column::fill_normal(&normal, &raw_a, &raw_b, &mut normals);
        column::fill_lognormal_at(tier, &normal, &raw_a, &raw_b, &mut factors);
        lanes.fill_next(&mut raw_a);
        column::fill_uniform_range_at(tier, -0.05, 0.05, &raw_a, &mut uniforms);
        for frame in 0..FRAMES {
            let mut rng = frame_rng(frame);
            let z = normal.sample(&mut rng);
            assert_eq!(normals[frame], z, "{tier:?} normal diverged");
            assert_eq!(factors[frame], math::exp(z), "{tier:?} lognormal diverged");
            assert_eq!(
                uniforms[frame],
                rng.gen_range(-0.05..0.05),
                "{tier:?} uniform diverged"
            );
        }
        // A block fill must draw the same columns, and leave the same
        // state, as one-column fills at every depth the block cases time.
        for depth in BLOCK_DEPTHS {
            let mut single = LaneStreams::with_tier(tier);
            let mut blocked = LaneStreams::with_tier(tier);
            single.reseed(&[STAGE_BASE], 0, WIDTH);
            blocked.reseed(&[STAGE_BASE], 0, WIDTH);
            let mut columns = vec![0u64; (depth + 1) * WIDTH];
            for column in columns.chunks_exact_mut(WIDTH) {
                single.fill_next(column);
            }
            let mut block = vec![0u64; (depth + 1) * WIDTH];
            blocked.fill_next(&mut block[..depth * WIDTH]);
            blocked.fill_next(&mut block[depth * WIDTH..]);
            assert_eq!(block, columns, "{tier:?} depth-{depth} block diverged");
        }
        println!("draw_columns: the {tier:?} tier replays the per-frame streams");
    }

    let mut group = c.benchmark_group("draw_columns");
    group.sample_size(50);

    // Stream seeding alone: one derived generator per frame, one raw word
    // drawn from each.
    group.bench_with_input(
        BenchmarkId::new("seed", "per_frame"),
        &FRAMES,
        |b, &frames| {
            b.iter(|| {
                let mut acc = 0u64;
                for frame in 0..frames {
                    acc ^= frame_rng(frame).next_u64();
                }
                black_box(acc)
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("seed", "lanes"), &FRAMES, |b, &frames| {
        let mut lanes = LaneStreams::new();
        let mut raw = vec![0u64; WIDTH];
        b.iter(|| {
            let mut acc = 0u64;
            for first in (0..frames).step_by(WIDTH) {
                lanes.reseed(&[STAGE_BASE], first as u64, WIDTH);
                lanes.fill_next(&mut raw);
                acc ^= raw[WIDTH - 1];
            }
            black_box(acc)
        })
    });

    // Raw words only: `depth` columns per batch as `depth` one-column
    // fills, or as one block fill that keeps each lane chunk's state in
    // registers (the engine's word pairs at depth 2, a sensor's updates at
    // depth 6).
    for depth in BLOCK_DEPTHS {
        group.bench_with_input(
            BenchmarkId::new(format!("raw_d{depth}"), "columns"),
            &FRAMES,
            |b, &frames| {
                let mut lanes = LaneStreams::new();
                let mut raw = vec![0u64; depth * WIDTH];
                b.iter(|| {
                    let mut acc = 0u64;
                    for first in (0..frames).step_by(WIDTH) {
                        lanes.reseed(&[STAGE_BASE], first as u64, WIDTH);
                        for column in raw.chunks_exact_mut(WIDTH) {
                            lanes.fill_next(column);
                        }
                        acc ^= raw[depth * WIDTH - 1];
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("raw_d{depth}"), "block"),
            &FRAMES,
            |b, &frames| {
                let mut lanes = LaneStreams::new();
                let mut raw = vec![0u64; depth * WIDTH];
                b.iter(|| {
                    let mut acc = 0u64;
                    for first in (0..frames).step_by(WIDTH) {
                        lanes.reseed(&[STAGE_BASE], first as u64, WIDTH);
                        lanes.fill_next(&mut raw);
                        acc ^= raw[depth * WIDTH - 1];
                    }
                    black_box(acc)
                })
            },
        );
    }

    // The generate-stage shape: two normal draws per frame stream (two
    // words + Box–Muller each).
    group.bench_with_input(
        BenchmarkId::new("normal", "per_frame"),
        &FRAMES,
        |b, &frames| {
            b.iter(|| {
                let mut acc = 0.0;
                for frame in 0..frames {
                    let mut rng = frame_rng(frame);
                    acc += normal.sample(&mut rng);
                    acc += normal.sample(&mut rng);
                }
                black_box(acc)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("normal", "lanes"),
        &FRAMES,
        |b, &frames| {
            let mut lanes = LaneStreams::new();
            let mut raw_a = vec![0u64; WIDTH];
            let mut raw_b = vec![0u64; WIDTH];
            let mut out = vec![0.0; WIDTH];
            b.iter(|| {
                let mut acc = 0.0;
                for first in (0..frames).step_by(WIDTH) {
                    lanes.reseed(&[STAGE_BASE], first as u64, WIDTH);
                    for _ in 0..2 {
                        lanes.fill_next(&mut raw_a);
                        lanes.fill_next(&mut raw_b);
                        column::fill_normal(&normal, &raw_a, &raw_b, &mut out);
                        acc += out[WIDTH - 1];
                    }
                }
                black_box(acc)
            })
        },
    );

    // The sense-stage shape: 18 uniform jitter draws per frame stream
    // (updates_per_frame × sensors in the default scenario; one word +
    // affine map each — the column path takes the widest SIMD tier the
    // host runs).
    group.bench_with_input(
        BenchmarkId::new("uniform", "per_frame"),
        &FRAMES,
        |b, &frames| {
            b.iter(|| {
                let mut acc = 0.0;
                for frame in 0..frames {
                    let mut rng = frame_rng(frame);
                    for _ in 0..18 {
                        acc += rng.gen_range(-0.05..0.05);
                    }
                }
                black_box(acc)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("uniform", "lanes"),
        &FRAMES,
        |b, &frames| {
            let mut lanes = LaneStreams::new();
            let mut raw = vec![0u64; WIDTH];
            let mut out = vec![0.0; WIDTH];
            b.iter(|| {
                let mut acc = 0.0;
                for first in (0..frames).step_by(WIDTH) {
                    lanes.reseed(&[STAGE_BASE], first as u64, WIDTH);
                    for _ in 0..18 {
                        lanes.fill_next(&mut raw);
                        column::fill_uniform_range(-0.05, 0.05, &raw, &mut out);
                        acc += out[WIDTH - 1];
                    }
                }
                black_box(acc)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, draw_columns);
criterion_main!(benches);
