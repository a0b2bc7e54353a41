//! The lane-oriented draw layer's contract: a wide-lane column fill is
//! **bit-identical** to the per-frame stage streams the scalar pipeline
//! draws from, for every lane count and frame offset — the invariant that
//! lets the batched engine pre-fill draw columns without changing a single
//! draw (`lane j owns frame base + j`, so output is lane-count invariant
//! by construction).
//!
//! The raw-word layer is pinned directly against `StdRng` here; the
//! engine-level consequence (batched sessions bit-identical to scalar,
//! including noiseless gating and tail batches) is pinned in
//! `tests/frame_batch_equivalence.rs` and the edge cases below.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::math::Tier;
use rand_distr::{column, Distribution, Exp, Normal};
use xr_testbed::lanes::LaneStreams;
use xr_types::seed;

/// The widths the batched engine actually uses (1 = scalar-shaped batches,
/// 64/100 = wide batches and non-power-of-two lane counts).
const WIDTHS: [usize; 6] = [1, 2, 3, 8, 64, 100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wide_lane_fills_match_per_frame_stage_streams(
        session_seed in 0u64..u64::MAX,
        stage in 0u64..11,
        first_frame in 0u64..1_000_000_000,
        depth in 1usize..8,
    ) {
        let stage_base = seed::mix(session_seed, stage);
        let tier = Tier::dispatched();
        let mut lanes = LaneStreams::new();
        for width in WIDTHS {
            lanes.reseed(tier, &[stage_base], first_frame, width);
            let mut column = vec![0u64; width];
            // Per-frame reference: each frame's own StdRng, seeded exactly
            // like TestbedSimulator::stage_rng.
            let mut frame_rngs: Vec<StdRng> = (0..width as u64)
                .map(|j| {
                    StdRng::seed_from_u64(seed::mix(stage_base, first_frame + j))
                })
                .collect();
            for d in 0..depth {
                lanes.fill_next(tier, &mut column);
                for (j, rng) in frame_rngs.iter_mut().enumerate() {
                    let expected = rng.next_u64();
                    prop_assert!(
                        column[j] == expected,
                        "draw {d} of lane {j} diverged at width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_transforms_match_scalar_samplers_over_lane_words(
        session_seed in 0u64..u64::MAX,
        first_frame in 0u64..1_000_000,
        sigma in 0.001f64..2.0,
        rate in 0.1f64..100.0,
        lo in -10.0f64..10.0,
        span in 0.001f64..20.0,
    ) {
        let hi = lo + span;
        // One lane bank, three transform draws per frame (normal consumes
        // two words, uniform and exponential one each) — against a scalar
        // walk of each frame's own stream in the same word order.
        let stage_base = seed::mix(session_seed, 5);
        let width = 37;
        let tier = Tier::dispatched();
        let mut lanes = LaneStreams::new();
        lanes.reseed(tier, &[stage_base], first_frame, width);
        let mut raw_a = vec![0u64; width];
        let mut raw_b = vec![0u64; width];
        let mut normals = vec![0.0; width];
        let mut uniforms = vec![0.0; width];
        let mut exps = vec![0.0; width];

        let normal = Normal::new(0.0, sigma).expect("valid sigma");
        let exp = Exp::new(rate).expect("valid rate");

        lanes.fill_next(tier, &mut raw_a);
        lanes.fill_next(tier, &mut raw_b);
        column::fill_normal(tier, &normal, &raw_a, &raw_b, &mut normals);
        lanes.fill_next(tier, &mut raw_a);
        column::fill_uniform_range(tier, lo, hi, &raw_a, &mut uniforms);
        lanes.fill_next(tier, &mut raw_a);
        column::fill_exp(tier, &exp, &raw_a, &mut exps);
        // The kept-pair transform: one word-pair column yields both noise
        // factors (cosine and sine halves).
        let mut fac_cos = vec![0.0; width];
        let mut fac_sin = vec![0.0; width];
        lanes.fill_next(tier, &mut raw_a);
        lanes.fill_next(tier, &mut raw_b);
        column::fill_lognormal_pair(tier, &normal, &raw_a, &raw_b, &mut fac_cos, &mut fac_sin);

        for j in 0..width {
            let mut rng = StdRng::seed_from_u64(seed::mix(stage_base, first_frame + j as u64));
            let scalar_normal = normal.sample(&mut rng);
            prop_assert!(normals[j] == scalar_normal, "normal lane {j}");
            let scalar_uniform: f64 = rng.gen_range(lo..hi);
            prop_assert!(uniforms[j] == scalar_uniform, "uniform lane {j}");
            let scalar_exp = exp.sample(&mut rng);
            prop_assert!(exps[j] == scalar_exp, "exp lane {j}");
            // The scalar pipeline's noise: exp(N(0, σ)) through the cached
            // pair sampler — two variates from one word pair.
            let mut pairs = rand_distr::StandardNormalPairs::new();
            let scalar_cos = rand_distr::math::exp(normal.from_standard(pairs.next(&mut rng)));
            let scalar_sin = rand_distr::math::exp(normal.from_standard(pairs.next(&mut rng)));
            prop_assert!(fac_cos[j] == scalar_cos, "pair cosine lane {j}");
            prop_assert!(fac_sin[j] == scalar_sin, "pair sine lane {j}");
        }
    }

    #[test]
    fn fill_normal_matches_normal_sample_on_every_tier(
        seed in 0u64..u64::MAX,
        len in 0usize..300,
        mean in -3.0f64..3.0,
        sigma in 0.0f64..2.0,
    ) {
        // One stream of word pairs: column i holds the pair the i-th
        // `Normal::sample` on the same stream consumes.
        let normal = Normal::new(mean, sigma).expect("valid sigma");
        let mut rng = StdRng::seed_from_u64(seed);
        let (raw_a, raw_b): (Vec<u64>, Vec<u64>) =
            (0..len).map(|_| (rng.next_u64(), rng.next_u64())).unzip();
        for tier in Tier::ALL.into_iter().filter(|tier| tier.supported()) {
            let mut out = vec![f64::NAN; len];
            column::fill_normal(tier, &normal, &raw_a, &raw_b, &mut out);
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, value) in out.iter().enumerate() {
                let scalar = normal.sample(&mut rng);
                prop_assert!(
                    value.to_bits() == scalar.to_bits(),
                    "{tier:?} element {i}: column {value} != scalar {scalar}"
                );
            }
        }
    }
}

#[test]
fn sigma_zero_columns_are_exactly_the_mean() {
    // σ = 0 must collapse every column transform (and both engines' noise)
    // to the deterministic mean — no ulp drift from the kernels — on the
    // SIMD and portable passes alike.
    let normal = Normal::new(0.25, 0.0).expect("σ = 0 is a valid Normal");
    let words: Vec<u64> = (0..101u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let expected = rand_distr::math::exp(0.25);
    for tier in Tier::ALL.into_iter().filter(|tier| tier.supported()) {
        let mut out = vec![f64::NAN; 101];
        let mut out_sin = vec![f64::NAN; 101];
        column::fill_normal(tier, &normal, &words, &words, &mut out);
        assert!(
            out.iter().all(|&v| v == 0.25),
            "{tier:?}: fill_normal ignored σ = 0"
        );
        column::fill_lognormal_pair(tier, &normal, &words, &words, &mut out, &mut out_sin);
        assert!(out.iter().all(|&v| v == expected), "{tier:?}");
        assert!(out_sin.iter().all(|&v| v == expected), "{tier:?}");
    }
}

#[test]
fn tail_batches_shorter_than_the_lane_width_replay_the_same_streams() {
    // A session whose last batch is narrower than the engine width must
    // hand the tail frames the very same streams a full-width batch would.
    let stage_base = seed::mix(99, 2);
    let tier = Tier::dispatched();
    let mut wide = LaneStreams::new();
    wide.reseed(tier, &[stage_base], 1, 100);
    let mut wide_col = vec![0u64; 100];
    wide.fill_next(tier, &mut wide_col);

    let mut tail = LaneStreams::new();
    tail.reseed(tier, &[stage_base], 65, 36); // frames 65..=100: the tail of width-64 batching
    let mut tail_col = vec![0u64; 36];
    tail.fill_next(tier, &mut tail_col);
    assert_eq!(&wide_col[64..], &tail_col[..], "tail lanes diverged");
}

#[test]
fn noiseless_sessions_draw_nothing_from_gated_noise_columns() {
    // sigma = 0 gates the measurement-noise draw entirely (the scalar
    // pipeline multiplies by a constant 1.0 without touching the RNG); the
    // batched engine must do the same, so the noiseless engines stay
    // bit-identical — including across a tail batch shorter than the lane
    // width.
    let scenario = xr_core::Scenario::builder()
        .frame_side(480.0)
        .execution(xr_types::ExecutionTarget::Split { client_share: 0.4 })
        .build()
        .unwrap();
    let testbed = xr_testbed::TestbedSimulator::new(31).with_noise(0.0);
    let scalar = testbed.simulate_session_scalar(&scenario, 70).unwrap();
    for width in [1, 64, 256] {
        let batched = testbed
            .clone()
            .with_engine(xr_testbed::SimulationEngine::Batched { width })
            .simulate_session(&scenario, 70)
            .unwrap();
        assert_eq!(
            batched, scalar,
            "noiseless engines diverged at width {width}"
        );
    }
}
