//! Lane-oriented wide RNG streams for the batched frame engine.
//!
//! The per-stage stream discipline of [`xr_types::seed`] makes every frame's
//! draws a pure function of `(session_seed, stage_id, frame_index)`: frame
//! `f`'s stage-`s` stream is a xoshiro256++ generator seeded (through the
//! SplitMix64 expansion the workspace `rand` shim uses for
//! `StdRng::seed_from_u64`) from `mix(mix(session_seed, s), f)`. A batched
//! engine therefore never needs draws to cross frames — which is exactly
//! what makes a *wide* generator trivial to pin down: run one generator
//! **lane** per frame, side by side in structure-of-arrays layout, and emit
//! draws column-by-column (draw #d of every frame at once) instead of
//! frame-by-frame.
//!
//! [`LaneStreams`] is that wide generator. Lane `j` of a
//! [`reseed`](LaneStreams::reseed) at `(&[stage_seed_base], first_frame, n)`
//! owns frame `first_frame + j` and replays *that frame's own stream*,
//! word for word — so the output is **lane-count invariant by
//! construction**: widening or narrowing the batch only changes how many
//! frames are produced per call, never which words a given frame sees. This
//! is the same invariant per-stage streams pinned for batching, pushed one
//! level down to the raw `u64` draws (and it is what any future
//! within-session parallelism will rely on, too).
//!
//! A stage that needs several words per frame draws them as one *block*:
//! [`fill_next`](LaneStreams::fill_next) over `depth × width` words steps
//! each lane `depth` times with its state in registers, writing draw `d` of
//! lane `j` at `out[d * width + j]` — the same words, and the same state
//! afterwards, as `depth` one-column calls.
//!
//! The SplitMix64 seeding chain and the xoshiro256++ step are deliberately
//! *duplicated* from the `rand` shim rather than imported: the shim exposes
//! neither its state nor a multi-lane API, and the duplication lets the
//! seeding and stepping loops run as contiguous passes over the lane
//! columns. Bit-identity with `StdRng::seed_from_u64` is pinned by the unit
//! tests below and by the batched-engine equivalence suite.
//!
//! # SIMD tiers
//!
//! The seeding and stepping passes are plain loops over the lane columns,
//! compiled once per tier through [`Tier::run`] — the baseline build, an
//! AVX2 build and an AVX-512 build (`avx512f` + `avx512dq`, whose native
//! 64-bit multiplies and rotates the vectorizer uses) — and each call
//! takes the [`Tier`] it runs on. The batched engine passes the tier its
//! driver call read once from [`Tier::dispatched`]. Wrapping 64-bit
//! integer arithmetic is exact in every build, so all three give the same
//! words by construction; tests pin each tier the host runs against the
//! portable one.

use rand_distr::math::{self, Tier};

/// Golden-ratio increment of the SplitMix64 state walk.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output, advancing `state` — bit-identical to the seeding
/// walk inside the `rand` shim's `StdRng::seed_from_u64`.
#[inline(always)]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bank of xoshiro256++ generators in structure-of-arrays layout: lane
/// `j` replays the stream of frame `first_frame + j`, and
/// [`fill_next`](LaneStreams::fill_next) advances every lane one draw per
/// *column* of raw `u64` words it writes: one column per call, or a block
/// of `depth` columns (draw `d` of lane `j` at `out[d * width + j]`) that
/// each lane steps through with its state held in registers.
///
/// ```
/// use rand_distr::math::Tier;
/// use xr_testbed::lanes::LaneStreams;
/// use xr_types::seed;
///
/// let tier = Tier::Portable; // every tier draws the same words
/// let stage_base = seed::mix(42, 3); // mix(session_seed, stage_id)
/// let mut lanes = LaneStreams::new();
/// lanes.reseed(tier, &[stage_base], 1, 8); // lanes own frames 1..=8
/// let mut column = [0u64; 8];
/// lanes.fill_next(tier, &mut column); // draw #0 of frames 1..=8
/// lanes.fill_next(tier, &mut column); // draw #1 of frames 1..=8
///
/// // The same draws as one two-column block.
/// let mut block = [0u64; 2 * 8];
/// lanes.reseed(tier, &[stage_base], 1, 8);
/// lanes.fill_next(tier, &mut block);
/// assert_eq!(block[8..], column); // draw #1 is the second column
/// ```
#[derive(Debug, Clone, Default)]
pub struct LaneStreams {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
    /// Seeding scratch: each lane's SplitMix64 seed, `mix(stage base,
    /// frame)`, written segment by segment so that one expansion pass
    /// covers every segment.
    keys: Vec<u64>,
}

impl LaneStreams {
    /// An empty bank; call [`reseed`](LaneStreams::reseed) before drawing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-seeds the bank as `seed_bases.len()` contiguous **segments** of
    /// `per_segment` lanes each: lane `r * per_segment + j` becomes the
    /// generator `StdRng::seed_from_u64(mix(seed_bases[r], first_frame +
    /// j))` of frame `first_frame + j` under stage base `seed_bases[r]`.
    /// Each segment replays its own base's per-frame streams word for word,
    /// whatever the other segments hold — this is what lets the batched
    /// engine stack several sessions' lanes side by side; a single session
    /// passes one base. Lane storage is reused across calls, so re-seeding
    /// in a batch loop allocates only on the first (or a widening) call.
    /// Each lane's key `mix(base, frame)` is computed segment by segment;
    /// one pass over the whole bank then expands every key into its
    /// state. Both run on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU cannot run `tier`.
    pub fn reseed(&mut self, tier: Tier, seed_bases: &[u64], first_frame: u64, per_segment: usize) {
        // Length adjustments only when the batch shape changes (once per
        // session plus the tail batch): the passes below overwrite every
        // lane, so re-zeroing the columns each reseed would be pure memory
        // traffic.
        let width = seed_bases.len() * per_segment;
        if self.s0.len() != width {
            for column in [
                &mut self.s0,
                &mut self.s1,
                &mut self.s2,
                &mut self.s3,
                &mut self.keys,
            ] {
                column.resize(width, 0);
            }
        }
        let Self {
            s0,
            s1,
            s2,
            s3,
            keys,
        } = self;
        tier.run(
            #[inline(always)]
            || {
                // `max(1)` keeps the chunking defined for an empty bank.
                for (keys, &base) in keys.chunks_exact_mut(per_segment.max(1)).zip(seed_bases) {
                    for (j, key) in keys.iter_mut().enumerate() {
                        *key = xr_types::seed::mix(base, first_frame.wrapping_add(j as u64));
                    }
                }
                // Each lane's state depends on its own key alone.
                math::elementwise(
                    width,
                    #[inline(always)]
                    |at| {
                        let (s0, s1) = (&mut s0[at.clone()], &mut s1[at.clone()]);
                        let (s2, s3) = (&mut s2[at.clone()], &mut s3[at.clone()]);
                        reseed_pass(&keys[at], s0, s1, s2, s3);
                    },
                );
            },
        );
    }

    /// Advances every lane `depth = out.len() / width` xoshiro256++ steps,
    /// writing draw `d` of lane `j` to `out[d * width + j]`: one column of
    /// draws (in frame order) per step, `depth` columns per call. A
    /// one-column `out` is the plain single step. Each lane's state makes
    /// one round trip to memory per two columns, so a word-pair block costs
    /// one instead of two; the state it leaves behind is the state `depth`
    /// one-column calls would leave, so later draws do not depend on how
    /// earlier ones were grouped. The stepping pass runs on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a whole number of columns of the
    /// seeded lane count (an empty `out` is zero columns), or if the
    /// host's CPU cannot run `tier`.
    pub fn fill_next(&mut self, tier: Tier, out: &mut [u64]) {
        let width = self.s0.len();
        assert!(
            out.len().is_multiple_of(width),
            "output column width must match the seeded lane count ({} words on {width} lanes)",
            out.len()
        );
        let (s0, s1, s2, s3) = (&mut self.s0, &mut self.s1, &mut self.s2, &mut self.s3);
        tier.run(
            #[inline(always)]
            || fill_next_pass(s0, s1, s2, s3, out),
        );
    }
}

/// One xoshiro256++ step of one lane's state `[s0, s1, s2, s3]`, identical
/// to the shim's `next_u64`.
#[inline(always)]
fn step(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// The stepping pass behind [`LaneStreams::fill_next`], compiled once per
/// tier: each sweep over the lanes steps every lane through two columns of
/// `out`, and a last sweep through the odd column out.
#[inline(always)]
fn fill_next_pass(s0: &mut [u64], s1: &mut [u64], s2: &mut [u64], s3: &mut [u64], out: &mut [u64]) {
    // A zero-width bank has an empty `out`; `max(1)` keeps the chunking
    // defined for it.
    let width = s0.len().max(1);
    let mut pairs = out.chunks_exact_mut(2 * width);
    for pair in &mut pairs {
        let (first, second) = pair.split_at_mut(width);
        let words = first.iter_mut().zip(second);
        let state = s0.iter_mut().zip(&mut *s1).zip(s2.iter_mut().zip(&mut *s3));
        for ((first, second), ((s0, s1), (s2, s3))) in words.zip(state) {
            let mut s = [*s0, *s1, *s2, *s3];
            *first = step(&mut s);
            *second = step(&mut s);
            [*s0, *s1, *s2, *s3] = s;
        }
    }
    for column in pairs.into_remainder().chunks_exact_mut(width) {
        let state = s0.iter_mut().zip(&mut *s1).zip(s2.iter_mut().zip(&mut *s3));
        for (word, ((s0, s1), (s2, s3))) in column.iter_mut().zip(state) {
            let mut s = [*s0, *s1, *s2, *s3];
            *word = step(&mut s);
            [*s0, *s1, *s2, *s3] = s;
        }
    }
}

/// The expansion pass behind [`LaneStreams::reseed`], compiled once per
/// tier, over one contiguous slice of each column: lane `j` of the slices
/// becomes the generator `StdRng::seed_from_u64` builds from `keys[j]`.
#[inline(always)]
fn reseed_pass(keys: &[u64], s0: &mut [u64], s1: &mut [u64], s2: &mut [u64], s3: &mut [u64]) {
    let state = s0
        .iter_mut()
        .zip(s1.iter_mut())
        .zip(s2.iter_mut().zip(s3.iter_mut()));
    for (&key, ((s0, s1), (s2, s3))) in keys.iter().zip(state) {
        // The shim's 4-word SplitMix64 expansion, inlined so the whole
        // expansion is one branch-free pass over the lane columns.
        let mut state = key;
        *s0 = splitmix64(&mut state);
        *s1 = splitmix64(&mut state);
        *s2 = splitmix64(&mut state);
        *s3 = splitmix64(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use xr_types::seed;

    /// The scalar reference: draw `depth` words from each frame's own
    /// `StdRng`, exactly as the per-frame pipelines do.
    fn scalar_columns(stage_base: u64, first: u64, width: usize, depth: usize) -> Vec<Vec<u64>> {
        let mut columns = vec![vec![0u64; width]; depth];
        for j in 0..width {
            let mut rng = StdRng::seed_from_u64(seed::mix(stage_base, first + j as u64));
            for column in columns.iter_mut() {
                column[j] = rng.next_u64();
            }
        }
        columns
    }

    /// The SIMD tiers this host can run; each tier it cannot run is
    /// skipped with a note on stderr.
    fn simd_tiers() -> Vec<Tier> {
        Tier::ALL[1..]
            .iter()
            .copied()
            .filter(|&tier| {
                let runs = tier.supported();
                if !runs {
                    eprintln!("skipping the {tier:?} tier: this host cannot run it");
                }
                runs
            })
            .collect()
    }

    /// Every tier this host can run, the portable reference first.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        tiers.extend(simd_tiers());
        tiers
    }

    #[test]
    fn segments_replay_each_bases_own_streams() {
        // Each segment must be bit-identical to a standalone reseed of its
        // base — on every tier, over segment widths that hit both the
        // vector main loops and every tail length, and over several bases
        // per bank.
        for tier in tiers() {
            for per_segment in [1usize, 3, 5, 8, 20, 21] {
                for bases in [1usize, 2, 3, 5] {
                    let seed_bases: Vec<u64> = (0..bases)
                        .map(|r| seed::mix(2024, 1000 + r as u64))
                        .collect();
                    let mut lanes = LaneStreams::new();
                    lanes.reseed(tier, &seed_bases, 11, per_segment);
                    let mut column = vec![0u64; bases * per_segment];
                    for draw in 0..4 {
                        lanes.fill_next(tier, &mut column);
                        for (r, &base) in seed_bases.iter().enumerate() {
                            let reference = scalar_columns(base, 11, per_segment, draw + 1);
                            assert_eq!(
                                &column[r * per_segment..(r + 1) * per_segment],
                                &reference[draw][..],
                                "{tier:?} segment {r} draw {draw} diverged at {bases}x{per_segment}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_replay_each_frames_stdrng_stream_bit_for_bit() {
        for tier in tiers() {
            let mut lanes = LaneStreams::new();
            for (stage_base, first) in [
                (0u64, 0u64),
                (seed::mix(42, 3), 1),
                (u64::MAX, u64::MAX - 200),
            ] {
                for width in [1usize, 2, 3, 8, 64, 100] {
                    let expected = scalar_columns(stage_base, first, width, 6);
                    lanes.reseed(tier, &[stage_base], first, width);
                    let mut column = vec![0u64; width];
                    for scalar_column in &expected {
                        lanes.fill_next(tier, &mut column);
                        assert_eq!(&column, scalar_column, "{tier:?} width {width} diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn output_is_lane_count_invariant() {
        // Frame 7's words must be the same whether it is lane 0 of a
        // width-1 bank, lane 2 of a width-5 bank, or lane 7 of width 64.
        let stage_base = seed::mix(2024, 5);
        let reference = scalar_columns(stage_base, 7, 1, 4);
        for (first, width, lane) in [(7u64, 1usize, 0usize), (5, 5, 2), (0, 64, 7)] {
            let mut lanes = LaneStreams::new();
            lanes.reseed(Tier::Portable, &[stage_base], first, width);
            let mut column = vec![0u64; width];
            for (d, scalar_column) in reference.iter().enumerate() {
                lanes.fill_next(Tier::Portable, &mut column);
                assert_eq!(
                    column[lane], scalar_column[0],
                    "draw {d} of frame 7 depends on lane position ({first}, {width}, {lane})"
                );
            }
        }
    }

    #[test]
    fn reseed_reuses_storage_and_supports_narrowing() {
        let tier = Tier::Portable;
        let mut lanes = LaneStreams::new();
        lanes.reseed(tier, &[1], 0, 64);
        assert_eq!(lanes.s0.len(), 64);
        // Narrow to a tail batch: widths shrink without stale lanes.
        lanes.reseed(tier, &[1], 64, 9);
        assert_eq!(lanes.s0.len(), 9);
        let expected = scalar_columns(1, 64, 9, 2);
        let mut column = vec![0u64; 9];
        lanes.fill_next(tier, &mut column);
        assert_eq!(column, expected[0]);
        lanes.fill_next(tier, &mut column);
        assert_eq!(column, expected[1]);
    }

    #[test]
    #[should_panic(expected = "output column width")]
    fn mismatched_column_width_is_rejected() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(Tier::Portable, &[3], 0, 4);
        let mut column = vec![0u64; 5];
        lanes.fill_next(Tier::Portable, &mut column);
    }

    #[test]
    #[should_panic(expected = "output column width")]
    fn a_block_of_partial_columns_is_rejected() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(Tier::Portable, &[3], 0, 4);
        let mut block = vec![0u64; 6];
        lanes.fill_next(Tier::Portable, &mut block);
    }

    #[test]
    fn a_block_equals_single_column_fills() {
        // On every tier the host runs, one `depth × width` block must be
        // the `depth` columns that `depth` one-column fills draw, and
        // leave the same state behind: the next single fill still
        // matches. Widths cover one lane, every AVX2 scalar-tail length,
        // a full and a partial 8-lane chunk, and the engine's default
        // batch; depths cover the engine's word pairs and a whole sensor
        // block of 3 × 6 updates.
        for tier in tiers() {
            for width in [1usize, 3, 7, 8, 9, 63, 256] {
                for depth in [1usize, 2, 6, 18] {
                    let base = seed::mix(2024, depth as u64);
                    let mut single = LaneStreams::new();
                    let mut blocked = LaneStreams::new();
                    single.reseed(tier, &[base], 5, width);
                    blocked.reseed(tier, &[base], 5, width);
                    let mut columns = vec![0u64; depth * width];
                    for column in columns.chunks_exact_mut(width) {
                        single.fill_next(tier, column);
                    }
                    let mut block = vec![0u64; depth * width];
                    blocked.fill_next(tier, &mut block);
                    let context = format!("{tier:?} depth {depth} width {width}");
                    assert_eq!(block, columns, "block diverged: {context}");
                    let mut after_single = vec![0u64; width];
                    let mut after_block = vec![0u64; width];
                    single.fill_next(tier, &mut after_single);
                    blocked.fill_next(tier, &mut after_block);
                    assert_eq!(after_block, after_single, "next draw diverged: {context}");
                }
            }
        }
    }

    #[test]
    fn zero_width_bank_is_a_no_op() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(Tier::Portable, &[9], 3, 0);
        assert_eq!(lanes.s0.len(), 0);
        lanes.fill_next(Tier::Portable, &mut []);
    }

    #[test]
    fn simd_and_portable_passes_are_bit_identical() {
        // Each SIMD tier the host runs, pinned against the portable bank
        // over widths covering every masked-tail length of the 8-lane
        // tier, the fused engine's 20-lane segments and 60-lane batches,
        // and wide banks; over extreme stage bases and frame indices, and
        // over single- and multi-segment seeding.
        let widths = [
            0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
        ];
        let widths = widths.into_iter().chain([20, 60, 63, 64, 257]);
        let cases = [(2024u64, 11u64), (0, 0), (u64::MAX, u64::MAX - 300)];
        for tier in simd_tiers() {
            for width in widths.clone() {
                for (base, first) in cases {
                    let bases = [base, seed::mix(base, 1), seed::mix(base, 2)];
                    for seed_bases in [&bases[..1], &bases[..]] {
                        let mut simd = LaneStreams::new();
                        let mut portable = LaneStreams::new();
                        simd.reseed(tier, seed_bases, first, width);
                        portable.reseed(Tier::Portable, seed_bases, first, width);
                        let context = format!("{tier:?} {}x{width} at {first}", seed_bases.len());
                        assert_eq!(simd.s0, portable.s0, "seeded s0 diverged: {context}");
                        assert_eq!(simd.s1, portable.s1, "seeded s1 diverged: {context}");
                        assert_eq!(simd.s2, portable.s2, "seeded s2 diverged: {context}");
                        assert_eq!(simd.s3, portable.s3, "seeded s3 diverged: {context}");
                        let lanes = width * seed_bases.len();
                        let mut simd_col = vec![0u64; lanes];
                        let mut portable_col = vec![0u64; lanes];
                        for draw in 0..5 {
                            simd.fill_next(tier, &mut simd_col);
                            portable.fill_next(Tier::Portable, &mut portable_col);
                            assert_eq!(simd_col, portable_col, "draw {draw} diverged: {context}");
                        }
                    }
                }
            }
        }
    }
}
