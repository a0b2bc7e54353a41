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
//! Each bank runs its seeding and stepping passes in one [`Tier`]: the
//! portable loops, 4-wide AVX2 passes (64-bit multiplies synthesised from
//! 32-bit partial products, rotates from shift pairs, a scalar tail), or
//! 8-wide AVX-512 passes (`avx512f` + `avx512dq`: native `vpmullq`
//! multiplies and `vprolq` rotates, masked loads and stores for the last
//! `width % 8` lanes). Wrapping 64-bit integer arithmetic is exact on
//! every tier, so all three give the same words by construction; tests pin
//! each tier the host runs against the portable pass. [`LaneStreams::new`]
//! takes [`Tier::dispatched`], the draw layer's one tier decision: the
//! widest tier the CPU supports, or the portable one when
//! `XR_FORCE_PORTABLE` is set.

use rand_distr::math::Tier;

/// Golden-ratio increment of the SplitMix64 state walk.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output, advancing `state` — bit-identical to the seeding
/// walk inside the `rand` shim's `StdRng::seed_from_u64`.
#[inline]
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
/// use xr_testbed::lanes::LaneStreams;
/// use xr_types::seed;
///
/// let stage_base = seed::mix(42, 3); // mix(session_seed, stage_id)
/// let mut lanes = LaneStreams::new();
/// lanes.reseed(&[stage_base], 1, 8); // lanes own frames 1..=8
/// let mut column = [0u64; 8];
/// lanes.fill_next(&mut column); // draw #0 of frames 1..=8
/// lanes.fill_next(&mut column); // draw #1 of frames 1..=8
///
/// // The same draws as one two-column block.
/// let mut block = [0u64; 2 * 8];
/// lanes.reseed(&[stage_base], 1, 8);
/// lanes.fill_next(&mut block);
/// assert_eq!(block[8..], column); // draw #1 is the second column
/// ```
#[derive(Debug, Clone)]
pub struct LaneStreams {
    tier: Tier,
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
}

impl Default for LaneStreams {
    fn default() -> Self {
        Self::new()
    }
}

impl LaneStreams {
    /// An empty bank on the [dispatched](Tier::dispatched) tier; call
    /// [`reseed`](LaneStreams::reseed) before drawing.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tier(Tier::dispatched())
    }

    /// An empty bank whose passes run on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU cannot run `tier`.
    #[must_use]
    pub fn with_tier(tier: Tier) -> Self {
        assert!(tier.supported(), "this host cannot run the {tier:?} tier");
        Self {
            tier,
            s0: Vec::new(),
            s1: Vec::new(),
            s2: Vec::new(),
            s3: Vec::new(),
        }
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
    pub fn reseed(&mut self, seed_bases: &[u64], first_frame: u64, per_segment: usize) {
        // Length adjustments only when the batch shape changes (once per
        // session plus the tail batch): the seeding pass below overwrites
        // every lane, so re-zeroing the state columns each reseed would be
        // pure memory traffic.
        let width = seed_bases.len() * per_segment;
        if self.s0.len() != width {
            self.s0.resize(width, 0);
            self.s1.resize(width, 0);
            self.s2.resize(width, 0);
            self.s3.resize(width, 0);
        }
        for (r, &base) in seed_bases.iter().enumerate() {
            let lanes = r * per_segment..(r + 1) * per_segment;
            let (s0, s1) = (&mut self.s0[lanes.clone()], &mut self.s1[lanes.clone()]);
            let (s2, s3) = (&mut self.s2[lanes.clone()], &mut self.s3[lanes]);
            match self.tier {
                #[cfg(target_arch = "x86_64")]
                #[allow(unsafe_code)]
                // SAFETY: `with_tier` confirmed the CPU runs the bank's
                // tier, and the four slices cover the same lane range.
                Tier::Avx512 => unsafe { avx512::reseed(base, first_frame, s0, s1, s2, s3) },
                #[cfg(target_arch = "x86_64")]
                #[allow(unsafe_code)]
                // SAFETY: `with_tier` confirmed the CPU runs the bank's tier.
                Tier::Avx2 => unsafe { avx2::reseed(base, first_frame, s0, s1, s2, s3) },
                _ => reseed_portable(base, first_frame, s0, s1, s2, s3),
            }
        }
    }

    /// Advances every lane `depth = out.len() / width` xoshiro256++ steps,
    /// writing draw `d` of lane `j` to `out[d * width + j]`: one column of
    /// draws (in frame order) per step, `depth` columns per call. A
    /// one-column `out` is the plain single step. Every tier loads each
    /// lane's state once per call, steps it `depth` times and stores it
    /// once, so a block costs one state round trip instead of `depth`; the
    /// state it leaves behind is the state `depth` one-column calls would
    /// leave, so later draws do not depend on how earlier ones were
    /// grouped.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a whole number of columns of the
    /// seeded lane count (an empty `out` is zero columns).
    pub fn fill_next(&mut self, out: &mut [u64]) {
        let width = self.s0.len();
        assert!(
            out.len().is_multiple_of(width),
            "output column width must match the seeded lane count ({} words on {width} lanes)",
            out.len()
        );
        let (s0, s1, s2, s3) = (&mut self.s0, &mut self.s1, &mut self.s2, &mut self.s3);
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `with_tier` confirmed the CPU runs the bank's tier;
            // the state columns share one length, and `out` holds a whole
            // number of columns of it (asserted above).
            Tier::Avx512 => unsafe { avx512::fill_next(s0, s1, s2, s3, out) },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `with_tier` confirmed the CPU runs the bank's tier.
            Tier::Avx2 => unsafe { avx2::fill_next(s0, s1, s2, s3, out) },
            _ => fill_next_portable(s0, s1, s2, s3, out),
        }
    }
}

/// One xoshiro256++ step of one lane's state `[s0, s1, s2, s3]`, identical
/// to the shim's `next_u64`.
#[inline]
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

/// Steps lane `j` of a `width`-lane bank through every column of the block
/// `out` (draw `d` at `out[d * width + j]`), its state held in locals. The
/// portable pass runs every lane through here; the AVX2 pass its tail
/// lanes.
#[inline]
fn fill_lane(state: [&mut u64; 4], out: &mut [u64], j: usize, width: usize) {
    let [s0, s1, s2, s3] = state;
    let mut s = [*s0, *s1, *s2, *s3];
    for word in out[j..].iter_mut().step_by(width) {
        *word = step(&mut s);
    }
    [*s0, *s1, *s2, *s3] = s;
}

/// The portable stepping loop behind [`LaneStreams::fill_next`], lane by
/// lane; also the reference the SIMD tiers are pinned against.
fn fill_next_portable(
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
    out: &mut [u64],
) {
    let width = s0.len();
    let lanes = s0
        .iter_mut()
        .zip(s1.iter_mut())
        .zip(s2.iter_mut().zip(s3.iter_mut()));
    for (j, ((s0, s1), (s2, s3))) in lanes.enumerate() {
        fill_lane([s0, s1, s2, s3], out, j, width);
    }
}

/// The portable seeding loop over one contiguous slice of each state
/// column: lane `j` of the slices becomes the generator of frame
/// `first_frame + j` under `stage_seed_base`; also the reference the SIMD
/// tiers are pinned against.
fn reseed_portable(
    stage_seed_base: u64,
    first_frame: u64,
    s0: &mut [u64],
    s1: &mut [u64],
    s2: &mut [u64],
    s3: &mut [u64],
) {
    let iter = s0
        .iter_mut()
        .zip(s1.iter_mut())
        .zip(s2.iter_mut().zip(s3.iter_mut()))
        .enumerate();
    for (j, ((s0, s1), (s2, s3))) in iter {
        // `mix(stage_seed_base, frame)` followed by the shim's 4-word
        // SplitMix64 expansion, inlined so the whole derivation is one
        // branch-free pass over the lane columns.
        let mut state = xr_types::seed::mix(stage_seed_base, first_frame + j as u64);
        *s0 = splitmix64(&mut state);
        *s1 = splitmix64(&mut state);
        *s2 = splitmix64(&mut state);
        *s3 = splitmix64(&mut state);
    }
}

/// Four-lane AVX2 passes over the lane columns. Wrapping 64-bit integer
/// arithmetic is exact on every path, so these are bit-identical to the
/// portable loops by construction (and pinned by tests); the only reason
/// they exist is that 64-bit multiply/rotate chains do not autovectorize
/// profitably at baseline x86-64 codegen. Isolated in one module so the
/// `unsafe` SIMD surface stays small; the workspace otherwise denies
/// `unsafe_code`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Full 64×64→64-bit low multiply by a broadcast constant, synthesised
    /// from 32×32→64 partial products exactly like scalar `wrapping_mul`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_const(a: __m256i, b: u64) -> __m256i {
        let b_lo = _mm256_set1_epi64x((b & 0xFFFF_FFFF) as i64);
        let b_hi = _mm256_set1_epi64x((b >> 32) as i64);
        let a_hi = _mm256_srli_epi64::<32>(a);
        // a_lo·b_lo + ((a_lo·b_hi + a_hi·b_lo) << 32); the high×high part
        // only affects bits ≥ 64 and drops out of wrapping arithmetic.
        let low = _mm256_mul_epu32(a, b_lo);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b_lo));
        _mm256_add_epi64(low, _mm256_slli_epi64::<32>(cross))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn xor_shr<const N: i32>(z: __m256i) -> __m256i {
        _mm256_xor_si256(z, _mm256_srli_epi64::<N>(z))
    }

    /// One SplitMix64 output for four lane states at once (the states are
    /// advanced in place), matching the scalar `splitmix64` word for word.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splitmix64x4(state: &mut __m256i) -> __m256i {
        *state = _mm256_add_epi64(*state, _mm256_set1_epi64x(super::SPLITMIX_GAMMA as i64));
        let mut z = *state;
        z = mul_const(xor_shr::<30>(z), 0xBF58_476D_1CE4_E5B9);
        z = mul_const(xor_shr::<27>(z), 0x94D0_49BB_1331_11EB);
        xor_shr::<31>(z)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const N: i32, const M: i32>(z: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<N>(z), _mm256_srli_epi64::<M>(z))
    }

    /// Four-lane [`super::LaneStreams::reseed`] body: `mix(stage_seed_base,
    /// first_frame + j)` then the 4-word SplitMix64 expansion, four lanes
    /// per iteration with a scalar tail.
    #[target_feature(enable = "avx2")]
    pub(super) fn reseed(
        stage_seed_base: u64,
        first_frame: u64,
        s0: &mut [u64],
        s1: &mut [u64],
        s2: &mut [u64],
        s3: &mut [u64],
    ) {
        let width = s0.len();
        let chunks = width / 4;
        for c in 0..chunks {
            let j = (c * 4) as u64;
            // `mix`: z = seed + GAMMA + lane·M, then two mul/xor-shift
            // rounds and a final xor-shift — the scalar expression per lane.
            let lanes = _mm256_set_epi64x(
                first_frame.wrapping_add(j + 3) as i64,
                first_frame.wrapping_add(j + 2) as i64,
                first_frame.wrapping_add(j + 1) as i64,
                first_frame.wrapping_add(j) as i64,
            );
            let mut z = _mm256_add_epi64(
                _mm256_set1_epi64x(stage_seed_base.wrapping_add(super::SPLITMIX_GAMMA) as i64),
                mul_const(lanes, 0xD1B5_4A32_D192_ED03),
            );
            z = mul_const(xor_shr::<30>(z), 0xBF58_476D_1CE4_E5B9);
            z = mul_const(xor_shr::<27>(z), 0x94D0_49BB_1331_11EB);
            let mut state = xor_shr::<31>(z);
            let w0 = splitmix64x4(&mut state);
            let w1 = splitmix64x4(&mut state);
            let w2 = splitmix64x4(&mut state);
            let w3 = splitmix64x4(&mut state);
            // SAFETY: `c * 4 + 4 <= width` and all four state slices share
            // that length, so each unaligned 32-byte store is in bounds.
            unsafe {
                _mm256_storeu_si256(s0.as_mut_ptr().add(c * 4).cast::<__m256i>(), w0);
                _mm256_storeu_si256(s1.as_mut_ptr().add(c * 4).cast::<__m256i>(), w1);
                _mm256_storeu_si256(s2.as_mut_ptr().add(c * 4).cast::<__m256i>(), w2);
                _mm256_storeu_si256(s3.as_mut_ptr().add(c * 4).cast::<__m256i>(), w3);
            }
        }
        for j in chunks * 4..width {
            let mut state = xr_types::seed::mix(stage_seed_base, first_frame + j as u64);
            s0[j] = super::splitmix64(&mut state);
            s1[j] = super::splitmix64(&mut state);
            s2[j] = super::splitmix64(&mut state);
            s3[j] = super::splitmix64(&mut state);
        }
    }

    /// Four-lane xoshiro256++ block ([`super::LaneStreams::fill_next`]
    /// body): each four-lane chunk's state is loaded once, stepped once per
    /// column of `out` with pure add/xor/shift vector ops, and stored once;
    /// the tail lanes run the portable lane loop.
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_next(
        s0: &mut [u64],
        s1: &mut [u64],
        s2: &mut [u64],
        s3: &mut [u64],
        out: &mut [u64],
    ) {
        let width = s0.len();
        let chunks = width / 4;
        for c in 0..chunks {
            // SAFETY: `c * 4 + 4 <= width == s*.len()`, and `out` holds a
            // whole number of `width`-word columns, so every unaligned
            // 32-byte load and store stays in bounds.
            unsafe {
                let p0 = s0.as_mut_ptr().add(c * 4).cast::<__m256i>();
                let p1 = s1.as_mut_ptr().add(c * 4).cast::<__m256i>();
                let p2 = s2.as_mut_ptr().add(c * 4).cast::<__m256i>();
                let p3 = s3.as_mut_ptr().add(c * 4).cast::<__m256i>();
                let mut v0 = _mm256_loadu_si256(p0);
                let mut v1 = _mm256_loadu_si256(p1);
                let mut v2 = _mm256_loadu_si256(p2);
                let mut v3 = _mm256_loadu_si256(p3);
                for column in (c * 4..out.len()).step_by(width) {
                    let result = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(v0, v3)), v0);
                    let t = _mm256_slli_epi64::<17>(v1);
                    v2 = _mm256_xor_si256(v2, v0);
                    v3 = _mm256_xor_si256(v3, v1);
                    v1 = _mm256_xor_si256(v1, v2);
                    v0 = _mm256_xor_si256(v0, v3);
                    v2 = _mm256_xor_si256(v2, t);
                    v3 = rotl::<45, 19>(v3);
                    _mm256_storeu_si256(out.as_mut_ptr().add(column).cast::<__m256i>(), result);
                }
                _mm256_storeu_si256(p0, v0);
                _mm256_storeu_si256(p1, v1);
                _mm256_storeu_si256(p2, v2);
                _mm256_storeu_si256(p3, v3);
            }
        }
        for j in chunks * 4..width {
            let state = [&mut s0[j], &mut s1[j], &mut s2[j], &mut s3[j]];
            super::fill_lane(state, out, j, width);
        }
    }
}

/// Eight-lane AVX-512 passes over the lane columns (`avx512f` +
/// `avx512dq`), under the same exactness argument as [`avx2`]. Two
/// emulated AVX2 steps become native instructions with the same bits:
/// `vpmullq` for the wrapping 64-bit multiplies and `vprolq` for the
/// rotates. The last `width % 8` lanes run under a masked load and store
/// instead of a scalar tail, so the fused engine's short segments stay on
/// the vector path; masked-off lanes compute on zeros and are never stored.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx512 {
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_add_epi64, _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64,
        _mm512_mullo_epi64, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
        _mm512_slli_epi64, _mm512_srli_epi64, _mm512_xor_si512,
    };

    /// The lanes of the 8-lane chunk at `i` that lie inside a column of
    /// `len` lanes: all eight, or the low `len - i`.
    #[inline]
    fn chunk_mask(len: usize, i: usize) -> __mmask8 {
        match len - i {
            rest @ 0..8 => (1u8 << rest) - 1,
            _ => u8::MAX,
        }
    }

    /// Wrapping 64-bit multiply by a broadcast constant: one `vpmullq`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mul_const(a: __m512i, b: u64) -> __m512i {
        _mm512_mullo_epi64(a, _mm512_set1_epi64(b as i64))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn xor_shr<const N: u32>(z: __m512i) -> __m512i {
        _mm512_xor_si512(z, _mm512_srli_epi64::<N>(z))
    }

    /// One SplitMix64 output for eight lane states at once (the states are
    /// advanced in place), matching the scalar `splitmix64` word for word.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splitmix64x8(state: &mut __m512i) -> __m512i {
        *state = _mm512_add_epi64(*state, _mm512_set1_epi64(super::SPLITMIX_GAMMA as i64));
        let mut z = *state;
        z = mul_const(xor_shr::<30>(z), 0xBF58_476D_1CE4_E5B9);
        z = mul_const(xor_shr::<27>(z), 0x94D0_49BB_1331_11EB);
        xor_shr::<31>(z)
    }

    /// Eight-lane seeding body behind [`super::LaneStreams::reseed`]:
    /// `mix(stage_seed_base, first_frame + j)` then the 4-word SplitMix64
    /// expansion, with a masked last chunk.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ, and the four state
    /// slices must have the same length.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn reseed(
        stage_seed_base: u64,
        first_frame: u64,
        s0: &mut [u64],
        s1: &mut [u64],
        s2: &mut [u64],
        s3: &mut [u64],
    ) {
        let width = s0.len();
        let offsets = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        for i in (0..width).step_by(8) {
            let mask = chunk_mask(width, i);
            // `mix`: z = seed + GAMMA + lane·M, then two mul/xor-shift
            // rounds and a final xor-shift — the scalar expression per lane.
            let frame = _mm512_set1_epi64(first_frame.wrapping_add(i as u64) as i64);
            let lanes = _mm512_add_epi64(frame, offsets);
            let mut z = _mm512_add_epi64(
                _mm512_set1_epi64(stage_seed_base.wrapping_add(super::SPLITMIX_GAMMA) as i64),
                mul_const(lanes, 0xD1B5_4A32_D192_ED03),
            );
            z = mul_const(xor_shr::<30>(z), 0xBF58_476D_1CE4_E5B9);
            z = mul_const(xor_shr::<27>(z), 0x94D0_49BB_1331_11EB);
            let mut state = xor_shr::<31>(z);
            let words = [
                splitmix64x8(&mut state),
                splitmix64x8(&mut state),
                splitmix64x8(&mut state),
                splitmix64x8(&mut state),
            ];
            for (column, word) in [&mut *s0, &mut *s1, &mut *s2, &mut *s3]
                .into_iter()
                .zip(words)
            {
                // SAFETY: the four state slices share `width`, and the mask
                // keeps every stored lane below it.
                unsafe {
                    _mm512_mask_storeu_epi64(column.as_mut_ptr().add(i).cast::<i64>(), mask, word);
                }
            }
        }
    }

    /// Eight-lane xoshiro256++ block ([`super::LaneStreams::fill_next`]
    /// body): each eight-lane chunk's state is loaded once, stepped once
    /// per column of `out`, and stored once, with a masked last chunk.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ, the four state slices
    /// must have the same length, and `out` must hold a whole number of
    /// columns of that length.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn fill_next(
        s0: &mut [u64],
        s1: &mut [u64],
        s2: &mut [u64],
        s3: &mut [u64],
        out: &mut [u64],
    ) {
        let width = s0.len();
        for i in (0..width).step_by(8) {
            let mask = chunk_mask(width, i);
            // SAFETY: the four state slices share `width`, `out` is a whole
            // number of `width`-word columns, and the mask keeps every
            // loaded and stored lane below `width` within its column.
            unsafe {
                let p0 = s0.as_mut_ptr().add(i).cast::<i64>();
                let p1 = s1.as_mut_ptr().add(i).cast::<i64>();
                let p2 = s2.as_mut_ptr().add(i).cast::<i64>();
                let p3 = s3.as_mut_ptr().add(i).cast::<i64>();
                let mut v0 = _mm512_maskz_loadu_epi64(mask, p0);
                let mut v1 = _mm512_maskz_loadu_epi64(mask, p1);
                let mut v2 = _mm512_maskz_loadu_epi64(mask, p2);
                let mut v3 = _mm512_maskz_loadu_epi64(mask, p3);
                for column in (i..out.len()).step_by(width) {
                    let result =
                        _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(v0, v3)), v0);
                    let t = _mm512_slli_epi64::<17>(v1);
                    v2 = _mm512_xor_si512(v2, v0);
                    v3 = _mm512_xor_si512(v3, v1);
                    v1 = _mm512_xor_si512(v1, v2);
                    v0 = _mm512_xor_si512(v0, v3);
                    v2 = _mm512_xor_si512(v2, t);
                    v3 = _mm512_rol_epi64::<45>(v3);
                    let dst = out.as_mut_ptr().add(column).cast::<i64>();
                    _mm512_mask_storeu_epi64(dst, mask, result);
                }
                _mm512_mask_storeu_epi64(p0, mask, v0);
                _mm512_mask_storeu_epi64(p1, mask, v1);
                _mm512_mask_storeu_epi64(p2, mask, v2);
                _mm512_mask_storeu_epi64(p3, mask, v3);
            }
        }
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
    fn new_banks_take_the_dispatched_tier() {
        assert!(Tier::dispatched().supported());
        assert!(Tier::Portable.supported());
        assert_eq!(LaneStreams::new().tier, Tier::dispatched());
        if std::env::var_os("XR_FORCE_PORTABLE").is_some_and(|v| v != *"0") {
            assert_eq!(Tier::dispatched(), Tier::Portable);
        }
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
                    let mut lanes = LaneStreams::with_tier(tier);
                    lanes.reseed(&seed_bases, 11, per_segment);
                    let mut column = vec![0u64; bases * per_segment];
                    for draw in 0..4 {
                        lanes.fill_next(&mut column);
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
            let mut lanes = LaneStreams::with_tier(tier);
            for (stage_base, first) in [
                (0u64, 0u64),
                (seed::mix(42, 3), 1),
                (u64::MAX, u64::MAX - 200),
            ] {
                for width in [1usize, 2, 3, 8, 64, 100] {
                    let expected = scalar_columns(stage_base, first, width, 6);
                    lanes.reseed(&[stage_base], first, width);
                    let mut column = vec![0u64; width];
                    for scalar_column in &expected {
                        lanes.fill_next(&mut column);
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
            lanes.reseed(&[stage_base], first, width);
            let mut column = vec![0u64; width];
            for (d, scalar_column) in reference.iter().enumerate() {
                lanes.fill_next(&mut column);
                assert_eq!(
                    column[lane], scalar_column[0],
                    "draw {d} of frame 7 depends on lane position ({first}, {width}, {lane})"
                );
            }
        }
    }

    #[test]
    fn reseed_reuses_storage_and_supports_narrowing() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(&[1], 0, 64);
        assert_eq!(lanes.s0.len(), 64);
        // Narrow to a tail batch: widths shrink without stale lanes.
        lanes.reseed(&[1], 64, 9);
        assert_eq!(lanes.s0.len(), 9);
        let expected = scalar_columns(1, 64, 9, 2);
        let mut column = vec![0u64; 9];
        lanes.fill_next(&mut column);
        assert_eq!(column, expected[0]);
        lanes.fill_next(&mut column);
        assert_eq!(column, expected[1]);
    }

    #[test]
    #[should_panic(expected = "output column width")]
    fn mismatched_column_width_is_rejected() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(&[3], 0, 4);
        let mut column = vec![0u64; 5];
        lanes.fill_next(&mut column);
    }

    #[test]
    #[should_panic(expected = "output column width")]
    fn a_block_of_partial_columns_is_rejected() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(&[3], 0, 4);
        let mut block = vec![0u64; 6];
        lanes.fill_next(&mut block);
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
                    let mut single = LaneStreams::with_tier(tier);
                    let mut blocked = LaneStreams::with_tier(tier);
                    single.reseed(&[base], 5, width);
                    blocked.reseed(&[base], 5, width);
                    let mut columns = vec![0u64; depth * width];
                    for column in columns.chunks_exact_mut(width) {
                        single.fill_next(column);
                    }
                    let mut block = vec![0u64; depth * width];
                    blocked.fill_next(&mut block);
                    let context = format!("{tier:?} depth {depth} width {width}");
                    assert_eq!(block, columns, "block diverged: {context}");
                    let mut after_single = vec![0u64; width];
                    let mut after_block = vec![0u64; width];
                    single.fill_next(&mut after_single);
                    blocked.fill_next(&mut after_block);
                    assert_eq!(after_block, after_single, "next draw diverged: {context}");
                }
            }
        }
    }

    #[test]
    fn zero_width_bank_is_a_no_op() {
        let mut lanes = LaneStreams::new();
        lanes.reseed(&[9], 3, 0);
        assert_eq!(lanes.s0.len(), 0);
        lanes.fill_next(&mut []);
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
                        let mut simd = LaneStreams::with_tier(tier);
                        let mut portable = LaneStreams::with_tier(Tier::Portable);
                        simd.reseed(seed_bases, first, width);
                        portable.reseed(seed_bases, first, width);
                        let context = format!("{tier:?} {}x{width} at {first}", seed_bases.len());
                        assert_eq!(simd.s0, portable.s0, "seeded s0 diverged: {context}");
                        assert_eq!(simd.s1, portable.s1, "seeded s1 diverged: {context}");
                        assert_eq!(simd.s2, portable.s2, "seeded s2 diverged: {context}");
                        assert_eq!(simd.s3, portable.s3, "seeded s3 diverged: {context}");
                        let lanes = width * seed_bases.len();
                        let mut simd_col = vec![0u64; lanes];
                        let mut portable_col = vec![0u64; lanes];
                        for draw in 0..5 {
                            simd.fill_next(&mut simd_col);
                            portable.fill_next(&mut portable_col);
                            assert_eq!(simd_col, portable_col, "draw {draw} diverged: {context}");
                        }
                    }
                }
            }
        }
    }
}
