//! Offline stand-in for the `rand_distr` 0.4 crate.
//!
//! Provides the [`Distribution`] trait plus the [`Exp`] and [`Normal`]
//! distributions used by the queueing and testbed simulators, built on the
//! vectorizable polynomial transcendentals in [`math`] rather than the
//! platform libm, so every draw is reproducible bit for bit across hosts,
//! engines, and SIMD paths.
//!
//! Exponential sampling uses inversion. Normal sampling uses Box–Muller
//! **with the second variate kept**: one raw word pair `(u1, u2)` yields
//! the full rotation `(r·cos, r·sin)` — see
//! [`standard_normal_pair_from_words`]. The stateless [`Normal::sample`]
//! returns the cosine variate (two words per draw, like the real crate's
//! API); the stateful [`StandardNormalPairs`] cache hands out both halves
//! in turn, so consumers that draw several normals from one stream consume
//! one word pair — and one `ln`/`sqrt`/`sincos` set — per **two**
//! variates. This is the PR-8 sanctioned re-key of the draw scheme: the
//! previous scheme discarded the sine variate and paid a fresh word pair
//! (and a fresh libm `ln`/`cos`) for every draw.

use rand::{FromRng, RngCore};

pub mod math;

/// Types that can produce samples of `T` from a random source.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error returned by [`Exp::new`] for non-positive rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpError;

impl core::fmt::Display for ExpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "rate (lambda) must be positive and finite")
    }
}

impl std::error::Error for ExpError {}

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Creates the distribution; `lambda` must be positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] if `lambda` is not a positive finite number.
    pub fn new(lambda: f64) -> Result<Self, ExpError> {
        if lambda > 0.0 && lambda.is_finite() {
            Ok(Exp { lambda })
        } else {
            Err(ExpError)
        }
    }
}

impl Distribution<f64> for Exp {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inversion: -ln(1 - U) / lambda, with U in [0, 1); `1 - U` is in
        // (0, 1], inside the ln kernel's domain.
        let u = f64::from_rng(rng);
        -math::ln(1.0 - u) / self.lambda
    }
}

/// Error returned by [`Normal::new`] for invalid standard deviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalError;

impl core::fmt::Display for NormalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "standard deviation must be non-negative and finite")
    }
}

impl std::error::Error for NormalError {}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates the distribution; `std_dev` must be non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns [`NormalError`] if `std_dev` is negative, NaN, or infinite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, NormalError> {
        if std_dev >= 0.0 && std_dev.is_finite() && mean.is_finite() {
            Ok(Normal { mean, std_dev })
        } else {
            Err(NormalError)
        }
    }

    /// Scales a standard variate into this distribution: `mean + σ·z`.
    ///
    /// This is the **single** affine expression every consumer of a cached
    /// pair must apply — the column transforms and the scalar samplers
    /// route through it, so a variate produced by any path has identical
    /// bits. The Monsoon monitor scales by a per-phase `σ/√k` and writes
    /// the same `1 + s·z` inline (scalar and AVX2), so it skips building a
    /// `Normal` per phase.
    #[must_use]
    pub fn from_standard(&self, z: f64) -> f64 {
        self.mean + self.std_dev * z
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // The cosine half of the Box–Muller rotation: identical to the
        // first draw of a fresh `StandardNormalPairs`, so a stage that
        // draws one normal per stream sees the same value either way.
        let (z, _) = standard_normal_pair(rng);
        self.from_standard(z)
    }
}

/// The full Box–Muller rotation from one raw word pair: `u1` (clamped away
/// from zero so `ln` stays finite) and `u2` map to `r = √(−2·ln u1)` and
/// angle `τ·u2`, returning `(r·cos, r·sin)` — two independent standard
/// normal variates for one `ln`/`sqrt`/`sincos` set.
#[must_use]
pub fn standard_normal_pair_from_words(a: u64, b: u64) -> (f64, f64) {
    let u1 = rand::unit_f64_from_word(a).max(f64::MIN_POSITIVE);
    let u2 = rand::unit_f64_from_word(b);
    let r = (-2.0 * math::ln(u1)).sqrt();
    let (sin, cos) = math::sincos(core::f64::consts::TAU * u2);
    (r * cos, r * sin)
}

/// Draws one word pair from `rng` and applies
/// [`standard_normal_pair_from_words`].
pub fn standard_normal_pair<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
    let a = rng.next_u64();
    let b = rng.next_u64();
    standard_normal_pair_from_words(a, b)
}

/// A stateful standard-normal source that keeps Box–Muller's second
/// variate: odd-numbered draws consume one word pair from the rng and
/// return the cosine half; even-numbered draws consume **nothing** and
/// return the cached sine half.
///
/// The cache is deliberately *not* tied to the rng's word position —
/// interleaved non-normal draws (uniform jitter, exponential sojourns) on
/// the same stream leave it intact. Scope one instance per
/// `(stage, frame)` stream so both frame engines agree on which draw is
/// which half.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNormalPairs {
    cached: Option<f64>,
}

impl StandardNormalPairs {
    /// A fresh cache (the first draw will consume a word pair).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The next standard variate: the cached sine half if one is pending,
    /// otherwise the cosine half of a freshly drawn pair.
    pub fn next<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> f64 {
        match self.cached.take() {
            Some(z) => z,
            None => {
                let (z1, z2) = standard_normal_pair(rng);
                self.cached = Some(z2);
                z1
            }
        }
    }
}

/// Column (lane-oriented) forms of the scalar samplers: each `fill_*` maps
/// columns of raw `u64` generator words to the **exact** `f64` draws the
/// matching scalar sampler would produce from those words, one element at a
/// time, in bounds-check-free passes over contiguous slices.
///
/// The batched frame engine pre-fills raw word columns with
/// `xr_testbed::lanes::LaneStreams` (lane `j` = frame `j`'s own stream) and
/// pushes them through these transforms, so the per-frame loops never touch
/// an RNG object. Bit-identity with the scalar samplers is load-bearing —
/// the batched engine must match the scalar reference bit for bit — and is
/// pinned by the tests below:
///
/// * every transcendental comes from the [`math`] kernels (never the
///   libm), and each SIMD-backed fill runs in one of three
///   [`Tier`](math::Tier)s — portable, 4-wide AVX2 or 8-wide AVX-512 —
///   chosen once per process by [`Tier::dispatched`](math::Tier::dispatched).
///   Every tier executes the same exact-arithmetic operation DAG per
///   element, so the SIMD tiers are bit-identical — not approximately
///   equal — to the portable one. The AVX-512 tier uses a native
///   instruction only where it gives the same bits (`vcvtuqq2pd` converts
///   `word >> 11`, which is exact below 2^53), and covers the last
///   `len % 8` elements with masked loads and stores instead of a scalar
///   tail. The `*_at` entry points run an explicit tier; tests pin each
///   tier the host supports against the portable pass, and CI re-runs the
///   dispatched gates under `XR_FORCE_PORTABLE=1`, which turns off every
///   SIMD tier;
/// * the normal-family transforms come in *pair* form
///   ([`fill_lognormal_pair`](column::fill_lognormal_pair), and the
///   unscaled [`fill_standard_normal_pair`](column::fill_standard_normal_pair))
///   writing both Box–Muller halves of each word pair, mirroring
///   [`StandardNormalPairs`]: a batched stage that consumes two variates
///   per frame fills both columns from **one** pair of raw-word columns.
pub mod column {
    use super::math::Tier;
    use super::{math, Exp, Normal};
    use rand::unit_f64_from_word;

    /// Writes `out[i] = ` the draw `normal.sample` would produce from the
    /// raw words `(raw_a[i], raw_b[i])` — the cosine Box–Muller half,
    /// bit-identical to [`Normal::sample`](super::Normal).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn fill_normal(normal: &Normal, raw_a: &[u64], raw_b: &[u64], out: &mut [f64]) {
        fill_normal_at(Tier::dispatched(), normal, raw_a, raw_b, out);
    }

    /// [`fill_normal`] on an explicit tier. It runs the tier's
    /// standard-normal pair pass ([`fill_standard_normal_pair_at`]) a block
    /// at a time, drops the sine halves and scales the cosine halves with
    /// [`Normal::from_standard`](super::Normal::from_standard).
    ///
    /// # Panics
    ///
    /// As [`fill_normal`], and if the host cannot run `tier`.
    pub fn fill_normal_at(
        tier: Tier,
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out: &mut [f64],
    ) {
        const BLOCK: usize = 64;
        assert_eq!(raw_a.len(), out.len(), "raw_a column length mismatch");
        assert_eq!(raw_b.len(), out.len(), "raw_b column length mismatch");
        let mut sin = [0.0; BLOCK];
        let blocks = raw_a.chunks(BLOCK).zip(raw_b.chunks(BLOCK));
        for ((raw_a, raw_b), out) in blocks.zip(out.chunks_mut(BLOCK)) {
            let sin = &mut sin[..out.len()];
            fill_standard_normal_pair_at(tier, raw_a, raw_b, out, sin);
            for z in out {
                *z = normal.from_standard(*z);
            }
        }
    }

    /// Writes `out[i] = ` the noise factor `exp(normal draw)` from the raw
    /// words `(raw_a[i], raw_b[i])` — the cosine half only, for stages
    /// that consume a single factor per frame. Bit-identical to the scalar
    /// sequence `math::exp(normal.from_standard(pairs.next(rng)))` on a
    /// fresh [`StandardNormalPairs`](super::StandardNormalPairs).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn fill_lognormal(normal: &Normal, raw_a: &[u64], raw_b: &[u64], out: &mut [f64]) {
        fill_lognormal_at(Tier::dispatched(), normal, raw_a, raw_b, out);
    }

    /// [`fill_lognormal`] on an explicit tier.
    ///
    /// # Panics
    ///
    /// As [`fill_lognormal`], and if the host cannot run `tier`.
    pub fn fill_lognormal_at(
        tier: Tier,
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out: &mut [f64],
    ) {
        assert_eq!(raw_a.len(), out.len(), "raw_a column length mismatch");
        assert_eq!(raw_b.len(), out.len(), "raw_b column length mismatch");
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx512 => unsafe { avx512::fill_lognormal(normal, raw_a, raw_b, out) },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx2 => unsafe { avx2::fill_lognormal_avx2(normal, raw_a, raw_b, out) },
            _ => fill_lognormal_portable(normal, raw_a, raw_b, out),
        }
    }

    /// The portable pass behind [`fill_lognormal`]; also the reference the
    /// SIMD tiers are pinned against and the AVX2 tier's tail.
    fn fill_lognormal_portable(normal: &Normal, raw_a: &[u64], raw_b: &[u64], out: &mut [f64]) {
        for ((out, &a), &b) in out.iter_mut().zip(raw_a).zip(raw_b) {
            let (z, _) = super::standard_normal_pair_from_words(a, b);
            *out = math::exp(normal.from_standard(z));
        }
    }

    /// Writes **both** Box–Muller noise factors of each raw word pair:
    /// `out_cos[i]` is the cosine-half factor (what the first scalar draw
    /// on the stream returns) and `out_sin[i]` the sine-half factor (the
    /// second, cached draw). One `ln`/`sqrt`/`sincos` set per element
    /// feeds two columns — the draw-scheme change that halves the
    /// transcendental budget of two-factor stages.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    pub fn fill_lognormal_pair(
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        fill_lognormal_pair_at(Tier::dispatched(), normal, raw_a, raw_b, out_cos, out_sin);
    }

    /// [`fill_lognormal_pair`] on an explicit tier.
    ///
    /// # Panics
    ///
    /// As [`fill_lognormal_pair`], and if the host cannot run `tier`.
    pub fn fill_lognormal_pair_at(
        tier: Tier,
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        assert_pair_lengths(raw_a, raw_b, out_cos, out_sin);
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx512 => unsafe {
                avx512::fill_lognormal_pair(normal, raw_a, raw_b, out_cos, out_sin);
            },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx2 => unsafe {
                avx2::fill_lognormal_pair_avx2(normal, raw_a, raw_b, out_cos, out_sin);
            },
            _ => fill_lognormal_pair_portable(normal, raw_a, raw_b, out_cos, out_sin),
        }
    }

    /// The portable pass behind [`fill_lognormal_pair`]; also the
    /// reference the SIMD tiers are pinned against.
    fn fill_lognormal_pair_portable(
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        for (i, (&a, &b)) in raw_a.iter().zip(raw_b).enumerate() {
            let (z1, z2) = super::standard_normal_pair_from_words(a, b);
            out_cos[i] = math::exp(normal.from_standard(z1));
            out_sin[i] = math::exp(normal.from_standard(z2));
        }
    }

    /// The length checks shared by the two-column fills.
    fn assert_pair_lengths(raw_a: &[u64], raw_b: &[u64], out_cos: &[f64], out_sin: &[f64]) {
        assert_eq!(raw_a.len(), out_cos.len(), "raw_a column length mismatch");
        assert_eq!(raw_b.len(), out_cos.len(), "raw_b column length mismatch");
        assert_eq!(
            out_sin.len(),
            out_cos.len(),
            "out_sin column length mismatch"
        );
    }

    /// Writes **both** standard-normal halves of each raw word pair:
    /// `out_cos[i]` and `out_sin[i]` are the two variates two consecutive
    /// [`StandardNormalPairs::next`](super::StandardNormalPairs::next)
    /// draws return on a stream holding the words `(raw_a[i], raw_b[i])`.
    /// For consumers that scale each variate by its own `σ` (the power
    /// monitor's per-phase aggregated noise), so no affine map or `exp` is
    /// folded in.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    pub fn fill_standard_normal_pair(
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        fill_standard_normal_pair_at(Tier::dispatched(), raw_a, raw_b, out_cos, out_sin);
    }

    /// [`fill_standard_normal_pair`] on an explicit tier.
    ///
    /// # Panics
    ///
    /// As [`fill_standard_normal_pair`], and if the host cannot run `tier`.
    pub fn fill_standard_normal_pair_at(
        tier: Tier,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        assert_pair_lengths(raw_a, raw_b, out_cos, out_sin);
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx512 => unsafe {
                avx512::fill_standard_normal_pair(raw_a, raw_b, out_cos, out_sin);
            },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx2 => unsafe {
                avx2::fill_standard_normal_pair_avx2(raw_a, raw_b, out_cos, out_sin);
            },
            _ => fill_standard_normal_pair_portable(raw_a, raw_b, out_cos, out_sin),
        }
    }

    /// The portable pass behind [`fill_standard_normal_pair`]; also the
    /// reference the SIMD tiers are pinned against.
    fn fill_standard_normal_pair_portable(
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        for (i, (&a, &b)) in raw_a.iter().zip(raw_b).enumerate() {
            (out_cos[i], out_sin[i]) = super::standard_normal_pair_from_words(a, b);
        }
    }

    /// Writes `out[i] = ` the draw `rng.gen_range(lo..hi)` would produce
    /// from the raw word `raw[i]` — `lo + u * (hi - lo)` over the unit
    /// uniform, bit-identical to the `rand` shim's `f64` range sampler.
    /// The transform is exact in IEEE-754 arithmetic, so every tier gives
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the range is empty.
    pub fn fill_uniform_range(lo: f64, hi: f64, raw: &[u64], out: &mut [f64]) {
        fill_uniform_range_at(Tier::dispatched(), lo, hi, raw, out);
    }

    /// [`fill_uniform_range`] on an explicit tier.
    ///
    /// # Panics
    ///
    /// As [`fill_uniform_range`], and if the host cannot run `tier`.
    pub fn fill_uniform_range_at(tier: Tier, lo: f64, hi: f64, raw: &[u64], out: &mut [f64]) {
        assert_eq!(raw.len(), out.len(), "raw column length mismatch");
        assert!(lo < hi, "cannot sample empty range");
        let span = hi - lo;
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx512 => unsafe { avx512::fill_uniform_range(lo, span, raw, out) },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx2 => unsafe { avx2::fill_uniform_range_avx2(lo, span, raw, out) },
            _ => fill_uniform_range_portable(lo, span, raw, out),
        }
    }

    /// The portable pass behind [`fill_uniform_range`]; also the reference
    /// the SIMD tiers are pinned against.
    fn fill_uniform_range_portable(lo: f64, span: f64, raw: &[u64], out: &mut [f64]) {
        for (out, &word) in out.iter_mut().zip(raw) {
            *out = lo + unit_f64_from_word(word) * span;
        }
    }

    /// Writes `out[i] = ` the draw `exp.sample` would produce from the raw
    /// word `raw[i]` — inversion over the unit uniform, bit-identical to
    /// [`Exp::sample`](super::Exp).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn fill_exp(exp: &Exp, raw: &[u64], out: &mut [f64]) {
        fill_exp_at(Tier::dispatched(), exp, raw, out);
    }

    /// [`fill_exp`] on an explicit tier.
    ///
    /// # Panics
    ///
    /// As [`fill_exp`], and if the host cannot run `tier`.
    pub fn fill_exp_at(tier: Tier, exp: &Exp, raw: &[u64], out: &mut [f64]) {
        assert_eq!(raw.len(), out.len(), "raw column length mismatch");
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx512 => unsafe { avx512::fill_exp(exp.lambda, raw, out) },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `checked` confirmed the CPU runs the tier, and the
            // slice lengths were asserted equal above.
            Tier::Avx2 => unsafe { avx2::fill_exp_avx2(exp.lambda, raw, out) },
            _ => fill_exp_portable(exp.lambda, raw, out),
        }
    }

    /// The portable pass behind [`fill_exp`]; also the reference the SIMD
    /// tiers are pinned against.
    fn fill_exp_portable(lambda: f64, raw: &[u64], out: &mut [f64]) {
        for (out, &word) in out.iter_mut().zip(raw) {
            let u = unit_f64_from_word(word);
            *out = -math::ln(1.0 - u) / lambda;
        }
    }

    /// The AVX2 lane passes. Isolated in their own module so the `unsafe`
    /// SIMD surface stays small; the workspace otherwise denies
    /// `unsafe_code`. Every vector kernel replays the exact op DAG of its
    /// scalar counterpart (see [`math`]'s bit-identity policy).
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[deny(unsafe_op_in_unsafe_fn)]
    mod avx2 {
        use super::math::avx2 as mathx;
        use super::Normal;
        use core::arch::x86_64::{
            __m256d, __m256i, _mm256_add_pd, _mm256_and_si256, _mm256_castsi256_pd, _mm256_div_pd,
            _mm256_loadu_si256, _mm256_max_pd, _mm256_mul_pd, _mm256_or_si256, _mm256_set1_epi64x,
            _mm256_set1_pd, _mm256_sqrt_pd, _mm256_srli_epi64, _mm256_storeu_pd, _mm256_sub_pd,
            _mm256_xor_pd,
        };

        /// `2^52` with the double-precision exponent bits set: OR-ing a
        /// 32-bit integer into the mantissa of this constant yields the
        /// double `2^52 + n` exactly.
        const EXP_LO: i64 = 0x4330_0000_0000_0000;
        /// The same trick one exponent step up: OR-ing the high 32-bit half
        /// into this constant's mantissa yields `2^84 + hi · 2^32` exactly
        /// (one mantissa ulp at exponent 84 is `2^32`).
        const EXP_HI: i64 = 0x4530_0000_0000_0000;
        /// `2^84 + 2^52`, subtracted once to cancel both offsets. Exactly
        /// representable: `2^52` is a multiple of the `2^32` ulp at `2^84`.
        const EXP_BIAS: f64 = ((1u128 << 84) + (1u128 << 52)) as f64;

        /// Converts four `u64` words (each `< 2^53` after the `>> 11`
        /// shift) to the exact doubles `(word >> 11) as f64`, using the
        /// split hi/lo exponent-bias trick. Every FP operation here is
        /// exact (no rounding occurs): the halves are multiples of `2^32`
        /// and `1` respectively and all intermediate sums stay below
        /// `2^53`, so the result equals the scalar `as f64` conversion bit
        /// for bit.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mantissa_to_f64(words: __m256i) -> __m256d {
            // Value-based AVX2 intrinsics are safe inside a target_feature
            // fn; only the caller's feature check is a safety obligation.
            let x = _mm256_srli_epi64::<11>(words);
            let lo = _mm256_or_si256(
                _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFF_FFFF)),
                _mm256_set1_epi64x(EXP_LO),
            );
            let hi = _mm256_or_si256(_mm256_srli_epi64::<32>(x), _mm256_set1_epi64x(EXP_HI));
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(EXP_BIAS)),
                _mm256_castsi256_pd(lo),
            )
        }

        /// `(word >> 11) · 2^-53` — four unit uniforms, exactly as the
        /// scalar `unit_f64_from_word`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn unit_f64(words: __m256i) -> __m256d {
            const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
            _mm256_mul_pd(mantissa_to_f64(words), _mm256_set1_pd(UNIT))
        }

        /// Four-wide Box–Muller standard pair from four raw word pairs:
        /// the vector form of `standard_normal_pair_from_words`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn standard_pair(words_a: __m256i, words_b: __m256i) -> (__m256d, __m256d) {
            // max(u1, MIN_POSITIVE): neither operand is NaN, so the vector
            // max matches `f64::max` bit for bit.
            let u1 = _mm256_max_pd(unit_f64(words_a), _mm256_set1_pd(f64::MIN_POSITIVE));
            let u2 = unit_f64(words_b);
            let r = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), mathx::ln4(u1)));
            let (sin, cos) =
                mathx::sincos4(_mm256_mul_pd(_mm256_set1_pd(core::f64::consts::TAU), u2));
            (_mm256_mul_pd(r, cos), _mm256_mul_pd(r, sin))
        }

        /// Four-wide `exp(mean + σ·z)`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn lognormal_factor(normal: &Normal, z: __m256d) -> __m256d {
            mathx::exp4(_mm256_add_pd(
                _mm256_set1_pd(normal.mean),
                _mm256_mul_pd(_mm256_set1_pd(normal.std_dev), z),
            ))
        }

        /// Four-wide single-factor lognormal pass (cosine halves only),
        /// with the portable pass finishing any tail.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn fill_lognormal_avx2(
            normal: &Normal,
            raw_a: &[u64],
            raw_b: &[u64],
            out: &mut [f64],
        ) {
            let chunks = out.len() / 4;
            for c in 0..chunks {
                // SAFETY: `c * 4 + 4 <= len` for all three equal-length
                // slices, so the unaligned loads and store stay in bounds.
                unsafe {
                    let wa = _mm256_loadu_si256(raw_a.as_ptr().add(c * 4).cast::<__m256i>());
                    let wb = _mm256_loadu_si256(raw_b.as_ptr().add(c * 4).cast::<__m256i>());
                    let (z_cos, _) = standard_pair(wa, wb);
                    _mm256_storeu_pd(out.as_mut_ptr().add(c * 4), lognormal_factor(normal, z_cos));
                }
            }
            let tail = chunks * 4;
            super::fill_lognormal_portable(
                normal,
                &raw_a[tail..],
                &raw_b[tail..],
                &mut out[tail..],
            );
        }

        /// Four-wide paired lognormal pass (both Box–Muller halves), with
        /// the portable pass finishing any tail.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn fill_lognormal_pair_avx2(
            normal: &Normal,
            raw_a: &[u64],
            raw_b: &[u64],
            out_cos: &mut [f64],
            out_sin: &mut [f64],
        ) {
            let chunks = out_cos.len() / 4;
            for c in 0..chunks {
                // SAFETY: `c * 4 + 4 <= len` for all four equal-length
                // slices, so the unaligned loads and stores stay in bounds.
                unsafe {
                    let wa = _mm256_loadu_si256(raw_a.as_ptr().add(c * 4).cast::<__m256i>());
                    let wb = _mm256_loadu_si256(raw_b.as_ptr().add(c * 4).cast::<__m256i>());
                    let (z_cos, z_sin) = standard_pair(wa, wb);
                    _mm256_storeu_pd(
                        out_cos.as_mut_ptr().add(c * 4),
                        lognormal_factor(normal, z_cos),
                    );
                    _mm256_storeu_pd(
                        out_sin.as_mut_ptr().add(c * 4),
                        lognormal_factor(normal, z_sin),
                    );
                }
            }
            let tail = chunks * 4;
            super::fill_lognormal_pair_portable(
                normal,
                &raw_a[tail..],
                &raw_b[tail..],
                &mut out_cos[tail..],
                &mut out_sin[tail..],
            );
        }

        /// Four-wide standard-normal pair pass (both Box–Muller halves,
        /// unscaled), with the portable pass finishing any tail.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn fill_standard_normal_pair_avx2(
            raw_a: &[u64],
            raw_b: &[u64],
            out_cos: &mut [f64],
            out_sin: &mut [f64],
        ) {
            let chunks = out_cos.len() / 4;
            for c in 0..chunks {
                // SAFETY: `c * 4 + 4 <= len` for all four equal-length
                // slices, so the unaligned loads and stores stay in bounds.
                unsafe {
                    let wa = _mm256_loadu_si256(raw_a.as_ptr().add(c * 4).cast::<__m256i>());
                    let wb = _mm256_loadu_si256(raw_b.as_ptr().add(c * 4).cast::<__m256i>());
                    let (z_cos, z_sin) = standard_pair(wa, wb);
                    _mm256_storeu_pd(out_cos.as_mut_ptr().add(c * 4), z_cos);
                    _mm256_storeu_pd(out_sin.as_mut_ptr().add(c * 4), z_sin);
                }
            }
            let tail = chunks * 4;
            super::fill_standard_normal_pair_portable(
                &raw_a[tail..],
                &raw_b[tail..],
                &mut out_cos[tail..],
                &mut out_sin[tail..],
            );
        }

        /// Four-wide `lo + unit(word) * span`, with the scalar pass
        /// finishing any tail — the same single-rounding multiply and add
        /// as the portable code, so results are bit-identical.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn fill_uniform_range_avx2(
            lo: f64,
            span: f64,
            raw: &[u64],
            out: &mut [f64],
        ) {
            let lanes = _mm256_set1_pd(lo);
            let spans = _mm256_set1_pd(span);
            let chunks = raw.len() / 4;
            for c in 0..chunks {
                // SAFETY: `c * 4 + 4 <= raw.len() == out.len()`, so both the
                // unaligned 32-byte load and store stay in bounds.
                unsafe {
                    let words = _mm256_loadu_si256(raw.as_ptr().add(c * 4).cast::<__m256i>());
                    let value = _mm256_add_pd(lanes, _mm256_mul_pd(unit_f64(words), spans));
                    _mm256_storeu_pd(out.as_mut_ptr().add(c * 4), value);
                }
            }
            let tail = chunks * 4;
            super::fill_uniform_range_portable(lo, span, &raw[tail..], &mut out[tail..]);
        }

        /// Four-wide `-ln(1 - u) / λ`, with the portable pass finishing
        /// any tail. The negation is a sign-bit XOR (like scalar `-x`),
        /// **not** `0 - x`, which would turn `-0.0` into `+0.0` at `u = 0`
        /// and break bit-identity.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn fill_exp_avx2(lambda: f64, raw: &[u64], out: &mut [f64]) {
            let one = _mm256_set1_pd(1.0);
            let neg_zero = _mm256_set1_pd(-0.0);
            let lambdas = _mm256_set1_pd(lambda);
            let chunks = raw.len() / 4;
            for c in 0..chunks {
                // SAFETY: `c * 4 + 4 <= raw.len() == out.len()`, so both the
                // unaligned 32-byte load and store stay in bounds.
                unsafe {
                    let words = _mm256_loadu_si256(raw.as_ptr().add(c * 4).cast::<__m256i>());
                    let t = mathx::ln4(_mm256_sub_pd(one, unit_f64(words)));
                    let value = _mm256_div_pd(_mm256_xor_pd(t, neg_zero), lambdas);
                    _mm256_storeu_pd(out.as_mut_ptr().add(c * 4), value);
                }
            }
            let tail = chunks * 4;
            super::fill_exp_portable(lambda, &raw[tail..], &mut out[tail..]);
        }
    }
    /// The 8-wide AVX-512 lane passes (`avx512f` + `avx512dq`), beside the
    /// AVX2 ones and under the same rules: every vector kernel replays the
    /// exact op DAG of its scalar counterpart. Each pass covers the last
    /// `len % 8` elements with a masked load and store, so short columns
    /// (a fused batch's 20-lane segments, a 60-lane batch) stay on the
    /// vector path; the masked-off lanes compute on zero words and are
    /// never stored.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[deny(unsafe_op_in_unsafe_fn)]
    mod avx512 {
        use super::math::avx512 as mathx;
        use super::Normal;
        use core::arch::x86_64::{
            __m512d, __m512i, __mmask8, _mm512_add_pd, _mm512_cvtepu64_pd, _mm512_div_pd,
            _mm512_mask_storeu_pd, _mm512_maskz_loadu_epi64, _mm512_max_pd, _mm512_mul_pd,
            _mm512_set1_pd, _mm512_sqrt_pd, _mm512_srli_epi64, _mm512_sub_pd, _mm512_xor_pd,
        };

        /// The lanes of the 8-element chunk at `i` that lie inside a
        /// column of `len` elements: all eight, or the low `len - i`.
        #[inline]
        fn chunk_mask(len: usize, i: usize) -> __mmask8 {
            match len - i {
                rest @ 0..8 => (1u8 << rest) - 1,
                _ => u8::MAX,
            }
        }

        /// Loads the words of `column[i..]` under `mask`, zero elsewhere.
        ///
        /// # Safety
        ///
        /// Every lane set in `mask` must index an element of `column`
        /// (`chunk_mask(column.len(), i)` guarantees it).
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(column: &[u64], i: usize, mask: __mmask8) -> __m512i {
            // SAFETY: the caller keeps every masked-in lane inside
            // `column`; masked-off lanes are not accessed.
            unsafe { _mm512_maskz_loadu_epi64(mask, column.as_ptr().add(i).cast::<i64>()) }
        }

        /// Stores `value` into `column[i..]` under `mask`.
        ///
        /// # Safety
        ///
        /// As [`load`].
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(column: &mut [f64], i: usize, mask: __mmask8, value: __m512d) {
            // SAFETY: as in `load`.
            unsafe { _mm512_mask_storeu_pd(column.as_mut_ptr().add(i), mask, value) }
        }

        /// `(word >> 11) · 2^-53` — eight unit uniforms, exactly as the
        /// scalar `unit_f64_from_word`: the shifted word is below 2^53, so
        /// the unsigned conversion is exact.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn unit_f64(words: __m512i) -> __m512d {
            const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
            _mm512_mul_pd(
                _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(words)),
                _mm512_set1_pd(UNIT),
            )
        }

        /// Eight-wide Box–Muller standard pair from eight raw word pairs:
        /// the vector form of `standard_normal_pair_from_words`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn standard_pair(words_a: __m512i, words_b: __m512i) -> (__m512d, __m512d) {
            // max(u1, MIN_POSITIVE): neither operand is NaN, so the vector
            // max matches `f64::max` bit for bit.
            let u1 = _mm512_max_pd(unit_f64(words_a), _mm512_set1_pd(f64::MIN_POSITIVE));
            let u2 = unit_f64(words_b);
            let r = _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), mathx::ln8(u1)));
            let (sin, cos) =
                mathx::sincos8(_mm512_mul_pd(_mm512_set1_pd(core::f64::consts::TAU), u2));
            (_mm512_mul_pd(r, cos), _mm512_mul_pd(r, sin))
        }

        /// Eight-wide `exp(mean + σ·z)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn lognormal_factor(normal: &Normal, z: __m512d) -> __m512d {
            mathx::exp8(_mm512_add_pd(
                _mm512_set1_pd(normal.mean),
                _mm512_mul_pd(_mm512_set1_pd(normal.std_dev), z),
            ))
        }

        /// Eight-wide single-factor lognormal pass (cosine halves only).
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ, and every slice
        /// must have the same length.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_lognormal(
            normal: &Normal,
            raw_a: &[u64],
            raw_b: &[u64],
            out: &mut [f64],
        ) {
            let len = out.len();
            for i in (0..len).step_by(8) {
                let mask = chunk_mask(len, i);
                // SAFETY: the three slices share `len`, and the mask keeps
                // every accessed lane below it.
                unsafe {
                    let (z_cos, _) = standard_pair(load(raw_a, i, mask), load(raw_b, i, mask));
                    store(out, i, mask, lognormal_factor(normal, z_cos));
                }
            }
        }

        /// Eight-wide paired lognormal pass (both Box–Muller halves).
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ, and every slice
        /// must have the same length.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_lognormal_pair(
            normal: &Normal,
            raw_a: &[u64],
            raw_b: &[u64],
            out_cos: &mut [f64],
            out_sin: &mut [f64],
        ) {
            let len = out_cos.len();
            for i in (0..len).step_by(8) {
                let mask = chunk_mask(len, i);
                // SAFETY: the four slices share `len`, and the mask keeps
                // every accessed lane below it.
                unsafe {
                    let (z_cos, z_sin) = standard_pair(load(raw_a, i, mask), load(raw_b, i, mask));
                    store(out_cos, i, mask, lognormal_factor(normal, z_cos));
                    store(out_sin, i, mask, lognormal_factor(normal, z_sin));
                }
            }
        }

        /// Eight-wide standard-normal pair pass (both Box–Muller halves,
        /// unscaled).
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ, and every slice
        /// must have the same length.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_standard_normal_pair(
            raw_a: &[u64],
            raw_b: &[u64],
            out_cos: &mut [f64],
            out_sin: &mut [f64],
        ) {
            let len = out_cos.len();
            for i in (0..len).step_by(8) {
                let mask = chunk_mask(len, i);
                // SAFETY: the four slices share `len`, and the mask keeps
                // every accessed lane below it.
                unsafe {
                    let (z_cos, z_sin) = standard_pair(load(raw_a, i, mask), load(raw_b, i, mask));
                    store(out_cos, i, mask, z_cos);
                    store(out_sin, i, mask, z_sin);
                }
            }
        }

        /// Eight-wide `lo + unit(word) * span` — the same single-rounding
        /// multiply and add as the portable code.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ, and every slice
        /// must have the same length.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_uniform_range(lo: f64, span: f64, raw: &[u64], out: &mut [f64]) {
            let lanes = _mm512_set1_pd(lo);
            let spans = _mm512_set1_pd(span);
            let len = out.len();
            for i in (0..len).step_by(8) {
                let mask = chunk_mask(len, i);
                // SAFETY: `raw` and `out` share `len`, and the mask keeps
                // every accessed lane below it.
                unsafe {
                    let value =
                        _mm512_add_pd(lanes, _mm512_mul_pd(unit_f64(load(raw, i, mask)), spans));
                    store(out, i, mask, value);
                }
            }
        }

        /// Eight-wide `-ln(1 - u) / λ`. The negation is a sign-bit XOR
        /// (like scalar `-x`), **not** `0 - x`, which would turn `-0.0`
        /// into `+0.0` at `u = 0` and break bit-identity.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ, and every slice
        /// must have the same length.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_exp(lambda: f64, raw: &[u64], out: &mut [f64]) {
            let one = _mm512_set1_pd(1.0);
            let neg_zero = _mm512_set1_pd(-0.0);
            let lambdas = _mm512_set1_pd(lambda);
            let len = out.len();
            for i in (0..len).step_by(8) {
                let mask = chunk_mask(len, i);
                // SAFETY: `raw` and `out` share `len`, and the mask keeps
                // every accessed lane below it.
                unsafe {
                    let t = mathx::ln8(_mm512_sub_pd(one, unit_f64(load(raw, i, mask))));
                    store(
                        out,
                        i,
                        mask,
                        _mm512_div_pd(_mm512_xor_pd(t, neg_zero), lambdas),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::math::Tier;
    use super::{Distribution, Exp, Normal, StandardNormalPairs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exp_rejects_bad_rates() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-1.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
        assert!(Exp::new(2.5).is_ok());
    }

    #[test]
    fn exp_mean_matches_one_over_lambda() {
        let mut rng = StdRng::seed_from_u64(11);
        let exp = Exp::new(4.0).unwrap();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.25).abs() < 5e-3, "mean {mean} far from 0.25");
    }

    fn raw_words(seed: u64, n: usize) -> Vec<u64> {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// An rng that replays a fixed word sequence, for pinning column
    /// transforms against the scalar samplers.
    struct Replay(Vec<u64>, usize);
    impl rand::RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            let w = self.0[self.1];
            self.1 += 1;
            w
        }
    }

    #[test]
    fn fill_normal_matches_scalar_sampling_bit_for_bit() {
        // A column transform over words (a_i, b_i) must equal sampling from
        // an RNG that replays exactly those words.
        for (mean, std_dev) in [(0.0, 0.04), (3.0, 2.0), (-1.0, 0.0)] {
            let normal = Normal::new(mean, std_dev).unwrap();
            let a = raw_words(1, 257);
            let b = raw_words(2, 257);
            for tier in tiers() {
                let mut out = vec![0.0; 257];
                super::column::fill_normal_at(tier, &normal, &a, &b, &mut out);
                for i in 0..a.len() {
                    let mut replay = Replay(vec![a[i], b[i]], 0);
                    let expected = normal.sample(&mut replay);
                    assert_eq!(
                        out[i].to_bits(),
                        expected.to_bits(),
                        "{tier:?} element {i}: column {} != scalar {expected}",
                        out[i]
                    );
                }
            }
        }
        // Degenerate words (all zeros / all ones) go through the same
        // MIN_POSITIVE clamp as the scalar sampler.
        let normal = Normal::new(0.0, 1.0).unwrap();
        for tier in tiers() {
            let mut out = [0.0; 2];
            super::column::fill_normal_at(tier, &normal, &[0, u64::MAX], &[0, u64::MAX], &mut out);
            assert!(out.iter().all(|v| v.is_finite()), "{tier:?}");
        }
    }

    #[test]
    fn fill_lognormal_matches_scalar_sample_then_exp_bit_for_bit() {
        let normal = Normal::new(0.0, 0.04).unwrap();
        let a = raw_words(21, 129);
        let b = raw_words(22, 129);
        let mut staged = vec![0.0; 129];
        super::column::fill_normal(&normal, &a, &b, &mut staged);
        for value in &mut staged {
            *value = super::math::exp(*value);
        }
        for tier in tiers() {
            let mut fused = vec![0.0; 129];
            super::column::fill_lognormal_at(tier, &normal, &a, &b, &mut fused);
            for (i, value) in staged.iter().enumerate() {
                assert_eq!(fused[i], *value, "{tier:?} element {i} diverged");
            }
        }
    }

    #[test]
    fn fill_lognormal_pair_matches_the_cached_pair_sampler_bit_for_bit() {
        // The pair transform's two columns must replay exactly what two
        // consecutive draws from a fresh StandardNormalPairs produce on a
        // stream containing those words.
        let normal = Normal::new(0.0, 0.04).unwrap();
        let a = raw_words(31, 137);
        let b = raw_words(32, 137);
        for tier in tiers() {
            let mut cos = vec![0.0; 137];
            let mut sin = vec![0.0; 137];
            super::column::fill_lognormal_pair_at(tier, &normal, &a, &b, &mut cos, &mut sin);
            for i in 0..a.len() {
                let mut replay = Replay(vec![a[i], b[i]], 0);
                let mut pairs = StandardNormalPairs::new();
                let first = super::math::exp(normal.from_standard(pairs.next(&mut replay)));
                let second = super::math::exp(normal.from_standard(pairs.next(&mut replay)));
                assert_eq!(replay.1, 2, "a pair must consume exactly two words");
                assert_eq!(cos[i], first, "{tier:?} element {i} cosine half diverged");
                assert_eq!(sin[i], second, "{tier:?} element {i} sine half diverged");
            }
        }
    }

    #[test]
    fn fill_standard_normal_pair_matches_two_cached_pair_draws_bit_for_bit() {
        let a = raw_words(33, 141);
        let b = raw_words(34, 141);
        for tier in tiers() {
            let mut cos = vec![0.0; 141];
            let mut sin = vec![0.0; 141];
            super::column::fill_standard_normal_pair_at(tier, &a, &b, &mut cos, &mut sin);
            for i in 0..a.len() {
                let mut replay = Replay(vec![a[i], b[i]], 0);
                let mut pairs = StandardNormalPairs::new();
                let first = pairs.next(&mut replay);
                let second = pairs.next(&mut replay);
                assert_eq!(replay.1, 2, "a pair must consume exactly two words");
                assert_eq!(
                    cos[i].to_bits(),
                    first.to_bits(),
                    "{tier:?} element {i} cosine"
                );
                assert_eq!(
                    sin[i].to_bits(),
                    second.to_bits(),
                    "{tier:?} element {i} sine"
                );
            }
        }
    }

    #[test]
    fn cached_pairs_survive_interleaved_non_normal_draws() {
        // The cache is positional in *normal draws*, not rng words: a
        // gen_range between the two halves must not disturb the second.
        use rand::Rng;
        let words = raw_words(41, 8);
        let mut replay = Replay(words.clone(), 0);
        let mut pairs = StandardNormalPairs::new();
        let z1 = pairs.next(&mut replay);
        let _jitter: f64 = replay.gen_range(0.0..0.12);
        let z2 = pairs.next(&mut replay);
        assert_eq!(replay.1, 3, "pair + jitter must consume three words");
        let (e1, e2) = super::standard_normal_pair_from_words(words[0], words[1]);
        assert_eq!((z1, z2), (e1, e2));
    }

    /// The column lengths every tier test covers: every masked-tail
    /// length of the 8-wide tier (0..=17), the fused engine's 20-lane
    /// segments and 60-lane batches, and lengths around and well past a
    /// 64-lane batch.
    const LENGTHS: [usize; 23] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 60, 63, 64, 257,
    ];

    /// The SIMD tiers this host can run, in order; each tier it cannot run
    /// is skipped with a note on stderr.
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

    /// `None` when every fill at `tier` gives the portable pass's bits on
    /// the words `(wa, wb)`, else the name of the first fill that diverged.
    fn first_divergent_fill(
        tier: Tier,
        normal: &Normal,
        rate: f64,
        (lo, hi): (f64, f64),
        wa: &[u64],
        wb: &[u64],
    ) -> Option<&'static str> {
        use super::column::{
            fill_exp_at, fill_lognormal_at, fill_lognormal_pair_at, fill_normal_at,
            fill_standard_normal_pair_at, fill_uniform_range_at,
        };
        let n = wa.len();
        // Runs `fill` at `tier` and at the portable tier into fresh output
        // columns and compares their bits.
        type Fill<'a> = &'a dyn Fn(Tier, &mut [f64], &mut [f64]);
        let same = |fill: Fill| {
            let bits_at = |tier| {
                let (mut cos, mut sin) = (vec![0.0; n], vec![0.0; n]);
                fill(tier, &mut cos, &mut sin);
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                (bits(cos), bits(sin))
            };
            bits_at(tier) == bits_at(Tier::Portable)
        };
        let exp = Exp::new(rate).unwrap();
        if !same(&|t, out, _| fill_uniform_range_at(t, lo, hi, wa, out)) {
            return Some("uniform");
        }
        if !same(&|t, out, _| fill_normal_at(t, normal, wa, wb, out)) {
            return Some("normal");
        }
        if !same(&|t, out, _| fill_lognormal_at(t, normal, wa, wb, out)) {
            return Some("lognormal");
        }
        if !same(&|t, out, _| fill_exp_at(t, &exp, wa, out)) {
            return Some("exp");
        }
        if !same(&|t, cos, sin| fill_lognormal_pair_at(t, normal, wa, wb, cos, sin)) {
            return Some("lognormal pair");
        }
        if !same(&|t, cos, sin| fill_standard_normal_pair_at(t, wa, wb, cos, sin)) {
            return Some("standard pair");
        }
        None
    }

    #[test]
    fn every_simd_tier_matches_the_portable_passes() {
        // Each SIMD tier the host runs, pinned against the portable pass
        // on every tail length and the extreme words 0 and u64::MAX.
        let normal = Normal::new(0.0, 0.04).unwrap();
        for tier in simd_tiers() {
            for n in LENGTHS {
                let mut wa = raw_words(7, n);
                let mut wb = raw_words(8, n);
                for (i, extreme) in [0, u64::MAX].into_iter().enumerate().take(n) {
                    wa[i] = extreme;
                    wb[n - 1 - i] = extreme;
                }
                let diverged = first_divergent_fill(tier, &normal, 4.0, (-0.05, 0.05), &wa, &wb);
                assert_eq!(diverged, None, "{tier:?} at length {n}");
            }
        }
    }

    #[test]
    fn dispatched_tier_is_one_the_host_runs() {
        assert!(Tier::dispatched().supported());
        assert!(Tier::Portable.supported());
        if std::env::var_os("XR_FORCE_PORTABLE").is_some_and(|v| v != *"0") {
            assert_eq!(Tier::dispatched(), Tier::Portable);
        }
        eprintln!("dispatched tier: {:?}", Tier::dispatched());
    }

    mod properties {
        use super::super::Normal;
        use super::{first_divergent_fill, raw_words, simd_tiers};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // Every SIMD tier the host runs is bit-identical to the
            // portable pass for arbitrary word streams, column lengths, and
            // distribution parameters — the exactness contract behind the
            // cross-build determinism pin. (On hosts without a SIMD tier
            // there is nothing to compare, and the property holds
            // trivially.)
            #[test]
            fn simd_and_portable_fills_are_bit_identical(
                seed in 0u64..u64::MAX,
                len in 0usize..200,
                mean in -3.0f64..3.0,
                sigma in 0.0f64..2.0,
                rate in 0.05f64..50.0,
                lo in -10.0f64..10.0,
                span in 0.0f64..20.0,
            ) {
                let normal = Normal::new(mean, sigma).unwrap();
                let wa = raw_words(seed, len);
                let wb = raw_words(seed ^ 0x9E37_79B9_7F4A_7C15, len);
                for tier in simd_tiers() {
                    let diverged = first_divergent_fill(tier, &normal, rate, (lo, lo + span), &wa, &wb);
                    prop_assert!(diverged.is_none(), "{:?} {:?} diverged", tier, diverged);
                }
            }
        }
    }

    #[test]
    fn fill_exp_matches_scalar_sampling_bit_for_bit() {
        let exp = Exp::new(4.0).unwrap();
        let words = raw_words(11, 513);
        for tier in tiers() {
            let mut out = vec![0.0; 513];
            super::column::fill_exp_at(tier, &exp, &words, &mut out);
            let mut rng = StdRng::seed_from_u64(11);
            for (i, &value) in out.iter().enumerate() {
                assert_eq!(value, exp.sample(&mut rng), "{tier:?} element {i} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "raw column length mismatch")]
    fn column_length_mismatch_is_rejected() {
        let exp = Exp::new(1.0).unwrap();
        let mut out = [0.0; 2];
        super::column::fill_exp(&exp, &[1, 2, 3], &mut out);
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(23);
        let normal = Normal::new(3.0, 2.0).unwrap();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 3.0).abs() < 2e-2, "mean {mean} far from 3.0");
        assert!((var - 4.0).abs() < 8e-2, "variance {var} far from 4.0");
    }

    #[test]
    fn cached_pair_moments_match() {
        // Both Box–Muller halves together must still be standard normal.
        let mut rng = StdRng::seed_from_u64(29);
        let mut pairs = StandardNormalPairs::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| pairs.next(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 1e-2, "mean {mean} far from 0");
        assert!((var - 1.0).abs() < 2e-2, "variance {var} far from 1");
    }
}
