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
    /// the same `1 + s·z` inline, so it skips building a `Normal` per
    /// phase.
    #[must_use]
    #[inline(always)]
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
/// normal variates for one `ln`/`sqrt`/`sincos` set. Always inlined, so
/// each tier's column pass compiles its own copy.
#[must_use]
#[inline(always)]
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
///   libm), and each fill runs plain loops over the scalar sampler's own
///   expression, which [`Tier::run`](math::Tier::run) compiles once per
///   [`Tier`](math::Tier) — portable, AVX2 or AVX-512. Every fill takes
///   the tier it runs on; callers decide it once, from
///   [`Tier::dispatched`](math::Tier::dispatched), at their entry points.
///   Rust keeps every floating-point operation as written, so the
///   vectorized builds are bit-identical — not approximately equal — to
///   the portable one. Tests pin each tier the host supports against the
///   portable build, and CI re-runs the dispatched gates under
///   `XR_FORCE_PORTABLE=1`, which turns off every SIMD tier;
/// * each loop body runs one heavy kernel. The lognormal fills
///   ([`fill_lognormal`](column::fill_lognormal) and
///   [`fill_lognormal_pair`](column::fill_lognormal_pair)) therefore run
///   two passes per chunk: Box–Muller into a stack block, then `exp` from
///   that block into the output. Fused in one loop body, the same two
///   kernels ran 1.1–1.5× slower, depending on the tier. The `exp` pass
///   never reads the column it writes: [`elementwise`](math::elementwise)
///   recomputes a partial last block, so an in-place `exp` would apply
///   twice there;
/// * the normal-family transforms come in *pair* form
///   ([`fill_lognormal_pair`](column::fill_lognormal_pair), and the
///   unscaled [`fill_standard_normal_pair`](column::fill_standard_normal_pair))
///   writing both Box–Muller halves of each word pair, mirroring
///   [`StandardNormalPairs`]: a batched stage that consumes two variates
///   per frame fills both columns from **one** pair of raw-word columns.
///
/// Every fill panics if the host's CPU cannot run its tier.
pub mod column {
    use super::math::Tier;
    use super::{math, Exp, Normal};
    use rand::unit_f64_from_word;
    use std::ops::Range;

    /// Writes `out[i] = ` the draw `normal.sample` would produce from the
    /// raw words `(raw_a[i], raw_b[i])` — the cosine Box–Muller half,
    /// bit-identical to [`Normal::sample`](super::Normal). It runs the
    /// tier's standard-normal pair pass ([`fill_standard_normal_pair`]) a
    /// block at a time, drops the sine halves and scales the cosine halves
    /// with [`Normal::from_standard`](super::Normal::from_standard).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn fill_normal(tier: Tier, normal: &Normal, raw_a: &[u64], raw_b: &[u64], out: &mut [f64]) {
        const BLOCK: usize = 64;
        assert_eq!(raw_a.len(), out.len(), "raw_a column length mismatch");
        assert_eq!(raw_b.len(), out.len(), "raw_b column length mismatch");
        let mut sin = [0.0; BLOCK];
        let blocks = raw_a.chunks(BLOCK).zip(raw_b.chunks(BLOCK));
        for ((raw_a, raw_b), out) in blocks.zip(out.chunks_mut(BLOCK)) {
            let sin = &mut sin[..out.len()];
            fill_standard_normal_pair(tier, raw_a, raw_b, out, sin);
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
    /// It runs two passes per chunk of 64 elements, one heavy kernel
    /// each: Box–Muller into a stack block, then `exp` from that block into
    /// `out` (see the [module](self) doc for why).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn fill_lognormal(
        tier: Tier,
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out: &mut [f64],
    ) {
        assert_eq!(raw_a.len(), out.len(), "raw_a column length mismatch");
        assert_eq!(raw_b.len(), out.len(), "raw_b column length mismatch");
        tier.run(
            #[inline(always)]
            || {
                stage_normals::<false>(
                    normal,
                    raw_a,
                    raw_b,
                    #[inline(always)]
                    |at, cos, _| exp_pass(cos, &mut out[at]),
                );
            },
        );
    }

    /// Writes **both** Box–Muller noise factors of each raw word pair:
    /// `out_cos[i]` is the cosine-half factor (what the first scalar draw
    /// on the stream returns) and `out_sin[i]` the sine-half factor (the
    /// second, cached draw). One `ln`/`sqrt`/`sincos` set per element
    /// feeds two columns — the draw-scheme change that halves the
    /// transcendental budget of two-factor stages.
    ///
    /// Like [`fill_lognormal`], it runs Box–Muller and `exp` as separate
    /// passes over each chunk of 64 elements, staging both halves.
    ///
    /// # Panics
    ///
    /// Panics if the four slices differ in length.
    pub fn fill_lognormal_pair(
        tier: Tier,
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        assert_pair_lengths(raw_a, raw_b, out_cos, out_sin);
        tier.run(
            #[inline(always)]
            || {
                stage_normals::<true>(
                    normal,
                    raw_a,
                    raw_b,
                    #[inline(always)]
                    |at, cos, sin| {
                        exp_pass(cos, &mut out_cos[at.clone()]);
                        exp_pass(sin, &mut out_sin[at]);
                    },
                );
            },
        );
    }

    /// Elements per chunk of the lognormal fills: the length of the stack
    /// blocks that carry a chunk's normal draws from the Box–Muller pass
    /// to the `exp` pass.
    const STAGE: usize = 64;

    /// The lognormal fills' first pass. For each chunk of at most
    /// [`STAGE`] word pairs, writes `normal.from_standard` of the cosine
    /// halves into a stack block (and, with `SIN`, of the sine halves into
    /// a second one), then calls `then(chunk, cos, sin)` with the chunk's
    /// range in the columns and the staged blocks (`sin` is empty without
    /// `SIN`). It runs inside its caller's [`Tier::run`].
    #[inline(always)]
    fn stage_normals<const SIN: bool>(
        normal: &Normal,
        raw_a: &[u64],
        raw_b: &[u64],
        mut then: impl FnMut(Range<usize>, &[f64], &[f64]),
    ) {
        let (mut cos, mut sin) = ([0.0; STAGE], [0.0; STAGE]);
        let mut start = 0;
        for (raw_a, raw_b) in raw_a.chunks(STAGE).zip(raw_b.chunks(STAGE)) {
            let len = raw_a.len();
            let (cos, sin) = (&mut cos[..len], &mut sin[..len]);
            math::elementwise(
                len,
                #[inline(always)]
                |at| {
                    let staged = cos[at.clone()].iter_mut().zip(&mut sin[at.clone()]);
                    let words = raw_a[at.clone()].iter().zip(&raw_b[at]);
                    for ((cos, sin), (&a, &b)) in staged.zip(words) {
                        let (z1, z2) = super::standard_normal_pair_from_words(a, b);
                        *cos = normal.from_standard(z1);
                        if SIN {
                            *sin = normal.from_standard(z2);
                        }
                    }
                },
            );
            then(start..start + len, cos, if SIN { sin } else { &[] });
            start += len;
        }
    }

    /// The lognormal fills' second pass: `out[i] = exp(z[i])`. `z` is a
    /// staged block, never `out` itself: [`math::elementwise`] recomputes
    /// a partial last block, and an `exp` in place would apply twice there.
    #[inline(always)]
    fn exp_pass(z: &[f64], out: &mut [f64]) {
        math::elementwise(
            out.len(),
            #[inline(always)]
            |at| {
                for (out, &z) in out[at.clone()].iter_mut().zip(&z[at]) {
                    *out = math::exp(z);
                }
            },
        );
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
        tier: Tier,
        raw_a: &[u64],
        raw_b: &[u64],
        out_cos: &mut [f64],
        out_sin: &mut [f64],
    ) {
        assert_pair_lengths(raw_a, raw_b, out_cos, out_sin);
        tier.run_elementwise(
            out_cos.len(),
            #[inline(always)]
            |at| {
                let outs = out_cos[at.clone()].iter_mut().zip(&mut out_sin[at.clone()]);
                let words = raw_a[at.clone()].iter().zip(&raw_b[at]);
                for ((cos, sin), (&a, &b)) in outs.zip(words) {
                    (*cos, *sin) = super::standard_normal_pair_from_words(a, b);
                }
            },
        );
    }

    /// Writes `out[i] = ` the draw `rng.gen_range(lo..hi)` would produce
    /// from the raw word `raw[i]` — `lo + u * (hi - lo)` over the unit
    /// uniform, bit-identical to the `rand` shim's `f64` range sampler.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the range is empty.
    pub fn fill_uniform_range(tier: Tier, lo: f64, hi: f64, raw: &[u64], out: &mut [f64]) {
        assert_eq!(raw.len(), out.len(), "raw column length mismatch");
        assert!(lo < hi, "cannot sample empty range");
        let span = hi - lo;
        tier.run_elementwise(
            out.len(),
            #[inline(always)]
            |at| {
                for (out, &word) in out[at.clone()].iter_mut().zip(&raw[at]) {
                    *out = lo + unit_f64_from_word(word) * span;
                }
            },
        );
    }

    /// Writes `out[i] = ` the draw `exp.sample` would produce from the raw
    /// word `raw[i]` — inversion over the unit uniform, bit-identical to
    /// [`Exp::sample`](super::Exp).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn fill_exp(tier: Tier, exp: &Exp, raw: &[u64], out: &mut [f64]) {
        assert_eq!(raw.len(), out.len(), "raw column length mismatch");
        tier.run_elementwise(
            out.len(),
            #[inline(always)]
            |at| {
                for (out, &word) in out[at.clone()].iter_mut().zip(&raw[at]) {
                    *out = -math::ln(1.0 - unit_f64_from_word(word)) / exp.lambda;
                }
            },
        );
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
                super::column::fill_normal(tier, &normal, &a, &b, &mut out);
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
            super::column::fill_normal(tier, &normal, &[0, u64::MAX], &[0, u64::MAX], &mut out);
            assert!(out.iter().all(|v| v.is_finite()), "{tier:?}");
        }
    }

    #[test]
    fn fill_lognormal_matches_scalar_sample_then_exp_bit_for_bit() {
        // Every length in LENGTHS: a column shorter than one chunk, whole
        // chunks and every tail, where a pass that read the column it
        // writes would apply `exp` twice to the recomputed elements.
        let normal = Normal::new(0.0, 0.04).unwrap();
        for n in LENGTHS {
            let a = raw_words(21, n);
            let b = raw_words(22, n);
            let mut staged = vec![0.0; n];
            super::column::fill_normal(Tier::Portable, &normal, &a, &b, &mut staged);
            for value in &mut staged {
                *value = super::math::exp(*value);
            }
            for tier in tiers() {
                let mut two_pass = vec![0.0; n];
                super::column::fill_lognormal(tier, &normal, &a, &b, &mut two_pass);
                for (i, value) in staged.iter().enumerate() {
                    assert_eq!(
                        two_pass[i].to_bits(),
                        value.to_bits(),
                        "{tier:?} length {n} element {i} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_lognormal_pair_matches_the_cached_pair_sampler_bit_for_bit() {
        // The pair transform's two columns must replay exactly what two
        // consecutive draws from a fresh StandardNormalPairs produce on a
        // stream containing those words, at every length in LENGTHS.
        let normal = Normal::new(0.0, 0.04).unwrap();
        for n in LENGTHS {
            let a = raw_words(31, n);
            let b = raw_words(32, n);
            for tier in tiers() {
                let mut cos = vec![0.0; n];
                let mut sin = vec![0.0; n];
                super::column::fill_lognormal_pair(tier, &normal, &a, &b, &mut cos, &mut sin);
                for i in 0..n {
                    let mut replay = Replay(vec![a[i], b[i]], 0);
                    let mut pairs = StandardNormalPairs::new();
                    let first = super::math::exp(normal.from_standard(pairs.next(&mut replay)));
                    let second = super::math::exp(normal.from_standard(pairs.next(&mut replay)));
                    assert_eq!(replay.1, 2, "a pair must consume exactly two words");
                    let at = format!("{tier:?} length {n} element {i}");
                    assert_eq!(
                        cos[i].to_bits(),
                        first.to_bits(),
                        "{at}: cosine half diverged"
                    );
                    assert_eq!(
                        sin[i].to_bits(),
                        second.to_bits(),
                        "{at}: sine half diverged"
                    );
                }
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
            super::column::fill_standard_normal_pair(tier, &a, &b, &mut cos, &mut sin);
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
    /// 64-lane batch, which is also the lognormal fills' chunk: 129 and
    /// 257 end on a one-element chunk, 137 on a chunk with a partial block.
    const LENGTHS: [usize; 25] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 60, 63, 64, 129, 137, 257,
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
            fill_exp, fill_lognormal, fill_lognormal_pair, fill_normal, fill_standard_normal_pair,
            fill_uniform_range,
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
        if !same(&|t, out, _| fill_uniform_range(t, lo, hi, wa, out)) {
            return Some("uniform");
        }
        if !same(&|t, out, _| fill_normal(t, normal, wa, wb, out)) {
            return Some("normal");
        }
        if !same(&|t, out, _| fill_lognormal(t, normal, wa, wb, out)) {
            return Some("lognormal");
        }
        if !same(&|t, out, _| fill_exp(t, &exp, wa, out)) {
            return Some("exp");
        }
        if !same(&|t, cos, sin| fill_lognormal_pair(t, normal, wa, wb, cos, sin)) {
            return Some("lognormal pair");
        }
        if !same(&|t, cos, sin| fill_standard_normal_pair(t, wa, wb, cos, sin)) {
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
            super::column::fill_exp(tier, &exp, &words, &mut out);
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
        super::column::fill_exp(Tier::Portable, &exp, &[1, 2, 3], &mut out);
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
