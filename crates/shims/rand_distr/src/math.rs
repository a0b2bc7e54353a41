//! Vectorizable polynomial transcendental kernels for the draw layer.
//!
//! `std`'s `ln`/`exp`/`cos` call the platform libm: accurate, but scalar,
//! opaque, and host-dependent. The batched frame engine needs columns of
//! Box–Muller and inversion transforms whose results are **reproducible bit
//! for bit** on every host and engine, which rules the libm out of the hot
//! path. This module provides fdlibm-derived polynomial kernels ([`ln`],
//! [`exp`], [`sincos`]) built only from IEEE-754 single-rounding primitives
//! (`+ - * / sqrt`) and exact integer bit manipulation, with no branch: the
//! `sincos` quadrant is a select plus sign-bit XORs, and the `ln` exponent
//! converts to `f64` through an exact bit trick instead of an
//! integer-to-float instruction.
//!
//! Each kernel is the **one source** of its transform. The draw layer's
//! column passes inline it into plain loops and compile each loop once per
//! [`Tier`] ([`Tier::run`]): the baseline build, an AVX2 build and an
//! AVX-512 build, which LLVM vectorizes 4 and 8 lanes wide. Rust never
//! contracts `a * b + c` into an FMA, never reassociates floating-point
//! operations and never swaps in an approximate reciprocal, so every build
//! computes the same bits, not approximately-equal values. Tests run each
//! pass at every tier the host supports against the portable build, in
//! debug and release, and a CI run with `XR_FORCE_PORTABLE=1` re-runs the
//! gates on the portable build alone.
//!
//! # Domains and accuracy
//!
//! The kernels cover exactly the ranges the samplers feed them and are
//! unspecified outside (no NaN/inf/subnormal handling — callers clamp):
//!
//! * [`ln`]: positive normal finite `x` (the Box–Muller `u1` is clamped to
//!   `f64::MIN_POSITIVE`, and `1 - u ∈ (0, 1]` for inversion sampling).
//!   General-path fdlibm `e_log`, observed ≤ 1 ulp from `std::f64::ln`.
//! * [`exp`]: `|x| ≤ 700` (noise factors are `exp(σ·z)` with tiny σ; the
//!   widest test distributions stay within ±25). fdlibm `e_exp` with a
//!   round-to-even argument reduction, observed ≤ 1 ulp from `std`.
//! * [`sincos`]: `θ ∈ [0, 2π]` (the Box–Muller angle is `TAU · u2`).
//!   Three-term Cody–Waite reduction by `π/2` plus the fdlibm `k_sin` /
//!   `k_cos` polynomials. Near the quadrant boundaries the truncated
//!   reduction leaves an absolute error up to ~`1.2e-16`, so the
//!   documented bound is `≤ 2 ulp` **or** `≤ 2.5e-16` absolute, whichever
//!   is looser — far below the measurement noise the draws model.
//!
//! `XR_FORCE_PORTABLE=1` (any value but `0`) makes [`Tier::dispatched`]
//! the portable tier, so CI can exercise the portable kernels on SIMD
//! hosts; because the tiers are bit-identical, the knob never changes
//! results.

use std::ops::Range;
use std::sync::OnceLock;

/// One implementation tier of the draw layer's column passes: which build
/// of a pass runs. Every tier computes the same bits; they differ only in
/// how many lanes one instruction covers. Ordered by width, so a host that
/// runs a tier also runs every tier below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The baseline x86-64 (or other target's) build; every host runs it.
    Portable,
    /// The build compiled with AVX2 enabled, 4 lanes per vector.
    Avx2,
    /// The build compiled with AVX-512 (`avx512f` + `avx512dq`) enabled,
    /// 8 lanes per vector.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// The widest tier this host's CPU supports, read from CPUID once per
    /// process. `XR_FORCE_PORTABLE` does not affect it.
    fn host() -> Tier {
        static HOST: OnceLock<Tier> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq");
                return if avx512 { Tier::Avx512 } else { Tier::Avx2 };
            }
            Tier::Portable
        })
    }

    /// Whether this host's CPU can run the tier's passes.
    #[must_use]
    pub fn supported(self) -> bool {
        self <= Self::host()
    }

    /// The tier a run's draw passes take: the widest one the CPU supports,
    /// or [`Tier::Portable`] when `XR_FORCE_PORTABLE` is set (to anything
    /// but `0`). Resolved once per process. The passes themselves take
    /// their tier as an argument; the workspace reads this only at its
    /// entry points (the testbed's batched drivers, measurement campaign
    /// and calibration) and hands the tier down.
    #[must_use]
    pub fn dispatched() -> Tier {
        static DISPATCHED: OnceLock<Tier> = OnceLock::new();
        *DISPATCHED.get_or_init(|| {
            let force_portable = std::env::var_os("XR_FORCE_PORTABLE").is_some_and(|v| v != *"0");
            if force_portable {
                Tier::Portable
            } else {
                Self::host()
            }
        })
    }

    /// Runs `pass` compiled for this tier. The AVX2 and AVX-512 tiers call
    /// it from a function built with those features enabled, so a pass
    /// whose loops and kernels are `#[inline(always)]` (or otherwise inline
    /// into the closure) is vectorized for that tier; the portable tier
    /// calls it directly. Every pass compiled per tier goes through this
    /// one function: the column fills here, and the testbed's lane banks,
    /// power monitor and batched stage pass, each on the tier its caller
    /// hands it. Nesting is fine: the fills that the stage pass calls run
    /// on the stage pass's own tier.
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU does not support the tier.
    #[inline(always)]
    pub fn run<R>(self, pass: impl FnOnce() -> R) -> R {
        assert!(self.supported(), "this host cannot run the {self:?} tier");
        match self {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: the CPU supports AVX2 (asserted above).
            Tier::Avx2 => unsafe { run_avx2(pass) },
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: the CPU supports AVX-512F and AVX-512DQ (asserted
            // above).
            Tier::Avx512 => unsafe { run_avx512(pass) },
            _ => pass(),
        }
    }

    /// [`elementwise`]`(len, pass)` compiled for this tier ([`Tier::run`]).
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU does not support the tier.
    #[inline(always)]
    pub fn run_elementwise(self, len: usize, pass: impl FnMut(Range<usize>)) {
        self.run(
            #[inline(always)]
            || elementwise(len, pass),
        );
    }
}

/// Runs an elementwise `pass` over the elements `0..len` of its columns.
/// `pass(range)` must write each element of `range` from that element's
/// own inputs only, so that computing an element twice writes the same
/// value. The whole blocks of 8 elements go through `pass` in one call; a
/// partial last block goes through it again as the whole block that ends at
/// `len`, recomputing a few elements, so a tier's vectorized build covers
/// it too instead of a scalar tail (a column shorter than a block runs as
/// is). Both calls share one call site, so each build holds one copy of
/// the pass's loop. Callers mark `pass` `#[inline(always)]`, like the
/// closures they give [`Tier::run`].
#[inline(always)]
pub fn elementwise(len: usize, mut pass: impl FnMut(Range<usize>)) {
    let whole = len - len % BLOCK;
    let last = if whole < len {
        len.saturating_sub(BLOCK)..len
    } else {
        len..len
    };
    for at in [0..whole, last] {
        pass(at);
    }
}

/// Elements per block of [`elementwise`]: one AVX-512 vector, two
/// AVX2 vectors.
const BLOCK: usize = 8;

/// `pass` built with AVX2 enabled: see [`Tier::run`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(pass: impl FnOnce() -> R) -> R {
    pass()
}

/// `pass` built with AVX-512F and AVX-512DQ enabled: see [`Tier::run`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn run_avx512<R>(pass: impl FnOnce() -> R) -> R {
    pass()
}

// ---------------------------------------------------------------------------
// Shared constants (given as exact bit patterns; the decimal comments are
// the fdlibm names). LN2_HI and PIO2_1..3 are truncated so that small
// integer multiples are exact products.
// ---------------------------------------------------------------------------

/// ln2_hi = 6.93147180369123816490e-01, 20 trailing zero bits.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
/// ln2_lo = 1.90821492927058770002e-10.
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// 1/ln2 = 1.44269504088896338700e+00.
const INV_LN2: f64 = f64::from_bits(0x3FF7_1547_652B_82FE);
/// 2/π = 6.36619772367581382433e-01.
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
/// First 33 bits of π/2: 1.57079632673412561417e+00.
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
/// Next 33 bits of π/2: 6.07710050630396597660e-11.
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
/// Next 33 bits of π/2: 2.02226624871116645580e-21.
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000);
/// 1.5·2^52: adding this to a double of magnitude < 2^51 leaves the
/// nearest integer (ties to even) in the mantissa — the branch-free
/// round-to-even of the `exp` and `sincos` reductions.
const MAGIC: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The bits of 2^52: OR-ing an integer `n < 2^52` into its mantissa gives
/// the double `2^52 + n` exactly.
const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;
/// `2^52 + 1023`, exactly representable: subtracting it from `2^52 + e`
/// leaves the unbiased exponent `e - 1023` exactly.
const EXP_BIAS: f64 = ((1u64 << 52) + 1023) as f64;

/// fdlibm `e_log` polynomial coefficients Lg1..Lg7.
const LG: [f64; 7] = [
    f64::from_bits(0x3FE5_5555_5555_5593), // 6.666666666666735130e-01
    f64::from_bits(0x3FD9_9999_9997_FA04), // 3.999999999940941908e-01
    f64::from_bits(0x3FD2_4924_9422_9359), // 2.857142874366239149e-01
    f64::from_bits(0x3FCC_71C5_1D8E_78AF), // 2.222219843214978396e-01
    f64::from_bits(0x3FC7_4664_96CB_03DE), // 1.818357216161805012e-01
    f64::from_bits(0x3FC3_9A09_D078_C69F), // 1.531383769920937332e-01
    f64::from_bits(0x3FC2_F112_DF3E_5244), // 1.479819860511658591e-01
];

/// fdlibm `e_exp` polynomial coefficients P1..P5.
const P: [f64; 5] = [
    f64::from_bits(0x3FC5_5555_5555_553E), // 1.66666666666666019037e-01
    f64::from_bits(0xBF66_C16C_16BE_BD93), // -2.77777777770155933842e-03
    f64::from_bits(0x3F11_566A_AF25_DE2C), // 6.61375632143793436117e-05
    f64::from_bits(0xBEBB_BD41_C5D2_6BF1), // -1.65339022054652515390e-06
    f64::from_bits(0x3E66_3769_72BE_A4D0), // 4.13813679705723846039e-08
];

/// fdlibm `k_sin` polynomial coefficients S1..S6.
const S: [f64; 6] = [
    f64::from_bits(0xBFC5_5555_5555_5549), // -1.66666666666666324348e-01
    f64::from_bits(0x3F81_1111_1110_F8A6), // 8.33333333332248946124e-03
    f64::from_bits(0xBF2A_01A0_19C1_61D5), // -1.98412698298579493134e-04
    f64::from_bits(0x3EC7_1DE3_57B1_FE7D), // 2.75573137070700676789e-06
    f64::from_bits(0xBE5A_E5E6_8A2B_9CEB), // -2.50507602534068634195e-08
    f64::from_bits(0x3DE5_D93A_5ACF_D57C), // 1.58969099521155010221e-10
];

/// fdlibm `k_cos` polynomial coefficients C1..C6.
const C: [f64; 6] = [
    f64::from_bits(0x3FA5_5555_5555_554C), // 4.16666666666666019037e-02
    f64::from_bits(0xBF56_C16C_16C1_5177), // -1.38888888888741095749e-03
    f64::from_bits(0x3EFA_01A0_19CB_1590), // 2.48015872894767294178e-05
    f64::from_bits(0xBE92_7E4F_809C_52AD), // -2.75573143513906633035e-07
    f64::from_bits(0x3E21_EE9E_BDB4_B1C4), // 2.08757232129817482790e-09
    f64::from_bits(0xBDA8_FAE9_BE88_38D4), // -1.13596475577881948265e-11
];

/// The fdlibm mantissa re-centering offset: adding `0x95F62 << 32` to the
/// raw bits shifts the implicit binade split point from 1.0 to √2/2, so
/// the extracted mantissa lands in `[√2/2, √2)` where the log polynomial
/// converges fastest.
const LOG_RECENTER: u64 = 0x0009_5F62_0000_0000;
/// Exponent/mantissa split of an IEEE-754 double.
const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
/// High bits of √2/2, added (not OR-ed — the mantissa carry is the trick)
/// to re-center the extracted mantissa.
const SQRT2_OVER_2_HI: u64 = 0x3FE6_A09E_0000_0000;

// ---------------------------------------------------------------------------
// The kernels. Each is always inlined, so every pass that calls one compiles
// it for that pass's tier.
// ---------------------------------------------------------------------------

/// Natural log of a positive normal finite `x` (fdlibm `e_log`, general
/// path). See the module docs for domain and accuracy.
#[must_use]
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits().wrapping_add(LOG_RECENTER);
    // The exponent k = (bits >> 52) - 1023 as a double, without `k as f64`
    // (which AVX2 has no packed instruction for): positive normal inputs
    // keep the biased field below 2^12, so both steps are exact.
    let dk = f64::from_bits(TWO_52_BITS | (bits >> 52)) - EXP_BIAS;
    let m = f64::from_bits((bits & MANT_MASK).wrapping_add(SQRT2_OVER_2_HI));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// `e^x` for `|x| ≤ 700` (fdlibm `e_exp` with round-to-even reduction).
/// See the module docs for domain and accuracy.
#[must_use]
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let t = x * INV_LN2 + MAGIC;
    let k = t.to_bits().wrapping_sub(MAGIC.to_bits());
    let kf = t - MAGIC;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P[0] + rr * (P[1] + rr * (P[2] + rr * (P[3] + rr * P[4]))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Exact 2^k scaling: k ∈ [-1010, 1010] on the documented domain and
    // y ∈ [~0.69, ~1.42], so the exponent-field add cannot over/underflow.
    f64::from_bits(y.to_bits().wrapping_add(k << 52))
}

/// `(sin θ, cos θ)` for `θ ∈ [0, 2π]` — one reduction and two polynomials,
/// so the Box–Muller pair costs barely more than its first variate. See
/// the module docs for domain and accuracy.
#[must_use]
#[inline(always)]
pub fn sincos(theta: f64) -> (f64, f64) {
    let t = theta * INV_PIO2 + MAGIC;
    let n = t.to_bits().wrapping_sub(MAGIC.to_bits());
    let nf = t - MAGIC;
    // Cody–Waite: the first subtraction is Sterbenz-exact on this domain,
    // the next two round once each.
    let r = ((theta - nf * PIO2_1) - nf * PIO2_2) - nf * PIO2_3;
    let z = r * r;
    let v = z * r;
    let sp = S[1] + z * (S[2] + z * (S[3] + z * (S[4] + z * S[5])));
    let sin_r = r + v * (S[0] + z * sp);
    let cp = z * (C[0] + z * (C[1] + z * (C[2] + z * (C[3] + z * (C[4] + z * C[5])))));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos_r = w + ((1.0 - w - hz) + z * cp);
    // Quadrant n mod 4, as (sin, cos) = 0:(s, c) 1:(c, -s) 2:(-s, -c)
    // 3:(-c, s): odd quadrants swap the pair, sin flips sign when n & 2 and
    // cos when (n + 1) & 2. Selects and sign-bit XORs are exact, and unlike
    // a `match` they vectorize.
    let swap = n & 1 == 1;
    let (s, c) = if swap { (cos_r, sin_r) } else { (sin_r, cos_r) };
    let sin_sign = (n & 2) << 62;
    let cos_sign = (n.wrapping_add(1) & 2) << 62;
    (
        f64::from_bits(s.to_bits() ^ sin_sign),
        f64::from_bits(c.to_bits() ^ cos_sign),
    )
}

#[cfg(test)]
mod tests {
    /// Distance in units in the last place between two finite doubles of
    /// the same sign (saturating; NaN-free domains only).
    fn ulp_diff(a: f64, b: f64) -> u64 {
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        ia.abs_diff(ib)
    }

    #[test]
    fn ln_matches_std_within_one_ulp_over_the_unit_domain() {
        let mut worst = 0;
        for i in 1..=20_000u64 {
            let x = i as f64 / 20_000.0;
            worst = worst.max(ulp_diff(super::ln(x), x.ln()));
        }
        // Including the clamp edge and the smallest normal.
        worst = worst.max(ulp_diff(
            super::ln(f64::MIN_POSITIVE),
            f64::MIN_POSITIVE.ln(),
        ));
        assert!(worst <= 1, "ln drifted {worst} ulp from std");
        assert_eq!(super::ln(1.0), 0.0);
    }

    #[test]
    fn exp_matches_std_within_one_ulp_over_the_noise_domain() {
        let mut worst = 0;
        for i in -20_000i64..=20_000 {
            let x = i as f64 / 800.0; // ±25, beyond any noise factor
            worst = worst.max(ulp_diff(super::exp(x), x.exp()));
        }
        assert!(worst <= 1, "exp drifted {worst} ulp from std");
        assert_eq!(super::exp(0.0), 1.0);
    }

    #[test]
    fn sincos_matches_std_within_the_documented_bound() {
        for i in 0..=40_000u64 {
            let theta = core::f64::consts::TAU * (i as f64 / 40_000.0);
            let (s, c) = super::sincos(theta);
            for (got, want) in [(s, theta.sin()), (c, theta.cos())] {
                let ok = ulp_diff(got, want) <= 2 || (got - want).abs() <= 2.5e-16;
                assert!(ok, "sincos({theta}) drifted: got {got}, std {want}");
            }
        }
    }

    /// Sixteen inputs at and around the edges of each kernel's domain, as
    /// `[ln, exp, sincos]`: the `ln` clamp edge, the unit interval's ends
    /// and binade boundaries, the `exp` domain's ends and signed zeros, and
    /// the `sincos` quadrant boundaries.
    fn edge_inputs() -> [[f64; 16]; 3] {
        use core::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, LN_2, PI, TAU};
        let one = 1.0f64;
        [
            [
                f64::MIN_POSITIVE,
                1e-300,
                1.0 / (1u64 << 53) as f64,
                0.25,
                0.5,
                FRAC_1_SQRT_2.next_down(),
                FRAC_1_SQRT_2,
                FRAC_1_SQRT_2.next_up(),
                one.next_down(),
                1.0,
                one.next_up(),
                2.0,
                10.0,
                1e300,
                f64::MAX,
                0.3,
            ],
            [
                -700.0,
                -25.0,
                -1.0,
                -0.5 * LN_2,
                -f64::MIN_POSITIVE,
                -0.0,
                0.0,
                f64::MIN_POSITIVE,
                0.5 * LN_2,
                LN_2,
                1.0,
                2.5,
                25.0,
                300.0,
                699.0,
                700.0,
            ],
            [
                0.0,
                f64::MIN_POSITIVE,
                0.25 * PI,
                FRAC_PI_2.next_down(),
                FRAC_PI_2,
                FRAC_PI_2.next_up(),
                0.75 * PI,
                PI.next_down(),
                PI,
                PI.next_up(),
                1.5 * PI,
                1.75 * PI,
                TAU.next_down(),
                TAU,
                1.0,
                4.0,
            ],
        ]
    }

    /// Each tier's build of the kernels gives the portable bits on every
    /// edge input: the inputs go through a loop that [`Tier::run`]
    /// compiles for the tier (vectorized in an optimized build), behind a
    /// `black_box` so the compiler cannot fold them.
    #[test]
    fn every_tier_build_of_the_kernels_gives_the_portable_bits() {
        use super::Tier;
        let bits = |column: [f64; 16]| column.map(f64::to_bits);
        let [ln_in, exp_in, angles] = edge_inputs();
        let want = [
            bits(ln_in.map(super::ln)),
            bits(exp_in.map(super::exp)),
            bits(angles.map(|t| super::sincos(t).0)),
            bits(angles.map(|t| super::sincos(t).1)),
        ];
        for tier in Tier::ALL {
            if !tier.supported() {
                eprintln!("skipping the {tier:?} tier: this host cannot run it");
                continue;
            }
            let [ln_in, exp_in, angles] = std::hint::black_box(edge_inputs());
            // Columns: ln, exp, sin, cos.
            let got = tier.run(|| {
                let mut got = [[0.0f64; 16]; 4];
                let [ln_out, exp_out, sin_out, cos_out] = &mut got;
                for i in 0..16 {
                    ln_out[i] = super::ln(ln_in[i]);
                    exp_out[i] = super::exp(exp_in[i]);
                    (sin_out[i], cos_out[i]) = super::sincos(angles[i]);
                }
                got
            });
            for (kernel, (got, want)) in ["ln", "exp", "sin", "cos"]
                .iter()
                .zip(got.map(bits).iter().zip(&want))
            {
                assert_eq!(
                    got, want,
                    "{tier:?} {kernel} diverged from the portable kernel"
                );
            }
        }
    }

    mod properties {
        use super::ulp_diff;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            // `ln` over exactly the words the Box–Muller sampler feeds it:
            // `unit_f64_from_word` clamped away from zero. Word 0 exercises
            // the `MIN_POSITIVE` clamp edge, `u64::MAX` the u → 1 edge.
            #[test]
            fn ln_stays_within_one_ulp_over_sampler_words(word in 0u64..u64::MAX) {
                for w in [word, 0, u64::MAX] {
                    let u = rand::unit_f64_from_word(w).max(f64::MIN_POSITIVE);
                    prop_assert!(
                        ulp_diff(super::super::ln(u), u.ln()) <= 1,
                        "ln({u}) off by more than 1 ulp"
                    );
                    // The exponential sampler's domain: ln(1 − u), u < 1.
                    let v = 1.0 - rand::unit_f64_from_word(w);
                    if v > 0.0 {
                        prop_assert!(
                            ulp_diff(super::super::ln(v), v.ln()) <= 1,
                            "ln({v}) off by more than 1 ulp"
                        );
                    }
                }
            }

            // `ln` over the full positive-normal range it documents, far
            // beyond what any sampler produces.
            #[test]
            fn ln_stays_within_one_ulp_over_wide_magnitudes(
                mantissa in 1u64..(1u64 << 52),
                exponent in 1u64..2046,
            ) {
                let x = f64::from_bits((exponent << 52) | mantissa);
                prop_assert!(
                    ulp_diff(super::super::ln(x), x.ln()) <= 1,
                    "ln({x:e}) off by more than 1 ulp"
                );
            }

            // `exp` over its documented |x| ≤ 700 domain (the noise factor
            // only ever sees |x| of a few sigma).
            #[test]
            fn exp_stays_within_one_ulp_over_its_domain(x in -700.0f64..700.0) {
                prop_assert!(
                    ulp_diff(super::super::exp(x), x.exp()) <= 1,
                    "exp({x}) off by more than 1 ulp"
                );
            }

            // `sincos` over the Box–Muller angle domain τ·u2, u2 ∈ [0, 1).
            #[test]
            fn sincos_stays_within_bound_over_the_angle_domain(word in 0u64..u64::MAX) {
                for w in [word, 0, u64::MAX] {
                    let theta = core::f64::consts::TAU * rand::unit_f64_from_word(w);
                    let (s, c) = super::super::sincos(theta);
                    for (got, want) in [(s, theta.sin()), (c, theta.cos())] {
                        prop_assert!(
                            ulp_diff(got, want) <= 2 || (got - want).abs() <= 2.5e-16,
                            "sincos({theta}) drifted: got {got}, std {want}"
                        );
                    }
                }
            }
        }
    }
}
