//! Vectorizable polynomial transcendental kernels for the draw layer.
//!
//! `std`'s `ln`/`exp`/`cos` call the platform libm: accurate, but scalar,
//! opaque, and host-dependent. The batched frame engine needs columns of
//! Box–Muller and inversion transforms whose results are **reproducible bit
//! for bit** on every host and engine, which rules the libm out of the hot
//! path. This module provides fdlibm-derived polynomial kernels in three
//! interchangeable [`Tier`]s:
//!
//! * portable scalar kernels ([`ln`], [`exp`], [`sincos`]) built only from
//!   IEEE-754 single-rounding primitives (`+ - * / sqrt`) and exact
//!   integer bit manipulation;
//! * 4-wide AVX2 forms (`ln4`/`exp4`/`sincos4`), and
//! * 8-wide AVX-512 forms (`ln8`/`exp8`/`sincos8`, `avx512f` +
//!   `avx512dq`), which the crate's `column` passes use; both vector tiers
//!   execute the **same operation DAG per lane** with the vector forms of
//!   those same primitives.
//!
//! Because every floating-point operation used is exactly rounded and
//! identical on every tier — there is deliberately **no FMA** anywhere, no
//! approximate reciprocal/rsqrt instructions, the polynomials keep their
//! evaluation order, and every selection (quadrant, exponent) is
//! integer-exact — the SIMD and portable paths produce identical bits, not
//! approximately-equal values. The AVX-512 tier swaps an emulated step for
//! a native instruction only where that instruction gives the same bits:
//! `vcvtqq2pd` for the small `ln` exponent (exact below 2^53), and mask
//! blends plus masked sign XORs for the `sincos` quadrant. Tests run each
//! kernel at every tier the host supports against the portable pass, and a
//! CI run with `XR_FORCE_PORTABLE=1` re-runs the gates on the portable
//! passes alone.
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
//! `XR_FORCE_PORTABLE=1` (any value but `0`) turns off every SIMD tier in
//! this crate (see [`Tier::dispatched`]) so CI can exercise the portable
//! kernels on SIMD hosts; because the tiers are bit-identical, the knob
//! never changes results.

use std::sync::OnceLock;

/// One implementation tier of the draw layer's column passes. Every tier
/// computes the same bits; they differ only in how many lanes one
/// instruction covers. Ordered by width, so a host that runs a tier also
/// runs every tier below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The scalar reference passes; every host runs them.
    Portable,
    /// 4-wide AVX2 passes, the portable pass finishing any tail.
    Avx2,
    /// 8-wide AVX-512 passes (`avx512f` + `avx512dq`), masked loads and
    /// stores covering any tail.
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

    /// The tier every dispatched pass in this crate takes: the widest one
    /// the CPU supports, or [`Tier::Portable`] when `XR_FORCE_PORTABLE` is
    /// set (to anything but `0`). Resolved once per process.
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

    /// `self`, after checking that the host can run it.
    ///
    /// # Panics
    ///
    /// Panics if the host's CPU does not support the tier.
    #[must_use]
    pub(crate) fn checked(self) -> Tier {
        assert!(self.supported(), "this host cannot run the {self:?} tier");
        self
    }
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
/// round-to-even both kernel paths share.
const MAGIC: f64 = f64::from_bits(0x4338_0000_0000_0000);

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
// Portable scalar kernels. Each is written as the exact op DAG the vector
// lanes replay; keep any edit mirrored in `avx2` and `avx512` below.
// ---------------------------------------------------------------------------

/// Natural log of a positive normal finite `x` (fdlibm `e_log`, general
/// path). See the module docs for domain and accuracy.
#[must_use]
#[inline]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits().wrapping_add(LOG_RECENTER);
    let k = ((bits >> 52) as i64) - 1023;
    let m = f64::from_bits((bits & MANT_MASK).wrapping_add(SQRT2_OVER_2_HI));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    let dk = k as f64;
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// `e^x` for `|x| ≤ 700` (fdlibm `e_exp` with round-to-even reduction).
/// See the module docs for domain and accuracy.
#[must_use]
#[inline]
pub fn exp(x: f64) -> f64 {
    let t = x * INV_LN2 + MAGIC;
    let k = (t.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
    let kf = t - MAGIC;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P[0] + rr * (P[1] + rr * (P[2] + rr * (P[3] + rr * P[4]))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Exact 2^k scaling: k ∈ [-1010, 1010] on the documented domain and
    // y ∈ [~0.69, ~1.42], so the exponent-field add cannot over/underflow.
    f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52))
}

/// `(sin θ, cos θ)` for `θ ∈ [0, 2π]` — one reduction and two polynomials,
/// so the Box–Muller pair costs barely more than its first variate. See
/// the module docs for domain and accuracy.
#[must_use]
#[inline]
pub fn sincos(theta: f64) -> (f64, f64) {
    let t = theta * INV_PIO2 + MAGIC;
    let n = (t.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
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
    // Quadrant rotation: an exact selection/sign flip, so branching here
    // is safe for bit-identity (the vector lanes blend with the same masks).
    match n & 3 {
        0 => (sin_r, cos_r),
        1 => (cos_r, -sin_r),
        2 => (-sin_r, -cos_r),
        _ => (-cos_r, sin_r),
    }
}

/// The 4-wide AVX2 forms of the scalar kernels. Each function replays its
/// scalar counterpart's operation DAG with the vector forms of the same
/// single-rounding primitives, so lanes are bit-identical to scalar calls;
/// integer work (exponent extraction, round-to-even bit subtract, quadrant
/// selection) uses exact 64-bit SIMD integer ops.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use super::{
        C, INV_LN2, INV_PIO2, LG, LN2_HI, LN2_LO, LOG_RECENTER, MAGIC, MANT_MASK, P, PIO2_1,
        PIO2_2, PIO2_3, S, SQRT2_OVER_2_HI,
    };
    use core::arch::x86_64::{
        __m256d, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256,
        _mm256_blendv_pd, _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64,
        _mm256_div_pd, _mm256_mul_pd, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_sub_epi64, _mm256_sub_pd, _mm256_xor_pd,
    };

    /// `2^52 + 1075`, exactly representable; subtracting it undoes the
    /// exponent-bias trick in [`small_i64_to_f64`].
    const I64_BIAS: f64 = ((1u64 << 52) + 1075) as f64;

    /// Exact conversion of per-lane small integers (here `k + 1075`, always
    /// in `[53, 2100)`) to doubles: OR the value into the mantissa of
    /// `2^52`, reinterpret, subtract the bias. Every step is exact, so this
    /// equals the scalar `k as f64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn small_i64_to_f64(k_plus_1075: core::arch::x86_64::__m256i) -> __m256d {
        let biased = _mm256_or_si256(k_plus_1075, _mm256_set1_epi64x(0x4330_0000_0000_0000));
        _mm256_sub_pd(_mm256_castsi256_pd(biased), _mm256_set1_pd(I64_BIAS))
    }

    /// Vector form of [`super::ln`]: same recentered exponent split, same
    /// polynomial, same summation order per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn ln4(x: __m256d) -> __m256d {
        let bits = _mm256_add_epi64(
            _mm256_castpd_si256(x),
            _mm256_set1_epi64x(LOG_RECENTER as i64),
        );
        // Positive normal inputs keep the (biased-exponent) field below
        // 0x7FF after recentering, so a logical shift extracts it exactly.
        let k_plus_1075 = _mm256_add_epi64(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(52));
        let dk = small_i64_to_f64(k_plus_1075);
        let m = _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_and_si256(bits, _mm256_set1_epi64x(MANT_MASK as i64)),
            _mm256_set1_epi64x(SQRT2_OVER_2_HI as i64),
        ));
        let f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
        let hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
        let s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
        let z = _mm256_mul_pd(s, s);
        let w = _mm256_mul_pd(z, z);
        let lg = |i: usize| _mm256_set1_pd(LG[i]);
        let t1 = _mm256_mul_pd(
            w,
            _mm256_add_pd(
                lg(1),
                _mm256_mul_pd(w, _mm256_add_pd(lg(3), _mm256_mul_pd(w, lg(5)))),
            ),
        );
        let t2 = _mm256_mul_pd(
            z,
            _mm256_add_pd(
                lg(0),
                _mm256_mul_pd(
                    w,
                    _mm256_add_pd(
                        lg(2),
                        _mm256_mul_pd(w, _mm256_add_pd(lg(4), _mm256_mul_pd(w, lg(6)))),
                    ),
                ),
            ),
        );
        let r = _mm256_add_pd(t2, t1);
        // dk*LN2_HI - ((hfsq - (s*(hfsq+r) + dk*LN2_LO)) - f)
        let inner = _mm256_sub_pd(
            _mm256_sub_pd(
                hfsq,
                _mm256_add_pd(
                    _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                    _mm256_mul_pd(dk, _mm256_set1_pd(LN2_LO)),
                ),
            ),
            f,
        );
        _mm256_sub_pd(_mm256_mul_pd(dk, _mm256_set1_pd(LN2_HI)), inner)
    }

    /// Vector form of [`super::exp`]: same round-to-even bit subtract, same
    /// Cody–Waite reduction and polynomial, same exact `2^k` exponent add.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn exp4(x: __m256d) -> __m256d {
        let magic = _mm256_set1_pd(MAGIC);
        let t = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(INV_LN2)), magic);
        let k = _mm256_sub_epi64(
            _mm256_castpd_si256(t),
            _mm256_set1_epi64x(MAGIC.to_bits() as i64),
        );
        let kf = _mm256_sub_pd(t, magic);
        let hi = _mm256_sub_pd(x, _mm256_mul_pd(kf, _mm256_set1_pd(LN2_HI)));
        let lo = _mm256_mul_pd(kf, _mm256_set1_pd(LN2_LO));
        let r = _mm256_sub_pd(hi, lo);
        let rr = _mm256_mul_pd(r, r);
        let p = |i: usize| _mm256_set1_pd(P[i]);
        let poly = _mm256_add_pd(
            p(0),
            _mm256_mul_pd(
                rr,
                _mm256_add_pd(
                    p(1),
                    _mm256_mul_pd(
                        rr,
                        _mm256_add_pd(
                            p(2),
                            _mm256_mul_pd(rr, _mm256_add_pd(p(3), _mm256_mul_pd(rr, p(4)))),
                        ),
                    ),
                ),
            ),
        );
        let c = _mm256_sub_pd(r, _mm256_mul_pd(rr, poly));
        let one = _mm256_set1_pd(1.0);
        let y = _mm256_sub_pd(
            one,
            _mm256_sub_pd(
                _mm256_sub_pd(
                    lo,
                    _mm256_div_pd(_mm256_mul_pd(r, c), _mm256_sub_pd(_mm256_set1_pd(2.0), c)),
                ),
                hi,
            ),
        );
        _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(y),
            _mm256_slli_epi64::<52>(k),
        ))
    }

    /// Vector form of [`super::sincos`]: same reduction and polynomials;
    /// the quadrant `match` becomes an exact blend plus sign-bit XORs
    /// (negation is a sign flip in both paths, so lanes stay identical).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn sincos4(theta: __m256d) -> (__m256d, __m256d) {
        let magic = _mm256_set1_pd(MAGIC);
        let t = _mm256_add_pd(_mm256_mul_pd(theta, _mm256_set1_pd(INV_PIO2)), magic);
        let n = _mm256_sub_epi64(
            _mm256_castpd_si256(t),
            _mm256_set1_epi64x(MAGIC.to_bits() as i64),
        );
        let nf = _mm256_sub_pd(t, magic);
        let r = _mm256_sub_pd(
            _mm256_sub_pd(
                _mm256_sub_pd(theta, _mm256_mul_pd(nf, _mm256_set1_pd(PIO2_1))),
                _mm256_mul_pd(nf, _mm256_set1_pd(PIO2_2)),
            ),
            _mm256_mul_pd(nf, _mm256_set1_pd(PIO2_3)),
        );
        let z = _mm256_mul_pd(r, r);
        let v = _mm256_mul_pd(z, r);
        let s = |i: usize| _mm256_set1_pd(S[i]);
        let sp = _mm256_add_pd(
            s(1),
            _mm256_mul_pd(
                z,
                _mm256_add_pd(
                    s(2),
                    _mm256_mul_pd(
                        z,
                        _mm256_add_pd(
                            s(3),
                            _mm256_mul_pd(z, _mm256_add_pd(s(4), _mm256_mul_pd(z, s(5)))),
                        ),
                    ),
                ),
            ),
        );
        let sin_r = _mm256_add_pd(
            r,
            _mm256_mul_pd(v, _mm256_add_pd(s(0), _mm256_mul_pd(z, sp))),
        );
        let c = |i: usize| _mm256_set1_pd(C[i]);
        let cp = _mm256_mul_pd(
            z,
            _mm256_add_pd(
                c(0),
                _mm256_mul_pd(
                    z,
                    _mm256_add_pd(
                        c(1),
                        _mm256_mul_pd(
                            z,
                            _mm256_add_pd(
                                c(2),
                                _mm256_mul_pd(
                                    z,
                                    _mm256_add_pd(
                                        c(3),
                                        _mm256_mul_pd(
                                            z,
                                            _mm256_add_pd(c(4), _mm256_mul_pd(z, c(5))),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let one = _mm256_set1_pd(1.0);
        let hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
        let w = _mm256_sub_pd(one, hz);
        let cos_r = _mm256_add_pd(
            w,
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_sub_pd(one, w), hz),
                _mm256_mul_pd(z, cp),
            ),
        );
        // Quadrant n & 3: odd quadrants swap sin/cos; sin flips sign when
        // n & 2, cos flips sign when (n + 1) & 2 — exactly the scalar match
        // arms 0:(s,c) 1:(c,-s) 2:(-s,-c) 3:(-c,s).
        let one_i = _mm256_set1_epi64x(1);
        let two_i = _mm256_set1_epi64x(2);
        let swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(n, one_i), one_i));
        let neg_zero = _mm256_set1_pd(-0.0);
        let sin_flip = _mm256_and_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(n, two_i), two_i)),
            neg_zero,
        );
        let n1 = _mm256_add_epi64(n, one_i);
        let cos_flip = _mm256_and_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(n1, two_i), two_i)),
            neg_zero,
        );
        let sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_flip);
        let cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_flip);
        (sin_out, cos_out)
    }
}

/// The 8-wide AVX-512 forms of the scalar kernels (`avx512f` +
/// `avx512dq`). Each replays its scalar counterpart's operation DAG with
/// the 512-bit forms of the same single-rounding primitives, exactly as the
/// AVX2 forms do. Two emulated AVX2 steps become native instructions that
/// give the same bits: the `ln` exponent converts with `vcvtqq2pd` (the
/// integer is small, so the conversion is exact), and the `sincos`
/// quadrant selects with mask blends and masked sign-bit XORs.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx512 {
    use super::{
        C, INV_LN2, INV_PIO2, LG, LN2_HI, LN2_LO, LOG_RECENTER, MAGIC, MANT_MASK, P, PIO2_1,
        PIO2_2, PIO2_3, S, SQRT2_OVER_2_HI,
    };
    use core::arch::x86_64::{
        __m512d, _mm512_add_epi64, _mm512_add_pd, _mm512_and_si512, _mm512_castpd_si512,
        _mm512_castsi512_pd, _mm512_cvtepi64_pd, _mm512_div_pd, _mm512_mask_blend_pd,
        _mm512_mask_xor_pd, _mm512_mul_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_slli_epi64,
        _mm512_srli_epi64, _mm512_sub_epi64, _mm512_sub_pd, _mm512_test_epi64_mask,
    };

    /// Vector form of [`super::ln`]: same recentered exponent split, same
    /// polynomial, same summation order per lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) fn ln8(x: __m512d) -> __m512d {
        let bits = _mm512_add_epi64(
            _mm512_castpd_si512(x),
            _mm512_set1_epi64(LOG_RECENTER as i64),
        );
        // Positive normal inputs keep the (biased-exponent) field below
        // 0x7FF after recentering, so a logical shift extracts it exactly,
        // and `k` is small enough that the conversion is exact.
        let k = _mm512_sub_epi64(_mm512_srli_epi64::<52>(bits), _mm512_set1_epi64(1023));
        let dk = _mm512_cvtepi64_pd(k);
        let m = _mm512_castsi512_pd(_mm512_add_epi64(
            _mm512_and_si512(bits, _mm512_set1_epi64(MANT_MASK as i64)),
            _mm512_set1_epi64(SQRT2_OVER_2_HI as i64),
        ));
        let f = _mm512_sub_pd(m, _mm512_set1_pd(1.0));
        let hfsq = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), f), f);
        let s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
        let z = _mm512_mul_pd(s, s);
        let w = _mm512_mul_pd(z, z);
        let lg = |i: usize| _mm512_set1_pd(LG[i]);
        let t1 = _mm512_mul_pd(
            w,
            _mm512_add_pd(
                lg(1),
                _mm512_mul_pd(w, _mm512_add_pd(lg(3), _mm512_mul_pd(w, lg(5)))),
            ),
        );
        let t2 = _mm512_mul_pd(
            z,
            _mm512_add_pd(
                lg(0),
                _mm512_mul_pd(
                    w,
                    _mm512_add_pd(
                        lg(2),
                        _mm512_mul_pd(w, _mm512_add_pd(lg(4), _mm512_mul_pd(w, lg(6)))),
                    ),
                ),
            ),
        );
        let r = _mm512_add_pd(t2, t1);
        // dk*LN2_HI - ((hfsq - (s*(hfsq+r) + dk*LN2_LO)) - f)
        let inner = _mm512_sub_pd(
            _mm512_sub_pd(
                hfsq,
                _mm512_add_pd(
                    _mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
                    _mm512_mul_pd(dk, _mm512_set1_pd(LN2_LO)),
                ),
            ),
            f,
        );
        _mm512_sub_pd(_mm512_mul_pd(dk, _mm512_set1_pd(LN2_HI)), inner)
    }

    /// Vector form of [`super::exp`]: same round-to-even bit subtract, same
    /// Cody–Waite reduction and polynomial, same exact `2^k` exponent add.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) fn exp8(x: __m512d) -> __m512d {
        let magic = _mm512_set1_pd(MAGIC);
        let t = _mm512_add_pd(_mm512_mul_pd(x, _mm512_set1_pd(INV_LN2)), magic);
        let k = _mm512_sub_epi64(
            _mm512_castpd_si512(t),
            _mm512_set1_epi64(MAGIC.to_bits() as i64),
        );
        let kf = _mm512_sub_pd(t, magic);
        let hi = _mm512_sub_pd(x, _mm512_mul_pd(kf, _mm512_set1_pd(LN2_HI)));
        let lo = _mm512_mul_pd(kf, _mm512_set1_pd(LN2_LO));
        let r = _mm512_sub_pd(hi, lo);
        let rr = _mm512_mul_pd(r, r);
        let p = |i: usize| _mm512_set1_pd(P[i]);
        let poly = _mm512_add_pd(
            p(0),
            _mm512_mul_pd(
                rr,
                _mm512_add_pd(
                    p(1),
                    _mm512_mul_pd(
                        rr,
                        _mm512_add_pd(
                            p(2),
                            _mm512_mul_pd(rr, _mm512_add_pd(p(3), _mm512_mul_pd(rr, p(4)))),
                        ),
                    ),
                ),
            ),
        );
        let c = _mm512_sub_pd(r, _mm512_mul_pd(rr, poly));
        let one = _mm512_set1_pd(1.0);
        let y = _mm512_sub_pd(
            one,
            _mm512_sub_pd(
                _mm512_sub_pd(
                    lo,
                    _mm512_div_pd(_mm512_mul_pd(r, c), _mm512_sub_pd(_mm512_set1_pd(2.0), c)),
                ),
                hi,
            ),
        );
        _mm512_castsi512_pd(_mm512_add_epi64(
            _mm512_castpd_si512(y),
            _mm512_slli_epi64::<52>(k),
        ))
    }

    /// Vector form of [`super::sincos`]: same reduction and polynomials;
    /// the quadrant `match` becomes mask blends plus masked sign-bit XORs
    /// (negation is a sign flip in both paths, so lanes stay identical).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) fn sincos8(theta: __m512d) -> (__m512d, __m512d) {
        let magic = _mm512_set1_pd(MAGIC);
        let t = _mm512_add_pd(_mm512_mul_pd(theta, _mm512_set1_pd(INV_PIO2)), magic);
        let n = _mm512_sub_epi64(
            _mm512_castpd_si512(t),
            _mm512_set1_epi64(MAGIC.to_bits() as i64),
        );
        let nf = _mm512_sub_pd(t, magic);
        let r = _mm512_sub_pd(
            _mm512_sub_pd(
                _mm512_sub_pd(theta, _mm512_mul_pd(nf, _mm512_set1_pd(PIO2_1))),
                _mm512_mul_pd(nf, _mm512_set1_pd(PIO2_2)),
            ),
            _mm512_mul_pd(nf, _mm512_set1_pd(PIO2_3)),
        );
        let z = _mm512_mul_pd(r, r);
        let v = _mm512_mul_pd(z, r);
        let s = |i: usize| _mm512_set1_pd(S[i]);
        let sp = _mm512_add_pd(
            s(1),
            _mm512_mul_pd(
                z,
                _mm512_add_pd(
                    s(2),
                    _mm512_mul_pd(
                        z,
                        _mm512_add_pd(
                            s(3),
                            _mm512_mul_pd(z, _mm512_add_pd(s(4), _mm512_mul_pd(z, s(5)))),
                        ),
                    ),
                ),
            ),
        );
        let sin_r = _mm512_add_pd(
            r,
            _mm512_mul_pd(v, _mm512_add_pd(s(0), _mm512_mul_pd(z, sp))),
        );
        let c = |i: usize| _mm512_set1_pd(C[i]);
        let cp = _mm512_mul_pd(
            z,
            _mm512_add_pd(
                c(0),
                _mm512_mul_pd(
                    z,
                    _mm512_add_pd(
                        c(1),
                        _mm512_mul_pd(
                            z,
                            _mm512_add_pd(
                                c(2),
                                _mm512_mul_pd(
                                    z,
                                    _mm512_add_pd(
                                        c(3),
                                        _mm512_mul_pd(
                                            z,
                                            _mm512_add_pd(c(4), _mm512_mul_pd(z, c(5))),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let one = _mm512_set1_pd(1.0);
        let hz = _mm512_mul_pd(_mm512_set1_pd(0.5), z);
        let w = _mm512_sub_pd(one, hz);
        let cos_r = _mm512_add_pd(
            w,
            _mm512_add_pd(
                _mm512_sub_pd(_mm512_sub_pd(one, w), hz),
                _mm512_mul_pd(z, cp),
            ),
        );
        // Quadrant n & 3: odd quadrants swap sin/cos; sin flips sign when
        // n & 2, cos flips sign when (n + 1) & 2 — exactly the scalar match
        // arms 0:(s,c) 1:(c,-s) 2:(-s,-c) 3:(-c,s).
        let one_i = _mm512_set1_epi64(1);
        let two_i = _mm512_set1_epi64(2);
        let swap = _mm512_test_epi64_mask(n, one_i);
        let sin_flip = _mm512_test_epi64_mask(n, two_i);
        let cos_flip = _mm512_test_epi64_mask(_mm512_add_epi64(n, one_i), two_i);
        let neg_zero = _mm512_set1_pd(-0.0);
        let sin_sel = _mm512_mask_blend_pd(swap, sin_r, cos_r);
        let cos_sel = _mm512_mask_blend_pd(swap, cos_r, sin_r);
        (
            _mm512_mask_xor_pd(sin_sel, sin_flip, sin_sel, neg_zero),
            _mm512_mask_xor_pd(cos_sel, cos_flip, cos_sel, neg_zero),
        )
    }
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

    /// The 4-wide and 8-wide kernels give the scalar kernels' bits, lane by
    /// lane, on every SIMD tier the host runs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn vector_kernels_match_the_scalar_kernels_bit_for_bit() {
        use super::Tier;
        use core::arch::x86_64::{
            _mm256_loadu_pd, _mm256_storeu_pd, _mm512_loadu_pd, _mm512_storeu_pd,
        };
        let [ln_in, exp_in, angles] = edge_inputs();
        let bits = |column: [f64; 16]| column.map(f64::to_bits);
        let want = [
            bits(ln_in.map(super::ln)),
            bits(exp_in.map(super::exp)),
            bits(angles.map(|t| super::sincos(t).0)),
            bits(angles.map(|t| super::sincos(t).1)),
        ];
        for tier in [Tier::Avx2, Tier::Avx512] {
            if !tier.supported() {
                eprintln!("skipping the {tier:?} tier: this host cannot run it");
                continue;
            }
            // Columns: ln, exp, sin, cos.
            let mut got = [[0.0f64; 16]; 4];
            let [ln_out, exp_out, sin_out, cos_out] = &mut got;
            if tier == Tier::Avx2 {
                for i in (0..16).step_by(4) {
                    // SAFETY: the host runs AVX2, and every load and store
                    // covers elements `i..i + 4` of a 16-element array.
                    unsafe {
                        let ln = super::avx2::ln4(_mm256_loadu_pd(ln_in[i..].as_ptr()));
                        _mm256_storeu_pd(ln_out[i..].as_mut_ptr(), ln);
                        let exp = super::avx2::exp4(_mm256_loadu_pd(exp_in[i..].as_ptr()));
                        _mm256_storeu_pd(exp_out[i..].as_mut_ptr(), exp);
                        let (sin, cos) =
                            super::avx2::sincos4(_mm256_loadu_pd(angles[i..].as_ptr()));
                        _mm256_storeu_pd(sin_out[i..].as_mut_ptr(), sin);
                        _mm256_storeu_pd(cos_out[i..].as_mut_ptr(), cos);
                    }
                }
            } else {
                for i in (0..16).step_by(8) {
                    // SAFETY: the host runs AVX-512F/DQ, and every load and
                    // store covers elements `i..i + 8` of a 16-element array.
                    unsafe {
                        let ln = super::avx512::ln8(_mm512_loadu_pd(ln_in[i..].as_ptr()));
                        _mm512_storeu_pd(ln_out[i..].as_mut_ptr(), ln);
                        let exp = super::avx512::exp8(_mm512_loadu_pd(exp_in[i..].as_ptr()));
                        _mm512_storeu_pd(exp_out[i..].as_mut_ptr(), exp);
                        let (sin, cos) =
                            super::avx512::sincos8(_mm512_loadu_pd(angles[i..].as_ptr()));
                        _mm512_storeu_pd(sin_out[i..].as_mut_ptr(), sin);
                        _mm512_storeu_pd(cos_out[i..].as_mut_ptr(), cos);
                    }
                }
            }
            for (kernel, (got, want)) in ["ln", "exp", "sin", "cos"]
                .iter()
                .zip(got.map(bits).iter().zip(&want))
            {
                assert_eq!(
                    got, want,
                    "{tier:?} {kernel} diverged from the scalar kernel"
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
