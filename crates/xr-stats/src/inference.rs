//! Small-sample inference: the Student-t distribution and confidence
//! intervals for a sample mean.
//!
//! Replicated measurement campaigns evaluate each operating point with a
//! handful of independently seeded sessions (typically 3–10), where the
//! normal-approximation critical values used for the ≥10⁴-row regression
//! fits are badly anti-conservative (z₀.₉₇₅ ≈ 1.96 vs t₀.₉₇₅,₂ ≈ 4.30).
//! This module implements the exact t quantile from first principles — the
//! regularized incomplete beta function by continued fraction, inverted by
//! bisection — since no numerics crates are available offline.

use std::cell::RefCell;
use xr_types::{Error, Result};

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9;
/// |relative error| < 1e-13 over the positive reals).
fn ln_gamma(x: f64) -> f64 {
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFICIENTS[0];
    for (i, c) in COEFFICIENTS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Continued-fraction evaluation of the regularized incomplete beta
/// function `I_x(a, b)` (Lentz's method), valid for `x < (a+1)/(a+b+2)`.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITERATIONS: usize = 200;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITERATIONS {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// # Panics
///
/// Panics if `a` or `b` is not positive or `x` is outside `[0, 1]`.
#[must_use]
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x outside [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a), keeping the continued
        // fraction in its convergent region.
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Cumulative distribution function of the Student-t distribution with
/// `dof` degrees of freedom.
///
/// # Panics
///
/// Panics if `dof` is not positive or `t` is not finite.
#[must_use]
pub fn students_t_cdf(t: f64, dof: f64) -> f64 {
    assert!(dof > 0.0, "degrees of freedom must be positive");
    assert!(t.is_finite(), "t must be finite");
    let x = dof / (dof + t * t);
    let tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Distinct `(p, dof)` keys [`students_t_quantile`] remembers per thread.
/// A campaign asks for one or two (its confidence level at each replication
/// count), so the bound only matters to callers that sweep many levels.
const QUANTILE_MEMO_CAPACITY: usize = 32;

thread_local! {
    /// Quantiles already computed on this thread, keyed on the bit patterns
    /// of `(p, dof)`. Thread-local, so campaign workers never take a lock.
    static QUANTILE_MEMO: RefCell<Vec<((u64, u64), f64)>> =
        const { RefCell::new(Vec::new()) };
}

/// Quantile (inverse CDF) of the Student-t distribution with `dof` degrees
/// of freedom, by bisection on [`students_t_cdf`]: the CDF is strictly
/// monotone, so the bracket is halved (at most 200 times) until its width
/// falls to one f64 epsilon relative to its upper end.
///
/// The function is pure, so each thread remembers the first
/// `QUANTILE_MEMO_CAPACITY` (32) distinct `(p, dof)` pairs it computes and
/// returns the stored bits on a repeat call. Keys beyond the bound are
/// bisected every time; the result is bit-identical either way.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` or `dof` is not positive.
#[must_use]
pub fn students_t_quantile(p: f64, dof: f64) -> f64 {
    let key = (p.to_bits(), dof.to_bits());
    let cached = QUANTILE_MEMO.with_borrow(|memo| {
        memo.iter()
            .find_map(|&(k, value)| (k == key).then_some(value))
    });
    if let Some(value) = cached {
        return value;
    }
    let value = students_t_quantile_uncached(p, dof);
    QUANTILE_MEMO.with_borrow_mut(|memo| {
        if memo.len() < QUANTILE_MEMO_CAPACITY {
            memo.push((key, value));
        }
    });
    value
}

/// The bisection behind [`students_t_quantile`], without the memo.
fn students_t_quantile_uncached(p: f64, dof: f64) -> f64 {
    assert!(dof > 0.0, "degrees of freedom must be positive");
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
    if (p - 0.5).abs() < f64::EPSILON {
        return 0.0;
    }
    // Symmetry reduces to the upper half.
    if p < 0.5 {
        return -students_t_quantile_uncached(1.0 - p, dof);
    }
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    while students_t_cdf(hi, dof) < p {
        hi *= 2.0;
        assert!(hi.is_finite(), "t quantile search diverged");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if students_t_cdf(mid, dof) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Two-sided Student-t confidence interval for the mean of `values` at the
/// given confidence `level` (e.g. `0.95`). Returns `(lo, hi)`; with fewer
/// than two samples there is no dispersion information and the degenerate
/// `(mean, mean)` interval is returned.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] naming the bad input: `values` when
/// the sample is empty, `values[i]` for the first NaN or infinite sample,
/// and `level` when it is outside `(0, 1)`.
pub fn mean_confidence_interval(values: &[f64], level: f64) -> Result<(f64, f64)> {
    if values.is_empty() {
        return Err(Error::invalid_parameter(
            "values",
            "cannot infer from an empty sample",
        ));
    }
    if let Some((i, value)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err(Error::invalid_parameter(
            format!("values[{i}]"),
            format!("sample is {value}, not finite"),
        ));
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(Error::invalid_parameter(
            "level",
            format!("{level} is outside (0, 1)"),
        ));
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return Ok((mean, mean));
    }
    let sample_variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    let standard_error = (sample_variance / n as f64).sqrt();
    let t = students_t_quantile(0.5 + level / 2.0, (n - 1) as f64);
    Ok((mean - t * standard_error, mean + t * standard_error))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_and_beta_match_known_values() {
        // Γ(5) = 24, Γ(0.5) = √π.
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // I_x(1, 1) = x (uniform CDF).
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((regularized_incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        let v = regularized_incomplete_beta(2.5, 4.0, 0.3);
        let w = regularized_incomplete_beta(4.0, 2.5, 0.7);
        assert!((v + w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_matches_textbook_symmetry_and_tails() {
        assert!((students_t_cdf(0.0, 5.0) - 0.5).abs() < 1e-12);
        for t in [0.5, 1.3, 2.7] {
            let upper = students_t_cdf(t, 7.0);
            let lower = students_t_cdf(-t, 7.0);
            assert!((upper + lower - 1.0).abs() < 1e-12);
        }
        // dof = 1 is the Cauchy distribution: F(1) = 3/4.
        assert!((students_t_cdf(1.0, 1.0) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn t_quantiles_match_statistical_tables() {
        // Two-sided 95 % critical values.
        let cases = [
            (1.0, 12.706),
            (2.0, 4.303),
            (4.0, 2.776),
            (9.0, 2.262),
            (30.0, 2.042),
            (1000.0, 1.962),
        ];
        for (dof, expected) in cases {
            let t = students_t_quantile(0.975, dof);
            assert!(
                (t - expected).abs() < 2e-3,
                "t(0.975, {dof}) = {t}, expected {expected}"
            );
        }
        // Two-sided 99 %, dof 5 → 4.032.
        assert!((students_t_quantile(0.995, 5.0) - 4.032).abs() < 2e-3);
        assert_eq!(students_t_quantile(0.5, 3.0), 0.0);
        assert!((students_t_quantile(0.025, 4.0) + 2.776).abs() < 2e-3);
    }

    /// The memo-test grid: every small replication count plus a large
    /// one, at probabilities covering the `p < 0.5` symmetry branch and the
    /// `p = 0.5` early return.
    fn memo_keys() -> Vec<(f64, f64)> {
        let dofs = (1..=30).map(f64::from).chain([1000.0]);
        dofs.flat_map(|dof| [0.025, 0.5, 0.975, 0.995].map(|p| (p, dof)))
            .collect()
    }

    fn clear_memo() {
        QUANTILE_MEMO.with_borrow_mut(Vec::clear);
    }

    fn memo_len() -> usize {
        QUANTILE_MEMO.with_borrow(Vec::len)
    }

    #[test]
    fn memoized_quantiles_are_bit_identical_to_a_fresh_bisection() {
        for (p, dof) in memo_keys() {
            clear_memo();
            let first = students_t_quantile(p, dof);
            assert_eq!(memo_len(), 1, "t({p}, {dof}) was not remembered");
            let repeat = students_t_quantile(p, dof);
            let fresh = students_t_quantile_uncached(p, dof);
            assert_eq!(repeat.to_bits(), first.to_bits(), "t({p}, {dof}) repeat");
            assert_eq!(fresh.to_bits(), first.to_bits(), "t({p}, {dof}) fresh");
        }
    }

    #[test]
    fn quantiles_agree_across_threads() {
        let bits = || -> Vec<u64> {
            memo_keys()
                .into_iter()
                .map(|(p, dof)| students_t_quantile(p, dof).to_bits())
                .collect()
        };
        let here = bits();
        let there = std::thread::spawn(bits)
            .join()
            .expect("quantile thread panicked");
        assert_eq!(here, there);
    }

    #[test]
    fn memo_stays_at_its_bound() {
        clear_memo();
        let keys = memo_keys();
        assert!(keys.len() > QUANTILE_MEMO_CAPACITY);
        for &(p, dof) in &keys {
            let value = students_t_quantile(p, dof);
            assert!(memo_len() <= QUANTILE_MEMO_CAPACITY);
            // Keys past the bound are bisected afresh on every call.
            assert_eq!(
                students_t_quantile(p, dof).to_bits(),
                value.to_bits(),
                "t({p}, {dof})"
            );
        }
        assert_eq!(memo_len(), QUANTILE_MEMO_CAPACITY);
    }

    #[test]
    fn confidence_interval_brackets_the_mean() {
        let sample = [9.8, 10.1, 10.3, 9.9, 10.4];
        let (lo, hi) = mean_confidence_interval(&sample, 0.95).unwrap();
        let mean = sample.iter().sum::<f64>() / sample.len() as f64;
        assert!(lo < mean && mean < hi);
        // Manually: s = 0.2550, se = 0.1140, t = 2.776 → half-width 0.3165.
        assert!(((hi - lo) / 2.0 - 0.3165).abs() < 1e-3);
        // Wider level → wider interval.
        let (lo99, hi99) = mean_confidence_interval(&sample, 0.99).unwrap();
        assert!(lo99 < lo && hi99 > hi);
        // Degenerate single-sample interval.
        assert_eq!(mean_confidence_interval(&[3.5], 0.95), Ok((3.5, 3.5)));
    }

    #[test]
    fn confidence_interval_names_the_bad_input() {
        let name = |result: Result<(f64, f64)>| match result {
            Err(Error::InvalidParameter { name, .. }) => name,
            other => panic!("expected an invalid-parameter error, got {other:?}"),
        };
        assert_eq!(name(mean_confidence_interval(&[], 0.95)), "values");
        assert_eq!(
            name(mean_confidence_interval(&[1.0, 2.0, f64::NAN], 0.95)),
            "values[2]"
        );
        assert_eq!(
            name(mean_confidence_interval(&[f64::INFINITY, 2.0], 0.95)),
            "values[0]"
        );
        for level in [0.0, 1.0, f64::NAN] {
            assert_eq!(name(mean_confidence_interval(&[1.0, 2.0], level)), "level");
        }
    }

    #[test]
    fn seed_sweep_coverage_is_close_to_nominal() {
        // Seed-sweep property: draw replicated samples from a known
        // distribution and check the 95 % CI covers the true mean in ≳90 %
        // of seeds (the satellite-task acceptance bound; the binomial noise
        // floor over 300 seeds keeps 95 % well inside it).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rand_distr::{Distribution, Normal};
        let normal = Normal::new(50.0, 8.0).expect("valid sigma");
        let mut covered = 0usize;
        let seeds = 300;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample: Vec<f64> = (0..6).map(|_| normal.sample(&mut rng)).collect();
            let (lo, hi) = mean_confidence_interval(&sample, 0.95).unwrap();
            if (lo..=hi).contains(&50.0) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / seeds as f64;
        assert!(
            coverage >= 0.90,
            "95 % CI covered the true mean in only {coverage:.3} of seeds"
        );
        assert!(
            coverage <= 0.99,
            "coverage {coverage:.3} suspiciously high — interval too wide"
        );
    }
}
