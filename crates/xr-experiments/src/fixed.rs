//! Exact fixed-point number rendering for the campaign CSV.
//!
//! [`push_fixed`] appends the same bytes as `format!("{value:.decimals$}")`
//! without going through `core::fmt`: it scales the float's integer
//! mantissa by `10^decimals` in `u128` arithmetic, rounds half to even on
//! the exact remainder (the rule `std` applies to the exact binary value),
//! and writes the digits from a stack buffer.

use std::fmt::Write as _;

/// `10^d` for every supported `decimals`.
const POW10: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// Magnitude from which [`push_fixed`] hands the value to `core::fmt`.
/// Below it the scaled value `|x| · 10^4` stays under `2^64`.
const EXACT_BOUND: f64 = 1e15;

/// Appends `value` rounded to `decimals` (at most 4) fraction digits,
/// byte for byte what `write!(out, "{value:.decimals$}")` appends: a `-`
/// for every value with the sign bit set (so `-0.0` and tiny negatives
/// print `-0.000`), then the integer digits, then `.` and exactly
/// `decimals` digits when `decimals > 0`. Non-finite values and values of
/// magnitude at least `1e15` go through `write!` itself.
///
/// # Panics
///
/// Panics if `decimals > 4`.
pub(crate) fn push_fixed(out: &mut String, value: f64, decimals: usize) {
    let scale = POW10[decimals];
    if !value.is_finite() || value.abs() >= EXACT_BOUND {
        let _ = write!(out, "{value:.decimals$}");
        return;
    }
    let bits = value.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // `|value| = mantissa · 2^exponent`, exactly.
    let (mantissa, exponent) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let scaled = u128::from(mantissa) * u128::from(scale);
    let units = if exponent >= 0 {
        // An integer below 1e15, so the product stays below 1e19.
        scaled << exponent
    } else {
        let shift = exponent.unsigned_abs();
        if shift >= 128 {
            // `scaled < 2^67`, so the value is below `2^-61` units: rounds
            // to zero.
            0
        } else {
            let quotient = scaled >> shift;
            let remainder = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            let round_up = remainder > half || (remainder == half && quotient & 1 == 1);
            quotient + u128::from(round_up)
        }
    };
    let units = u64::try_from(units).expect("|value| < 1e15 scales below 1e19");
    if bits >> 63 == 1 {
        out.push('-');
    }
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut rest = units;
    if decimals > 0 {
        // The last `decimals` digits of the units are the fraction's, taken
        // off by the constant divisor 10 rather than by `scale`.
        for _ in 0..decimals {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        at -= 1;
        buf[at] = b'.';
    }
    at = write_digits(&mut buf[..at], rest);
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends `value` in decimal, as `write!(out, "{value}")` does.
pub(crate) fn push_uint(out: &mut String, value: u64) {
    let mut buf = [0u8; 20];
    let at = write_digits(&mut buf, value);
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Writes the decimal digits of `value` (at least one) right-aligned at the
/// end of `buf` and returns where they start.
fn write_digits(buf: &mut [u8], mut value: u64) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            return at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(value: f64, decimals: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, value, decimals);
        out
    }

    fn assert_matches_std(value: f64, decimals: usize) {
        assert_eq!(
            fixed(value, decimals),
            format!("{value:.decimals$}"),
            "{value:e} ({:#018x}) at {decimals} decimals",
            value.to_bits()
        );
    }

    #[test]
    fn ties_round_half_to_even_like_std() {
        for (value, decimals, expected) in [
            (0.125, 2, "0.12"),
            (0.375, 2, "0.38"),
            (2.5, 0, "2"),
            (3.5, 0, "4"),
            (0.5, 0, "0"),
            (1.5, 0, "2"),
            (-2.5, 0, "-2"),
            (0.0625, 3, "0.062"),
            (0.03125, 4, "0.0312"),
            (0.09375, 4, "0.0938"),
        ] {
            assert_eq!(fixed(value, decimals), expected, "{value} at {decimals}");
            assert_matches_std(value, decimals);
        }
    }

    #[test]
    fn signed_zeros_and_tiny_negatives_keep_their_sign() {
        assert_eq!(fixed(-0.0, 3), "-0.000");
        assert_eq!(fixed(0.0, 3), "0.000");
        assert_eq!(fixed(-1e-9, 3), "-0.000");
        assert_eq!(fixed(-0.0004, 3), "-0.000");
        assert_eq!(fixed(-0.0005, 3), "-0.001");
        for value in [-0.0, 0.0, -1e-9, -0.0004, -0.0005, -4e-5, -1e-300] {
            for decimals in 0..=4 {
                assert_matches_std(value, decimals);
            }
        }
    }

    #[test]
    fn subnormals_and_non_finite_values_match_std() {
        for value in [
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for decimals in 0..=4 {
                assert_matches_std(value, decimals);
            }
        }
    }

    #[test]
    fn values_around_the_exact_bound_match_std() {
        let below = f64::from_bits(EXACT_BOUND.to_bits() - 1);
        let above = f64::from_bits(EXACT_BOUND.to_bits() + 1);
        for value in [below, EXACT_BOUND, above, 999_999_999_999_999.5, 1e300] {
            for decimals in 0..=4 {
                assert_matches_std(value, decimals);
                assert_matches_std(-value, decimals);
            }
        }
        assert_eq!(fixed(999_999_999_999_999.9, 0), "1000000000000000");
    }

    #[test]
    fn integers_match_std() {
        for value in [0, 1, 9, 10, 99, 1_000_000, u64::MAX] {
            let mut out = String::from("x");
            push_uint(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn arbitrary_bit_patterns_match_std(bits in 0u64..u64::MAX, decimals in 0usize..5) {
            let value = f64::from_bits(bits);
            prop_assert_eq!(fixed(value, decimals), format!("{value:.decimals$}"));
        }

        #[test]
        fn bit_patterns_of_printable_magnitude_match_std(
            negative in 0u64..2,
            biased in 990u64..1080,
            fraction in 0u64..1 << 52,
            decimals in 0usize..5,
        ) {
            // Exponents from about 1e-5 to past the exact bound, where
            // arbitrary bit patterns rarely land but every CSV value does.
            let value = f64::from_bits(negative << 63 | biased << 52 | fraction);
            prop_assert_eq!(fixed(value, decimals), format!("{value:.decimals$}"));
        }

        #[test]
        fn csv_range_values_match_std(value in -1e4f64..1e6, decimals in 0usize..5) {
            prop_assert_eq!(fixed(value, decimals), format!("{value:.decimals$}"));
        }

        #[test]
        fn values_near_decimal_ties_match_std(
            units in 0u64..10_000_000,
            decimals in 0usize..5,
            nudge in 0u64..3,
        ) {
            // A half-unit tie at `decimals`, or one of its float neighbours.
            let tie = (units as f64 + 0.5) / POW10[decimals] as f64;
            let sign = if units % 2 == 0 { 1.0 } else { -1.0 };
            let value = f64::from_bits(tie.to_bits() + nudge).copysign(sign);
            prop_assert_eq!(fixed(value, decimals), format!("{value:.decimals$}"));
        }
    }
}
