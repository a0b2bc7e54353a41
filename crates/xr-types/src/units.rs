//! Physical-unit newtypes used throughout the workspace.
//!
//! Each unit wraps an `f64` and provides:
//!
//! * a validating constructor [`new`](Seconds::new) that panics on NaN,
//! * a non-validating `new_unchecked`-style constructor is intentionally not
//!   provided — quantities are cheap to validate,
//! * `as_f64` to read the raw value,
//! * arithmetic that stays inside the dimension where meaningful
//!   (`Seconds + Seconds`, `Seconds * f64`), and
//! * cross-dimension conversions where they correspond to a real physical
//!   relation (e.g. [`Watts`] × [`Seconds`] → [`Joules`]).
//!
//! All units are plain `Copy` data and serialize transparently as their inner
//! number so experiment artifacts stay easy to post-process. They are also
//! `#[repr(transparent)]`, so a slice of a unit has the layout of a slice of
//! `f64` (the SIMD column kernels load unit columns directly).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared newtype surface for a unit wrapper.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN. Negative values are allowed because
            /// several intermediate regression terms in the paper can be
            /// negative before being clamped by the caller.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                Self(value)
            }

            /// Returns the raw value.
            #[must_use]
            pub fn as_f64(self) -> f64 {
                self.0
            }

            /// Returns the value clamped below at zero.
            ///
            /// The paper's regression sub-models (Eqs. 3, 10, 12, 21) are only
            /// valid inside the measured covariate range; outside it they can
            /// dip below zero, so callers clamp.
            #[must_use]
            pub fn max_zero(self) -> Self {
                Self(self.0.max(0.0))
            }

            /// Returns `true` when the value is strictly positive and finite.
            #[must_use]
            pub fn is_positive(self) -> bool {
                self.0 > 0.0 && self.0.is_finite()
            }

            /// Returns the larger of the two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of the two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two quantities of the same dimension yields a
            /// dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self::new(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }
    };
}

unit!(
    /// A duration in seconds. End-to-end latencies (`L_tot`, Eq. 1) are
    /// expressed in this unit.
    Seconds,
    "s"
);
unit!(
    /// A duration in milliseconds, the unit the paper's figures use.
    MilliSeconds,
    "ms"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Energy in millijoules, the unit of Figs. 4(c)–(d).
    MilliJoules,
    "mJ"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Frequency in hertz (sensor information-generation frequency `f_t`,
    /// frame rate `n_fps`).
    Hertz,
    "Hz"
);
unit!(
    /// Clock frequency in gigahertz (CPU `f_c` and GPU `f_g` clocks).
    GigaHertz,
    "GHz"
);
unit!(
    /// Data size in megabytes (`δ` terms in the latency model).
    MegaBytes,
    "MB"
);
unit!(
    /// Memory bandwidth in gigabytes per second (`m_client`, `m_ε`).
    GigaBytesPerSecond,
    "GB/s"
);
unit!(
    /// Network throughput in megabits per second (`r_w`, Eq. 16).
    MegaBitsPerSecond,
    "Mbps"
);
unit!(
    /// Distance in meters (`d_mnq`, `d_ε`, `d_coop`).
    Meters,
    "m"
);
unit!(
    /// Speed in meters per second (propagation speed `c`, device velocity).
    MetersPerSecond,
    "m/s"
);
unit!(
    /// Frame area in pixels² (`s_f1`, `s_f2`, `s_f3`, `s_vol`). The paper
    /// sweeps 300–700 pixel² in Figs. 4–5.
    PixelsSquared,
    "px²"
);

/// A dimensionless ratio constrained to `[0, 1]`, e.g. the CPU utilisation
/// split `ω_c`, the local-inference decision `ω_loc`, or task-split factors
/// `ω_client` / `ω_edge`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Self = Self(0.0);
    /// The unit ratio.
    pub const ONE: Self = Self(1.0);

    /// Creates a ratio.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && (0.0..=1.0).contains(&value),
            "Ratio must lie in [0, 1], got {value}"
        );
        Self(value)
    }

    /// Returns the raw value.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<Ratio> for f64 {
    fn from(value: Ratio) -> f64 {
        value.0
    }
}

// --- Cross-dimension conversions and physical relations -------------------

impl Seconds {
    /// Converts to milliseconds.
    #[must_use]
    pub fn to_millis(self) -> MilliSeconds {
        MilliSeconds::new(self.0 * 1e3)
    }

    /// Builds a duration from a millisecond count.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms / 1e3)
    }
}

impl Joules {
    /// Converts to millijoules.
    #[must_use]
    pub fn to_millijoules(self) -> MilliJoules {
        MilliJoules::new(self.0 * 1e3)
    }
}

impl Hertz {
    /// The period `1/f` of this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[must_use]
    pub fn period(self) -> Seconds {
        assert!(self.is_positive(), "cannot take the period of {self}");
        Seconds::new(1.0 / self.0)
    }
}

impl MegaBytes {
    /// Converts to megabits (for transmission-latency computations).
    #[must_use]
    pub fn to_megabits(self) -> f64 {
        self.0 * 8.0
    }
}

/// Power × time = energy. Unchecked like the same-dimension operators: a
/// NaN operand propagates into the product instead of panicking, so a
/// broken duration surfaces as a non-finite energy the caller can report.
impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

/// Time × power = energy (commutative form).
impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

/// Transferring `MegaBytes` over a `MegaBitsPerSecond` link takes
/// `8·MB / Mbps` seconds.
impl Div<MegaBitsPerSecond> for MegaBytes {
    type Output = Seconds;
    fn div(self, rhs: MegaBitsPerSecond) -> Seconds {
        Seconds::new(self.to_megabits() / rhs.0)
    }
}

/// Reading or writing `MegaBytes` at `GigaBytesPerSecond` takes
/// `MB / (1000·GB/s)` seconds (the δ/m terms of Eqs. 2, 4, 9–11, 13).
impl Div<GigaBytesPerSecond> for MegaBytes {
    type Output = Seconds;
    fn div(self, rhs: GigaBytesPerSecond) -> Seconds {
        Seconds::new(self.0 / (rhs.0 * 1e3))
    }
}

/// Covering `Meters` at `MetersPerSecond` takes `m / (m/s)` seconds — the
/// propagation-delay terms `d/c` of Eqs. 6, 16, 18, 23.
impl Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.0 / rhs.0)
    }
}

/// The propagation speed used throughout the paper: the speed of light.
pub const SPEED_OF_LIGHT: MetersPerSecond = MetersPerSecond(299_792_458.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_millis_round_trip() {
        let s = Seconds::new(0.125);
        assert!((s.to_millis().as_f64() - 125.0).abs() < 1e-9);
        assert!((Seconds::from_millis(s.to_millis().as_f64()).as_f64() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let e = Watts::new(2.5) * Seconds::new(4.0);
        assert!((e.as_f64() - 10.0).abs() < 1e-12);
        let e2 = Seconds::new(4.0) * Watts::new(2.5);
        assert_eq!(e, e2);
    }

    #[test]
    fn transmission_latency_uses_bits() {
        // 1 MB over 8 Mbps takes exactly 1 second.
        let t = MegaBytes::new(1.0) / MegaBitsPerSecond::new(8.0);
        assert!((t.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_read_latency() {
        // 2 MB at 4 GB/s = 0.5 ms.
        let t = MegaBytes::new(2.0) / GigaBytesPerSecond::new(4.0);
        assert!((t.as_f64() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn propagation_delay() {
        let t = Meters::new(299_792_458.0) / SPEED_OF_LIGHT;
        assert!((t.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Ratio must lie in [0, 1]")]
    fn ratio_rejects_out_of_range() {
        let _ = Ratio::new(1.5);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        let _ = Seconds::new(f64::NAN);
    }

    #[test]
    fn hertz_period() {
        let f = Hertz::new(200.0);
        assert!((f.period().as_f64() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = MilliJoules::new(3.0);
        let b = MilliJoules::new(1.5);
        assert_eq!((a + b).as_f64(), 4.5);
        assert_eq!((a - b).as_f64(), 1.5);
        assert_eq!((a * 2.0).as_f64(), 6.0);
        assert_eq!((a / 2.0).as_f64(), 1.5);
        assert!(a > b);
        assert_eq!(a / b, 2.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_units() {
        let total: Seconds = vec![Seconds::new(0.1), Seconds::new(0.2), Seconds::new(0.3)]
            .into_iter()
            .sum();
        assert!((total.as_f64() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn max_zero_clamps_negative_regression_outputs() {
        assert_eq!(Watts::new(-3.0).max_zero().as_f64(), 0.0);
        assert_eq!(Watts::new(3.0).max_zero().as_f64(), 3.0);
    }

    #[test]
    fn display_contains_suffix() {
        assert!(format!("{}", GigaHertz::new(2.0)).contains("GHz"));
        assert!(format!("{}", MegaBitsPerSecond::new(50.0)).contains("Mbps"));
    }
}
