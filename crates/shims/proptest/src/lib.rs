//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`] trait (ranges, tuples, [`Strategy::prop_map`],
//! `prop::sample::select`, `prop::collection::vec`), the [`proptest!`]
//! macro, and `prop_assert!`/`prop_assert_eq!`. Unlike the real crate it
//! does plain deterministic random sampling — there is **no shrinking**
//! and no persisted failure seeds; a failing case reports its case index
//! and the per-test RNG is seeded from the test name, so failures
//! reproduce exactly on re-run. Swap the root manifest's `proptest` entry
//! for crates.io to get real shrinking; the test sources stay unchanged.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failure raised by `prop_assert!` inside a property body.
#[derive(Debug)]
pub struct TestCaseError {
    /// Human-readable description of the failed assertion.
    pub message: String,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    #[must_use]
    pub fn fail(message: String) -> Self {
        TestCaseError { message }
    }
}

/// Result type property bodies are wrapped into by [`proptest!`].
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl Config {
    /// Builds a config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 256 }
    }
}

/// Seeds the per-test RNG deterministically from the test's name (FNV-1a).
#[must_use]
pub fn rng_for_test(name: &str) -> StdRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(hash)
}

/// A recipe for generating random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values with `f`, mirroring
    /// `proptest::strategy::Strategy::prop_map`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Strategy modules re-exported through `prelude::prop`.
pub mod prop {
    /// Strategies drawing from explicit value sets.
    pub mod sample {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy returned by [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T: Clone> {
            options: Vec<T>,
        }

        /// Picks uniformly from `options`, mirroring
        /// `proptest::sample::select`.
        ///
        /// # Panics
        ///
        /// Panics at generation time if `options` is empty.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut StdRng) -> T {
                assert!(
                    !self.options.is_empty(),
                    "select requires at least one option"
                );
                self.options[rng.gen_range(0..self.options.len())].clone()
            }
        }
    }

    /// Strategies for collections.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Length specification accepted by [`vec()`]: a fixed size or a range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            min: usize,
            /// Exclusive upper bound.
            max: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            /// # Panics
            ///
            /// Panics on an empty range, like the real proptest rejects an
            /// impossible size specification.
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(
                    r.start < r.end,
                    "empty vec size range {}..{}",
                    r.start,
                    r.end
                );
                SizeRange {
                    min: r.start,
                    max: r.end,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            /// # Panics
            ///
            /// Panics on an empty range, like the real proptest rejects an
            /// impossible size specification.
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                assert!(
                    r.start() <= r.end(),
                    "empty vec size range {}..={}",
                    r.start(),
                    r.end()
                );
                SizeRange {
                    min: *r.start(),
                    max: *r.end() + 1,
                }
            }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// Generates vectors whose elements come from `element` and whose
        /// length falls in `size`, mirroring `proptest::collection::vec`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = if self.size.min + 1 >= self.size.max {
                    self.size.min
                } else {
                    rng.gen_range(self.size.min..self.size.max)
                };
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::prop;
    pub use super::{Config as ProptestConfig, Strategy, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines `#[test]` functions that check a property over sampled inputs,
/// mirroring `proptest::proptest!`.
///
/// Each listed function runs `cases` times (default [`Config::default`];
/// override with `#![proptest_config(...)]`) with inputs drawn from the
/// strategies on the right of each `in`.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)
        $(
            #[test]
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::Config = $config;
                let mut rng = $crate::rng_for_test(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome: $crate::TestCaseResult = (|| {
                        $(
                            // Rebind so the closure takes ownership and the
                            // body can move/consume the generated values.
                            let $arg = $arg;
                        )+
                        $body
                        Ok(())
                    })();
                    if let Err(failure) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            failure.message
                        );
                    }
                }
            }
        )*
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($crate::Config::default()) $($rest)*);
    };
}

/// Asserts a condition inside a [`proptest!`] body, reporting the failing
/// expression without aborting the process mid-harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // `if c {} else` rather than `if !c` keeps user conditions over
        // partially ordered types clear of clippy::neg_cmp_op_on_partial_ord.
        if $cond {
        } else {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_generate_in_bounds(
            x in 0.0..10.0_f64,
            n in 1u32..5,
            pair in (0.0..1.0_f64, 2usize..9),
        ) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..5).contains(&n));
            prop_assert!(pair.0 < 1.0);
            prop_assert!((2..9).contains(&pair.1));
        }

        #[test]
        fn map_select_and_vec_compose(
            label in prop::sample::select(vec!["a", "b", "c"]),
            data in prop::collection::vec(1.0..2.0_f64, 3..6),
            doubled in (1u32..10).prop_map(|v| v * 2),
        ) {
            prop_assert!(["a", "b", "c"].contains(&label));
            prop_assert!((3..6).contains(&data.len()));
            prop_assert_eq!(doubled % 2, 0);
            prop_assert!(doubled < 20);
        }
    }

    #[test]
    #[should_panic(expected = "empty vec size range")]
    fn empty_vec_size_range_is_rejected() {
        // Built via variables so the intentionally empty range does not trip
        // clippy::reversed_empty_ranges at the literal site.
        let (lo, hi) = (5usize, 3usize);
        let _ = prop::collection::vec(0.0..1.0_f64, lo..hi);
    }

    #[test]
    fn fixed_size_vec_is_exact() {
        let strategy = prop::collection::vec(0.0..1.0_f64, 20);
        let mut rng = crate::rng_for_test("fixed_size_vec_is_exact");
        let v = Strategy::generate(&strategy, &mut rng);
        assert_eq!(v.len(), 20);
    }
}
