//! Offline stand-in for the `rand` 0.8 crate.
//!
//! Implements exactly the API subset the workspace uses — `StdRng`,
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`], [`Rng::gen_range`],
//! [`Rng::gen_bool`], and [`seq::SliceRandom::shuffle`] — on top of a
//! xoshiro256++ generator seeded through SplitMix64 (the same seeding
//! scheme the real `rand` uses for small-state seeds). All simulations in
//! this repository are seeded explicitly, so determinism is preserved:
//! the same seed always yields the same stream, though the stream differs
//! from the real `rand`'s ChaCha-based `StdRng`.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Converts raw random words into typed samples for [`Rng::gen`].
pub trait FromRng: Sized {
    /// Draws one uniformly distributed value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// The `u64 → [0, 1)` mapping behind `FromRng for f64`: the word's top 53
/// bits scaled into the unit interval. Exposed so column transforms (the
/// `rand_distr` shim's lane-oriented `fill_*` passes) can apply *literally
/// the same expression* to pre-filled word columns and stay bit-identical
/// with the scalar samplers.
#[inline]
#[must_use]
pub fn unit_f64_from_word(word: u64) -> f64 {
    // 53 random mantissa bits scaled into [0, 1).
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FromRng for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64_from_word(rng.next_u64())
    }
}

impl FromRng for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types [`Rng::gen_range`] can sample uniformly. Mirroring the real
/// crate's `SampleUniform` keeps integer-literal inference identical: the
/// range impls below stay generic in `T`, so `0..4` adopts whatever integer
/// type the surrounding expression demands instead of defaulting to `i32`.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Draws from `[lo, hi)`.
    fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Draws from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl SampleUniform for f64 {
    fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + Self::from_rng(rng) * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + Self::from_rng(rng) * (hi - lo)
    }
}

// Each type pairs with its unsigned counterpart so the span is computed
// without signed overflow (`i32::MIN..i32::MAX` has a span of 2^32 - 1):
// `hi.wrapping_sub(lo)` reinterpreted as unsigned is the true span, and
// adding the offset back with `wrapping_add` is exact in two's complement.
// The modulo reduction carries the usual slight bias for huge spans, which
// the shim accepts for simplicity.
macro_rules! int_sample_uniform {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = hi.wrapping_sub(lo) as $u as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = hi.wrapping_sub(lo) as $u as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
            }
        }
    )*};
}

int_sample_uniform!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws one uniformly distributed value of type `T`.
    fn gen<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Draws one value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or NaN, mirroring the real crate.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        f64::from_rng(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers (`SliceRandom`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn unit_interval_and_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            let x = rng.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&x));
            let n = rng.gen_range(0..10usize);
            assert!(n < 10);
            let m = rng.gen_range(2..=4u32);
            assert!((2..=4).contains(&m));
        }
    }

    #[test]
    fn mean_of_uniform_is_near_half() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / f64::from(n) - 0.5).abs() < 5e-3);
    }

    #[test]
    fn extreme_signed_ranges_do_not_overflow() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = rng.gen_range(i32::MIN..i32::MAX);
            assert!(x < i32::MAX);
            let y = rng.gen_range(i64::MIN..=i64::MAX);
            let _ = y; // full range: any value is in bounds
            let z = rng.gen_range(-5i8..=5);
            assert!((-5..=5).contains(&z));
        }
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn gen_bool_rejects_out_of_range_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        rng.gen_bool(1.5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use super::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
