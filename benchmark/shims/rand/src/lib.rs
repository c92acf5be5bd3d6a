//! Offline stand-in for `rand` 0.8: the API subset the pgrid crates call.
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12, so
//! streams differ from the published crate; every relative guarantee of the
//! pgrid crates (same seed → same run) holds unchanged.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Uniform draw below `n` (`n > 0`): widening multiply with rejection.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let threshold = n.wrapping_neg() % n;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(n);
        if wide as u64 >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        /// Fisher–Yates.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
