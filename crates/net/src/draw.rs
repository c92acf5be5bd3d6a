//! Bounded uniform draws and Fisher–Yates shuffles over any [`RngCore`].
//!
//! Both follow the workspace's `rand` stand-in draw for draw: [`below`]
//! returns what `rng.gen_range(0..n)` returns and consumes the same words
//! of the stream, and [`shuffle`] leaves a slice where the stand-in's
//! slice `shuffle` would. The stand-in computes its rejection
//! threshold `2^64 mod n` — a 64-bit division — on every draw. Here the
//! multiply-and-reject step runs first (Lemire, *Fast Random Integer
//! Generation in an Interval*, 2019). The threshold is always below `n`,
//! so a product whose low word is at least `n` is accepted by both, and
//! the division runs only in the rare case where the low word falls below
//! `n`. Accepts, rejects, outputs and the number of words drawn are
//! therefore identical; only the cost of a draw changes.

use rand::RngCore;

/// A uniform draw from `0..n`, equal to the stand-in's `gen_range(0..n)`.
///
/// # Panics
/// When `n == 0`.
#[inline]
pub fn below<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> usize {
    assert!(n > 0, "cannot sample empty range");
    let n = n as u64;
    let mut wide = u128::from(rng.next_u64()) * u128::from(n);
    if (wide as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (wide as u64) < threshold {
            wide = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (wide >> 64) as usize
}

/// Fisher–Yates shuffle of `slice`, equal to the stand-in's slice
/// `shuffle`: position `i` swaps with a draw from `0..=i`, from the last
/// position down to the second.
#[inline]
pub fn shuffle<T, R: RngCore + ?Sized>(rng: &mut R, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        slice.swap(i, below(rng, i + 1));
    }
}
