//! Mappers from application key domains into the binary key space.
//!
//! The paper assumes "index terms from a set K … totally ordered, such that a
//! search tree can be constructed in the usual way" and works directly with
//! binary strings. Real applications index strings (file names) or numbers;
//! a [`KeyMapper`] turns those into [`BitPath`] keys.
//!
//! Two families matter:
//!
//! * **Order-preserving** mappers ([`OrderPreservingMapper`],
//!   [`NumericMapper`]) keep the total order, enabling range/prefix search —
//!   but inherit whatever skew the application distribution has (the paper
//!   defers skew handling to future work).
//! * **Hashing** mappers ([`HashKeyMapper`]) destroy order but produce the
//!   uniform key distribution the paper's analysis and simulations assume.

use crate::BitPath;

/// Maps application identifiers to binary keys of a chosen length.
pub trait KeyMapper {
    /// Maps `name` to a key of exactly `len` bits.
    fn map(&self, name: &str, len: u8) -> BitPath;
}

/// Uniform (order-destroying) mapper based on the 64-bit FNV-1a hash.
///
/// This is the mapper the paper's uniformity assumption corresponds to: keys
/// of distinct items are spread (pseudo-)uniformly over the key space.
///
/// ```
/// use pgrid_keys::{HashKeyMapper, KeyMapper};
/// let m = HashKeyMapper::default();
/// let k = m.map("song.mp3", 10);
/// assert_eq!(k.len(), 10);
/// assert_eq!(k, m.map("song.mp3", 10)); // deterministic
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct HashKeyMapper {
    /// Optional seed mixed into the hash, to derive independent key spaces.
    pub seed: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One round of SplitMix64 finalization for better high-bit avalanche (FNV's
/// raw high bits are weak for short inputs, and P-Grid routes on high bits).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HashKeyMapper {
    /// Creates a mapper with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        HashKeyMapper { seed }
    }
}

impl KeyMapper for HashKeyMapper {
    fn map(&self, name: &str, len: u8) -> BitPath {
        assert!(len <= 128);
        let h1 = mix(fnv1a(name.as_bytes(), self.seed));
        let h2 = mix(h1 ^ 0x9e37_79b9_7f4a_7c15);
        let word = (u128::from(h1) << 64) | u128::from(h2);
        BitPath::from_raw(word, len)
    }
}

/// Order-preserving mapper over byte strings.
///
/// Interprets the string's bytes as the digits of a base-256 fraction and
/// takes the first `len` bits, so `a < b` (byte-wise) implies
/// `map(a) <= map(b)`. Distinct strings can collide when they share a long
/// prefix and `len` is small — exactly the granularity/precision tradeoff of
/// any order-preserving encoding.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrderPreservingMapper;

impl KeyMapper for OrderPreservingMapper {
    fn map(&self, name: &str, len: u8) -> BitPath {
        assert!(len <= 128);
        let mut word: u128 = 0;
        for (i, &b) in name.as_bytes().iter().take(16).enumerate() {
            word |= u128::from(b) << (120 - 8 * i);
        }
        BitPath::from_raw(word, len)
    }
}

/// Order-preserving mapper for numeric domains `[min, max]`.
///
/// Maps `x` to the binary expansion of `(x - min) / (max - min)`.
#[derive(Clone, Copy, Debug)]
pub struct NumericMapper {
    min: f64,
    max: f64,
}

impl NumericMapper {
    /// Creates a mapper for the inclusive domain `[min, max]`.
    ///
    /// # Panics
    /// If `min >= max` or either bound is not finite.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(min < max, "empty numeric domain [{min}, {max}]");
        NumericMapper { min, max }
    }

    /// Maps a number directly (clamping to the domain).
    pub fn map_value(&self, x: f64, len: u8) -> BitPath {
        assert!(len <= 128);
        let frac = ((x - self.min) / (self.max - self.min)).clamp(0.0, 1.0);
        // Use 64 fractional bits of precision, left-aligned.
        let scaled = (frac * 2f64.powi(64)).min(2f64.powi(64) - 1.0).max(0.0) as u64;
        BitPath::from_raw(u128::from(scaled) << 64, len.min(64))
    }
}

impl KeyMapper for NumericMapper {
    fn map(&self, name: &str, len: u8) -> BitPath {
        let x: f64 = name.trim().parse().unwrap_or(self.min);
        self.map_value(x, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_mapper_is_deterministic_and_sized() {
        let m = HashKeyMapper::default();
        for len in [0u8, 1, 8, 10, 64, 128] {
            let k = m.map("alpha", len);
            assert_eq!(k.len(), len as usize);
            assert_eq!(k, m.map("alpha", len));
        }
    }

    #[test]
    fn hash_mapper_spreads_first_bit() {
        let m = HashKeyMapper::default();
        let ones = (0..4096)
            .filter(|i| m.map(&format!("item-{i}"), 10).bit(0) == 1)
            .count();
        assert!((1600..2500).contains(&ones), "first-bit ones = {ones}");
    }

    #[test]
    fn hash_mapper_prefix_consistency() {
        // map(name, l) must be a prefix of map(name, l') for l <= l', so a
        // peer's responsibility test works at any granularity.
        let m = HashKeyMapper::with_seed(99);
        let long = m.map("consistency", 64);
        for l in 0..=64u8 {
            assert!(m.map("consistency", l).is_prefix_of(&long));
        }
    }

    #[test]
    fn seeds_give_independent_spaces() {
        let a = HashKeyMapper::with_seed(1).map("x", 64);
        let b = HashKeyMapper::with_seed(2).map("x", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn order_preserving_keeps_order() {
        let m = OrderPreservingMapper;
        let words = ["apple", "banana", "cherry", "date", "zebra"];
        for w in words.windows(2) {
            assert!(m.map(w[0], 32) <= m.map(w[1], 32), "{} !<= {}", w[0], w[1]);
        }
    }

    #[test]
    fn order_preserving_shared_prefix_collides_at_low_precision() {
        let m = OrderPreservingMapper;
        assert_eq!(
            m.map("prefix-aaaaaaaaAAAA", 8),
            m.map("prefix-aaaaaaaaBBBB", 8)
        );
        assert_ne!(
            m.map("prefix-aaaaaaaaAAAA", 128),
            m.map("prefix-aaaaaaaaBBBB", 128)
        );
    }

    #[test]
    fn numeric_mapper_orders_and_clamps() {
        let m = NumericMapper::new(0.0, 100.0);
        assert!(m.map_value(10.0, 16) < m.map_value(90.0, 16));
        assert_eq!(m.map_value(-5.0, 16), m.map_value(0.0, 16));
        assert_eq!(m.map_value(50.0, 1).bit(0), 1);
        assert_eq!(m.map_value(49.0, 1).bit(0), 0);
    }

    #[test]
    #[should_panic(expected = "empty numeric domain")]
    fn numeric_mapper_rejects_empty_domain() {
        NumericMapper::new(1.0, 1.0);
    }
}
