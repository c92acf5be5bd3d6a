//! Workload generators: key populations and popularity distributions.

use pgrid_keys::{BitPath, HashKeyMapper, Key, KeyMapper};
use rand::rngs::StdRng;
use rand::Rng;

/// Draws uniformly random keys of a fixed length — the distribution the
/// paper's analysis and simulations assume.
#[derive(Clone, Copy, Debug)]
pub struct UniformKeys {
    /// Key length in bits.
    pub len: u8,
}

impl UniformKeys {
    /// One random key.
    pub fn sample(&self, rng: &mut StdRng) -> Key {
        BitPath::random(rng, self.len)
    }

    /// `n` random keys (possibly with repeats, like real traffic).
    pub fn sample_n(&self, n: usize, rng: &mut StdRng) -> Vec<Key> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A skewed key population: keys are *clustered* in the low half of the key
/// space with the given intensity, modelling the non-uniform distributions
/// the paper defers to future work (§6).
///
/// `skew = 0` is uniform; higher values concentrate more mass near zero by
/// multiplying independent uniform variates (a product distribution whose
/// density piles up at the low end).
#[derive(Clone, Copy, Debug)]
pub struct SkewedKeys {
    /// Key length in bits.
    pub len: u8,
    /// Number of extra uniform factors (0 = uniform).
    pub skew: u32,
}

impl SkewedKeys {
    /// `n` skewed keys (possibly with repeats, like real traffic).
    pub fn sample_n(&self, n: usize, rng: &mut StdRng) -> Vec<Key> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// One skewed key.
    pub fn sample(&self, rng: &mut StdRng) -> Key {
        if self.skew == 0 {
            // Draw-for-draw identical to [`UniformKeys`]: same values,
            // same RNG stream consumption, so swapping generators in a
            // workload config cannot shift anything downstream of the rng.
            return BitPath::random(rng, self.len);
        }
        let mut x: f64 = rng.gen_range(0.0..1.0);
        for _ in 0..self.skew {
            x *= rng.gen_range(0.0..1.0);
        }
        // `x < 1.0` always, but the product underflows to subnormals (or
        // exactly 0.0) at high skew; the saturating float-to-int cast
        // keeps the result in range either way. (The former
        // `.min(2^64 - 1.0)` guard rounded to `2^64` in f64 and guarded
        // nothing.)
        let scaled = (x * 2f64.powi(64)) as u64;
        BitPath::from_raw(u128::from(scaled) << 64, self.len)
    }
}

/// Zipf popularity over a fixed item catalogue: item `i` (0-based rank) is
/// requested with probability proportional to `1 / (i+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s`.
    ///
    /// # Panics
    /// If `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty catalogue");
        assert!(s >= 0.0, "negative exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples an item rank (0-based; rank 0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A synthetic file-sharing catalogue: `n` named files with hash-derived
/// keys, the workload of the paper's §4 Gnutella example.
#[derive(Clone, Debug)]
pub struct FileCatalogue {
    /// File names (`"file-000042.mp3"` style).
    pub names: Vec<String>,
    /// Hash-mapped keys, one per file.
    pub keys: Vec<Key>,
}

impl FileCatalogue {
    /// Generates the catalogue with keys of `key_len` bits.
    pub fn generate(n: usize, key_len: u8, seed: u64) -> Self {
        let mapper = HashKeyMapper::with_seed(seed);
        let names: Vec<String> = (0..n).map(|i| format!("file-{i:06}.mp3")).collect();
        let keys = names.iter().map(|name| mapper.map(name, key_len)).collect();
        FileCatalogue { names, keys }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn uniform_keys_have_right_length_and_spread() {
        let mut r = rng();
        let gen = UniformKeys { len: 10 };
        let keys = gen.sample_n(4000, &mut r);
        assert!(keys.iter().all(|k| k.len() == 10));
        let ones = keys.iter().filter(|k| k.bit(0) == 1).count();
        assert!((1700..2300).contains(&ones), "first-bit ones = {ones}");
    }

    #[test]
    fn skewed_keys_pile_up_low() {
        let mut r = rng();
        let skewed = SkewedKeys { len: 10, skew: 2 };
        let low = (0..4000)
            .filter(|_| skewed.sample(&mut r).bit(0) == 0)
            .count();
        assert!(low > 3000, "skewed mass should sit in the low half: {low}");
        let uniform = SkewedKeys { len: 10, skew: 0 };
        let low_u = (0..4000)
            .filter(|_| uniform.sample(&mut r).bit(0) == 0)
            .count();
        assert!((1700..2300).contains(&low_u), "skew=0 is uniform: {low_u}");
    }

    #[test]
    fn skew_zero_matches_uniform_draw_for_draw() {
        use rand::RngCore;
        let mut a = rng();
        let mut b = rng();
        let skewed = SkewedKeys { len: 24, skew: 0 };
        let uniform = UniformKeys { len: 24 };
        for _ in 0..64 {
            assert_eq!(skewed.sample(&mut a), uniform.sample(&mut b));
        }
        // Identical stream consumption: the rngs are still in lockstep.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn extreme_skew_keys_stay_full_length_and_in_range() {
        let mut r = rng();
        // High enough that the product underflows through subnormals to
        // exactly 0.0 — the worst case for the float-to-bits scaling.
        let skewed = SkewedKeys {
            len: 24,
            skew: 5000,
        };
        for _ in 0..32 {
            let k = skewed.sample(&mut r);
            assert_eq!(k.len(), 24, "skew must never change the key length");
            assert!(!k.is_empty(), "underflow must not produce an empty key");
        }
    }

    #[test]
    fn zipf_rank_frequencies_decay() {
        let mut r = rng();
        let z = Zipf::new(100, 1.0);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[49]);
        // Rank 0 under Zipf(1, 100) carries ~19% of the mass.
        assert!((2500..5500).contains(&counts[0]), "rank0 = {}", counts[0]);
    }

    #[test]
    fn zipf_s0_is_uniform() {
        let mut r = rng();
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((1700..2300).contains(&c), "uniform bucket = {c}");
        }
    }

    #[test]
    fn catalogue_is_deterministic() {
        let a = FileCatalogue::generate(50, 10, 1);
        let b = FileCatalogue::generate(50, 10, 1);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.len(), 50);
        assert!(!a.is_empty());
        assert!(a.keys.iter().all(|k| k.len() == 10));
        let c = FileCatalogue::generate(50, 10, 2);
        assert_ne!(a.keys, c.keys, "different seed, different key space");
    }
}
