//! The benchmark's own input generator: every key, name, payload and op
//! sequence comes from `--seed` through this splitmix64 stream, so the
//! program under test receives only generated inputs.

use pgrid_keys::{BitPath, Key};

#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n / 2^64`
    /// is far below anything a run can resolve).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// A stream of pairwise distinct keys of `len` bits: an affine permutation
/// of `0..2^len` with a seed-derived odd multiplier and offset, walked in
/// order, so no two installed items ever share a key.
#[derive(Clone, Debug)]
pub struct KeySpace {
    mul: u64,
    add: u64,
    len: u8,
    next: u64,
}

impl KeySpace {
    pub fn new(rng: &mut SplitMix64, len: u8) -> Self {
        assert!((1..=64).contains(&len));
        KeySpace {
            mul: rng.next_u64() | 1,
            add: rng.next_u64(),
            len,
            next: 0,
        }
    }

    pub fn next_key(&mut self) -> Key {
        let mask = u64::MAX >> (64 - self.len);
        assert!(
            self.next <= mask,
            "key space of {} bits exhausted",
            self.len
        );
        let v = self.next.wrapping_mul(self.mul).wrapping_add(self.add) & mask;
        self.next += 1;
        BitPath::from_value(u128::from(v), self.len)
    }

    pub fn take(&mut self, count: usize) -> Vec<Key> {
        (0..count).map(|_| self.next_key()).collect()
    }
}

/// A 256-byte payload that is a function of the item number, so a fetched
/// payload can be checked without keeping a copy.
pub fn payload(item: u64, version: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(item ^ version.rotate_left(32));
    let mut out = Vec::with_capacity(256);
    while out.len() < 256 {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// FNV-1a over 64-bit words: the `workload_hash` of an op sequence or of
/// outcome counts. Two runs with equal hashes did the same work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkHash(u64);

impl WorkHash {
    pub fn new() -> Self {
        WorkHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_hash() {
        let run = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut hash = WorkHash::new();
            for key in KeySpace::new(&mut rng, 16).take(500) {
                hash.add(key.raw_bits() as u64 ^ (key.raw_bits() >> 64) as u64);
            }
            for _ in 0..500 {
                hash.add(rng.below(1000) as u64);
            }
            hash.value()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn keys_are_distinct_and_in_range() {
        let mut rng = SplitMix64::new(3);
        let mut space = KeySpace::new(&mut rng, 16);
        let mut keys = space.take(4000);
        keys.extend(space.take(96));
        let mut seen = std::collections::BTreeSet::new();
        for k in &keys {
            assert_eq!(k.len(), 16);
            assert!(seen.insert(*k), "duplicate key {k}");
        }
    }

    #[test]
    fn below_stays_below() {
        let mut rng = SplitMix64::new(1);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }
}
