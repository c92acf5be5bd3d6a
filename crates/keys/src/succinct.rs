//! Succinct building blocks for cache-compact routing snapshots.
//!
//! Two structures, both flat and pointer-free so a frozen routing snapshot
//! stays cache-resident (the FM-index trick applied to the P-Grid access
//! structure):
//!
//! * [`PathArena`] — many [`BitPath`]s bit-packed back to back in one `u64`
//!   stream, addressed by index through a bit-offset table. A path of `l`
//!   bits costs `l` bits plus a 32-bit offset, instead of a 17-byte
//!   `BitPath` struct per entry.
//! * [`RankBits`] — a plain bitvector with a per-word cumulative popcount
//!   table supporting O(1) [`RankBits::rank1`]. Rank over an occupancy
//!   bitmap is what replaces per-level `Vec` indirections with arithmetic
//!   into one flat slice array.

use crate::BitPath;

/// Bit-packed arena of [`BitPath`]s.
///
/// Paths are appended once and then read by index; the arena never moves
/// or reallocates per-path storage, so lookups are two loads (offset pair)
/// plus word arithmetic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathArena {
    /// The packed bit stream. Stream bit `i` lives in `words[i / 64]` at
    /// machine bit `63 - i % 64` (big-endian within a word, matching the
    /// left-aligned layout of [`BitPath::raw_bits`]).
    words: Vec<u64>,
    /// `offsets[i]` is the first stream bit of path `i`;
    /// `offsets[len]` is the end of the stream.
    offsets: Vec<u32>,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> Self {
        PathArena {
            words: Vec::new(),
            offsets: vec![0],
        }
    }

    /// An empty arena with room for `paths` paths of about `avg_bits` bits.
    pub fn with_capacity(paths: usize, avg_bits: usize) -> Self {
        let mut offsets = Vec::with_capacity(paths + 1);
        offsets.push(0);
        PathArena {
            words: Vec::with_capacity((paths * avg_bits).div_ceil(64)),
            offsets,
        }
    }

    /// Number of paths stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when no path has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total packed payload bits (excluding the offset table).
    pub fn bits(&self) -> usize {
        *self.offsets.last().expect("offsets never empty") as usize
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8 + self.offsets.len() * 4
    }

    /// Appends a path, returning its index.
    pub fn push(&mut self, p: &BitPath) -> usize {
        let mut cur = self.bits();
        let raw = p.raw_bits();
        let mut taken = 0usize;
        let mut remaining = p.len();
        while remaining > 0 {
            let wi = cur / 64;
            if wi == self.words.len() {
                self.words.push(0);
            }
            let space = 64 - cur % 64;
            let take = space.min(remaining);
            // Top `take` bits of the not-yet-written suffix of `raw`.
            let chunk = ((raw << taken) >> (128 - take)) as u64;
            self.words[wi] |= chunk << (space - take);
            cur += take;
            taken += take;
            remaining -= take;
        }
        self.offsets.push(cur as u32);
        self.len() - 1
    }

    /// Reads path `i` back out of the packed stream.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn get(&self, i: usize) -> BitPath {
        let start = self.offsets[i] as usize;
        let len = self.offsets[i + 1] as usize - start;
        let (s, shift) = (start / 64, start % 64);
        let w = |j: usize| self.words.get(j).copied().unwrap_or(0) as u128;
        // 128 stream bits starting at word `s`, then slide to `start`.
        let mut value = ((w(s) << 64) | w(s + 1)) << shift;
        if shift > 0 {
            value |= w(s + 2) >> (64 - shift);
        }
        BitPath::from_raw(value, len as u8)
    }
}

impl FromIterator<BitPath> for PathArena {
    fn from_iter<I: IntoIterator<Item = BitPath>>(iter: I) -> Self {
        let mut arena = PathArena::new();
        for p in iter {
            arena.push(&p);
        }
        arena
    }
}

/// Bitvector with O(1) rank support.
///
/// `ranks[w]` caches the number of set bits strictly before word `w`, so
/// [`RankBits::rank1`] is one table load plus one masked popcount — the
/// classic succinct-index layout (here at one u32 per 64 bits, trading a
/// little space for zero nested sampling).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankBits {
    len: usize,
    /// Bit `i` is `words[i / 64] >> (i % 64) & 1`.
    words: Vec<u64>,
    /// `ranks[w]` = number of ones in `words[..w]`; has `words.len() + 1`
    /// entries so `rank1(len)` needs no special case.
    ranks: Vec<u32>,
}

impl RankBits {
    /// Builds the rank index over `len` bits produced by `bit`.
    pub fn from_fn(len: usize, mut bit: impl FnMut(usize) -> bool) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, word) in words.iter_mut().enumerate() {
            let hi = (len - i * 64).min(64);
            for o in 0..hi {
                if bit(i * 64 + o) {
                    *word |= 1 << o;
                }
            }
        }
        let mut ranks = Vec::with_capacity(words.len() + 1);
        let mut acc = 0u32;
        ranks.push(0);
        for w in &words {
            acc += w.count_ones();
            ranks.push(acc);
        }
        RankBits { len, words, ranks }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of set bits.
    pub fn ones(&self) -> usize {
        *self.ranks.last().expect("ranks never empty") as usize
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8 + self.ranks.len() * 4
    }

    /// Bit `i`.
    ///
    /// # Panics
    /// If `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of bounds");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits strictly before position `i` (`i` may equal
    /// `len`, giving the total).
    pub fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank position out of bounds");
        let (w, o) = (i / 64, i % 64);
        let partial = if o == 0 {
            0
        } else {
            (self.words[w] & !(u64::MAX << o)).count_ones()
        };
        self.ranks[w] as usize + partial as usize
    }

    /// Position of the `k`-th set bit (0-based), or `None` if `k >= ones()`.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.ones() {
            return None;
        }
        // Last word whose cumulative rank is ≤ k.
        let w = self.ranks.partition_point(|&r| r as usize <= k) - 1;
        let mut remaining = k - self.ranks[w] as usize;
        let mut word = self.words[w];
        loop {
            let tz = word.trailing_zeros() as usize;
            if remaining == 0 {
                return Some(w * 64 + tz);
            }
            word &= word - 1;
            remaining -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn arena_roundtrips_handwritten_paths() {
        let paths = [
            BitPath::from_str_lossy("0"),
            BitPath::EMPTY,
            BitPath::from_str_lossy("10110"),
            BitPath::from_str_lossy("111111111111111111111"),
            BitPath::from_str_lossy("0000000000000000000000000000000001"),
        ];
        let arena: PathArena = paths.iter().copied().collect();
        assert_eq!(arena.len(), paths.len());
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(arena.get(i), *p, "path {i}");
        }
    }

    #[test]
    fn arena_roundtrips_random_paths_across_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = Vec::new();
        let mut arena = PathArena::with_capacity(500, 32);
        for _ in 0..500 {
            let len = rng.gen_range(0..=128usize);
            let p = BitPath::random(&mut rng, len as u8);
            let idx = arena.push(&p);
            assert_eq!(idx, reference.len());
            reference.push(p);
        }
        for (i, p) in reference.iter().enumerate() {
            assert_eq!(arena.get(i), *p, "path {i}");
        }
        let total_bits: usize = reference.iter().map(BitPath::len).sum();
        assert_eq!(arena.bits(), total_bits);
        assert!(arena.bytes() < reference.len() * std::mem::size_of::<BitPath>() + 8);
    }

    #[test]
    fn rank_and_select_match_naive_counting() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0usize, 1, 63, 64, 65, 129, 1000] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.37)).collect();
            let rb = RankBits::from_fn(len, |i| bits[i]);
            assert_eq!(rb.len(), len);
            assert_eq!(rb.ones(), bits.iter().filter(|&&b| b).count());
            let mut ones_seen = 0usize;
            for (i, &bit) in bits.iter().enumerate() {
                assert_eq!(rb.get(i), bit, "bit {i}");
                assert_eq!(rb.rank1(i), ones_seen, "rank {i}");
                if bit {
                    assert_eq!(rb.select1(ones_seen), Some(i), "select {ones_seen}");
                    ones_seen += 1;
                }
            }
            assert_eq!(rb.rank1(len), ones_seen);
            assert_eq!(rb.select1(ones_seen), None);
        }
    }
}
