//! Canonical range decomposition.
//!
//! The paper's key space is *order preserving* ("index terms … totally
//! ordered, such that a search tree can be constructed in the usual way"),
//! which is exactly what makes range queries possible on a P-Grid where
//! hashing DHTs need scatter-gather. [`range_cover`] rewrites an inclusive
//! key interval `[lo, hi]` as the minimal set of disjoint trie prefixes
//! whose leaf sets tile the interval exactly — at most `2·L` prefixes for
//! `L`-bit keys, the same decomposition segment trees use.

use crate::BitPath;

/// Decomposes the inclusive range `[lo, hi]` of equal-length keys into the
/// minimal set of disjoint prefixes covering it exactly, in ascending order.
///
/// ```
/// use pgrid_keys::{range_cover, BitPath};
///
/// let lo: BitPath = "0011".parse().unwrap();
/// let hi: BitPath = "1001".parse().unwrap();
/// let cover: Vec<String> = range_cover(&lo, &hi).iter().map(|p| p.to_string()).collect();
/// assert_eq!(cover, vec!["0011", "01", "100"]);
/// ```
///
/// # Panics
/// If `lo` and `hi` differ in length, are empty, or `lo > hi`.
pub fn range_cover(lo: &BitPath, hi: &BitPath) -> Vec<BitPath> {
    let mut out = Vec::new();
    range_cover_into(lo, hi, &mut out);
    out
}

/// Allocation-free form of [`range_cover`]: clears `out` and fills it with
/// the cover, reusing whatever capacity the caller's buffer already holds
/// (the `_into` discipline of the scratch arena — see `pgrid-core`'s
/// `Scratch`).
///
/// # Panics
/// Same conditions as [`range_cover`].
pub fn range_cover_into(lo: &BitPath, hi: &BitPath, out: &mut Vec<BitPath>) {
    out.clear();
    assert_eq!(lo.len(), hi.len(), "range endpoints must have equal length");
    assert!(!lo.is_empty(), "empty keys cannot form a range");
    assert!(lo <= hi, "range endpoints out of order");
    let bits = lo.len() as u32;

    // Work on the integer values of the keys.
    let to_val = |p: &BitPath| p.raw_bits() >> (128 - bits);
    let mut cur = to_val(lo);
    let end = to_val(hi);

    loop {
        // Largest aligned block starting at `cur` that fits within the
        // remaining range: limited by the alignment of `cur` and by the
        // remaining length.
        let align = if cur == 0 {
            bits
        } else {
            cur.trailing_zeros().min(bits)
        };
        let remaining = end - cur + 1;
        // Largest power of two ≤ remaining.
        let size_pow = (127 - remaining.leading_zeros()).min(align);
        let block = 1u128 << size_pow;
        out.push(BitPath::from_value(
            cur >> size_pow,
            (bits - size_pow) as u8,
        ));
        if end - cur + 1 == block {
            break;
        }
        cur += block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn single_key_range() {
        let cover = range_cover(&p("0110"), &p("0110"));
        assert_eq!(cover, vec![p("0110")]);
    }

    #[test]
    fn full_space_collapses_to_root_children() {
        let cover = range_cover(&p("000"), &p("111"));
        assert_eq!(cover, vec![BitPath::EMPTY.child(0).parent()]);
    }

    #[test]
    fn aligned_subtree_is_one_prefix() {
        assert_eq!(range_cover(&p("0100"), &p("0111")), vec![p("01")]);
        assert_eq!(range_cover(&p("1000"), &p("1111")), vec![p("1")]);
    }

    #[test]
    fn classic_unaligned_range() {
        // [0011, 1001]: 0011 | 01 | 10 0 0..1 → {0011, 01, 100}
        let cover = range_cover(&p("0011"), &p("1001"));
        assert_eq!(cover, vec![p("0011"), p("01"), p("100")]);
    }

    #[test]
    fn covers_exactly_and_disjointly_exhaustive() {
        // Every 6-bit range: the cover's leaves are exactly the range, and
        // prefixes are pairwise disjoint.
        let bits = 6usize;
        for lo in 0..(1u128 << bits) {
            for hi in lo..(1u128 << bits) {
                let cover = range_cover(
                    &BitPath::from_value(lo, bits as u8),
                    &BitPath::from_value(hi, bits as u8),
                );
                // Disjoint: no prefix is a prefix of another.
                for (i, a) in cover.iter().enumerate() {
                    for b in cover.iter().skip(i + 1) {
                        assert!(
                            !a.is_prefix_of(b) && !b.is_prefix_of(a),
                            "overlap between {a} and {b} in [{lo}, {hi}]"
                        );
                    }
                }
                // Exact: total leaves match and bounds match.
                let total: u128 = cover.iter().map(|c| 1u128 << (bits - c.len())).sum();
                assert_eq!(total, hi - lo + 1, "coverage size for [{lo}, {hi}]");
                // Membership spot checks: endpoints in, neighbours out.
                let leaf = |v: u128| BitPath::from_value(v, bits as u8);
                assert!(cover.iter().any(|c| c.is_prefix_of(&leaf(lo))));
                assert!(cover.iter().any(|c| c.is_prefix_of(&leaf(hi))));
                if lo > 0 {
                    assert!(!cover.iter().any(|c| c.is_prefix_of(&leaf(lo - 1))));
                }
                if hi + 1 < (1 << bits) {
                    assert!(!cover.iter().any(|c| c.is_prefix_of(&leaf(hi + 1))));
                }
                // Minimality bound: at most 2·bits prefixes.
                assert!(cover.len() <= 2 * bits);
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        range_cover(&p("01"), &p("011"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_range_panics() {
        range_cover(&p("10"), &p("01"));
    }

    #[test]
    fn into_variant_clears_and_reuses_the_buffer() {
        let mut buf = vec![p("1111"); 9];
        range_cover_into(&p("0011"), &p("1001"), &mut buf);
        assert_eq!(buf, vec![p("0011"), p("01"), p("100")]);
        let cap = buf.capacity();
        range_cover_into(&p("0110"), &p("0110"), &mut buf);
        assert_eq!(buf, vec![p("0110")]);
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn long_keys_work() {
        let lo = BitPath::from_value(5, 64);
        let hi = BitPath::from_value(1_000_000, 64);
        let cover = range_cover(&lo, &hi);
        assert!(cover.len() <= 128);
        let total: u128 = cover.iter().map(|c| 1u128 << (64 - c.len())).sum();
        assert_eq!(total, 1_000_000 - 5 + 1);
    }
}
