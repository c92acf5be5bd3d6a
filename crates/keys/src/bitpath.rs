//! Compact binary paths.
//!
//! A [`BitPath`] is a sequence of at most [`MAX_PATH_LEN`] bits, stored
//! left-aligned in a `u128`: bit `i` of the path (0-based, the *first*
//! decision in the trie) lives at machine bit `127 - i`. Left alignment makes
//! the operations the P-Grid algorithms are built on — common-prefix length,
//! prefix tests, lexicographic comparison — single XOR / compare
//! instructions, and it makes the numeric value of the backing word directly
//! proportional to the paper's `val(k)`.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use rand::Rng;

use crate::Interval;

/// Maximum number of bits a [`BitPath`] can hold.
///
/// The paper's experiments use paths of length ≤ 10; 128 bits leave ample
/// room for data-item keys derived from hashes of application identifiers.
pub const MAX_PATH_LEN: usize = 128;

/// A single bit of a path. Always `0` or `1`.
pub type Bit = u8;

/// Errors arising when constructing a [`BitPath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitPathError {
    /// The requested path would exceed [`MAX_PATH_LEN`] bits.
    TooLong {
        /// The requested length.
        requested: usize,
    },
    /// A character other than `0` or `1` was encountered while parsing.
    InvalidCharacter {
        /// The offending character.
        ch: char,
        /// Its byte position in the input.
        at: usize,
    },
}

impl fmt::Display for BitPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitPathError::TooLong { requested } => {
                write!(
                    f,
                    "path of {requested} bits exceeds maximum of {MAX_PATH_LEN}"
                )
            }
            BitPathError::InvalidCharacter { ch, at } => {
                write!(
                    f,
                    "invalid character {ch:?} at position {at}; expected '0' or '1'"
                )
            }
        }
    }
}

impl std::error::Error for BitPathError {}

/// A binary trie path of up to 128 bits.
///
/// `BitPath` is `Copy`, 24 bytes, and totally ordered lexicographically
/// (prefixes sort before their extensions), which matches the in-order walk
/// of the binary search trie the paper builds over the key space.
///
/// ```
/// use pgrid_keys::BitPath;
///
/// let p: BitPath = "0110".parse().unwrap();
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.bit(0), 0);
/// assert_eq!(p.bit(1), 1);
/// assert_eq!(p.to_string(), "0110");
/// assert!(BitPath::from_str_lossy("01").is_prefix_of(&p));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitPath {
    /// Bits, left-aligned: path bit `i` at machine bit `127 - i`.
    /// All machine bits beyond `len` are zero (normalization invariant).
    bits: u128,
    /// Number of valid bits, `0..=128`.
    len: u8,
}

#[inline]
fn high_mask(len: u8) -> u128 {
    match len {
        0 => 0,
        128 => u128::MAX,
        n => u128::MAX << (128 - n as u32),
    }
}

impl BitPath {
    /// The empty path — the root of the trie, covering the whole key space.
    pub const EMPTY: BitPath = BitPath { bits: 0, len: 0 };

    /// Creates a path from raw left-aligned bits and a length.
    ///
    /// Bits beyond `len` are masked off, so any `u128` is acceptable.
    #[inline]
    pub fn from_raw(bits: u128, len: u8) -> Self {
        assert!(
            (len as usize) <= MAX_PATH_LEN,
            "length {len} exceeds MAX_PATH_LEN"
        );
        BitPath {
            bits: bits & high_mask(len),
            len,
        }
    }

    /// Builds a path from a slice of bits (each must be 0 or 1).
    pub fn from_bits(bits: &[Bit]) -> Result<Self, BitPathError> {
        if bits.len() > MAX_PATH_LEN {
            return Err(BitPathError::TooLong {
                requested: bits.len(),
            });
        }
        let mut p = BitPath::EMPTY;
        for &b in bits {
            debug_assert!(b <= 1, "bit values must be 0 or 1");
            p = p.child(b & 1);
        }
        Ok(p)
    }

    /// Builds a path from the low `len` bits of `value`, most significant
    /// first. Useful for enumerating all paths of a given length in tests.
    #[inline]
    pub fn from_value(value: u128, len: u8) -> Self {
        assert!((len as usize) <= MAX_PATH_LEN);
        if len == 0 {
            return BitPath::EMPTY;
        }
        BitPath::from_raw(value << (128 - len as u32), len)
    }

    /// Parses a `"0110"`-style string, panicking on invalid input.
    /// Convenience for tests and doc examples; prefer `parse()` elsewhere.
    pub fn from_str_lossy(s: &str) -> Self {
        s.parse().expect("invalid bit-path literal")
    }

    /// Samples a uniformly random path of exactly `len` bits.
    #[inline]
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: u8) -> Self {
        BitPath::from_raw(rng.gen::<u128>(), len)
    }

    /// Number of bits in the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the empty (root) path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw left-aligned bit representation.
    #[inline]
    pub fn raw_bits(&self) -> u128 {
        self.bits
    }

    /// Returns bit `i` (0-based from the start of the path).
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn bit(&self, i: usize) -> Bit {
        assert!(
            i < self.len(),
            "bit index {i} out of range (len {})",
            self.len
        );
        ((self.bits >> (127 - i)) & 1) as Bit
    }

    /// Returns the last bit of the path.
    ///
    /// # Panics
    /// If the path is empty.
    #[inline]
    pub fn last_bit(&self) -> Bit {
        assert!(!self.is_empty(), "last_bit of empty path");
        self.bit(self.len() - 1)
    }

    /// The path extended by one bit: the paper's `append(p1…pn, p)`.
    ///
    /// # Panics
    /// If the path is already [`MAX_PATH_LEN`] bits long.
    #[inline]
    pub fn child(&self, bit: Bit) -> Self {
        assert!(
            self.len() < MAX_PATH_LEN,
            "cannot extend a {MAX_PATH_LEN}-bit path"
        );
        let mut bits = self.bits;
        if bit & 1 == 1 {
            bits |= 1u128 << (127 - self.len);
        }
        BitPath {
            bits,
            len: self.len + 1,
        }
    }

    /// The path without its last bit.
    ///
    /// # Panics
    /// If the path is empty.
    #[inline]
    pub fn parent(&self) -> Self {
        assert!(!self.is_empty(), "parent of empty path");
        self.prefix(self.len() - 1)
    }

    /// The path that agrees with `self` except for the last bit: the other
    /// child of the same parent node.
    ///
    /// # Panics
    /// If the path is empty.
    #[inline]
    pub fn sibling(&self) -> Self {
        assert!(!self.is_empty(), "sibling of empty path");
        BitPath {
            bits: self.bits ^ (1u128 << (128 - self.len as u32)),
            len: self.len,
        }
    }

    /// The first `l` bits: the paper's `prefix(l, a)`.
    ///
    /// # Panics
    /// If `l > self.len()`.
    #[inline]
    pub fn prefix(&self, l: usize) -> Self {
        assert!(l <= self.len(), "prefix length {l} exceeds path length");
        BitPath::from_raw(self.bits, l as u8)
    }

    /// The sub-path starting at bit `start` (0-based), of length
    /// `len`: the paper's `sub_path(p, l, k)` with 0-based indexing.
    ///
    /// # Panics
    /// If `start + len > self.len()`.
    #[inline]
    pub fn sub_path(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len(),
            "sub_path [{start}, {start}+{len}) out of range (len {})",
            self.len
        );
        if len == 0 {
            return BitPath::EMPTY;
        }
        BitPath::from_raw(self.bits << start, len as u8)
    }

    /// Everything after the first `start` bits.
    #[inline]
    pub fn suffix(&self, start: usize) -> Self {
        assert!(start <= self.len());
        self.sub_path(start, self.len() - start)
    }

    /// Concatenation `self · other`.
    ///
    /// # Panics
    /// If the result would exceed [`MAX_PATH_LEN`] bits.
    #[inline]
    pub fn append(&self, other: &BitPath) -> Self {
        let total = self.len() + other.len();
        assert!(
            total <= MAX_PATH_LEN,
            "appended path of {total} bits exceeds MAX_PATH_LEN"
        );
        let bits = if self.len == 0 {
            other.bits
        } else if other.len == 0 {
            self.bits
        } else {
            self.bits | (other.bits >> self.len as u32)
        };
        BitPath {
            bits,
            len: total as u8,
        }
    }

    /// Length of the longest common prefix with `other`: the paper's
    /// `common_prefix_of`.
    #[inline]
    pub fn common_prefix_len(&self, other: &BitPath) -> usize {
        let max = self.len().min(other.len());
        let diff = self.bits ^ other.bits;
        (diff.leading_zeros() as usize).min(max)
    }

    /// The longest common prefix with `other` as a path.
    #[inline]
    pub fn common_prefix(&self, other: &BitPath) -> Self {
        self.prefix(self.common_prefix_len(other))
    }

    /// `true` when `self` is a (non-strict) prefix of `other`.
    #[inline]
    pub fn is_prefix_of(&self, other: &BitPath) -> bool {
        self.len() <= other.len() && self.common_prefix_len(other) == self.len()
    }

    /// `true` when the two paths are in a prefix relationship either way.
    #[inline]
    pub fn comparable(&self, other: &BitPath) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// The path with bit `i` flipped.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn with_flipped(&self, i: usize) -> Self {
        assert!(i < self.len());
        BitPath {
            bits: self.bits ^ (1u128 << (127 - i)),
            len: self.len,
        }
    }

    /// The paper's `val(k) = Σ_{i=1..n} 2^{-i} p_i`, a real in `[0, 1)`.
    #[inline]
    pub fn val(&self) -> f64 {
        // The left-aligned word *is* the fraction: bits / 2^128.
        // Split into two 64-bit halves to keep f64 rounding sane.
        let hi = (self.bits >> 64) as u64 as f64;
        let lo = self.bits as u64 as f64;
        hi / 2f64.powi(64) + lo / 2f64.powi(128)
    }

    /// The interval `I(k) = [val(k), val(k) + 2^{-n})` of the unit interval
    /// that a peer responsible for this path covers.
    #[inline]
    pub fn interval(&self) -> Interval {
        let lo = self.val();
        let width = 2f64.powi(-(self.len() as i32));
        Interval::new(lo, lo + width)
    }

    /// Iterator over the bits of the path, first decision first.
    #[inline]
    pub fn bits(&self) -> Bits {
        Bits { path: *self, i: 0 }
    }

    /// `true` if a peer responsible for `self` is responsible for `key`:
    /// the paper's criterion `val(key) ∈ I(path)`, which for binary strings
    /// is exactly the prefix test (keys at least as long as the path) or the
    /// reverse prefix test (shorter keys whose whole subtree intersects).
    ///
    /// For the common case `key.len() >= self.len()` this is
    /// `self.is_prefix_of(key)`.
    #[inline]
    pub fn responsible_for(&self, key: &BitPath) -> bool {
        self.is_prefix_of(key) || key.is_prefix_of(self)
    }
}

/// Flips a bit value: the paper's `p⁻ = (p + 1) mod 2`.
#[inline]
pub fn flip(bit: Bit) -> Bit {
    bit ^ 1
}

/// Iterator over the bits of a [`BitPath`].
#[derive(Clone)]
pub struct Bits {
    path: BitPath,
    i: usize,
}

impl Iterator for Bits {
    type Item = Bit;

    #[inline]
    fn next(&mut self) -> Option<Bit> {
        if self.i < self.path.len() {
            let b = self.path.bit(self.i);
            self.i += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.path.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Bits {}

impl PartialOrd for BitPath {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitPath {
    /// Lexicographic order on bit strings; a proper prefix sorts before its
    /// extensions. Because unused low machine bits are zero, this is a word
    /// compare with a length tie-break.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits
            .cmp(&other.bits)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl BitPath {
    /// The path as an owned `'0'`/`'1'` string. This is the flight
    /// recorder's key representation: one sized allocation per traced
    /// query.
    pub fn to_bit_string(&self) -> String {
        String::from(self.render(&mut [0; MAX_PATH_LEN]))
    }

    /// Writes the path's `'0'`/`'1'` digits into `buf`, returning them.
    fn render<'b>(&self, buf: &'b mut [u8; MAX_PATH_LEN]) -> &'b str {
        let digits = &mut buf[..self.len()];
        for (digit, b) in digits.iter_mut().zip(self.bits()) {
            *digit = b'0' + b;
        }
        std::str::from_utf8(digits).expect("'0'/'1' digits are ASCII")
    }
}

/// The `'0'`/`'1'` digits, padded and aligned like a string by the
/// formatter's width, fill and alignment.
impl fmt::Display for BitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.render(&mut [0; MAX_PATH_LEN]))
    }
}

impl fmt::Debug for BitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitPath(\"{}\")", self)
    }
}

impl FromStr for BitPath {
    type Err = BitPathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() > MAX_PATH_LEN {
            return Err(BitPathError::TooLong { requested: s.len() });
        }
        let mut p = BitPath::EMPTY;
        for (at, ch) in s.chars().enumerate() {
            match ch {
                '0' => p = p.child(0),
                '1' => p = p.child(1),
                _ => return Err(BitPathError::InvalidCharacter { ch, at }),
            }
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn to_bit_string_matches_display() {
        for s in ["", "0", "1", "0110", "111000111000"] {
            let path = p(s);
            assert_eq!(path.to_bit_string(), s);
            assert_eq!(path.to_bit_string(), format!("{path}"));
        }
    }

    #[test]
    fn empty_path_basics() {
        let e = BitPath::EMPTY;
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert_eq!(e.to_string(), "");
        assert_eq!(e.val(), 0.0);
        assert!(e.is_prefix_of(&p("0110")));
        assert!(e.is_prefix_of(&e));
    }

    #[test]
    fn display_honours_width_fill_and_alignment() {
        let path = p("0110");
        assert_eq!(format!("{path:<6}"), "0110  ");
        assert_eq!(format!("{path:>6}"), "  0110");
        assert_eq!(format!("{path:^6}"), " 0110 ");
        assert_eq!(format!("{path:*<6}"), "0110**");
        assert_eq!(format!("{path:<2}"), "0110", "a width never truncates");
        assert_eq!(format!("{:>3}", BitPath::EMPTY), "   ");
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "",
            "0",
            "1",
            "01",
            "10",
            "0110",
            "111000111",
            "010101010101",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            "01x".parse::<BitPath>(),
            Err(BitPathError::InvalidCharacter { ch: 'x', at: 2 })
        );
        let long = "0".repeat(MAX_PATH_LEN + 1);
        assert!(matches!(
            long.parse::<BitPath>(),
            Err(BitPathError::TooLong { .. })
        ));
    }

    #[test]
    fn bit_access_msb_first() {
        let q = p("0110");
        assert_eq!(q.bit(0), 0);
        assert_eq!(q.bit(1), 1);
        assert_eq!(q.bit(2), 1);
        assert_eq!(q.bit(3), 0);
        assert_eq!(q.last_bit(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        p("01").bit(2);
    }

    #[test]
    fn child_parent_sibling() {
        let q = p("01");
        assert_eq!(q.child(1), p("011"));
        assert_eq!(q.child(0), p("010"));
        assert_eq!(q.child(1).parent(), q);
        assert_eq!(q.sibling(), p("00"));
        assert_eq!(p("1").sibling(), p("0"));
    }

    #[test]
    fn prefix_and_subpath() {
        let q = p("011010");
        assert_eq!(q.prefix(0), BitPath::EMPTY);
        assert_eq!(q.prefix(3), p("011"));
        assert_eq!(q.prefix(6), q);
        assert_eq!(q.sub_path(2, 3), p("101"));
        assert_eq!(q.sub_path(6, 0), BitPath::EMPTY);
        assert_eq!(q.suffix(4), p("10"));
        assert_eq!(q.suffix(0), q);
    }

    #[test]
    fn append_assembles_paths() {
        assert_eq!(p("01").append(&p("10")), p("0110"));
        assert_eq!(p("").append(&p("10")), p("10"));
        assert_eq!(p("01").append(&p("")), p("01"));
        let a = BitPath::from_raw(u128::MAX, 64);
        let b = BitPath::from_raw(u128::MAX, 64);
        assert_eq!(a.append(&b).len(), 128);
        assert_eq!(a.append(&b).raw_bits(), u128::MAX);
    }

    #[test]
    fn common_prefix_cases() {
        assert_eq!(p("0110").common_prefix_len(&p("0111")), 3);
        assert_eq!(p("0110").common_prefix_len(&p("1110")), 0);
        assert_eq!(p("01").common_prefix_len(&p("0110")), 2);
        assert_eq!(p("0110").common_prefix_len(&p("0110")), 4);
        assert_eq!(p("").common_prefix_len(&p("0110")), 0);
        assert_eq!(p("0110").common_prefix(&p("0100")), p("01"));
    }

    #[test]
    fn prefix_relationships() {
        assert!(p("01").is_prefix_of(&p("0110")));
        assert!(!p("0110").is_prefix_of(&p("01")));
        assert!(p("01").comparable(&p("0110")));
        assert!(p("0110").comparable(&p("01")));
        assert!(!p("00").comparable(&p("01")));
    }

    #[test]
    fn val_matches_paper_formula() {
        // val(1) = 1/2, val(01) = 1/4, val(11) = 3/4, val(011) = 3/8
        assert_eq!(p("1").val(), 0.5);
        assert_eq!(p("01").val(), 0.25);
        assert_eq!(p("11").val(), 0.75);
        assert_eq!(p("011").val(), 0.375);
        assert_eq!(p("0000").val(), 0.0);
    }

    #[test]
    fn interval_covers_extensions() {
        let q = p("01");
        let i = q.interval();
        assert_eq!(i.lo(), 0.25);
        assert_eq!(i.hi(), 0.5);
        assert!(i.contains(p("0110").val()));
        assert!(!i.contains(p("10").val()));
    }

    #[test]
    fn responsibility_is_prefix_test() {
        let peer = p("011");
        assert!(peer.responsible_for(&p("01101")));
        assert!(peer.responsible_for(&p("011")));
        assert!(peer.responsible_for(&p("01"))); // query subsumes the peer's subtree
        assert!(!peer.responsible_for(&p("0100")));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [p("1"), p("01"), p("010"), p("0"), p(""), p("011"), p("10")];
        v.sort();
        let rendered: Vec<String> = v.iter().map(|q| q.to_string()).collect();
        assert_eq!(rendered, vec!["", "0", "01", "010", "011", "1", "10"]);
    }

    #[test]
    fn flip_helper() {
        assert_eq!(flip(0), 1);
        assert_eq!(flip(1), 0);
        assert_eq!(p("0110").with_flipped(0), p("1110"));
        assert_eq!(p("0110").with_flipped(3), p("0111"));
    }

    #[test]
    fn from_value_enumerates() {
        assert_eq!(BitPath::from_value(0b00, 2), p("00"));
        assert_eq!(BitPath::from_value(0b01, 2), p("01"));
        assert_eq!(BitPath::from_value(0b10, 2), p("10"));
        assert_eq!(BitPath::from_value(0b11, 2), p("11"));
        assert_eq!(BitPath::from_value(5, 0), BitPath::EMPTY);
    }

    #[test]
    fn from_bits_round_trip() {
        let q = BitPath::from_bits(&[0, 1, 1, 0]).unwrap();
        assert_eq!(q, p("0110"));
        let collected: Vec<Bit> = q.bits().collect();
        assert_eq!(collected, vec![0, 1, 1, 0]);
    }

    #[test]
    fn random_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [0u8, 1, 5, 64, 128] {
            let q = BitPath::random(&mut rng, len);
            assert_eq!(q.len(), len as usize);
        }
    }

    #[test]
    fn random_is_roughly_uniform_on_first_bit() {
        let mut rng = StdRng::seed_from_u64(42);
        let ones: usize = (0..10_000)
            .map(|_| BitPath::random(&mut rng, 8).bit(0) as usize)
            .sum();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn normalization_invariant_holds() {
        // from_raw masks stray low bits, so equality is structural.
        let a = BitPath::from_raw(u128::MAX, 3);
        assert_eq!(a, p("111"));
        assert_eq!(a.raw_bits() & !super::high_mask(3), 0);
    }

    #[test]
    fn max_length_paths() {
        let full = BitPath::from_raw(u128::MAX, 128);
        assert_eq!(full.len(), 128);
        assert_eq!(full.prefix(128), full);
        assert!((full.val() - 1.0).abs() < 1e-9);
    }
}
