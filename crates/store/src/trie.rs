//! Ordered key index and prefix-range lookup.
//!
//! Peers keep their leaf-level index `D` (key → hosting peers) in a structure
//! that must answer two of the trie's questions efficiently during
//! construction and search:
//! *"which entries fall under trie path `p`?"* (when answering a query for a
//! whole subtree) and *"hand me everything **not** under `p`"* (when a peer
//! specializes its path and transfers the other half of its index to its
//! exchange partner). Under [`BitPath`]'s lexicographic order a subtree is one
//! contiguous key range, so an ordered map answers both.

use std::collections::BTreeMap;
use std::ops::Bound;

use pgrid_keys::{BitPath, Key};

/// Iterates over the entries of an ordered map whose keys have `path` as a
/// prefix.
///
/// Relies on [`BitPath`]'s lexicographic `Ord`: the extensions of `path` form
/// the contiguous range `[path, sibling-of-last-zero-ancestor)`.
pub fn prefix_range<'a, V>(
    map: &'a BTreeMap<Key, V>,
    path: &BitPath,
) -> impl Iterator<Item = (&'a Key, &'a V)> + 'a {
    let lower = Bound::Included(*path);
    let upper = match subtree_upper(path) {
        Some(u) => Bound::Excluded(u),
        None => Bound::Unbounded,
    };
    map.range((lower, upper))
}

/// The smallest path lexicographically greater than every extension of
/// `path`, or `None` when no such path exists (`path` is empty or all ones).
fn subtree_upper(path: &BitPath) -> Option<BitPath> {
    let mut p = *path;
    while !p.is_empty() && p.last_bit() == 1 {
        p = p.parent();
    }
    if p.is_empty() {
        None
    } else {
        Some(p.sibling())
    }
}

/// An ordered index mapping exact keys to values, answering the trie's
/// subtree questions as key ranges.
///
/// ```
/// use pgrid_keys::BitPath;
/// use pgrid_store::TrieIndex;
///
/// let mut index = TrieIndex::new();
/// index.insert("0110".parse().unwrap(), "a");
/// index.insert("0111".parse().unwrap(), "b");
/// index.insert("10".parse().unwrap(), "c");
///
/// // Everything under the "01" subtree, in key order:
/// let under: Vec<&str> = index
///     .entries_under(&"01".parse().unwrap())
///     .into_iter()
///     .map(|(_, v)| *v)
///     .collect();
/// assert_eq!(under, vec!["a", "b"]);
///
/// // A peer specializing to "0" hands everything else away:
/// let moved = index.extract_not_under(&"0".parse().unwrap());
/// assert_eq!(moved.len(), 1);
/// assert_eq!(index.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TrieIndex<V> {
    map: BTreeMap<Key, V>,
}

impl<V> Default for TrieIndex<V> {
    fn default() -> Self {
        TrieIndex {
            map: BTreeMap::new(),
        }
    }
}

impl<V> TrieIndex<V> {
    /// Creates an empty index.
    pub fn new() -> Self {
        TrieIndex::default()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts `value` at `key`, returning the previous value if present.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Looks up the value stored at exactly `key`.
    pub fn get(&self, key: &Key) -> Option<&V> {
        self.map.get(key)
    }

    /// Mutable lookup at exactly `key`.
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// Returns the entry for `key`, inserting `default()` if absent.
    pub fn get_or_insert_with(&mut self, key: Key, default: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(default)
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        self.map.remove(key)
    }

    /// Visits every `(key, value)` whose key has `path` as a prefix, in
    /// lexicographic key order.
    pub fn for_each_under<'a>(&'a self, path: &BitPath, mut f: impl FnMut(Key, &'a V)) {
        for (k, v) in prefix_range(&self.map, path) {
            f(*k, v);
        }
    }

    /// Collects every `(key, value)` under `path`.
    pub fn entries_under(&self, path: &BitPath) -> Vec<(Key, &V)> {
        prefix_range(&self.map, path)
            .map(|(k, v)| (*k, v))
            .collect()
    }

    /// All entries, in lexicographic key order.
    pub fn entries(&self) -> Vec<(Key, &V)> {
        self.entries_under(&BitPath::EMPTY)
    }

    /// Number of keys under `path`.
    pub fn count_under(&self, path: &BitPath) -> usize {
        prefix_range(&self.map, path).count()
    }

    /// Removes and returns, in key order, every entry whose key does **not**
    /// have `path` as a prefix — the index half a peer hands to its partner
    /// when it specializes its own path to `path`.
    ///
    /// Entries whose key is a *proper prefix* of `path` (coarser than the new
    /// responsibility) are also extracted: the specialized peer can no longer
    /// claim authority over the whole coarser subtree.
    pub fn extract_not_under(&mut self, path: &BitPath) -> Vec<(Key, V)> {
        // What stays is the contiguous range `[path, subtree_upper(path))`.
        let mut kept = self.map.split_off(path);
        let after = match subtree_upper(path) {
            Some(upper) => kept.split_off(&upper),
            None => BTreeMap::new(),
        };
        let before = std::mem::replace(&mut self.map, kept);
        before.into_iter().chain(after).collect()
    }
}

impl<V> FromIterator<(Key, V)> for TrieIndex<V> {
    fn from_iter<T: IntoIterator<Item = (Key, V)>>(iter: T) -> Self {
        TrieIndex {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = TrieIndex::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(k("0101"), 1), None);
        assert_eq!(t.insert(k("0101"), 2), Some(1));
        assert_eq!(t.insert(k("01"), 3), None);
        assert_eq!(t.insert(k(""), 4), None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&k("0101")), Some(&2));
        assert_eq!(t.get(&k("01")), Some(&3));
        assert_eq!(t.get(&k("")), Some(&4));
        assert_eq!(t.get(&k("010")), None);
        assert_eq!(t.remove(&k("01")), Some(3));
        assert_eq!(t.remove(&k("01")), None);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get(&k("0101")),
            Some(&2),
            "removal must not disturb deeper keys"
        );
    }

    #[test]
    fn get_mut_and_get_or_insert() {
        let mut t = TrieIndex::new();
        *t.get_or_insert_with(k("11"), || 0) += 5;
        *t.get_or_insert_with(k("11"), || 100) += 1;
        assert_eq!(t.get(&k("11")), Some(&6));
        *t.get_mut(&k("11")).unwrap() = 9;
        assert_eq!(t.get(&k("11")), Some(&9));
        assert!(t.get_mut(&k("10")).is_none());
    }

    #[test]
    fn entries_under_subtree() {
        let mut t = TrieIndex::new();
        for (i, s) in ["000", "001", "01", "0110", "10", "11"].iter().enumerate() {
            t.insert(k(s), i);
        }
        let under_0: Vec<String> = t
            .entries_under(&k("0"))
            .iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(under_0, vec!["000", "001", "01", "0110"]);
        assert_eq!(t.count_under(&k("")), 6);
        assert_eq!(t.count_under(&k("011")), 1);
        assert_eq!(t.count_under(&k("0111")), 0);
    }

    #[test]
    fn entries_are_sorted() {
        let mut t = TrieIndex::new();
        for s in ["11", "0", "10", "011", "000"] {
            t.insert(k(s), ());
        }
        let keys: Vec<String> = t.entries().iter().map(|(key, _)| key.to_string()).collect();
        assert_eq!(keys, vec!["0", "000", "011", "10", "11"]);
    }

    #[test]
    fn extract_not_under_splits_index() {
        let mut t = TrieIndex::new();
        for s in ["000", "001", "010", "011", "10", "0"] {
            t.insert(k(s), s.to_string());
        }
        let moved = t.extract_not_under(&k("01"));
        let moved_keys: Vec<String> = moved.iter().map(|(key, _)| key.to_string()).collect();
        // "0" is a proper prefix of "01" and must be extracted too.
        assert_eq!(moved_keys, vec!["0", "000", "001", "10"]);
        assert_eq!(t.len(), 2);
        assert!(t.get(&k("010")).is_some());
        assert!(t.get(&k("011")).is_some());
    }

    #[test]
    fn prefix_range_on_btreemap() {
        let mut m = BTreeMap::new();
        for s in ["000", "001", "01", "0110", "10", "11", "1"] {
            m.insert(k(s), s.to_string());
        }
        let under: Vec<String> = prefix_range(&m, &k("0"))
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(under, vec!["000", "001", "01", "0110"]);
        let under_1: Vec<String> = prefix_range(&m, &k("1"))
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(under_1, vec!["1", "10", "11"]);
        let all: Vec<String> = prefix_range(&m, &BitPath::EMPTY)
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(all.len(), 7);
        assert_eq!(prefix_range(&m, &k("0111")).count(), 0);
    }

    #[test]
    fn prefix_range_all_ones_path() {
        let mut m = BTreeMap::new();
        m.insert(k("111"), 1);
        m.insert(k("1110"), 2);
        m.insert(k("110"), 3);
        let under: Vec<i32> = prefix_range(&m, &k("111")).map(|(_, v)| *v).collect();
        assert_eq!(under, vec![1, 2]);
    }

    #[test]
    fn subtree_upper_cases() {
        // The bound must exclude the bare key "1", which sorts between the
        // extensions of "01" and "10" — so the tight upper bound is "1".
        assert_eq!(subtree_upper(&k("01")), Some(k("1")));
        assert_eq!(subtree_upper(&k("0111")), Some(k("1")));
        assert_eq!(subtree_upper(&k("111")), None);
        assert_eq!(subtree_upper(&BitPath::EMPTY), None);
        assert_eq!(subtree_upper(&k("0")), Some(k("1")));
    }

    /// `TrieIndex` against a naive `Vec<(Key, V)>` (linear prefix filters,
    /// sort by `Ord`): same results, same returned order, same remainder.
    /// Key lengths 0–12 make proper prefixes of the split path, the empty
    /// path and all-ones paths (`subtree_upper == None`) all occur.
    #[test]
    fn seeded_ops_match_a_naive_vec_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn sorted_under(model: &[(Key, u32)], path: &BitPath) -> Vec<(Key, u32)> {
            let mut under: Vec<(Key, u32)> = model
                .iter()
                .filter(|(k, _)| path.is_prefix_of(k))
                .copied()
                .collect();
            under.sort();
            under
        }

        let mut rng = StdRng::seed_from_u64(23);
        let random_path = |rng: &mut StdRng| {
            let len = rng.gen_range(0..=12u8);
            // One path in eight is all ones, so the unbounded range occurs.
            let bits = if rng.gen_range(0..8) == 0 {
                u128::MAX
            } else {
                rng.gen()
            };
            BitPath::from_raw(bits, len)
        };
        let mut trie: TrieIndex<u32> = TrieIndex::new();
        let mut model: Vec<(Key, u32)> = Vec::new();
        let (mut empty_splits, mut ones_splits, mut coarser_extracted) = (0, 0, 0);

        for step in 0..4000u32 {
            let key = random_path(&mut rng);
            let slot = model.iter().position(|(k, _)| *k == key);
            match rng.gen_range(0..10) {
                0..=3 => {
                    let prev = slot.map(|i| std::mem::replace(&mut model[i].1, step));
                    if prev.is_none() {
                        model.push((key, step));
                    }
                    assert_eq!(trie.insert(key, step), prev);
                }
                4 => {
                    let got = *trie.get_or_insert_with(key, || step);
                    match slot {
                        Some(i) => assert_eq!(got, model[i].1),
                        None => {
                            assert_eq!(got, step);
                            model.push((key, step));
                        }
                    }
                }
                5 | 6 => {
                    assert_eq!(trie.remove(&key), slot.map(|i| model.swap_remove(i).1));
                }
                7 | 8 => {
                    let expect = sorted_under(&model, &key);
                    let got: Vec<(Key, u32)> = trie
                        .entries_under(&key)
                        .into_iter()
                        .map(|(k, v)| (k, *v))
                        .collect();
                    assert_eq!(got, expect, "entries_under({key})");
                    assert_eq!(trie.count_under(&key), expect.len());
                }
                _ => {
                    let (stay, mut go): (Vec<_>, Vec<_>) = model
                        .iter()
                        .copied()
                        .partition(|(k, _)| key.is_prefix_of(k));
                    go.sort();
                    empty_splits += usize::from(key.is_empty());
                    ones_splits += usize::from(!key.is_empty() && subtree_upper(&key).is_none());
                    coarser_extracted += go.iter().filter(|(k, _)| k.is_prefix_of(&key)).count();
                    assert_eq!(trie.extract_not_under(&key), go, "extract_not_under({key})");
                    model = stay;
                }
            }
            assert_eq!(trie.len(), model.len());
            assert_eq!(
                trie.get(&key),
                model.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
            );
        }
        let remaining: Vec<(Key, u32)> = trie.entries().into_iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(remaining, sorted_under(&model, &BitPath::EMPTY));
        assert!(empty_splits > 0 && ones_splits > 0 && coarser_extracted > 0);
    }

    #[test]
    fn from_iterator() {
        let t: TrieIndex<u32> = [(k("01"), 1), (k("10"), 2)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k("10")), Some(&2));
    }
}
