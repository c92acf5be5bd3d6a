//! Prefix ranges over ordered key collections: under [`BitPath`]'s
//! lexicographic order a trie subtree is one contiguous key range, so an
//! ordered map or set answers "which keys fall under path `p`?" with one
//! range scan and hands off "everything not under `p`" with two splits.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use pgrid_keys::{BitPath, Key};

use crate::ItemId;

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
/// Splitting an ordered map at `path` and at this bound isolates the
/// subtree.
pub fn subtree_upper(path: &BitPath) -> Option<BitPath> {
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

/// The storage backends' secondary key index: one set element per
/// `(key, id)` pair, so a key holding one item costs no collection of its
/// own, and a prefix scan yields ids in key order, then id order.
#[derive(Clone, Debug, Default)]
pub(crate) struct KeyIds(BTreeSet<(Key, ItemId)>);

impl KeyIds {
    /// Files `id` under `key`, unfiling it from `prev`, the key it had.
    pub(crate) fn link(&mut self, prev: Option<Key>, key: Key, id: ItemId) {
        if let Some(prev) = prev.filter(|&p| p != key) {
            self.unlink(prev, id);
        }
        self.0.insert((key, id));
    }

    /// Unfiles `id` from `key`.
    pub(crate) fn unlink(&mut self, key: Key, id: ItemId) {
        self.0.remove(&(key, id));
    }

    /// The ids filed under keys that have `path` as a prefix.
    pub(crate) fn under(&self, path: &BitPath) -> impl Iterator<Item = ItemId> + '_ {
        let lower = Bound::Included((*path, ItemId(0)));
        let upper = match subtree_upper(path) {
            Some(u) => Bound::Excluded((u, ItemId(0))),
            None => Bound::Unbounded,
        };
        self.0.range((lower, upper)).map(|&(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        BitPath::from_str_lossy(s)
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

    /// `KeyIds` against a naive `Vec<(Key, ItemId)>` (linear prefix
    /// filter, sort by `Ord`): re-keying links, unlinks and scans agree.
    /// Key lengths 0–12 with one path in eight all ones make the empty
    /// path and the unbounded range (`subtree_upper == None`) occur.
    #[test]
    fn seeded_ops_match_a_naive_vec_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(23);
        let random_path = |rng: &mut StdRng| {
            let len = rng.gen_range(0..=12u8);
            let bits = if rng.gen_range(0..8) == 0 {
                u128::MAX
            } else {
                rng.gen()
            };
            BitPath::from_raw(bits, len)
        };
        let mut ids = KeyIds::default();
        let mut model: Vec<(Key, ItemId)> = Vec::new();
        let (mut unbounded_scans, mut rekeys) = (0, 0);
        for _ in 0..4000 {
            let id = ItemId(rng.gen_range(0..64));
            let slot = model.iter().position(|&(_, i)| i == id);
            match rng.gen_range(0..6) {
                0..=2 => {
                    let key = random_path(&mut rng);
                    let prev = slot.map(|i| model.swap_remove(i).0);
                    rekeys += usize::from(prev.is_some_and(|p| p != key));
                    ids.link(prev, key, id);
                    model.push((key, id));
                }
                3 => {
                    if let Some(i) = slot {
                        let (key, _) = model.swap_remove(i);
                        ids.unlink(key, id);
                    }
                }
                _ => {
                    let path = random_path(&mut rng);
                    unbounded_scans += usize::from(subtree_upper(&path).is_none());
                    let mut want: Vec<(Key, ItemId)> = model
                        .iter()
                        .filter(|(k, _)| path.is_prefix_of(k))
                        .copied()
                        .collect();
                    want.sort();
                    let want: Vec<ItemId> = want.into_iter().map(|(_, i)| i).collect();
                    assert_eq!(ids.under(&path).collect::<Vec<_>>(), want, "under({path})");
                }
            }
            assert_eq!(ids.0.len(), model.len());
        }
        assert!(unbounded_scans > 0 && rekeys > 0);
    }
}
