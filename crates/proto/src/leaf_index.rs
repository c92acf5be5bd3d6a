//! The leaf-level index `D ⊆ ADDR × K` — which peers host items under
//! which keys — for the engine's `Peer` (`pgrid-core` re-exports it) and
//! the live [`crate::ProtocolPeer`] alike.
//!
//! An ordered map keyed by [`Key`]: under [`BitPath`]'s lexicographic
//! order a trie subtree is one contiguous key range, so prefix scans and
//! the hand-off on specialization are range operations. A key's only
//! entry sits inline in its slot and a second entry spills the slot to a
//! `Vec`, so a key with one holder — nearly every key — costs no heap
//! allocation beyond its share of a B-tree node.

use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::{Deref, DerefMut};

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_store::{prefix_range, subtree_upper};
use pgrid_wire::WireEntry;

/// One index entry: which peer hosts which item, at which version.
pub trait LeafEntry: Copy {
    /// The `(item, holder)` pair an index keeps one entry for per key.
    fn id(&self) -> (u64, PeerId);
    /// The item version the entry records.
    fn version_mut(&mut self) -> &mut u64;
}

impl LeafEntry for WireEntry {
    fn id(&self) -> (u64, PeerId) {
        (self.item, self.holder)
    }
    fn version_mut(&mut self) -> &mut u64 {
        &mut self.version
    }
}

/// The entries under one key, in insertion order: the only one inline,
/// two or more in a `Vec`. Reads as a slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyEntries<E> {
    /// The key's only entry.
    One(E),
    /// Two or more entries.
    Many(Vec<E>),
}

impl<E> Deref for KeyEntries<E> {
    type Target = [E];
    fn deref(&self) -> &[E] {
        match self {
            KeyEntries::One(entry) => std::slice::from_ref(entry),
            KeyEntries::Many(entries) => entries,
        }
    }
}

impl<E> DerefMut for KeyEntries<E> {
    fn deref_mut(&mut self) -> &mut [E] {
        match self {
            KeyEntries::One(entry) => std::slice::from_mut(entry),
            KeyEntries::Many(entries) => entries,
        }
    }
}

/// A peer's leaf index: key → the entries under it, in key order.
///
/// ```
/// use pgrid_net::PeerId;
/// use pgrid_proto::LeafIndex;
/// use pgrid_wire::WireEntry;
///
/// let entry = |item, version| WireEntry { item, holder: PeerId(1), version };
/// let mut index = LeafIndex::new();
/// index.insert("0110".parse().unwrap(), entry(1, 0));
/// index.insert("0110".parse().unwrap(), entry(1, 2)); // newer: upgrades
/// index.insert("0110".parse().unwrap(), entry(2, 0)); // second entry
/// assert_eq!(index.lookup(&"0110".parse().unwrap()), &[entry(1, 2), entry(2, 0)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafIndex<E> {
    map: BTreeMap<Key, KeyEntries<E>>,
}

impl<E> Default for LeafIndex<E> {
    fn default() -> Self {
        LeafIndex {
            map: BTreeMap::new(),
        }
    }
}

impl<E: LeafEntry> LeafIndex<E> {
    /// An empty index.
    pub fn new() -> Self {
        LeafIndex::default()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds `entry` under `key`: idempotent per `(item, holder)`, and a
    /// newer version overwrites an older one.
    pub fn insert(&mut self, key: Key, mut entry: E) {
        let entries = match self.map.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(KeyEntries::One(entry));
                return;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        let version = *entry.version_mut();
        match entries.iter_mut().find(|e| e.id() == entry.id()) {
            Some(existing) => {
                let v = existing.version_mut();
                *v = version.max(*v);
            }
            None => match entries {
                KeyEntries::One(first) => *entries = KeyEntries::Many(vec![*first, entry]),
                KeyEntries::Many(all) => all.push(entry),
            },
        }
    }

    /// Raises every entry of `item` under `key` to `version` where that is
    /// newer. Returns whether anything changed.
    pub fn apply_update(&mut self, key: &Key, item: u64, version: u64) -> bool {
        let Some(entries) = self.map.get_mut(key) else {
            return false;
        };
        let mut changed = false;
        for e in entries.iter_mut().filter(|e| e.id().0 == item) {
            let v = e.version_mut();
            changed |= version > *v;
            *v = version.max(*v);
        }
        changed
    }

    /// The entries stored under exactly `key`.
    pub fn lookup(&self, key: &Key) -> &[E] {
        self.map.get(key).map_or(&[], |entries| entries)
    }

    /// Removes and returns the entries under `key`.
    pub fn remove(&mut self, key: &Key) -> Option<KeyEntries<E>> {
        self.map.remove(key)
    }

    /// Every key with its entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[E])> + '_ {
        self.map.iter().map(|(k, entries)| (k, &**entries))
    }

    /// Visits every key that has `path` as a prefix with its entries, in
    /// key order.
    pub fn for_each_under<'a>(&'a self, path: &BitPath, mut f: impl FnMut(Key, &'a [E])) {
        for (k, entries) in prefix_range(&self.map, path) {
            f(*k, entries);
        }
    }

    /// Number of keys under `path`.
    pub fn count_under(&self, path: &BitPath) -> usize {
        prefix_range(&self.map, path).count()
    }

    /// Removes and returns, in key order, every key that does **not** have
    /// `path` as a prefix — the half a peer hands to its partner when it
    /// specializes to `path`. Keys that are proper prefixes of `path` go
    /// too: the specialized peer no longer covers the coarser subtree.
    pub fn extract_not_under(&mut self, path: &BitPath) -> Vec<(Key, KeyEntries<E>)> {
        // What stays is the contiguous range `[path, subtree_upper(path))`.
        let mut kept = self.map.split_off(path);
        let after = match subtree_upper(path) {
            Some(upper) => kept.split_off(&upper),
            None => BTreeMap::new(),
        };
        let before = std::mem::replace(&mut self.map, kept);
        before.into_iter().chain(after).collect()
    }

    /// Removes and returns, in key order, every key a peer at `path` is
    /// not responsible for: [`LeafIndex::extract_not_under`], except that
    /// keys coarser than `path` stay, since their subtree overlaps it.
    pub fn extract_foreign(&mut self, path: &BitPath) -> Vec<(Key, KeyEntries<E>)> {
        let (coarser, foreign): (Vec<_>, Vec<_>) = self
            .extract_not_under(path)
            .into_iter()
            .partition(|(k, _)| k.is_prefix_of(path));
        self.map.extend(coarser);
        foreign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        BitPath::from_str_lossy(s)
    }

    fn e(item: u64, holder: u32, version: u64) -> WireEntry {
        WireEntry {
            item,
            holder: PeerId(holder),
            version,
        }
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut t = LeafIndex::new();
        assert!(t.is_empty());
        t.insert(k("0101"), e(1, 9, 0));
        t.insert(k("01"), e(2, 9, 0));
        t.insert(k(""), e(3, 9, 0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(&k("0101")), &[e(1, 9, 0)]);
        assert_eq!(t.lookup(&k("")), &[e(3, 9, 0)]);
        assert_eq!(t.lookup(&k("010")), &[]);
        assert_eq!(t.remove(&k("01")), Some(KeyEntries::One(e(2, 9, 0))));
        assert_eq!(t.remove(&k("01")), None);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.lookup(&k("0101")),
            &[e(1, 9, 0)],
            "removal must not disturb deeper keys"
        );
    }

    #[test]
    fn second_entry_spills_in_insertion_order() {
        let mut t = LeafIndex::new();
        t.insert(k("11"), e(1, 9, 0));
        t.insert(k("11"), e(1, 9, 0)); // duplicate
        assert!(matches!(t.remove(&k("11")), Some(KeyEntries::One(_))));
        t.insert(k("11"), e(1, 9, 0));
        t.insert(k("11"), e(1, 8, 0)); // same item, other holder
        t.insert(k("11"), e(2, 9, 0));
        assert_eq!(t.lookup(&k("11")), &[e(1, 9, 0), e(1, 8, 0), e(2, 9, 0)]);
        assert!(t.apply_update(&k("11"), 1, 4));
        assert!(!t.apply_update(&k("11"), 1, 3), "stale");
        assert!(!t.apply_update(&k("10"), 1, 9), "absent key");
        let owned = t.remove(&k("11")).unwrap();
        assert_eq!(*owned, [e(1, 9, 4), e(1, 8, 4), e(2, 9, 0)]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn scans_visit_a_subtree_in_key_order() {
        let mut t = LeafIndex::new();
        for (i, s) in ["11", "0110", "001", "10", "01", "000"].iter().enumerate() {
            t.insert(k(s), e(i as u64, 0, 0));
        }
        let mut under_0 = Vec::new();
        t.for_each_under(&k("0"), |key, _| under_0.push(key.to_string()));
        assert_eq!(under_0, vec!["000", "001", "01", "0110"]);
        assert_eq!(t.count_under(&k("")), 6);
        assert_eq!(t.count_under(&k("011")), 1);
        assert_eq!(t.count_under(&k("0111")), 0);
    }

    #[test]
    fn iter_walks_every_key_in_order() {
        let mut t = LeafIndex::new();
        for s in ["11", "0", "10", "011", "000"] {
            t.insert(k(s), e(0, 0, 0));
        }
        let all: Vec<String> = t.iter().map(|(key, _)| key.to_string()).collect();
        assert_eq!(all, vec!["0", "000", "011", "10", "11"]);
    }

    #[test]
    fn extractions_differ_only_in_coarser_keys() {
        let build = || {
            let mut t = LeafIndex::new();
            for s in ["000", "001", "010", "011", "10", "0", ""] {
                t.insert(k(s), e(0, 0, 0));
            }
            t
        };
        let keys = |moved: &[(Key, KeyEntries<WireEntry>)]| -> Vec<String> {
            moved.iter().map(|(key, _)| key.to_string()).collect()
        };
        let mut t = build();
        // "" and "0" are proper prefixes of "01" and go with the rest.
        assert_eq!(
            keys(&t.extract_not_under(&k("01"))),
            vec!["", "0", "000", "001", "10"]
        );
        assert_eq!(t.len(), 2);
        let mut t = build();
        // A peer at "01" still answers for them.
        assert_eq!(keys(&t.extract_foreign(&k("01"))), vec!["000", "001", "10"]);
        assert_eq!(t.len(), 4);
    }
}
