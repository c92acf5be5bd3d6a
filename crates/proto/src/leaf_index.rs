//! The leaf-level index `D ⊆ ADDR × K` — which peers host items under
//! which keys — for the engine's `Peer` (`pgrid-core` re-exports it) and
//! the live [`crate::ProtocolPeer`] alike.
//!
//! Keys are kept in [`Key`] order: under [`BitPath`]'s lexicographic order
//! a trie subtree is one contiguous key range, so prefix scans and the
//! hand-off on specialization are range operations. An index costs what
//! it holds, at both levels. Up to eleven keys — one B-tree leaf's worth,
//! and what most peers of a large grid hold — sit in one sorted `Vec`
//! grown no further than that; the twelfth key moves them into a
//! `BTreeMap`, which keeps inserts into a large index cheap. Under a key,
//! its only entry sits inline in its slot and a second entry spills the
//! slot to a `Vec`, so a key with one holder — nearly every key —
//! allocates nothing of its own.

use std::collections::btree_map::{self, BTreeMap, Entry};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut};

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_store::subtree_upper;
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

impl<E: LeafEntry> KeyEntries<E> {
    /// Adds `entry`: a newer version of a held `(item, holder)` pair
    /// overwrites the older one, anything else is appended.
    fn add(&mut self, mut entry: E) {
        let version = *entry.version_mut();
        match self.iter_mut().find(|e| e.id() == entry.id()) {
            Some(existing) => {
                let v = existing.version_mut();
                *v = version.max(*v);
            }
            None => match self {
                KeyEntries::One(first) => *self = KeyEntries::Many(vec![*first, entry]),
                KeyEntries::Many(all) => all.push(entry),
            },
        }
    }
}

/// Keys a small index holds at most: the capacity of one B-tree leaf.
const SMALL_MAX: usize = 11;

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
///
/// Equality and `Debug` go by content, whichever form each side is in.
#[derive(Clone)]
pub struct LeafIndex<E> {
    slots: Slots<E>,
}

/// The two forms of an index. Twelve inserted keys move a small index to
/// the large form; an extraction that leaves at most eleven moves it back.
/// A single `remove` never does, so an index at the boundary does not
/// churn.
#[derive(Clone)]
enum Slots<E> {
    /// At most [`SMALL_MAX`] keys, sorted.
    Small(Vec<(Key, KeyEntries<E>)>),
    /// Any number of keys.
    Large(BTreeMap<Key, KeyEntries<E>>),
}

/// The slots of one key range, in key order, from either form.
enum Range<'a, E> {
    Small(std::slice::Iter<'a, (Key, KeyEntries<E>)>),
    Large(btree_map::Range<'a, Key, KeyEntries<E>>),
}

impl<'a, E> Iterator for Range<'a, E> {
    type Item = (&'a Key, &'a KeyEntries<E>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Range::Small(slots) => slots.next().map(|(k, entries)| (k, entries)),
            Range::Large(slots) => slots.next(),
        }
    }
}

impl<E> Default for LeafIndex<E> {
    fn default() -> Self {
        LeafIndex {
            slots: Slots::Small(Vec::new()),
        }
    }
}

impl<E: PartialEq> PartialEq for LeafIndex<E> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .slots_under(&BitPath::EMPTY)
                .eq(other.slots_under(&BitPath::EMPTY))
    }
}

impl<E: Eq> Eq for LeafIndex<E> {}

impl<E: fmt::Debug> fmt::Debug for LeafIndex<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.slots_under(&BitPath::EMPTY))
            .finish()
    }
}

impl<E> LeafIndex<E> {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Small(slots) => slots.len(),
            Slots::Large(map) => map.len(),
        }
    }

    /// `true` when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots of every key that has `path` as a prefix, in key order:
    /// the contiguous range `[path, subtree_upper(path))`.
    fn slots_under(&self, path: &BitPath) -> Range<'_, E> {
        match &self.slots {
            Slots::Small(slots) => Range::Small(slots[small_range(slots, path)].iter()),
            Slots::Large(map) => {
                let upper = subtree_upper(path).map_or(Bound::Unbounded, Bound::Excluded);
                Range::Large(map.range((Bound::Included(*path), upper)))
            }
        }
    }
}

impl<E: LeafEntry> LeafIndex<E> {
    /// An empty index.
    pub fn new() -> Self {
        LeafIndex::default()
    }

    /// The slot under `key`, if there is one; otherwise files `fresh()`
    /// there, moving a full small index to the large form first.
    fn slot_or_insert(
        &mut self,
        key: Key,
        fresh: impl FnOnce() -> KeyEntries<E>,
    ) -> Option<&mut KeyEntries<E>> {
        if let Slots::Small(slots) = &mut self.slots {
            if slots.len() == SMALL_MAX && search(slots, &key).is_err() {
                self.slots = Slots::Large(std::mem::take(slots).into_iter().collect());
            }
        }
        match &mut self.slots {
            Slots::Small(slots) => match search(slots, &key) {
                Ok(i) => Some(&mut slots[i].1),
                Err(i) => {
                    if slots.len() == slots.capacity() {
                        // Grow by doubling from four, but never past a full
                        // small index.
                        let want = (2 * slots.len()).clamp(4, SMALL_MAX);
                        slots.reserve_exact(want - slots.len());
                    }
                    slots.insert(i, (key, fresh()));
                    None
                }
            },
            Slots::Large(map) => match map.entry(key) {
                Entry::Occupied(slot) => Some(slot.into_mut()),
                Entry::Vacant(slot) => {
                    slot.insert(fresh());
                    None
                }
            },
        }
    }

    /// The slot under exactly `key`.
    fn slot_mut(&mut self, key: &Key) -> Option<&mut KeyEntries<E>> {
        match &mut self.slots {
            Slots::Small(slots) => search(slots, key).ok().map(|i| &mut slots[i].1),
            Slots::Large(map) => map.get_mut(key),
        }
    }

    /// Adds `entry` under `key`: idempotent per `(item, holder)`, and a
    /// newer version overwrites an older one.
    pub fn insert(&mut self, key: Key, entry: E) {
        if let Some(entries) = self.slot_or_insert(key, || KeyEntries::One(entry)) {
            entries.add(entry);
        }
    }

    /// Raises every entry of `item` under `key` to `version` where that is
    /// newer. Returns whether anything changed.
    pub fn apply_update(&mut self, key: &Key, item: u64, version: u64) -> bool {
        let Some(entries) = self.slot_mut(key) else {
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
        let entries = match &self.slots {
            Slots::Small(slots) => search(slots, key).ok().map(|i| &slots[i].1),
            Slots::Large(map) => map.get(key),
        };
        entries.map_or(&[], |entries| entries)
    }

    /// Removes and returns the entries under `key`. The index keeps its
    /// form.
    pub fn remove(&mut self, key: &Key) -> Option<KeyEntries<E>> {
        match &mut self.slots {
            Slots::Small(slots) => search(slots, key).ok().map(|i| slots.remove(i).1),
            Slots::Large(map) => map.remove(key),
        }
    }

    /// Every key with its entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[E])> + '_ {
        self.slots_under(&BitPath::EMPTY)
            .map(|(k, entries)| (k, &**entries))
    }

    /// Visits every key that has `path` as a prefix with its entries, in
    /// key order.
    pub fn for_each_under<'a>(&'a self, path: &BitPath, mut f: impl FnMut(Key, &'a [E])) {
        for (k, entries) in self.slots_under(path) {
            f(*k, entries);
        }
    }

    /// Number of keys under `path`.
    pub fn count_under(&self, path: &BitPath) -> usize {
        self.slots_under(path).count()
    }

    /// Removes and returns, in key order, every key that does **not** have
    /// `path` as a prefix — the half a peer hands to its partner when it
    /// specializes to `path`. Keys that are proper prefixes of `path` go
    /// too: the specialized peer no longer covers the coarser subtree.
    pub fn extract_not_under(&mut self, path: &BitPath) -> Vec<(Key, KeyEntries<E>)> {
        // What stays is the contiguous range `[path, subtree_upper(path))`.
        match &mut self.slots {
            Slots::Small(slots) => {
                let kept = small_range(slots, path);
                let mut moved: Vec<_> = slots.drain(..kept.start).collect();
                moved.extend(slots.drain(kept.len()..));
                moved
            }
            Slots::Large(map) => {
                let mut kept = map.split_off(path);
                let after = match subtree_upper(path) {
                    Some(upper) => kept.split_off(&upper),
                    None => BTreeMap::new(),
                };
                let before = std::mem::replace(map, kept);
                if map.len() <= SMALL_MAX {
                    self.slots = Slots::Small(std::mem::take(map).into_iter().collect());
                }
                before.into_iter().chain(after).collect()
            }
        }
    }

    /// Removes and returns, in key order, every key a peer at `path` is
    /// not responsible for: [`LeafIndex::extract_not_under`], except that
    /// keys coarser than `path` stay, since their subtree overlaps it.
    pub fn extract_foreign(&mut self, path: &BitPath) -> Vec<(Key, KeyEntries<E>)> {
        let (coarser, foreign): (Vec<_>, Vec<_>) = self
            .extract_not_under(path)
            .into_iter()
            .partition(|(k, _)| k.is_prefix_of(path));
        for (key, entries) in coarser {
            self.slot_or_insert(key, || entries);
        }
        foreign
    }
}

/// The positions of a small index's slots whose keys have `path` as a
/// prefix.
fn small_range<E>(slots: &[(Key, KeyEntries<E>)], path: &BitPath) -> std::ops::Range<usize> {
    let start = slots.partition_point(|(k, _)| k < path);
    let end = match subtree_upper(path) {
        Some(upper) => slots.partition_point(|(k, _)| *k < upper),
        None => slots.len(),
    };
    start..end
}

/// Where `key` sits in a small index's sorted slots.
fn search<E>(slots: &[(Key, KeyEntries<E>)], key: &Key) -> Result<usize, usize> {
    slots.binary_search_by(|(k, _)| k.cmp(key))
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

    /// The six-bit key spelling `i`.
    fn six(i: u64) -> Key {
        BitPath::from_raw(u128::from(i) << 122, 6)
    }

    /// Keys `six(0..n)`, one entry each.
    fn filled(n: u64) -> LeafIndex<WireEntry> {
        let mut t = LeafIndex::new();
        for i in 0..n {
            t.insert(six(i), e(i, 0, 0));
        }
        t
    }

    fn is_small<E>(t: &LeafIndex<E>) -> bool {
        matches!(t.slots, Slots::Small(_))
    }

    #[test]
    fn the_twelfth_key_moves_the_index_to_the_large_form() {
        let mut t = LeafIndex::new();
        let mut capacities = Vec::new();
        for i in 0..SMALL_MAX as u64 {
            t.insert(six(i), e(i, 0, 0));
            if let Slots::Small(slots) = &t.slots {
                capacities.push(slots.capacity());
            }
        }
        assert_eq!(capacities, [4, 4, 4, 4, 8, 8, 8, 8, 11, 11, 11]);
        t.insert(k("1"), e(99, 0, 0));
        assert!(!is_small(&t));
        t.remove(&k("1"));
        assert!(!is_small(&t), "a remove keeps the form");
        // The kept half of a hand-off is at most eleven keys: small again.
        assert_eq!(t.extract_not_under(&k("0000")).len(), 7);
        assert!(is_small(&t));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn the_two_forms_agree_on_equality_and_debug() {
        let small = filled(SMALL_MAX as u64);
        let mut large = filled(SMALL_MAX as u64 + 1);
        large.remove(&six(SMALL_MAX as u64));
        assert!(is_small(&small) && !is_small(&large));
        assert_eq!(small, large);
        assert_eq!(format!("{small:?}"), format!("{large:?}"));
        assert!(small.iter().eq(large.iter()));
        let mut other = large.clone();
        other.insert(k("000000"), e(0, 1, 0));
        assert_ne!(small, other, "same keys, other entries");
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
