//! Model-based tests of the trie's leaf index: `LeafIndex` must behave
//! exactly like the `BTreeMap<Key, Vec<E>>` both peer types used to hold,
//! with its insert rule, update loop and two extractions kept below as the
//! reference, and its prefix operations must agree with the naive filter.
//! The seeded cases run the index in both of its forms (a sorted `Vec` of
//! at most eleven keys, a `BTreeMap` beyond) and move it between them.
//! Seeded loops: case `c` draws from `StdRng::seed_from_u64(c)`.

use std::collections::BTreeMap;

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_proto::{KeyEntries, LeafIndex};
use pgrid_store::{prefix_range, subtree_upper};
use pgrid_wire::WireEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 512;

/// The index as it was: one `Vec` per key.
#[derive(Default)]
struct Reference(BTreeMap<Key, Vec<WireEntry>>);

impl Reference {
    fn insert(&mut self, key: Key, entry: WireEntry) {
        let slot = self.0.entry(key).or_default();
        match slot
            .iter_mut()
            .find(|e| e.item == entry.item && e.holder == entry.holder)
        {
            Some(existing) => {
                if entry.version > existing.version {
                    existing.version = entry.version;
                }
            }
            None => slot.push(entry),
        }
    }

    fn apply_update(&mut self, key: &Key, item: u64, version: u64) -> bool {
        let Some(slot) = self.0.get_mut(key) else {
            return false;
        };
        let mut changed = false;
        for e in slot.iter_mut() {
            if e.item == item && version > e.version {
                e.version = version;
                changed = true;
            }
        }
        changed
    }

    /// The engine peer's hand-off: everything outside `[path, upper)`.
    fn extract_not_under(&mut self, path: &BitPath) -> Vec<(Key, Vec<WireEntry>)> {
        let mut kept = self.0.split_off(path);
        let after = match subtree_upper(path) {
            Some(upper) => kept.split_off(&upper),
            None => BTreeMap::new(),
        };
        let before = std::mem::replace(&mut self.0, kept);
        before.into_iter().chain(after).collect()
    }

    /// The live peer's hand-off: every key `path` is not responsible for.
    fn extract_misplaced(&mut self, path: &BitPath) -> Vec<(Key, Vec<WireEntry>)> {
        let doomed: Vec<Key> = self
            .0
            .keys()
            .filter(|k| !path.responsible_for(k))
            .copied()
            .collect();
        doomed
            .into_iter()
            .map(|k| {
                let v = self.0.remove(&k).expect("listed above");
                (k, v)
            })
            .collect()
    }
}

fn path(rng: &mut StdRng) -> BitPath {
    // One path in eight is all ones, so the unbounded range occurs.
    let bits = if rng.gen_range(0..8) == 0 {
        u128::MAX
    } else {
        rng.gen()
    };
    BitPath::from_raw(bits, rng.gen_range(0..=8))
}

/// Few items, holders and versions, so duplicate, newer, stale and
/// other-holder inserts all occur.
fn entry(rng: &mut StdRng) -> WireEntry {
    WireEntry {
        item: rng.gen_range(0..6),
        holder: PeerId(rng.gen_range(0..3)),
        version: rng.gen_range(0..4),
    }
}

fn owned(moved: Vec<(Key, KeyEntries<WireEntry>)>) -> Vec<(Key, Vec<WireEntry>)> {
    moved.into_iter().map(|(k, v)| (k, v.to_vec())).collect()
}

/// How often the seeded operations reached each case.
#[derive(Default, Debug)]
struct Coverage {
    fresh_keys: usize,
    duplicates: usize,
    newer: usize,
    stale: usize,
    other_holder: usize,
    updates_applied: usize,
    removes: usize,
    empty_path_extractions: usize,
    all_ones_extractions: usize,
    coarser_moved: usize,
    coarser_kept: usize,
    /// Operations run on an index in its small and in its large form.
    small_ops: usize,
    large_ops: usize,
    /// Moves from the small form to the large one and back.
    promotions: usize,
    demotions: usize,
}

/// Keys the small form holds at most.
const SMALL_MAX: usize = 11;

/// The form rule, with `large` the form before an operation and `len` the
/// key count after it: an insert past eleven keys moves the index to the
/// large form, an extraction leaving at most eleven moves it back, and
/// nothing else moves it.
fn large_after(large: bool, extraction: bool, len: usize) -> bool {
    if extraction {
        len > SMALL_MAX
    } else {
        large || len > SMALL_MAX
    }
}

impl Coverage {
    fn classify(&mut self, reference: &Reference, key: &Key, e: &WireEntry) {
        let Some(slot) = reference.0.get(key) else {
            self.fresh_keys += 1;
            return;
        };
        match slot
            .iter()
            .find(|x| x.item == e.item && x.holder == e.holder)
        {
            Some(x) if x.version == e.version => self.duplicates += 1,
            Some(x) if x.version < e.version => self.newer += 1,
            Some(_) => self.stale += 1,
            None if slot.iter().any(|x| x.item == e.item) => self.other_holder += 1,
            None => {}
        }
    }

    fn extraction(&mut self, path: &BitPath) {
        self.empty_path_extractions += usize::from(path.is_empty());
        self.all_ones_extractions += usize::from(!path.is_empty() && subtree_upper(path).is_none());
    }
}

#[test]
fn trie_matches_btreemap_model() {
    let mut cov = Coverage::default();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let mut index = LeafIndex::new();
        let mut reference = Reference::default();
        let mut large = false;
        for _ in 0..rng.gen_range(0..160) {
            let key = path(&mut rng);
            // Odd cases insert three times as often, so their indexes grow
            // past the small form and every operation meets the large one.
            let op: u32 = rng.gen_range(0..if case % 2 == 0 { 10 } else { 20 });
            if large {
                cov.large_ops += 1;
            } else {
                cov.small_ops += 1;
            }
            match op {
                0..=4 | 10.. => {
                    let e = entry(&mut rng);
                    cov.classify(&reference, &key, &e);
                    index.insert(key, e);
                    reference.insert(key, e);
                }
                5 => {
                    let (item, version) = (rng.gen_range(0..6), rng.gen_range(0..5));
                    let changed = reference.apply_update(&key, item, version);
                    cov.updates_applied += usize::from(changed);
                    assert_eq!(
                        index.apply_update(&key, item, version),
                        changed,
                        "case {case}"
                    );
                }
                6 => {
                    let want = reference.0.remove(&key);
                    cov.removes += usize::from(want.is_some());
                    assert_eq!(index.remove(&key).map(|v| v.to_vec()), want, "case {case}");
                }
                7 | 8 => {
                    cov.extraction(&key);
                    let want = reference.extract_not_under(&key);
                    cov.coarser_moved += want.iter().filter(|(k, _)| k.is_prefix_of(&key)).count();
                    assert_eq!(owned(index.extract_not_under(&key)), want, "case {case}");
                }
                9 => {
                    cov.extraction(&key);
                    cov.coarser_kept += reference
                        .0
                        .keys()
                        .filter(|k| k.is_prefix_of(&key) && **k != key)
                        .count();
                    let want = reference.extract_misplaced(&key);
                    assert_eq!(owned(index.extract_foreign(&key)), want, "case {case}");
                }
            }
            assert_eq!(index.len(), reference.0.len(), "case {case}");
            let now_large = large_after(large, (7..=9).contains(&op), reference.0.len());
            cov.promotions += usize::from(now_large && !large);
            cov.demotions += usize::from(large && !now_large);
            large = now_large;
            assert_eq!(
                index.lookup(&key),
                reference.0.get(&key).map_or(&[][..], Vec::as_slice),
                "case {case}"
            );
            assert!(
                index
                    .iter()
                    .eq(reference.0.iter().map(|(k, v)| (k, v.as_slice()))),
                "case {case}: iteration diverged"
            );
        }
    }
    let c = &cov;
    let counts = [
        c.fresh_keys,
        c.duplicates,
        c.newer,
        c.stale,
        c.other_holder,
        c.updates_applied,
        c.removes,
        c.empty_path_extractions,
        c.all_ones_extractions,
        c.coarser_moved,
        c.coarser_kept,
        c.small_ops,
        c.large_ops,
        c.promotions,
        c.demotions,
    ];
    assert!(counts.iter().all(|&n| n > 0), "{cov:?}");
}

/// Up to 60 random keys, then a random probe path.
fn keys_and_probe(rng: &mut StdRng) -> (Vec<BitPath>, BitPath) {
    let keys = (0..rng.gen_range(0..60)).map(|_| path(rng)).collect();
    (keys, path(rng))
}

#[test]
fn entries_under_agrees_with_filter() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (keys, probe) = keys_and_probe(&mut rng);
        let mut index = LeafIndex::new();
        let mut model = BTreeMap::new();
        for k in keys {
            let e = entry(&mut rng);
            index.insert(k, e);
            model.entry(k).or_insert_with(Vec::new).push(e);
        }
        let mut got = Vec::new();
        index.for_each_under(&probe, |k, _| got.push(k));
        let want: Vec<BitPath> = model
            .keys()
            .filter(|k| probe.is_prefix_of(k))
            .copied()
            .collect();
        assert_eq!(got, want, "case {case}");
        assert_eq!(index.count_under(&probe), want.len(), "case {case}");
    }
}

#[test]
fn prefix_range_agrees_with_filter() {
    for case in 0..CASES {
        let (keys, probe) = keys_and_probe(&mut StdRng::seed_from_u64(case));
        let mut model = BTreeMap::new();
        for (i, k) in keys.into_iter().enumerate() {
            model.insert(k, i);
        }
        let got: Vec<BitPath> = prefix_range(&model, &probe).map(|(k, _)| *k).collect();
        let want: Vec<BitPath> = model
            .keys()
            .filter(|k| probe.is_prefix_of(k))
            .copied()
            .collect();
        assert_eq!(got, want, "case {case}");
    }
}
