//! Time-bounded dedup windows.
//!
//! Protocol dedup state (seen queries, seen inserts, answer caches) only has
//! to outlive the retransmissions of the frame it guards. A
//! [`DedupWindow`] is therefore bounded by time, not by count: its owner
//! calls [`DedupWindow::rotate`] once per generation, and an entry lives
//! from one to two generations after it was first recorded. The driver
//! picks the generation to cover its resend horizon; nothing here knows
//! about clocks.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::mem;

/// A two-generation dedup map (a set when `V = ()`). New entries go into
/// the current generation; [`DedupWindow::rotate`] retires it and drops
/// the one before, so memory follows the last one or two generations of
/// traffic and falls back to nothing once traffic stops.
#[derive(Clone, Debug)]
pub struct DedupWindow<K, V = ()> {
    current: HashMap<K, V>,
    previous: HashMap<K, V>,
}

impl<K, V> Default for DedupWindow<K, V> {
    fn default() -> Self {
        DedupWindow {
            current: HashMap::new(),
            previous: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq, V> DedupWindow<K, V> {
    /// An empty window; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value recorded under `k` in either generation, if any.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.current.get(k).or_else(|| self.previous.get(k))
    }

    /// Records `v` under `k` and returns `true`, unless `k` is already held:
    /// then nothing changes and it returns `false`. The first value stays,
    /// and an entry's age runs from its first sight.
    pub fn insert(&mut self, k: K, v: V) -> bool {
        if self.previous.contains_key(&k) {
            return false;
        }
        match self.current.entry(k) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(v);
                true
            }
        }
    }

    /// Ends a generation: the current entries become the previous ones and
    /// the previous ones are dropped with their storage.
    pub fn rotate(&mut self) {
        self.previous = mem::take(&mut self.current);
    }

    /// Entries held across both generations.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Debug;

    #[test]
    fn set_dedups_and_reports_novelty() {
        let mut s: DedupWindow<u32> = DedupWindow::new();
        assert!(s.insert(1, ()));
        assert!(!s.insert(1, ()), "second insert is a duplicate");
        assert_eq!(s.get(&1), Some(&()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn map_inserts_and_looks_up() {
        let mut m = DedupWindow::new();
        assert!(m.insert("a", 1));
        assert!(m.insert("b", 2));
        assert_eq!(m.get(&"a"), Some(&1));
        assert_eq!(m.get(&"c"), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn reinsert_keeps_the_first_value_and_its_age() {
        let mut m = DedupWindow::new();
        assert!(m.insert(1, 'a'));
        m.rotate();
        assert!(!m.insert(1, 'z'), "still held: a duplicate");
        assert_eq!(m.get(&1), Some(&'a'), "the first value stays");
        m.rotate();
        assert_eq!(m.get(&1), None, "age runs from the first sight");
    }

    #[test]
    fn entries_live_one_to_two_generations() {
        let mut s: DedupWindow<u32> = DedupWindow::new();
        assert!(s.insert(1, ()));
        s.rotate();
        assert!(s.insert(2, ()));
        assert!(!s.insert(1, ()), "a previous-generation entry still dedups");
        s.rotate();
        assert_eq!(s.get(&1), None, "two rotations retire an entry");
        assert_eq!(s.get(&2), Some(&()));
        s.rotate();
        assert!(s.is_empty());
        assert!(s.insert(1, ()), "a retired key is novel again");
    }

    #[test]
    fn empty_collections_report_empty() {
        let mut s: DedupWindow<u32> = DedupWindow::new();
        let m: DedupWindow<u32, u32> = DedupWindow::new();
        assert!(s.is_empty() && m.is_empty());
        assert_eq!((s.len(), m.len()), (0, 0));
        s.rotate();
        assert!(s.is_empty(), "rotating an empty window keeps it empty");
    }

    #[test]
    fn a_rotation_drops_the_old_generation_storage() {
        let mut m: DedupWindow<u32, u32> = DedupWindow::new();
        for k in 0..1000 {
            m.insert(k, k);
        }
        m.rotate();
        m.rotate();
        assert_eq!(m.current.capacity(), 0);
        assert_eq!(m.previous.capacity(), 0);
    }

    /// Random insert/rotate sequences over a tiny key space (so duplicates,
    /// retirements and re-inserts after retirement happen constantly)
    /// agree with a model that stamps each key with the generation it was
    /// first seen in, on novelty, values and size. Case `c` draws from
    /// seed `c`.
    fn matches_generation_stamp_model<V: Copy + PartialEq + Debug>(
        value: impl Fn(&mut StdRng) -> V,
    ) {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut real = DedupWindow::new();
            let mut model: HashMap<u16, (u64, V)> = HashMap::new();
            let mut generation = 0u64;
            for _ in 0..rng.gen_range(0..200) {
                if rng.gen_range(0..5) == 0 {
                    real.rotate();
                    generation += 1;
                    model.retain(|_, (born, _)| generation - *born < 2);
                } else {
                    let (k, v) = (rng.gen_range(0..8), value(&mut rng));
                    let novel = !model.contains_key(&k);
                    if novel {
                        model.insert(k, (generation, v));
                    }
                    assert_eq!(real.insert(k, v), novel, "case {case}: novelty of {k}");
                }
                for probe in 0u16..8 {
                    assert_eq!(
                        real.get(&probe).copied(),
                        model.get(&probe).map(|&(_, v)| v),
                        "case {case}: entry under {probe}"
                    );
                }
                assert_eq!(real.len(), model.len(), "case {case}");
            }
        }
    }

    #[test]
    fn set_matches_reference_model() {
        matches_generation_stamp_model(|_| ());
    }

    #[test]
    fn map_matches_reference_model() {
        matches_generation_stamp_model(|rng| rng.gen_range(0..1000u32));
    }
}
