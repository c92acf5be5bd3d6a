//! Bounded, insertion-ordered dedup collections.
//!
//! Protocol dedup state (seen queries, seen inserts, answer caches) must be
//! bounded or a retransmitting peer can grow it without limit. These
//! collections evict their **oldest** entry once a capacity is exceeded —
//! the right policy for dedup windows, where only recent traffic can still
//! be retransmitted. Shared here so the sans-I/O protocol core and any
//! driver use one tested implementation instead of private copies.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// An insertion-ordered set evicting its oldest member beyond `cap`.
#[derive(Clone, Debug)]
pub struct BoundedSet<K> {
    order: VecDeque<K>,
    set: HashSet<K>,
    cap: usize,
}

impl<K: Hash + Eq + Copy> BoundedSet<K> {
    /// An empty set holding at most `cap` members.
    pub fn new(cap: usize) -> Self {
        BoundedSet {
            order: VecDeque::new(),
            set: HashSet::new(),
            cap,
        }
    }

    /// Inserts `k`; returns `true` when it was not present. Evicts the
    /// oldest member when the capacity is exceeded.
    ///
    /// A zero-capacity set remembers nothing: every insert reports novel.
    /// (The early return below is behaviourally identical to inserting and
    /// immediately evicting, which is what the general path would do, but
    /// without churning the hash set on every call.)
    pub fn insert(&mut self, k: K) -> bool {
        if self.cap == 0 {
            return true;
        }
        if !self.set.insert(k) {
            return false;
        }
        self.order.push_back(k);
        if self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, k: &K) -> bool {
        self.set.contains(k)
    }

    /// Current number of members.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when no member is held.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// An insertion-ordered map evicting its oldest entry beyond `cap`.
///
/// Re-inserting an existing key replaces its value **without** refreshing
/// its age: dedup windows measure time since first sight, not last.
#[derive(Clone, Debug)]
pub struct BoundedMap<K, V> {
    order: VecDeque<K>,
    map: HashMap<K, V>,
    cap: usize,
}

impl<K: Hash + Eq + Copy, V> BoundedMap<K, V> {
    /// An empty map holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        BoundedMap {
            order: VecDeque::new(),
            map: HashMap::new(),
            cap,
        }
    }

    /// The value stored under `k`, if any.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Inserts or replaces the value under `k`, evicting the oldest entry
    /// when a *new* key pushes the map over capacity. A zero-capacity map
    /// stores nothing.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn set_dedups_and_reports_novelty() {
        let mut s = BoundedSet::new(4);
        assert!(s.insert(1));
        assert!(!s.insert(1), "second insert is a duplicate");
        assert!(s.contains(&1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_evicts_oldest_beyond_cap() {
        let mut s = BoundedSet::new(3);
        for k in 0..5 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 3);
        assert!(!s.contains(&0) && !s.contains(&1), "oldest two evicted");
        assert!(s.contains(&2) && s.contains(&3) && s.contains(&4));
        // An evicted key counts as novel again — the dedup window moved on.
        assert!(s.insert(0));
    }

    #[test]
    fn map_inserts_and_looks_up() {
        let mut m = BoundedMap::new(4);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get(&"a"), Some(&1));
        assert_eq!(m.get(&"c"), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn map_evicts_oldest_beyond_cap() {
        let mut m = BoundedMap::new(3);
        for k in 0..5 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&0), None);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&4), Some(&40));
    }

    #[test]
    fn map_replacement_keeps_the_original_age() {
        let mut m = BoundedMap::new(2);
        m.insert(1, 'a');
        m.insert(2, 'b');
        m.insert(1, 'z'); // replace, no age refresh
        assert_eq!(m.get(&1), Some(&'z'));
        m.insert(3, 'c'); // evicts key 1 (still the oldest)
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&2), Some(&'b'));
        assert_eq!(m.get(&3), Some(&'c'));
    }

    #[test]
    fn empty_collections_report_empty() {
        let s: BoundedSet<u32> = BoundedSet::new(1);
        let m: BoundedMap<u32, u32> = BoundedMap::new(1);
        assert!(s.is_empty());
        assert!(m.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn capacity_one_set_is_last_key_wins() {
        let mut s = BoundedSet::new(1);
        assert!(s.insert(7));
        assert!(!s.insert(7), "still within the window");
        assert!(s.insert(8), "evicts 7");
        assert!(!s.contains(&7));
        assert!(s.insert(7), "re-insert after evict is novel again");
        assert!(!s.contains(&8));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn capacity_zero_collections_remember_nothing() {
        let mut s = BoundedSet::new(0);
        assert!(s.insert(1));
        assert!(s.insert(1), "nothing is remembered, so nothing dedups");
        assert!(!s.contains(&1));
        assert_eq!(s.len(), 0);

        let mut m = BoundedMap::new(0);
        m.insert(1, 'a');
        assert_eq!(m.get(&1), None);
        assert!(m.is_empty());
    }

    /// Unbounded reference model of [`BoundedSet`]: a plain vector of live
    /// keys in first-sight order, truncated from the front. O(n) per op
    /// and obviously correct.
    struct ModelSet {
        window: Vec<u16>,
        cap: usize,
    }

    impl ModelSet {
        fn insert(&mut self, k: u16) -> bool {
            if self.cap == 0 {
                return true;
            }
            if self.window.contains(&k) {
                return false;
            }
            self.window.push(k);
            if self.window.len() > self.cap {
                self.window.remove(0);
            }
            true
        }
    }

    /// Unbounded reference model of [`BoundedMap`], same construction.
    struct ModelMap {
        window: Vec<(u16, u32)>,
        cap: usize,
    }

    impl ModelMap {
        fn insert(&mut self, k: u16, v: u32) {
            if self.cap == 0 {
                return;
            }
            if let Some(slot) = self.window.iter_mut().find(|(key, _)| *key == k) {
                slot.1 = v; // replace in place: age is first-sight
                return;
            }
            self.window.push((k, v));
            if self.window.len() > self.cap {
                self.window.remove(0);
            }
        }

        fn get(&self, k: u16) -> Option<u32> {
            self.window
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| *v)
        }
    }

    /// Random op sequences over a tiny key space (so evictions and
    /// re-inserts after eviction happen constantly) agree with the
    /// reference model on novelty, membership, and size — including the
    /// capacity-0 and capacity-1 edges. Case `c` draws from seed `c`.
    #[test]
    fn set_matches_reference_model() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let cap = rng.gen_range(0..5);
            let mut real = BoundedSet::new(cap);
            let mut model = ModelSet {
                window: Vec::new(),
                cap,
            };
            for _ in 0..rng.gen_range(0..200) {
                let k = rng.gen_range(0..8);
                assert_eq!(
                    real.insert(k),
                    model.insert(k),
                    "case {case}: novelty of {k}"
                );
                for probe in 0u16..8 {
                    assert_eq!(
                        real.contains(&probe),
                        model.window.contains(&probe),
                        "case {case}: membership of {probe}"
                    );
                }
                assert_eq!(real.len(), model.window.len(), "case {case}");
            }
        }
    }

    /// Same model test for the map, with replacement in the op mix.
    #[test]
    fn map_matches_reference_model() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let cap = rng.gen_range(0..5);
            let mut real = BoundedMap::new(cap);
            let mut model = ModelMap {
                window: Vec::new(),
                cap,
            };
            for _ in 0..rng.gen_range(0..200) {
                let (k, v) = (rng.gen_range(0..8), rng.gen_range(0..1000));
                real.insert(k, v);
                model.insert(k, v);
                for probe in 0u16..8 {
                    assert_eq!(
                        real.get(&probe).copied(),
                        model.get(probe),
                        "case {case}: value under {probe}"
                    );
                }
                assert_eq!(real.len(), model.window.len(), "case {case}");
            }
        }
    }
}
