//! Per-level reference sets — the peer's share of the distributed trie.

use pgrid_net::{draw, PeerId};
use rand::rngs::StdRng;

/// Largest set whose membership tests scan every element. The scan folds
/// with a non-short-circuiting `|`, which the compiler vectorises; above
/// this size a union sorts a copy of `a` and binary-searches it, so the
/// unbounded-`refmax` sweeps stay O(n log n). A union of two equal-sized
/// random sets breaks even between 192 and 256 elements on a 2-vCPU x86-64
/// VM (the scan is 1.9× faster at 20, 1.3× at 128); 128 keeps a margin.
const SCAN_MAX: usize = 128;

/// Membership of `id` in `ids`: a branch-free scan up to [`SCAN_MAX`]
/// elements, a short-circuiting one above.
fn holds(ids: &[PeerId], id: PeerId) -> bool {
    if ids.len() <= SCAN_MAX {
        ids.iter().fold(false, |hit, &x| hit | (x == id))
    } else {
        ids.contains(&id)
    }
}

/// A bounded, duplicate-free set of references to peers on the *other side*
/// of one trie level.
///
/// The paper (§2): for each prefix `k_l` of its path, a peer "maintains
/// references to other peers, that have the same prefix of length `l`, but a
/// different value at position `l+1`", bounded by `refmax`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefSet {
    ids: Vec<PeerId>,
}

impl RefSet {
    /// Empty set.
    pub fn new() -> Self {
        RefSet::default()
    }

    /// A set holding exactly one reference — the paper's `refs := {a}`.
    pub fn singleton(id: PeerId) -> Self {
        RefSet { ids: vec![id] }
    }

    /// Rebuilds a set from stored ids (dedup, order preserved) — snapshot
    /// restoration; no bound is applied (capture already respected it).
    pub fn from_ids(ids: impl IntoIterator<Item = PeerId>) -> Self {
        let mut out = RefSet::new();
        for id in ids {
            if !out.ids.contains(&id) {
                out.ids.push(id);
            }
        }
        out
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no references are held.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: PeerId) -> bool {
        self.ids.contains(&id)
    }

    /// The references in insertion order.
    pub fn as_slice(&self) -> &[PeerId] {
        &self.ids
    }

    /// Inserts `id` if absent; when the set then exceeds `bound`, evicts a
    /// uniformly random element. This is the incremental equivalent of the
    /// paper's `random_select(refmax, union({a}, refs))`.
    ///
    /// A full set replaces in place: one draw over the `len + 1` candidates
    /// picks the leaver, and `id` takes its slot, which is the draw and the
    /// order a push followed by `swap_remove` would leave. Capacity grows
    /// geometrically but never past `bound`, so a full level holds no spare
    /// slots.
    pub fn insert_bounded(&mut self, id: PeerId, bound: usize, rng: &mut StdRng) {
        if holds(&self.ids, id) {
            return;
        }
        let len = self.ids.len();
        if len >= bound {
            let victim = draw::below(rng, len + 1);
            if victim < len {
                self.ids[victim] = id;
            }
            return;
        }
        if len == self.ids.capacity() {
            self.ids.reserve_exact(len.max(4).min(bound - len));
        }
        self.ids.push(id);
    }

    /// The paper's `random_select(refmax, union(r1, r2))`: a uniformly random
    /// `bound`-subset of the union of two reference sets.
    ///
    /// Owning convenience over [`RefSet::union_into`] and
    /// [`RefSet::random_select`]; the exchange builds each level's union
    /// once in reused buffers and selects from two copies of it instead.
    pub fn mixed(a: &RefSet, b: &RefSet, bound: usize, rng: &mut StdRng) -> RefSet {
        let mut ids = Vec::new();
        RefSet::union_into(a, b, &mut ids, &mut Vec::new());
        RefSet::random_select(&mut ids, bound, rng);
        RefSet { ids }
    }

    /// Replaces `out` with the union of `a` and `b`: `a`'s ids followed by
    /// `b`'s ids not in `a`, both in insertion order. `seen` is membership
    /// scratch for large sets.
    ///
    /// Deduplicating `b` against `a` alone is sound because a `RefSet`
    /// never holds duplicates, so an already-pushed union element other
    /// than the current `b` id cannot equal it. Up to `SCAN_MAX` (128) ids in
    /// `a` each `b` id is tested by a branch-free scan of `a`; above it
    /// against a sorted copy of `a`, which keeps large unions
    /// O(n log n). Both give the same layout.
    pub fn union_into(a: &RefSet, b: &RefSet, out: &mut Vec<PeerId>, seen: &mut Vec<PeerId>) {
        out.clear();
        out.reserve(a.ids.len() + b.ids.len());
        out.extend_from_slice(&a.ids);
        if a.ids.len() <= SCAN_MAX {
            for &id in &b.ids {
                if !holds(&a.ids, id) {
                    out.push(id);
                }
            }
        } else {
            seen.clear();
            seen.extend_from_slice(&a.ids);
            seen.sort_unstable();
            for &id in &b.ids {
                if seen.binary_search(&id).is_err() {
                    out.push(id);
                }
            }
        }
    }

    /// The paper's `random_select(bound, ids)` in place: shuffles `ids` and
    /// keeps the first `bound`. The shuffle's draws depend only on
    /// `ids.len()`, so two selections from copies of one union draw what
    /// two selections from two separately built unions would.
    pub fn random_select(ids: &mut Vec<PeerId>, bound: usize, rng: &mut StdRng) {
        draw::shuffle(rng, ids);
        ids.truncate(bound);
    }

    /// Removes `id` if present.
    pub fn remove(&mut self, id: PeerId) {
        self.ids.retain(|&x| x != id);
    }

    /// A uniformly random sample of up to `k` references, excluding `not`.
    /// Used by Case 4 to pick recursion partners (`recfanout`).
    pub fn sample_excluding(&self, k: usize, not: PeerId, rng: &mut StdRng) -> Vec<PeerId> {
        let mut candidates = Vec::new();
        self.sample_excluding_into(k, not, rng, &mut candidates);
        candidates
    }

    /// [`RefSet::sample_excluding`] appended to a caller-provided buffer:
    /// the sample lands at `out[base..]` where `base` is `out.len()` on
    /// entry (arena style — existing contents are preserved).
    ///
    /// The filtered candidate list has the same length and order as the
    /// one-shot version's, and only its tail of `out` is shuffled, so the
    /// RNG draws and the resulting sample are byte-identical.
    pub fn sample_excluding_into(
        &self,
        k: usize,
        not: PeerId,
        rng: &mut StdRng,
        out: &mut Vec<PeerId>,
    ) {
        let base = out.len();
        out.extend(self.ids.iter().copied().filter(|&id| id != not));
        draw::shuffle(rng, &mut out[base..]);
        // `saturating_add` keeps `k == usize::MAX` (unbounded recfanout)
        // meaning "take everything".
        out.truncate(base.saturating_add(k));
    }

    /// The references in a random order — the search algorithm's
    /// `random_select(refs)` loop consumes them one by one.
    pub fn shuffled(&self, rng: &mut StdRng) -> Vec<PeerId> {
        let mut v = Vec::new();
        self.shuffled_into(rng, &mut v);
        v
    }

    /// [`RefSet::shuffled`] appended to a caller-provided buffer: the
    /// permutation lands at `out[base..]` (arena style). Shuffling only the
    /// appended tail draws exactly what shuffling an owned clone would, so
    /// the iterative search visits references in the same order as the
    /// recursive, allocating one did.
    pub fn shuffled_into(&self, rng: &mut StdRng, out: &mut Vec<PeerId>) {
        let base = out.len();
        out.extend_from_slice(&self.ids);
        draw::shuffle(rng, &mut out[base..]);
    }

    /// Replaces the contents with `ids`, keeping the allocation when it is
    /// large enough and growing it to exactly `ids.len()` otherwise. The
    /// exchange hot path uses this to install a mixed set computed in
    /// scratch without dropping and reallocating the level's `Vec`.
    ///
    /// Callers must hand in a duplicate-free list (scratch mixes are).
    pub(crate) fn overwrite(&mut self, ids: &[PeerId]) {
        self.ids.clear();
        self.ids.reserve_exact(ids.len());
        self.ids.extend_from_slice(ids);
    }
}

/// A peer's references for every level of its path: `levels[i]` holds the
/// references at level `i + 1` (the paper indexes levels from 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTable {
    levels: Vec<RefSet>,
}

impl RoutingTable {
    /// Empty table (peer with the empty path).
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Number of levels with a reference slot (= current path length).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The reference set at 1-based `level`, empty if beyond the path.
    pub fn level(&self, level: usize) -> &RefSet {
        assert!(level >= 1, "levels are 1-based");
        static EMPTY: RefSet = RefSet { ids: Vec::new() };
        self.levels.get(level - 1).unwrap_or(&EMPTY)
    }

    /// Mutable access to the set at 1-based `level`, growing the table to
    /// exactly `level` slots.
    pub fn level_mut(&mut self, level: usize) -> &mut RefSet {
        assert!(level >= 1, "levels are 1-based");
        if self.levels.len() < level {
            self.levels.reserve_exact(level - self.levels.len());
            self.levels.resize_with(level, RefSet::new);
        }
        &mut self.levels[level - 1]
    }

    /// Replaces the set at `level`.
    pub fn set_level(&mut self, level: usize, refs: RefSet) {
        *self.level_mut(level) = refs;
    }

    /// Total number of references across levels (storage cost metric, §6).
    pub fn total_refs(&self) -> usize {
        self.levels.iter().map(RefSet::len).sum()
    }

    /// Iterates `(level, refset)` with 1-based levels.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &RefSet)> {
        self.levels.iter().enumerate().map(|(i, r)| (i + 1, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn refset_basics() {
        let mut s = RefSet::new();
        assert!(s.is_empty());
        let mut r = rng();
        s.insert_bounded(PeerId(1), 3, &mut r);
        s.insert_bounded(PeerId(2), 3, &mut r);
        s.insert_bounded(PeerId(1), 3, &mut r); // duplicate ignored
        assert_eq!(s.len(), 2);
        assert!(s.contains(PeerId(1)));
        s.remove(PeerId(1));
        assert!(!s.contains(PeerId(1)));
        assert_eq!(RefSet::singleton(PeerId(9)).as_slice(), &[PeerId(9)]);
    }

    #[test]
    fn insert_bounded_enforces_bound() {
        let mut s = RefSet::new();
        let mut r = rng();
        for i in 0..100 {
            s.insert_bounded(PeerId(i), 5, &mut r);
            assert!(s.len() <= 5);
        }
        assert_eq!(s.len(), 5);
    }

    /// The `insert_bounded` body before the in-place replacement: push, then
    /// evict a uniformly random element once over the bound.
    fn insert_bounded_by_push(s: &mut RefSet, id: PeerId, bound: usize, rng: &mut StdRng) {
        if s.ids.contains(&id) {
            return;
        }
        s.ids.push(id);
        if s.ids.len() > bound {
            let victim = rand::Rng::gen_range(rng, 0..s.ids.len());
            s.ids.swap_remove(victim);
        }
    }

    #[test]
    fn in_place_insert_matches_push_and_swap_remove() {
        use rand::Rng;
        let mut cases = StdRng::seed_from_u64(0x1b);
        for case in 0..256u64 {
            let bound = (case % 25) as usize;
            // Over-bound starting sets too: snapshot restores and corruption
            // writes install sets without applying the bound.
            let universe = 3 * bound as u32 + 8;
            let start: Vec<PeerId> = (0..cases.gen_range(0..bound + 6))
                .map(|_| PeerId(cases.gen_range(0..universe)))
                .collect();
            let mut new = RefSet::from_ids(start);
            let mut old = new.clone();
            let spare = new.ids.capacity().max(bound);
            let seed: u64 = cases.gen();
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let id = PeerId(cases.gen_range(0..universe));
                new.insert_bounded(id, bound, &mut new_rng);
                insert_bounded_by_push(&mut old, id, bound, &mut old_rng);
                assert_eq!(new, old, "case {case}, bound {bound}");
                assert!(
                    new.ids.capacity() <= spare,
                    "case {case}: grew past the bound"
                );
            }
            assert_eq!(
                new_rng.gen::<u64>(),
                old_rng.gen::<u64>(),
                "case {case}: RNG position"
            );
        }
    }

    /// Footprint gate: after a converged build with `refmax` 20 the
    /// reference sets hold almost no spare slots.
    #[test]
    fn converged_build_reserves_no_spare_reference_slots() {
        let refmax = 20;
        let mut g = crate::PGrid::new(
            1024,
            crate::PGridConfig {
                maxl: 6,
                refmax,
                ..crate::PGridConfig::default()
            },
        );
        let mut owned = crate::Ctx::fork_for_task(9, 0, Box::new(pgrid_net::AlwaysOnline));
        let report = g.build(&crate::BuildOptions::default(), &mut owned.ctx());
        assert!(report.reached_threshold);
        let (mut refs, mut slots) = (0usize, 0usize);
        for p in g.peers() {
            for (level, set) in p.routing().iter() {
                let cap = set.ids.capacity();
                assert!(
                    cap <= set.len().max(refmax),
                    "{} level {level}: {cap} slots for {} references",
                    p.id(),
                    set.len()
                );
                refs += set.len();
                slots += cap;
            }
        }
        assert!(
            slots as f64 <= 1.02 * refs as f64,
            "{slots} slots for {refs} references"
        );
    }

    #[test]
    fn mixing_bounds_and_dedups() {
        let mut r = rng();
        let a = RefSet {
            ids: vec![PeerId(1), PeerId(2), PeerId(3)],
        };
        let b = RefSet {
            ids: vec![PeerId(3), PeerId(4)],
        };
        let m = RefSet::mixed(&a, &b, 10, &mut r);
        assert_eq!(m.len(), 4, "union without duplicates");
        let m2 = RefSet::mixed(&a, &b, 2, &mut r);
        assert_eq!(m2.len(), 2);
        for id in m2.as_slice() {
            assert!(a.contains(*id) || b.contains(*id));
        }
    }

    #[test]
    fn mixing_is_uniformly_random() {
        // Every element of the union should appear in a bounded mix with
        // roughly equal frequency.
        let a = RefSet {
            ids: (0..4).map(PeerId).collect(),
        };
        let b = RefSet {
            ids: (4..8).map(PeerId).collect(),
        };
        let mut r = rng();
        let mut counts = [0u32; 8];
        for _ in 0..4000 {
            for id in RefSet::mixed(&a, &b, 2, &mut r).as_slice() {
                counts[id.index()] += 1;
            }
        }
        // Expected 1000 appearances each (8000 slots / 8 elements).
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "element {i} appeared {c} times");
        }
    }

    #[test]
    fn sampling_excludes_and_bounds() {
        let s = RefSet {
            ids: (0..10).map(PeerId).collect(),
        };
        let mut r = rng();
        let sample = s.sample_excluding(4, PeerId(3), &mut r);
        assert_eq!(sample.len(), 4);
        assert!(!sample.contains(&PeerId(3)));
        let all = s.sample_excluding(100, PeerId(3), &mut r);
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn mixing_large_sets_dedups_exactly() {
        // Above the linear-scan threshold the sorted-membership path must
        // produce the same union semantics: every element once, no strays.
        let a = RefSet {
            ids: (0..300).map(PeerId).collect(),
        };
        let b = RefSet {
            ids: (150..450).map(PeerId).collect(),
        };
        let mut r = rng();
        let m = RefSet::mixed(&a, &b, usize::MAX, &mut r);
        assert_eq!(m.len(), 450, "union of 0..300 and 150..450");
        let mut sorted: Vec<PeerId> = m.as_slice().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 450, "no duplicates in the union");
        let bounded = RefSet::mixed(&a, &b, 7, &mut r);
        assert_eq!(bounded.len(), 7);
        for id in bounded.as_slice() {
            assert!(a.contains(*id) || b.contains(*id));
        }
    }

    /// The union half of `mixed_into`, the one-shot mix this module used
    /// before exchanges built each level's union once: a short-circuiting
    /// scan up to 16 ids in `a`, a sorted copy of `a` above.
    fn union_by_old_body(a: &RefSet, b: &RefSet) -> Vec<PeerId> {
        const LINEAR_SCAN_MAX: usize = 16;
        let mut out = a.ids.clone();
        if a.ids.len() <= LINEAR_SCAN_MAX {
            for &id in &b.ids {
                if !a.ids.contains(&id) {
                    out.push(id);
                }
            }
        } else {
            let mut seen = a.ids.clone();
            seen.sort_unstable();
            for &id in &b.ids {
                if seen.binary_search(&id).is_err() {
                    out.push(id);
                }
            }
        }
        out
    }

    /// 512 seeded pairs with `|a|` and `|b|` over 0..=160, straddling the
    /// old threshold (16) and [`SCAN_MAX`], and a drawn overlap: the union
    /// layout is the old one id for id.
    #[test]
    fn union_into_matches_the_old_mixed_into_body() {
        use rand::Rng;
        let mut cases = StdRng::seed_from_u64(0x0b1d);
        let mut out = vec![PeerId(999)]; // stale contents must not leak
        let mut seen = vec![PeerId(998)];
        for case in 0..512 {
            let na = cases.gen_range(0..=160usize);
            let nb = cases.gen_range(0..=160usize);
            let shared = cases.gen_range(0..=na.min(nb));
            // Scattered ids, so sorted order differs from insertion order.
            let mut universe: Vec<PeerId> = (0..(na + nb) as u32)
                .map(|i| PeerId(i.wrapping_mul(0x9e37_79b1)))
                .collect();
            draw::shuffle(&mut cases, &mut universe);
            let a = RefSet::from_ids(universe[..na].iter().copied());
            let mut b_ids = universe[..shared].to_vec();
            b_ids.extend_from_slice(&universe[na..na + nb - shared]);
            draw::shuffle(&mut cases, &mut b_ids);
            let b = RefSet::from_ids(b_ids);
            assert_eq!((a.len(), b.len()), (na, nb), "case {case}: distinct ids");
            RefSet::union_into(&a, &b, &mut out, &mut seen);
            assert_eq!(
                out,
                union_by_old_body(&a, &b),
                "case {case}: |a| {na}, |b| {nb}"
            );
            assert_eq!(out.len(), na + nb - shared, "case {case}");
        }
    }

    #[test]
    fn sample_excluding_into_appends_and_matches() {
        let s = RefSet {
            ids: (0..10).map(PeerId).collect(),
        };
        let mut r1 = rng();
        let mut r2 = rng();
        for k in [0usize, 4, 100, usize::MAX] {
            let owned = s.sample_excluding(k, PeerId(3), &mut r1);
            let mut out = vec![PeerId(77)]; // arena prefix must survive
            s.sample_excluding_into(k, PeerId(3), &mut r2, &mut out);
            assert_eq!(out[0], PeerId(77));
            assert_eq!(owned, out[1..], "k = {k}");
        }
    }

    #[test]
    fn shuffled_into_appends_and_matches() {
        let s = RefSet {
            ids: (0..6).map(PeerId).collect(),
        };
        let mut r1 = rng();
        let mut r2 = rng();
        let owned = s.shuffled(&mut r1);
        let mut out = vec![PeerId(55)];
        s.shuffled_into(&mut r2, &mut out);
        assert_eq!(out[0], PeerId(55));
        assert_eq!(owned, out[1..]);
    }

    #[test]
    fn overwrite_reuses_the_allocation() {
        let mut s = RefSet {
            ids: (0..8).map(PeerId).collect(),
        };
        let cap = {
            s.ids.reserve(32);
            s.ids.capacity()
        };
        s.overwrite(&[PeerId(1), PeerId(2)]);
        assert_eq!(s.as_slice(), &[PeerId(1), PeerId(2)]);
        assert_eq!(s.ids.capacity(), cap, "overwrite must not reallocate");
    }

    #[test]
    fn shuffled_is_permutation() {
        let s = RefSet {
            ids: (0..6).map(PeerId).collect(),
        };
        let mut r = rng();
        let mut sh = s.shuffled(&mut r);
        sh.sort();
        assert_eq!(sh, s.ids);
    }

    #[test]
    fn routing_table_levels_are_one_based() {
        let mut t = RoutingTable::new();
        assert_eq!(t.depth(), 0);
        assert!(t.level(1).is_empty());
        assert!(t.level(5).is_empty());
        t.set_level(2, RefSet::singleton(PeerId(7)));
        assert_eq!(t.depth(), 2);
        assert!(t.level(1).is_empty());
        assert!(t.level(2).contains(PeerId(7)));
        assert_eq!(t.total_refs(), 1);
        let levels: Vec<usize> = t.iter().map(|(l, _)| l).collect();
        assert_eq!(levels, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn level_zero_panics() {
        RoutingTable::new().level(0);
    }
}
