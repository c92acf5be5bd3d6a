//! Per-level reference sets — the peer's share of the distributed trie,
//! for the engine's `Peer` (`pgrid-core` re-exports them) and the live
//! [`crate::ProtocolPeer`] alike.

use std::ops::Range;

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

/// Replaces `out` with the union of `a` and `b`: `a`'s ids followed by
/// `b`'s ids not in `a`, both in order. `seen` is membership scratch.
///
/// Deduplicating `b` against `a` alone is sound because a level never
/// holds duplicates. Up to `SCAN_MAX` (128) ids in `a` each `b` id is
/// tested by a branch-free scan of `a`; above it against a sorted copy of
/// `a`, which keeps large unions O(n log n). Both give the same layout.
pub fn union_into(a: &[PeerId], b: &[PeerId], out: &mut Vec<PeerId>, seen: &mut Vec<PeerId>) {
    out.clear();
    out.reserve(a.len() + b.len());
    out.extend_from_slice(a);
    if a.len() <= SCAN_MAX {
        out.extend(b.iter().filter(|&&id| !holds(a, id)));
    } else {
        seen.clear();
        seen.extend_from_slice(a);
        seen.sort_unstable();
        out.extend(b.iter().filter(|id| seen.binary_search(id).is_err()));
    }
}

/// The paper's `random_select(bound, ids)` in place: shuffles `ids` and
/// keeps the first `bound`. The shuffle's draws depend only on
/// `ids.len()`, so two selections from copies of one union draw what two
/// selections from two separately built unions would.
#[inline]
pub fn random_select(ids: &mut Vec<PeerId>, bound: usize, rng: &mut StdRng) {
    draw::shuffle(rng, ids);
    ids.truncate(bound);
}

/// The references at one level: a bounded, duplicate-free set of peers on
/// the *other side* of that trie level, borrowed from a [`RoutingTable`].
///
/// The paper (§2): for each prefix `k_l` of its path, a peer "maintains
/// references to other peers, that have the same prefix of length `l`, but a
/// different value at position `l+1`", bounded by `refmax`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelRefs<'a> {
    ids: &'a [PeerId],
}

impl<'a> LevelRefs<'a> {
    /// A level as it arrived in an exchange offer (it may repeat ids).
    pub(crate) fn of(ids: &'a [PeerId]) -> Self {
        LevelRefs { ids }
    }

    /// Number of references.
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// `true` when no references are held.
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(self, id: PeerId) -> bool {
        self.ids.contains(&id)
    }

    /// The references in insertion order.
    pub fn as_slice(self) -> &'a [PeerId] {
        self.ids
    }

    /// A uniformly random sample of up to `k` references, excluding `not`,
    /// appended to `out`: the sample lands at `out[base..]` where `base` is
    /// `out.len()` on entry (arena style — existing contents are preserved).
    /// Case 4 uses it to pick recursion partners (`recfanout`).
    #[inline]
    pub fn sample_excluding_into(
        self,
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

    /// The references in a random order, appended to `out` (arena style) —
    /// the search algorithm's `random_select(refs)` loop consumes them one
    /// by one. Shuffling only the appended tail draws exactly what
    /// shuffling an owned copy would.
    #[inline]
    pub fn shuffled_into(self, rng: &mut StdRng, out: &mut Vec<PeerId>) {
        let base = out.len();
        out.extend_from_slice(self.ids);
        draw::shuffle(rng, &mut out[base..]);
    }
}

/// A peer's references for every level of its path, in one buffer. Levels
/// are 1-based, as in the paper.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTable {
    buf: Vec<PeerId>,
}

// Layout. An empty table allocates nothing. Otherwise `buf[0]` holds the
// depth `d`, `buf[1..=d]` each level's end offset `end(l)` (as `PeerId`
// words), and the ids follow back to back from `buf[1 + d]`: level `l` is
// `end(l - 1)..end(l)` past that base, with `end(0) = 0`. The depth lives
// in the buffer to keep `Peer` one `Vec` wide here; nothing else does, so
// derived equality is level equality. A same-length write copies in place;
// a length change splices and shifts the later ends. Growth takes a small
// bounded step (`grow`), never a doubling; `build` trims every buffer.
impl RoutingTable {
    /// Empty table (peer with the empty path).
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Number of levels with a reference slot (= current path length).
    #[inline]
    pub fn depth(&self) -> usize {
        self.buf.first().map_or(0, |d| d.0 as usize)
    }

    /// The references at 1-based `level`, empty if beyond the path.
    pub fn level(&self, level: usize) -> LevelRefs<'_> {
        assert!(level >= 1, "levels are 1-based");
        let ids = (level <= self.depth()).then(|| &self.buf[self.span(level)]);
        LevelRefs {
            ids: ids.unwrap_or_default(),
        }
    }

    /// Write access to the references at 1-based `level`, growing the
    /// table to at least `level` slots.
    pub fn level_mut(&mut self, level: usize) -> LevelRefsMut<'_> {
        assert!(level >= 1, "levels are 1-based");
        let depth = self.depth();
        if level > depth {
            let total = PeerId(self.total_refs() as u32);
            if self.buf.is_empty() {
                self.buf.push(PeerId(0));
            }
            self.grow(level - depth);
            let ends = std::iter::repeat_n(total, level - depth);
            self.buf.splice(1 + depth..1 + depth, ends);
            self.buf[0] = PeerId(level as u32);
        }
        LevelRefsMut { table: self, level }
    }

    /// Replaces the references at `level` with `ids`, which the caller
    /// hands in duplicate-free; no bound is applied.
    #[inline]
    pub fn set_level(&mut self, level: usize, ids: &[PeerId]) {
        self.level_mut(level).overwrite(ids);
    }

    /// Total number of references across levels (storage cost metric, §6).
    #[inline]
    pub fn total_refs(&self) -> usize {
        self.buf.len().saturating_sub(1 + self.depth())
    }

    /// Iterates `(level, refs)` with 1-based levels.
    pub fn iter(&self) -> impl Iterator<Item = (usize, LevelRefs<'_>)> {
        (1..=self.depth()).map(move |l| (l, self.level(l)))
    }

    /// Drops the buffer's spare capacity.
    #[inline]
    pub fn shrink_to_fit(&mut self) {
        self.buf.shrink_to_fit();
    }

    /// Id slots allocated, the `1 + depth + total_refs` in use included.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The position of `level`'s ids in `buf` (`1 <= level <= depth`).
    fn span(&self, level: usize) -> Range<usize> {
        let base = 1 + self.buf[0].0 as usize;
        let start = if level == 1 { 0 } else { self.buf[level - 1].0 };
        base + start as usize..base + self.buf[level].0 as usize
    }

    /// Makes room for `extra` more slots: a step of at most
    /// `max(extra, 16)` beyond the length, never a doubling.
    fn grow(&mut self, extra: usize) {
        let len = self.buf.len();
        if len + extra > self.buf.capacity() {
            self.buf.reserve_exact(extra.max(len.min(32) / 2).max(4));
        }
    }

    /// Adds `delta` (two's complement) to the ends of `level` and every
    /// later level.
    fn shift_ends(&mut self, level: usize, delta: u32) {
        let depth = self.depth();
        for end in &mut self.buf[level..=depth] {
            end.0 = end.0.wrapping_add(delta);
        }
    }
}

/// Each list at its level, level 1 first, taken as
/// [`RoutingTable::set_level`] takes it: duplicate-free, no bound applied.
impl<L: AsRef<[PeerId]>> FromIterator<L> for RoutingTable {
    #[inline]
    fn from_iter<I: IntoIterator<Item = L>>(levels: I) -> Self {
        let (mut buf, mut ids) = (vec![PeerId(0)], Vec::new());
        for level in levels {
            ids.extend_from_slice(level.as_ref());
            buf.push(PeerId(ids.len() as u32));
        }
        if buf.len() == 1 {
            return RoutingTable::new();
        }
        buf[0] = PeerId(buf.len() as u32 - 1);
        buf.reserve_exact(ids.len());
        buf.extend(ids);
        RoutingTable { buf }
    }
}

/// Write access to one level of a [`RoutingTable`], from
/// [`RoutingTable::level_mut`].
pub struct LevelRefsMut<'a> {
    table: &'a mut RoutingTable,
    level: usize,
}

impl LevelRefsMut<'_> {
    /// Inserts `id` if absent; when the level then exceeds `bound`, evicts a
    /// uniformly random element. This is the incremental equivalent of the
    /// paper's `random_select(refmax, union({a}, refs))`.
    ///
    /// A full level replaces in place: one draw over the `len + 1`
    /// candidates picks the leaver, and `id` takes its slot, which is the
    /// draw and the order a push followed by `swap_remove` would leave.
    pub fn insert_bounded(self, id: PeerId, bound: usize, rng: &mut StdRng) {
        let span = self.table.span(self.level);
        let ids = &mut self.table.buf[span.clone()];
        if holds(ids, id) {
            return;
        }
        if ids.len() >= bound {
            let victim = draw::below(rng, ids.len() + 1);
            if victim < ids.len() {
                ids[victim] = id;
            }
            return;
        }
        self.table.grow(1);
        self.table.buf.insert(span.end, id);
        self.table.shift_ends(self.level, 1);
    }

    /// Unions `ids` (duplicate-free) into the level, then evicts a uniformly
    /// random reference while over `bound`, the last one taking its slot:
    /// the draws and layout of pushing every new id, then `swap_remove`-ing
    /// random elements (the many-id [`LevelRefsMut::insert_bounded`]).
    pub(crate) fn union_bounded(self, ids: &[PeerId], bound: usize, rng: &mut StdRng) {
        let (level, mut mix) = (self.table.level(self.level).as_slice(), Vec::new());
        union_into(level, ids, &mut mix, &mut Vec::new());
        while mix.len() > bound {
            mix.swap_remove(draw::below(rng, mix.len()));
        }
        self.overwrite(&mix);
    }

    /// Replaces the level's references with `ids`, which the caller hands
    /// in duplicate-free (scratch mixes are). A write of the same length
    /// copies in place; the exchange hot path installs its mixes this way.
    pub fn overwrite(self, ids: &[PeerId]) {
        let span = self.table.span(self.level);
        if ids.len() == span.len() {
            self.table.buf[span].copy_from_slice(ids);
            return;
        }
        let old = span.len();
        self.table.grow(ids.len().saturating_sub(old));
        self.table.buf.splice(span, ids.iter().copied());
        self.table
            .shift_ends(self.level, (ids.len() as u32).wrapping_sub(old as u32));
    }

    /// Removes `id` if present.
    #[inline]
    pub fn remove(self, id: PeerId) {
        let span = self.table.span(self.level);
        if let Some(i) = self.table.buf[span.clone()].iter().position(|&x| x == id) {
            self.table.buf.remove(span.start + i);
            self.table.shift_ends(self.level, u32::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// A one-level table holding `ids` at level 1.
    fn table(ids: impl IntoIterator<Item = u32>) -> RoutingTable {
        let ids: Vec<PeerId> = ids.into_iter().map(PeerId).collect();
        let mut t = RoutingTable::new();
        t.set_level(1, &ids);
        t
    }

    /// The paper's `random_select(bound, union(a, b))` as one owned mix.
    fn mixed(a: &[PeerId], b: &[PeerId], bound: usize, rng: &mut StdRng) -> Vec<PeerId> {
        let mut ids = Vec::new();
        union_into(a, b, &mut ids, &mut Vec::new());
        random_select(&mut ids, bound, rng);
        ids
    }

    #[test]
    fn refset_basics() {
        let mut t = RoutingTable::new();
        assert!(t.level(1).is_empty());
        let mut r = rng();
        t.level_mut(1).insert_bounded(PeerId(1), 3, &mut r);
        t.level_mut(1).insert_bounded(PeerId(2), 3, &mut r);
        t.level_mut(1).insert_bounded(PeerId(1), 3, &mut r); // duplicate ignored
        assert_eq!(t.level(1).len(), 2);
        assert!(t.level(1).contains(PeerId(1)));
        t.level_mut(1).remove(PeerId(1));
        assert!(!t.level(1).contains(PeerId(1)));
        assert_eq!(table([9]).level(1).as_slice(), &[PeerId(9)]);
    }

    #[test]
    fn insert_bounded_enforces_bound() {
        let mut t = RoutingTable::new();
        let mut r = rng();
        for i in 0..100 {
            t.level_mut(1).insert_bounded(PeerId(i), 5, &mut r);
            assert!(t.level(1).len() <= 5);
        }
        assert_eq!(t.level(1).len(), 5);
    }

    /// The `insert_bounded` body before the in-place replacement: push, then
    /// evict a uniformly random element once over the bound.
    fn insert_bounded_by_push(s: &mut Vec<PeerId>, id: PeerId, bound: usize, rng: &mut StdRng) {
        if s.contains(&id) {
            return;
        }
        s.push(id);
        if s.len() > bound {
            let victim = rand::Rng::gen_range(rng, 0..s.len());
            s.swap_remove(victim);
        }
    }

    /// The level under test sits between two others, so every insert
    /// below the bound splices the buffer and shifts a later end.
    #[test]
    fn in_place_insert_matches_push_and_swap_remove() {
        use rand::Rng;
        let mut cases = StdRng::seed_from_u64(0x1b);
        let (below, above) = ([PeerId(1_000), PeerId(1_001)], [PeerId(1_002)]);
        for case in 0..256u64 {
            let bound = (case % 25) as usize;
            // Over-bound starting sets too: snapshot restores and corruption
            // writes install sets without applying the bound.
            let universe = 3 * bound as u32 + 8;
            let mut old: Vec<PeerId> = Vec::new();
            for _ in 0..cases.gen_range(0..bound + 6) {
                let id = PeerId(cases.gen_range(0..universe));
                if !old.contains(&id) {
                    old.push(id);
                }
            }
            let mut new = RoutingTable::new();
            new.set_level(1, &below);
            new.set_level(2, &old);
            new.set_level(3, &above);
            let spare = new.buf.capacity();
            let seed: u64 = cases.gen();
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let id = PeerId(cases.gen_range(0..universe));
                new.level_mut(2).insert_bounded(id, bound, &mut new_rng);
                insert_bounded_by_push(&mut old, id, bound, &mut old_rng);
                assert_eq!(new.level(2).as_slice(), old, "case {case}, bound {bound}");
                assert_eq!(new.level(1).as_slice(), below, "case {case}");
                assert_eq!(new.level(3).as_slice(), above, "case {case}");
                assert!(
                    new.buf.capacity() <= spare.max(new.buf.len() + 16),
                    "case {case}: grew by more than one step"
                );
            }
            assert_eq!(
                new_rng.gen::<u64>(),
                old_rng.gen::<u64>(),
                "case {case}: RNG position"
            );
        }
    }

    /// Seeded edits on random levels — inserts, overwrites of every
    /// length, removes, and level growth — leave the table equal to one
    /// `Vec` per level edited the same way.
    #[test]
    fn edits_match_a_vec_per_level_model() {
        use rand::Rng;
        let mut cases = StdRng::seed_from_u64(0xed17);
        for case in 0..64 {
            let mut t = RoutingTable::new();
            let mut model: Vec<Vec<PeerId>> = Vec::new();
            for step in 0..200 {
                let level = cases.gen_range(1..=8usize);
                if model.len() < level {
                    model.resize(level, Vec::new());
                }
                let refs = &mut model[level - 1];
                match cases.gen_range(0..3) {
                    0 => {
                        let id = PeerId(cases.gen_range(0..40));
                        t.level_mut(level).insert_bounded(id, 6, &mut rng());
                        insert_bounded_by_push(refs, id, 6, &mut rng());
                    }
                    1 => {
                        let mut ids: Vec<PeerId> = (0..40).map(PeerId).collect();
                        random_select(&mut ids, cases.gen_range(0..=10), &mut cases);
                        t.level_mut(level).overwrite(&ids);
                        *refs = ids;
                    }
                    _ => {
                        let id = PeerId(cases.gen_range(0..40));
                        t.level_mut(level).remove(id);
                        refs.retain(|&x| x != id);
                    }
                }
                assert_eq!(t.depth(), model.len(), "case {case} step {step}");
                for (l, refs) in t.iter() {
                    assert_eq!(refs.as_slice(), model[l - 1], "case {case} step {step}");
                }
                let collected: RoutingTable = model.iter().collect();
                assert_eq!(collected, t, "case {case} step {step}: collect");
                let total: usize = model.iter().map(Vec::len).sum();
                assert_eq!(t.total_refs(), total);
                assert_eq!(t.buf.len(), 1 + t.depth() + total, "no stray slots");
            }
        }
    }

    #[test]
    fn mixing_bounds_and_dedups() {
        let mut r = rng();
        let a = [PeerId(1), PeerId(2), PeerId(3)];
        let b = [PeerId(3), PeerId(4)];
        let m = mixed(&a, &b, 10, &mut r);
        assert_eq!(m.len(), 4, "union without duplicates");
        let m2 = mixed(&a, &b, 2, &mut r);
        assert_eq!(m2.len(), 2);
        for id in &m2 {
            assert!(a.contains(id) || b.contains(id));
        }
    }

    #[test]
    fn mixing_is_uniformly_random() {
        // Every element of the union should appear in a bounded mix with
        // roughly equal frequency.
        let a: Vec<PeerId> = (0..4).map(PeerId).collect();
        let b: Vec<PeerId> = (4..8).map(PeerId).collect();
        let mut r = rng();
        let mut counts = [0u32; 8];
        for _ in 0..4000 {
            for id in mixed(&a, &b, 2, &mut r) {
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
        let s = table(0..10);
        let mut r = rng();
        let mut sample = Vec::new();
        s.level(1)
            .sample_excluding_into(4, PeerId(3), &mut r, &mut sample);
        assert_eq!(sample.len(), 4);
        assert!(!sample.contains(&PeerId(3)));
        let mut all = Vec::new();
        s.level(1)
            .sample_excluding_into(100, PeerId(3), &mut r, &mut all);
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn mixing_large_sets_dedups_exactly() {
        // Above the linear-scan threshold the sorted-membership path must
        // produce the same union semantics: every element once, no strays.
        let a: Vec<PeerId> = (0..300).map(PeerId).collect();
        let b: Vec<PeerId> = (150..450).map(PeerId).collect();
        let mut r = rng();
        let m = mixed(&a, &b, usize::MAX, &mut r);
        assert_eq!(m.len(), 450, "union of 0..300 and 150..450");
        let mut sorted = m;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 450, "no duplicates in the union");
        let bounded = mixed(&a, &b, 7, &mut r);
        assert_eq!(bounded.len(), 7);
        for id in &bounded {
            assert!(a.contains(id) || b.contains(id));
        }
    }

    /// The union half of `mixed_into`, the one-shot mix this module used
    /// before exchanges built each level's union once: a short-circuiting
    /// scan up to 16 ids in `a`, a sorted copy of `a` above.
    fn union_by_old_body(a: &[PeerId], b: &[PeerId]) -> Vec<PeerId> {
        const LINEAR_SCAN_MAX: usize = 16;
        let mut out = a.to_vec();
        if a.len() <= LINEAR_SCAN_MAX {
            for &id in b {
                if !a.contains(&id) {
                    out.push(id);
                }
            }
        } else {
            let mut seen = a.to_vec();
            seen.sort_unstable();
            for &id in b {
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
            // Scattered distinct ids, so sorted order differs from
            // insertion order.
            let mut universe: Vec<PeerId> = (0..(na + nb) as u32)
                .map(|i| PeerId(i.wrapping_mul(0x9e37_79b1)))
                .collect();
            draw::shuffle(&mut cases, &mut universe);
            let a = &universe[..na];
            let mut b = universe[..shared].to_vec();
            b.extend_from_slice(&universe[na..na + nb - shared]);
            draw::shuffle(&mut cases, &mut b);
            union_into(a, &b, &mut out, &mut seen);
            assert_eq!(
                out,
                union_by_old_body(a, &b),
                "case {case}: |a| {na}, |b| {nb}"
            );
            assert_eq!(out.len(), na + nb - shared, "case {case}");
        }
    }

    #[test]
    fn sample_excluding_into_appends_and_matches() {
        let s = table(0..10);
        let mut r1 = rng();
        let mut r2 = rng();
        for k in [0usize, 4, 100, usize::MAX] {
            let mut alone = Vec::new();
            s.level(1)
                .sample_excluding_into(k, PeerId(3), &mut r1, &mut alone);
            let mut out = vec![PeerId(77)]; // arena prefix must survive
            s.level(1)
                .sample_excluding_into(k, PeerId(3), &mut r2, &mut out);
            assert_eq!(out[0], PeerId(77));
            assert_eq!(alone, out[1..], "k = {k}");
        }
    }

    #[test]
    fn shuffled_into_appends_and_matches() {
        let s = table(0..6);
        let mut r1 = rng();
        let mut r2 = rng();
        let mut alone = Vec::new();
        s.level(1).shuffled_into(&mut r1, &mut alone);
        let mut out = vec![PeerId(55)];
        s.level(1).shuffled_into(&mut r2, &mut out);
        assert_eq!(out[0], PeerId(55));
        assert_eq!(alone, out[1..]);
    }

    /// A same-length overwrite copies in place: the buffer keeps its
    /// allocation and the other levels their ids.
    #[test]
    fn overwrite_reuses_the_allocation() {
        let mut t = table(0..8);
        t.set_level(2, &[PeerId(20), PeerId(21)]);
        t.set_level(3, &[PeerId(30)]);
        let (ptr, cap) = (t.buf.as_ptr(), t.buf.capacity());
        t.level_mut(2).overwrite(&[PeerId(1), PeerId(2)]);
        t.level_mut(1)
            .overwrite(&(10..18).map(PeerId).collect::<Vec<_>>());
        assert_eq!(
            t.level(1).as_slice(),
            (10..18).map(PeerId).collect::<Vec<_>>()
        );
        assert_eq!(t.level(2).as_slice(), &[PeerId(1), PeerId(2)]);
        assert_eq!(t.level(3).as_slice(), &[PeerId(30)]);
        assert_eq!(
            (t.buf.as_ptr(), t.buf.capacity()),
            (ptr, cap),
            "overwrite must not reallocate"
        );
    }

    #[test]
    fn shuffled_is_permutation() {
        let s = table(0..6);
        let mut r = rng();
        let mut sh = Vec::new();
        s.level(1).shuffled_into(&mut r, &mut sh);
        sh.sort();
        assert_eq!(sh, s.level(1).as_slice());
    }

    #[test]
    fn routing_table_levels_are_one_based() {
        let mut t = RoutingTable::new();
        assert_eq!(t.depth(), 0);
        assert!(t.level(1).is_empty());
        assert!(t.level(5).is_empty());
        t.set_level(2, &[PeerId(7)]);
        assert_eq!(t.depth(), 2);
        assert!(t.level(1).is_empty());
        assert!(t.level(2).contains(PeerId(7)));
        assert_eq!(t.total_refs(), 1);
        let levels: Vec<usize> = t.iter().map(|(l, _)| l).collect();
        assert_eq!(levels, vec![1, 2]);
    }

    /// `collect` keeps empty levels, trailing ones included, and an empty
    /// iterator is the empty table.
    #[test]
    fn collect_keeps_every_level() {
        let t: RoutingTable = [&[][..], &[PeerId(4), PeerId(2)], &[]]
            .into_iter()
            .collect();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.level(2).as_slice(), [PeerId(4), PeerId(2)]);
        assert_eq!(t.buf.len(), 1 + 3 + 2, "no stray slots");
        let none: RoutingTable = std::iter::empty::<Vec<PeerId>>().collect();
        assert_eq!(none, RoutingTable::new());
        assert_eq!(none.capacity(), 0, "an empty table allocates nothing");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn level_zero_panics() {
        RoutingTable::new().level(0);
    }
}
