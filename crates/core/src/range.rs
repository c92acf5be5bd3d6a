//! Distributed range queries.
//!
//! A hashing DHT answers range queries by enumerating every key; P-Grid's
//! order-preserving key space answers them structurally: the interval is
//! rewritten as O(log) disjoint trie prefixes ([`pgrid_keys::range_cover`])
//! and each prefix's subtree is resolved by recursive search — a peer whose
//! path *extends* the prefix covers only part of it, so the remainder is
//! split and searched again.

use std::collections::BTreeSet;

use pgrid_keys::{range_cover_into, Key};
use pgrid_net::PeerId;

use crate::{Ctx, IndexEntry, LeafIndex, PGrid};

/// Result of a distributed range query.
#[derive(Clone, Debug, Default)]
pub struct RangeOutcome {
    /// Peers found to cover parts of the range (one or more per prefix).
    pub peers: BTreeSet<PeerId>,
    /// Subtree prefixes for which no responsible peer was reachable.
    pub unresolved: Vec<Key>,
    /// Messages spent.
    pub messages: u64,
}

impl PGrid {
    /// Locates peers collectively responsible for every key in the
    /// inclusive range `[lo, hi]`, starting searches at `start`.
    ///
    /// `lo` and `hi` must have equal lengths. The recursion depth is capped
    /// at the grid's `maxl` — below leaf level one responsible peer covers
    /// the whole remaining subtree.
    pub fn search_range(
        &self,
        start: PeerId,
        lo: &Key,
        hi: &Key,
        ctx: &mut Ctx<'_>,
    ) -> RangeOutcome {
        let mut out = RangeOutcome::default();
        // Decompose into the scratch arena's cover buffer (the `_into`
        // discipline): a warm context pays no allocation for the cover.
        // The buffer is moved out for the duration of the recursion — the
        // searches below need the scratch arena's query buffers.
        let mut cover = std::mem::take(&mut ctx.scratch_mut().range_cover);
        range_cover_into(lo, hi, &mut cover);
        for &prefix in &cover {
            self.cover_subtree(start, prefix, &mut out, ctx);
        }
        ctx.scratch_mut().range_cover = cover;
        out
    }

    /// Finds peers covering the whole subtree under `prefix`, splitting when
    /// the found peer is more specific than the prefix.
    fn cover_subtree(&self, start: PeerId, prefix: Key, out: &mut RangeOutcome, ctx: &mut Ctx<'_>) {
        let found = self.search(start, &prefix, ctx);
        out.messages += found.messages;
        let Some(peer) = found.responsible else {
            out.unresolved.push(prefix);
            return;
        };
        out.peers.insert(peer);
        let peer_path = self.peer(peer).path();
        // The peer covers the whole prefix subtree when its path is no
        // deeper than the prefix; otherwise the sibling half of every level
        // it descended through still needs covering.
        if peer_path.len() <= prefix.len() || prefix.len() >= self.config().maxl {
            return;
        }
        // Walk from the prefix down along the peer's path; each step leaves
        // the flipped-sibling subtree uncovered.
        for depth in prefix.len()..peer_path.len().min(self.config().maxl) {
            let sibling = peer_path.prefix(depth + 1).with_flipped(depth);
            self.cover_subtree(start, sibling, out, ctx);
        }
    }

    /// Range read: locates the covering peers, then collects every index
    /// entry whose key falls inside `[lo, hi]`, deduplicated per
    /// `(key, item, holder)` with the newest version winning.
    pub fn range_entries(
        &self,
        start: PeerId,
        lo: &Key,
        hi: &Key,
        ctx: &mut Ctx<'_>,
    ) -> (RangeOutcome, LeafIndex<IndexEntry>) {
        let outcome = self.search_range(start, lo, hi, ctx);
        let mut merged = LeafIndex::new();
        for &peer in &outcome.peers {
            self.peer(peer)
                .index()
                .for_each_under(&Key::EMPTY, |key, entries| {
                    // Inclusive range filter on full keys: compare by value with
                    // the range endpoints (keys may be longer than endpoints; a
                    // key is inside when its `len(lo)`-bit prefix is within, with
                    // boundary prefixes resolved by the remaining bits' value —
                    // for simplicity we include boundary subtrees fully, which
                    // matches prefix-granularity semantics).
                    let head = key.prefix(lo.len().min(key.len()));
                    if head >= lo.prefix(head.len()) && head <= hi.prefix(head.len()) {
                        for &e in entries {
                            merged.insert(key, e);
                        }
                    }
                });
        }
        (outcome, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, PGridConfig};
    use pgrid_keys::BitPath;
    use pgrid_net::{AlwaysOnline, BernoulliOnline, NetStats};
    use pgrid_store::{ItemId, Version};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (PGrid, StdRng, NetStats) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = NetStats::new();
        let mut grid = PGrid::new(
            512,
            PGridConfig {
                maxl: 5,
                refmax: 3,
                ..PGridConfig::default()
            },
        );
        let mut online = AlwaysOnline;
        {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            assert!(
                grid.build(&BuildOptions::default(), &mut ctx)
                    .reached_threshold
            );
        }
        (grid, rng, stats)
    }

    #[test]
    fn range_peers_cover_every_leaf() {
        let (grid, mut rng, mut stats) = setup(1);
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let lo = BitPath::from_value(5, 5);
        let hi = BitPath::from_value(22, 5);
        let out = grid.search_range(PeerId(0), &lo, &hi, &mut ctx);
        assert!(out.unresolved.is_empty(), "all peers online");
        for v in 5..=22u128 {
            let leaf = BitPath::from_value(v, 5);
            assert!(
                out.peers
                    .iter()
                    .any(|p| grid.peer(*p).path().responsible_for(&leaf)),
                "leaf {leaf} uncovered"
            );
        }
        // Cost stays logarithmic-ish: far fewer messages than leaves × depth.
        assert!(out.messages < 18 * 5 * 3, "messages = {}", out.messages);
    }

    #[test]
    fn range_entries_returns_exactly_the_items_inside() {
        let (mut grid, mut rng, mut stats) = setup(2);
        // Index items at every 5-bit leaf value with matching item ids.
        for v in 0..32u128 {
            let key = BitPath::from_value(v, 5);
            grid.seed_index(
                key,
                IndexEntry {
                    item: ItemId(v as u64),
                    holder: PeerId(0),
                    version: Version(0),
                },
            );
        }
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let lo = BitPath::from_value(7, 5);
        let hi = BitPath::from_value(19, 5);
        let (_, entries) = grid.range_entries(PeerId(3), &lo, &hi, &mut ctx);
        let mut found: Vec<u64> = entries
            .iter()
            .flat_map(|(_, v)| v.iter().map(|e| e.item.0))
            .collect();
        found.sort_unstable();
        found.dedup();
        assert_eq!(found, (7..=19).collect::<Vec<u64>>());
    }

    #[test]
    fn single_point_range_equals_search() {
        let (grid, mut rng, mut stats) = setup(3);
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let key = BitPath::from_value(13, 5);
        let out = grid.search_range(PeerId(1), &key, &key, &mut ctx);
        assert_eq!(out.peers.len(), 1);
        let peer = *out.peers.iter().next().unwrap();
        assert!(grid.peer(peer).responsible_for(&key));
    }

    #[test]
    fn churn_surfaces_unresolved_prefixes_instead_of_lying() {
        let (grid, mut rng, mut stats) = setup(4);
        let mut online = BernoulliOnline::new(0.15);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let lo = BitPath::from_value(0, 5);
        let hi = BitPath::from_value(31, 5);
        let out = grid.search_range(PeerId(2), &lo, &hi, &mut ctx);
        // At 15% availability some subtrees will fail to resolve — they must
        // be reported, and every reported peer must be genuinely responsible
        // for something in range.
        for p in &out.peers {
            let path = grid.peer(*p).path();
            assert!(path.len() <= 5);
        }
        // Either full success or explicit gaps; never silent omission:
        // covered leaves + unresolved subtree leaves == 32.
        let covered: std::collections::BTreeSet<u128> = (0..32u128)
            .filter(|&v| {
                let leaf = BitPath::from_value(v, 5);
                out.peers
                    .iter()
                    .any(|p| grid.peer(*p).path().responsible_for(&leaf))
            })
            .collect();
        for v in 0..32u128 {
            let leaf = BitPath::from_value(v, 5);
            let in_unresolved = out.unresolved.iter().any(|u| u.is_prefix_of(&leaf));
            assert!(
                covered.contains(&v) || in_unresolved,
                "leaf {leaf} neither covered nor reported unresolved"
            );
        }
    }
}
