//! Succinct snapshot of the whole community's routing state, built and held
//! by a caller.
//!
//! In the live access structure every peer owns a `RoutingTable`: one heap
//! buffer holding its depth, level ends and references, so one Fig. 2 hop
//! touches the peer struct and then that buffer. [`CompactRoutingTable`]
//! flattens the whole community into four contiguous arrays (the FM-index
//! layout, cf. DESIGN.md §9):
//!
//! * every path, bit-packed back to back in a [`PathArena`];
//! * a [`RankBits`] occupancy bitvector over `(peer, level)` slots;
//! * one flat `refs: Vec<PeerId>` holding every reference slice, addressed
//!   by `rank1(slot)` through a compacted `slice_ends` table.
//!
//! The snapshot answers reads only, and it answers them **identically** to
//! the live walk (same slices, same order — the descent RNG consumes slice
//! contents, so order equality is part of the contract). Mutations go to
//! the live structures, and [`PGrid::search`] reads only those: the grid
//! keeps no copy of its own. A caller that builds a table and holds it
//! (`PGrid::search_batch`, `pgrid_sim::run_query_plan_batched`) compares
//! its epoch against [`PGrid::epoch`] to tell whether it still applies.

use pgrid_keys::{BitPath, PathArena, RankBits};
use pgrid_net::PeerId;

use crate::PGrid;

/// A frozen succinct snapshot of every peer's path and reference table.
///
/// Build one with [`CompactRoutingTable::build`], and let readers fall back
/// to the live structures whenever [`CompactRoutingTable::is_fresh`] says
/// the snapshot lags the grid (see `PGrid::search_batch`).
#[derive(Clone, Debug)]
pub struct CompactRoutingTable {
    /// Grid epoch this snapshot reproduces exactly.
    built_epoch: u64,
    /// Peer count at build time.
    n: usize,
    /// Levels representable per peer; at least the deepest routing table
    /// (and `maxl`) observed at build time.
    stride: usize,
    /// All paths, bit-packed, indexed by peer.
    paths: PathArena,
    /// Occupancy of slot `peer * stride + level - 1`.
    occupancy: RankBits,
    /// End offset (into `refs`) of each occupied slot, indexed by
    /// `occupancy.rank1(slot)`.
    slice_ends: Vec<u32>,
    /// Every reference slice, back to back, in (peer, level) order.
    refs: Vec<PeerId>,
}

impl CompactRoutingTable {
    /// Freezes the current routing state of every peer.
    pub fn build(grid: &PGrid) -> Self {
        let n = grid.len();
        let stride = grid
            .peers()
            .map(|p| p.routing().depth())
            .max()
            .unwrap_or(0)
            .max(grid.config().maxl);
        let mut paths = PathArena::with_capacity(n, grid.config().maxl);
        // Sized exactly up front: at paper scale `refs` is the largest
        // allocation in the process, and doubling into it would leave a
        // spare half behind.
        let (total_refs, slices) = grid.peers().fold((0, 0), |(r, s), p| {
            let levels = p.routing().iter().filter(|(_, set)| !set.is_empty());
            (r + p.routing().total_refs(), s + levels.count())
        });
        let mut refs = Vec::with_capacity(total_refs);
        let mut slice_ends = Vec::with_capacity(slices);
        for peer in grid.peers() {
            paths.push(&peer.path());
            for level in 1..=stride {
                let slice = peer.routing().level(level).as_slice();
                if !slice.is_empty() {
                    refs.extend_from_slice(slice);
                    slice_ends.push(refs.len() as u32);
                }
            }
        }
        let occupancy = RankBits::from_fn(n * stride, |slot| {
            let peer = grid.peer(PeerId::from_index(slot / stride));
            !peer.routing().level(slot % stride + 1).is_empty()
        });
        debug_assert_eq!(occupancy.ones(), slice_ends.len());
        CompactRoutingTable {
            built_epoch: grid.epoch(),
            n,
            stride,
            paths,
            occupancy,
            slice_ends,
            refs,
        }
    }

    /// `true` when the snapshot still reproduces `grid` exactly.
    pub fn is_fresh(&self, grid: &PGrid) -> bool {
        self.built_epoch == grid.epoch() && self.n == grid.len()
    }

    /// Number of peers frozen in the snapshot.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the snapshot covers no peers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The frozen path of `id` — equal to `grid.peer(id).path()` as of the
    /// snapshot epoch.
    pub fn path(&self, id: PeerId) -> BitPath {
        self.paths.get(id.index())
    }

    /// The frozen reference slice of `id` at `level` — equal in content
    /// *and order* to `grid.peer(id).routing().level(level).as_slice()` as
    /// of the snapshot epoch. Out-of-range levels yield the empty slice,
    /// mirroring the live table.
    pub fn level_refs(&self, id: PeerId, level: usize) -> &[PeerId] {
        if level == 0 || level > self.stride {
            return &[];
        }
        let slot = id.index() * self.stride + level - 1;
        if !self.occupancy.get(slot) {
            return &[];
        }
        let r = self.occupancy.rank1(slot);
        let start = if r == 0 {
            0
        } else {
            self.slice_ends[r - 1] as usize
        };
        &self.refs[start..self.slice_ends[r] as usize]
    }

    /// Approximate heap footprint of the snapshot in bytes.
    pub fn bytes(&self) -> usize {
        self.paths.bytes()
            + self.occupancy.bytes()
            + self.slice_ends.len() * 4
            + self.refs.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PGridConfig;

    /// A small grid with hand-built paths and references.
    fn grid() -> PGrid {
        let mut g = PGrid::new(
            8,
            PGridConfig {
                maxl: 3,
                refmax: 4,
                ..PGridConfig::default()
            },
        );
        // Peers 0..4 take "00","01","10","11"; 4,5 take "0","1"; 6,7 root.
        for (i, bits) in [(0, [0, 0]), (1, [0, 1]), (2, [1, 0]), (3, [1, 1])] {
            g.extend_peer_path(PeerId(i), bits[0]);
            g.extend_peer_path(PeerId(i), bits[1]);
        }
        g.extend_peer_path(PeerId(4), 0);
        g.extend_peer_path(PeerId(5), 1);
        g.routing_mut(PeerId(0))
            .set_level(1, &[PeerId(2), PeerId(3), PeerId(5)]);
        g.routing_mut(PeerId(0)).set_level(2, &[PeerId(1)]);
        g.routing_mut(PeerId(2)).set_level(2, &[PeerId(3)]);
        g.routing_mut(PeerId(4))
            .set_level(1, &[PeerId(3), PeerId(2)]);
        g
    }

    fn assert_mirrors(table: &CompactRoutingTable, g: &PGrid) {
        for peer in g.peers() {
            let id = peer.id();
            assert_eq!(table.path(id), peer.path(), "{id} path");
            assert!(table.level_refs(id, 0).is_empty());
            for level in 1..=g.config().maxl + 2 {
                assert_eq!(
                    table.level_refs(id, level),
                    peer.routing().level(level).as_slice(),
                    "{id} level {level}"
                );
            }
        }
    }

    #[test]
    fn frozen_table_mirrors_the_live_walk() {
        let g = grid();
        let table = CompactRoutingTable::build(&g);
        assert!(table.is_fresh(&g));
        assert_eq!(table.len(), 8);
        assert_mirrors(&table, &g);
        assert!(table.bytes() > 0);
    }

    #[test]
    fn mutations_stale_a_held_table_until_rebuilt() {
        let mut g = grid();
        let table = CompactRoutingTable::build(&g);

        // Buddy and index writes leave the routing epoch alone.
        g.peer_mut(PeerId(6)).add_buddy(PeerId(7));
        assert!(table.is_fresh(&g));

        g.extend_peer_path(PeerId(6), 1);
        g.routing_mut(PeerId(6)).set_level(1, &[PeerId(4)]);
        assert!(!table.is_fresh(&g), "a routing write must stale the table");

        let table = CompactRoutingTable::build(&g);
        assert!(table.is_fresh(&g));
        assert_mirrors(&table, &g);
    }
}
