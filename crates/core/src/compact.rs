//! Frozen, succinct snapshot of the whole community's routing state.
//!
//! The live access structure is pointer-rich: every peer owns a
//! `RoutingTable` of per-level `Vec<PeerId>`s, so one Fig. 2 hop touches a
//! peer struct, a level vector header, and a heap slice — three dependent
//! cache misses before the first reference is read. [`CompactRoutingTable`]
//! flattens all of it into four contiguous arrays (the FM-index layout,
//! cf. DESIGN.md §13):
//!
//! * every path, bit-packed back to back in a [`PathArena`];
//! * a [`RankBits`] occupancy bitvector over `(peer, level)` slots;
//! * one flat `refs: Vec<PeerId>` holding every reference slice, addressed
//!   by `rank1(slot)` through a compacted `slice_ends` table.
//!
//! The snapshot is *frozen*: it answers reads only, and it answers them
//! **identically** to the live walk (same slices, same order — the descent
//! RNG consumes slice contents, so order equality is part of the contract).
//! Mutations go to the live structures as before; the grid's
//! [`PGrid::epoch`] counter marks which peers changed, and
//! [`CompactRoutingTable::refresh`] re-freezes just those peers into a
//! patch overlay (falling back to a full rebuild when the overlay grows
//! past `n/8` peers or a patched peer outgrows the level stride).

use pgrid_keys::{BitPath, PathArena, RankBits};
use pgrid_net::PeerId;

use crate::PGrid;

/// Sentinel in `patch_of`: the peer is answered from the base arrays.
const UNPATCHED: u32 = u32::MAX;

/// A frozen succinct snapshot of every peer's path and reference table.
///
/// Build one with [`CompactRoutingTable::build`], keep it warm across
/// mutations with [`CompactRoutingTable::refresh`], and let readers fall
/// back to the live structures whenever [`CompactRoutingTable::is_fresh`]
/// says the snapshot lags the grid (see `PGrid::search_batch`).
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
    /// Per peer: index into the patch overlay, or [`UNPATCHED`].
    patch_of: Vec<u32>,
    /// Patched paths (one per patch segment).
    patch_paths: Vec<BitPath>,
    /// Per patch segment, `stride + 1` offsets into `patch_refs`:
    /// `[base, end_of_level_1, .., end_of_level_stride]`.
    patch_ends: Vec<u32>,
    /// Reference storage for patched peers.
    patch_refs: Vec<PeerId>,
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
        let mut refs = Vec::new();
        let mut slice_ends = Vec::new();
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
            patch_of: vec![UNPATCHED; n],
            patch_paths: Vec::new(),
            patch_ends: Vec::new(),
            patch_refs: Vec::new(),
        }
    }

    /// `true` when the snapshot still reproduces `grid` exactly.
    pub fn is_fresh(&self, grid: &PGrid) -> bool {
        self.built_epoch == grid.epoch() && self.n == grid.len()
    }

    /// The grid epoch this snapshot currently mirrors.
    pub fn built_epoch(&self) -> u64 {
        self.built_epoch
    }

    /// Re-freezes every peer mutated since the last build/refresh.
    ///
    /// Dirty peers (per-peer epoch newer than [`Self::built_epoch`]) are
    /// copied into a patch overlay; when the overlay would exceed `n / 8`
    /// segments — or a patched peer needs more levels than the frozen
    /// stride — the whole snapshot is rebuilt instead, resetting the
    /// overlay. Either way the snapshot is fresh on return.
    pub fn refresh(&mut self, grid: &PGrid) {
        if self.is_fresh(grid) {
            return;
        }
        if self.n != grid.len() {
            *self = Self::build(grid);
            return;
        }
        let mut dirty = 0usize;
        let mut overflow = false;
        for i in 0..self.n {
            if grid.peer_epoch(PeerId::from_index(i)) > self.built_epoch {
                dirty += 1;
                overflow |= grid.peer(PeerId::from_index(i)).routing().depth() > self.stride;
            }
        }
        let budget = (self.n / 8).max(8);
        if overflow || self.patch_paths.len() + dirty > budget {
            *self = Self::build(grid);
            return;
        }
        for i in 0..self.n {
            let id = PeerId::from_index(i);
            if grid.peer_epoch(id) > self.built_epoch {
                self.patch(grid, id);
            }
        }
        self.built_epoch = grid.epoch();
    }

    /// Appends a fresh patch segment for `id` (superseding any previous
    /// one; stale segments count against the rebuild budget).
    fn patch(&mut self, grid: &PGrid, id: PeerId) {
        let peer = grid.peer(id);
        debug_assert!(peer.routing().depth() <= self.stride);
        let seg = self.patch_paths.len();
        self.patch_paths.push(peer.path());
        self.patch_ends.push(self.patch_refs.len() as u32);
        for level in 1..=self.stride {
            self.patch_refs
                .extend_from_slice(peer.routing().level(level).as_slice());
            self.patch_ends.push(self.patch_refs.len() as u32);
        }
        self.patch_of[id.index()] = seg as u32;
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
        let i = id.index();
        match self.patch_of[i] {
            UNPATCHED => self.paths.get(i),
            seg => self.patch_paths[seg as usize],
        }
    }

    /// The frozen reference slice of `id` at `level` — equal in content
    /// *and order* to `grid.peer(id).routing().level(level).as_slice()` as
    /// of the snapshot epoch. Out-of-range levels yield the empty slice,
    /// mirroring the live table.
    pub fn level_refs(&self, id: PeerId, level: usize) -> &[PeerId] {
        if level == 0 || level > self.stride {
            return &[];
        }
        let i = id.index();
        match self.patch_of[i] {
            UNPATCHED => {
                let slot = i * self.stride + level - 1;
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
            seg => {
                let seg = &self.patch_ends[seg as usize * (self.stride + 1)..][..self.stride + 1];
                &self.patch_refs[seg[level - 1] as usize..seg[level] as usize]
            }
        }
    }

    /// Approximate heap footprint of the snapshot in bytes.
    pub fn bytes(&self) -> usize {
        self.paths.bytes()
            + self.occupancy.bytes()
            + self.slice_ends.len() * 4
            + self.refs.len() * 4
            + self.patch_of.len() * 4
            + self.patch_paths.len() * std::mem::size_of::<BitPath>()
            + self.patch_ends.len() * 4
            + self.patch_refs.len() * 4
    }

    /// Number of live patch segments ever appended since the last full
    /// build (includes superseded segments; diagnostics/tests only).
    pub fn patch_segments(&self) -> usize {
        self.patch_paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RefSet;
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
        g.peer_mut(PeerId(0))
            .routing_mut()
            .set_level(1, RefSet::from_ids([PeerId(2), PeerId(3), PeerId(5)]));
        g.peer_mut(PeerId(0))
            .routing_mut()
            .set_level(2, RefSet::singleton(PeerId(1)));
        g.peer_mut(PeerId(2))
            .routing_mut()
            .set_level(2, RefSet::singleton(PeerId(3)));
        g.peer_mut(PeerId(4))
            .routing_mut()
            .set_level(1, RefSet::from_ids([PeerId(3), PeerId(2)]));
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
    fn mutations_stale_the_table_and_refresh_repairs_it() {
        let mut g = grid();
        let mut table = CompactRoutingTable::build(&g);

        g.extend_peer_path(PeerId(6), 1);
        g.peer_mut(PeerId(6))
            .routing_mut()
            .set_level(1, RefSet::singleton(PeerId(4)));
        assert!(!table.is_fresh(&g), "mutation must invalidate the snapshot");

        table.refresh(&g);
        assert!(table.is_fresh(&g));
        assert_eq!(table.patch_segments(), 1, "incremental patch, not rebuild");
        assert_mirrors(&table, &g);

        // Re-patching the same peer supersedes the old segment.
        g.peer_mut(PeerId(6))
            .routing_mut()
            .set_level(1, RefSet::from_ids([PeerId(5), PeerId(4)]));
        table.refresh(&g);
        assert_mirrors(&table, &g);
    }

    #[test]
    fn heavy_churn_triggers_a_full_rebuild() {
        // A community large enough that its patch budget is n / 8 (the
        // budget has a floor of 8, which an 8-peer grid can never exceed).
        let mut g = PGrid::new(
            128,
            PGridConfig {
                maxl: 3,
                refmax: 4,
                ..PGridConfig::default()
            },
        );
        for i in 0..64 {
            g.extend_peer_path(PeerId(i), (i % 2) as u8);
        }
        let mut table = CompactRoutingTable::build(&g);
        // Dirty a quarter of the community: well past the n/8 budget.
        for i in 0..32 {
            let _ = g.peer_mut(PeerId(i));
        }
        table.refresh(&g);
        assert!(table.is_fresh(&g));
        assert_eq!(table.patch_segments(), 0, "rebuild resets the overlay");
        assert_mirrors(&table, &g);
    }

    #[test]
    fn refresh_on_a_fresh_table_is_a_no_op() {
        let g = grid();
        let mut table = CompactRoutingTable::build(&g);
        let epoch = table.built_epoch();
        table.refresh(&g);
        assert_eq!(table.built_epoch(), epoch);
        assert_eq!(table.patch_segments(), 0);
    }
}
