//! The grid container: all peers of the simulated community.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use pgrid_keys::{BitPath, Key};
use pgrid_net::{draw, PeerId};

use crate::{Ctx, IndexEntry, PGridConfig, Peer, RoutingTable};

/// The whole peer community and its access structure.
///
/// `PGrid` owns every [`Peer`]; the protocol algorithms (exchange, search,
/// update) are methods that touch peers only through the id-based indirection
/// a real network would impose, and count every inter-peer interaction via
/// [`Ctx`].
#[derive(Clone, Debug)]
pub struct PGrid {
    config: PGridConfig,
    peers: Vec<Peer>,
    /// Running sum of all path lengths, so the construction loop can check
    /// the paper's convergence threshold in O(1).
    path_len_sum: u64,
    /// Routing epoch: bumped whenever a path or a reference set may have
    /// changed (conservatively — a routing borrow counts as a write).
    /// Index, buddy and store writes leave it alone. A
    /// [`CompactRoutingTable`](crate::CompactRoutingTable) a caller holds
    /// compares against it to detect staleness without hashing any state.
    epoch: u64,
    /// [`PGrid::replica_groups`], computed on first use and dropped whenever
    /// a path changes — at the same three chokepoints that keep
    /// `path_len_sum` honest. Independent of `epoch`, which also moves on
    /// reference writes that leave every path alone.
    by_path: OnceLock<BTreeMap<BitPath, Vec<PeerId>>>,
}

impl PGrid {
    /// Creates a community of `n` fresh peers, all at the root path.
    ///
    /// # Panics
    /// If the configuration is invalid or `n == 0`.
    pub fn new(n: usize, config: PGridConfig) -> Self {
        config.validate().expect("invalid P-Grid configuration");
        assert!(n > 0, "a P-Grid needs at least one peer");
        PGrid {
            config,
            peers: PeerId::all(n).map(Peer::new).collect(),
            path_len_sum: 0,
            epoch: 0,
            by_path: OnceLock::new(),
        }
    }

    /// Creates a community of `n` fresh peers whose hosted items live in
    /// the backend `storage` opens for each peer slot (the grid analogue of
    /// [`Peer::with_storage`]). Backend choice draws no randomness, so a
    /// grid built here behaves byte-identically to [`PGrid::new`] under the
    /// same seed.
    ///
    /// # Errors
    /// Propagates backend open/recovery failures.
    ///
    /// # Panics
    /// If the configuration is invalid or `n == 0`.
    pub fn with_storage(
        n: usize,
        config: PGridConfig,
        storage: &pgrid_store::StorageSpec,
    ) -> Result<Self, pgrid_store::StoreError> {
        config.validate().expect("invalid P-Grid configuration");
        assert!(n > 0, "a P-Grid needs at least one peer");
        let peers = PeerId::all(n)
            .enumerate()
            .map(|(slot, id)| Ok(Peer::with_storage(id, storage.open_for(slot)?)))
            .collect::<Result<Vec<_>, pgrid_store::StoreError>>()?;
        Ok(PGrid {
            config,
            peers,
            path_len_sum: 0,
            epoch: 0,
            by_path: OnceLock::new(),
        })
    }

    /// The routing epoch. Strictly increases whenever a path or a
    /// reference set may have changed; equal epochs guarantee identical
    /// routing state, so a table built at `epoch()` stays valid until it
    /// moves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records a (potential) routing write: moves the epoch.
    fn mark_routing(&mut self) {
        self.epoch += 1;
    }

    /// Trims every peer's routing buffer to its length. Leaves the epoch
    /// alone: the references themselves do not change.
    pub(crate) fn trim_routing(&mut self) {
        self.peers
            .iter_mut()
            .for_each(|p| p.routing_mut().shrink_to_fit());
    }

    /// The configuration.
    pub fn config(&self) -> &PGridConfig {
        &self.config
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when the community is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Read access to a peer.
    pub fn peer(&self, id: PeerId) -> &Peer {
        &self.peers[id.index()]
    }

    /// Mutable access to a peer's index, buddies and store. [`Peer`] has
    /// no public routing write, so this leaves [`PGrid::epoch`] alone;
    /// crate code that writes a path or a reference set goes through
    /// `PGrid::routing_mut` or the path chokepoints.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        &mut self.peers[id.index()]
    }

    /// Mutable access to one peer's reference sets, marking a routing
    /// write.
    pub(crate) fn routing_mut(&mut self, id: PeerId) -> &mut RoutingTable {
        self.mark_routing();
        self.peers[id.index()].routing_mut()
    }

    /// Mutable access to two distinct peers at once.
    ///
    /// # Panics
    /// If `a == b`.
    pub(crate) fn pair_mut(&mut self, a: PeerId, b: PeerId) -> (&mut Peer, &mut Peer) {
        let (i, j) = (a.index(), b.index());
        assert_ne!(i, j, "pair_mut requires distinct peers");
        self.mark_routing();
        if i < j {
            let (lo, hi) = self.peers.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = self.peers.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        }
    }

    /// Extends a peer's path, maintaining the running length sum.
    pub(crate) fn extend_peer_path(&mut self, id: PeerId, bit: u8) {
        self.mark_routing();
        self.peers[id.index()].extend_path(bit);
        self.path_len_sum += 1;
        self.by_path.take();
    }

    /// Accounts for `n` path bits an exchange added by extending the
    /// [`Peer`] paths of a [`PGrid::pair_mut`] pair directly.
    pub(crate) fn add_path_bits(&mut self, n: u64) {
        self.path_len_sum += n;
        if n > 0 {
            self.by_path.take();
        }
    }

    /// **Fault injection**: replaces a peer's path wholesale, keeping the
    /// running length sum honest. Normal operation only ever *grows* paths;
    /// this exists so corruption experiments (and the stabilizer's own path
    /// re-derivation) can model arbitrary state damage.
    pub fn overwrite_peer_path(&mut self, id: PeerId, path: BitPath) {
        self.mark_routing();
        let old = self.peers[id.index()].path().len() as u64;
        self.peers[id.index()].set_path(path);
        self.path_len_sum = self.path_len_sum - old + path.len() as u64;
        self.by_path.take();
    }

    /// **Fault injection**: replaces one level's reference set wholesale
    /// (duplicates are dropped, no bound is applied). Corruption
    /// experiments use this to plant wrong references and snapshot
    /// restore to install captured ones; nothing in the protocols calls it.
    pub fn overwrite_peer_refs(&mut self, id: PeerId, level: usize, refs: &[PeerId]) {
        let set: Vec<PeerId> = (0..refs.len())
            .filter_map(|i| (!refs[..i].contains(&refs[i])).then_some(refs[i]))
            .collect();
        self.routing_mut(id).set_level(level, &set);
    }

    /// Iterates over all peers.
    pub fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.peers.iter()
    }

    /// Average path length over the community — the paper's convergence
    /// measure `(1/N) Σ length(path(a))`.
    pub fn avg_path_len(&self) -> f64 {
        self.path_len_sum as f64 / self.peers.len() as f64
    }

    /// Draws an unordered random pair of distinct peers (a "meeting").
    pub fn random_pair(&self, ctx: &mut Ctx<'_>) -> (PeerId, PeerId) {
        let n = self.peers.len();
        assert!(n >= 2, "meetings need at least two peers");
        let i = draw::below(ctx.rng, n);
        let mut j = draw::below(ctx.rng, n - 1);
        if j >= i {
            j += 1;
        }
        (PeerId::from_index(i), PeerId::from_index(j))
    }

    /// A uniformly random peer (e.g. a search entry point).
    pub fn random_peer(&self, ctx: &mut Ctx<'_>) -> PeerId {
        PeerId::from_index(draw::below(ctx.rng, self.peers.len()))
    }

    /// Groups peers by their exact path. The multiplicities are the
    /// *replication factors* of Fig. 4.
    pub fn replica_groups(&self) -> BTreeMap<BitPath, Vec<PeerId>> {
        let mut groups: BTreeMap<BitPath, Vec<PeerId>> = BTreeMap::new();
        for p in &self.peers {
            groups.entry(p.path()).or_default().push(p.id());
        }
        groups
    }

    /// [`PGrid::replica_groups`] as of the last path change, cached.
    pub(crate) fn peers_by_path(&self) -> &BTreeMap<BitPath, Vec<PeerId>> {
        self.by_path.get_or_init(|| self.replica_groups())
    }

    /// [`PGrid::peers_by_path`] by value, for a caller about to change paths:
    /// moves the cached map out when there is one.
    pub(crate) fn take_peers_by_path(&mut self) -> BTreeMap<BitPath, Vec<PeerId>> {
        self.by_path.take().unwrap_or_else(|| self.replica_groups())
    }

    /// Ground truth: every peer responsible for `key` (the replicas an update
    /// must reach), in ascending id order. Used by experiments to compute
    /// recall; the protocols never consult it.
    pub fn replicas_of(&self, key: &Key) -> Vec<PeerId> {
        let groups = self.peers_by_path();
        // Paths that are proper prefixes of the key, then the key's subtree.
        let mut out: Vec<PeerId> = (0..key.len())
            .filter_map(|l| groups.get(&key.prefix(l)))
            .chain(pgrid_store::prefix_range(groups, key).map(|(_, members)| members))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// Oracle insertion: installs an index entry directly at every
    /// responsible peer. Experiments use this to set up a fully consistent
    /// index without paying (or measuring) insertion traffic.
    pub fn seed_index(&mut self, key: Key, entry: IndexEntry) {
        for id in self.replicas_of(&key) {
            self.peer_mut(id).index_insert(key, entry);
        }
    }

    /// Verifies the structural invariants of the access structure:
    ///
    /// 1. every path is at most `maxl` bits;
    /// 2. every reference set is at most `refmax` strong;
    /// 3. no peer references itself;
    /// 4. the defining reference property (§2): `r ∈ refs(i, a)` implies
    ///    `prefix(i-1, peer(r)) = prefix(i-1, a)` and the bits at position
    ///    `i` differ;
    /// 5. reference levels never exceed the peer's own path length;
    /// 6. the running path-length sum matches reality;
    /// 7. the cached by-path grouping, when present, matches reality.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut sum = 0u64;
        for a in &self.peers {
            let path = a.path();
            sum += path.len() as u64;
            if path.len() > self.config.maxl {
                return Err(format!("{}: path {} exceeds maxl", a.id(), path));
            }
            for (level, refs) in a.routing().iter() {
                if level > path.len() {
                    if !refs.is_empty() {
                        return Err(format!(
                            "{}: non-empty refs at level {level} beyond path length {}",
                            a.id(),
                            path.len()
                        ));
                    }
                    continue;
                }
                if refs.len() > self.config.refmax {
                    return Err(format!(
                        "{}: {} refs at level {level} exceed refmax {}",
                        a.id(),
                        refs.len(),
                        self.config.refmax
                    ));
                }
                for &r in refs.as_slice() {
                    if r == a.id() {
                        return Err(format!("{}: self-reference at level {level}", a.id()));
                    }
                    let other = self.peer(r).path();
                    if other.len() < level {
                        return Err(format!(
                            "{}: ref {r} at level {level} has too short a path {other}",
                            a.id()
                        ));
                    }
                    if other.prefix(level - 1) != path.prefix(level - 1) {
                        return Err(format!(
                            "{}: ref {r} at level {level} disagrees on the shared prefix",
                            a.id()
                        ));
                    }
                    if other.bit(level - 1) == path.bit(level - 1) {
                        return Err(format!(
                            "{}: ref {r} at level {level} is on the same side",
                            a.id()
                        ));
                    }
                }
            }
        }
        if sum != self.path_len_sum {
            return Err(format!(
                "path length sum drifted: cached {} actual {sum}",
                self.path_len_sum
            ));
        }
        if self
            .by_path
            .get()
            .is_some_and(|cached| *cached != self.replica_groups())
        {
            return Err("cached replica groups are stale: a path changed unseen".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pgrid_net::{AlwaysOnline, NetStats};
    use pgrid_store::{ItemId, Version};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `replicas_of` against the definition it replaced — a scan of every
    /// peer — for each peer's own path, the path one bit shorter, a 3-bit
    /// extension of it and a full-length key below it, plus the root.
    pub(crate) fn assert_replicas_match_scan(g: &PGrid) {
        assert_eq!(*g.peers_by_path(), g.replica_groups());
        let mut keys = vec![BitPath::EMPTY];
        for p in g.peers() {
            let path = p.path();
            let deeper = path.append(&BitPath::from_value(p.id().0 as u128 % 8, 3));
            let shorter = path.prefix(path.len().saturating_sub(1));
            keys.extend([
                path,
                shorter,
                deeper,
                deeper.append(&BitPath::from_raw(!0, 40)),
            ]);
        }
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let scan: Vec<PeerId> = g
                .peers()
                .filter(|p| p.responsible_for(&key))
                .map(Peer::id)
                .collect();
            assert_eq!(g.replicas_of(&key), scan, "replicas_of({key})");
        }
    }

    fn small_grid() -> PGrid {
        PGrid::new(
            8,
            PGridConfig {
                maxl: 3,
                ..PGridConfig::default()
            },
        )
    }

    #[test]
    fn fresh_grid_state() {
        let g = small_grid();
        assert_eq!(g.len(), 8);
        assert!(!g.is_empty());
        assert_eq!(g.avg_path_len(), 0.0);
        assert!(g.check_invariants().is_ok());
        assert_eq!(g.replica_groups().len(), 1, "all peers share the root path");
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_peers_rejected() {
        PGrid::new(0, PGridConfig::default());
    }

    #[test]
    fn pair_mut_returns_requested_order() {
        let mut g = small_grid();
        let (a, b) = g.pair_mut(PeerId(5), PeerId(2));
        assert_eq!(a.id(), PeerId(5));
        assert_eq!(b.id(), PeerId(2));
        let (a, b) = g.pair_mut(PeerId(2), PeerId(5));
        assert_eq!(a.id(), PeerId(2));
        assert_eq!(b.id(), PeerId(5));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_mut_rejects_same_peer() {
        let mut g = small_grid();
        g.pair_mut(PeerId(1), PeerId(1));
    }

    #[test]
    fn pair_mut_mutations_persist_in_both_orderings() {
        // Both split_at_mut arms (i < j and i > j) must hand out references
        // into the real peer storage, not copies.
        let mut g = small_grid();
        {
            let (a, b) = g.pair_mut(PeerId(1), PeerId(4)); // i < j arm
            a.extend_path(0);
            b.extend_path(1);
        }
        assert_eq!(g.peer(PeerId(1)).path().len(), 1);
        assert_eq!(g.peer(PeerId(1)).path().bit(0), 0);
        assert_eq!(g.peer(PeerId(4)).path().len(), 1);
        assert_eq!(g.peer(PeerId(4)).path().bit(0), 1);
        {
            let (a, b) = g.pair_mut(PeerId(4), PeerId(1)); // i > j arm
            a.extend_path(0);
            b.extend_path(1);
        }
        assert_eq!(g.peer(PeerId(4)).path().len(), 2);
        assert_eq!(g.peer(PeerId(4)).path().bit(1), 0);
        assert_eq!(g.peer(PeerId(1)).path().len(), 2);
        assert_eq!(g.peer(PeerId(1)).path().bit(1), 1);
    }

    #[test]
    fn random_pair_is_distinct_and_uniformish() {
        let g = small_grid();
        let mut rng = StdRng::seed_from_u64(8);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut seen = [0u32; 8];
        for _ in 0..4000 {
            let (i, j) = g.random_pair(&mut ctx);
            assert_ne!(i, j);
            seen[i.index()] += 1;
            seen[j.index()] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!((800..1200).contains(&c), "peer {i} appeared {c} times");
        }
    }

    #[test]
    fn extend_updates_average() {
        let mut g = small_grid();
        g.extend_peer_path(PeerId(0), 1);
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 1);
        assert!((g.avg_path_len() - 3.0 / 8.0).abs() < 1e-12);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn seed_index_reaches_all_responsible_peers() {
        let mut g = small_grid();
        // Specialize two peers to "01", one to "00".
        for bit_pair in [
            (PeerId(0), [0, 1]),
            (PeerId(1), [0, 1]),
            (PeerId(2), [0, 0]),
        ] {
            g.extend_peer_path(bit_pair.0, bit_pair.1[0]);
            g.extend_peer_path(bit_pair.0, bit_pair.1[1]);
        }
        let key = BitPath::from_str_lossy("011");
        let entry = IndexEntry {
            item: ItemId(1),
            holder: PeerId(7),
            version: Version(0),
        };
        g.seed_index(key, entry);
        // Responsible: peers 0, 1 (path 01 ⊑ 011) and the five root peers.
        assert_eq!(g.peer(PeerId(0)).index_lookup(&key).len(), 1);
        assert_eq!(g.peer(PeerId(1)).index_lookup(&key).len(), 1);
        assert_eq!(g.peer(PeerId(2)).index_lookup(&key).len(), 0);
        assert_eq!(g.peer(PeerId(3)).index_lookup(&key).len(), 1);
        let truth = g.replicas_of(&key);
        assert!(truth.contains(&PeerId(0)) && !truth.contains(&PeerId(2)));
    }

    #[test]
    fn replicas_of_tracks_every_path_change() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = PGrid::new(
            96,
            PGridConfig {
                maxl: 6,
                refmax: 3,
                ..PGridConfig::default()
            },
        );
        assert_replicas_match_scan(&g);
        // A half-built grid: shallow and deep paths coexist, and the
        // meetings below still change paths under a warm cache.
        let opts = crate::BuildOptions {
            threshold_fraction: 0.5,
            ..crate::BuildOptions::default()
        };
        g.build(&opts, &mut ctx);
        assert_replicas_match_scan(&g);
        let before = g.path_len_sum;
        for _ in 0..400 {
            let (a, b) = g.random_pair(&mut ctx);
            g.exchange(a, b, &mut ctx);
        }
        assert!(g.path_len_sum > before, "the meetings must move paths");
        assert_replicas_match_scan(&g);
        g.check_invariants().unwrap();

        let victim = PeerId(5);
        let flipped = g.peer(victim).path().with_flipped(0);
        g.overwrite_peer_path(victim, flipped);
        assert_replicas_match_scan(&g);

        // A clone carries the warm cache and must keep it honest on its own.
        let mut copy = g.clone();
        copy.overwrite_peer_path(victim, BitPath::EMPTY);
        assert_replicas_match_scan(&copy);
        assert_replicas_match_scan(&g);
    }

    #[test]
    fn invariant_checker_catches_a_stale_path_cache() {
        let mut g = small_grid();
        g.extend_peer_path(PeerId(0), 0);
        assert_eq!(g.replicas_of(&BitPath::from_str_lossy("1")).len(), 7);
        // A path write that bypasses the three chokepoints.
        g.peer_mut(PeerId(1)).extend_path(1);
        g.path_len_sum += 1;
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn invariant_checker_catches_violations() {
        let mut g = small_grid();
        // Peer 0 takes path "0"; peer 1 takes path "1".
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 1);
        // Valid ref: peer0 level 1 → peer1.
        g.routing_mut(PeerId(0)).set_level(1, &[PeerId(1)]);
        assert!(g.check_invariants().is_ok());
        // Same-side ref: peer1 level 1 → peer1-side peer.
        g.extend_peer_path(PeerId(2), 1);
        g.routing_mut(PeerId(1)).set_level(1, &[PeerId(2)]);
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("same side"), "{err}");
    }

    /// A 32-peer grid after a full `build`.
    fn built_grid(ctx: &mut Ctx<'_>) -> PGrid {
        let mut g = PGrid::new(
            32,
            PGridConfig {
                maxl: 3,
                refmax: 3,
                ..PGridConfig::default()
            },
        );
        g.build(&crate::BuildOptions::default(), ctx);
        g
    }

    /// Footprint gate: after a converged build with `refmax` 20 the
    /// routing buffers hold almost no spare slots beyond the depth word,
    /// the level ends and the references.
    #[test]
    fn converged_build_reserves_no_spare_reference_slots() {
        let refmax = 20;
        let mut g = PGrid::new(
            1024,
            PGridConfig {
                maxl: 6,
                refmax,
                ..PGridConfig::default()
            },
        );
        let mut owned = Ctx::fork_for_task(9, 0, Box::new(AlwaysOnline));
        let report = g.build(&crate::BuildOptions::default(), &mut owned.ctx());
        assert!(report.reached_threshold);
        let (mut used, mut slots) = (0usize, 0usize);
        for p in g.peers() {
            let t = p.routing();
            assert!(t.depth() > 0, "{} never specialized", p.id());
            used += 1 + t.depth() + t.total_refs();
            slots += t.capacity();
        }
        assert!(
            slots as f64 <= 1.02 * used as f64,
            "{slots} slots for {used} depths, ends and references"
        );
    }

    #[test]
    fn epochs_track_routing_writes_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = built_grid(&mut ctx);

        // Reads, index writes and buddy writes leave the routing alone.
        let epoch = g.epoch();
        let _ = g.replica_groups();
        let key = BitPath::from_str_lossy("010");
        let entry = IndexEntry {
            item: ItemId(1),
            holder: PeerId(7),
            version: Version(0),
        };
        g.seed_index(key, entry);
        g.peer_mut(PeerId(0)).index_insert(key, entry);
        g.peer_mut(PeerId(0)).add_buddy(PeerId(1));
        assert_eq!(g.epoch(), epoch);
        g.check_invariants().unwrap();

        // Every routing chokepoint moves the epoch.
        fn assert_marks(g: &mut PGrid, what: &str, write: impl FnOnce(&mut PGrid)) {
            let before = g.epoch();
            write(g);
            assert!(g.epoch() > before, "{what} must move the epoch");
        }
        assert_marks(&mut g, "exchange", |g| {
            g.exchange(PeerId(0), PeerId(1), &mut ctx);
        });
        assert_marks(&mut g, "overwrite_peer_refs", |g| {
            g.overwrite_peer_refs(PeerId(2), 1, &[])
        });
        assert_marks(&mut g, "overwrite_peer_path", |g| {
            g.overwrite_peer_path(PeerId(3), BitPath::EMPTY)
        });
        assert_marks(&mut g, "extend_peer_path", |g| {
            g.extend_peer_path(PeerId(3), 1)
        });
        assert_marks(&mut g, "routing_mut", |g| {
            let _ = g.routing_mut(PeerId(4));
        });
    }

    #[test]
    fn invariant_checker_catches_self_reference() {
        let mut g = small_grid();
        g.extend_peer_path(PeerId(0), 0);
        g.routing_mut(PeerId(0)).set_level(1, &[PeerId(0)]);
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("self-reference"), "{err}");
    }

    #[test]
    fn invariant_checker_catches_short_ref_target() {
        let mut g = small_grid();
        g.extend_peer_path(PeerId(0), 0);
        // Peer 3 still has the empty path — it cannot be referenced at level 1.
        g.routing_mut(PeerId(0)).set_level(1, &[PeerId(3)]);
        let err = g.check_invariants().unwrap_err();
        assert!(err.contains("too short"), "{err}");
    }
}
