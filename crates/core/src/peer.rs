//! Per-peer state.

use std::collections::BTreeSet;
use std::sync::LazyLock;

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_store::{AnyBackend, ItemId, LocalStore, StorageBackend, Version};

use crate::{LeafEntry, LeafIndex, RoutingTable};

/// One entry of a peer's leaf-level index `D ⊆ ADDR × K`: *which peer hosts
/// which item*, plus the version this replica believes is current (§5.2
/// studies exactly the divergence of that belief across replicas).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    /// The referenced item.
    pub item: ItemId,
    /// The peer hosting the item's payload.
    pub holder: PeerId,
    /// The item version this index replica knows about.
    pub version: Version,
}

impl LeafEntry for IndexEntry {
    fn id(&self) -> (u64, PeerId) {
        (self.item.0, self.holder)
    }
    fn version_mut(&mut self) -> &mut u64 {
        &mut self.version.0
    }
}

/// A P-Grid peer: its trie path, its per-level references, its leaf-level
/// data index, its buddy list, and the items it physically hosts.
#[derive(Clone, Debug)]
pub struct Peer {
    id: PeerId,
    path: BitPath,
    routing: RoutingTable,
    /// Leaf-level index: key → entries for items under this peer's path.
    index: LeafIndex<IndexEntry>,
    /// Peers known to share exactly this peer's path (update strategy 2).
    buddies: BTreeSet<PeerId>,
    /// Items this peer physically hosts (independent of responsibility).
    /// The backend decides where they physically live — RAM by default, or
    /// one of the disk formats when constructed via [`Peer::with_storage`].
    /// Boxed: the backend is larger than the rest of the peer together and
    /// a search never reads it, so the peer array a search walks stays half
    /// as large. `None` until a peer on the memory backend first hosts an
    /// item, so a peer that hosts nothing pays nothing for it; a disk
    /// backend is always kept, since it carries its directory.
    store: Option<Box<LocalStore<AnyBackend>>>,
    /// Set when the index may contain entries this peer is no longer
    /// responsible for (a construction-time hand-off found no responsible
    /// partner). Cleared by the anti-entropy step of later exchanges.
    misplaced: bool,
}

impl Peer {
    /// A fresh peer at the root: responsible for the whole key space,
    /// hosting items in RAM. Allocates nothing.
    pub fn new(id: PeerId) -> Self {
        Peer {
            id,
            path: BitPath::EMPTY,
            routing: RoutingTable::new(),
            index: LeafIndex::new(),
            buddies: BTreeSet::new(),
            store: None,
            misplaced: false,
        }
    }

    /// A fresh peer whose hosted items live in `backend`. A backend
    /// recovered from disk may already hold items; they become this peer's
    /// hosted set (see [`Peer::index_hosted_under`] for re-deriving index
    /// entries from them). An empty memory backend is dropped: the peer
    /// makes its own at the first write, as [`Peer::new`]'s does.
    pub fn with_storage(id: PeerId, backend: AnyBackend) -> Self {
        let empty = matches!(&backend, AnyBackend::Memory(m) if m.is_empty());
        Peer {
            store: (!empty).then(|| Box::new(LocalStore::with_backend(backend))),
            ..Peer::new(id)
        }
    }

    /// The peer's identity.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The trie path this peer is responsible for.
    pub fn path(&self) -> BitPath {
        self.path
    }

    /// The routing table (read-only).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The routing table (mutable — used by the exchange algorithm).
    pub(crate) fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Extends the path by one bit. Paths only ever grow, which is what
    /// keeps previously handed-out references permanently valid.
    pub(crate) fn extend_path(&mut self, bit: u8) {
        self.path = self.path.child(bit);
    }

    /// Replaces the path wholesale. Reserved for fault injection and the
    /// stabilizer's path re-derivation — normal protocol operation only
    /// extends paths. Callers go through [`crate::PGrid::overwrite_peer_path`]
    /// so the grid's running length sum stays honest.
    pub(crate) fn set_path(&mut self, path: BitPath) {
        self.path = path;
    }

    /// `true` when this peer must be able to answer queries for `key`.
    pub fn responsible_for(&self, key: &Key) -> bool {
        self.path.responsible_for(key)
    }

    /// Adds `entry` under `key` (idempotent per `(item, holder)` pair; a
    /// newer version overwrites an older one).
    pub fn index_insert(&mut self, key: Key, entry: IndexEntry) {
        self.index.insert(key, entry);
    }

    /// The index entries stored under exactly `key`.
    pub fn index_lookup(&self, key: &Key) -> &[IndexEntry] {
        self.index.lookup(key)
    }

    /// Applies an update: sets the version of `item` under `key` if the
    /// entry exists and the version is newer. Returns whether anything
    /// changed.
    pub fn index_apply_update(&mut self, key: &Key, item: ItemId, version: Version) -> bool {
        self.index.apply_update(key, item.0, version.0)
    }

    /// The whole index (read-only).
    pub fn index(&self) -> &LeafIndex<IndexEntry> {
        &self.index
    }

    /// Mutable index access for construction-time hand-offs.
    pub(crate) fn index_mut(&mut self) -> &mut LeafIndex<IndexEntry> {
        &mut self.index
    }

    /// Records a buddy (a peer sharing exactly this path).
    pub fn add_buddy(&mut self, buddy: PeerId) {
        if buddy != self.id {
            self.buddies.insert(buddy);
        }
    }

    /// Forgets a recorded buddy. Returns whether it was present. Used by
    /// the stabilizer when a buddy's path is found to disagree.
    pub(crate) fn remove_buddy(&mut self, buddy: PeerId) -> bool {
        self.buddies.remove(&buddy)
    }

    /// Known buddies.
    pub fn buddies(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.buddies.iter().copied()
    }

    /// Number of known buddies.
    pub fn buddy_count(&self) -> usize {
        self.buddies.len()
    }

    /// The locally hosted items. A peer that never hosted anything reads
    /// as one shared empty memory store.
    pub fn store(&self) -> &LocalStore<AnyBackend> {
        static EMPTY: LazyLock<LocalStore<AnyBackend>> = LazyLock::new(LocalStore::default);
        self.store.as_deref().unwrap_or(&EMPTY)
    }

    /// Mutable access to the hosted items; a peer without a store gets an
    /// empty memory store here.
    pub fn store_mut(&mut self) -> &mut LocalStore<AnyBackend> {
        self.store.get_or_insert_default()
    }

    /// Re-derives leaf-level index entries for the hosted items that fall
    /// under this peer's own path: the backend's ordered key scan feeds the
    /// trie index directly, so a peer reopening a disk backend re-announces
    /// itself as holder of everything it still physically stores.
    /// Returns how many entries were inserted (or version-upgraded).
    pub fn index_hosted_under(&mut self) -> usize {
        let (holder, index, mut count) = (self.id, &mut self.index, 0);
        let Some(store) = &self.store else {
            return 0;
        };
        store.for_each_under(&self.path, &mut |item| {
            count += 1;
            let entry = IndexEntry {
                item: item.id,
                holder,
                version: item.version,
            };
            index.insert(item.key, entry);
        });
        count
    }

    /// Storage cost — the §6 metric: references for routing plus the
    /// distinct keys of the leaf-level index ("ignoring local indexing
    /// cost"). A key with several holders counts once.
    pub fn storage_cost(&self) -> usize {
        self.routing.total_refs() + self.index.len()
    }

    /// `true` when the index may hold entries outside this peer's
    /// responsibility (pending anti-entropy).
    pub fn has_misplaced(&self) -> bool {
        self.misplaced
    }

    /// Sets or clears the misplaced flag.
    pub(crate) fn set_misplaced(&mut self, value: bool) {
        self.misplaced = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_keys::BitPath;

    fn key(s: &str) -> Key {
        BitPath::from_str_lossy(s)
    }

    fn entry(item: u64, holder: u32, version: u64) -> IndexEntry {
        IndexEntry {
            item: ItemId(item),
            holder: PeerId(holder),
            version: Version(version),
        }
    }

    #[test]
    fn fresh_peer_is_root() {
        let p = Peer::new(PeerId(4));
        assert_eq!(p.id(), PeerId(4));
        assert!(p.path().is_empty());
        assert!(p.responsible_for(&key("0101")));
        assert_eq!(p.storage_cost(), 0);
    }

    #[test]
    fn path_extension_narrows_responsibility() {
        let mut p = Peer::new(PeerId(0));
        p.extend_path(0);
        p.extend_path(1);
        assert_eq!(p.path(), key("01"));
        assert!(p.responsible_for(&key("0110")));
        assert!(!p.responsible_for(&key("0010")));
        assert!(p.responsible_for(&key("0"))); // coarser query overlaps
    }

    #[test]
    fn index_insert_dedups_and_upgrades() {
        let mut p = Peer::new(PeerId(0));
        p.index_insert(key("0101"), entry(1, 9, 0));
        p.index_insert(key("0101"), entry(1, 9, 0)); // duplicate
        assert_eq!(p.index_lookup(&key("0101")).len(), 1);
        p.index_insert(key("0101"), entry(1, 9, 3)); // newer version
        assert_eq!(p.index_lookup(&key("0101"))[0].version, Version(3));
        p.index_insert(key("0101"), entry(1, 9, 2)); // stale — ignored
        assert_eq!(p.index_lookup(&key("0101"))[0].version, Version(3));
        p.index_insert(key("0101"), entry(1, 8, 0)); // same item, other holder
        assert_eq!(p.index_lookup(&key("0101")).len(), 2);
        assert_eq!(p.index_lookup(&key("1111")).len(), 0);
    }

    #[test]
    fn apply_update_bumps_matching_entries() {
        let mut p = Peer::new(PeerId(0));
        p.index_insert(key("01"), entry(1, 9, 0));
        p.index_insert(key("01"), entry(2, 9, 0));
        assert!(p.index_apply_update(&key("01"), ItemId(1), Version(2)));
        assert!(
            !p.index_apply_update(&key("01"), ItemId(1), Version(1)),
            "stale"
        );
        assert!(
            !p.index_apply_update(&key("10"), ItemId(1), Version(9)),
            "absent key"
        );
        let versions: Vec<Version> = p
            .index_lookup(&key("01"))
            .iter()
            .map(|e| e.version)
            .collect();
        assert_eq!(versions, vec![Version(2), Version(0)]);
    }

    #[test]
    fn buddies_exclude_self() {
        let mut p = Peer::new(PeerId(5));
        p.add_buddy(PeerId(5));
        p.add_buddy(PeerId(6));
        p.add_buddy(PeerId(6));
        assert_eq!(p.buddy_count(), 1);
        assert_eq!(p.buddies().collect::<Vec<_>>(), vec![PeerId(6)]);
    }

    #[test]
    fn storage_cost_counts_refs_and_distinct_keys() {
        let mut p = Peer::new(PeerId(0));
        p.index_insert(key("01"), entry(1, 2, 0));
        p.index_insert(key("011"), entry(2, 2, 0));
        assert_eq!(p.storage_cost(), 2);
    }

    #[test]
    fn storage_cost_counts_a_key_with_two_holders_once() {
        let mut p = Peer::new(PeerId(0));
        p.index_insert(key("01"), entry(1, 2, 0));
        p.index_insert(key("01"), entry(1, 3, 0));
        assert_eq!(p.index_lookup(&key("01")).len(), 2);
        assert_eq!(p.storage_cost(), 1);
    }
}
