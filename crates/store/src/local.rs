//! The set of items a peer hosts, generic over physical storage.

use pgrid_keys::{BitPath, Key};

use crate::backend::{BackendKind, StorageBackend, StoreError};
use crate::{DataItem, ItemId, MemoryBackend, Version};

/// The data items physically hosted by one peer.
///
/// ```
/// use pgrid_keys::BitPath;
/// use pgrid_store::{DataItem, ItemId, LocalStore, Version};
///
/// let mut store = LocalStore::new();
/// store.insert(DataItem::new(ItemId(1), "a.mp3", "0101".parse().unwrap()));
/// store.insert(DataItem::new(ItemId(2), "b.mp3", "0110".parse().unwrap()));
///
/// assert_eq!(store.items_under(&"01".parse().unwrap()).len(), 2);
/// assert_eq!(store.bump_version(ItemId(1)), Some(Version(1)));
/// ```
///
/// Hosting is independent of P-Grid responsibility: any peer may host any
/// item (it is the *index references* that follow the trie paths). Where
/// the items physically live is the backend's business — in RAM by default
/// ([`MemoryBackend`]), or on disk via the other
/// [`StorageBackend`] implementations — and every backend answers the
/// "which of my items fall under path `p`" scan the construction algorithm
/// uses in the same canonical `(key, id)` order.
#[derive(Clone, Debug, Default)]
pub struct LocalStore<B: StorageBackend = MemoryBackend> {
    backend: B,
}

impl LocalStore<MemoryBackend> {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        LocalStore::default()
    }
}

impl<B: StorageBackend> LocalStore<B> {
    /// Wraps an already-opened backend (possibly holding recovered items).
    pub fn with_backend(backend: B) -> Self {
        LocalStore { backend }
    }

    /// The physical representation in use.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Read access to the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Write access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Number of hosted items.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// `true` when the peer hosts nothing.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// `true` when an item with this id is hosted.
    pub fn contains(&self, id: ItemId) -> bool {
        self.backend.contains(id)
    }

    /// Inserts (or replaces) an item. Returns the previous item with the same
    /// id, if any.
    pub fn insert(&mut self, item: DataItem) -> Option<DataItem> {
        self.backend.put(item)
    }

    /// Removes an item by id.
    pub fn remove(&mut self, id: ItemId) -> Option<DataItem> {
        self.backend.remove(id)
    }

    /// Looks up an item by id.
    pub fn get(&self, id: ItemId) -> Option<DataItem> {
        self.backend.get(id)
    }

    /// Bumps the version of an item, returning the new version.
    pub fn bump_version(&mut self, id: ItemId) -> Option<Version> {
        self.backend.bump_version(id)
    }

    /// Overwrites the stored version (replica applying a propagated update).
    pub fn apply_version(&mut self, id: ItemId, version: Version) -> bool {
        self.backend.apply_version(id, version)
    }

    /// All items whose key matches `key` exactly, id ascending.
    pub fn items_with_key(&self, key: &Key) -> Vec<DataItem> {
        let mut out = Vec::new();
        self.backend.for_each_under(key, &mut |item| {
            if item.key == *key {
                out.push(item);
            }
        });
        out
    }

    /// All items whose key has `path` as a prefix — the items a peer
    /// responsible for `path` must index. Ordered by `(key, id)` ascending.
    pub fn items_under(&self, path: &BitPath) -> Vec<DataItem> {
        let mut out = Vec::new();
        self.backend
            .for_each_under(path, &mut |item| out.push(item));
        out
    }

    /// Visits items under `path` without materializing them all.
    pub fn for_each_under(&self, path: &BitPath, f: &mut dyn FnMut(DataItem)) {
        self.backend.for_each_under(path, f);
    }

    /// Visits every hosted item, id ascending.
    pub fn for_each(&self, f: &mut dyn FnMut(DataItem)) {
        self.backend.for_each(f);
    }

    /// Makes every completed mutation durable (no-op for memory).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.backend.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_keys::BitPath;

    fn item(id: u64, key: &str) -> DataItem {
        DataItem::new(ItemId(id), format!("n{id}"), BitPath::from_str_lossy(key))
    }

    #[test]
    fn insert_get_remove() {
        let mut s = LocalStore::new();
        assert!(s.is_empty());
        s.insert(item(1, "0101"));
        s.insert(item(2, "0101"));
        s.insert(item(3, "1100"));
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(ItemId(2)).unwrap().name, "n2");
        let removed = s.remove(ItemId(2)).unwrap();
        assert_eq!(removed.id, ItemId(2));
        assert_eq!(s.len(), 2);
        assert!(s.get(ItemId(2)).is_none());
        assert!(s.remove(ItemId(2)).is_none());
    }

    #[test]
    fn replacing_item_updates_key_index() {
        let mut s = LocalStore::new();
        s.insert(item(1, "0000"));
        let prev = s.insert(item(1, "1111"));
        assert_eq!(prev.unwrap().key, BitPath::from_str_lossy("0000"));
        assert_eq!(s.items_with_key(&BitPath::from_str_lossy("0000")).len(), 0);
        assert_eq!(s.items_with_key(&BitPath::from_str_lossy("1111")).len(), 1);
    }

    #[test]
    fn key_lookup_is_exact_not_prefix() {
        let mut s = LocalStore::new();
        s.insert(item(1, "0101"));
        s.insert(item(2, "0101"));
        s.insert(item(3, "01011"));
        s.insert(item(4, "1100"));
        let ids: Vec<ItemId> = s
            .items_with_key(&BitPath::from_str_lossy("0101"))
            .iter()
            .map(|i| i.id)
            .collect();
        assert_eq!(ids, vec![ItemId(1), ItemId(2)]);
    }

    #[test]
    fn items_under_prefix() {
        let mut s = LocalStore::new();
        s.insert(item(1, "0001"));
        s.insert(item(2, "0010"));
        s.insert(item(3, "0100"));
        s.insert(item(4, "1000"));
        let under_00: Vec<ItemId> = s
            .items_under(&BitPath::from_str_lossy("00"))
            .iter()
            .map(|i| i.id)
            .collect();
        assert_eq!(under_00, vec![ItemId(1), ItemId(2)]);
        let under_root = s.items_under(&BitPath::EMPTY);
        assert_eq!(under_root.len(), 4);
        assert_eq!(s.items_under(&BitPath::from_str_lossy("11")).len(), 0);
    }

    #[test]
    fn version_management() {
        let mut s = LocalStore::new();
        s.insert(item(1, "01"));
        assert_eq!(s.bump_version(ItemId(1)), Some(Version(1)));
        assert_eq!(s.get(ItemId(1)).unwrap().version, Version(1));
        // apply_version only moves forward
        assert!(s.apply_version(ItemId(1), Version(5)));
        assert!(!s.apply_version(ItemId(1), Version(3)));
        assert_eq!(s.get(ItemId(1)).unwrap().version, Version(5));
        assert_eq!(s.bump_version(ItemId(9)), None);
        assert!(!s.apply_version(ItemId(9), Version(1)));
    }

    #[test]
    fn generic_over_disk_backends() {
        let dir = std::env::temp_dir().join(format!("pgrid-local-any-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = crate::StorageSpec::of_kind(crate::BackendKind::Log, &dir);
        let mut s = LocalStore::with_backend(spec.open_for(0).unwrap());
        s.insert(item(1, "0101"));
        s.insert(item(2, "0110"));
        assert_eq!(s.backend_kind(), crate::BackendKind::Log);
        assert_eq!(s.items_under(&BitPath::from_str_lossy("01")).len(), 2);
        s.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
