//! The in-RAM backend: the ordered maps `LocalStore` has always used.

use std::collections::BTreeMap;

use pgrid_keys::BitPath;

use crate::backend::{BackendKind, StorageBackend, StoreError};
use crate::trie::KeyIds;
use crate::{DataItem, ItemId, Version};

/// Items in a `BTreeMap` by id plus a secondary ordered key index.
///
/// Fastest of the backends and the determinism reference the others are
/// tested against; nothing survives a restart (`flush` is a no-op).
#[derive(Clone, Debug, Default)]
pub struct MemoryBackend {
    items: BTreeMap<ItemId, DataItem>,
    by_key: KeyIds,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }

    /// Borrowing lookup — only the memory backend can hand out references,
    /// so this lives on the concrete type, not the trait.
    pub fn get_ref(&self, id: ItemId) -> Option<&DataItem> {
        self.items.get(&id)
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn contains(&self, id: ItemId) -> bool {
        self.items.contains_key(&id)
    }

    fn get(&self, id: ItemId) -> Option<DataItem> {
        self.items.get(&id).cloned()
    }

    fn put(&mut self, item: DataItem) -> Option<DataItem> {
        // Hot path: the item moves straight into the map; only its Copy id
        // and key are captured for the secondary index.
        let (id, key) = (item.id, item.key);
        let prev = self.items.insert(id, item);
        self.by_key.link(prev.as_ref().map(|p| p.key), key, id);
        prev
    }

    fn remove(&mut self, id: ItemId) -> Option<DataItem> {
        let item = self.items.remove(&id)?;
        self.by_key.unlink(item.key, id);
        Some(item)
    }

    fn bump_version(&mut self, id: ItemId) -> Option<Version> {
        self.items.get_mut(&id).map(DataItem::bump)
    }

    fn apply_version(&mut self, id: ItemId, version: Version) -> bool {
        match self.items.get_mut(&id) {
            Some(item) if version > item.version => {
                item.version = version;
                true
            }
            _ => false,
        }
    }

    fn for_each_under(&self, path: &BitPath, f: &mut dyn FnMut(DataItem)) {
        for id in self.by_key.under(path) {
            if let Some(item) = self.items.get(&id) {
                f(item.clone());
            }
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(DataItem)) {
        for item in self.items.values() {
            f(item.clone());
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn resident_items(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u64, key: &str) -> DataItem {
        DataItem::new(ItemId(id), format!("n{id}"), BitPath::from_str_lossy(key))
    }

    #[test]
    fn replacing_with_same_key_keeps_index_entry() {
        let mut b = MemoryBackend::new();
        b.put(item(1, "0101"));
        let prev = b.put(item(1, "0101"));
        assert_eq!(prev.unwrap().id, ItemId(1));
        let mut under = Vec::new();
        b.for_each_under(&BitPath::from_str_lossy("01"), &mut |i| under.push(i.id));
        assert_eq!(under, vec![ItemId(1)]);
    }

    #[test]
    fn replacing_with_new_key_moves_index_entry() {
        let mut b = MemoryBackend::new();
        b.put(item(1, "0000"));
        b.put(item(1, "1111"));
        let mut old = 0;
        b.for_each_under(&BitPath::from_str_lossy("0"), &mut |_| old += 1);
        assert_eq!(old, 0);
        let mut new = 0;
        b.for_each_under(&BitPath::from_str_lossy("1"), &mut |_| new += 1);
        assert_eq!(new, 1);
    }

    #[test]
    fn scans_order_by_key_then_id() {
        let mut b = MemoryBackend::new();
        b.put(item(5, "0101"));
        b.put(item(2, "0101"));
        b.put(item(9, "0100"));
        let mut seen = Vec::new();
        b.for_each_under(&BitPath::from_str_lossy("01"), &mut |i| seen.push(i.id.0));
        assert_eq!(seen, vec![9, 2, 5]);
        let mut all = Vec::new();
        b.for_each(&mut |i| all.push(i.id.0));
        assert_eq!(all, vec![2, 5, 9]);
    }
}
