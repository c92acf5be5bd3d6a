//! The hashmap-on-disk backend: one record file, offsets in RAM.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

use pgrid_keys::{BitPath, Key};

use crate::backend::{BackendKind, StorageBackend, StoreError};
use crate::recfile::{self, Record};
use crate::trie::KeyIds;
use crate::{DataItem, ItemId, Version};

/// Where an item's latest record sits in the file.
#[derive(Clone, Copy, Debug)]
struct Loc {
    offset: u64,
    frame_len: u32,
    key: Key,
    version: Version,
}

/// Items in a single append-only record file; only the offset index (and
/// the ordered key index) stay resident.
///
/// Every mutation appends a fresh record — the file never shrinks and is
/// never compacted (that is [`LogBackend`](crate::LogBackend)'s job). On
/// open the index is rebuilt by a full sequential scan; a torn tail record
/// (crash mid-append) is truncated away, while corruption *followed by*
/// valid records is refused.
#[derive(Debug)]
pub struct HashFileBackend {
    path: PathBuf,
    file: File,
    /// Length of the valid region; appends land here.
    end: u64,
    index: BTreeMap<ItemId, Loc>,
    by_key: KeyIds,
    scratch: Vec<u8>,
}

impl HashFileBackend {
    /// Opens (or creates) the record file at `path`, rebuilding the offset
    /// index from a full scan.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;

        let mut index: BTreeMap<ItemId, Loc> = BTreeMap::new();
        let mut by_key = KeyIds::default();
        let link =
            |index: &mut BTreeMap<ItemId, Loc>, by_key: &mut KeyIds, id: ItemId, loc: Loc| {
                let prev = index.insert(id, loc);
                by_key.link(prev.map(|p| p.key), loc.key, id);
            };
        let outcome = recfile::scan_file(&path, &file, |scanned| match scanned.record {
            Record::Put(item) => link(
                &mut index,
                &mut by_key,
                item.id,
                Loc {
                    offset: scanned.offset,
                    frame_len: scanned.frame_len,
                    key: item.key,
                    version: item.version,
                },
            ),
            Record::Remove(id) => {
                if let Some(prev) = index.remove(&id) {
                    by_key.unlink(prev.key, id);
                }
            }
        })?;

        let mut end = match outcome {
            recfile::ScanOutcome::Clean { end } => end,
            recfile::ScanOutcome::TornTail { valid_end } => {
                // Drop the half-written tail so future appends start on a
                // frame boundary.
                file.set_len(valid_end)?;
                valid_end
            }
        };
        let mut file = file;
        // The scan moved the shared cursor; park it on the valid end before
        // any write.
        file.seek(SeekFrom::Start(end))?;
        if end == 0 {
            file.write_all(recfile::MAGIC)?;
            file.sync_all()?;
            end = recfile::MAGIC.len() as u64;
        }

        Ok(HashFileBackend {
            path,
            file,
            end,
            index,
            by_key,
            scratch: Vec::new(),
        })
    }

    /// Size of the record file in bytes (grows monotonically).
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    fn read_loc(&self, loc: Loc) -> DataItem {
        let mut buf = vec![0u8; loc.frame_len as usize];
        recfile::read_exact_at(&self.file, || &self.path, &mut buf, loc.offset)
            .unwrap_or_else(|e| panic!("storage read failed in {}: {e}", self.path.display()));
        match recfile::decode_frame(&buf) {
            Ok(Record::Put(item)) => item,
            other => panic!(
                "indexed record at {} in {} is invalid: {other:?}",
                loc.offset,
                self.path.display()
            ),
        }
    }

    /// Appends `self.scratch` (one encoded frame) and returns its location.
    fn append_scratch(&mut self) -> (u64, u32) {
        let offset = self.end;
        self.file
            .write_all(&self.scratch)
            .unwrap_or_else(|e| panic!("storage append failed in {}: {e}", self.path.display()));
        self.end += self.scratch.len() as u64;
        (offset, self.scratch.len() as u32)
    }

    fn append_put(&mut self, item: &DataItem) {
        self.scratch.clear();
        recfile::encode_put_frame(item, &mut self.scratch);
        let (offset, frame_len) = self.append_scratch();
        let loc = Loc {
            offset,
            frame_len,
            key: item.key,
            version: item.version,
        };
        let prev = self.index.insert(item.id, loc);
        self.by_key.link(prev.map(|p| p.key), loc.key, item.id);
    }
}

impl StorageBackend for HashFileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::HashFile
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, id: ItemId) -> bool {
        self.index.contains_key(&id)
    }

    fn get(&self, id: ItemId) -> Option<DataItem> {
        self.index.get(&id).map(|loc| self.read_loc(*loc))
    }

    fn put(&mut self, item: DataItem) -> Option<DataItem> {
        let prev = self.index.get(&item.id).map(|loc| self.read_loc(*loc));
        self.append_put(&item);
        prev
    }

    fn remove(&mut self, id: ItemId) -> Option<DataItem> {
        let loc = *self.index.get(&id)?;
        let prev = self.read_loc(loc);
        self.scratch.clear();
        recfile::encode_remove_frame(id, &mut self.scratch);
        self.append_scratch();
        self.index.remove(&id);
        self.by_key.unlink(loc.key, id);
        Some(prev)
    }

    fn bump_version(&mut self, id: ItemId) -> Option<Version> {
        let loc = *self.index.get(&id)?;
        let mut item = self.read_loc(loc);
        let version = item.bump();
        self.append_put(&item);
        Some(version)
    }

    fn apply_version(&mut self, id: ItemId, version: Version) -> bool {
        match self.index.get(&id) {
            Some(loc) if version > loc.version => {
                let mut item = self.read_loc(*loc);
                item.version = version;
                self.append_put(&item);
                true
            }
            _ => false,
        }
    }

    fn for_each_under(&self, path: &BitPath, f: &mut dyn FnMut(DataItem)) {
        for id in self.by_key.under(path) {
            if let Some(loc) = self.index.get(&id) {
                f(self.read_loc(*loc));
            }
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(DataItem)) {
        for loc in self.index.values() {
            f(self.read_loc(*loc));
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        Ok(())
    }

    fn resident_items(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgrid-hashfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn item(id: u64, key: &str) -> DataItem {
        DataItem::with_payload(
            ItemId(id),
            format!("n{id}"),
            BitPath::from_str_lossy(key),
            vec![id as u8; 16],
        )
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen.store");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = HashFileBackend::open(&path).unwrap();
            b.put(item(1, "0101"));
            b.put(item(2, "0110"));
            b.put(item(3, "1100"));
            b.remove(ItemId(2));
            b.bump_version(ItemId(1));
            b.flush().unwrap();
        }
        let b = HashFileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b.contains(ItemId(2)));
        assert_eq!(b.get(ItemId(1)).unwrap().version, Version(1));
        let mut under = Vec::new();
        b.for_each_under(&BitPath::from_str_lossy("01"), &mut |i| under.push(i.id.0));
        assert_eq!(under, vec![1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overwrite_returns_previous_and_reads_latest() {
        let path = tmp("overwrite.store");
        let _ = std::fs::remove_file(&path);
        let mut b = HashFileBackend::open(&path).unwrap();
        assert!(b.put(item(1, "0001")).is_none());
        let prev = b.put(item(1, "0010")).unwrap();
        assert_eq!(prev.key, BitPath::from_str_lossy("0001"));
        assert_eq!(
            b.get(ItemId(1)).unwrap().key,
            BitPath::from_str_lossy("0010")
        );
        let mut old_side = 0;
        b.for_each_under(&BitPath::from_str_lossy("0001"), &mut |_| old_side += 1);
        assert_eq!(old_side, 0, "stale key index entry");
        assert_eq!(b.resident_items(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
