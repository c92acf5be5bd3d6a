//! The log-structured backend: segment files, tombstones, compaction.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pgrid_keys::{BitPath, Key};

use crate::backend::{BackendKind, StorageBackend, StoreError};
use crate::recfile::{self, Record};
use crate::trie::KeyIds;
use crate::{DataItem, ItemId, Version};

/// Tuning for [`LogBackend`] rollover and compaction.
///
/// Both thresholds are byte counts derived purely from the operation
/// sequence, so compaction timing is deterministic — no clocks, no
/// randomness.
#[derive(Clone, Copy, Debug)]
pub struct LogOptions {
    /// Seal the active segment and start a new one once it exceeds this.
    pub segment_bytes: u64,
    /// Compact once dead bytes exceed this *and* outnumber live bytes.
    pub compact_min_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> Self {
        LogOptions {
            segment_bytes: 8 * 1024 * 1024,
            compact_min_bytes: 1024 * 1024,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Loc {
    seg: u64,
    offset: u64,
    frame_len: u32,
    key: Key,
    version: Version,
}

#[derive(Debug)]
struct Segment {
    file: File,
    len: u64,
}

/// Items spread over append-only segment files (`seg-<n>.log`), with only
/// the offset index and ordered key index resident.
///
/// Mutations append records (removals append tombstones) to the active —
/// highest-numbered — segment, sealing it and starting a new one past
/// [`LogOptions::segment_bytes`]. Once dead bytes outweigh live bytes,
/// every live record is rewritten, in id order, into a fresh segment via
/// the scratch-tmp + `rename` + directory-fsync idiom, and the old
/// segments are deleted.
///
/// Recovery replays segments in ascending id order, so later records (and
/// a compacted segment, which always carries the highest id) override
/// earlier ones and tombstones keep removed items dead. A torn tail is
/// only legal in the active segment — a crash can tear the file being
/// appended to, never a sealed one.
///
/// The store touches the filesystem only once it is first written: `open`
/// of a missing directory yields an empty store, and the first append
/// creates the directory (and any missing ancestors) and segment 0. New
/// segments and directories are synced by the next `flush`, not when they
/// are created.
#[derive(Debug)]
pub struct LogBackend {
    dir: PathBuf,
    options: LogOptions,
    segments: BTreeMap<u64, Segment>,
    /// How many directories, counting up from `dir`, gained an entry since
    /// the last `flush`: `dir` itself once a segment is created, and one
    /// more for each directory level the store created.
    unsynced_levels: usize,
    index: BTreeMap<ItemId, Loc>,
    by_key: KeyIds,
    live_bytes: u64,
    dead_bytes: u64,
    scratch: Vec<u8>,
}

fn seg_file_name(id: u64) -> String {
    format!("seg-{id}.log")
}

fn parse_seg_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn open_rw(path: &Path) -> Result<File, StoreError> {
    Ok(OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?)
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Creates `dir` and its missing ancestors, returning how many levels were
/// missing.
fn create_dir_levels(dir: &Path) -> std::io::Result<usize> {
    let missing = dir
        .ancestors()
        .take_while(|level| !level.as_os_str().is_empty() && !level.exists())
        .count();
    std::fs::create_dir_all(dir)?;
    Ok(missing)
}

impl LogBackend {
    /// Opens the store in `dir` with default tuning.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        LogBackend::open_with(dir, LogOptions::default())
    }

    /// Opens the store in `dir`: deletes stale compaction scratch files,
    /// then replays every segment in ascending id order to rebuild the
    /// index. A missing `dir` opens as an empty store and is not created
    /// until the first write; any other failure to list it is an error.
    pub fn open_with(dir: impl Into<PathBuf>, options: LogOptions) -> Result<Self, StoreError> {
        let dir = dir.into();
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => Some(entries),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let mut seg_ids = Vec::new();
        for entry in entries.into_iter().flatten() {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".log.tmp") {
                // A compaction that crashed before its rename; the old
                // segments are all still intact, so just discard it.
                std::fs::remove_file(entry.path())?;
            } else if let Some(id) = parse_seg_id(&name) {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        let mut backend = LogBackend {
            dir,
            options,
            segments: BTreeMap::new(),
            unsynced_levels: 0,
            index: BTreeMap::new(),
            by_key: KeyIds::default(),
            live_bytes: 0,
            dead_bytes: 0,
            scratch: Vec::new(),
        };

        // A missing or empty directory stays so: segment 0 is created by the
        // first append, so a store that never holds a record holds no file.
        let Some(&last) = seg_ids.last() else {
            return Ok(backend);
        };
        for id in seg_ids {
            backend.replay_segment(id, id == last)?;
        }
        let active = backend.segments.get_mut(&last).unwrap();
        active
            .file
            .seek(SeekFrom::Start(active.len))
            .map_err(StoreError::Io)?;
        Ok(backend)
    }

    /// Creates segment `id`, which becomes the active (highest-numbered)
    /// one — and, for the first segment, the store's directory. Nothing is
    /// synced here: `flush` syncs the new file and the directory entries
    /// that name it.
    fn create_segment(&mut self, id: u64) -> Result<(), StoreError> {
        let created = if self.segments.is_empty() {
            create_dir_levels(&self.dir)?
        } else {
            0
        };
        let mut file = open_rw(&self.dir.join(seg_file_name(id)))?;
        file.write_all(recfile::MAGIC)?;
        self.unsynced_levels = self.unsynced_levels.max(1 + created);
        self.segments.insert(
            id,
            Segment {
                file,
                len: recfile::MAGIC.len() as u64,
            },
        );
        Ok(())
    }

    /// The directories `flush` must sync, `dir` first: each holds an entry
    /// created since the last `flush`.
    fn unsynced_dirs(&self) -> impl Iterator<Item = &Path> {
        // A relative path's last ancestor is the empty path.
        self.dir.ancestors().take(self.unsynced_levels).map(|d| {
            if d.as_os_str().is_empty() {
                Path::new(".")
            } else {
                d
            }
        })
    }

    fn replay_segment(&mut self, id: u64, is_active: bool) -> Result<(), StoreError> {
        let path = self.dir.join(seg_file_name(id));
        let file = open_rw(&path)?;
        let index = &mut self.index;
        let by_key = &mut self.by_key;
        let (live, dead) = (&mut self.live_bytes, &mut self.dead_bytes);
        let outcome = recfile::scan_file(&path, &file, |scanned| match scanned.record {
            Record::Put(item) => {
                let loc = Loc {
                    seg: id,
                    offset: scanned.offset,
                    frame_len: scanned.frame_len,
                    key: item.key,
                    version: item.version,
                };
                *live += u64::from(loc.frame_len);
                let prev = index.insert(item.id, loc);
                if let Some(prev) = prev {
                    *live -= u64::from(prev.frame_len);
                    *dead += u64::from(prev.frame_len);
                }
                by_key.link(prev.map(|p| p.key), item.key, item.id);
            }
            Record::Remove(rid) => {
                *dead += u64::from(scanned.frame_len);
                if let Some(prev) = index.remove(&rid) {
                    *live -= u64::from(prev.frame_len);
                    *dead += u64::from(prev.frame_len);
                    by_key.unlink(prev.key, rid);
                }
            }
        })?;
        let len = match outcome {
            recfile::ScanOutcome::Clean { end } => end,
            recfile::ScanOutcome::TornTail { valid_end } if is_active => {
                // Crash mid-append: keep the valid prefix. An empty or
                // sub-magic active segment gets its header rewritten.
                file.set_len(valid_end)?;
                if valid_end == 0 {
                    let mut f = &file;
                    f.seek(SeekFrom::Start(0))?;
                    f.write_all(recfile::MAGIC)?;
                    f.sync_all()?;
                    recfile::MAGIC.len() as u64
                } else {
                    valid_end
                }
            }
            recfile::ScanOutcome::TornTail { valid_end } => {
                // Sealed segments are never appended to; a torn record here
                // is real damage, not a crash artifact.
                return Err(StoreError::Corrupt {
                    file: path,
                    offset: valid_end,
                    reason: "torn record in sealed segment".into(),
                });
            }
        };
        self.segments.insert(id, Segment { file, len });
        Ok(())
    }

    fn read_loc(&self, loc: Loc) -> DataItem {
        let seg = self
            .segments
            .get(&loc.seg)
            .unwrap_or_else(|| panic!("indexed segment {} is gone", loc.seg));
        // Only the failure branches name the file.
        let path = || self.dir.join(seg_file_name(loc.seg));
        let mut buf = vec![0u8; loc.frame_len as usize];
        recfile::read_exact_at(&seg.file, path, &mut buf, loc.offset)
            .unwrap_or_else(|e| panic!("storage read failed in {}: {e}", path().display()));
        match recfile::decode_frame(&buf) {
            Ok(Record::Put(item)) => item,
            other => panic!(
                "indexed record at {} in {} is invalid: {other:?}",
                loc.offset,
                path().display()
            ),
        }
    }

    /// Appends `self.scratch` to the active segment — creating segment 0 if
    /// the store has never been written — and returns the location.
    fn append_scratch(&mut self) -> (u64, u64, u32) {
        if self.segments.is_empty() {
            self.create_segment(0).unwrap_or_else(|e| {
                panic!(
                    "creating the first segment in {} failed: {e}",
                    self.dir.display()
                )
            });
        }
        let (&seg_id, seg) = self
            .segments
            .iter_mut()
            .next_back()
            .expect("active segment");
        let offset = seg.len;
        seg.file
            .write_all(&self.scratch)
            .unwrap_or_else(|e| panic!("storage append failed in segment {seg_id}: {e}"));
        seg.len += self.scratch.len() as u64;
        (seg_id, offset, self.scratch.len() as u32)
    }

    fn append_put(&mut self, item: &DataItem) {
        self.scratch.clear();
        recfile::encode_put_frame(item, &mut self.scratch);
        let (seg, offset, frame_len) = self.append_scratch();
        let loc = Loc {
            seg,
            offset,
            frame_len,
            key: item.key,
            version: item.version,
        };
        self.live_bytes += u64::from(frame_len);
        let prev = self.index.insert(item.id, loc);
        if let Some(prev) = prev {
            self.live_bytes -= u64::from(prev.frame_len);
            self.dead_bytes += u64::from(prev.frame_len);
        }
        self.by_key.link(prev.map(|p| p.key), item.key, item.id);
        self.after_append();
    }

    /// Rollover and compaction checks, run after every append.
    fn after_append(&mut self) {
        let (&active_id, active) = self.segments.last_key_value().expect("active segment");
        if active.len >= self.options.segment_bytes {
            self.create_segment(active_id + 1)
                .unwrap_or_else(|e| panic!("segment rollover failed: {e}"));
        }
        if self.dead_bytes >= self.options.compact_min_bytes && self.dead_bytes > self.live_bytes {
            self.compact()
                .unwrap_or_else(|e| panic!("compaction failed: {e}"));
        }
    }

    /// Rewrites every live record into one fresh segment (id order), then
    /// atomically publishes it and deletes the old segments.
    fn compact(&mut self) -> Result<(), StoreError> {
        let Some(&active_id) = self.segments.keys().next_back() else {
            // Never written: nothing to rewrite, and no file to leave behind.
            return Ok(());
        };
        let next = active_id + 1;
        let tmp_path = self.dir.join(format!("{}.tmp", seg_file_name(next)));
        let final_path = self.dir.join(seg_file_name(next));

        let mut out = File::create(&tmp_path)?;
        out.write_all(recfile::MAGIC)?;
        let mut offset = recfile::MAGIC.len() as u64;
        let mut new_locs: Vec<(ItemId, Loc)> = Vec::with_capacity(self.index.len());
        let mut frame = Vec::new();
        for (&id, loc) in &self.index {
            let item = self.read_loc(*loc);
            frame.clear();
            recfile::encode_put_frame(&item, &mut frame);
            out.write_all(&frame)?;
            new_locs.push((
                id,
                Loc {
                    seg: next,
                    offset,
                    frame_len: frame.len() as u32,
                    key: loc.key,
                    version: loc.version,
                },
            ));
            offset += frame.len() as u64;
        }
        out.sync_all()?;
        drop(out);
        // The rename is the commit point: before it, recovery sees the old
        // segments plus a stale .tmp to discard; after it, replay order
        // (ascending ids) makes the compacted segment override whatever old
        // segments survive.
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;

        let old_ids: Vec<u64> = self.segments.keys().copied().collect();
        self.segments.clear();
        for id in old_ids {
            std::fs::remove_file(self.dir.join(seg_file_name(id)))?;
        }
        let mut file = open_rw(&final_path)?;
        file.seek(SeekFrom::Start(offset)).map_err(StoreError::Io)?;
        self.segments.insert(next, Segment { file, len: offset });
        for (id, loc) in new_locs {
            self.index.insert(id, loc);
        }
        self.live_bytes = offset - recfile::MAGIC.len() as u64;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Forces a compaction regardless of the thresholds — the same path the
    /// automatic trigger takes. For crash-point tests and benchmarks.
    pub fn compact_now(&mut self) -> Result<(), StoreError> {
        self.compact()
    }

    /// Number of segment files currently open.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes of records still referenced by the index.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes of superseded records and tombstones awaiting compaction.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }
}

impl StorageBackend for LogBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Log
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
        let (_, _, tombstone_len) = self.append_scratch();
        self.index.remove(&id);
        self.by_key.unlink(loc.key, id);
        self.live_bytes -= u64::from(loc.frame_len);
        self.dead_bytes += u64::from(loc.frame_len) + u64::from(tombstone_len);
        self.after_append();
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
        for seg in self.segments.values() {
            seg.file.sync_all()?;
        }
        for dir in self.unsynced_dirs() {
            sync_dir(dir)?;
        }
        self.unsynced_levels = 0;
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
        std::env::temp_dir().join(format!("pgrid-log-{}-{name}", std::process::id()))
    }

    fn small_opts() -> LogOptions {
        LogOptions {
            segment_bytes: 512,
            compact_min_bytes: 256,
        }
    }

    fn item(id: u64, key: &str) -> DataItem {
        DataItem::with_payload(
            ItemId(id),
            format!("n{id}"),
            BitPath::from_str_lossy(key),
            vec![id as u8; 32],
        )
    }

    #[test]
    fn rolls_segments_and_survives_reopen() {
        let dir = tmp("roll");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut b = LogBackend::open_with(&dir, small_opts()).unwrap();
            for i in 0..40 {
                b.put(item(i, if i % 2 == 0 { "0101" } else { "1010" }));
            }
            assert!(b.segment_count() > 1, "should have rolled segments");
            b.flush().unwrap();
        }
        let b = LogBackend::open_with(&dir, small_opts()).unwrap();
        assert_eq!(b.len(), 40);
        let mut under = 0;
        b.for_each_under(&BitPath::from_str_lossy("01"), &mut |_| under += 1);
        assert_eq!(under, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_contents() {
        let dir = tmp("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = LogBackend::open_with(&dir, small_opts()).unwrap();
        for i in 0..10 {
            b.put(item(i, "0101"));
        }
        // Overwrite and delete heavily: dead bytes mount, compaction fires.
        for round in 0..20 {
            for i in 0..5 {
                b.put(item(i, if round % 2 == 0 { "0011" } else { "0101" }));
            }
            b.remove(ItemId(9));
            b.put(item(9, "1111"));
        }
        assert!(b.dead_bytes() < b.live_bytes().max(small_opts().compact_min_bytes) * 2);
        assert_eq!(b.len(), 10);
        drop(b);
        let b = LogBackend::open_with(&dir, small_opts()).unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(
            b.get(ItemId(9)).unwrap().key,
            BitPath::from_str_lossy("1111")
        );
        assert_eq!(
            b.get(ItemId(0)).unwrap().key,
            BitPath::from_str_lossy("0101")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Prefix scans run in key order, then id order, however the key index
    /// was last rebuilt: by re-keying puts, removes, compaction or replay.
    #[test]
    fn for_each_under_order_survives_rekey_remove_compaction_and_reopen() {
        let dir = tmp("order");
        let _ = std::fs::remove_dir_all(&dir);
        let scan = |b: &LogBackend, path: &str| {
            let mut out = Vec::new();
            b.for_each_under(&BitPath::from_str_lossy(path), &mut |it| {
                out.push((it.key.to_bit_string(), it.id.0));
            });
            out
        };
        let owned = |v: &[(&str, u64)]| -> Vec<(String, u64)> {
            v.iter().map(|(k, id)| (k.to_string(), *id)).collect()
        };
        let mut b = LogBackend::open_with(&dir, small_opts()).unwrap();
        for (id, key) in [(5, "0110"), (2, "0110"), (9, "01"), (1, "0111"), (7, "10")] {
            b.put(item(id, key));
        }
        b.put(item(3, "0110"));
        // An overwrite that changes the key moves the id between keys.
        b.put(item(5, "0111"));
        let rekeyed = owned(&[
            ("01", 9),
            ("0110", 2),
            ("0110", 3),
            ("0111", 1),
            ("0111", 5),
        ]);
        assert_eq!(scan(&b, "01"), rekeyed);
        b.remove(ItemId(2));
        let removed = owned(&[("01", 9), ("0110", 3), ("0111", 1), ("0111", 5)]);
        assert_eq!(scan(&b, "01"), removed);
        assert_eq!(scan(&b, "011"), removed[1..]);
        b.compact_now().unwrap();
        assert_eq!(b.dead_bytes(), 0);
        assert_eq!(scan(&b, "01"), removed);
        let mut all = removed.clone();
        all.push(("10".to_string(), 7));
        assert_eq!(scan(&b, ""), all);
        b.flush().unwrap();
        drop(b);
        let b = LogBackend::open_with(&dir, small_opts()).unwrap();
        assert_eq!(scan(&b, ""), all);
        assert_eq!(scan(&b, "0111"), removed[2..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn segment_files(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| parse_seg_id(&e.as_ref().unwrap().file_name().to_string_lossy()).is_some())
            .count()
    }

    #[test]
    fn never_written_store_holds_no_file_until_the_first_put() {
        let dir = tmp("lazy");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut b = LogBackend::open(&dir).unwrap();
            b.flush().unwrap();
            b.compact_now().unwrap();
            b.for_each(&mut |_| panic!("an empty store has no items"));
            assert_eq!(b.remove(ItemId(1)), None);
            assert_eq!((b.len(), b.segment_count()), (0, 0));
        }
        assert!(!dir.exists(), "nothing written, nothing created");
        {
            let mut b = LogBackend::open(&dir).unwrap();
            assert!(!dir.exists(), "reopening creates nothing either");
            b.put(item(7, "0101"));
            assert_eq!((b.segment_count(), segment_files(&dir)), (1, 1));
            let entries = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(entries, 1, "one directory holding one segment");
            b.flush().unwrap();
        }
        let b = LogBackend::open(&dir).unwrap();
        assert_eq!(b.get(ItemId(7)), Some(item(7, "0101")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The first write creates every missing level; `flush` syncs the
    /// entries that name them once, and a rollover's new segment at the
    /// next flush after it.
    #[test]
    fn flush_syncs_each_created_entry_once() {
        let root = tmp("levels");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("peer-3");
        let unsynced =
            |b: &LogBackend| b.unsynced_dirs().map(Path::to_path_buf).collect::<Vec<_>>();
        let mut b = LogBackend::open_with(&dir, small_opts()).unwrap();
        assert!(unsynced(&b).is_empty());
        b.put(item(1, "0101"));
        assert!(dir.is_dir());
        assert_eq!(
            unsynced(&b),
            [dir.clone(), root.clone(), std::env::temp_dir()],
            "the new segment's directory, then the parents of both created levels"
        );
        b.flush().unwrap();
        assert!(unsynced(&b).is_empty());
        b.put(item(2, "0101"));
        assert!(unsynced(&b).is_empty(), "no new entry, no directory sync");
        while b.segment_count() == 1 {
            b.put(item(3, "0101"));
        }
        assert_eq!(unsynced(&b), [dir]);
        b.flush().unwrap();
        assert!(unsynced(&b).is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_store_path_that_is_a_file_fails_to_open() {
        let path = tmp("file");
        std::fs::write(&path, b"not a directory").unwrap();
        assert!(LogBackend::open(&path).is_err());
        assert!(LogBackend::open(path.join("peer-0")).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_keep_items_dead_across_reopen() {
        let dir = tmp("tombstone");
        let _ = std::fs::remove_dir_all(&dir);
        {
            // Tiny segments force the put and the remove into different
            // files; replay must still net them out.
            let opts = LogOptions {
                segment_bytes: 96,
                compact_min_bytes: u64::MAX,
            };
            let mut b = LogBackend::open_with(&dir, opts).unwrap();
            for i in 0..8 {
                b.put(item(i, "0101"));
            }
            b.remove(ItemId(3));
            b.flush().unwrap();
        }
        let b = LogBackend::open(&dir).unwrap();
        assert_eq!(b.len(), 7);
        assert!(!b.contains(ItemId(3)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
