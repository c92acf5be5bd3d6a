//! The append-only journal: put records appended and replayed in append
//! order, with nothing per record resident.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

use crate::recfile::{self, Record};
use crate::segdir::SegDir;
use crate::{DataItem, LogOptions, StoreError};

/// A journal of put records for state whose authoritative copy lives
/// elsewhere — a live node's leaf index — holding nothing per record in
/// RAM: one file handle and a few counters.
///
/// [`AppendLog::append`] writes one put frame; [`AppendLog::replay`]
/// hands every record back in append order; compaction rewrites the log
/// from the caller's authoritative copy ([`AppendLog::compact_if_due`]).
/// No record overrides another: two records with one item id are two
/// records, and the reader decides what they mean together.
///
/// The files follow [`LogBackend`](crate::LogBackend)'s rules — the same
/// frames, `seg-<n>.log` segments replayed in ascending id order, the
/// directory created at the first write, a torn tail truncated in the
/// active segment only, compaction published through tmp + fsync +
/// rename + directory fsync — so a journal directory is a valid
/// `LogBackend` directory (which reads it keyed by item id, the last
/// record of an id winning). Two rules differ. A journal never rolls a
/// segment over: its segments change only at compaction. And it writes no
/// tombstones; one read from a directory `LogBackend` wrote counts as a
/// dead record and removes nothing.
///
/// The compaction trigger is `LogBackend`'s, on
/// [`LogOptions::compact_min_bytes`]: dead records — records in the log
/// minus the live count the caller supplies — must be worth that many
/// bytes at the log's mean frame length and must outnumber live ones.
/// [`LogOptions::segment_bytes`] is unused.
#[derive(Debug)]
pub struct AppendLog {
    dir: SegDir,
    options: LogOptions,
    /// The active (highest-numbered) segment and its id: appends go here.
    /// `None` until the first write to a directory that holds no segment.
    active: Option<(u64, File)>,
    /// Records in the log: those replayed at open, appended since, or
    /// written by the last compaction.
    records: u64,
    /// Their bytes, frame headers included.
    bytes: u64,
    /// The record count at which the trigger is next evaluated.
    next_check: u64,
    /// Encoding scratch for one frame.
    frame: Vec<u8>,
}

impl AppendLog {
    /// Opens the journal in `dir`: deletes stale compaction scratch files
    /// and scans every segment, truncating a torn tail in the active one,
    /// to count its records. A missing `dir` opens as an empty journal and
    /// is not created until the first append; any other failure to list it
    /// is an error.
    pub fn open(dir: impl Into<PathBuf>, options: LogOptions) -> Result<Self, StoreError> {
        let dir = SegDir::new(dir.into());
        let ids = dir.recover_ids()?;
        let (mut records, mut bytes) = (0, 0);
        let mut active = None;
        let last = ids.last().copied();
        for id in ids {
            let segment = dir.replay(id, Some(id) == last, |scanned| {
                records += 1;
                bytes += u64::from(scanned.frame_len);
            })?;
            if Some(id) == last {
                active = Some((id, segment.file));
            }
        }
        Ok(AppendLog {
            dir,
            options,
            active,
            records,
            bytes,
            next_check: 0,
            frame: Vec::new(),
        })
    }

    /// Visits every put record in append order: segments in ascending id
    /// order, each front to back.
    pub fn replay(&self, visit: &mut dyn FnMut(DataItem)) -> Result<(), StoreError> {
        for id in self.dir.ids()? {
            let path = self.dir.seg_path(id);
            recfile::scan_file(&path, &File::open(&path)?, |scanned| {
                if let Record::Put(item) = scanned.record {
                    visit(item);
                }
            })?;
        }
        Ok(())
    }

    /// Appends a put record of `item`; the first append to a journal that
    /// holds no segment creates the directory and segment 0. Returns
    /// whether the compaction trigger is due for evaluation: if so, call
    /// [`AppendLog::compact_if_due`].
    ///
    /// # Panics
    /// If the write fails, as every mutation-path I/O failure of
    /// [`LogBackend`](crate::LogBackend) does.
    pub fn append(&mut self, item: &DataItem) -> bool {
        self.frame.clear();
        recfile::encode_put_frame(item, &mut self.frame);
        let (id, file) = match &mut self.active {
            Some(active) => active,
            None => {
                let segment = self.dir.create(0, true).unwrap_or_else(|e| {
                    panic!(
                        "creating the first segment in {} failed: {e}",
                        self.dir.path().display()
                    )
                });
                self.active.insert((0, segment.file))
            }
        };
        file.write_all(&self.frame)
            .unwrap_or_else(|e| panic!("storage append failed in segment {id}: {e}"));
        self.records += 1;
        self.bytes += self.frame.len() as u64;
        self.records >= self.next_check
    }

    /// Evaluates the compaction trigger with `live` live records — the
    /// size of the authoritative copy — and, when it holds, rewrites the
    /// log as exactly `rewrite()`, in its order, into a fresh segment,
    /// publishes it and deletes the old segments. Otherwise the next
    /// evaluation waits as many appends as the trigger needs: each append
    /// adds at most one dead record (an authoritative copy that shrinks
    /// meanwhile can only delay a compaction, never lose a record).
    /// Returns whether the log was compacted.
    pub fn compact_if_due<I>(
        &mut self,
        live: u64,
        rewrite: impl FnOnce() -> I,
    ) -> Result<bool, StoreError>
    where
        I: IntoIterator<Item = DataItem>,
    {
        let dead = self.records.saturating_sub(live);
        let needed = self.dead_needed(live);
        if dead >= needed {
            self.compact_from(rewrite())?;
            return Ok(true);
        }
        self.next_check = self.records + (needed - dead);
        Ok(false)
    }

    /// The fewest dead records that trip the trigger beside `live` live
    /// ones: more than `live`, and `compact_min_bytes` worth at the mean
    /// frame length.
    fn dead_needed(&self, live: u64) -> u64 {
        let worth = if self.bytes == 0 {
            0
        } else {
            let worth = (u128::from(self.options.compact_min_bytes) * u128::from(self.records))
                .div_ceil(u128::from(self.bytes));
            u64::try_from(worth).unwrap_or(u64::MAX)
        };
        worth.max(live + 1)
    }

    /// Rewrites the log as exactly `live`. A journal that holds no segment
    /// has nothing to rewrite and stays without a file.
    fn compact_from(&mut self, live: impl IntoIterator<Item = DataItem>) -> Result<(), StoreError> {
        let Some((active_id, _)) = self.active else {
            return Ok(());
        };
        let next = active_id + 1;
        let frame = &mut self.frame;
        let (segment, (records, bytes)) = self.dir.publish(next, |out| {
            let (mut records, mut bytes) = (0u64, 0u64);
            for item in live {
                frame.clear();
                recfile::encode_put_frame(&item, frame);
                out.write_all(frame)?;
                records += 1;
                bytes += frame.len() as u64;
            }
            Ok((records, bytes))
        })?;
        self.active = Some((next, segment.file));
        self.records = records;
        self.bytes = bytes;
        self.next_check = records + self.dead_needed(records);
        self.dir.remove_below(next)
    }

    /// Number of records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Makes every append durable: syncs the active segment and, once
    /// after a creation, the directories that name what was created.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if let Some((_, file)) = &self.active {
            file.sync_all()?;
        }
        self.dir.sync_created()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segdir::parse_seg_id;
    use crate::{ItemId, LogBackend, StorageBackend, Version};
    use pgrid_keys::BitPath;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgrid-append-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Segments past 64 bytes (a journal ignores it) and compaction at 256
    /// bytes: about five records of `record`'s 54.
    fn small_opts() -> LogOptions {
        LogOptions {
            segment_bytes: 64,
            compact_min_bytes: 256,
        }
    }

    /// A custody-shaped record: the holder rides in a 4-byte payload.
    fn record(item: u64, holder: u32, key: &str, version: u64) -> DataItem {
        DataItem {
            id: ItemId(item),
            name: String::new(),
            key: BitPath::from_str_lossy(key),
            version: Version(version),
            payload: holder.to_le_bytes().to_vec(),
        }
    }

    fn replayed(log: &AppendLog) -> Vec<DataItem> {
        let mut out = Vec::new();
        log.replay(&mut |item| out.push(item)).unwrap();
        out
    }

    fn segment_ids(dir: &Path) -> Vec<u64> {
        let mut ids: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| parse_seg_id(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn replay_returns_every_record_in_append_order_across_reopen() {
        let dir = tmp("order");
        let written = [
            record(9, 2, "0110", 1),
            record(4, 2, "0110", 1),
            record(4, 5, "0110", 1),
            record(4, 2, "0110", 3),
            record(1, 7, "10", 1),
        ];
        {
            let mut log = AppendLog::open(&dir, small_opts()).unwrap();
            assert!(!dir.exists(), "opening creates nothing");
            for r in &written {
                log.append(r);
            }
            assert_eq!(
                replayed(&log),
                written,
                "one record per append, none folded"
            );
            log.flush().unwrap();
        }
        let log = AppendLog::open(&dir, small_opts()).unwrap();
        assert_eq!(log.records(), 5);
        assert_eq!(replayed(&log), written);
        assert_eq!(segment_ids(&dir), [0], "no rollover, however small");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records cycling over a live copy of four: at the ninth, the five dead
    /// ones reach 256 bytes (54 a record) and outnumber the live ones.
    #[test]
    fn compaction_fires_at_the_log_backend_trigger_and_rewrites_the_live_copy() {
        let dir = tmp("compact");
        let mut log = AppendLog::open(&dir, small_opts()).unwrap();
        let live: Vec<DataItem> = (0..4).map(|i| record(i, 1, "01", 1)).collect();
        let mut compacted_at = None;
        for n in 1..=12u64 {
            let r = &live[(n as usize - 1) % 4];
            if log.append(r) && log.compact_if_due(4, || live.clone()).unwrap() {
                compacted_at.get_or_insert(n);
            }
        }
        assert_eq!(compacted_at, Some(9), "dead = 5 ≥ 256/54 and 5 > 4");
        assert_eq!(log.records(), 7, "the live copy, then three more appends");
        assert_eq!(segment_ids(&dir), [1]);
        let mut expected = live.clone();
        expected.extend_from_slice(&live[1..]);
        assert_eq!(replayed(&log), expected);
        drop(log);
        let log = AppendLog::open(&dir, small_opts()).unwrap();
        assert_eq!(replayed(&log), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_cut_and_appends_continue_after_it() {
        let dir = tmp("torn");
        {
            let mut log = AppendLog::open(&dir, LogOptions::default()).unwrap();
            log.append(&record(1, 1, "0", 1));
            log.append(&record(2, 1, "1", 1));
            log.flush().unwrap();
        }
        let seg = dir.join("seg-0.log");
        let len = std::fs::metadata(&seg).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        let mut log = AppendLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.records(), 1);
        log.append(&record(3, 1, "1", 1));
        let ids: Vec<u64> = replayed(&log).iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [1, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash after the rename but before the old segments go: replay
    /// runs the survivors first, then the compacted segment.
    #[test]
    fn old_segments_surviving_a_compaction_replay_before_it() {
        let dir = tmp("survivors");
        let mut log = AppendLog::open(&dir, LogOptions::default()).unwrap();
        log.append(&record(1, 1, "0", 1));
        log.append(&record(1, 1, "0", 2));
        log.flush().unwrap();
        let old = std::fs::read(dir.join("seg-0.log")).unwrap();
        log.compact_from([record(1, 1, "0", 2)]).unwrap();
        drop(log);
        std::fs::write(dir.join("seg-0.log"), old).unwrap();
        let log = AppendLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.records(), 3);
        let versions: Vec<u64> = replayed(&log).iter().map(|r| r.version.0).collect();
        assert_eq!(versions, [1, 2, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One directory, two readers: `LogBackend` reads a compacted journal
    /// keyed by item id, and a journal replays a `LogBackend` directory's
    /// puts in append order, tombstones removing nothing.
    #[test]
    fn journal_and_log_backend_read_each_others_directories() {
        let dir = tmp("shared");
        let mut log = AppendLog::open(&dir, LogOptions::default()).unwrap();
        log.append(&record(3, 1, "01", 1));
        log.append(&record(3, 1, "01", 2));
        log.compact_from([record(3, 1, "01", 2), record(8, 4, "11", 1)])
            .unwrap();
        log.flush().unwrap();
        drop(log);
        let mut backend = LogBackend::open(&dir).unwrap();
        let mut held = Vec::new();
        backend.for_each(&mut |item| held.push(item));
        assert_eq!(held, [record(3, 1, "01", 2), record(8, 4, "11", 1)]);

        backend.put(record(5, 2, "00", 1));
        backend.remove(ItemId(8));
        backend.flush().unwrap();
        drop(backend);
        let log = AppendLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(log.records(), 4, "three puts and a tombstone");
        let ids: Vec<u64> = replayed(&log).iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [3, 8, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_journal_that_was_never_written_holds_no_file() {
        let dir = tmp("lazy").join("peer-0");
        let mut log = AppendLog::open(&dir, small_opts()).unwrap();
        log.flush().unwrap();
        log.compact_from([record(1, 1, "0", 1)]).unwrap();
        assert!(replayed(&log).is_empty());
        assert!(!dir.exists());
        log.append(&record(1, 1, "0", 1));
        assert_eq!(segment_ids(&dir), [0]);
        log.flush().unwrap();
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }
}
