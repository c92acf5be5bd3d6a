//! The file rules of a segment directory, shared by
//! [`LogBackend`](crate::LogBackend) and [`AppendLog`](crate::AppendLog):
//! `seg-<n>.log` naming, creation of the directory at the first write,
//! recovery of a torn tail in the active (highest-numbered) segment, and
//! publication of a rewritten segment through tmp + fsync + rename +
//! directory fsync.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::recfile::{self, ScanItem, ScanOutcome};
use crate::StoreError;

/// One open segment file and its length; the file is positioned at its end.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) file: File,
    pub(crate) len: u64,
}

/// The directory holding one store's segments.
#[derive(Debug)]
pub(crate) struct SegDir {
    dir: PathBuf,
    /// How many directories, counting up from `dir`, gained an entry since
    /// the last [`SegDir::sync_created`]: `dir` itself once a segment is
    /// created, and one more for each directory level the store created.
    unsynced_levels: usize,
}

pub(crate) fn seg_file_name(id: u64) -> String {
    format!("seg-{id}.log")
}

pub(crate) fn parse_seg_id(name: &str) -> Option<u64> {
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

impl SegDir {
    pub(crate) fn new(dir: PathBuf) -> Self {
        SegDir {
            dir,
            unsynced_levels: 0,
        }
    }

    /// The directory itself.
    pub(crate) fn path(&self) -> &Path {
        &self.dir
    }

    /// The path of segment `id`.
    pub(crate) fn seg_path(&self, id: u64) -> PathBuf {
        self.dir.join(seg_file_name(id))
    }

    /// The ids of every segment, ascending, after deleting the scratch file
    /// of a compaction that crashed before its rename (the old segments
    /// are all still intact). A missing directory lists as empty and is not
    /// created; any other failure to list it is an error.
    pub(crate) fn recover_ids(&self) -> Result<Vec<u64>, StoreError> {
        self.list(true)
    }

    /// The ids of every segment, ascending; a missing directory has none.
    pub(crate) fn ids(&self) -> Result<Vec<u64>, StoreError> {
        self.list(false)
    }

    fn list(&self, remove_scratch: bool) -> Result<Vec<u64>, StoreError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if remove_scratch && name.ends_with(".log.tmp") {
                std::fs::remove_file(entry.path())?;
            } else if let Some(id) = parse_seg_id(&name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Opens segment `id` and visits every record in it. A torn tail is
    /// truncated when the segment is the active one — a crash can tear the
    /// file being appended to, and an empty or sub-magic active segment
    /// gets its header back — and is corruption in a sealed one, which is
    /// never appended to.
    pub(crate) fn replay(
        &self,
        id: u64,
        is_active: bool,
        visit: impl FnMut(ScanItem),
    ) -> Result<Segment, StoreError> {
        let path = self.seg_path(id);
        let mut file = open_rw(&path)?;
        let len = match recfile::scan_file(&path, &file, visit)? {
            ScanOutcome::Clean { end } => end,
            ScanOutcome::TornTail { valid_end } if is_active => {
                file.set_len(valid_end)?;
                if valid_end == 0 {
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(recfile::MAGIC)?;
                    file.sync_all()?;
                    recfile::MAGIC.len() as u64
                } else {
                    valid_end
                }
            }
            ScanOutcome::TornTail { valid_end } => {
                return Err(StoreError::Corrupt {
                    file: path,
                    offset: valid_end,
                    reason: "torn record in sealed segment".into(),
                });
            }
        };
        file.seek(SeekFrom::Start(len))?;
        Ok(Segment { file, len })
    }

    /// Creates segment `id` holding only the magic; the first segment of a
    /// store also creates its directory and any missing ancestors. Nothing
    /// is synced here: [`SegDir::sync_created`] syncs the directory entries
    /// that name what was created.
    pub(crate) fn create(&mut self, id: u64, first: bool) -> Result<Segment, StoreError> {
        let created = if first {
            create_dir_levels(&self.dir)?
        } else {
            0
        };
        let mut file = open_rw(&self.seg_path(id))?;
        file.write_all(recfile::MAGIC)?;
        self.unsynced_levels = self.unsynced_levels.max(1 + created);
        Ok(Segment {
            file,
            len: recfile::MAGIC.len() as u64,
        })
    }

    /// The directories [`SegDir::sync_created`] syncs, `dir` first: each
    /// holds an entry created since the last sync.
    pub(crate) fn unsynced_dirs(&self) -> impl Iterator<Item = &Path> {
        // A relative path's last ancestor is the empty path.
        self.dir.ancestors().take(self.unsynced_levels).map(|d| {
            if d.as_os_str().is_empty() {
                Path::new(".")
            } else {
                d
            }
        })
    }

    /// Syncs every directory that gained an entry since the last call.
    pub(crate) fn sync_created(&mut self) -> Result<(), StoreError> {
        for dir in self.unsynced_dirs() {
            sync_dir(dir)?;
        }
        self.unsynced_levels = 0;
        Ok(())
    }

    /// Writes segment `id` — the magic, then whatever `write` puts after it
    /// — to a scratch file, syncs it, and renames it into place, then syncs
    /// the directory. The rename is the commit point: before it, recovery
    /// sees the old segments plus a stale scratch file to discard; after
    /// it, replay in ascending id order puts the new segment last. The old
    /// segments are left for [`SegDir::remove_below`].
    pub(crate) fn publish<R>(
        &self,
        id: u64,
        write: impl FnOnce(&mut BufWriter<File>) -> Result<R, StoreError>,
    ) -> Result<(Segment, R), StoreError> {
        let final_path = self.seg_path(id);
        let tmp_path = self.dir.join(format!("{}.tmp", seg_file_name(id)));
        let mut out = BufWriter::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?,
        );
        out.write_all(recfile::MAGIC)?;
        let written = write(&mut out)?;
        let mut file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        let len = file.stream_position()?;
        Ok((Segment { file, len }, written))
    }

    /// Deletes every segment numbered below `id`.
    pub(crate) fn remove_below(&self, id: u64) -> Result<(), StoreError> {
        for old in self.ids()? {
            if old < id {
                std::fs::remove_file(self.seg_path(old))?;
            }
        }
        Ok(())
    }
}
