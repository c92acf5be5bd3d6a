//! The pluggable storage seam: *where a peer's hosted items physically live*.
//!
//! The paper's model (§2) separates the **logical** role of a peer — hosting
//! data items and keeping an index for its trie path — from any particular
//! physical representation. This module makes that split concrete: every
//! operation the rest of the system performs on hosted items goes through
//! the [`StorageBackend`] trait, and three implementations trade memory for
//! durability:
//!
//! * [`MemoryBackend`](crate::MemoryBackend) — the original in-RAM ordered
//!   maps; fastest, nothing survives a restart.
//! * [`HashFileBackend`](crate::HashFileBackend) — one append-only record
//!   file plus an in-memory offset index rebuilt on open; items live on
//!   disk, the file only grows.
//! * [`LogBackend`](crate::LogBackend) — a log-structured store: CRC'd
//!   records in segment files, tombstones, and size-triggered compaction
//!   into a fresh segment via atomic tmp+rename; the only resident state is
//!   the offset index, so a peer can host millions of items in bounded RAM.
//!
//! Backends draw **no randomness** and answer every query in a canonical
//! order (keys ascending, item ids ascending within a key), so swapping the
//! backend never perturbs a deterministic simulation — the suites pin this.

use std::fmt;
use std::path::{Path, PathBuf};

use pgrid_keys::BitPath;

use crate::{DataItem, ItemId, Version};

/// Which physical representation a backend uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// In-RAM ordered maps.
    Memory,
    /// One on-disk record file + resident offset index.
    HashFile,
    /// Log-structured segment files with compaction.
    Log,
}

impl BackendKind {
    /// Stable lowercase name (CLI flag values, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::HashFile => "hashfile",
            BackendKind::Log => "log",
        }
    }

    /// All kinds, in presentation order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Memory, BackendKind::HashFile, BackendKind::Log];
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "memory" | "mem" => Ok(BackendKind::Memory),
            "hashfile" | "hash" => Ok(BackendKind::HashFile),
            "log" => Ok(BackendKind::Log),
            other => Err(format!(
                "unknown backend {other:?} (expected memory, hashfile, or log)"
            )),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors of the physical storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record that is neither a clean read nor a recoverable torn tail —
    /// real corruption in the middle of a sealed file.
    Corrupt {
        /// File the corruption was found in.
        file: PathBuf,
        /// Byte offset of the bad record.
        offset: u64,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io error: {e}"),
            StoreError::Corrupt {
                file,
                offset,
                reason,
            } => write!(
                f,
                "storage corrupt in {} at byte {offset}: {reason}",
                file.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Physical storage for one peer's hosted items.
///
/// The contract every implementation (and the shared equivalence suite)
/// holds:
///
/// * `put`/`remove`/`get` behave like a map keyed by [`ItemId`], with `put`
///   returning the replaced item.
/// * `for_each_under` visits items whose key extends `path`, ordered by
///   `(key, id)` ascending — the trie-subtree scan the index layer uses.
/// * `for_each` visits all items in id order.
/// * No method draws randomness or lets physical layout (file offsets,
///   segment boundaries, compaction timing) leak into results or order.
/// * After `flush`, every completed mutation survives a process crash (a
///   no-op for [`MemoryBackend`](crate::MemoryBackend), which trades
///   durability away).
///
/// I/O failures on the mutation path are fatal (they panic): the hosting
/// API is infallible by design — a peer whose disk stops accepting writes
/// cannot keep its hosting promise any more than a peer whose RAM does.
/// Fallible setup (open, recovery, compaction policy) returns
/// [`StoreError`].
pub trait StorageBackend {
    /// Which representation this is.
    fn kind(&self) -> BackendKind;

    /// Number of live items.
    fn len(&self) -> usize;

    /// `true` when no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when an item with this id is stored.
    fn contains(&self, id: ItemId) -> bool;

    /// Reads an item.
    fn get(&self, id: ItemId) -> Option<DataItem>;

    /// Inserts (or replaces) an item, returning the previous item with the
    /// same id.
    fn put(&mut self, item: DataItem) -> Option<DataItem>;

    /// Removes an item.
    fn remove(&mut self, id: ItemId) -> Option<DataItem>;

    /// Advances the item's version by one, returning the new version.
    fn bump_version(&mut self, id: ItemId) -> Option<Version>;

    /// Overwrites the stored version if `version` is newer (a replica
    /// applying a propagated update). Returns whether anything changed.
    fn apply_version(&mut self, id: ItemId, version: Version) -> bool;

    /// Visits every item whose key has `path` as a prefix, ordered by
    /// `(key, id)` ascending.
    fn for_each_under(&self, path: &BitPath, f: &mut dyn FnMut(DataItem));

    /// Visits every item, ordered by id ascending.
    fn for_each(&self, f: &mut dyn FnMut(DataItem));

    /// Makes every completed mutation durable.
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Number of full [`DataItem`]s (names + payloads) resident in RAM —
    /// the quantity the "host millions of items" memory gate bounds.
    fn resident_items(&self) -> usize;
}

/// A backend of any kind, chosen at construction time.
///
/// This is the type the rest of the system (peers, nodes, the simulator)
/// holds: enum dispatch keeps `Peer` a plain struct — no generics infect
/// the protocol code — while every data operation still flows through the
/// [`StorageBackend`] seam.
#[derive(Debug)]
pub enum AnyBackend {
    /// In-RAM maps.
    Memory(crate::MemoryBackend),
    /// Single-file store with resident offset index.
    HashFile(crate::HashFileBackend),
    /// Log-structured segmented store.
    Log(crate::LogBackend),
}

impl Default for AnyBackend {
    fn default() -> Self {
        AnyBackend::Memory(crate::MemoryBackend::new())
    }
}

/// Cloning a disk-backed store materializes its **logical contents** into a
/// fresh [`MemoryBackend`](crate::MemoryBackend): two clones must never
/// share (or race on) one set of files. Clones exist for snapshot tooling
/// and tests; live peers are never cloned by the protocol.
impl Clone for AnyBackend {
    fn clone(&self) -> Self {
        match self {
            AnyBackend::Memory(m) => AnyBackend::Memory(m.clone()),
            other => {
                let mut mem = crate::MemoryBackend::new();
                other.for_each(&mut |item| {
                    mem.put(item);
                });
                AnyBackend::Memory(mem)
            }
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            AnyBackend::Memory($b) => $body,
            AnyBackend::HashFile($b) => $body,
            AnyBackend::Log($b) => $body,
        }
    };
}

impl StorageBackend for AnyBackend {
    fn kind(&self) -> BackendKind {
        dispatch!(self, b => b.kind())
    }

    fn len(&self) -> usize {
        dispatch!(self, b => b.len())
    }

    fn contains(&self, id: ItemId) -> bool {
        dispatch!(self, b => b.contains(id))
    }

    fn get(&self, id: ItemId) -> Option<DataItem> {
        dispatch!(self, b => b.get(id))
    }

    fn put(&mut self, item: DataItem) -> Option<DataItem> {
        dispatch!(self, b => b.put(item))
    }

    fn remove(&mut self, id: ItemId) -> Option<DataItem> {
        dispatch!(self, b => b.remove(id))
    }

    fn bump_version(&mut self, id: ItemId) -> Option<Version> {
        dispatch!(self, b => b.bump_version(id))
    }

    fn apply_version(&mut self, id: ItemId, version: Version) -> bool {
        dispatch!(self, b => b.apply_version(id, version))
    }

    fn for_each_under(&self, path: &BitPath, f: &mut dyn FnMut(DataItem)) {
        dispatch!(self, b => b.for_each_under(path, f))
    }

    fn for_each(&self, f: &mut dyn FnMut(DataItem)) {
        dispatch!(self, b => b.for_each(f))
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        dispatch!(self, b => b.flush())
    }

    fn resident_items(&self) -> usize {
        dispatch!(self, b => b.resident_items())
    }
}

/// How to create (or reopen) the backend for each peer of a community —
/// the configuration value threaded from the CLI / cluster builders down
/// to `Peer` construction.
#[derive(Clone, Debug, Default)]
pub enum StorageSpec {
    /// Everything in RAM (the historical behavior; the default).
    #[default]
    Memory,
    /// One record file per peer under `dir` (`peer-<i>.store`).
    HashFile {
        /// Directory holding the per-peer files (created if absent).
        dir: PathBuf,
    },
    /// One log-structured segment directory per peer under `dir`
    /// (`peer-<i>/seg-*.log`), created by the peer's first write.
    Log {
        /// Parent directory of the per-peer segment directories.
        dir: PathBuf,
        /// Compaction/rollover tuning.
        options: crate::LogOptions,
    },
}

impl StorageSpec {
    /// The kind of backend this spec creates.
    pub fn kind(&self) -> BackendKind {
        match self {
            StorageSpec::Memory => BackendKind::Memory,
            StorageSpec::HashFile { .. } => BackendKind::HashFile,
            StorageSpec::Log { .. } => BackendKind::Log,
        }
    }

    /// A spec of `kind` rooted at `dir` (ignored for memory) with default
    /// tuning.
    pub fn of_kind(kind: BackendKind, dir: impl Into<PathBuf>) -> Self {
        match kind {
            BackendKind::Memory => StorageSpec::Memory,
            BackendKind::HashFile => StorageSpec::HashFile { dir: dir.into() },
            BackendKind::Log => StorageSpec::Log {
                dir: dir.into(),
                options: crate::LogOptions::default(),
            },
        }
    }

    /// Opens (creating or recovering) the backend for peer slot `slot`. A
    /// log store creates its `peer-<slot>` directory, and `dir` if missing,
    /// at its first write, so a peer that never hosts an item leaves none.
    pub fn open_for(&self, slot: usize) -> Result<AnyBackend, StoreError> {
        match self {
            StorageSpec::Memory => Ok(AnyBackend::Memory(crate::MemoryBackend::new())),
            StorageSpec::HashFile { dir } => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("peer-{slot}.store"));
                Ok(AnyBackend::HashFile(crate::HashFileBackend::open(path)?))
            }
            StorageSpec::Log { dir, options } => Ok(AnyBackend::Log(crate::LogBackend::open_with(
                peer_log_dir(dir, slot),
                *options,
            )?)),
        }
    }

    /// The segment directory of peer slot `slot` under a log spec,
    /// `dir/peer-<slot>`, with the spec's tuning; `None` for other kinds.
    /// [`StorageSpec::open_for`] opens a [`LogBackend`](crate::LogBackend)
    /// there, and a live node's [`AppendLog`](crate::AppendLog) journals
    /// there.
    pub fn log_slot(&self, slot: usize) -> Option<(PathBuf, crate::LogOptions)> {
        match self {
            StorageSpec::Log { dir, options } => Some((peer_log_dir(dir, slot), *options)),
            _ => None,
        }
    }
}

fn peer_log_dir(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("peer-{slot}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_keys::BitPath;

    fn item(id: u64, key: &str) -> DataItem {
        DataItem::new(ItemId(id), format!("n{id}"), BitPath::from_str_lossy(key))
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("tape".parse::<BackendKind>().is_err());
        assert_eq!("mem".parse::<BackendKind>().unwrap(), BackendKind::Memory);
    }

    #[test]
    fn any_backend_defaults_to_memory() {
        let mut b = AnyBackend::default();
        assert_eq!(b.kind(), BackendKind::Memory);
        assert!(b.is_empty());
        b.put(item(1, "01"));
        assert_eq!(b.len(), 1);
        assert_eq!(b.resident_items(), 1);
    }

    #[test]
    fn cloning_a_disk_backend_materializes_memory() {
        let dir = std::env::temp_dir().join(format!("pgrid-anyclone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = StorageSpec::of_kind(BackendKind::Log, &dir);
        let mut b = spec.open_for(0).unwrap();
        b.put(item(1, "01"));
        b.put(item(2, "10"));
        let c = b.clone();
        assert_eq!(c.kind(), BackendKind::Memory, "clone must not share files");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(ItemId(2)).unwrap().key, BitPath::from_str_lossy("10"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_open_for_creates_per_peer_files() {
        let dir = std::env::temp_dir().join(format!("pgrid-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = StorageSpec::of_kind(BackendKind::HashFile, &dir);
        let mut a = spec.open_for(0).unwrap();
        let mut b = spec.open_for(1).unwrap();
        a.put(item(1, "0"));
        b.put(item(2, "1"));
        drop((a, b));
        let a2 = spec.open_for(0).unwrap();
        assert_eq!(a2.len(), 1, "peer 0 reopens its own file only");
        assert!(a2.contains(ItemId(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
