//! # pgrid-store
//!
//! Local storage substrate for P-Grid peers.
//!
//! In the paper's model (§2) every peer *hosts* information items from a set
//! `DI`, each characterized by an index term (a binary key), and peers that
//! are responsible for a trie path additionally keep an **index**
//! `D ⊆ ADDR × K` mapping the keys under their path to the addresses of the
//! hosting peers. This crate holds the first half and the key ranges the
//! second is built on (the index itself is `pgrid_proto::LeafIndex`):
//!
//! * [`DataItem`] / [`LocalStore`] — the versioned items a peer hosts;
//! * [`StorageBackend`] and its implementations [`MemoryBackend`],
//!   [`HashFileBackend`], [`LogBackend`] — where those items physically
//!   live (RAM, one record file, or a compacting segment log), selected per
//!   deployment via [`StorageSpec`] without touching any protocol code;
//! * [`prefix_range`] / [`subtree_upper`] — a trie subtree as one range of
//!   an ordered key map, which the backends' key scans and the peers' leaf
//!   index (`pgrid_proto::LeafIndex`) are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod hashfile;
mod item;
mod local;
mod log;
mod memory;
mod recfile;
mod trie;

pub use backend::{AnyBackend, BackendKind, StorageBackend, StorageSpec, StoreError};
pub use hashfile::HashFileBackend;
pub use item::{DataItem, ItemId, Version};
pub use local::LocalStore;
pub use log::{LogBackend, LogOptions};
pub use memory::MemoryBackend;
pub use trie::{prefix_range, subtree_upper};
