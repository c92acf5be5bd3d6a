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
//! * [`AppendLog`] — a journal of put records replayed in append order,
//!   for state whose authoritative copy lives elsewhere (a live node's
//!   leaf index): it shares [`LogBackend`]'s files and rules but keeps
//!   nothing per record in RAM, and compacts by rewriting that copy;
//! * [`prefix_range`] / [`subtree_upper`] — a trie subtree as one range of
//!   an ordered key map, which the backends' key scans and the peers' leaf
//!   index (`pgrid_proto::LeafIndex`) are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod append;
mod backend;
mod hashfile;
mod item;
mod local;
mod log;
mod memory;
mod recfile;
mod segdir;
mod trie;

pub use append::AppendLog;
pub use backend::{AnyBackend, BackendKind, StorageBackend, StorageSpec, StoreError};
pub use hashfile::HashFileBackend;
pub use item::{DataItem, ItemId, Version};
pub use local::LocalStore;
pub use log::{LogBackend, LogOptions};
pub use memory::MemoryBackend;
pub use trie::{prefix_range, subtree_upper};
