//! # pgrid-core
//!
//! The P-Grid access structure (Aberer, *P-Grid: A Self-organizing Access
//! Structure for P2P Information Systems*): a fully decentralized, randomized
//! binary-trie index over a community of unreliable peers.
//!
//! Peers repeatedly meet pairwise and run the **exchange** algorithm
//! (paper Fig. 3, [`PGrid::exchange`]): they successively partition the
//! binary key space, each peer ending up responsible for one trie *path* and
//! keeping, per prefix level, up to `refmax` references to peers covering the
//! other side of that level. **Search** (paper Fig. 2, [`PGrid::search`]) is
//! a randomized depth-first descent over those references. **Updates** must
//! reach all *replicas* of a path; [`update`] implements the paper's three
//! strategies plus the repeated-query majority read of §5.2.
//!
//! ```
//! use pgrid_core::{BuildOptions, Ctx, PGrid, PGridConfig};
//! use pgrid_net::{AlwaysOnline, NetStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut online = AlwaysOnline;
//! let mut stats = NetStats::new();
//! let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
//!
//! // Build a small grid by random pairwise meetings.
//! let mut grid = PGrid::new(64, PGridConfig { maxl: 4, ..PGridConfig::default() });
//! let report = grid.build(&BuildOptions::default(), &mut ctx);
//! assert!(report.reached_threshold);
//!
//! // Every key now has at least one responsible peer reachable by search.
//! let key = "0101".parse().unwrap();
//! let hit = grid.search(pgrid_net::PeerId(0), &key, &mut ctx);
//! assert!(hit.responsible.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod balance;
mod batch;
mod builder;
mod compact;
mod config;
mod ctx;
mod exchange;
mod grid;
mod invariants;
mod metrics;
mod peer;
mod range;
mod repair;
mod scratch;
mod search;
mod snapshot;
mod system;
pub mod trie_ext;
pub mod update;

pub use analysis::{
    min_key_length, min_peers, search_success_probability, GridSizing, SizingReport,
};
pub use balance::{BalanceConfig, BalanceReport, LoadTracker, LoadViolation};
pub use batch::BatchQuery;
pub use builder::{BuildOptions, BuildReport};
pub use compact::CompactRoutingTable;
pub use config::PGridConfig;
pub use ctx::{Ctx, OwnedCtx};
pub use grid::PGrid;
pub use invariants::Violation;
pub use metrics::GridMetrics;
pub use peer::{IndexEntry, Peer};
pub use pgrid_proto::{KeyEntries, LeafEntry, LeafIndex, LevelRefs, RoutingTable};
pub use range::RangeOutcome;
pub use repair::{RepairReport, StabilizeReport};
pub use scratch::Scratch;
pub use search::SearchOutcome;
pub use snapshot::{GridSnapshot, PeerSnapshot};
pub use system::{InformationSystem, Lookup, SystemConfig};
pub use update::{
    DecisionRule, FindReplicasOutcome, FindStrategy, MajorityReadOutcome, QueryPolicy,
    UpdateOutcome,
};
