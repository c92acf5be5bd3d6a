//! # pgrid
//!
//! Facade crate for the P-Grid workspace — a from-scratch Rust
//! implementation of Aberer's *P-Grid: A Self-organizing Access Structure
//! for P2P Information Systems*.
//!
//! Re-exports the public API of every subsystem crate so applications can
//! depend on one crate:
//!
//! * [`keys`] — binary key space ([`keys::BitPath`], mappers, radix paths);
//! * [`store`] — per-peer data storage and trie indexes;
//! * [`net`] — availability models, message accounting, event scheduling;
//! * [`wire`] — the binary peer protocol;
//! * [`proto`] — the sans-I/O protocol core (Fig. 2 / Fig. 3 kernels and
//!   the event-driven [`proto::ProtocolPeer`]) shared by the simulator and
//!   the live node;
//! * [`core`] — the P-Grid itself: construction, search, updates, analysis;
//! * [`baselines`] — Gnutella flooding and central-server comparators;
//! * [`node`] — the live deployment: one node shell over loopback sockets
//!   ([`node::TcpCluster`]) or a deterministic virtual clock
//!   ([`node::SimCluster`]);
//! * [`sim`] — the paper's experiment suite;
//! * [`trace`] — the deterministic flight recorder (typed events, logical
//!   time, JSONL replay and trace diffing).
//!
//! ```
//! use pgrid::core::{BuildOptions, Ctx, PGrid, PGridConfig};
//! use pgrid::net::{AlwaysOnline, NetStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut online = AlwaysOnline;
//! let mut stats = NetStats::new();
//! let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
//! let mut grid = PGrid::new(64, PGridConfig { maxl: 4, ..Default::default() });
//! assert!(grid.build(&BuildOptions::default(), &mut ctx).reached_threshold);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pgrid_baselines as baselines;
pub use pgrid_core as core;
pub use pgrid_keys as keys;
pub use pgrid_net as net;
pub use pgrid_node as node;
pub use pgrid_proto as proto;
pub use pgrid_sim as sim;
pub use pgrid_store as store;
pub use pgrid_trace as trace;
pub use pgrid_wire as wire;
