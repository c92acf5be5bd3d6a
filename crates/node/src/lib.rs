//! # pgrid-node
//!
//! A **live** P-Grid deployment: every peer is an actor thread that speaks
//! the binary wire protocol ([`pgrid_wire`]) over an in-process transport.
//! This is the "it actually runs as a distributed system" counterpart to the
//! sequential simulator in [`pgrid_core`]:
//!
//! * [`Transport`] — the I/O seam. [`LocalTransport`] routes encoded frames
//!   between threads through in-process mailboxes; [`TcpTransport`] ships
//!   the same frames over real sockets, multiplexing many peers per OS
//!   thread with an event-loop driver — nothing above the seam changes;
//! * [`NodeState`] — the protocol state machine, an alias of
//!   [`pgrid_proto::ProtocolPeer`]: all decision logic (Fig. 2 routing,
//!   Fig. 3 exchange cases, dedup, anti-entropy) lives in the sans-I/O
//!   core crate, shared with the deterministic simulator;
//! * [`Transport::host`] — the one way a peer goes live: a pure I/O shell
//!   decoding frames into events, encoding effects into frames, and owning
//!   the retransmission / failover machinery, run on an actor thread
//!   (mailboxes) or an event-loop worker (sockets);
//! * [`Community`] — spawns a community over either transport
//!   ([`Cluster`], [`TcpCluster`]), drives random meetings, issues queries
//!   from a client endpoint, and snapshots convergence.
//!
//! Unlike the inline simulator, the live cluster is asynchronous and
//! therefore not bit-deterministic under concurrency; its tests assert
//! *invariants* (structure validity, convergence, query soundness). Under
//! sequential driving, a seeded cluster reproduces the decisions of a
//! seeded [`pgrid_proto::SimNet`] exactly — the differential test at the
//! workspace root asserts that.
//!
//! ## Failure model
//!
//! The transport can be wrapped in a deterministic [`FaultPlan`] injecting
//! per-link drop / duplication / reordering / delay, and the cluster can
//! crash and restart whole peers. The node loop survives all of it through
//! hop-level acks with bounded, jittered exponential-backoff retransmission
//! (fixed policies, one pending table per shell), query failover to
//! alternate references, and demotion of repeatedly unresponsive peers (see
//! `DESIGN.md`, "Failure model").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fault;
mod node;
mod state;
mod tcp;
mod transport;

pub use cluster::{Cluster, ClusterConfig, Community, TcpCluster};
pub use fault::FaultPlan;
pub use node::reseed_from_journal;
pub use state::NodeState;
pub use tcp::{TcpTransport, TcpTransportConfig};
pub use transport::{
    Frame, LocalTransport, RegisterError, SendStatus, Transport, DEFAULT_MAILBOX_DEPTH,
};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// The crate's locks ignore poisoning: a shell that panicked mid-update
// leaves state the harness can still read, snapshot and tear down.

fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T: ?Sized>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T: ?Sized>(rw: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rw.write().unwrap_or_else(PoisonError::into_inner)
}
