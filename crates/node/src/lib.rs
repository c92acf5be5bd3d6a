//! # pgrid-node
//!
//! A **live** P-Grid deployment: every peer is a node shell that speaks
//! the binary wire protocol ([`pgrid_wire`]) over a transport. This is the
//! "it actually runs as a distributed system" counterpart to the
//! sequential simulator in [`pgrid_core`]:
//!
//! * [`Transport`] — the I/O seam. [`TcpTransport`] ships encoded frames
//!   over real sockets, multiplexing many peers per OS thread with an
//!   event-loop driver; [`SimTransport`] queues them on a virtual clock and
//!   runs every shell on the caller's thread — nothing above the seam
//!   changes;
//! * [`NodeState`] — the protocol state machine, an alias of
//!   [`pgrid_proto::ProtocolPeer`]: all decision logic (Fig. 2 routing,
//!   Fig. 3 exchange cases, dedup, anti-entropy) lives in the sans-I/O
//!   core crate;
//! * [`Transport::host`] — the one way a peer goes live: a pure I/O shell
//!   decoding frames into events, encoding effects into frames, and owning
//!   the retransmission / failover machinery, run on an event-loop worker
//!   (sockets) or the driving thread (virtual clock);
//! * [`Community`] — spawns a community over either transport
//!   ([`TcpCluster`], [`SimCluster`]), drives random meetings, issues
//!   queries from a client endpoint, and snapshots convergence.
//!
//! Over sockets the community is asynchronous and therefore not
//! bit-deterministic under concurrency; those tests assert *invariants*
//! (structure validity, convergence, query soundness). On the virtual
//! clock a seed fixes the whole run, recursion and faults included. Under
//! sequential driving, a seeded socket community reproduces the decisions
//! of the seeded [`SimCluster`] exactly — the differential test at the
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
mod sim;
mod state;
mod tcp;
mod transport;

pub use cluster::{Cluster, ClusterConfig, Community, SimCluster, TcpCluster};
pub use fault::FaultPlan;
pub use node::reseed_from_journal;
pub use sim::SimTransport;
pub use state::NodeState;
pub use tcp::{TcpTransport, TcpTransportConfig, DEFAULT_WRITE_QUEUE_DEPTH};
pub use transport::{Frame, SendStatus, Transport};

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
