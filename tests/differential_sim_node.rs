//! Differential test of the node shell on the virtual clock against the
//! same shell on threads.
//!
//! The same scripted run — a fixed meeting schedule, then inserts, then
//! queries — executes twice per seed:
//!
//! * through [`pgrid::node::SimCluster`], every shell on the test thread
//!   and every frame in one deterministic queue, and
//! * through [`pgrid::node::Cluster`], the actor deployment (one thread
//!   per peer, mailboxes, wall-clock retransmission timers),
//!
//! with identical per-node seeds and `recmax = 0` so every causal chain is
//! strictly sequential (recursion would let independent exchange chains
//! interleave differently under threads). Because all protocol decisions
//! live in [`pgrid::proto::ProtocolPeer`] and both sides run the one node
//! shell that feeds it, the two runs must converge to **equal** partitions
//! (paths, references, indexes, buddies per node) that leave no key
//! uncovered, and return **identical** query answers — checked for two
//! seeds.

#[path = "common/differential.rs"]
mod differential;

use pgrid::node::Cluster;

#[test]
fn sim_and_cluster_runs_converge_identically() {
    differential::assert_sim_equals_live(Cluster::spawn);
}
