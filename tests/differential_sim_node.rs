//! Differential test of the sans-I/O protocol core's two drivers.
//!
//! The same scripted run — a fixed meeting schedule, then inserts, then
//! queries — executes twice per seed:
//!
//! * through [`pgrid::proto::SimNet`], the inline FIFO driver, and
//! * through [`pgrid::node::Cluster`], the live actor deployment (threads,
//!   wire codec, acks, retransmission timers),
//!
//! with identical per-node seeds and `recmax = 0` so every causal chain is
//! strictly sequential (recursion would let independent exchange chains
//! interleave differently under threads). Because all protocol decisions
//! live in [`pgrid::proto::ProtocolPeer`] and both drivers feed it the same
//! frame→event mapping, the two runs must converge to **equal** partitions
//! (paths, references, indexes, buddies per node) and return **identical**
//! query answers — checked for two seeds.

#[path = "common/differential.rs"]
mod differential;

use pgrid::node::Cluster;

#[test]
fn sim_and_cluster_runs_converge_identically() {
    differential::assert_sim_equals_live(Cluster::spawn);
}
