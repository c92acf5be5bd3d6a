//! Differential test of the node shell on the virtual clock against the
//! **socket** deployment.
//!
//! The same scripted run as `differential_sim_node.rs` — a fixed meeting
//! schedule, then inserts, then queries — executes twice per seed:
//!
//! * through [`pgrid::node::SimCluster`], every shell on the test thread
//!   and every frame in one deterministic queue, and
//! * through [`pgrid::node::TcpCluster`], the event-loop deployment where
//!   every frame crosses a real loopback TCP socket and many peer shells
//!   share a fixed worker pool,
//!
//! with identical per-node seeds and `recmax = 0` so every causal chain is
//! strictly sequential. Why byte-equality survives real sockets: all
//! protocol decisions live in [`pgrid::proto::ProtocolPeer`]; TCP preserves
//! per-link FIFO order exactly like the virtual queue; strict
//! settle-after-every-operation sequencing removes cross-link races; and on
//! a clean loopback the one-way latency sits far below the 60 ms ack-retry
//! base, so no spurious retransmissions perturb the dedup state. The two
//! runs must therefore converge to **equal** partitions (paths, references,
//! indexes, buddies per node) that leave no key uncovered, and return
//! **identical** query answers — checked for two seeds.

#[path = "common/differential.rs"]
mod differential;

use pgrid::node::TcpCluster;

const WORKERS: usize = 2;

#[test]
fn sim_and_tcp_cluster_runs_converge_identically() {
    differential::assert_sim_equals_live(|config| TcpCluster::spawn(config, WORKERS));
}
