//! Differential test of the node shell on the virtual clock against the
//! **socket** deployment.
//!
//! The same scripted run — a fixed meeting schedule, then inserts, then
//! queries — executes twice per seed:
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

use pgrid::core::GridSnapshot;
use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, Community, SimCluster, TcpCluster, Transport};
use pgrid::wire::WireEntry;

const N: usize = 6;
const MAXL: usize = 3;
const REFMAX: usize = 2;
const RECFANOUT: usize = 2;
const TTL: u16 = 32;
const WORKERS: usize = 2;

/// The scripted run: deterministic meetings (two sweeps over a fixed
/// pairing), then inserts entering at fixed nodes, then queries entering at
/// fixed nodes.
fn meetings() -> Vec<(u32, u32)> {
    let sweep = [
        (0, 1),
        (2, 3),
        (4, 5),
        (0, 2),
        (1, 3),
        (2, 4),
        (3, 5),
        (0, 4),
        (1, 5),
        (0, 3),
        (1, 4),
        (2, 5),
        (0, 5),
        (1, 2),
        (3, 4),
    ];
    let mut out = Vec::new();
    out.extend_from_slice(&sweep);
    out.extend_from_slice(&sweep);
    out
}

fn inserts() -> Vec<(&'static str, u64, u32)> {
    // (key, item, entry node)
    vec![("000", 1, 0), ("011", 2, 1), ("101", 3, 2), ("110", 4, 3)]
}

fn queries() -> Vec<(&'static str, u32)> {
    // (key, entry node)
    vec![
        ("000", 4),
        ("000", 5),
        ("011", 0),
        ("011", 5),
        ("101", 1),
        ("101", 4),
        ("110", 0),
        ("110", 2),
    ]
}

fn entry(item: u64) -> WireEntry {
    WireEntry {
        item,
        holder: PeerId(42),
        version: 1,
    }
}

type Answers = Vec<Option<(PeerId, Vec<WireEntry>)>>;

/// The scripted run through a community, strictly sequenced: every
/// operation settles before the next starts, so the frame orderings a
/// threaded deployment produces coincide with the virtual clock's.
fn run_live<T: Transport>(
    seed: u64,
    spawn: impl FnOnce(ClusterConfig) -> Community<T>,
) -> (GridSnapshot, Answers) {
    let mut cluster = spawn(ClusterConfig {
        n: N,
        maxl: MAXL,
        refmax: REFMAX,
        recmax: 0,
        recfanout: RECFANOUT,
        ttl: TTL,
        seed,
        ..ClusterConfig::default()
    });
    for (a, b) in meetings() {
        cluster.meet(PeerId(a), PeerId(b));
        cluster.settle();
    }
    for (key, item, node) in inserts() {
        cluster.insert_at(BitPath::from_str_lossy(key), entry(item), PeerId(node));
        cluster.settle();
    }
    let mut answers = Vec::new();
    for (key, node) in queries() {
        answers.push(cluster.query_once_at(&BitPath::from_str_lossy(key), PeerId(node)));
        cluster.settle();
    }
    let snapshot = cluster.to_snapshot();
    cluster.shutdown();
    (snapshot, answers)
}

#[test]
fn sim_and_tcp_cluster_runs_converge_identically() {
    for seed in [7u64, 1717] {
        let (sim, sim_answers) = run_live(seed, SimCluster::spawn);
        let (cluster, cluster_answers) =
            run_live(seed, |config| TcpCluster::spawn(config, WORKERS));

        // The run must be non-trivial: the community partitioned and at
        // least one query came back with the inserted entry.
        let total_path: usize = sim.peers.iter().map(|p| p.path.len()).sum();
        assert!(total_path > 0, "seed {seed}: nobody specialized");
        assert!(
            sim_answers.iter().flatten().any(|(_, e)| !e.is_empty()),
            "seed {seed}: no query returned data"
        );
        for (side, snapshot) in [("sim", &sim), ("cluster", &cluster)] {
            let holes = snapshot.uncovered();
            assert!(holes.is_empty(), "seed {seed}, {side}: uncovered {holes:?}");
        }

        assert_eq!(
            sim_answers, cluster_answers,
            "seed {seed}: query answers diverged between drivers"
        );
        assert_eq!(sim.peers.len(), cluster.peers.len());
        for (s, c) in sim.peers.iter().zip(&cluster.peers) {
            assert_eq!(s.path, c.path, "seed {seed}, node {}: paths diverged", s.id);
            assert_eq!(s.refs, c.refs, "seed {seed}, node {}: refs diverged", s.id);
            assert_eq!(
                s.index, c.index,
                "seed {seed}, node {}: index diverged",
                s.id
            );
            assert_eq!(
                s.buddies, c.buddies,
                "seed {seed}, node {}: buddies diverged",
                s.id
            );
        }
    }
}
