//! The scripted differential run shared by `differential_sim_node.rs`
//! (mailboxes) and `differential_sim_tcp.rs` (sockets): a fixed meeting
//! schedule, then inserts, then queries, through the inline [`SimNet`]
//! driver and through a live [`Community`] over whichever transport the
//! caller spawns.

use pgrid::core::{IndexEntry, PeerSnapshot};
use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, Community, Transport};
use pgrid::proto::{ProtocolPeer, SimNet};
use pgrid::store::{ItemId, Version};
use pgrid::wire::WireEntry;

const N: usize = 6;
const MAXL: usize = 3;
const REFMAX: usize = 2;
const RECFANOUT: usize = 2;
const TTL: u16 = 32;

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

fn snapshot_of(peer: &ProtocolPeer) -> PeerSnapshot {
    PeerSnapshot {
        id: peer.id,
        path: peer.path,
        refs: peer.refs.clone(),
        index: peer
            .index
            .iter()
            .map(|(k, entries)| {
                (
                    *k,
                    entries
                        .iter()
                        .map(|e| IndexEntry {
                            item: ItemId(e.item),
                            holder: e.holder,
                            version: Version(e.version),
                        })
                        .collect(),
                )
            })
            .collect(),
        buddies: peer.buddies.clone(),
        hosted: Vec::new(),
        misplaced: peer.misplaced,
    }
}

type Answers = Vec<Option<(PeerId, Vec<WireEntry>)>>;

/// The scripted run through the inline driver.
fn run_sim(seed: u64) -> (Vec<PeerSnapshot>, Answers) {
    let client = PeerId(u32::MAX - 1);
    let mut net = SimNet::new(client);
    for i in 0..N {
        let mut peer = ProtocolPeer::new(PeerId(i as u32), MAXL, REFMAX, RECFANOUT);
        peer.recmax = 0;
        net.add_peer(peer, seed ^ ((i as u64) << 20));
    }
    for (a, b) in meetings() {
        net.meet(PeerId(a), PeerId(b));
    }
    // The live cluster stamps inserts and queries from one client-side
    // sequence counter starting at 1 — mirror it exactly.
    let mut seq = 1u64;
    for (key, item, node) in inserts() {
        net.insert(PeerId(node), seq, BitPath::from_str_lossy(key), entry(item));
        seq += 1;
    }
    let mut answers = Vec::new();
    for (key, node) in queries() {
        answers.push(net.query(PeerId(node), seq, BitPath::from_str_lossy(key), TTL));
        seq += 1;
    }
    let snaps = net
        .peer_ids()
        .iter()
        .map(|id| snapshot_of(net.peer(*id)))
        .collect();
    (snaps, answers)
}

/// The same scripted run through a live community, strictly sequenced:
/// every operation settles before the next starts, so the frame orderings
/// the deployment produces coincide with the FIFO driver's.
fn run_live<T: Transport>(
    seed: u64,
    spawn: impl FnOnce(ClusterConfig) -> Community<T>,
) -> (Vec<PeerSnapshot>, Answers) {
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
    let snaps = cluster.to_snapshot().peers;
    cluster.shutdown();
    (snaps, answers)
}

/// Runs the script through [`SimNet`] and through the community `spawn`
/// builds, for two seeds, and asserts both end in equal partitions with
/// identical answers.
pub fn assert_sim_equals_live<T: Transport>(spawn: impl Fn(ClusterConfig) -> Community<T>) {
    for seed in [7u64, 1717] {
        let (sim_snaps, sim_answers) = run_sim(seed);
        let (cluster_snaps, cluster_answers) = run_live(seed, &spawn);

        // The run must be non-trivial: the community partitioned and at
        // least one query came back with the inserted entry.
        let total_path: usize = sim_snaps.iter().map(|p| p.path.len()).sum();
        assert!(total_path > 0, "seed {seed}: nobody specialized");
        assert!(
            sim_answers.iter().flatten().any(|(_, e)| !e.is_empty()),
            "seed {seed}: no query returned data"
        );

        assert_eq!(
            sim_answers, cluster_answers,
            "seed {seed}: query answers diverged between drivers"
        );
        assert_eq!(sim_snaps.len(), cluster_snaps.len());
        for (s, c) in sim_snaps.iter().zip(&cluster_snaps) {
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
