//! Membership churn on the live cluster: nodes die abruptly, new nodes
//! join, and the community keeps answering queries.

use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, SimCluster};
use pgrid::wire::WireEntry;

fn converged_cluster(n: usize, seed: u64) -> SimCluster {
    let mut cluster = SimCluster::spawn(ClusterConfig {
        n,
        maxl: 4,
        refmax: 3,
        seed,
        ..ClusterConfig::default()
    });
    for _ in 0..50 {
        cluster.build(250);
        if cluster.avg_path_len() >= 3.6 {
            break;
        }
    }
    cluster
}

#[test]
fn queries_survive_node_deaths() {
    let mut cluster = converged_cluster(48, 31);
    let key = BitPath::from_str_lossy("0110");
    let entry = WireEntry {
        item: 1,
        holder: PeerId(0),
        version: 0,
    };
    cluster.seed_index(key, entry);

    // Kill a quarter of the community, but never the *last* node of an
    // exact-path group: path assignment varies with the seed, and wiping
    // out every replica of the queried subtree
    // would make failure the *correct* outcome rather than a protocol
    // weakness.
    let mut remaining: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for (_, path) in cluster.paths() {
        *remaining.entry(path).or_insert(0) += 1;
    }
    let mut victims: Vec<PeerId> = Vec::new();
    for (id, path) in cluster.paths() {
        if victims.len() == 12 {
            break;
        }
        let slot = remaining.get_mut(&path).unwrap();
        if *slot > 1 {
            *slot -= 1;
            victims.push(id);
        }
    }
    assert_eq!(victims.len(), 12, "enough redundancy to pick victims");
    for v in &victims {
        cluster.kill_node(*v);
    }
    cluster.settle();
    cluster.check_invariants().unwrap();

    let mut successes = 0;
    let mut with_entry = 0;
    for _ in 0..30 {
        if let Some((responsible, entries)) = cluster.query(&key) {
            assert!(!victims.contains(&responsible), "a dead node cannot answer");
            successes += 1;
            if entries.contains(&entry) {
                with_entry += 1;
            }
        }
    }
    // Random DFS without backtracking can dead-end at a stale reference, so
    // individual queries may fail — but most must get through.
    assert!(successes >= 15, "queries survive deaths: {successes}/30");
    assert!(with_entry >= 10, "data survives deaths: {with_entry}/30");

    // Failed deliveries prune stale references on the spot, so the query
    // traffic above must have cleaned up at least some pointers to the dead.
    let stale_refs: usize = cluster
        .debug_dump_refs()
        .into_iter()
        .filter(|(owner, target)| !victims.contains(owner) && victims.contains(target))
        .count();
    let total_refs: usize = cluster
        .debug_dump_refs()
        .into_iter()
        .filter(|(owner, _)| !victims.contains(owner))
        .count();
    assert!(
        stale_refs * 2 < total_refs + 1,
        "query traffic should have pruned many stale refs: {stale_refs}/{total_refs}"
    );
    cluster.shutdown();
}

#[test]
fn joined_nodes_integrate() {
    let mut cluster = converged_cluster(32, 32);
    let before = cluster.avg_path_len();
    let newcomers: Vec<PeerId> = (0..4).map(|_| cluster.add_node()).collect();
    // New nodes start at the root and specialize through ordinary meetings.
    for _ in 0..30 {
        cluster.build(200);
        let all_deep = newcomers
            .iter()
            .all(|id| !cluster.paths()[id.index()].1.is_empty());
        if all_deep {
            break;
        }
    }
    cluster.check_invariants().unwrap();
    for id in &newcomers {
        let (_, path) = &cluster.paths()[id.index()];
        assert!(
            !path.is_empty(),
            "newcomer {id} never specialized (paths: {:?})",
            cluster.paths().len()
        );
    }
    // The established structure was not wrecked by the joins.
    assert!(cluster.avg_path_len() > before * 0.8);
    cluster.shutdown();
}

#[test]
fn kill_then_join_cycle() {
    let mut cluster = converged_cluster(24, 33);
    cluster.kill_node(PeerId(3));
    cluster.kill_node(PeerId(17));
    let fresh = cluster.add_node();
    for _ in 0..20 {
        cluster.build(150);
        if !cluster.paths()[fresh.index()].1.is_empty() {
            break;
        }
    }
    cluster.check_invariants().unwrap();
    assert_eq!(cluster.live_nodes().len(), 24 - 2 + 1);
    // Queries still work end to end.
    let mut ok = 0;
    for _ in 0..10 {
        if cluster.query(&BitPath::from_str_lossy("10")).is_some() {
            ok += 1;
        }
    }
    assert!(ok >= 7, "cluster stays operational: {ok}/10");
    cluster.shutdown();
}
