//! The live→sim bridge: a community built by the node shells on the
//! virtual clock snapshots into the analysis tooling — metrics,
//! invariants, simulator search — and survives a JSON round trip.

use pgrid::core::{Ctx, GridMetrics, GridSnapshot};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::node::{ClusterConfig, SimCluster};
use pgrid::wire::WireEntry;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn live_cluster_snapshot_analyzes_in_the_simulator() {
    let mut cluster = SimCluster::spawn(ClusterConfig {
        n: 48,
        maxl: 4,
        refmax: 3,
        seed: 71,
        ..ClusterConfig::default()
    });
    for _ in 0..50 {
        cluster.build(250);
        if cluster.avg_path_len() >= 3.7 {
            break;
        }
    }
    let key = BitPath::from_str_lossy("0110");
    cluster.seed_index(
        key,
        WireEntry {
            item: 9,
            holder: PeerId(2),
            version: 1,
        },
    );

    // Snapshot the live community and shut it down.
    let snapshot = cluster.to_snapshot();
    let live_avg = cluster.avg_path_len();
    cluster.shutdown();

    // JSON round trip, then restore into the deterministic grid.
    let json = snapshot.to_json();
    let grid = GridSnapshot::from_json(&json)
        .expect("parse")
        .restore()
        .expect("a live-built structure satisfies the invariants");
    assert_eq!(grid.len(), 48);
    assert!((grid.avg_path_len() - live_avg).abs() < 1e-9);

    // Analyze with the sim-side metrics.
    let metrics = GridMetrics::capture(&grid);
    assert!(metrics.avg_path_len >= 3.0);
    assert!(metrics.avg_refs_per_peer > 0.0);

    // And run deterministic searches over the live-built structure.
    let mut rng = StdRng::seed_from_u64(5);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut hits = 0;
    for v in 0..16u128 {
        let probe = BitPath::from_value(v, 4);
        if let Some(peer) = grid.search(PeerId(0), &probe, &mut ctx).responsible {
            assert!(grid.peer(peer).responsible_for(&probe));
            hits += 1;
        }
    }
    assert!(hits >= 13, "live-built structure routes well: {hits}/16");

    // The seeded entry crossed the bridge too.
    let (_, entries) = grid.search_entries(PeerId(1), &key, &mut ctx);
    assert!(
        entries.iter().any(|e| e.item == pgrid::store::ItemId(9)),
        "index entries survive the bridge"
    );
}
