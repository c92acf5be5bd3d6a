//! Data inserted *before* the live structure converges must still be
//! discoverable afterwards: nodes re-route index entries whenever their
//! path specializes past the entries' keys.

use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, SimCluster};
use pgrid::wire::WireEntry;

#[test]
fn early_inserts_survive_construction() {
    let mut cluster = SimCluster::spawn(ClusterConfig {
        n: 40,
        maxl: 4,
        refmax: 3,
        seed: 61,
        ..ClusterConfig::default()
    });

    // Insert items into the *flat* community (everyone still at the root).
    let keys: Vec<BitPath> = (0..8u128).map(|v| BitPath::from_value(v * 2, 4)).collect();
    for (i, key) in keys.iter().enumerate() {
        cluster.insert(
            *key,
            WireEntry {
                item: i as u64,
                holder: PeerId(0),
                version: 0,
            },
        );
    }
    cluster.settle();

    // Now let the structure form around the data.
    for _ in 0..40 {
        cluster.build(200);
        if cluster.avg_path_len() >= 3.6 {
            break;
        }
    }
    cluster.check_invariants().unwrap();

    // Every early insert must still be reachable through queries.
    let mut found = 0;
    for (i, key) in keys.iter().enumerate() {
        for _ in 0..6 {
            if let Some((_, entries)) = cluster.query(key) {
                if entries.iter().any(|e| e.item == i as u64) {
                    found += 1;
                    break;
                }
            }
        }
    }
    assert!(
        found >= 6,
        "early inserts must survive specialization: {found}/8"
    );
    cluster.shutdown();
}
