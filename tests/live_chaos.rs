//! Chaos testing of the live node stack over in-process mailboxes: the
//! shared scenario of `common/chaos.rs` (fault plan, §4 envelope, one
//! crash/restart cycle) for three fixed seeds, plus the clean-run flip side.

#[path = "common/chaos.rs"]
mod chaos;

use chaos::chaos_run;
use pgrid::keys::BitPath;
use pgrid::net::PeerId;
use pgrid::node::{Cluster, ClusterConfig};
use pgrid::wire::WireEntry;

#[test]
fn chaos_seed_1() {
    chaos_run(0xC0A1, Cluster::spawn).shutdown();
}

#[test]
fn chaos_seed_2() {
    chaos_run(0xC0A2, Cluster::spawn).shutdown();
}

#[test]
fn chaos_seed_3() {
    chaos_run(0xC0A3, Cluster::spawn).shutdown();
}

/// The flip side of the envelope: with no fault plan installed, the whole
/// robustness machinery must stay invisible — zero drops, zero retries,
/// zero timeouts (no phantom retransmissions on a healthy network).
#[test]
fn clean_run_has_all_zero_fault_counters() {
    let mut cluster = Cluster::spawn(ClusterConfig {
        n: 16,
        maxl: 3,
        refmax: 3,
        seed: 0xCEA7,
        ..ClusterConfig::default()
    });
    for _ in 0..10 {
        cluster.build(80);
        if cluster.avg_path_len() >= 2.6 {
            break;
        }
    }
    let key = BitPath::from_str_lossy("010");
    let entry = WireEntry {
        item: 3,
        holder: PeerId(2),
        version: 1,
    };
    cluster.seed_index(key, entry);
    for _ in 0..10 {
        let _ = cluster.query(&key);
    }
    cluster.settle();
    let stats = cluster.net_stats();
    assert!(
        stats.is_fault_free(),
        "clean run must not fabricate faults: {stats}"
    );
    cluster.shutdown();
}
