//! Live deployment: every peer is a node shell speaking the binary wire
//! protocol over real loopback TCP sockets, 64 peers multiplexed on two
//! event-loop worker threads. The same algorithms as the simulator, but
//! asynchronous and message-passing — the shape a real P-Grid node would
//! take.
//!
//! ```sh
//! cargo run --release --example live_network
//! ```

use pgrid::keys::{BitPath, HashKeyMapper, KeyMapper};
use pgrid::net::PeerId;
use pgrid::node::{ClusterConfig, TcpCluster};
use pgrid::wire::WireEntry;

/// Event-loop worker threads carrying every peer's sockets.
const WORKERS: usize = 2;

fn main() {
    let config = ClusterConfig {
        n: 64,
        maxl: 5,
        refmax: 3,
        recmax: 2,
        recfanout: 2,
        ttl: 64,
        seed: 42,
        ..ClusterConfig::default()
    };
    println!(
        "spawning {} nodes on {WORKERS} socket workers (maxl={}, refmax={})...",
        config.n, config.maxl, config.refmax
    );
    let mut cluster = TcpCluster::spawn(config, WORKERS);

    // Drive waves of random meetings until the structure converges.
    let mut waves = 0;
    while cluster.avg_path_len() < 0.95 * config.maxl as f64 && waves < 60 {
        cluster.build(300);
        waves += 1;
    }
    println!(
        "converged after {waves} waves: avg path length {:.2}",
        cluster.avg_path_len()
    );
    cluster
        .check_invariants()
        .expect("live structure satisfies the reference property");

    // Show a few node paths.
    let mut paths = cluster.paths();
    paths.truncate(8);
    for (id, path) in &paths {
        println!("  {id}: path {path}");
    }

    // Index three items through the protocol and query them back.
    let mapper = HashKeyMapper::default();
    let names = ["report.pdf", "song.mp3", "video.mkv"];
    for (i, name) in names.iter().enumerate() {
        let key = mapper.map(name, 10);
        cluster.insert(
            key,
            WireEntry {
                item: i as u64,
                holder: PeerId(i as u32),
                version: 0,
            },
        );
    }
    cluster.settle();

    println!("\nqueries through the wire protocol:");
    for name in names {
        let key = mapper.map(name, 10);
        // The protocol insert lands at *one* replica; different searches can
        // end at different replicas of the same path, so repeat the query
        // until a copy-holding replica answers (the paper's repeated-search
        // read, §5.2).
        let mut answer = None;
        let mut attempts = 0;
        for _ in 0..8 {
            attempts += 1;
            match cluster.query(&key) {
                Some((responsible, entries)) if !entries.is_empty() => {
                    answer = Some((responsible, entries));
                    break;
                }
                other => answer = answer.or(other),
            }
        }
        match answer {
            Some((responsible, entries)) => println!(
                "  {name:<12} key {key} -> answered by {responsible} ({} entries, {attempts} searches)",
                entries.len()
            ),
            None => println!("  {name:<12} key {key} -> no answer"),
        }
    }

    // A query for a region no item hashes to still routes somewhere sound.
    let empty_key = BitPath::from_str_lossy("00000");
    match cluster.query(&empty_key) {
        Some((responsible, entries)) => println!(
            "  {empty_key:<12} (no data)   -> answered by {responsible} ({} entries)",
            entries.len()
        ),
        None => println!("  {empty_key:<12} -> no answer"),
    }

    cluster.shutdown();
    println!("\nall socket workers joined cleanly");
}
