//! Quickstart: build a P-Grid, index some data, search for it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pgrid::core::{BuildOptions, Ctx, FindStrategy, GridMetrics, IndexEntry, PGrid, PGridConfig};
use pgrid::keys::{HashKeyMapper, KeyMapper};
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Deterministic context: every randomized algorithm draws from one
    // seeded RNG, so this example prints the same thing on every run.
    let mut rng = StdRng::seed_from_u64(2026);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);

    // 1. A community of 256 peers agrees to build a grid of depth 6 with up
    //    to 4 references per level, purely by random pairwise meetings.
    let config = PGridConfig {
        maxl: 6,
        refmax: 4,
        ..PGridConfig::default()
    };
    let mut grid = PGrid::new(256, config);
    let report = grid.build(&BuildOptions::default(), &mut ctx);
    println!(
        "construction: {} exchanges over {} meetings, avg path length {:.2}",
        report.exchange_calls, report.meetings, report.avg_path_len
    );
    grid.check_invariants().expect("structure is valid");

    let metrics = GridMetrics::capture(&grid);
    println!(
        "structure: {} distinct paths, mean replication factor {:.2}, {:.1} refs/peer",
        metrics.distinct_paths, metrics.mean_replicas, metrics.avg_refs_per_peer
    );

    // 2. Index a few named items: their keys are hashes of the names (the
    //    paper's uniform-distribution assumption), insertion routes through
    //    the grid itself.
    let mapper = HashKeyMapper::default();
    let names = ["alpha.mp3", "beta.mp3", "gamma.mp3", "delta.mp3"];
    for (i, name) in names.iter().enumerate() {
        let key = mapper.map(name, 10);
        let entry = IndexEntry {
            item: ItemId(i as u64),
            holder: PeerId((i * 10) as u32),
            version: Version::INITIAL,
        };
        let outcome = grid.insert_item(
            &key,
            entry,
            FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 2,
            },
            &mut ctx,
        );
        println!(
            "insert {name:10} key={key} reached {}/{} replicas with {} messages",
            outcome.updated.len(),
            grid.replicas_of(&key).len(),
            outcome.messages
        );
    }

    // 3. Search: any peer can serve as the entry point.
    for name in names {
        let key = mapper.map(name, 10);
        let (outcome, entries) = grid.search_entries(PeerId(0), &key, &mut ctx);
        match outcome.responsible {
            Some(peer) => println!(
                "search {name:10} -> {peer} in {} messages ({} entries)",
                outcome.messages,
                entries.len()
            ),
            None => println!("search {name:10} -> not found"),
        }
    }

    println!("network totals: {stats}");
}
