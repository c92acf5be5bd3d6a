//! File-sharing scenario: the paper's §1 motivation, quantified.
//!
//! A community shares a catalogue of files. We index the same catalogue in
//! (a) a Gnutella-style flooding overlay and (b) a P-Grid, then compare the
//! message cost and hit rate of searches.
//!
//! ```sh
//! cargo run --release --example filesharing
//! ```

use pgrid::baselines::FloodNetwork;
use pgrid::core::{BuildOptions, Ctx, IndexEntry, PGrid, PGridConfig};
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::sim::workload::{FileCatalogue, Zipf};
use pgrid::store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 2000;
const FILES: usize = 4000;
const SEARCHES: usize = 500;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let catalogue = FileCatalogue::generate(FILES, 16, 99);
    let zipf = Zipf::new(FILES, 0.9); // realistic popularity skew in *queries*

    // --- Gnutella flooding overlay -------------------------------------
    let mut flood = FloodNetwork::random(N, 3, &mut rng);
    for (i, key) in catalogue.keys.iter().enumerate() {
        flood.place_key(PeerId((i % N) as u32), *key);
    }
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut flood_msgs = 0u64;
    let mut flood_hits = 0u64;
    for q in 0..SEARCHES {
        let rank = zipf.sample(&mut rng);
        let out = flood.flood_search(
            PeerId(((q * 13) % N) as u32),
            &catalogue.keys[rank],
            7,
            &mut online,
            &mut rng,
            &mut stats,
        );
        flood_msgs += out.messages;
        flood_hits += u64::from(out.found);
    }

    // --- P-Grid ---------------------------------------------------------
    let mut grid_stats = NetStats::new();
    let mut online2 = AlwaysOnline;
    let mut ctx = Ctx::new(&mut rng, &mut online2, &mut grid_stats);
    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: 9,
            refmax: 4,
            ..PGridConfig::default()
        },
    );
    let build = grid.build(&BuildOptions::default(), &mut ctx);
    for (i, key) in catalogue.keys.iter().enumerate() {
        grid.seed_index(
            *key,
            IndexEntry {
                item: ItemId(i as u64),
                holder: PeerId((i % N) as u32),
                version: Version::INITIAL,
            },
        );
    }
    let mut grid_msgs = 0u64;
    let mut grid_hits = 0u64;
    for _ in 0..SEARCHES {
        let rank = zipf.sample(ctx.rng);
        let start = grid.random_peer(&mut ctx);
        let (out, entries) = grid.search_entries(start, &catalogue.keys[rank], &mut ctx);
        grid_msgs += out.messages;
        grid_hits += u64::from(out.responsible.is_some() && !entries.is_empty());
    }

    // --- Report ----------------------------------------------------------
    println!("file sharing: {N} peers, {FILES} files, {SEARCHES} zipf-popular searches\n");
    println!("{:<22} {:>14} {:>10}", "system", "msgs/search", "hit rate");
    println!("{}", "-".repeat(48));
    println!(
        "{:<22} {:>14.1} {:>10.3}",
        "Gnutella flooding",
        flood_msgs as f64 / SEARCHES as f64,
        flood_hits as f64 / SEARCHES as f64
    );
    println!(
        "{:<22} {:>14.1} {:>10.3}",
        "P-Grid",
        grid_msgs as f64 / SEARCHES as f64,
        grid_hits as f64 / SEARCHES as f64
    );
    println!(
        "\nP-Grid construction amortized: {} exchanges ({:.1} per peer)",
        build.exchange_calls,
        build.exchange_calls as f64 / N as f64
    );
    let amortize_after =
        build.exchange_calls as f64 / (flood_msgs as f64 / SEARCHES as f64).max(1.0);
    println!("construction pays for itself after ~{amortize_after:.0} searches (vs flooding cost)");
}
