//! Range queries over an order-preserving key space — the structural
//! advantage P-Grid holds over hashing DHTs.
//!
//! A sensor network indexes temperature readings with a [`NumericMapper`]
//! (monotone: warmer reading ⇒ larger key). "Every reading between 18 °C
//! and 24 °C" then decomposes into O(log) trie prefixes and resolves in a
//! handful of messages, instead of enumerating every possible key.
//!
//! ```sh
//! cargo run --release --example range_query
//! ```

use pgrid::core::{BuildOptions, Ctx, IndexEntry, PGrid, PGridConfig};
use pgrid::keys::{range_cover, NumericMapper};
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1000;
const READINGS: usize = 3000;
const KEY_LEN: u8 = 16;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);

    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: 8,
            refmax: 4,
            ..PGridConfig::default()
        },
    );
    grid.build(&BuildOptions::default(), &mut ctx);

    // Index synthetic readings from -20 °C to 50 °C (clustered around 15).
    let mapper = NumericMapper::new(-20.0, 50.0);
    let mut temps = Vec::new();
    for i in 0..READINGS {
        let t: f64 = 15.0 + 10.0 * (ctx.rng.gen::<f64>() + ctx.rng.gen::<f64>() - 1.0);
        temps.push(t);
        let key = mapper.map_value(t, KEY_LEN);
        grid.seed_index(
            key,
            IndexEntry {
                item: ItemId(i as u64),
                holder: PeerId((i % N) as u32),
                version: Version::INITIAL,
            },
        );
    }

    let (lo_t, hi_t) = (18.0, 24.0);
    let lo = mapper.map_value(lo_t, KEY_LEN);
    let hi = mapper.map_value(hi_t, KEY_LEN);
    println!(
        "range [{lo_t} °C, {hi_t} °C] decomposes into {} trie prefixes:",
        range_cover(&lo, &hi).len()
    );
    for prefix in range_cover(&lo, &hi).iter().take(6) {
        println!("  {prefix}");
    }

    let (outcome, entries) = grid.range_entries(PeerId(0), &lo, &hi, &mut ctx);
    let hits: usize = entries.iter().map(|(_, v)| v.len()).sum();
    let expected = temps
        .iter()
        .filter(|&&t| (lo_t..=hi_t).contains(&t))
        .count();
    println!(
        "\nresolved by {} peers in {} messages ({} unresolved subtrees)",
        outcome.peers.len(),
        outcome.messages,
        outcome.unresolved.len()
    );
    println!("readings found: {hits} (ground truth in range: {expected})");
    println!(
        "\nthe same query on a hashing DHT would need one lookup per possible\n\
         key value — here it costs O(log) prefix resolutions regardless of\n\
         the catalogue size"
    );
}
