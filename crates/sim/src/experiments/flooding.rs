//! **Extra — P-Grid vs Gnutella flooding** (the §1 motivation, quantified).
//!
//! The paper motivates P-Grid with the observation that flooding "is
//! extremely costly in terms of communication". We place the same catalogue
//! in a flooding overlay and a P-Grid and compare messages per successful
//! search as the community grows.

use pgrid_baselines::FloodNetwork;
use pgrid_core::{IndexEntry, PGridConfig};
use pgrid_net::{AlwaysOnline, NetStats, PeerId};
use pgrid_store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::FileCatalogue;
use crate::{built_grid, fmt_f, Table};

/// Parameters of the comparison.
#[derive(Clone, Debug)]
pub struct Config {
    /// Community sizes to sweep.
    pub ns: Vec<usize>,
    /// Items in the catalogue per peer.
    pub items_per_peer: usize,
    /// Flooding degree (connections opened per peer).
    pub degree: usize,
    /// Flood TTL.
    pub ttl: u32,
    /// Searches per scale point.
    pub searches: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![250, 500, 1000, 2000],
            items_per_peer: 2,
            degree: 3,
            ttl: 7,
            searches: 200,
            seed: 0xf100d,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            ns: vec![128, 512],
            items_per_peer: 2,
            degree: 3,
            ttl: 7,
            searches: 50,
            seed: 0xf100d,
        }
    }
}

/// One measured scale point.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Community size.
    pub n: usize,
    /// Mean messages per flooding search.
    pub flood_messages: f64,
    /// Flooding hit rate (TTL-limited floods can miss).
    pub flood_success: f64,
    /// Mean messages per P-Grid search.
    pub pgrid_messages: f64,
    /// P-Grid hit rate.
    pub pgrid_success: f64,
}

/// Runs the comparison.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let d = n * cfg.items_per_peer;
        let maxl = ((d as f64).log2().ceil() as usize)
            .saturating_sub(2)
            .clamp(4, 16);
        let key_len = (maxl + 4).min(64) as u8;
        let catalogue = FileCatalogue::generate(d, key_len, cfg.seed);

        // Flooding overlay: every item lives at one random-ish peer.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (n as u64) << 4);
        let mut flood = FloodNetwork::random(n, cfg.degree, &mut rng);
        for (i, key) in catalogue.keys.iter().enumerate() {
            flood.place_key(PeerId((i % n) as u32), *key);
        }
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut fmsgs = 0u64;
        let mut fhits = 0u64;
        for q in 0..cfg.searches {
            let key = catalogue.keys[q % catalogue.len()];
            let start = PeerId(((q * 37) % n) as u32);
            let out = flood.flood_search(start, &key, cfg.ttl, &mut online, &mut rng, &mut stats);
            fmsgs += out.messages;
            fhits += u64::from(out.found);
        }

        // P-Grid with the same catalogue.
        let grid_cfg = PGridConfig {
            maxl,
            refmax: 3,
            ..PGridConfig::default()
        };
        let mut built = built_grid(n, grid_cfg, 1.0, 0.97, None, cfg.seed ^ (n as u64));
        for (i, key) in catalogue.keys.iter().enumerate() {
            built.grid.seed_index(
                *key,
                IndexEntry {
                    item: ItemId(i as u64),
                    holder: PeerId((i % n) as u32),
                    version: Version(0),
                },
            );
        }
        let mut online = AlwaysOnline;
        let (pmsgs, phits) = built.with_ctx(&mut online, |grid, ctx| {
            let mut msgs = 0u64;
            let mut hits = 0u64;
            for q in 0..cfg.searches {
                let key = catalogue.keys[q % catalogue.len()];
                let start = grid.random_peer(ctx);
                let (out, entries) = grid.search_entries_ref(start, &key, ctx);
                msgs += out.messages;
                hits += u64::from(out.responsible.is_some() && !entries.is_empty());
            }
            (msgs, hits)
        });

        rows.push(Row {
            n,
            flood_messages: fmsgs as f64 / cfg.searches as f64,
            flood_success: fhits as f64 / cfg.searches as f64,
            pgrid_messages: pmsgs as f64 / cfg.searches as f64,
            pgrid_success: phits as f64 / cfg.searches as f64,
        });
    }

    let mut table = Table::new(
        "Baseline: Gnutella flooding vs P-Grid (messages per search)",
        &[
            "N",
            "flood msgs",
            "flood hit rate",
            "pgrid msgs",
            "pgrid hit rate",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.n.to_string(),
            fmt_f(r.flood_messages, 1),
            fmt_f(r.flood_success, 3),
            fmt_f(r.pgrid_messages, 2),
            fmt_f(r.pgrid_success, 3),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgrid_is_orders_of_magnitude_cheaper() {
        let (rows, _) = run(&Config::small());
        for r in &rows {
            assert!(
                r.pgrid_messages * 5.0 < r.flood_messages,
                "P-Grid ({}) must beat flooding ({}) clearly at N={}",
                r.pgrid_messages,
                r.flood_messages,
                r.n
            );
            assert!(r.pgrid_success > 0.9, "P-Grid hit rate {}", r.pgrid_success);
        }
    }

    #[test]
    fn flooding_cost_grows_with_n_pgrid_stays_flat() {
        let (rows, _) = run(&Config::small());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.flood_messages > first.flood_messages * 1.5);
        assert!(last.pgrid_messages < first.pgrid_messages * 2.5);
    }
}
