//! **§6 — P-Grid vs central server scaling** (the discussion table).
//!
//! | | P-Grid | Central server |
//! |---|---|---|
//! | Storage | peers: `O(log D)` | server: `O(D)`, client: constant |
//! | Query | peers: `O(log N)` | server: `O(N)`, client: constant |
//!
//! We sweep the community size (with the catalogue growing proportionally,
//! as in a file-sharing network) and measure (a) the *maximum per-node*
//! storage and (b) the *maximum per-node* query message load when every
//! peer issues one query. For P-Grid both grow logarithmically; for the
//! central server both grow linearly — the bottleneck the paper points at.

use pgrid_baselines::CentralServer;
use pgrid_core::{IndexEntry, PGridConfig};
use pgrid_net::{NetStats, PeerId};
use pgrid_store::{ItemId, Version};

use crate::workload::FileCatalogue;
use crate::{built_grid, fmt_f, Table};

/// Parameters of the scaling sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Community sizes to sweep.
    pub ns: Vec<usize>,
    /// Data items per peer (catalogue size = `items_per_peer * n`).
    pub items_per_peer: usize,
    /// References per level.
    pub refmax: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![250, 500, 1000, 2000, 4000],
            items_per_peer: 2,
            refmax: 3,
            seed: 0x5ca1,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            ns: vec![128, 256, 512],
            items_per_peer: 2,
            refmax: 3,
            seed: 0x5ca1,
        }
    }
}

/// One measured scale point.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Community size.
    pub n: usize,
    /// Catalogue size `D`.
    pub d: usize,
    /// Median per-peer storage (index entries + references) in the grid.
    pub pgrid_median_storage: usize,
    /// Largest per-peer storage — dominated by the few peers that had not
    /// yet fully specialized when construction stopped.
    pub pgrid_max_storage: usize,
    /// Mean messages per P-Grid query (per-peer load ≈ this value, since
    /// hops spread uniformly over the community).
    pub pgrid_query_messages: f64,
    /// Central server storage (`O(D)`).
    pub central_storage: usize,
    /// Central server messages handled for `n` client queries (`O(N)`).
    pub central_server_messages: u64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let d = n * cfg.items_per_peer;
        // Key length that keeps a few items per leaf: log2(D) - 2, bounded.
        let maxl = ((d as f64).log2().ceil() as usize)
            .saturating_sub(2)
            .clamp(4, 16);
        let key_len = (maxl + 4).min(64) as u8;
        let catalogue = FileCatalogue::generate(d, key_len, cfg.seed);

        // P-Grid side.
        let grid_cfg = PGridConfig {
            maxl,
            refmax: cfg.refmax,
            ..PGridConfig::default()
        };
        let mut built = built_grid(n, grid_cfg, 1.0, 0.995, None, cfg.seed ^ (n as u64));
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
        let mut storage: Vec<usize> = built.grid.peers().map(|p| p.storage_cost()).collect();
        storage.sort_unstable();
        let pgrid_median_storage = storage[storage.len() / 2];
        let pgrid_max_storage = *storage.last().unwrap();
        let mut online = pgrid_net::AlwaysOnline;
        let query_messages = built.with_ctx(&mut online, |grid, ctx| {
            let mut msgs = 0u64;
            for q in 0..n {
                let key = catalogue.keys[q * catalogue.len() / n % catalogue.len()];
                let start = grid.random_peer(ctx);
                msgs += grid.search(start, &key, ctx).messages;
            }
            msgs as f64 / n as f64
        });

        // Central server side.
        let mut server = CentralServer::new();
        let mut stats = NetStats::new();
        for (i, key) in catalogue.keys.iter().enumerate() {
            server.register(*key, PeerId((i % n) as u32), &mut stats);
        }
        let registrations = server.server_messages;
        for q in 0..n {
            server.query(&catalogue.keys[q % catalogue.len()], &mut stats);
        }
        rows.push(Row {
            n,
            d,
            pgrid_median_storage,
            pgrid_max_storage,
            pgrid_query_messages: query_messages,
            central_storage: server.storage(),
            central_server_messages: server.server_messages - registrations,
        });
    }

    let mut table = Table::new(
        "S6: P-Grid vs central server scaling (per-node storage & query load)",
        &[
            "N",
            "D",
            "pgrid median storage",
            "pgrid max storage",
            "pgrid msgs/query",
            "server storage",
            "server msgs (N queries)",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.n.to_string(),
            r.d.to_string(),
            r.pgrid_median_storage.to_string(),
            r.pgrid_max_storage.to_string(),
            fmt_f(r.pgrid_query_messages, 2),
            r.central_storage.to_string(),
            r.central_server_messages.to_string(),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_server_scales_linearly_pgrid_does_not() {
        let (rows, _) = run(&Config::small());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        let scale = last.n as f64 / first.n as f64;
        // Server load is exactly linear in N.
        assert_eq!(last.central_server_messages, last.n as u64);
        assert!((last.central_storage as f64 / first.central_storage as f64 - scale).abs() < 0.1);
        // P-Grid per-query messages grow sub-linearly (log-ish).
        let growth = last.pgrid_query_messages / first.pgrid_query_messages.max(0.1);
        assert!(
            growth < scale / 1.5,
            "P-Grid query cost must grow sublinearly: {growth} vs size factor {scale}"
        );
        // Typical P-Grid per-peer storage stays far below the server's O(D).
        assert!(
            (last.pgrid_median_storage as f64) < last.central_storage as f64 / 10.0,
            "pgrid median {} vs server {}",
            last.pgrid_median_storage,
            last.central_storage
        );
    }

    #[test]
    fn every_scale_point_reported() {
        let cfg = Config::small();
        let (rows, table) = run(&cfg);
        assert_eq!(rows.len(), cfg.ns.len());
        assert_eq!(table.rows.len(), cfg.ns.len());
    }
}
