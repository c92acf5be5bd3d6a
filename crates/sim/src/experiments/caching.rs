//! **Extra — query caching under Zipf traffic** (§6 "knowledge on query
//! distribution" suggestion, quantified).
//!
//! Real query streams are heavily skewed; a small per-client result cache
//! short-circuits the popular keys. This experiment sweeps the Zipf
//! exponent and reports messages per query with and without a cache, plus
//! the hit rate.

use pgrid_core::PGridConfig;
use pgrid_net::BernoulliOnline;

use crate::cache::QueryCache;
use crate::workload::{UniformKeys, Zipf};
use crate::{built_grid, fmt_f, Table};

/// Parameters of the caching experiment.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Distinct keys in the catalogue.
    pub catalogue: usize,
    /// Key length in bits (must exceed log2(catalogue) so catalogue items
    /// have distinct keys — item keys are longer than peer paths, as in any
    /// real deployment).
    pub key_len: u8,
    /// Queries per configuration.
    pub queries: usize,
    /// Cache capacity (keys).
    pub cache_capacity: usize,
    /// Zipf exponents to sweep (0 = uniform popularity).
    pub zipf_exponents: [f64; 3],
    /// Online probability during queries.
    pub p_online: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 2000,
            maxl: 7,
            refmax: 4,
            catalogue: 2000,
            key_len: 16,
            queries: 5000,
            cache_capacity: 100,
            zipf_exponents: [0.0, 0.8, 1.2],
            p_online: 0.7,
            seed: 0xcac4e,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 400,
            maxl: 5,
            refmax: 3,
            catalogue: 400,
            key_len: 16,
            queries: 1200,
            cache_capacity: 40,
            zipf_exponents: [0.0, 0.8, 1.2],
            p_online: 0.7,
            seed: 0xcac4e,
        }
    }
}

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Zipf exponent of the query stream.
    pub zipf_s: f64,
    /// Messages per query without a cache.
    pub msgs_uncached: f64,
    /// Messages per query with the cache.
    pub msgs_cached: f64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Message saving factor.
    pub saving: f64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let mut built = built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed);
    let keygen = UniformKeys { len: cfg.key_len };
    let catalogue: Vec<_> = (0..cfg.catalogue)
        .map(|_| keygen.sample(&mut built.rng))
        .collect();

    let mut rows = Vec::new();
    for &s in &cfg.zipf_exponents {
        let zipf = Zipf::new(cfg.catalogue, s);
        let mut online = BernoulliOnline::new(cfg.p_online);

        let (uncached, cached, hit_rate) = built.with_ctx(&mut online, |grid, ctx| {
            let mut plain_msgs = 0u64;
            for _ in 0..cfg.queries {
                let key = catalogue[zipf.sample(ctx.rng)];
                let start = grid.random_peer(ctx);
                plain_msgs += grid.search(start, &key, ctx).messages;
            }
            let mut cache = QueryCache::new(cfg.cache_capacity);
            let mut cached_msgs = 0u64;
            for _ in 0..cfg.queries {
                let key = catalogue[zipf.sample(ctx.rng)];
                let start = grid.random_peer(ctx);
                cached_msgs += cache.search(grid, start, &key, ctx).messages;
            }
            (
                plain_msgs as f64 / cfg.queries as f64,
                cached_msgs as f64 / cfg.queries as f64,
                cache.hit_rate(),
            )
        });
        rows.push(Row {
            zipf_s: s,
            msgs_uncached: uncached,
            msgs_cached: cached,
            hit_rate,
            saving: uncached / cached.max(f64::EPSILON),
        });
    }

    let mut table = Table::new(
        format!(
            "Caching: messages/query vs query skew (N={}, cache {} keys, p={})",
            cfg.n, cfg.cache_capacity, cfg.p_online
        ),
        &[
            "zipf s",
            "msgs uncached",
            "msgs cached",
            "hit rate",
            "saving",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            fmt_f(r.zipf_s, 1),
            fmt_f(r.msgs_uncached, 2),
            fmt_f(r.msgs_cached, 2),
            fmt_f(r.hit_rate, 3),
            fmt_f(r.saving, 2),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_traffic_benefits_more() {
        let (rows, table) = run(&Config::small());
        let uniform = rows.iter().find(|r| r.zipf_s == 0.0).unwrap();
        let skewed = rows.iter().find(|r| r.zipf_s == 1.2).unwrap();
        assert!(
            skewed.hit_rate > uniform.hit_rate + 0.1,
            "zipf 1.2 hit rate {} must clearly beat uniform {}",
            skewed.hit_rate,
            uniform.hit_rate
        );
        assert!(
            skewed.saving > 1.2,
            "skewed traffic should save messages: {}",
            skewed.saving
        );
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn cache_never_hurts_much() {
        let (rows, _) = run(&Config::small());
        for r in &rows {
            assert!(
                r.msgs_cached <= r.msgs_uncached * 1.15,
                "cache overhead must stay negligible at s={}: {} vs {}",
                r.zipf_s,
                r.msgs_cached,
                r.msgs_uncached
            );
        }
    }
}
