//! **Extra — end-to-end search latency** under per-message delay models.
//!
//! The paper counts messages; a deployment cares about *time*. A randomized
//! DFS is sequential — its end-to-end latency is the sum of per-contact
//! delays, including probes of offline peers (a timeout costs time even
//! though the paper does not count it as a message). This experiment runs
//! searches under the [`pgrid_net::LatencyModel`]s and reports the latency
//! distribution per availability level.

use pgrid_core::{Ctx, PGridConfig};
use pgrid_keys::BitPath;
use pgrid_net::{BernoulliOnline, Histogram, LatencyModel, NetStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{built_grid, fmt_f, Table};

/// Parameters of the latency measurement.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Searches per configuration.
    pub searches: usize,
    /// Timeout charged for probing an offline peer, in ticks.
    pub offline_timeout: u64,
    /// Availability levels to sweep.
    pub p_online: [f64; 3],
    /// Delay model for successful contacts.
    pub latency: LatencyModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 2000,
            maxl: 7,
            refmax: 5,
            searches: 3000,
            offline_timeout: 200,
            p_online: [0.3, 0.6, 0.9],
            latency: LatencyModel::LongTail {
                base: 20,
                tail_mean: 30.0,
            },
            seed: 0x1a7e,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 400,
            maxl: 5,
            refmax: 4,
            searches: 800,
            offline_timeout: 200,
            p_online: [0.3, 0.6, 0.9],
            latency: LatencyModel::LongTail {
                base: 20,
                tail_mean: 30.0,
            },
            seed: 0x1a7e,
        }
    }
}

/// One measured availability level.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Online probability.
    pub p_online: f64,
    /// Fraction of successful searches.
    pub success_rate: f64,
    /// Median end-to-end latency of successful searches (ticks).
    pub p50: u64,
    /// 99th percentile latency (ticks).
    pub p99: u64,
    /// Mean messages per search.
    pub avg_messages: f64,
    /// Mean offline probes (timeouts) per search.
    pub avg_timeouts: f64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let built = built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed);
    let grid = built.grid;

    let mut rows = Vec::new();
    for &p in &cfg.p_online {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ p.to_bits());
        let mut online = BernoulliOnline::new(p);
        let mut stats = NetStats::new();
        let mut latencies = Histogram::new();
        let mut successes = 0u64;
        let mut messages = 0u64;
        let mut timeouts = 0u64;
        for _ in 0..cfg.searches {
            let before = stats.clone();
            let out = {
                let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
                let key = BitPath::random(ctx.rng, cfg.maxl as u8);
                let start = grid.random_peer(&mut ctx);
                grid.search(start, &key, &mut ctx)
            };
            let delta = stats.since(&before);
            messages += out.messages;
            timeouts += delta.failed_contacts;
            if out.responsible.is_some() {
                successes += 1;
                // End-to-end latency: one delay per delivered message plus
                // one timeout per offline probe (sequential DFS).
                let mut total = delta.failed_contacts * cfg.offline_timeout;
                for _ in 0..out.messages {
                    total += cfg.latency.sample(&mut rng);
                }
                latencies.record(total);
            }
        }
        rows.push(Row {
            p_online: p,
            success_rate: successes as f64 / cfg.searches as f64,
            p50: latencies.quantile(0.5).unwrap_or(0),
            p99: latencies.quantile(0.99).unwrap_or(0),
            avg_messages: messages as f64 / cfg.searches as f64,
            avg_timeouts: timeouts as f64 / cfg.searches as f64,
        });
    }

    let mut table = Table::new(
        format!(
            "Latency: end-to-end search time (N={}, delay mean {:.0} ticks, timeout {})",
            cfg.n,
            cfg.latency.mean(),
            cfg.offline_timeout
        ),
        &[
            "p online",
            "success",
            "p50 ticks",
            "p99 ticks",
            "msgs",
            "timeouts",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            fmt_f(r.p_online, 2),
            fmt_f(r.success_rate, 3),
            r.p50.to_string(),
            r.p99.to_string(),
            fmt_f(r.avg_messages, 2),
            fmt_f(r.avg_timeouts, 2),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_availability_costs_latency() {
        let (rows, table) = run(&Config::small());
        let at = |p: f64| *rows.iter().find(|r| (r.p_online - p).abs() < 1e-9).unwrap();
        let low = at(0.3);
        let high = at(0.9);
        assert!(
            low.p50 > high.p50,
            "timeouts at p=0.3 must raise the median: {} vs {}",
            low.p50,
            high.p50
        );
        assert!(low.avg_timeouts > high.avg_timeouts);
        assert!(high.success_rate > 0.99);
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn tail_is_heavier_than_median() {
        let (rows, _) = run(&Config::small());
        for r in &rows {
            assert!(
                r.p99 >= r.p50,
                "p99 {} below p50 {} at p={}",
                r.p99,
                r.p50,
                r.p_online
            );
        }
    }
}
