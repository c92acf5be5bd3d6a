//! **extra — parallel engine throughput**: the same query workload executed
//! serially, across worker threads, and over the succinct routing snapshot.
//!
//! The engine's contract is *determinism first*: every threaded row below
//! answers the identical queries with the identical RNG streams, so the
//! thread count only moves wall-clock time. The compact-table row belongs
//! to the batched family (per-query RNG streams, DESIGN.md §8), which must
//! reproduce itself bit for bit at every chunk size and thread count. `run`
//! verifies both (the `identical` column) while measuring queries/second.

use std::time::Instant;

use pgrid_core::PGridConfig;
use pgrid_net::AlwaysOnline;

use crate::engine::{run_query_plan, run_query_plan_batched, QueryPlan, QueryRunOutcome};
use crate::{built_grid, fmt_f, Table};

/// Parameters of the throughput measurement.
#[derive(Clone, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximum path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Total queries per row.
    pub queries: usize,
    /// Query key length in bits.
    pub key_len: u8,
    /// Task decomposition of the workload (fixed across rows).
    pub shards: u64,
    /// Thread counts to measure; the first row is the serial reference.
    pub threads: Vec<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 5_000,
            maxl: 9,
            refmax: 5,
            queries: 20_000,
            key_len: 9,
            shards: 64,
            threads: vec![1, 2, 4, 8],
            seed: 42,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 256,
            maxl: 4,
            refmax: 4,
            queries: 2_000,
            key_len: 4,
            shards: 16,
            threads: vec![1, 2],
            seed: 42,
        }
    }
}

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock milliseconds for the whole workload.
    pub elapsed_ms: f64,
    /// Queries per second.
    pub qps: f64,
    /// Speedup over the serial reference row.
    pub speedup: f64,
    /// Whether records and counters matched the row's reference byte for
    /// byte (must always be `true`).
    pub identical: bool,
}

/// Everything `run` measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Thread-scaling rows of the shared-stream engine; the first is the
    /// serial reference.
    pub rows: Vec<Row>,
    /// The same plan at one thread over a frozen `CompactRoutingTable`
    /// (build time included). `identical` compares two chunk sizes and the
    /// widest configured thread count within the batched family.
    pub compact: Row,
}

/// Chunk handed to `search_batch` by the compact-table row.
const BATCH: usize = 64;

/// Builds the grid once, then runs the workload at every configured thread
/// count and over the compact table, checking each run against its
/// family's reference.
pub fn run(cfg: &Config) -> (Report, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let built = built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed);
    let plan = QueryPlan {
        queries: cfg.queries,
        key_len: cfg.key_len,
        shards: cfg.shards,
    };
    let online = AlwaysOnline;
    let timed = |run: &dyn Fn() -> QueryRunOutcome| {
        let start = Instant::now();
        let out = run();
        let elapsed = start.elapsed().as_secs_f64();
        (out, elapsed * 1e3, cfg.queries as f64 / elapsed.max(1e-9))
    };

    let reference = run_query_plan(&built.grid, &plan, cfg.seed, &online, 1);

    let mut rows = Vec::with_capacity(cfg.threads.len());
    let mut serial_qps = None;
    for &threads in &cfg.threads {
        let (out, elapsed_ms, qps) =
            timed(&|| run_query_plan(&built.grid, &plan, cfg.seed, &online, threads));
        let serial = *serial_qps.get_or_insert(qps);
        rows.push(Row {
            threads,
            elapsed_ms,
            qps,
            speedup: qps / serial,
            identical: out == reference,
        });
    }

    let batched = |threads, batch| {
        run_query_plan_batched(&built.grid, &plan, cfg.seed, &online, threads, batch)
    };
    let (out, elapsed_ms, qps) = timed(&|| batched(1, BATCH));
    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let compact = Row {
        threads: 1,
        elapsed_ms,
        qps,
        speedup: qps / serial_qps.unwrap_or(qps),
        identical: out == batched(1, 1) && out == batched(max_threads, BATCH),
    };

    let mut table = Table::new(
        format!(
            "engine: {} queries (len {}, {} shards) on N={}, maxl={}",
            cfg.queries, cfg.key_len, cfg.shards, cfg.n, cfg.maxl
        ),
        &["mode", "elapsed ms", "qps", "speedup", "identical"],
    );
    let modes = rows.iter().map(|r| (format!("{} thread(s)", r.threads), r));
    for (mode, r) in modes.chain([("compact table".to_string(), &compact)]) {
        table.push_row(vec![
            mode,
            fmt_f(r.elapsed_ms, 1),
            fmt_f(r.qps, 0),
            fmt_f(r.speedup, 2),
            r.identical.to_string(),
        ]);
    }
    (Report { rows, compact }, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_matches_its_reference() {
        let mut cfg = Config::small();
        cfg.queries = 600; // keep the unit test fast; the bench runs full
        let (report, table) = run(&cfg);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.identical), "{:?}", report.rows);
        assert!(report.rows.iter().all(|r| r.qps > 0.0));
        assert!(report.compact.identical, "{:?}", report.compact);
        assert!(report.compact.qps > 0.0);
        assert_eq!(table.rows.len(), 3);
    }
}
