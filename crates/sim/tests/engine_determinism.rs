//! Determinism regression: the same master seed must produce identical
//! `NetStats` and search outcomes whether the engine runs serially or across
//! 1/2/8 worker threads.

use pgrid_core::{BuildOptions, Ctx, PGrid, PGridConfig};
use pgrid_net::{BernoulliOnline, NetStats};
use pgrid_sim::{run_query_plan, QueryPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER_SEED: u64 = 2026;

fn built() -> PGrid {
    let mut rng = StdRng::seed_from_u64(MASTER_SEED);
    let mut online = pgrid_net::AlwaysOnline;
    let mut stats = NetStats::new();
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut grid = PGrid::new(
        192,
        PGridConfig {
            maxl: 5,
            ..PGridConfig::default()
        },
    );
    let report = grid.build(&BuildOptions::default(), &mut ctx);
    assert!(report.reached_threshold, "avg = {}", report.avg_path_len);
    grid
}

#[test]
fn queries_are_identical_across_thread_counts() {
    let grid = built();
    let plan = QueryPlan {
        queries: 500,
        key_len: 5,
        shards: 8,
    };
    // Churn exercises the fault-aware counters and the forked availability
    // models, not just the happy path.
    let online = BernoulliOnline::new(0.6);
    let serial = run_query_plan(&grid, &plan, MASTER_SEED, &online, 1);
    assert_eq!(serial.records.len(), 500);
    assert!(serial.successes() > 0, "some searches must succeed");

    for threads in [2, 8] {
        let parallel = run_query_plan(&grid, &plan, MASTER_SEED, &online, threads);
        assert_eq!(
            serial.records, parallel.records,
            "search outcomes differ at {threads} threads"
        );
        assert_eq!(
            serial.stats, parallel.stats,
            "NetStats differ at {threads} threads"
        );
    }
}
