//! Corruption-class chaos suite: a converged grid is damaged by every
//! [`CorruptionClass`] at ≥10% of peers, across several seeds, and the
//! self-stabilization loop must reach a clean invariant audit within a
//! bounded number of rounds — with query success back at its
//! pre-corruption level and query outcomes byte-identical at 1 and 4
//! worker threads.

use pgrid::core::{Ctx, PGrid, PGridConfig};
use pgrid::net::{AlwaysOnline, NetStats};
use pgrid::sim::experiments::selfstab::{CorruptionClass, CorruptionPlan};
use pgrid::sim::{built_grid, run_query_plan, QueryPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 200;
const MAXL: usize = 4;
const REFMAX: usize = 2;
/// Stabilization must finish inside this many rounds, every class, every
/// seed. In practice one or two rounds suffice; the slack absorbs refill
/// searches that need a second pass.
const ROUND_BOUND: usize = 8;

fn converged_grid(seed: u64) -> PGrid {
    let cfg = PGridConfig {
        maxl: MAXL,
        refmax: REFMAX,
        ..PGridConfig::default()
    };
    let built = built_grid(N, cfg, 1.0, 0.99, None, seed);
    assert!(
        built.report.reached_threshold,
        "seed {seed}: build must converge"
    );
    built.grid
}

/// Runs stabilization rounds until the audit is clean, asserting the bound.
/// Returns (rounds used, accumulated stats).
fn stabilize_to_clean(grid: &mut PGrid, seed: u64, label: &str) -> (usize, NetStats) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57ab);
    let mut online = AlwaysOnline;
    let mut stats = NetStats::new();
    let mut rounds = 0;
    while !grid.audit().is_empty() {
        assert!(
            rounds < ROUND_BOUND,
            "{label}: still {} violations after {rounds} rounds",
            grid.audit().len()
        );
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        grid.stabilize_round(REFMAX, &mut ctx);
        rounds += 1;
    }
    grid.check_invariants()
        .unwrap_or_else(|e| panic!("{label}: structural invariants broken: {e}"));
    (rounds, stats)
}

#[test]
fn every_corruption_class_converges_across_seeds() {
    for seed in [3u64, 17, 29] {
        let base = converged_grid(seed);
        assert!(
            base.audit().is_empty(),
            "seed {seed}: built grid must audit clean"
        );
        for class in CorruptionClass::ALL {
            let label = format!("seed {seed}, class {}", class.name());
            let mut grid = base.clone();
            let corrupted = CorruptionPlan::new(seed ^ 0xbad)
                .with_class(class, 0.2)
                .apply(&mut grid);
            assert!(
                corrupted as usize >= N / 10,
                "{label}: only {corrupted} peers damaged, need ≥10%"
            );
            assert!(
                !grid.audit().is_empty(),
                "{label}: the damage must be audit-visible"
            );
            let (rounds, stats) = stabilize_to_clean(&mut grid, seed, &label);
            assert!(
                rounds >= 1,
                "{label}: a damaged grid needs at least one round"
            );
            assert!(
                stats.violations_detected > 0 && stats.repairs_applied > 0,
                "{label}: the stabilizer must account for its work in NetStats"
            );
        }
    }
}

#[test]
fn all_classes_at_once_converge_and_queries_recover() {
    let seed = 5u64;
    let mut grid = converged_grid(seed);
    let plan = QueryPlan {
        queries: 400,
        key_len: MAXL as u8,
        shards: 8,
    };
    let baseline = run_query_plan(&grid, &plan, 77, &AlwaysOnline, 1);

    let mut corruption = CorruptionPlan::new(seed);
    for class in CorruptionClass::ALL {
        corruption = corruption.with_class(class, 0.15);
    }
    let corrupted = corruption.apply(&mut grid);
    assert!(corrupted as usize >= N / 10);

    let (_, stats) = stabilize_to_clean(&mut grid, seed, "all classes");
    assert!(stats.violations_detected > 0);

    let after = run_query_plan(&grid, &plan, 77, &AlwaysOnline, 1);
    assert!(
        after.successes() + plan.queries as u64 / 50 >= baseline.successes(),
        "query success must return to its pre-corruption level: {} vs {}",
        after.successes(),
        baseline.successes()
    );
}

#[test]
fn query_outcomes_stay_thread_invariant_through_damage_and_repair() {
    let seed = 11u64;
    let mut grid = converged_grid(seed);
    let mut corruption = CorruptionPlan::new(seed);
    for class in CorruptionClass::ALL {
        corruption = corruption.with_class(class, 0.15);
    }
    corruption.apply(&mut grid);

    let plan = QueryPlan {
        queries: 400,
        key_len: MAXL as u8,
        shards: 8,
    };
    // Damaged state: the engine must still shard deterministically.
    let one = run_query_plan(&grid, &plan, 42, &AlwaysOnline, 1);
    let four = run_query_plan(&grid, &plan, 42, &AlwaysOnline, 4);
    assert_eq!(one.records, four.records, "corrupted-grid records diverged");
    assert_eq!(one.stats, four.stats, "corrupted-grid stats diverged");

    let (_, _) = stabilize_to_clean(&mut grid, seed, "thread invariance");

    // Stabilized state: byte-identical again.
    let one = run_query_plan(&grid, &plan, 42, &AlwaysOnline, 1);
    let four = run_query_plan(&grid, &plan, 42, &AlwaysOnline, 4);
    assert_eq!(
        one.records, four.records,
        "stabilized-grid records diverged"
    );
    assert_eq!(one.stats, four.stats, "stabilized-grid stats diverged");
}
