//! The §4 analytical model against the simulator: the measured search
//! success rate must respect the analytic formula's ordering and sit at or
//! above the worst-case bound.

use pgrid::core::{search_success_probability, BuildOptions, Ctx, PGrid, PGridConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, BernoulliOnline, NetStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn measure_success(n: usize, maxl: usize, refmax: usize, p: f64, searches: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xa4a1);
    let mut stats = NetStats::new();
    let mut grid = PGrid::new(
        n,
        PGridConfig {
            maxl,
            refmax,
            ..PGridConfig::default()
        },
    );
    {
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        assert!(
            grid.build(&BuildOptions::default(), &mut ctx)
                .reached_threshold
        );
    }
    let mut online = BernoulliOnline::new(p);
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut hits = 0usize;
    for _ in 0..searches {
        let key = BitPath::random(ctx.rng, maxl as u8);
        let start = grid.random_peer(&mut ctx);
        if grid.search(start, &key, &mut ctx).responsible.is_some() {
            hits += 1;
        }
    }
    hits as f64 / searches as f64
}

#[test]
fn measured_rate_dominates_worst_case_bound() {
    // The analytic formula assumes a fresh peer must be contacted at every
    // level; real searches often terminate early, so the measurement should
    // not fall below the bound (minus sampling noise).
    for (p, refmax) in [(0.3, 4), (0.5, 3), (0.7, 2)] {
        let bound = search_success_probability(p, refmax as u32, 5);
        let measured = measure_success(400, 5, refmax, p, 600);
        assert!(
            measured >= bound - 0.08,
            "p={p} refmax={refmax}: measured {measured} < bound {bound}"
        );
    }
}

#[test]
fn reliability_is_monotone_in_refmax() {
    let low = measure_success(400, 5, 1, 0.3, 600);
    let high = measure_success(400, 5, 6, 0.3, 600);
    assert!(
        high > low,
        "more references must help under churn: refmax 6 → {high}, refmax 1 → {low}"
    );
}

#[test]
fn reliability_is_monotone_in_availability() {
    let p_low = measure_success(400, 5, 3, 0.2, 600);
    let p_high = measure_success(400, 5, 3, 0.6, 600);
    assert!(
        p_high > p_low,
        "higher availability must help: p=0.6 → {p_high}, p=0.2 → {p_low}"
    );
}

#[test]
fn analytic_formula_reproduces_paper_example() {
    // §4: with p = 0.3, refmax = 20, k = 10, searches succeed >99%.
    let p = search_success_probability(0.3, 20, 10);
    assert!(p > 0.99, "paper example: {p}");
    // And the sizing example's community bound holds.
    let report = pgrid::core::GridSizing::gnutella_example().evaluate();
    assert_eq!(report.min_peers, 20409);
    assert_eq!(report.key_length, 10);
}
