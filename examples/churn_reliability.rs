//! Search reliability under churn: measurement vs the §4 analytical model.
//!
//! Sweeps the online probability and compares the measured search success
//! rate against the paper's bound `(1 - (1-p)^refmax)^k`, under both the
//! Bernoulli model the analysis assumes and the harsher session-churn model.
//!
//! ```sh
//! cargo run --release --example churn_reliability
//! ```

use pgrid::core::{search_success_probability, BuildOptions, Ctx, PGrid, PGridConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, BernoulliOnline, NetStats, SessionChurn};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 1500;
const MAXL: usize = 7;
const REFMAX: usize = 5;
const SEARCHES: usize = 1500;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut stats = NetStats::new();

    // Build once with everyone online.
    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: MAXL,
            refmax: REFMAX,
            ..PGridConfig::default()
        },
    );
    {
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = grid.build(&BuildOptions::default(), &mut ctx);
        assert!(report.reached_threshold);
    }

    println!(
        "search reliability: N={N}, maxl={MAXL}, refmax={REFMAX}, {SEARCHES} searches per point\n"
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "p", "analytic", "bernoulli", "churn", "msgs(bern)"
    );
    println!("{}", "-".repeat(62));

    for p in [0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let bound = search_success_probability(p, REFMAX as u32, MAXL as u32);

        // Bernoulli availability (the paper's model).
        let mut online = BernoulliOnline::new(p);
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let (bern_rate, bern_msgs) = measure(&grid, &mut ctx);

        // Session churn with the same stationary probability: a down peer
        // stays down for a whole session, so retries within one search are
        // correlated — strictly harder than Bernoulli.
        let mut churn = SessionChurn::new(N, p * 100.0, (1.0 - p) * 100.0, &mut rng);
        let mut ctx = Ctx::new(&mut rng, &mut churn, &mut stats);
        let (churn_rate, _) = measure(&grid, &mut ctx);

        println!("{p:>8.2} {bound:>12.4} {bern_rate:>12.4} {churn_rate:>12.4} {bern_msgs:>12.2}");
    }

    println!(
        "\nThe analytic column is the worst-case §4 bound; the measured Bernoulli\n\
         rate should sit at or above it, while session churn (correlated\n\
         failures) erodes the benefit of retrying references within a level."
    );
}

fn measure(grid: &PGrid, ctx: &mut Ctx<'_>) -> (f64, f64) {
    let mut hits = 0u64;
    let mut msgs = 0u64;
    for i in 0..SEARCHES {
        // Advance churn time so sessions toggle between searches.
        ctx.online.set_time((i as u64) * 17);
        let key = BitPath::random(ctx.rng, MAXL as u8);
        let start = grid.random_peer(ctx);
        let out = grid.search(start, &key, ctx);
        msgs += out.messages;
        hits += u64::from(out.responsible.is_some());
    }
    (hits as f64 / SEARCHES as f64, msgs as f64 / SEARCHES as f64)
}
