//! Shared experiment plumbing.

use pgrid_core::{BuildOptions, BuildReport, Ctx, PGrid, PGridConfig};
use pgrid_net::{AlwaysOnline, BernoulliOnline, NetStats, OnlineModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A constructed grid together with its construction report and the state
/// needed to keep running protocols on it deterministically.
pub struct BuiltGrid {
    /// The constructed access structure.
    pub grid: PGrid,
    /// How construction went.
    pub report: BuildReport,
    /// RNG continuing the experiment's random stream.
    pub rng: StdRng,
    /// Message counters accumulated so far.
    pub stats: NetStats,
    /// Online probability used during construction (1.0 = always online).
    pub p_online: f64,
}

impl BuiltGrid {
    /// Runs `f` with a [`Ctx`] over this grid using `online` availability.
    pub fn with_ctx<T>(
        &mut self,
        online: &mut dyn OnlineModel,
        f: impl FnOnce(&mut PGrid, &mut Ctx<'_>) -> T,
    ) -> T {
        let mut ctx = Ctx::new(&mut self.rng, online, &mut self.stats);
        f(&mut self.grid, &mut ctx)
    }
}

/// Builds a grid of `n` peers under `config`, meeting randomly until the
/// paper's convergence threshold, with availability `p_online` applied to
/// the recursive exchange contacts (1.0 = construction without failures, as
/// in §5.1).
pub fn built_grid(
    n: usize,
    config: PGridConfig,
    p_online: f64,
    threshold_fraction: f64,
    max_meetings: Option<u64>,
    seed: u64,
) -> BuiltGrid {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = NetStats::new();
    let mut grid = PGrid::new(n, config);
    let opts = BuildOptions {
        threshold_fraction,
        max_meetings,
    };
    // `AlwaysOnline` draws nothing from the RNG; a Bernoulli model at 1.0
    // would still draw once per contact and shift every later meeting.
    let mut online: Box<dyn OnlineModel> = if (p_online - 1.0).abs() < f64::EPSILON {
        Box::new(AlwaysOnline)
    } else {
        Box::new(BernoulliOnline::new(p_online))
    };
    let report = grid.build(&opts, &mut Ctx::new(&mut rng, &mut *online, &mut stats));
    BuiltGrid {
        grid,
        report,
        rng,
        stats,
        p_online,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgrid_net::AlwaysOnline;

    #[test]
    fn built_grid_converges_and_is_reusable() {
        let cfg = PGridConfig {
            maxl: 4,
            ..PGridConfig::default()
        };
        let mut built = built_grid(128, cfg, 1.0, 0.99, None, 5);
        assert!(built.report.reached_threshold);
        built.grid.check_invariants().unwrap();
        let mut online = AlwaysOnline;
        let found = built.with_ctx(&mut online, |grid, ctx| {
            let key = "0101".parse().unwrap();
            grid.search(pgrid_net::PeerId(0), &key, ctx).responsible
        });
        assert!(found.is_some());
    }

    #[test]
    fn construction_under_churn_still_progresses() {
        let cfg = PGridConfig {
            maxl: 4,
            refmax: 2,
            ..PGridConfig::default()
        };
        let built = built_grid(128, cfg, 0.3, 0.90, None, 6);
        assert!(built.report.avg_path_len >= 0.9 * 4.0);
        built.grid.check_invariants().unwrap();
    }

    #[test]
    fn same_seed_same_grid() {
        let cfg = PGridConfig {
            maxl: 4,
            ..PGridConfig::default()
        };
        let a = built_grid(64, cfg, 1.0, 0.99, None, 9);
        let b = built_grid(64, cfg, 1.0, 0.99, None, 9);
        assert_eq!(a.report.exchange_calls, b.report.exchange_calls);
        for (x, y) in a.grid.peers().zip(b.grid.peers()) {
            assert_eq!(x.path(), y.path());
        }
    }
}
