//! The construction driver: random pairwise meetings until convergence.
//!
//! §5.1: *"The peers meet randomly pairwise and execute the exchange
//! function. We consider a P-Grid as constructed when the average length of
//! the keys that the peers are responsible for reaches a certain threshold
//! t"* — the paper uses 99% of `maxl`.

use crate::{Ctx, PGrid};

/// Options of the construction loop.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Convergence threshold as a fraction of `maxl` (paper: 0.99).
    pub threshold_fraction: f64,
    /// Hard cap on the number of meetings; `None` picks a generous default
    /// proportional to the community size and `maxl`.
    pub max_meetings: Option<u64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threshold_fraction: 0.99,
            max_meetings: None,
        }
    }
}

/// Outcome of a construction run.
#[derive(Clone, Copy, Debug)]
pub struct BuildReport {
    /// Total `exchange` invocations, including recursive ones — the paper's
    /// construction-cost measure `e`.
    pub exchange_calls: u64,
    /// Top-level random meetings performed.
    pub meetings: u64,
    /// Whether the average-path-length threshold was reached (as opposed to
    /// hitting the meeting cap).
    pub reached_threshold: bool,
    /// Final average path length.
    pub avg_path_len: f64,
}

/// Generous default meeting cap: without recursion the paper observes the
/// per-peer exchange count roughly doubling per level.
fn default_meeting_cap(n: u64, maxl: u64) -> u64 {
    (n * maxl).saturating_mul(200).max(10_000)
}

impl PGrid {
    /// Runs random pairwise meetings until the average path length reaches
    /// `threshold_fraction * maxl` or the meeting cap is exhausted, then
    /// trims every routing buffer to the references it holds.
    pub fn build(&mut self, opts: &BuildOptions, ctx: &mut Ctx<'_>) -> BuildReport {
        let threshold = opts.threshold_fraction * self.config().maxl as f64;
        let cap = opts
            .max_meetings
            .unwrap_or_else(|| default_meeting_cap(self.len() as u64, self.config().maxl as u64));

        let mut exchange_calls = 0u64;
        let mut meetings = 0u64;
        let mut reached = self.avg_path_len() >= threshold;
        while !reached && meetings < cap {
            let (i, j) = self.random_pair(ctx);
            exchange_calls += self.exchange(i, j, ctx);
            meetings += 1;
            reached = self.avg_path_len() >= threshold;
        }
        self.trim_routing();
        BuildReport {
            exchange_calls,
            meetings,
            reached_threshold: reached,
            avg_path_len: self.avg_path_len(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PGridConfig;
    use pgrid_net::{AlwaysOnline, NetStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_grid(n: usize, cfg: PGridConfig, seed: u64) -> (PGrid, BuildReport) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = PGrid::new(n, cfg);
        let report = g.build(&BuildOptions::default(), &mut ctx);
        (g, report)
    }

    #[test]
    fn converges_and_keeps_invariants() {
        let (g, report) = build_grid(
            128,
            PGridConfig {
                maxl: 5,
                ..PGridConfig::default()
            },
            17,
        );
        assert!(report.reached_threshold, "avg = {}", report.avg_path_len);
        assert!(report.avg_path_len >= 0.99 * 5.0);
        assert!(report.exchange_calls > 0);
        assert!(report.meetings > 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn recursion_reduces_total_exchanges() {
        let no_rec = PGridConfig {
            maxl: 5,
            recmax: 0,
            ..PGridConfig::default()
        };
        let with_rec = PGridConfig {
            maxl: 5,
            recmax: 2,
            ..PGridConfig::default()
        };
        // Average over a few seeds to keep the comparison robust.
        let (mut e0, mut e2) = (0u64, 0u64);
        for seed in 0..3 {
            e0 += build_grid(200, no_rec, seed).1.exchange_calls;
            e2 += build_grid(200, with_rec, seed).1.exchange_calls;
        }
        assert!(
            e2 < e0,
            "recursion must speed up convergence: recmax=2 cost {e2} vs recmax=0 cost {e0}"
        );
    }

    #[test]
    fn meeting_cap_stops_runaway() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        // Two peers cannot reach maxl = 6 (they diverge after one split).
        let mut g = PGrid::new(2, PGridConfig::default());
        let report = g.build(
            &BuildOptions {
                max_meetings: Some(500),
                ..BuildOptions::default()
            },
            &mut ctx,
        );
        assert!(!report.reached_threshold);
        assert_eq!(report.meetings, 500);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = PGridConfig {
            maxl: 4,
            ..PGridConfig::default()
        };
        let (g1, r1) = build_grid(64, cfg, 99);
        let (g2, r2) = build_grid(64, cfg, 99);
        assert_eq!(r1.exchange_calls, r2.exchange_calls);
        assert_eq!(r1.meetings, r2.meetings);
        for (a, b) in g1.peers().zip(g2.peers()) {
            assert_eq!(a.path(), b.path());
        }
    }

    #[test]
    fn already_converged_grid_builds_instantly() {
        let cfg = PGridConfig {
            maxl: 1,
            ..PGridConfig::default()
        };
        let mut g = PGrid::new(2, cfg);
        g.extend_peer_path(pgrid_net::PeerId(0), 0);
        g.extend_peer_path(pgrid_net::PeerId(1), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = g.build(&BuildOptions::default(), &mut ctx);
        assert_eq!(report.meetings, 0);
        assert!(report.reached_threshold);
    }

    /// Pins the meeting schedule: the T1 cell at N = 200, `recmax 2`, under
    /// T1's own seed (`results/construction_tables.txt` prints e = 4330).
    /// Any change to how meetings are drawn or how an exchange recurses
    /// moves these counts.
    #[test]
    fn t1_cell_cost_is_pinned() {
        let cfg = PGridConfig {
            maxl: 6,
            refmax: 1,
            recmax: 2,
            ..PGridConfig::default()
        };
        let (g, report) = build_grid(200, cfg, 0x7161 ^ (200 << 8));
        assert!(report.reached_threshold);
        assert_eq!(report.exchange_calls, 4330);
        assert_eq!(report.meetings, 1836);
        g.check_invariants().unwrap();
    }

    fn fnv1a(h: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a digest of every peer's path and reference levels, in peer,
    /// level and slice order: any change to a slice's content or order, or
    /// to a path, moves it.
    pub(crate) fn routing_digest(g: &PGrid) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for p in g.peers() {
            let path = p.path();
            fnv1a(&mut digest, path.len() as u64);
            fnv1a(&mut digest, path.raw_bits() as u64);
            fnv1a(&mut digest, (path.raw_bits() >> 64) as u64);
            for (level, set) in p.routing().iter() {
                fnv1a(&mut digest, level as u64);
                fnv1a(&mut digest, set.len() as u64);
                for id in set.as_slice() {
                    fnv1a(&mut digest, u64::from(id.0));
                }
            }
        }
        digest
    }

    /// Pins a `refmax 20` build, whose level mixes reach the large-set
    /// union path that `t1_cell_cost_is_pinned` (`refmax 1`) never does:
    /// the exchange and meeting counts, an FNV-1a digest of every peer's
    /// path and reference levels in order, and the next RNG draw. Any
    /// change to a union's layout or to the draws of a mix moves them.
    #[test]
    fn refmax20_build_is_pinned() {
        let cfg = PGridConfig {
            maxl: 7,
            refmax: 20,
            ..PGridConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(20);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = PGrid::new(1024, cfg);
        let report = g.build(&BuildOptions::default(), &mut ctx);
        let next = rand::RngCore::next_u64(ctx.rng);
        let digest = routing_digest(&g);
        assert!(report.reached_threshold);
        let widest = g
            .peers()
            .flat_map(|p| p.routing().iter().map(|(_, set)| set.len()))
            .max();
        assert_eq!(widest, Some(20), "levels fill up to refmax");
        assert_eq!(report.exchange_calls, 50_819);
        assert_eq!(report.meetings, 4015);
        assert_eq!(digest, 0xf86a_a121_7b9a_7476);
        assert_eq!(next, 0xcde6_bc45_8e1e_c92f);
        g.check_invariants().unwrap();
    }

    /// Pins a `refmax 200` build: level-1 and level-2 mixes grow past
    /// `SCAN_MAX` (128), so the exchange takes the sorted-union path and
    /// levels change length by splicing far beyond the inline-scan sizes.
    /// Same pins as `refmax20_build_is_pinned`.
    #[test]
    fn refmax200_build_is_pinned() {
        let cfg = PGridConfig {
            maxl: 4,
            refmax: 200,
            ..PGridConfig::default()
        };
        let (mut rng, mut online, mut stats) =
            (StdRng::seed_from_u64(200), AlwaysOnline, NetStats::new());
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let mut g = PGrid::new(1024, cfg);
        let report = g.build(&BuildOptions::default(), &mut ctx);
        let next = rand::RngCore::next_u64(ctx.rng);
        assert!(report.reached_threshold);
        let widest = g
            .peers()
            .flat_map(|p| p.routing().iter().map(|(_, set)| set.len()))
            .max()
            .unwrap();
        assert_eq!(widest, 200, "levels fill up to refmax, past SCAN_MAX");
        assert_eq!(report.exchange_calls, 33_803);
        assert_eq!(report.meetings, 3391);
        assert_eq!(routing_digest(&g), 0x1796_d018_d58f_1f2e);
        assert_eq!(next, 0xc816_abc0_2967_f168);
        g.check_invariants().unwrap();
    }
}
