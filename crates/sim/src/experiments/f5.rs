//! **F5 — finding all replicas** (paper Fig. 5).
//!
//! The update problem: unlike a search, an update must reach *all* replicas
//! of a path. The paper repeatedly searches a random length-9 key and plots
//! the fraction of existing replicas identified against the messages spent,
//! comparing (1) repeated depth-first searches, (2) repeated DFS including
//! buddies, and (3) repeated breadth-first searches. Result: *"clearly the
//! strategy of using breadth first searches is by far superior, while the
//! two other methods perform comparably"*.

use std::collections::BTreeSet;

use pgrid_core::FindStrategy;
use pgrid_net::BernoulliOnline;

use crate::experiments::f4;
use crate::workload::UniformKeys;
use crate::{fmt_f, Table};

/// Parameters of the replica-discovery comparison.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The grid to build (defaults to the paper's F4 grid).
    pub grid: f4::Config,
    /// Query key length (paper: 9).
    pub key_len: u8,
    /// Online probability (paper: 0.3).
    pub p_online: f64,
    /// Number of random keys to average over.
    pub trials: usize,
    /// Effort steps: repeated-search counts to sample the curve at.
    pub attempts_steps: &'static [usize],
    /// BFS branching factor (paper's `recbreadth`).
    pub recbreadth: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            grid: f4::Config::default(),
            key_len: 9,
            p_online: 0.3,
            trials: 20,
            attempts_steps: &[1, 2, 4, 8, 16, 32, 64, 128],
            recbreadth: 2,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            grid: f4::Config {
                refmax: 8,
                ..f4::Config::small()
            },
            key_len: 6,
            p_online: 0.5,
            trials: 8,
            attempts_steps: &[1, 2, 4, 8, 16],
            recbreadth: 2,
        }
    }
}

/// One point of one strategy's curve.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Strategy label.
    pub strategy: &'static str,
    /// Effort step (number of repeated searches / sweeps).
    pub attempts: usize,
    /// Mean messages spent.
    pub messages: f64,
    /// Mean fraction of existing replicas identified.
    pub fraction_found: f64,
}

/// Runs the comparison; returns the curve points of all three strategies.
pub fn run(cfg: &Config) -> (Vec<Point>, Table) {
    let (_, _, mut built) = f4::run(&cfg.grid);
    // Give peers buddy knowledge the way construction would: peers that
    // share a full-length path and meet register each other. The random
    // meetings of `build` already did some of that; nothing extra needed.
    let keygen = UniformKeys { len: cfg.key_len };
    let mut online = BernoulliOnline::new(cfg.p_online);

    let mut points = Vec::new();
    let trials = cfg.trials;
    for &attempts in cfg.attempts_steps {
        let strategies: [(&'static str, FindStrategy); 3] = [
            ("repeated DFS", FindStrategy::RepeatedDfs { attempts }),
            ("DFS + buddies", FindStrategy::DfsWithBuddies { attempts }),
            (
                "repeated BFS",
                FindStrategy::Bfs {
                    recbreadth: cfg.recbreadth,
                    repetition: attempts,
                },
            ),
        ];
        for (label, strategy) in strategies {
            let (msgs, frac) = built.with_ctx(&mut online, |grid, ctx| {
                let mut total_msgs = 0u64;
                let mut total_frac = 0.0;
                for _ in 0..trials {
                    let key = keygen.sample(ctx.rng);
                    let truth: BTreeSet<_> = grid.replicas_of(&key).into_iter().collect();
                    if truth.is_empty() {
                        continue;
                    }
                    let found = grid.find_replicas(&key, strategy, ctx);
                    total_msgs += found.messages;
                    total_frac += found.found.len() as f64 / truth.len() as f64;
                }
                (
                    total_msgs as f64 / trials as f64,
                    total_frac / trials as f64,
                )
            });
            points.push(Point {
                strategy: label,
                attempts,
                messages: msgs,
                fraction_found: frac,
            });
        }
    }

    let mut table = Table::new(
        format!(
            "F5: fraction of replicas found vs messages (N={}, key len {}, p={})",
            cfg.grid.n, cfg.key_len, cfg.p_online
        ),
        &["strategy", "attempts", "messages", "fraction found"],
    );
    for p in &points {
        table.push_row(vec![
            p.strategy.to_string(),
            p.attempts.to_string(),
            fmt_f(p.messages, 1),
            fmt_f(p.fraction_found, 3),
        ]);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn best_fraction(points: &[Point], strategy: &str) -> f64 {
        points
            .iter()
            .filter(|p| p.strategy == strategy)
            .map(|p| p.fraction_found)
            .fold(0.0, f64::max)
    }

    #[test]
    fn bfs_dominates_at_equal_or_less_cost() {
        let (points, _) = run(&Config::small());
        // At the largest effort step BFS should reach at least as many
        // replicas as repeated DFS.
        let bfs = best_fraction(&points, "repeated BFS");
        let dfs = best_fraction(&points, "repeated DFS");
        assert!(
            bfs >= dfs * 0.9,
            "BFS ({bfs}) should be at least comparable to DFS ({dfs}) and usually better"
        );
        // The operative comparison (the paper's Fig. 5 x-axis): messages
        // needed to reach 50% recall. BFS must get there at least as cheaply
        // as repeated DFS (or DFS never gets there at all).
        let msgs_to_half = |s: &str| {
            points
                .iter()
                .filter(|p| p.strategy == s && p.fraction_found >= 0.5)
                .map(|p| p.messages)
                .fold(f64::INFINITY, f64::min)
        };
        let bfs_cost = msgs_to_half("repeated BFS");
        let dfs_cost = msgs_to_half("repeated DFS");
        assert!(
            bfs_cost <= dfs_cost * 1.2,
            "BFS should reach 50% recall at least as cheaply: {bfs_cost} vs {dfs_cost}"
        );
    }

    #[test]
    fn more_attempts_find_more_replicas() {
        let (points, _) = run(&Config::small());
        for s in ["repeated DFS", "repeated BFS"] {
            let curve: Vec<f64> = points
                .iter()
                .filter(|p| p.strategy == s)
                .map(|p| p.fraction_found)
                .collect();
            assert!(
                curve.last().unwrap() >= curve.first().unwrap(),
                "{s} curve should be non-decreasing overall: {curve:?}"
            );
        }
    }

    #[test]
    fn buddies_never_hurt() {
        let (points, _) = run(&Config::small());
        let with = best_fraction(&points, "DFS + buddies");
        let without = best_fraction(&points, "repeated DFS");
        assert!(with >= without * 0.95, "buddies {with} vs plain {without}");
    }
}
