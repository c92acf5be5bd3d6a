//! **T4/T5 — construction cost vs `refmax`** (fourth and fifth tables of §5.1).
//!
//! N = 1000, recmax = 2, `refmax` swept 1..=4. With the recursion fan-out
//! **unbounded** (T4) the cost grows super-linearly — the paper calls this
//! "a weakness in the algorithm we proposed". Bounding the fan-out to 2
//! randomly selected referenced peers (T5) stabilizes the cost — "then the
//! results become very stable".

use pgrid_core::PGridConfig;

use crate::{built_grid, fmt_f, Table};

/// Parameters of the T4/T5 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Community size (paper: 1000).
    pub n: usize,
    /// Maximal path length (paper: 6).
    pub maxl: usize,
    /// `refmax` values to sweep (paper: 1..=4).
    pub refmaxes: Vec<usize>,
    /// Fan-out variants: `None` = unbounded (T4), `Some(2)` = bounded (T5).
    pub fanouts: Vec<Option<usize>>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1000,
            maxl: 6,
            refmaxes: vec![1, 2, 3, 4],
            fanouts: vec![None, Some(2)],
            seed: 0x7164,
        }
    }
}

impl Config {
    /// A smaller preset for tests and benches. The fan-out blow-up needs a
    /// reasonably deep grid to manifest (recursion only helps/hurts once
    /// reference tables have content), so this preset keeps `maxl = 6` and
    /// shrinks the community instead.
    pub fn small() -> Self {
        Config {
            n: 500,
            maxl: 6,
            refmaxes: vec![1, 2, 4],
            fanouts: vec![None, Some(2)],
            seed: 0x7164,
        }
    }
}

/// One measured cell.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Recursion fan-out bound (`None` = unbounded).
    pub fanout: Option<usize>,
    /// References per level.
    pub refmax: usize,
    /// Total exchange calls.
    pub e: u64,
    /// Per-peer cost.
    pub e_per_n: f64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut rows = Vec::new();
    for &fanout in &cfg.fanouts {
        for &refmax in &cfg.refmaxes {
            let grid_cfg = PGridConfig {
                maxl: cfg.maxl,
                refmax,
                recmax: 2,
                recfanout: fanout,
                ..PGridConfig::default()
            };
            let built = built_grid(
                cfg.n,
                grid_cfg,
                1.0,
                0.99,
                None,
                cfg.seed ^ ((refmax as u64) << 32),
            );
            rows.push(Row {
                fanout,
                refmax,
                e: built.report.exchange_calls,
                e_per_n: built.report.exchange_calls as f64 / cfg.n as f64,
            });
        }
    }
    let mut table = Table::new(
        format!(
            "T4/T5: construction cost vs refmax (N={}, maxl={}, recmax=2)",
            cfg.n, cfg.maxl
        ),
        &["fanout", "refmax", "e", "e/N"],
    );
    for r in &rows {
        table.push_row(vec![
            r.fanout
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            r.refmax.to_string(),
            r.e.to_string(),
            fmt_f(r.e_per_n, 2),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_fanout_blows_up_with_refmax() {
        let (rows, _) = run(&Config::small());
        let at = |fanout: Option<usize>, refmax: usize| {
            rows.iter()
                .find(|r| r.fanout == fanout && r.refmax == refmax)
                .unwrap()
                .e
        };
        // T4: unbounded cost grows sharply with refmax.
        assert!(at(None, 4) > at(None, 1) * 2);
        // T5: at the largest refmax the bounded variant is cheaper than the
        // unbounded one (the paper's fix).
        assert!(
            at(Some(2), 4) < at(None, 4),
            "bounded {} vs unbounded {}",
            at(Some(2), 4),
            at(None, 4)
        );
    }

    #[test]
    fn bounded_fanout_growth_is_damped() {
        let (rows, _) = run(&Config::small());
        let bounded: Vec<u64> = rows
            .iter()
            .filter(|r| r.fanout == Some(2))
            .map(|r| r.e)
            .collect();
        let unbounded: Vec<u64> = rows
            .iter()
            .filter(|r| r.fanout.is_none())
            .map(|r| r.e)
            .collect();
        let growth = |v: &[u64]| v.last().copied().unwrap() as f64 / v[0] as f64;
        assert!(
            growth(&bounded) < growth(&unbounded),
            "bounded growth {} must trail unbounded {}",
            growth(&bounded),
            growth(&unbounded)
        );
    }
}
