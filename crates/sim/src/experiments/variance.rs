//! **Extra — multi-seed replication of the T3 headline claim.**
//!
//! The paper's tables are single runs of a randomized algorithm. This
//! experiment replays the T3 sweep (construction cost vs `recmax`,
//! paper-faithful exchange) across several independent seeds and reports
//! mean ± sample standard deviation per `recmax` — establishing that the
//! `recmax = 2` optimum is a property of the algorithm, not seed luck.

use crate::experiments::t3;
use crate::stats::Summary;
use crate::{fmt_f, Table};

/// Parameters of the replication study.
#[derive(Clone, Debug)]
pub struct Config {
    /// The T3 sweep to replicate.
    pub base: t3::Config,
    /// Number of independent seeds.
    pub replications: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            base: t3::Config::default(),
            replications: 7,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            base: t3::Config::small(),
            replications: 5,
        }
    }
}

/// Mean ± std of `e/N` per recursion depth.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Recursion depth.
    pub recmax: u32,
    /// Summary of `e/N` over the replications.
    pub e_per_n: Summary,
}

/// Runs the replication study.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut samples: Vec<(u32, Vec<f64>)> =
        cfg.base.recmaxes.iter().map(|&r| (r, Vec::new())).collect();
    for rep in 0..cfg.replications {
        let mut base = cfg.base.clone();
        base.seed = cfg.base.seed.wrapping_add(0x9e37_79b9 * rep as u64 + 1);
        let (rows, _) = t3::run(&base);
        for row in rows {
            samples
                .iter_mut()
                .find(|(r, _)| *r == row.recmax)
                .expect("recmax present")
                .1
                .push(row.e_per_n);
        }
    }
    let rows: Vec<Row> = samples
        .into_iter()
        .map(|(recmax, values)| Row {
            recmax,
            e_per_n: Summary::of(&values),
        })
        .collect();

    let mut table = Table::new(
        format!(
            "Variance: T3 e/N over {} seeds (N={}, maxl={})",
            cfg.replications, cfg.base.n, cfg.base.maxl
        ),
        &["recmax", "mean e/N", "std", "min", "max", "cv"],
    );
    for r in &rows {
        table.push_row(vec![
            r.recmax.to_string(),
            fmt_f(r.e_per_n.mean, 2),
            fmt_f(r.e_per_n.std, 2),
            fmt_f(r.e_per_n.min, 2),
            fmt_f(r.e_per_n.max, 2),
            fmt_f(r.e_per_n.cv(), 3),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_is_robust_across_seeds() {
        let (rows, table) = run(&Config::small());
        let at = |recmax: u32| rows.iter().find(|r| r.recmax == recmax).unwrap().e_per_n;
        // recmax = 2 beats recmax = 0 by more than seed luck explains: the
        // means differ by over two standard errors of their difference.
        let zero = at(0);
        let two = at(2);
        let se = (zero.std.powi(2) / zero.n as f64 + two.std.powi(2) / two.n as f64).sqrt();
        assert!(
            zero.mean - two.mean > 2.0 * se,
            "means must differ by two standard errors ({se:.2}): {two:?} vs {zero:?}"
        );
        // Runs are reasonably stable (cv below ~0.5).
        for r in &rows {
            assert!(
                r.e_per_n.cv() < 0.5,
                "recmax {} too noisy: {:?}",
                r.recmax,
                r.e_per_n
            );
        }
        assert_eq!(table.rows.len(), rows.len());
    }
}
