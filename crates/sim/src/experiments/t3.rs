//! **T3 — construction cost vs recursion depth** (third table of §5.1).
//!
//! N = 500, maxl = 6, `recmax` swept 0..=6. The paper finds a clear
//! optimum at `recmax = 2` (e/N ≈ 25): shallow recursion wastes random
//! meetings, deep recursion overspecializes subregions and burns exchanges.
//!
//! Reproducing the *right half* of that U-shape requires the paper-faithful
//! exchange (no Case-4 divergence references, `divergence_refs = false`,
//! the default here): with the divergence-reference extension enabled the
//! recursion targets stay fresh and deep recursion is no longer penalized
//! (the curve flattens at ≈20 — see `pgrid exp t3-extended`).

use pgrid_core::PGridConfig;

use crate::{built_grid, fmt_f, Table};

/// Parameters of the T3 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Community size (paper: 500).
    pub n: usize,
    /// Maximal path length (paper: 6).
    pub maxl: usize,
    /// Recursion depths to sweep (paper: 0..=6).
    pub recmaxes: Vec<u32>,
    /// Whether Case-4 meetings record each other as references (the
    /// `add_ref_on_divergence` extension). The paper's pseudocode does not
    /// add these references, and without them deep recursion overspecializes
    /// — which is what produces the paper's optimum at `recmax = 2`.
    pub divergence_refs: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 500,
            maxl: 6,
            recmaxes: (0..=6).collect(),
            divergence_refs: false,
            seed: 0x7163,
        }
    }
}

impl Config {
    /// A small preset for tests and benches.
    pub fn small() -> Self {
        Config {
            n: 150,
            maxl: 4,
            recmaxes: vec![0, 1, 2, 4],
            divergence_refs: false,
            seed: 0x7163,
        }
    }
}

/// One measured cell.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Recursion depth.
    pub recmax: u32,
    /// Total exchange calls.
    pub e: u64,
    /// Per-peer cost.
    pub e_per_n: f64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut rows = Vec::new();
    for &recmax in &cfg.recmaxes {
        let grid_cfg = PGridConfig {
            maxl: cfg.maxl,
            refmax: 1,
            recmax,
            add_ref_on_divergence: cfg.divergence_refs,
            ..PGridConfig::default()
        };
        let built = built_grid(
            cfg.n,
            grid_cfg,
            1.0,
            0.99,
            None,
            cfg.seed ^ (u64::from(recmax) << 24),
        );
        rows.push(Row {
            recmax,
            e: built.report.exchange_calls,
            e_per_n: built.report.exchange_calls as f64 / cfg.n as f64,
        });
    }
    let mut table = Table::new(
        format!(
            "T3: construction cost vs recmax (N={}, maxl={})",
            cfg.n, cfg.maxl
        ),
        &["recmax", "e", "e/N"],
    );
    for r in &rows {
        table.push_row(vec![
            r.recmax.to_string(),
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
    fn some_recursion_beats_none() {
        let (rows, _) = run(&Config::small());
        let at = |recmax: u32| rows.iter().find(|r| r.recmax == recmax).unwrap().e;
        assert!(at(2) < at(0), "recmax=2 {} vs recmax=0 {}", at(2), at(0));
        assert!(at(1) < at(0));
    }

    #[test]
    fn table_covers_all_depths() {
        let cfg = Config::small();
        let (rows, table) = run(&cfg);
        assert_eq!(rows.len(), cfg.recmaxes.len());
        assert_eq!(table.rows.len(), cfg.recmaxes.len());
    }
}
