//! **Extra — ablations of the design knobs** DESIGN.md calls out.
//!
//! Two faithfulness/extension toggles are worth quantifying:
//!
//! * `exchange_all_levels` — mix reference sets at every shared level rather
//!   than only at the deepest common level (the paper's pseudocode);
//! * `add_ref_on_divergence` — record the exchange partner as a reference at
//!   the divergence level in Case 4 (implied but not written in the paper's
//!   pseudocode; without it reference density above 1 cannot build and
//!   search reliability under churn collapses).

use pgrid_core::PGridConfig;
use pgrid_net::BernoulliOnline;

use crate::workload::UniformKeys;
use crate::{built_grid, fmt_f, Table};

/// Parameters of the ablation runs.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Online probability for the search-reliability probe.
    pub p_online: f64,
    /// Searches per variant.
    pub searches: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1000,
            maxl: 6,
            refmax: 5,
            p_online: 0.3,
            searches: 2000,
            seed: 0xab1a,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 300,
            maxl: 5,
            refmax: 4,
            p_online: 0.3,
            searches: 500,
            seed: 0xab1a,
        }
    }
}

/// One ablation variant's measurements.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Variant label.
    pub variant: &'static str,
    /// Construction cost.
    pub exchanges: u64,
    /// Mean routing references per peer after construction.
    pub avg_refs: f64,
    /// Search success rate at `p_online`.
    pub success_rate: f64,
    /// Mean messages per search.
    pub avg_messages: f64,
}

fn measure(cfg: &Config, grid_cfg: PGridConfig, variant: &'static str) -> Row {
    let mut built = built_grid(cfg.n, grid_cfg, 1.0, 0.98, None, cfg.seed);
    let metrics = pgrid_core::GridMetrics::capture(&built.grid);
    let keygen = UniformKeys {
        len: cfg.maxl as u8,
    };
    let mut online = BernoulliOnline::new(cfg.p_online);
    let (hits, msgs) = built.with_ctx(&mut online, |grid, ctx| {
        let mut hits = 0u64;
        let mut msgs = 0u64;
        for _ in 0..cfg.searches {
            let key = keygen.sample(ctx.rng);
            let start = grid.random_peer(ctx);
            let out = grid.search(start, &key, ctx);
            msgs += out.messages;
            hits += u64::from(out.responsible.is_some());
        }
        (hits, msgs)
    });
    Row {
        variant,
        exchanges: built.report.exchange_calls,
        avg_refs: metrics.avg_refs_per_peer,
        success_rate: hits as f64 / cfg.searches as f64,
        avg_messages: msgs as f64 / cfg.searches as f64,
    }
}

/// Runs all ablation variants.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let base = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let rows = vec![
        measure(cfg, base, "baseline"),
        measure(
            cfg,
            PGridConfig {
                exchange_all_levels: true,
                ..base
            },
            "mix all levels",
        ),
        measure(
            cfg,
            PGridConfig {
                add_ref_on_divergence: false,
                ..base
            },
            "no divergence refs",
        ),
    ];
    let mut table = Table::new(
        format!(
            "Ablations (N={}, maxl={}, refmax={}, p={})",
            cfg.n, cfg.maxl, cfg.refmax, cfg.p_online
        ),
        &[
            "variant",
            "exchanges",
            "avg refs/peer",
            "success rate",
            "msgs/search",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.variant.to_string(),
            r.exchanges.to_string(),
            fmt_f(r.avg_refs, 2),
            fmt_f(r.success_rate, 3),
            fmt_f(r.avg_messages, 2),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_refs_matter_for_redundancy() {
        let (rows, _) = run(&Config::small());
        let at = |v: &str| *rows.iter().find(|r| r.variant == v).unwrap();
        let base = at("baseline");
        let ablated = at("no divergence refs");
        assert!(
            base.avg_refs > ablated.avg_refs,
            "divergence refs build density: {} vs {}",
            base.avg_refs,
            ablated.avg_refs
        );
        assert!(
            base.success_rate >= ablated.success_rate,
            "denser tables help under churn: {} vs {}",
            base.success_rate,
            ablated.success_rate
        );
    }

    #[test]
    fn all_variants_complete() {
        let (rows, table) = run(&Config::small());
        assert_eq!(rows.len(), 3);
        assert_eq!(table.rows.len(), 3);
        assert!(rows.iter().all(|r| r.exchanges > 0));
    }
}
