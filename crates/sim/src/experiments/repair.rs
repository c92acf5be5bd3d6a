//! **Extra — failure and repair** (§6 "structures have to continuously
//! adapt", quantified).
//!
//! A converged grid suffers a mass permanent failure (a fraction of peers
//! never returns). Search reliability among the survivors drops because
//! reference tables still point at the dead. Each maintenance round
//! ([`pgrid_core::PGrid::repair_round`]) prunes dead references and refills
//! levels by searching the sibling subtrees; reliability recovers without
//! any central coordination.

use pgrid_core::PGridConfig;
use pgrid_keys::BitPath;
use pgrid_net::{EpochOnline, NetStats, PeerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{built_grid, fmt_f, Table};

/// Parameters of the failure/repair experiment.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// References per level.
    pub refmax: usize,
    /// Fraction of peers that die permanently.
    pub dead_fraction: f64,
    /// Maintenance rounds to run (one row per round).
    pub rounds: usize,
    /// Searches per measurement.
    pub searches: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 2000,
            maxl: 7,
            refmax: 3,
            dead_fraction: 0.5,
            rounds: 4,
            searches: 1500,
            seed: 0x4e9a,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 400,
            maxl: 5,
            refmax: 2,
            dead_fraction: 0.5,
            rounds: 3,
            searches: 400,
            seed: 0x4e9a,
        }
    }
}

/// One measured repair stage.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Maintenance rounds completed (0 = right after the failure).
    pub rounds: usize,
    /// Search success rate among surviving peers.
    pub success_rate: f64,
    /// Mean messages per search.
    pub avg_messages: f64,
    /// Cumulative references pruned.
    pub removed: u64,
    /// Cumulative references re-learned.
    pub added: u64,
    /// Cumulative repair traffic (probes + refill search messages).
    pub repair_messages: u64,
}

/// Runs the experiment.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: cfg.refmax,
        ..PGridConfig::default()
    };
    let mut built = built_grid(cfg.n, grid_cfg, 1.0, 0.99, None, cfg.seed);

    // Permanent, evenly-spread failure.
    let mut online = EpochOnline::new(cfg.n, 1.0);
    let dead = (cfg.n as f64 * cfg.dead_fraction) as usize;
    for i in 0..dead {
        online.set_online(PeerId::from_index(i * cfg.n / dead.max(1) % cfg.n), false);
    }

    let mut rows = Vec::new();
    let mut cum = pgrid_core::RepairReport::default();
    for round in 0..=cfg.rounds {
        if round > 0 {
            let report =
                built.with_ctx(&mut online, |grid, ctx| grid.repair_round(cfg.refmax, ctx));
            cum.merge(report);
        }
        let (rate, msgs) = measure(&mut built, &mut online, cfg);
        rows.push(Row {
            rounds: round,
            success_rate: rate,
            avg_messages: msgs,
            removed: cum.removed,
            added: cum.added,
            repair_messages: cum.probes + cum.search_messages,
        });
    }

    let mut table = Table::new(
        format!(
            "Repair: search reliability vs maintenance rounds (N={}, {}% dead, refmax={})",
            cfg.n,
            (cfg.dead_fraction * 100.0) as u32,
            cfg.refmax
        ),
        &[
            "rounds",
            "success rate",
            "msgs/search",
            "refs pruned",
            "refs added",
            "repair msgs",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.rounds.to_string(),
            fmt_f(r.success_rate, 3),
            fmt_f(r.avg_messages, 2),
            r.removed.to_string(),
            r.added.to_string(),
            r.repair_messages.to_string(),
        ]);
    }
    (rows, table)
}

fn measure(built: &mut crate::BuiltGrid, online: &mut EpochOnline, cfg: &Config) -> (f64, f64) {
    // Independent RNG so the measurement does not perturb the repair stream.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xeea5);
    let mut stats = NetStats::new();
    let mut ctx = pgrid_core::Ctx::new(&mut rng, online, &mut stats);
    let mut hits = 0u64;
    let mut msgs = 0u64;
    let mut issued = 0usize;
    let mut guard = 0usize;
    while issued < cfg.searches && guard < cfg.searches * 20 {
        guard += 1;
        let start = built.grid.random_peer(&mut ctx);
        if !ctx.online.is_online(start, ctx.rng) {
            continue; // only live peers issue searches
        }
        issued += 1;
        let key = BitPath::random(ctx.rng, cfg.maxl as u8);
        let out = built.grid.search(start, &key, &mut ctx);
        msgs += out.messages;
        hits += u64::from(out.responsible.is_some());
    }
    (
        hits as f64 / issued.max(1) as f64,
        msgs as f64 / issued.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_recovers_reliability() {
        let (rows, table) = run(&Config::small());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.success_rate > first.success_rate + 0.1,
            "repair must recover reliability: {} -> {}",
            first.success_rate,
            last.success_rate
        );
        assert!(last.removed > 0 && last.added > 0);
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn most_recovery_happens_in_round_one() {
        let (rows, _) = run(&Config::small());
        let r0 = rows[0].success_rate;
        let r1 = rows[1].success_rate;
        let r_last = rows.last().unwrap().success_rate;
        assert!(
            r1 - r0 >= (r_last - r0) * 0.4,
            "first round should do much of the work: {r0} -> {r1} -> {r_last}"
        );
    }
}
