//! **Extra — skewed key populations** (the §6 future-work limitation,
//! demonstrated).
//!
//! The paper: *"The approach presented in this paper is limited to uniform
//! data distributions."* The construction balances **peers** over paths, not
//! **data** over peers — with a skewed key population, peers responsible for
//! dense regions index far more entries than peers in sparse regions. This
//! experiment quantifies that imbalance so the limitation is visible rather
//! than anecdotal.

use pgrid_core::{BalanceConfig, IndexEntry, LoadTracker, PGrid, PGridConfig};
use pgrid_net::{AlwaysOnline, PeerId};
use pgrid_store::{ItemId, Version};

use crate::workload::{SkewedKeys, UniformKeys};
use crate::{built_grid, fmt_f, run_query_plan, run_sharded, QueryPlan, QueryRecord, Table};

/// Parameters of the skew demonstration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// Data items to index.
    pub items: usize,
    /// Key length of items.
    pub key_len: u8,
    /// Skew intensities to sweep (0 = uniform).
    pub skews: [u32; 3],
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1000,
            maxl: 7,
            items: 10_000,
            key_len: 16,
            skews: [0, 1, 3],
            seed: 0x5e3d,
        }
    }
}

impl Config {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        Config {
            n: 256,
            maxl: 5,
            items: 2_000,
            key_len: 12,
            skews: [0, 1, 3],
            seed: 0x5e3d,
        }
    }
}

/// One measured skew level.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Skew intensity (0 = uniform).
    pub skew: u32,
    /// Mean index entries per peer.
    pub mean_entries: f64,
    /// Largest per-peer index.
    pub max_entries: usize,
    /// Imbalance ratio `max / mean` — near 1–3 when uniform, growing with
    /// skew.
    pub imbalance: f64,
    /// Fraction of peers with an empty index.
    pub empty_fraction: f64,
}

/// Runs the sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let mut rows = Vec::new();
    for &skew in &cfg.skews {
        let grid_cfg = PGridConfig {
            maxl: cfg.maxl,
            refmax: 2,
            ..PGridConfig::default()
        };
        let mut built = built_grid(
            cfg.n,
            grid_cfg,
            1.0,
            0.99,
            None,
            cfg.seed ^ (u64::from(skew) << 40),
        );
        let keys: Vec<_> = if skew == 0 {
            let gen = UniformKeys { len: cfg.key_len };
            (0..cfg.items).map(|_| gen.sample(&mut built.rng)).collect()
        } else {
            let gen = SkewedKeys {
                len: cfg.key_len,
                skew,
            };
            (0..cfg.items).map(|_| gen.sample(&mut built.rng)).collect()
        };
        for (i, key) in keys.iter().enumerate() {
            built.grid.seed_index(
                *key,
                IndexEntry {
                    item: ItemId(i as u64),
                    holder: PeerId((i % cfg.n) as u32),
                    version: Version(0),
                },
            );
        }
        let sizes: Vec<usize> = built.grid.peers().map(|p| p.index().len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = sizes.iter().copied().max().unwrap_or(0);
        let empty = sizes.iter().filter(|&&s| s == 0).count();
        rows.push(Row {
            skew,
            mean_entries: mean,
            max_entries: max,
            imbalance: max as f64 / mean.max(f64::EPSILON),
            empty_fraction: empty as f64 / sizes.len() as f64,
        });
    }

    let mut table = Table::new(
        format!(
            "Skew: index imbalance vs key skew (N={}, maxl={}, {} items)",
            cfg.n, cfg.maxl, cfg.items
        ),
        &[
            "skew",
            "mean entries",
            "max entries",
            "imbalance",
            "empty peers",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.skew.to_string(),
            fmt_f(r.mean_entries, 1),
            r.max_entries.to_string(),
            fmt_f(r.imbalance, 2),
            fmt_f(r.empty_fraction, 3),
        ]);
    }
    (rows, table)
}

// ---- adaptation: the same skew, with the balancer switched on ----------

/// Parameters of the **adaptation** experiment: the skew sweep above, then
/// [`PGrid::balance_round`] driven to its fixpoint, with before/after
/// imbalance side by side.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Community size.
    pub n: usize,
    /// Maximal path length — deep, so hot subtrees have split headroom.
    pub maxl: usize,
    /// Data items to index.
    pub items: usize,
    /// Key length of items (and of the probe queries).
    pub key_len: u8,
    /// Skew intensities to adapt under (uniform is pointless here).
    pub skews: [u32; 2],
    /// Hot/cold threshold handed to the balancer, ×1000.
    pub target_ratio_x1000: u64,
    /// Round budget before a level is declared non-converged.
    pub max_rounds: u32,
    /// Probe queries for the thread-invariance check.
    pub queries: usize,
    /// Task shards of the probe workload.
    pub shards: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            n: 1000,
            maxl: 16,
            items: 10_000,
            key_len: 24,
            skews: [1, 3],
            target_ratio_x1000: 2000,
            max_rounds: 192,
            queries: 2_000,
            shards: 64,
            seed: 0xba1a,
        }
    }
}

impl AdaptConfig {
    /// A laptop-fast preset.
    pub fn small() -> Self {
        AdaptConfig {
            n: 256,
            items: 4_000,
            queries: 512,
            shards: 16,
            ..AdaptConfig::default()
        }
    }
}

/// One adapted skew level: the static imbalance before, the balancer's
/// fixpoint after.
#[derive(Clone, Copy, Debug)]
pub struct AdaptRow {
    /// Skew intensity.
    pub skew: u32,
    /// Max/mean load before any balancing — the baseline of [`run`].
    pub imbalance_before: f64,
    /// Max/mean load at the balancer's fixpoint.
    pub imbalance_after: f64,
    /// Rounds until the fixpoint (or the budget, if not converged).
    pub rounds: u32,
    /// `true` when a round with zero corrective actions was reached.
    pub converged: bool,
    /// Total paths extended (splits) across all rounds.
    pub extended: u64,
    /// Total paths retracted across all rounds.
    pub retracted: u64,
    /// Total index entries that changed host.
    pub rebalanced: u64,
    /// Structural audit violations on the balanced grid (must be 0).
    pub violations_after: usize,
    /// `true` when the probe workload is byte-identical at 1 vs 4 threads.
    pub thread_invariant: bool,
}

fn imbalance(grid: &PGrid, tracker: &LoadTracker, cfg: &BalanceConfig) -> f64 {
    let loads = grid.peer_loads(tracker, cfg);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max = loads.iter().copied().max().unwrap_or(0);
    max as f64 / mean.max(f64::EPSILON)
}

/// Runs the adaptation sweep: build, seed skewed, balance to fixpoint.
pub fn run_adaptation(cfg: &AdaptConfig) -> (Vec<AdaptRow>, Table) {
    let mut rows = Vec::new();
    for &skew in &cfg.skews {
        let grid_cfg = PGridConfig {
            maxl: cfg.maxl,
            refmax: 2,
            ..PGridConfig::default()
        };
        // Low construction threshold + deep maxl: the builder stops early
        // and leaves the depth headroom the balancer will spend on hot
        // subtrees.
        let mut built = built_grid(
            cfg.n,
            grid_cfg,
            1.0,
            0.45,
            None,
            cfg.seed ^ (u64::from(skew) << 40),
        );
        let gen = SkewedKeys {
            len: cfg.key_len,
            skew,
        };
        for i in 0..cfg.items {
            let key = gen.sample(&mut built.rng);
            built.grid.seed_index(
                key,
                IndexEntry {
                    item: ItemId(i as u64),
                    holder: PeerId((i % cfg.n) as u32),
                    version: Version(0),
                },
            );
        }
        let bal = BalanceConfig {
            target_ratio_x1000: cfg.target_ratio_x1000,
            ..BalanceConfig::default()
        };
        let tracker = LoadTracker::new(cfg.n);
        let before = imbalance(&built.grid, &tracker, &bal);

        let mut online = AlwaysOnline;
        let max_rounds = cfg.max_rounds;
        let (rounds, converged, extended, retracted, rebalanced) =
            built.with_ctx(&mut online, |grid, ctx| {
                let mut rounds = 0u32;
                let mut converged = false;
                let (mut ext, mut ret, mut reb) = (0u64, 0u64, 0u64);
                for _ in 0..max_rounds {
                    let r = grid.balance_round(&tracker, &bal, ctx);
                    rounds += 1;
                    ext += r.paths_extended;
                    ret += r.paths_retracted;
                    reb += r.entries_rebalanced;
                    if r.actions() == 0 {
                        converged = true;
                        break;
                    }
                }
                (rounds, converged, ext, ret, reb)
            });

        let after = imbalance(&built.grid, &tracker, &bal);
        let violations_after = built.grid.audit().len();
        // The balanced grid must stay a valid query substrate, and the
        // probe workload over it must not depend on the worker count.
        let plan = QueryPlan {
            queries: cfg.queries,
            key_len: cfg.key_len,
            shards: cfg.shards,
        };
        let one = run_query_plan(&built.grid, &plan, cfg.seed ^ 0x7, &AlwaysOnline, 1);
        let four = run_query_plan(&built.grid, &plan, cfg.seed ^ 0x7, &AlwaysOnline, 4);
        rows.push(AdaptRow {
            skew,
            imbalance_before: before,
            imbalance_after: after,
            rounds,
            converged,
            extended,
            retracted,
            rebalanced,
            violations_after,
            thread_invariant: one == four,
        });
    }

    let mut table = Table::new(
        format!(
            "Skew adaptation: balance_round to fixpoint (N={}, maxl={}, {} items)",
            cfg.n, cfg.maxl, cfg.items
        ),
        &[
            "skew",
            "imbalance before",
            "imbalance after",
            "rounds",
            "converged",
            "extended",
            "retracted",
            "rebalanced",
            "violations",
            "1t==4t",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.skew.to_string(),
            fmt_f(r.imbalance_before, 2),
            fmt_f(r.imbalance_after, 2),
            r.rounds.to_string(),
            r.converged.to_string(),
            r.extended.to_string(),
            r.retracted.to_string(),
            r.rebalanced.to_string(),
            r.violations_after.to_string(),
            r.thread_invariant.to_string(),
        ]);
    }
    (rows, table)
}

// ---- flash crowd: hit load instead of entry load -----------------------

/// Parameters of the **flash-crowd** scenario: a uniform catalogue, then
/// one key is hammered round after round; replica scaling must grow the
/// hot path's group and the per-query cost envelope must recover.
#[derive(Clone, Copy, Debug)]
pub struct FlashConfig {
    /// Community size.
    pub n: usize,
    /// Maximal path length.
    pub maxl: usize,
    /// Catalogue size (uniformly keyed).
    pub items: usize,
    /// Key length in bits.
    pub key_len: u8,
    /// Rounds of crowd traffic + one balance pass each.
    pub rounds: u32,
    /// Hot-key queries per round.
    pub queries_per_round: usize,
    /// Task shards of each round's burst.
    pub shards: u64,
    /// Load units per decayed hit (entries weigh 1).
    pub hit_weight: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            n: 256,
            maxl: 16,
            items: 2_000,
            key_len: 24,
            rounds: 8,
            queries_per_round: 512,
            shards: 16,
            hit_weight: 8,
            seed: 0xf1a5,
        }
    }
}

/// One flash-crowd round, measured *after* that round's balance pass.
#[derive(Clone, Copy, Debug)]
pub struct FlashRow {
    /// Round number (0-based).
    pub round: u32,
    /// Replica-group size of the hot key.
    pub replicas: usize,
    /// Mean messages per hot-key query this round — the latency envelope.
    pub mean_messages: f64,
    /// Max/mean load ratio sampled by the balance pass, ×1000.
    pub ratio_x1000: u64,
    /// Corrective actions the pass applied.
    pub actions: u64,
}

/// Runs the flash-crowd scenario. The hit feed is deterministic: every
/// query's responsible peer (straight from the sharded records, merged in
/// task order) is one tracker hit.
pub fn run_flash_crowd(cfg: &FlashConfig) -> (Vec<FlashRow>, Table) {
    let grid_cfg = PGridConfig {
        maxl: cfg.maxl,
        refmax: 2,
        ..PGridConfig::default()
    };
    let mut built = built_grid(cfg.n, grid_cfg, 1.0, 0.45, None, cfg.seed);
    let gen = UniformKeys { len: cfg.key_len };
    let mut hot = None;
    for i in 0..cfg.items {
        let key = gen.sample(&mut built.rng);
        hot.get_or_insert(key);
        built.grid.seed_index(
            key,
            IndexEntry {
                item: ItemId(i as u64),
                holder: PeerId((i % cfg.n) as u32),
                version: Version(0),
            },
        );
    }
    let hot = hot.expect("items >= 1");

    let bal = BalanceConfig {
        hit_weight: cfg.hit_weight,
        ..BalanceConfig::default()
    };
    let mut tracker = LoadTracker::new(cfg.n);
    let mut online = AlwaysOnline;
    let mut rows = Vec::new();
    for round in 0..cfg.rounds {
        // The crowd: `queries_per_round` searches for the one hot key,
        // sharded exactly like any query plan (thread-count invariant).
        let per = cfg.queries_per_round / cfg.shards.max(1) as usize;
        let rem = cfg.queries_per_round % cfg.shards.max(1) as usize;
        let grid = &built.grid;
        let burst = run_sharded(
            cfg.seed ^ (u64::from(round) << 32),
            &AlwaysOnline,
            cfg.shards.max(1),
            4,
            |task, ctx| {
                let count = per + usize::from((task as usize) < rem);
                let mut recs = Vec::with_capacity(count);
                for _ in 0..count {
                    let start = grid.random_peer(ctx);
                    recs.push(grid.search(start, &hot, ctx));
                }
                recs
            },
        );
        let records: Vec<QueryRecord> = burst.results.into_iter().flatten().collect();
        for r in &records {
            if let Some(p) = r.responsible {
                tracker.record_hit(p);
            }
        }
        let mean_messages =
            records.iter().map(|r| r.messages).sum::<u64>() as f64 / records.len().max(1) as f64;

        let report = built.with_ctx(&mut online, |g, ctx| g.balance_round(&tracker, &bal, ctx));
        tracker.decay();
        rows.push(FlashRow {
            round,
            replicas: built.grid.replicas_of(&hot).len(),
            mean_messages,
            ratio_x1000: report.load_max_over_mean_x1000,
            actions: report.actions(),
        });
    }

    let mut table = Table::new(
        format!(
            "Flash crowd: replica scaling under a hot key (N={}, {} queries/round)",
            cfg.n, cfg.queries_per_round
        ),
        &["round", "replicas", "mean msgs", "max/mean", "actions"],
    );
    for r in &rows {
        table.push_row(vec![
            r.round.to_string(),
            r.replicas.to_string(),
            fmt_f(r.mean_messages, 2),
            fmt_f(r.ratio_x1000 as f64 / 1000.0, 2),
            r.actions.to_string(),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_inflates_imbalance() {
        let (rows, _) = run(&Config::small());
        let at = |skew: u32| rows.iter().find(|r| r.skew == skew).unwrap();
        assert!(
            at(3).imbalance > at(0).imbalance * 1.5,
            "skew 3 ({}) must clearly exceed uniform ({})",
            at(3).imbalance,
            at(0).imbalance
        );
        assert!(at(3).empty_fraction >= at(0).empty_fraction);
    }

    #[test]
    fn uniform_load_is_roughly_balanced() {
        let (rows, _) = run(&Config::small());
        let uniform = rows.iter().find(|r| r.skew == 0).unwrap();
        assert!(
            uniform.imbalance < 15.0,
            "uniform imbalance should be modest: {}",
            uniform.imbalance
        );
    }

    #[test]
    fn adaptation_converges_below_target_and_is_thread_invariant() {
        let (rows, _) = run_adaptation(&AdaptConfig::small());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.converged, "skew {} did not converge in budget", r.skew);
            assert!(
                r.imbalance_after <= 2.0 + 1e-9,
                "skew {}: fixpoint imbalance {} above target",
                r.skew,
                r.imbalance_after
            );
            assert!(
                r.imbalance_after <= r.imbalance_before,
                "skew {}: balancing must not worsen the ratio",
                r.skew
            );
            assert!(r.extended > 0, "a skewed grid needs splits to converge");
            assert_eq!(r.violations_after, 0, "post-balance audit must be clean");
            assert!(
                r.thread_invariant,
                "probe workload diverged at 1 vs 4 threads"
            );
        }
    }

    #[test]
    fn flash_crowd_scales_the_hot_group_and_the_envelope_recovers() {
        let (rows, _) = run_flash_crowd(&FlashConfig::default());
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.replicas > first.replicas,
            "crowd pressure must grow the hot replica group: {} -> {}",
            first.replicas,
            last.replicas
        );
        assert!(
            last.mean_messages <= first.mean_messages * 1.25 + 0.5,
            "per-query envelope must recover: {} -> {}",
            first.mean_messages,
            last.mean_messages
        );
    }
}
