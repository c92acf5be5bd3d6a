//! **T6 — update/query cost tradeoff** (last table of §5.2).
//!
//! 100 updates are propagated with breadth-first search (`recbreadth`
//! references per level, the sweep repeated `repetition` times); each
//! updated item is then queried 10 times. Two read modes:
//!
//! * **non-repetitive** — a single search; the answer is whatever version
//!   the found replica stores (cheap, ~5.5 messages, but stale whenever an
//!   un-updated replica answers);
//! * **repetitive** — repeated searches with a majority decision
//!   (the paper: *"by repeating queries, arbitrarily high reliability can be
//!   achieved by a making majority decision"*), practically 100% correct at
//!   a higher per-query cost that *falls* as updates reach more replicas.
//!
//! The paper's exact stopping rule for the repetitive reads is unspecified;
//! we stop once the newest version seen has been confirmed `votes_target`
//! times, returning the newest seen on budget exhaustion (versions are
//! monotone, so newest-wins is sound even when updates reached a minority
//! of replicas — see EXPERIMENTS.md for the interpretation note). The qualitative tradeoff —
//! cheap updates + repetitive reads beat expensive updates + single reads
//! once queries are even moderately more frequent than updates — is exactly
//! the paper's conclusion.

use pgrid_core::{DecisionRule, FindStrategy, QueryPolicy};
use pgrid_net::{BernoulliOnline, PeerId};
use pgrid_store::{ItemId, Version};

use crate::experiments::f4;
use crate::workload::UniformKeys;
use crate::{fmt_f, Table};

/// Parameters of the tradeoff table.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The grid to build (defaults to the paper's F4 grid).
    pub grid: f4::Config,
    /// Updates per configuration (paper: 100).
    pub updates: usize,
    /// Queries per update (paper: 10).
    pub queries_per_update: usize,
    /// Key length of updated items (paper: 9).
    pub key_len: u8,
    /// Online probability (paper: 0.3).
    pub p_online: f64,
    /// `recbreadth` values (paper: 2, 3).
    pub recbreadths: &'static [usize],
    /// `repetition` values (paper: 1, 2, 3).
    pub repetitions: &'static [usize],
    /// Majority-read policy for the repetitive mode.
    pub policy: QueryPolicy,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            grid: f4::Config::default(),
            updates: 100,
            queries_per_update: 10,
            key_len: 9,
            p_online: 0.3,
            recbreadths: &[2, 3],
            repetitions: &[1, 2, 3],
            policy: QueryPolicy {
                votes_target: 3,
                max_searches: 25,
                rule: DecisionRule::NewestConfirmed,
            },
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
            updates: 20,
            queries_per_update: 5,
            key_len: 6,
            p_online: 0.5,
            recbreadths: &[2, 3],
            repetitions: &[1, 3],
            policy: QueryPolicy {
                votes_target: 3,
                max_searches: 25,
                rule: DecisionRule::NewestConfirmed,
            },
        }
    }
}

/// One row of the tradeoff table.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Whether reads used repeated-search majority.
    pub repetitive: bool,
    /// BFS branching factor of the update.
    pub recbreadth: usize,
    /// BFS sweep repetitions of the update.
    pub repetition: usize,
    /// Fraction of queries answering with the fresh version.
    pub successrate: f64,
    /// Mean messages per query.
    pub query_cost: f64,
    /// Mean messages per update ("insertion cost").
    pub insertion_cost: f64,
    /// Mean fraction of replicas the update reached.
    pub update_recall: f64,
}

/// The paper's closing §5.2 argument: between a *cheap-update + repetitive
/// read* configuration and an *expensive-update + single read* configuration
/// of comparable reliability, the expensive one only wins when queries are
/// rare. The break-even query:update ratio `R*` solves
/// `insert_hi + R·query_lo = insert_lo + R·query_hi`; the paper derives
/// ≈ 160 from its numbers.
///
/// Returns `(cheap_row, expensive_row, ratio)`, or `None` when no pair of
/// comparable-reliability rows exists.
pub fn break_even(rows: &[Row]) -> Option<(Row, Row, f64)> {
    // The paper's pair: repetitive (recbreadth=2, repetition=3) vs
    // non-repetitive (recbreadth=3, repetition=3).
    let cheap = *rows
        .iter()
        .find(|r| r.repetitive && r.recbreadth == 2 && r.repetition == 3)?;
    let expensive = *rows
        .iter()
        .find(|r| !r.repetitive && r.recbreadth == 3 && r.repetition == 3)?;
    let insert_delta = expensive.insertion_cost - cheap.insertion_cost;
    let query_delta = cheap.query_cost - expensive.query_cost;
    if query_delta <= 0.0 {
        return None; // repetitive reads are not more expensive: no crossover
    }
    Some((cheap, expensive, insert_delta / query_delta))
}

/// Runs the tradeoff sweep.
pub fn run(cfg: &Config) -> (Vec<Row>, Table) {
    let (_, _, mut built) = f4::run(&cfg.grid);
    let keygen = UniformKeys { len: cfg.key_len };
    let mut online = BernoulliOnline::new(cfg.p_online);
    let mut rows = Vec::new();

    for &repetitive in &[true, false] {
        for &recbreadth in cfg.recbreadths {
            for &repetition in cfg.repetitions {
                let (success, qcost, icost, recall) = built.with_ctx(&mut online, |grid, ctx| {
                    let mut ok = 0u64;
                    let mut queries = 0u64;
                    let mut query_msgs = 0u64;
                    let mut insert_msgs = 0u64;
                    let mut recall_sum = 0.0;
                    for u in 0..cfg.updates {
                        let key = keygen.sample(ctx.rng);
                        let item = ItemId(u as u64);
                        // Install v0 everywhere (consistent baseline),
                        // then propagate v1 through the protocol.
                        grid.seed_index(
                            key,
                            pgrid_core::IndexEntry {
                                item,
                                holder: PeerId(0),
                                version: Version(0),
                            },
                        );
                        let up = grid.update_item(
                            &key,
                            item,
                            Version(1),
                            FindStrategy::Bfs {
                                recbreadth,
                                repetition,
                            },
                            ctx,
                        );
                        insert_msgs += up.messages;
                        let replicas = grid.replicas_of(&key).len();
                        recall_sum += up.updated.len() as f64 / replicas.max(1) as f64;
                        for _ in 0..cfg.queries_per_update {
                            let read = if repetitive {
                                grid.query_repeated(&key, item, &cfg.policy, ctx)
                            } else {
                                grid.query_once(&key, item, ctx)
                            };
                            queries += 1;
                            query_msgs += read.messages;
                            if read.version == Some(Version(1)) {
                                ok += 1;
                            }
                        }
                    }
                    (
                        ok as f64 / queries as f64,
                        query_msgs as f64 / queries as f64,
                        insert_msgs as f64 / cfg.updates as f64,
                        recall_sum / cfg.updates as f64,
                    )
                });
                rows.push(Row {
                    repetitive,
                    recbreadth,
                    repetition,
                    successrate: success,
                    query_cost: qcost,
                    insertion_cost: icost,
                    update_recall: recall,
                });
            }
        }
    }

    let mut table = Table::new(
        format!(
            "T6: update/query tradeoff (N={}, {} updates x {} queries, p={})",
            cfg.grid.n, cfg.updates, cfg.queries_per_update, cfg.p_online
        ),
        &[
            "mode",
            "recbreadth",
            "repetition",
            "successrate",
            "query cost",
            "insertion cost",
            "update recall",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            if r.repetitive {
                "repetitive".into()
            } else {
                "non-repetitive".into()
            },
            r.recbreadth.to_string(),
            r.repetition.to_string(),
            fmt_f(r.successrate, 3),
            fmt_f(r.query_cost, 1),
            fmt_f(r.insertion_cost, 1),
            fmt_f(r.update_recall, 3),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rows: &[Row], repetitive: bool, recbreadth: usize, repetition: usize) -> Row {
        *rows
            .iter()
            .find(|r| {
                r.repetitive == repetitive
                    && r.recbreadth == recbreadth
                    && r.repetition == repetition
            })
            .unwrap()
    }

    #[test]
    fn break_even_ratio_exists_and_is_positive() {
        let cfg = Config {
            repetitions: &[1, 3],
            ..Config::small()
        };
        let (rows, _) = run(&cfg);
        let (cheap, expensive, ratio) = break_even(&rows).expect("comparable pair");
        assert!(cheap.insertion_cost < expensive.insertion_cost);
        assert!(cheap.query_cost > expensive.query_cost);
        assert!(ratio > 0.0 && ratio.is_finite(), "break-even ratio {ratio}");
    }

    #[test]
    fn repetitive_reads_are_more_reliable() {
        let (rows, _) = run(&Config::small());
        let rep = find(&rows, true, 2, 1);
        let non = find(&rows, false, 2, 1);
        assert!(
            rep.successrate >= non.successrate,
            "majority reads must not be less reliable: {} vs {}",
            rep.successrate,
            non.successrate
        );
        assert!(
            rep.query_cost > non.query_cost,
            "reliability costs messages: {} vs {}",
            rep.query_cost,
            non.query_cost
        );
    }

    #[test]
    fn more_update_effort_raises_single_read_success() {
        let (rows, _) = run(&Config::small());
        let light = find(&rows, false, 2, 1);
        let heavy = find(&rows, false, 3, 3);
        assert!(heavy.insertion_cost > light.insertion_cost);
        assert!(
            heavy.successrate >= light.successrate,
            "heavier updates reach more replicas: {} vs {}",
            heavy.successrate,
            light.successrate
        );
        assert!(heavy.update_recall >= light.update_recall);
    }

    #[test]
    fn repetitive_query_cost_falls_with_update_effort() {
        let (rows, _) = run(&Config::small());
        let light = find(&rows, true, 2, 1);
        let heavy = find(&rows, true, 3, 3);
        assert!(
            heavy.query_cost <= light.query_cost * 1.25,
            "more updated replicas → majority reached sooner: {} vs {}",
            heavy.query_cost,
            light.query_cost
        );
    }
}
