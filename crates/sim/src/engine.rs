//! The parallel deterministic experiment engine.
//!
//! Query workloads split into a **fixed number of tasks** (shards). Task `t`
//! draws from its own RNG stream `task_seed(master_seed, t)`, probes a
//! forked copy of the availability model, and records into a private
//! [`NetStats`] shard; shards merge **in task order** afterwards. Because
//! nothing a task observes depends on when or where it ran, the merged
//! counters and the per-query outcomes are bit-identical for every thread
//! count — `threads` is purely a wall-clock knob.
//!
//! With `threads` at 0 or 1, or a single task, everything runs on the
//! calling thread.
//!
//! Each task's [`OwnedCtx`] also owns one scratch arena, lent to every
//! operation run through it: a shard's first query warms the buffers and
//! the rest of the batch executes without heap allocation (see DESIGN.md
//! "Hot-path memory discipline"). Scratch reuse is capacity-only — it never
//! affects RNG draws or results.

use pgrid_core::{BatchQuery, CompactRoutingTable, Ctx, OwnedCtx, PGrid, SearchOutcome};
use pgrid_net::{NetStats, OnlineModel};
use pgrid_trace::{merge_shards, RingTracer, Stamped};
use rand::Rng;

use crate::workload::UniformKeys;

/// Result of a sharded run: one `T` per task, in task order, plus the
/// counters of all shards merged in task order.
pub struct ShardedRun<T> {
    /// Per-task results, index = task id.
    pub results: Vec<T>,
    /// All shard counters, merged in task order.
    pub stats: NetStats,
}

/// Runs `f` once per task over its own forked context and merges the
/// shards in task order. `f` receives the task id and a [`Ctx`] whose RNG
/// stream, availability fork, and counters belong exclusively to that task.
///
/// The decomposition into `tasks` fixes the result; `threads` only decides
/// how many scoped worker threads execute them.
pub fn run_sharded<T, F>(
    master_seed: u64,
    online: &dyn OnlineModel,
    tasks: u64,
    threads: usize,
    f: F,
) -> ShardedRun<T>
where
    T: Send,
    F: Fn(u64, &mut Ctx<'_>) -> T + Sync,
{
    run_shards(master_seed, online, tasks, threads, None, f).0
}

/// The one sharded runner. With `shard_capacity`, each task records into a
/// private ring of that many events, and the rings are drained and
/// concatenated **in task order** — the trace-stream twin of the counter
/// merge, so the merged trace is as thread-count-invariant as the stats.
/// Without it the returned trace is empty.
fn run_shards<T, F>(
    master_seed: u64,
    online: &dyn OnlineModel,
    tasks: u64,
    threads: usize,
    shard_capacity: Option<usize>,
    f: F,
) -> (ShardedRun<T>, Vec<Stamped>)
where
    T: Send,
    F: Fn(u64, &mut Ctx<'_>) -> T + Sync,
{
    // Fork every task context up front, on the calling thread, in task
    // order — forking models like `EpochOnline` may consult shared state.
    let mut shards: Vec<OwnedCtx> = (0..tasks)
        .map(|t| {
            let mut shard = Ctx::fork_for_task(master_seed, t, online.fork(t));
            if let Some(capacity) = shard_capacity {
                shard.set_tracer(Box::new(RingTracer::new(capacity)));
            }
            shard
        })
        .collect();
    let results = execute_shards(&mut shards, threads, &f);
    let mut stats = NetStats::new();
    for shard in &shards {
        stats.merge(&shard.stats);
    }
    let events = merge_shards(shards.iter_mut().map(OwnedCtx::take_trace_events).collect());
    (ShardedRun { results, stats }, events)
}

/// Runs `f` once per shard, on `threads` scoped workers (or inline). The
/// task decomposition fixes the result; `threads` is wall-clock only.
fn execute_shards<T, F>(shards: &mut [OwnedCtx], threads: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut Ctx<'_>) -> T + Sync,
{
    if threads <= 1 || shards.len() <= 1 {
        shards
            .iter_mut()
            .enumerate()
            .map(|(t, shard)| f(t as u64, &mut shard.ctx()))
            .collect()
    } else {
        let chunk_len = shards.len().div_ceil(threads);
        let mut per_chunk: Vec<Vec<T>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .chunks_mut(chunk_len)
                .enumerate()
                .map(|(c, chunk)| {
                    scope.spawn(move || {
                        chunk
                            .iter_mut()
                            .enumerate()
                            .map(|(i, shard)| f((c * chunk_len + i) as u64, &mut shard.ctx()))
                            .collect::<Vec<T>>()
                    })
                })
                .collect();
            per_chunk = handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect();
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// A deterministic query workload: `queries` uniform random keys of
/// `key_len` bits, decomposed into `shards` tasks.
///
/// The shard count is part of the experiment definition (it fixes which
/// RNG stream serves which query); the thread count is not.
#[derive(Clone, Copy, Debug)]
pub struct QueryPlan {
    /// Total number of queries.
    pub queries: usize,
    /// Query key length in bits.
    pub key_len: u8,
    /// Number of tasks the workload splits into.
    pub shards: u64,
}

/// What one query did — comparable byte for byte across runs.
pub type QueryRecord = SearchOutcome;

/// Outcome of a [`QueryPlan`] execution.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRunOutcome {
    /// One record per query, grouped by shard, in task order.
    pub records: Vec<QueryRecord>,
    /// Merged counters of all shards.
    pub stats: NetStats,
}

impl QueryRunOutcome {
    /// Number of successful queries.
    pub fn successes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.responsible.is_some())
            .count() as u64
    }
}

/// Executes `plan` against `grid` (read-only, shared by all workers) with
/// `threads` workers. Deterministic in `(plan, master_seed, online)`;
/// independent of `threads`. Every query of a shard draws from the shard's
/// one RNG stream, in query order.
///
/// Per shard, the record buffer is reserved once up front and the searches
/// run on the shard's warm scratch arena, so the steady-state per-query
/// allocation count is zero (`tests/alloc_free.rs` asserts it for the
/// underlying `search` and `search_batch`).
pub fn run_query_plan(
    grid: &PGrid,
    plan: &QueryPlan,
    master_seed: u64,
    online: &dyn OnlineModel,
    threads: usize,
) -> QueryRunOutcome {
    run_plan(grid, plan, master_seed, online, threads, None, None).0
}

/// [`run_query_plan`] with every shard recording into the flight recorder:
/// returns the identical outcome plus the merged trace. Only the attached
/// sink differs, which is what the traced-vs-untraced identity tests pin.
pub fn run_query_plan_traced(
    grid: &PGrid,
    plan: &QueryPlan,
    master_seed: u64,
    online: &dyn OnlineModel,
    threads: usize,
    shard_capacity: usize,
) -> (QueryRunOutcome, Vec<Stamped>) {
    run_plan(
        grid,
        plan,
        master_seed,
        online,
        threads,
        None,
        Some(shard_capacity),
    )
}

/// Executes `plan` over a [`CompactRoutingTable`] frozen once and shared
/// (read-only) by all workers; each shard hands its queries to
/// [`PGrid::search_batch`] `batch` at a time.
///
/// Determinism: each shard pre-draws its queries — key, start peer, and a
/// per-query RNG seed — from the shard stream *in query order* before any
/// descent runs, so records, counters, and traces are byte-identical across
/// **all** batch sizes and thread counts. (The per-query streams
/// intentionally differ from [`run_query_plan`]'s shared shard stream — the
/// two families are each self-consistent, not cross-identical; see
/// DESIGN.md §8.)
pub fn run_query_plan_batched(
    grid: &PGrid,
    plan: &QueryPlan,
    master_seed: u64,
    online: &dyn OnlineModel,
    threads: usize,
    batch: usize,
) -> QueryRunOutcome {
    run_plan(grid, plan, master_seed, online, threads, Some(batch), None).0
}

/// [`run_query_plan_batched`] with every shard recording into the flight
/// recorder; the merged trace is byte-identical for every batch size and
/// thread count — pinned by the `batch_determinism` suite.
pub fn run_query_plan_batched_traced(
    grid: &PGrid,
    plan: &QueryPlan,
    master_seed: u64,
    online: &dyn OnlineModel,
    threads: usize,
    batch: usize,
    shard_capacity: usize,
) -> (QueryRunOutcome, Vec<Stamped>) {
    run_plan(
        grid,
        plan,
        master_seed,
        online,
        threads,
        Some(batch),
        Some(shard_capacity),
    )
}

/// The one plan runner behind the four public entry points: `batch` selects
/// the per-query-stream family over a frozen table, `shard_capacity`
/// attaches the flight recorder.
fn run_plan(
    grid: &PGrid,
    plan: &QueryPlan,
    master_seed: u64,
    online: &dyn OnlineModel,
    threads: usize,
    batch: Option<usize>,
    shard_capacity: Option<usize>,
) -> (QueryRunOutcome, Vec<Stamped>) {
    let table = batch.map(|_| CompactRoutingTable::build(grid));
    let shards = plan.shards.max(1);
    let per = plan.queries / shards as usize;
    let rem = plan.queries % shards as usize;
    let keygen = UniformKeys { len: plan.key_len };

    let (run, events) = run_shards(
        master_seed,
        online,
        shards,
        threads,
        shard_capacity,
        |task, ctx| {
            // Shards 0..rem take one extra query, so every query runs
            // exactly once.
            let count = per + usize::from((task as usize) < rem);
            query_shard(grid, table.as_ref().zip(batch), &keygen, count, ctx)
        },
    );
    let outcome = QueryRunOutcome {
        records: run.results.into_iter().flatten().collect(),
        stats: run.stats,
    };
    (outcome, events)
}

/// One shard's share of a query plan. Plain: draw a query, search, repeat.
/// Batched (`table` and chunk size given): pre-draw every query spec in
/// query order, then hand them to [`PGrid::search_batch`] a chunk at a time.
fn query_shard(
    grid: &PGrid,
    batched: Option<(&CompactRoutingTable, usize)>,
    keygen: &UniformKeys,
    count: usize,
    ctx: &mut Ctx<'_>,
) -> Vec<QueryRecord> {
    let mut records = Vec::with_capacity(count);
    let Some((table, batch)) = batched else {
        for _ in 0..count {
            let key = keygen.sample(ctx.rng);
            let start = grid.random_peer(ctx);
            records.push(grid.search(start, &key, ctx));
        }
        return records;
    };
    let mut specs = Vec::with_capacity(count);
    for _ in 0..count {
        let key = keygen.sample(ctx.rng);
        let start = grid.random_peer(ctx);
        let seed = ctx.rng.gen::<u64>();
        specs.push(BatchQuery { key, start, seed });
    }
    for chunk in specs.chunks(batch.max(1)) {
        grid.search_batch(Some(table), chunk, ctx, &mut records);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::built_grid;
    use pgrid_core::PGridConfig;
    use pgrid_net::{AlwaysOnline, BernoulliOnline, EpochOnline, PeerId};

    fn grid() -> PGrid {
        built_grid(
            128,
            PGridConfig {
                maxl: 4,
                ..PGridConfig::default()
            },
            1.0,
            0.99,
            None,
            3,
        )
        .grid
    }

    #[test]
    fn sharded_counters_merge_in_task_order() {
        let run = run_sharded(9, &AlwaysOnline, 4, 2, |task, ctx| {
            for _ in 0..=task {
                ctx.contact(PeerId(0));
            }
            task
        });
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(run.stats.contact_attempts, 1 + 2 + 3 + 4);
    }

    #[test]
    fn query_plan_is_thread_count_invariant() {
        let g = grid();
        let plan = QueryPlan {
            queries: 300,
            key_len: 4,
            shards: 8,
        };
        let online = BernoulliOnline::new(0.7);
        let base = run_query_plan(&g, &plan, 17, &online, 1);
        assert_eq!(base.records.len(), 300);
        assert!(base.successes() > 0);
        for threads in [2, 4, 8] {
            let other = run_query_plan(&g, &plan, 17, &online, threads);
            assert_eq!(base, other, "threads = {threads}");
        }
    }

    #[test]
    fn shard_count_changes_streams_but_not_totals_shape() {
        let g = grid();
        let online = AlwaysOnline;
        let a = run_query_plan(
            &g,
            &QueryPlan {
                queries: 100,
                key_len: 4,
                shards: 1,
            },
            5,
            &online,
            1,
        );
        let b = run_query_plan(
            &g,
            &QueryPlan {
                queries: 100,
                key_len: 4,
                shards: 4,
            },
            5,
            &online,
            1,
        );
        // Different decomposition = different streams — but both answer all
        // queries on an always-online converged grid.
        assert_eq!(a.records.len(), 100);
        assert_eq!(b.records.len(), 100);
        assert_eq!(a.successes(), 100);
        assert_eq!(b.successes(), 100);
    }

    #[test]
    fn traced_run_is_byte_identical_to_untraced() {
        let g = grid();
        let plan = QueryPlan {
            queries: 200,
            key_len: 4,
            shards: 4,
        };
        let online = BernoulliOnline::new(0.8);
        let base = run_query_plan(&g, &plan, 31, &online, 1);
        let (traced, events) = run_query_plan_traced(&g, &plan, 31, &online, 2, 1 << 16);
        // Observation must not perturb a single decision: records, counters,
        // everything identical — and the recorder actually saw the run.
        assert_eq!(base, traced);
        assert!(!events.is_empty());
    }

    #[test]
    fn merged_trace_is_thread_count_invariant() {
        use pgrid_trace::encode_line;
        let g = grid();
        let plan = QueryPlan {
            queries: 120,
            key_len: 4,
            shards: 6,
        };
        let online = BernoulliOnline::new(0.7);
        let encode = |threads: usize| {
            let (_, events) = run_query_plan_traced(&g, &plan, 13, &online, threads, 1 << 16);
            events
                .iter()
                .map(encode_line)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial = encode(1);
        assert!(!serial.is_empty());
        for threads in [2, 4, 6] {
            assert_eq!(serial, encode(threads), "threads = {threads}");
        }
    }

    #[test]
    fn trace_reconciles_with_query_stats() {
        use pgrid_net::MsgKind;
        use pgrid_trace::{MsgTag, TraceEvent};
        let g = grid();
        let plan = QueryPlan {
            queries: 150,
            key_len: 4,
            shards: 5,
        };
        let online = BernoulliOnline::new(0.9);
        let (out, events) = run_query_plan_traced(&g, &plan, 41, &online, 3, 1 << 16);
        let traced_queries = events
            .iter()
            .filter(|s| {
                matches!(
                    s.event,
                    TraceEvent::Message {
                        kind: MsgTag::Query
                    }
                )
            })
            .count() as u64;
        // Every counted query message has exactly one trace event: the two
        // records are emitted by the same call site.
        assert_eq!(traced_queries, out.stats.count(MsgKind::Query));
        let ends = events
            .iter()
            .filter(|s| matches!(s.event, TraceEvent::QueryEnd { .. }))
            .count();
        assert_eq!(ends, plan.queries, "one QueryEnd per planned query");
    }

    #[test]
    fn batched_plan_is_batch_size_and_thread_invariant() {
        let g = grid();
        let plan = QueryPlan {
            queries: 300,
            key_len: 4,
            shards: 8,
        };
        let online = BernoulliOnline::new(0.7);
        let reference = run_query_plan_batched(&g, &plan, 17, &online, 1, 1);
        assert_eq!(reference.records.len(), 300);
        assert!(reference.successes() > 0);
        for batch in [1usize, 8, 64] {
            for threads in [1usize, 2, 4] {
                let other = run_query_plan_batched(&g, &plan, 17, &online, threads, batch);
                assert_eq!(reference, other, "batch = {batch}, threads = {threads}");
            }
        }
    }

    #[test]
    fn batched_trace_is_batch_size_and_thread_invariant() {
        use pgrid_trace::encode_line;
        let g = grid();
        let plan = QueryPlan {
            queries: 120,
            key_len: 4,
            shards: 6,
        };
        let online = BernoulliOnline::new(0.8);
        let encode = |threads: usize, batch: usize| {
            let (out, events) =
                run_query_plan_batched_traced(&g, &plan, 13, &online, threads, batch, 1 << 16);
            let text = events
                .iter()
                .map(encode_line)
                .collect::<Vec<_>>()
                .join("\n");
            (out, text)
        };
        let (base_out, base_text) = encode(1, 1);
        assert!(!base_text.is_empty());
        // The traced run must reproduce the untraced one bit for bit...
        assert_eq!(
            base_out,
            run_query_plan_batched(&g, &plan, 13, &online, 1, 1)
        );
        // ...and the merged trace must not move with batch width or threads.
        for batch in [1usize, 8, 64] {
            for threads in [1usize, 4] {
                let (out, text) = encode(threads, batch);
                assert_eq!(base_out, out, "batch = {batch}, threads = {threads}");
                assert_eq!(base_text, text, "batch = {batch}, threads = {threads}");
            }
        }
    }

    #[test]
    fn epoch_forks_share_the_online_set() {
        let g = grid();
        let plan = QueryPlan {
            queries: 200,
            key_len: 4,
            shards: 4,
        };
        // EpochOnline::fork shares the frozen online subset, so parallel
        // shards see a coherent epoch.
        let online = EpochOnline::new(128, 0.5);
        let base = run_query_plan(&g, &plan, 23, &online, 1);
        let par = run_query_plan(&g, &plan, 23, &online, 4);
        assert_eq!(base, par);
    }
}
