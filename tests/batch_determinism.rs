//! Regression pins for the batched query family (ISSUE 7): its results,
//! counters, and merged traces must be byte-identical at every batch size
//! and thread count, the read-only descent must leave the grid untouched,
//! and a stale succinct snapshot must fall back to the live structures
//! without changing a single answer.

use pgrid::core::{BatchQuery, CompactRoutingTable, Ctx, GridSnapshot, PGrid, PGridConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, BernoulliOnline, NetStats, PeerId};
use pgrid::sim::{built_grid, run_query_plan_batched, run_query_plan_batched_traced, QueryPlan};
use pgrid::trace::encode_line;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES: [usize; 3] = [1, 8, 64];
const THREADS: [usize; 2] = [1, 4];

fn grid() -> PGrid {
    built_grid(
        192,
        PGridConfig {
            maxl: 5,
            refmax: 3,
            ..PGridConfig::default()
        },
        1.0,
        0.99,
        None,
        21,
    )
    .grid
}

fn plan() -> QueryPlan {
    QueryPlan {
        queries: 400,
        key_len: 5,
        shards: 8,
    }
}

#[test]
fn batched_runs_are_batch_size_and_thread_invariant() {
    let g = grid();
    let plan = plan();
    let online = BernoulliOnline::new(0.7);
    let before = GridSnapshot::capture(&g);
    let reference = run_query_plan_batched(&g, &plan, 33, &online, 1, 1);
    assert_eq!(reference.records.len(), plan.queries);
    assert!(reference.successes() > 0);
    for batch in BATCHES {
        for threads in THREADS {
            let out = run_query_plan_batched(&g, &plan, 33, &online, threads, batch);
            assert_eq!(
                reference, out,
                "records + NetStats must match at batch {batch}, threads {threads}"
            );
        }
    }
    // The descent is read-only: not one field of the grid may move.
    assert_eq!(before, GridSnapshot::capture(&g));
}

#[test]
fn batched_traces_are_batch_size_and_thread_invariant() {
    let g = grid();
    let plan = plan();
    let online = BernoulliOnline::new(0.8);
    let run = |threads: usize, batch: usize| {
        let (out, events) =
            run_query_plan_batched_traced(&g, &plan, 47, &online, threads, batch, 1 << 18);
        let text = events
            .iter()
            .map(encode_line)
            .collect::<Vec<_>>()
            .join("\n");
        (out, text)
    };
    let (reference_out, reference_text) = run(1, 1);
    assert!(!reference_text.is_empty());
    // Observation-only: the traced run reproduces the untraced one.
    assert_eq!(
        reference_out,
        run_query_plan_batched(&g, &plan, 47, &online, 1, 1)
    );
    for batch in BATCHES {
        for threads in THREADS {
            let (out, text) = run(threads, batch);
            assert_eq!(reference_out, out, "batch {batch}, threads {threads}");
            assert_eq!(
                reference_text, text,
                "golden trace must match at batch {batch}, threads {threads}"
            );
        }
    }
}

#[test]
fn stale_snapshot_falls_back_to_the_live_walk() {
    let mut g = grid();
    let fresh = CompactRoutingTable::build(&g);
    assert!(fresh.is_fresh(&g));

    // Mutate routing state *after* the freeze; the snapshot now lies.
    g.overwrite_peer_refs(PeerId(0), 1, &[PeerId(5)]);
    g.overwrite_peer_path(PeerId(7), BitPath::from_str_lossy("10101"));
    assert!(!fresh.is_fresh(&g));

    let mut rng = StdRng::seed_from_u64(61);
    let queries: Vec<BatchQuery> = (0..96)
        .map(|_| BatchQuery {
            key: BitPath::random(&mut rng, 5),
            start: PeerId(rng.gen_range(0..192)),
            seed: rng.gen(),
        })
        .collect();
    let run = |table: Option<&CompactRoutingTable>| {
        let mut owned = Ctx::fork_for_task(8, 0, Box::new(AlwaysOnline));
        let mut out = Vec::new();
        for chunk in queries.chunks(16) {
            let mut ctx = owned.ctx();
            g.search_batch(table, chunk, &mut ctx, &mut out);
        }
        (out, owned.stats)
    };
    let (live_out, live_stats): (_, NetStats) = run(None);
    assert_eq!(
        (live_out, live_stats),
        run(Some(&fresh)),
        "a stale snapshot must be ignored, not trusted"
    );

    // And a rebuilt snapshot agrees again, through the fast path.
    let rebuilt = CompactRoutingTable::build(&g);
    assert!(rebuilt.is_fresh(&g));
    assert_eq!(run(None), run(Some(&rebuilt)));
}
