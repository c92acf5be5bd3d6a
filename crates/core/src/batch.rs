//! Batched execution of Fig. 2 descents, over the live peers or over a
//! [`CompactRoutingTable`] snapshot the caller holds.
//!
//! # Determinism contract
//!
//! The sharded engine's plain plan runs every query of a shard on one
//! *shared* RNG stream (query `i`'s draws start where `i-1`'s ended), so
//! its results depend on how queries are grouped. The batched family gives
//! **every query its own RNG stream**, seeded by [`BatchQuery::seed`]:
//! within a query, draws happen in exactly [`PGrid::search`]'s order (one
//! shuffle per forwarding visit, one availability probe per contact), and
//! across queries there is no shared state at all. Results, counters, and
//! traces are thus byte-identical for *every* chunking of a query list and
//! every thread count — pinned by the workspace `batch_determinism` suite.

use pgrid_keys::Key;
use pgrid_net::PeerId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::search::descend;
use crate::{CompactRoutingTable, Ctx, PGrid, SearchOutcome};

/// One query of a batch: the Fig. 2 arguments plus a private RNG seed.
///
/// Planners draw `seed` from their shard stream *in query order* (see
/// `pgrid-sim`'s batched engine), which fixes each query's entire descent
/// regardless of how the list is later chunked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchQuery {
    /// The key searched for.
    pub key: Key,
    /// The peer the query is submitted to (assumed online, like `search`).
    pub start: PeerId,
    /// Seed of this query's private RNG stream.
    pub seed: u64,
}

impl PGrid {
    /// Runs every descent in `batch`, appending one [`SearchOutcome`] per
    /// query (in query order) to `out`.
    ///
    /// Routing state is read from `table` when it is a fresh snapshot of
    /// this grid, and from the live structures otherwise (the stale-epoch
    /// fallback — results are identical either way, only latency differs).
    /// Each descent is [`PGrid::search`]'s, drawing from the query's own
    /// stream; `ctx.rng` is left exactly where it was. A warm `ctx` runs
    /// entire batches without heap allocation.
    pub fn search_batch(
        &self,
        table: Option<&CompactRoutingTable>,
        batch: &[BatchQuery],
        ctx: &mut Ctx<'_>,
        out: &mut Vec<SearchOutcome>,
    ) {
        let table = table.filter(|t| t.is_fresh(self));
        for q in batch {
            let shard_rng = std::mem::replace(ctx.rng, StdRng::seed_from_u64(q.seed));
            out.push(match table {
                Some(t) => descend(t, q.start, &q.key, ctx),
                None => descend(self, q.start, &q.key, ctx),
            });
            *ctx.rng = shard_rng;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::fig1_grid;
    use pgrid_keys::BitPath;
    use pgrid_net::{AlwaysOnline, BernoulliOnline, MsgKind, NetStats};
    use rand::Rng;

    fn plan(n: usize, seed: u64) -> Vec<BatchQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BatchQuery {
                key: BitPath::random(&mut rng, 2),
                start: PeerId(rng.gen_range(0..6)),
                seed: rng.gen(),
            })
            .collect()
    }

    fn run(
        g: &PGrid,
        table: Option<&CompactRoutingTable>,
        queries: &[BatchQuery],
        width: usize,
        offline: bool,
    ) -> (Vec<SearchOutcome>, NetStats) {
        let online: Box<dyn pgrid_net::OnlineModel + Send> = if offline {
            Box::new(BernoulliOnline::new(0.7))
        } else {
            Box::new(AlwaysOnline)
        };
        let mut owned = Ctx::fork_for_task(9, 0, online);
        let mut out = Vec::new();
        for chunk in queries.chunks(width.max(1)) {
            let mut ctx = owned.ctx();
            g.search_batch(table, chunk, &mut ctx, &mut out);
        }
        (out, owned.stats)
    }

    #[test]
    fn every_batch_width_reproduces_width_one() {
        let g = fig1_grid();
        let queries = plan(96, 4);
        for offline in [false, true] {
            let reference = run(&g, None, &queries, 1, offline);
            for width in [2usize, 8, 64, 96, 128] {
                assert_eq!(
                    run(&g, None, &queries, width, offline),
                    reference,
                    "width {width}, churn {offline}"
                );
            }
        }
    }

    #[test]
    fn compact_source_reproduces_the_live_walk() {
        let g = fig1_grid();
        let table = CompactRoutingTable::build(&g);
        let queries = plan(96, 7);
        for width in [1usize, 8, 64] {
            assert_eq!(
                run(&g, Some(&table), &queries, width, false),
                run(&g, None, &queries, width, false),
                "width {width}"
            );
        }
    }

    #[test]
    fn stale_snapshot_falls_back_to_live_state() {
        let mut g = fig1_grid();
        let table = CompactRoutingTable::build(&g);
        // Mutate routing after the freeze: the stale table MUST be ignored.
        g.overwrite_peer_refs(PeerId(0), 1, &[PeerId(4)]);
        assert!(!table.is_fresh(&g));
        let queries = plan(64, 11);
        assert_eq!(
            run(&g, Some(&table), &queries, 16, false),
            run(&g, None, &queries, 16, false),
        );
    }

    #[test]
    fn found_peers_are_responsible_and_messages_match_stats() {
        let g = fig1_grid();
        let queries = plan(128, 13);
        let (outcomes, stats) = run(&g, None, &queries, 32, false);
        let mut messages = 0;
        for (q, o) in queries.iter().zip(&outcomes) {
            let peer = o.responsible.expect("all peers online");
            assert!(g.peer(peer).responsible_for(&q.key));
            messages += o.messages;
        }
        assert_eq!(messages, stats.count(MsgKind::Query));
    }

    #[test]
    fn warm_batches_reuse_the_scratch_buffers() {
        let g = fig1_grid();
        let queries = plan(32, 17);
        let mut owned = Ctx::fork_for_task(3, 0, Box::new(AlwaysOnline));
        let mut out = Vec::new();
        {
            let mut ctx = owned.ctx();
            g.search_batch(None, &queries, &mut ctx, &mut out);
        }
        let warmed = owned.scratch.retained_capacity();
        assert!(warmed > 0, "a routed batch must warm the descent buffers");
        out.clear();
        let mut ctx = owned.ctx();
        g.search_batch(None, &queries, &mut ctx, &mut out);
        assert_eq!(out.len(), 32);
        assert_eq!(
            owned.scratch.retained_capacity(),
            warmed,
            "rerunning the same batch must not grow any buffer"
        );
    }
}
