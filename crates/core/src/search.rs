//! The P-Grid search algorithm — the paper's Fig. 2 `query`.
//!
//! A query for key `p` can start at any peer. At each peer the query's
//! remaining bits are compared with the peer's remaining path: if either is
//! exhausted by the common part, the current peer is responsible and the
//! search succeeds. Otherwise the peer forwards the query — stripped of the
//! matched bits — to a randomly chosen reference at the level where query
//! and path diverge, retrying the remaining references when the chosen peer
//! is offline (randomized depth-first search).
//!
//! Cost metric: the paper counts "successful calls of the query operation to
//! another peer" — i.e. each hop to an *online* peer is one message; the
//! initial local call at the querying peer is free.

use pgrid_keys::{BitPath, Key};
use pgrid_net::{draw, MsgKind, PeerId};
use pgrid_proto::{route_step, RouteStep};
use pgrid_store::Version;
use pgrid_trace::TraceEvent;

use crate::scratch::QueryFrame;
use crate::{CompactRoutingTable, Ctx, PGrid};

/// Result of one randomized depth-first search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The peer found responsible for the key, or `None` when every routing
    /// branch was exhausted (e.g. all referenced peers offline).
    pub responsible: Option<PeerId>,
    /// Messages spent (successful contacts of other peers).
    pub messages: u64,
    /// Depth of the successful delegation chain (0 = answered locally).
    pub hops: u32,
}

/// Where the descent reads routing state from: the live peers (a hop reads
/// the peer, then its one routing buffer) or a [`CompactRoutingTable`] a
/// caller built and holds. Both answer with the same slices in the same
/// order (the descent's RNG consumes slice contents), so the source only
/// decides how many cache lines a hop touches.
pub(crate) trait RoutingSource {
    /// The trie path of `peer`.
    fn path(&self, peer: PeerId) -> BitPath;
    /// The references of `peer` at `level` (empty when it has none).
    fn refs(&self, peer: PeerId, level: usize) -> &[PeerId];
}

impl RoutingSource for PGrid {
    #[inline]
    fn path(&self, peer: PeerId) -> BitPath {
        self.peer(peer).path()
    }

    #[inline]
    fn refs(&self, peer: PeerId, level: usize) -> &[PeerId] {
        self.peer(peer).routing().level(level).as_slice()
    }
}

impl RoutingSource for CompactRoutingTable {
    #[inline]
    fn path(&self, peer: PeerId) -> BitPath {
        CompactRoutingTable::path(self, peer)
    }

    #[inline]
    fn refs(&self, peer: PeerId, level: usize) -> &[PeerId] {
        self.level_refs(peer, level)
    }
}

/// Fig. 2's `query(start, key, 0)` over `source` — the one descent every
/// search in this crate runs.
///
/// The starting peer is the querying user's own machine and is assumed
/// online; every further contact consults `ctx.online`. All randomness is
/// drawn from whatever stream `ctx.rng` currently holds, and events go
/// straight into `ctx`'s tracer.
///
/// Fig. 2's recursion runs as an explicit iterative descent over frames
/// and reference lists borrowed from `ctx`'s scratch arena, so a warm
/// context executes the whole search without heap allocation. The RNG
/// draw order is byte-identical to the recursive formulation: each
/// visited peer shuffles its reference list exactly when the recursion
/// would have, and contacts interleave identically (preorder DFS).
pub(crate) fn descend<S: RoutingSource>(
    source: &S,
    start: PeerId,
    key: &Key,
    ctx: &mut Ctx<'_>,
) -> SearchOutcome {
    ctx.trace(|| TraceEvent::QueryStart {
        start: u64::from(start.0),
        key: key.to_bit_string(),
    });
    // Move the buffers out of the scratch slot for the duration of the
    // descent — `ctx` stays fully usable (contact/message/rng) while
    // the arena and frame stack are independently `&mut`-borrowed.
    let mut descent = Descent {
        messages: 0,
        draws: 0,
        arena: std::mem::take(&mut ctx.scratch_mut().query_refs),
        frames: std::mem::take(&mut ctx.scratch_mut().query_frames),
    };
    descent.arena.clear();
    descent.frames.clear();
    let found = descent.run(source, start, *key, ctx);
    let scratch = ctx.scratch_mut();
    scratch.query_refs = descent.arena;
    scratch.query_frames = descent.frames;
    let outcome = SearchOutcome {
        responsible: found.map(|(peer, _)| peer),
        messages: descent.messages,
        hops: found.map(|(_, depth)| depth).unwrap_or(0),
    };
    ctx.trace(|| TraceEvent::QueryEnd {
        responsible: outcome.responsible.map_or(-1, |p| i64::from(p.0)),
        messages: outcome.messages,
        hops: outcome.hops,
    });
    outcome
}

/// Working state of one descent.
struct Descent {
    /// Messages spent so far (successful contacts).
    messages: u64,
    /// Logical index of the next reference shuffle this descent will
    /// perform — the flight recorder's replayable stand-in for "which
    /// RNG draw decided this step".
    draws: u64,
    /// Shuffled references of every suspended level, back to back.
    arena: Vec<PeerId>,
    /// Suspended levels, innermost last.
    frames: Vec<QueryFrame>,
}

impl Descent {
    /// The iterative form of Fig. 2's `query(a, p, l)`: a preorder DFS over
    /// explicit [`QueryFrame`]s. Every suspended level keeps a cursor into
    /// the shared `arena` slice holding its shuffled references; exhausted
    /// levels pop and truncate the arena back to their base, exactly
    /// mirroring the recursive WHILE loop's backtracking.
    fn run<S: RoutingSource>(
        &mut self,
        source: &S,
        start: PeerId,
        key: Key,
        ctx: &mut Ctx<'_>,
    ) -> Option<(PeerId, u32)> {
        if let Some(found) = self.visit(source, start, key, 0, 0, ctx) {
            return Some(found);
        }
        while let Some(top) = self.frames.last_mut() {
            if top.cursor == top.end {
                // Every reference of this level tried: backtrack (the
                // recursive formulation's `return None` to the caller).
                let base = top.base;
                self.frames.pop();
                self.arena.truncate(base);
                continue;
            }
            let r = self.arena[top.cursor];
            top.cursor += 1;
            let (from, querypath, child_l, child_depth) =
                (top.peer, top.querypath, top.child_l, top.child_depth);
            if ctx.contact(r) {
                self.messages += 1;
                ctx.message(MsgKind::Query);
                ctx.trace(|| TraceEvent::QueryHop {
                    from: u64::from(from.0),
                    to: u64::from(r.0),
                    depth: child_depth,
                });
                if let Some(found) = self.visit(source, r, querypath, child_l, child_depth, ctx) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// One node visit of the descent: either `a` is responsible (the Fig. 2
    /// base case) or its divergence-level references are shuffled into the
    /// arena and a frame is pushed for the main loop to drain.
    fn visit<S: RoutingSource>(
        &mut self,
        source: &S,
        a: PeerId,
        p: Key,
        l: usize,
        depth: u32,
        ctx: &mut Ctx<'_>,
    ) -> Option<(PeerId, u32)> {
        let path = source.path(a);
        // The routing decision itself is the shared sans-I/O kernel — the
        // same step the live node runs per received Query frame.
        let (consumed, level) = match route_step(&path, l, &p) {
            RouteStep::Responsible => {
                ctx.trace(|| TraceEvent::RouteStep {
                    peer: u64::from(a.0),
                    matched: l as u32,
                    consumed: 0,
                    level: 0,
                    responsible: true,
                    candidates: 0,
                    draw: self.draws,
                });
                return Some((a, depth));
            }
            RouteStep::Forward { consumed, level } => (consumed, level),
        };
        // Progress rule (what `ttl` enforces in the live protocol): a
        // level-`k` reference covers the query's bit `k`, so a forwarded
        // visit always matches at least one more bit. One that matches
        // none was reached through a wrong reference — a dead branch, or
        // a reference cycle would push frames forever. Never fires on a
        // grid that satisfies the reference property, and draws nothing.
        if depth > 0 && consumed == 0 {
            return None;
        }

        // Divergence: forward the unmatched remainder to references at the
        // level just past the matched bits, in random order, skipping
        // offline peers (the DFS retry of Fig. 2's WHILE loop).
        let base = self.arena.len();
        self.arena.extend_from_slice(source.refs(a, level));
        draw::shuffle(ctx.rng, &mut self.arena[base..]);
        let end = self.arena.len();
        let draw = self.draws;
        self.draws += 1;
        ctx.trace(|| TraceEvent::RouteStep {
            peer: u64::from(a.0),
            matched: l as u32,
            consumed: consumed as u32,
            level: level as u32,
            responsible: false,
            candidates: (end - base) as u32,
            draw,
        });
        self.frames.push(QueryFrame {
            peer: a,
            querypath: p.suffix(consumed),
            child_l: l + consumed,
            child_depth: depth + 1,
            base,
            cursor: base,
            end,
        });
        None
    }
}

impl PGrid {
    /// Searches for a peer responsible for `key`, starting at `start`
    /// (paper: `query(a, p, 0)`): the Fig. 2 descent over the live peers'
    /// routing tables.
    pub fn search(&self, start: PeerId, key: &Key, ctx: &mut Ctx<'_>) -> SearchOutcome {
        descend(self, start, key, ctx)
    }

    /// Searches for `key` and reads the index entries at the responsible
    /// peer without copying them. Returns `(outcome, entries)` — the entry
    /// slice borrows from the grid and is empty when the search failed or
    /// the replica has no entry for the key.
    pub fn search_entries_ref<'s>(
        &'s self,
        start: PeerId,
        key: &Key,
        ctx: &mut Ctx<'_>,
    ) -> (SearchOutcome, &'s [crate::IndexEntry]) {
        let outcome = self.search(start, key, ctx);
        let entries = outcome
            .responsible
            .map(|peer| self.peer(peer).index_lookup(key))
            .unwrap_or(&[]);
        (outcome, entries)
    }

    /// Owning wrapper over [`PGrid::search_entries_ref`] for callers that
    /// need the entries to outlive the grid borrow (e.g. before mutating
    /// the grid).
    pub fn search_entries(
        &self,
        start: PeerId,
        key: &Key,
        ctx: &mut Ctx<'_>,
    ) -> (SearchOutcome, Vec<crate::IndexEntry>) {
        let (outcome, entries) = self.search_entries_ref(start, key, ctx);
        (outcome, entries.to_vec())
    }

    /// Convenience for the consistency experiments: the version of `item`
    /// that the found replica believes is current.
    pub fn search_version(
        &self,
        start: PeerId,
        key: &Key,
        item: pgrid_store::ItemId,
        ctx: &mut Ctx<'_>,
    ) -> (SearchOutcome, Option<Version>) {
        let (outcome, entries) = self.search_entries_ref(start, key, ctx);
        let version = entries.iter().find(|e| e.item == item).map(|e| e.version);
        (outcome, version)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PGridConfig;
    use pgrid_keys::BitPath;
    use pgrid_net::{AlwaysOnline, EpochOnline, NetStats};
    use pgrid_store::ItemId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds the 6-peer example grid of the paper's Fig. 1:
    /// peers 1,2 → "00", peer 3 → "01" (path per figure: peer 3 at "01"),
    /// peer 4 → "10", peers 5,6 → "11", with the cross references drawn in
    /// the figure. We use 0-based ids 0..6. Multi-hop routing from every
    /// peer, so the `search_batch` tests reuse it.
    pub(crate) fn fig1_grid() -> PGrid {
        let mut g = PGrid::new(
            6,
            PGridConfig {
                maxl: 2,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        let paths = ["00", "00", "01", "10", "11", "11"];
        for (i, p) in paths.iter().enumerate() {
            for b in BitPath::from_str_lossy(p).bits() {
                g.extend_peer_path(PeerId(i as u32), b);
            }
        }
        // Level-1 refs: 0-side peers reference 1-side peers and vice versa.
        let side0 = [PeerId(0), PeerId(1), PeerId(2)];
        let side1 = [PeerId(3), PeerId(4), PeerId(5)];
        for (i, &a) in side0.iter().enumerate() {
            g.routing_mut(a).set_level(1, &[side1[i]]);
            g.routing_mut(side1[i]).set_level(1, &[a]);
        }
        // Level-2 refs: within each half, point to the other quarter.
        let pairs = [
            (PeerId(0), PeerId(2)),
            (PeerId(1), PeerId(2)),
            (PeerId(3), PeerId(4)),
            (PeerId(3), PeerId(5)),
        ];
        for (a, b) in pairs {
            g.routing_mut(a)
                .level_mut(2)
                .insert_bounded(b, 2, &mut StdRng::seed_from_u64(0));
            g.routing_mut(b)
                .level_mut(2)
                .insert_bounded(a, 2, &mut StdRng::seed_from_u64(0));
        }
        g.check_invariants().unwrap();
        g
    }

    /// Task 0 continues the master stream, so this reproduces the RNG
    /// draws of the old hand-rolled `(StdRng, AlwaysOnline, NetStats)`
    /// helper bit for bit.
    fn owned_ctx() -> crate::OwnedCtx {
        Ctx::fork_for_task(21, 0, Box::new(AlwaysOnline))
    }

    #[test]
    fn local_answer_costs_no_messages() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        // Paper example: query 00 submitted to peer 1 (our peer 0).
        let out = g.search(PeerId(0), &BitPath::from_str_lossy("00"), &mut ctx);
        assert_eq!(out.responsible, Some(PeerId(0)));
        assert_eq!(out.messages, 0);
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn fig1_query_10_from_peer_6_routes_via_references() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        // Paper example: query 10 submitted to peer 6 (our peer 5, path 11).
        let out = g.search(PeerId(5), &BitPath::from_str_lossy("10"), &mut ctx);
        assert_eq!(out.responsible, Some(PeerId(3)), "peer 4 (id 3) owns 10");
        assert!(out.messages >= 1 && out.messages <= 2, "{}", out.messages);
    }

    #[test]
    fn every_key_reachable_from_every_peer() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        for start in 0..6u32 {
            for v in 0..4u128 {
                let key = BitPath::from_value(v, 2);
                let out = g.search(PeerId(start), &key, &mut ctx);
                let peer = out.responsible.expect("all peers online");
                assert!(g.peer(peer).responsible_for(&key));
            }
        }
    }

    #[test]
    fn longer_and_shorter_queries_resolve() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        // Longer than any path: peer with matching 2-bit path answers.
        let out = g.search(PeerId(5), &BitPath::from_str_lossy("0111"), &mut ctx);
        assert_eq!(out.responsible, Some(PeerId(2)));
        // Shorter than the paths: any peer on the 0 side may answer.
        let out = g.search(PeerId(5), &BitPath::from_str_lossy("0"), &mut ctx);
        let peer = out.responsible.unwrap();
        assert_eq!(g.peer(peer).path().bit(0), 0);
    }

    #[test]
    fn offline_references_fail_the_branch() {
        let g = fig1_grid();
        let mut rng = StdRng::seed_from_u64(3);
        // Knock the entire 0-side offline: queries for 0-keys from the
        // 1-side cannot succeed.
        let mut online = EpochOnline::new(6, 1.0);
        for id in [0u32, 1, 2] {
            online.set_online(PeerId(id), false);
        }
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let out = g.search(PeerId(5), &BitPath::from_str_lossy("00"), &mut ctx);
        assert_eq!(out.responsible, None);
        assert_eq!(out.messages, 0, "offline contacts are not messages");
        assert!(stats.failed_contacts > 0);
    }

    #[test]
    fn dfs_retries_across_references() {
        // Peer 0 ("0") has two level-1 refs; one offline, one online — the
        // search must retry and still succeed.
        let mut g = PGrid::new(
            3,
            PGridConfig {
                maxl: 1,
                refmax: 2,
                ..PGridConfig::default()
            },
        );
        g.extend_peer_path(PeerId(0), 0);
        g.extend_peer_path(PeerId(1), 1);
        g.extend_peer_path(PeerId(2), 1);
        let mut seed_rng = StdRng::seed_from_u64(0);
        g.routing_mut(PeerId(0))
            .level_mut(1)
            .insert_bounded(PeerId(1), 2, &mut seed_rng);
        g.routing_mut(PeerId(0))
            .level_mut(1)
            .insert_bounded(PeerId(2), 2, &mut seed_rng);

        let mut rng = StdRng::seed_from_u64(5);
        let mut online = EpochOnline::new(3, 1.0);
        online.set_online(PeerId(1), false);
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        for _ in 0..20 {
            let out = g.search(PeerId(0), &BitPath::from_str_lossy("1"), &mut ctx);
            assert_eq!(out.responsible, Some(PeerId(2)));
            assert_eq!(out.messages, 1);
        }
    }

    #[test]
    fn a_reference_cycle_of_wrong_refs_ends_the_branch() {
        // Three peers on path "0" whose level-1 references — which should
        // cover the "1" side — point at each other in a ring. No peer
        // covers key "1", and without the progress rule the descent would
        // chase 0 → 1 → 2 → 0 → … pushing a frame per hop.
        let mut g = PGrid::new(
            3,
            PGridConfig {
                maxl: 1,
                refmax: 1,
                ..PGridConfig::default()
            },
        );
        for i in 0..3u32 {
            g.extend_peer_path(PeerId(i), 0);
            g.routing_mut(PeerId(i))
                .set_level(1, &[PeerId((i + 1) % 3)]);
        }
        let key = BitPath::from_str_lossy("1");
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let serial = g.search(PeerId(0), &key, &mut ctx);
        assert_eq!(serial.responsible, None);
        assert_eq!(serial.messages, 1, "the first wrong hop is the last");

        let table = CompactRoutingTable::build(&g);
        let query = crate::BatchQuery {
            key,
            start: PeerId(0),
            seed: 7,
        };
        for table in [None, Some(&table)] {
            let mut out = Vec::new();
            g.search_batch(table, &[query], &mut ctx, &mut out);
            assert_eq!(out, vec![serial]);
        }
    }

    #[test]
    fn search_entries_reads_the_replica_index() {
        let mut g = fig1_grid();
        let key = BitPath::from_str_lossy("10");
        let entry = crate::IndexEntry {
            item: ItemId(42),
            holder: PeerId(1),
            version: Version(3),
        };
        g.seed_index(key, entry);
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let (out, entries) = g.search_entries(PeerId(0), &key, &mut ctx);
        assert!(out.responsible.is_some());
        assert_eq!(entries, vec![entry]);
        let (_, version) = g.search_version(PeerId(0), &key, ItemId(42), &mut ctx);
        assert_eq!(version, Some(Version(3)));
        let (_, missing) = g.search_version(PeerId(0), &key, ItemId(7), &mut ctx);
        assert_eq!(missing, None);
    }

    #[test]
    fn search_warms_and_restores_the_scratch_arena() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        {
            let mut ctx = owned.ctx();
            let out = g.search(PeerId(5), &BitPath::from_str_lossy("10"), &mut ctx);
            assert!(out.responsible.is_some());
        }
        // The descent borrowed the OwnedCtx's arena and put it back warm:
        // later searches reuse this capacity instead of allocating.
        assert!(
            owned.scratch.retained_capacity() > 0,
            "a routed query must leave warmed buffers behind"
        );
    }

    #[test]
    fn message_count_matches_stats() {
        let g = fig1_grid();
        let mut owned = owned_ctx();
        let mut ctx = owned.ctx();
        let out = g.search(PeerId(5), &BitPath::from_str_lossy("00"), &mut ctx);
        assert_eq!(out.messages, owned.stats.count(pgrid_net::MsgKind::Query));
    }

    /// Pins that a table the caller holds changes nothing but speed: on a
    /// built grid, `descend` through a [`CompactRoutingTable`] and `search`
    /// over the live peers give equal outcomes, counters, trace events and
    /// RNG positions, with every peer online and under churn.
    #[test]
    fn owned_table_search_matches_the_live_descent() {
        use pgrid_net::{BernoulliOnline, OnlineModel};
        use pgrid_trace::RingTracer;
        use rand::Rng;

        let mut g = PGrid::new(
            1024,
            PGridConfig {
                maxl: 6,
                refmax: 4,
                ..PGridConfig::default()
            },
        );
        g.build(
            &crate::BuildOptions::default(),
            &mut Ctx::fork_for_task(5, 0, Box::new(AlwaysOnline)).ctx(),
        );
        let table = CompactRoutingTable::build(&g);
        let mut rng = StdRng::seed_from_u64(6);
        let queries: Vec<(PeerId, Key)> = (0..512)
            .map(|_| (PeerId(rng.gen_range(0..1024)), BitPath::random(&mut rng, 6)))
            .collect();
        let online = |p: f64| -> Box<dyn OnlineModel + Send> {
            if p < 1.0 {
                Box::new(BernoulliOnline::new(p))
            } else {
                Box::new(AlwaysOnline)
            }
        };
        for p in [1.0, 0.3] {
            let mut held = Ctx::fork_for_task(7, 0, online(p));
            let mut live = Ctx::fork_for_task(7, 0, online(p));
            held.set_tracer(Box::new(RingTracer::new(1 << 16)));
            live.set_tracer(Box::new(RingTracer::new(1 << 16)));
            let mut found = 0;
            for (start, key) in &queries {
                let a = descend(&table, *start, key, &mut held.ctx());
                let b = g.search(*start, key, &mut live.ctx());
                assert_eq!(a, b, "online share {p}, key {key}");
                found += usize::from(a.responsible.is_some());
            }
            assert!(found > 0, "online share {p}: some search must succeed");
            assert_eq!(held.stats, live.stats, "online share {p}");
            let events = held.take_trace_events();
            assert!(!events.is_empty());
            assert_eq!(events, live.take_trace_events(), "online share {p}");
            assert_eq!(held.rng.gen::<u64>(), live.rng.gen::<u64>());
        }
    }
}
