//! Property tests of the succinct routing snapshot: every scenario starts
//! from a built grid. Across *arbitrary* mutation sequences — exchanges,
//! repair and stabilization rounds, and raw corruption writes — a
//! [`CompactRoutingTable`] rebuilt after any op answers every path lookup,
//! every level slice, and therefore every `route_step` decision
//! identically to the live level walk; and a snapshot left *stale* never
//! changes batched search results, because readers fall back to the live
//! structures. Seeded loops: case `c` draws its scenario from
//! `StdRng::seed_from_u64(c)`.

use pgrid_core::{
    BatchQuery, BuildOptions, CompactRoutingTable, Ctx, PGrid, PGridConfig, SearchOutcome,
};
use pgrid_keys::BitPath;
use pgrid_net::{AlwaysOnline, NetStats, PeerId};
use pgrid_proto::route_step;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One grid mutation, drawn from every class that can dirty routing state.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The constructive path: a bilateral exchange between two peers.
    Exchange(u8, u8),
    /// A full self-repair sweep (prunes dead refs, refills levels).
    Repair,
    /// A full self-stabilization sweep (audit + correction).
    Stabilize,
    /// Corruption: overwrite one peer's trie path.
    CorruptPath(u8, u8, u8),
    /// Corruption: overwrite one level's reference slice.
    CorruptRefs(u8, u8, u8),
}

/// Exchanges, repairs, stabilizations and the two corruptions in the ratio
/// 4 : 1 : 1 : 1 : 1.
fn op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..8) {
        0..=3 => Op::Exchange(rng.gen(), rng.gen()),
        4 => Op::Repair,
        5 => Op::Stabilize,
        6 => Op::CorruptPath(rng.gen(), rng.gen(), rng.gen()),
        _ => Op::CorruptRefs(rng.gen(), rng.gen(), rng.gen()),
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    maxl: usize,
    refmax: usize,
    ops: Vec<Op>,
    seed: u64,
}

/// Runs `check` on the scenario of each of 32 cases.
fn for_each_scenario(check: impl Fn(u64, Scenario)) {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(case);
        let s = Scenario {
            n: rng.gen_range(4..20),
            maxl: rng.gen_range(1..5),
            refmax: rng.gen_range(1..4),
            ops: (0..rng.gen_range(1..40)).map(|_| op(&mut rng)).collect(),
            seed: rng.gen(),
        };
        check(case, s);
    }
}

/// A grid of the scenario's shape after a capped `build`.
fn built_grid(s: &Scenario) -> PGrid {
    let mut grid = PGrid::new(
        s.n,
        PGridConfig {
            maxl: s.maxl,
            refmax: s.refmax,
            ..PGridConfig::default()
        },
    );
    let opts = BuildOptions {
        max_meetings: Some(64 * s.n as u64),
        ..BuildOptions::default()
    };
    let mut owned = Ctx::fork_for_task(s.seed, 1, Box::new(AlwaysOnline));
    grid.build(&opts, &mut owned.ctx());
    grid.check_invariants().expect("a built grid is valid");
    grid
}

fn apply(grid: &mut PGrid, op: Op, n: usize, maxl: usize, ctx: &mut Ctx<'_>) {
    match op {
        Op::Exchange(a, b) => {
            let i = PeerId((a as usize % n) as u32);
            let j = PeerId((b as usize % n) as u32);
            if i != j {
                grid.exchange(i, j, ctx);
            }
        }
        Op::Repair => {
            grid.repair_round(grid.config().refmax, ctx);
        }
        Op::Stabilize => {
            grid.stabilize_round(grid.config().refmax, ctx);
        }
        Op::CorruptPath(p, bits, len) => {
            let id = PeerId((p as usize % n) as u32);
            // Corruption may exceed maxl by one: the snapshot must survive
            // paths deeper than anything it froze.
            let len = (len as usize) % (maxl + 2);
            grid.overwrite_peer_path(id, BitPath::from_raw((bits as u128) << 120, len as u8));
        }
        Op::CorruptRefs(p, level, r) => {
            let id = PeerId((p as usize % n) as u32);
            let level = 1 + (level as usize) % (maxl + 1);
            let target = PeerId((r as usize % n) as u32);
            grid.overwrite_peer_refs(id, level, &[target]);
        }
    }
}

/// The snapshot must agree with the live walk on every lookup the
/// descent can make: the path, every level slice (in order), and the
/// resulting `route_step` verdict.
fn assert_equivalent(table: &CompactRoutingTable, grid: &PGrid, probe_seed: u64) {
    assert!(table.is_fresh(grid));
    let mut rng = StdRng::seed_from_u64(probe_seed);
    for peer in grid.peers() {
        let id = peer.id();
        assert_eq!(table.path(id), peer.path(), "{id} path");
        assert!(table.level_refs(id, 0).is_empty(), "{id} level 0");
        for level in 1..=grid.config().maxl + 2 {
            assert_eq!(
                table.level_refs(id, level),
                peer.routing().level(level).as_slice(),
                "{id} level {level}"
            );
        }
        // route_step over the snapshot path must reach the same verdict (and
        // hence pick the same slice) as over the live path.
        for _ in 0..4 {
            let key = BitPath::random(&mut rng, grid.config().maxl as u8);
            let matched = rng.gen_range(0..=peer.path().len());
            assert_eq!(
                route_step(&table.path(id), matched, &key),
                route_step(&peer.path(), matched, &key),
                "{id} route_step"
            );
        }
    }
}

fn run_batched(
    grid: &PGrid,
    table: Option<&CompactRoutingTable>,
    queries: &[BatchQuery],
) -> (Vec<SearchOutcome>, NetStats) {
    let mut owned = Ctx::fork_for_task(5, 0, Box::new(AlwaysOnline));
    let mut out = Vec::new();
    for chunk in queries.chunks(8) {
        let mut ctx = owned.ctx();
        grid.search_batch(table, chunk, &mut ctx, &mut out);
    }
    (out, owned.stats)
}

/// After every op of any mutation sequence, rebuilding the snapshot from
/// scratch reproduces the live structures exactly.
#[test]
fn rebuilt_snapshot_mirrors_any_mutated_grid() {
    for_each_scenario(|_, s| {
        let mut grid = built_grid(&s);
        let mut rng = StdRng::seed_from_u64(s.seed);
        let mut online = AlwaysOnline;
        let mut stats = NetStats::new();
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        for (i, &op) in s.ops.iter().enumerate() {
            apply(&mut grid, op, s.n, s.maxl, &mut ctx);
            let table = CompactRoutingTable::build(&grid);
            assert_equivalent(&table, &grid, s.seed ^ i as u64);
        }
    });
}

/// A snapshot that lags the grid must be *ignored*, not trusted:
/// batched search through a stale table equals batched search with no
/// table at all, results and counters alike.
#[test]
fn stale_snapshot_never_changes_batched_results() {
    for_each_scenario(|case, s| {
        let mut grid = built_grid(&s);
        let mut rng = StdRng::seed_from_u64(s.seed);
        let stale = CompactRoutingTable::build(&grid);
        // Now mutate: the held snapshot lags the grid.
        {
            let mut online = AlwaysOnline;
            let mut stats = NetStats::new();
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            for &op in &s.ops {
                apply(&mut grid, op, s.n, s.maxl, &mut ctx);
            }
        }
        // A repair or stabilization round may find nothing to change; an
        // exchange between two peers or a corruption write always touches a
        // peer, and with it the epoch.
        let mutated = s.ops.iter().any(|op| match *op {
            Op::Exchange(a, b) => a as usize % s.n != b as usize % s.n,
            Op::Repair | Op::Stabilize => false,
            Op::CorruptPath(..) | Op::CorruptRefs(..) => true,
        });
        if mutated {
            assert!(
                !stale.is_fresh(&grid),
                "case {case}: ops {:?} must have bumped the epoch",
                s.ops
            );
        }

        let queries: Vec<BatchQuery> = (0..32)
            .map(|_| BatchQuery {
                key: BitPath::random(&mut rng, s.maxl as u8),
                start: PeerId(rng.gen_range(0..s.n) as u32),
                seed: rng.gen(),
            })
            .collect();
        assert_eq!(
            run_batched(&grid, Some(&stale), &queries),
            run_batched(&grid, None, &queries),
            "case {case}"
        );
    });
}
