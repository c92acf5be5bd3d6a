//! Regression suite for the scratch-buffer hot paths: reusing one warm
//! [`Scratch`] arena across operations must be observationally identical —
//! byte for byte in counters, grid structure, and per-search outcomes — to
//! giving every operation a fresh private arena. The arena may only ever
//! change *where* buffers live, never what the algorithms draw or decide.

use pgrid_core::{Ctx, FindStrategy, GridSnapshot, PGrid, PGridConfig, Scratch, SearchOutcome};
use pgrid_keys::BitPath;
use pgrid_net::{BernoulliOnline, NetStats, PeerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One deterministic step: every third operation is a search, the rest are
/// exchanges, all drawing from the shared RNG stream.
fn step_op(g: &mut PGrid, step: u32, ctx: &mut Ctx<'_>, outcomes: &mut Vec<SearchOutcome>) {
    if step.is_multiple_of(3) {
        let key = BitPath::random(ctx.rng, 4);
        let start = g.random_peer(ctx);
        outcomes.push(g.search(start, &key, ctx));
    } else {
        let (i, j) = g.random_pair(ctx);
        g.exchange(i, j, ctx);
    }
}

/// Runs the interleaved exchange/search workload with one `Ctx` per
/// operation. With `shared_scratch` the context borrows a single warm
/// arena; without it every operation gets a cold private one.
fn run_workload(seed: u64, shared_scratch: bool) -> (GridSnapshot, NetStats, Vec<SearchOutcome>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut online = BernoulliOnline::new(0.8);
    let mut stats = NetStats::new();
    let mut scratch = Scratch::new();
    let mut g = PGrid::new(
        48,
        PGridConfig {
            maxl: 4,
            refmax: 3,
            ..PGridConfig::default()
        },
    );
    let mut outcomes = Vec::new();
    for step in 0..600u32 {
        if shared_scratch {
            let mut ctx = Ctx::with_scratch(&mut rng, &mut online, &mut stats, &mut scratch);
            step_op(&mut g, step, &mut ctx, &mut outcomes);
        } else {
            let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
            step_op(&mut g, step, &mut ctx, &mut outcomes);
        }
    }
    if shared_scratch {
        assert!(
            scratch.retained_capacity() > 0,
            "the shared arena must have warmed up"
        );
    }
    (GridSnapshot::capture(&g), stats, outcomes)
}

#[test]
fn warm_scratch_workload_is_byte_identical_to_cold() {
    for seed in [7u64, 1234] {
        let (cold_snap, cold_stats, cold_outcomes) = run_workload(seed, false);
        let (warm_snap, warm_stats, warm_outcomes) = run_workload(seed, true);
        assert_eq!(cold_snap, warm_snap, "grid snapshot diverged, seed {seed}");
        assert_eq!(cold_stats, warm_stats, "counters diverged, seed {seed}");
        assert_eq!(
            cold_outcomes, warm_outcomes,
            "searches diverged, seed {seed}"
        );
    }
}

/// The BFS update sweep shares the Case-4 recursion arena; cold vs warm
/// must find the same replicas for the same message spend.
#[test]
fn bfs_replica_sweeps_are_scratch_invariant() {
    for seed in [3u64, 99] {
        // Converge a grid deterministically (cold path), snapshot it, then
        // run the sweep twice from identical state.
        let (snap, _, _) = run_workload(seed, false);
        let strategy = FindStrategy::Bfs {
            recbreadth: 2,
            repetition: 3,
        };
        let key = BitPath::from_str_lossy("0110");

        let sweep = |shared: bool| {
            let g = snap.restore().expect("snapshot restores");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0F5);
            let mut online = BernoulliOnline::new(0.7);
            let mut stats = NetStats::new();
            let mut scratch = Scratch::new();
            let found: Vec<PeerId>;
            let messages;
            if shared {
                let mut ctx = Ctx::with_scratch(&mut rng, &mut online, &mut stats, &mut scratch);
                let out = g.find_replicas(&key, strategy, &mut ctx);
                found = out.found.into_iter().collect();
                messages = out.messages;
            } else {
                let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
                let out = g.find_replicas(&key, strategy, &mut ctx);
                found = out.found.into_iter().collect();
                messages = out.messages;
            }
            (found, messages, stats)
        };

        let (cold_found, cold_msgs, cold_stats) = sweep(false);
        let (warm_found, warm_msgs, warm_stats) = sweep(true);
        assert_eq!(cold_found, warm_found, "replica sets diverged, seed {seed}");
        assert_eq!(cold_msgs, warm_msgs, "message spend diverged, seed {seed}");
        assert_eq!(cold_stats, warm_stats, "counters diverged, seed {seed}");
    }
}
