//! End-to-end pipeline tests across crates: construct → insert → search →
//! update → read, with availability models and invariant checks at every
//! stage.

use pgrid::core::{
    BuildOptions, Ctx, FindStrategy, GridMetrics, IndexEntry, PGrid, PGridConfig, QueryPolicy,
};
use pgrid::keys::{BitPath, HashKeyMapper, KeyMapper};
use pgrid::net::{AlwaysOnline, BernoulliOnline, NetStats, PeerId};
use pgrid::store::{ItemId, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(n: usize, maxl: usize, refmax: usize, seed: u64) -> (PGrid, StdRng, NetStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = NetStats::new();
    let mut grid = PGrid::new(
        n,
        PGridConfig {
            maxl,
            refmax,
            ..PGridConfig::default()
        },
    );
    {
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = grid.build(&BuildOptions::default(), &mut ctx);
        assert!(report.reached_threshold, "construction must converge");
    }
    grid.check_invariants().unwrap();
    (grid, rng, stats)
}

#[test]
fn full_lifecycle_uniform_availability() {
    let (mut grid, mut rng, mut stats) = build(512, 6, 4, 1);
    let mapper = HashKeyMapper::default();
    let mut online = AlwaysOnline;
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);

    // Insert 40 items through the protocol.
    let mut keys = Vec::new();
    for i in 0..40u64 {
        let key = mapper.map(&format!("item-{i}"), 12);
        keys.push((i, key));
        let out = grid.insert_item(
            &key,
            IndexEntry {
                item: ItemId(i),
                holder: PeerId((i % 512) as u32),
                version: Version::INITIAL,
            },
            FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 2,
            },
            &mut ctx,
        );
        assert!(!out.updated.is_empty(), "insert {i} reached no replica");
    }
    grid.check_invariants().unwrap();

    // Every inserted item is findable from arbitrary entry points.
    let mut found = 0;
    for &(i, key) in &keys {
        let start = grid.random_peer(&mut ctx);
        let (outcome, entries) = grid.search_entries(start, &key, &mut ctx);
        let peer = outcome.responsible.expect("all peers online");
        assert!(grid.peer(peer).responsible_for(&key), "soundness");
        if entries.iter().any(|e| e.item == ItemId(i)) {
            found += 1;
        }
    }
    // Inserts reach a subset of replicas; a single search may land at a
    // replica the insert missed, but most should hit.
    assert!(found >= 30, "only {found}/40 items found on first search");
}

#[test]
fn update_then_majority_read_under_churn() {
    let (mut grid, mut rng, mut stats) = build(512, 6, 6, 2);
    let key = BitPath::from_str_lossy("01101");
    grid.seed_index(
        key,
        IndexEntry {
            item: ItemId(7),
            holder: PeerId(1),
            version: Version(0),
        },
    );

    let mut online = BernoulliOnline::new(0.5);
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let up = grid.update_item(
        &key,
        ItemId(7),
        Version(1),
        FindStrategy::Bfs {
            recbreadth: 3,
            repetition: 3,
        },
        &mut ctx,
    );
    let replicas = grid.replicas_of(&key).len();
    assert!(
        up.updated.len() * 3 >= replicas,
        "update should reach a sizable fraction: {}/{replicas}",
        up.updated.len(),
    );

    // Repeated reads with the newest-confirmed rule find the new version
    // almost always, even though many replicas are stale.
    let mut ok = 0;
    for _ in 0..30 {
        let read = grid.query_repeated(&key, ItemId(7), &QueryPolicy::default(), &mut ctx);
        if read.version == Some(Version(1)) {
            ok += 1;
        }
    }
    assert!(ok >= 27, "repeated reads should be reliable: {ok}/30");
}

#[test]
fn structure_metrics_are_consistent() {
    let (grid, _, _) = build(1024, 7, 3, 3);
    let m = GridMetrics::capture(&grid);
    assert_eq!(m.peers, 1024);
    assert!(m.avg_path_len >= 0.99 * 7.0);
    assert_eq!(m.path_len_hist.count(), 1024);
    assert_eq!(m.replica_hist.count(), 1024);
    // Mean replicas ≈ N / distinct paths (same aggregate two ways).
    let by_paths = 1024.0 / m.distinct_paths as f64;
    assert!(
        m.mean_replicas >= by_paths * 0.5 && m.mean_replicas <= by_paths * 4.0,
        "mean {} vs N/paths {}",
        m.mean_replicas,
        by_paths
    );
    // Reference fill never exceeds refmax at any level.
    for (level, fill) in m.level_fill.iter().enumerate() {
        assert!(*fill <= 3.0 + 1e-9, "level {} fill {}", level + 1, fill);
    }
}

#[test]
fn searches_are_sound_under_heavy_churn() {
    let (grid, mut rng, mut stats) = build(512, 6, 8, 4);
    let mut online = BernoulliOnline::new(0.2);
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let mut successes = 0;
    for _ in 0..300 {
        let key = BitPath::random(ctx.rng, 6);
        let start = grid.random_peer(&mut ctx);
        let out = grid.search(start, &key, &mut ctx);
        if let Some(peer) = out.responsible {
            successes += 1;
            assert!(
                grid.peer(peer).responsible_for(&key),
                "a found peer must actually be responsible"
            );
        }
    }
    // At p=0.2 with refmax=8 per level the analytic bound is already ~0.33;
    // the measured rate sits well above it.
    assert!(successes > 100, "successes = {successes}");
}

#[test]
fn deterministic_replay_across_full_pipeline() {
    let run = |seed: u64| {
        let (mut grid, mut rng, mut stats) = build(256, 5, 3, seed);
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let key = BitPath::from_str_lossy("0110");
        grid.seed_index(
            key,
            IndexEntry {
                item: ItemId(1),
                holder: PeerId(0),
                version: Version(0),
            },
        );
        let up = grid.update_item(
            &key,
            ItemId(1),
            Version(1),
            FindStrategy::Bfs {
                recbreadth: 2,
                repetition: 2,
            },
            &mut ctx,
        );
        (up.messages, up.updated.len(), stats.total())
    };
    assert_eq!(run(99), run(99), "same seed, same trace");
    assert_ne!(run(99), run(100), "different seed, different trace");
}
