//! `live_read` and `live_mixed`: a closed loop of one client thread against
//! a `TcpCluster` over loopback sockets. Sockets, write queues, the
//! sweep/park loop and the codec do the work; `core`/`store` do almost none.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pgrid_keys::{BitPath, Key};
use pgrid_net::PeerId;
use pgrid_store::{LogOptions, StorageSpec};
use pgrid_wire::WireEntry;

use crate::gen::{KeySpace, SplitMix64};
use crate::node::{Cluster, ClusterConfig, TcpCluster};
use crate::span::Recorder;
use crate::window::{end_to_end, repeat_setup, traced_report, Window};
use crate::{host, metric, probes, stats, Args, Metric, Report};

/// Event-loop workers of the TCP transport (its default).
const WORKERS: usize = 2;
/// A lookup slower than this sat out a retransmission or a client timeout.
const SLOW_LOOKUP: Duration = Duration::from_millis(50);

struct Scale {
    peers: usize,
    maxl: usize,
    build_rounds: usize,
    meetings: usize,
    seeded_keys: usize,
    warmup: usize,
    setup_repeats: usize,
    /// `live_mixed`: inserts per round, each read back after `settle()`.
    inserts: usize,
    /// `live_mixed`: lookups of older keys per round.
    old_lookups: usize,
}

fn scale(args: &Args) -> Scale {
    if args.smoke {
        Scale {
            peers: 16,
            maxl: 3,
            build_rounds: 8,
            meetings: 48,
            seeded_keys: 64,
            warmup: 100,
            setup_repeats: 1,
            inserts: 16,
            old_lookups: 32,
        }
    } else {
        Scale {
            peers: 64,
            maxl: 4,
            build_rounds: 8,
            meetings: 128,
            seeded_keys: 1024,
            warmup: 2000,
            setup_repeats: 3,
            inserts: 128,
            old_lookups: 256,
        }
    }
}

struct Live {
    cluster: TcpCluster,
    /// Every installed key with the entry a lookup must return.
    items: Vec<(Key, WireEntry)>,
    /// Path of every node, fixed once construction ends.
    paths: Vec<BitPath>,
    /// Fresh 32-bit keys for `live_mixed` inserts.
    insert_keys: KeySpace,
    dir: Option<PathBuf>,
}

impl Live {
    /// One lookup: the answer must be exactly the installed entry, from a
    /// node whose path is responsible for the key.
    fn lookup(&mut self, idx: usize, rec: &mut Recorder) -> (bool, Duration) {
        let (key, entry) = self.items[idx];
        let start = Instant::now();
        let answer = rec.span("node.query", |_| self.cluster.query(&key));
        let took = start.elapsed();
        let ok = matches!(answer, Some((node, entries))
            if entries == [entry]
                && self.paths.get(node.index()).is_some_and(|p| p.responsible_for(&key)));
        (ok, took)
    }

    fn teardown(self) {
        self.cluster.shutdown();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn entry_for(item: u64, peers: usize) -> WireEntry {
    WireEntry {
        item,
        holder: PeerId::from_index(item as usize % peers),
        version: 1,
    }
}

/// Spawn, build, seed and warm up: everything before the first timed op.
fn setup(args: &Args, sc: &Scale, mixed: bool, attempt: usize, rec: &mut Recorder) -> Live {
    // Every pair of nodes ends up connected, both socket ends in this process.
    let (limit, need) = (host::nofile_limit(), 2 * sc.peers * sc.peers + 1024);
    assert!(
        limit as usize >= need,
        "a {}-node loopback cluster needs `ulimit -n` >= {need}, it is {limit}",
        sc.peers
    );
    let dir = mixed.then(|| {
        args.out
            .join(format!("live_mixed-{}-{attempt}", std::process::id()))
    });
    let config = ClusterConfig {
        n: sc.peers,
        maxl: sc.maxl,
        refmax: 2,
        seed: args.seed,
        ..ClusterConfig::default()
    };
    let mut cluster = rec.span("node.spawn", |_| match &dir {
        Some(dir) => TcpCluster::spawn_with_storage(
            config,
            WORKERS,
            StorageSpec::Log {
                dir: dir.clone(),
                options: LogOptions::default(),
            },
        ),
        None => TcpCluster::spawn(config, WORKERS),
    });
    // A fixed number of rounds; a seed that converges late gets more
    // rather than failing the run.
    let converged = |cluster: &TcpCluster| cluster.avg_path_len() >= sc.maxl as f64 - 0.5;
    let mut rounds = 0;
    while rounds < sc.build_rounds || (!converged(&cluster) && rounds < 4 * sc.build_rounds) {
        rec.span("node.build_round", |_| cluster.build(sc.meetings));
        rounds += 1;
    }
    assert!(
        converged(&cluster),
        "construction did not converge in {rounds} rounds: avg path length {}",
        cluster.avg_path_len()
    );
    cluster
        .check_invariants()
        .expect("cluster invariants after construction");
    let paths = cluster.to_snapshot().peers.iter().map(|p| p.path).collect();

    let mut rng = SplitMix64::new(args.seed);
    let items: Vec<(Key, WireEntry)> = KeySpace::new(&mut rng, 16)
        .take(sc.seeded_keys)
        .into_iter()
        .enumerate()
        .map(|(i, key)| (key, entry_for(i as u64, sc.peers)))
        .collect();
    rec.span("node.seed_index", |_| {
        for (key, entry) in &items {
            cluster.seed_index(*key, *entry);
        }
    });
    let mut live = Live {
        cluster,
        items,
        paths,
        insert_keys: KeySpace::new(&mut rng, 32),
        dir,
    };
    // Warm-up opens the lazy connections.
    rec.span("node.warmup", |rec| {
        for i in 0..sc.warmup {
            let (ok, _) = live.lookup(i % sc.seeded_keys, rec);
            assert!(ok, "warm-up lookup {i} returned a wrong or no answer");
        }
    });
    live
}

/// Sub-window length for the throughput median.
const SUB_WINDOW: Duration = Duration::from_millis(500);

impl Window {
    fn note_lookup(&mut self, ok: bool, took: Duration) {
        self.attempted += 1;
        self.lookups += 1;
        self.latencies_us.push(took.as_secs_f64() * 1e6);
        self.slow += u64::from(took > SLOW_LOOKUP);
        if ok {
            self.found += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// The timed window: lookups of seeded keys (`live_read`), or rounds of
/// inserts, read-your-writes lookups and lookups of older keys
/// (`live_mixed`). Runs until `duration` has passed (whole rounds).
fn window(
    live: &mut Live,
    sc: &Scale,
    mixed: bool,
    rng: &mut SplitMix64,
    duration: Duration,
    rec: &mut Recorder,
) -> Window {
    let mut w = Window::default();
    let frames_before = live.cluster.transport().delivered();
    let start = Instant::now();
    while start.elapsed() < duration && !rec.full() {
        w.rate.mark_after(SUB_WINDOW, w.good_ops());
        rec.set_op(w.attempted);
        if !mixed {
            let idx = rng.below(live.items.len());
            let (ok, took) = rec.span("op", |rec| live.lookup(idx, rec));
            w.note_lookup(ok, took);
            continue;
        }
        let before_writes = live.cluster.transport().delivered();
        let first_new = live.items.len();
        rec.span("node.insert_batch", |_| {
            for _ in 0..sc.inserts {
                let key = live.insert_keys.next_key();
                let entry = entry_for(live.items.len() as u64, sc.peers);
                // One routed insert exercises forwarding; it lands on one
                // replica only, so the client also hands the entry to every
                // responsible node — the replication a lookup at any
                // replica needs for read-your-writes.
                live.cluster.insert(key, entry);
                for (i, path) in live.paths.iter().enumerate() {
                    if path.responsible_for(&key) {
                        live.cluster.insert_at(key, entry, PeerId::from_index(i));
                    }
                }
                live.items.push((key, entry));
            }
        });
        rec.span("node.settle", |_| live.cluster.settle());
        w.write_frames += live.cluster.transport().delivered() - before_writes;
        for idx in first_new..live.items.len() {
            let (ok, took) = rec.span("op", |rec| live.lookup(idx, rec));
            w.note_lookup(ok, took);
            // The insert is acknowledged by its read-back.
            w.attempted += 1;
            w.failed += u64::from(!ok);
        }
        for _ in 0..sc.old_lookups {
            let idx = rng.below(first_new);
            let (ok, took) = rec.span("op", |rec| live.lookup(idx, rec));
            w.note_lookup(ok, took);
        }
    }
    w.rate.mark(w.good_ops());
    w.messages = live.cluster.transport().delivered() - frames_before;
    w
}

pub fn run(args: &Args, mixed: bool) -> Report {
    let sc = scale(args);
    let mut rng = SplitMix64::new(args.seed ^ 0x6c69_7665);
    let seconds = Duration::from_secs(args.seconds);
    if args.trace {
        return run_traced(args, &sc, mixed, &mut rng, seconds);
    }

    let mut rec = Recorder::new(false);
    let (mut live, setups) = repeat_setup(
        sc.setup_repeats,
        |attempt| setup(args, &sc, mixed, attempt, &mut rec),
        Live::teardown,
    );
    let w = window(&mut live, &sc, mixed, &mut rng, seconds, &mut rec);
    let peak_rss = host::peak_rss_mb();
    live.teardown();
    let slow = format!(
        "{} lookups slower than {} ms",
        w.slow,
        SLOW_LOOKUP.as_millis()
    );
    end_to_end(w, setups, peak_rss, vec![slow])
}

/// The traced run: one set-up and two short windows (spans off, then on —
/// their difference is the tracing overhead), then the per-layer probes on
/// inputs captured from the workload.
fn run_traced(
    args: &Args,
    sc: &Scale,
    mixed: bool,
    rng: &mut SplitMix64,
    seconds: Duration,
) -> Report {
    let mut rec = Recorder::new(true);
    let mut live = setup(args, sc, mixed, 0, &mut rec);
    let mut off = Recorder::new(false);
    let plain = window(&mut live, sc, mixed, rng, seconds / 4, &mut off);
    let mark = rec.mark();
    let traced = window(&mut live, sc, mixed, rng, seconds / 4, &mut rec);

    let net = live.cluster.net_stats();
    let threads = host::thread_count();
    let disk_bytes = live.dir.as_deref().map_or(0, host::dir_bytes);
    let inserted = live.items.len() - sc.seeded_keys;
    let snapshot = live.cluster.to_snapshot();
    let keys: Vec<Key> = live.items.iter().map(|(key, _)| *key).collect();
    live.teardown();

    let mut grid = snapshot.restore().expect("restore the cluster snapshot");
    let mut out = probes::layers(args, &mut grid, &keys);
    let spans = rec.self_times_since(0);
    let span_ms = |name: &'static str| {
        let t = spans.get(name).copied().unwrap_or_default();
        let mean_ms = t.total_ns as f64 / t.count.max(1) as f64 / 1e6;
        metric(format!("{name}_ms"), mean_ms, "ms", t.count)
    };
    let client_us = traced.latencies_us.iter().sum::<f64>() / traced.lookups as f64;
    let replay_us = probes::value(&out, "core.search_ns") / 1e3;
    let local = local_lookup_p50_us(args, sc, &keys);
    out.extend([
        metric("node.lookup_client_us", client_us, "us", traced.lookups),
        metric(
            "node.wait_share",
            1.0 - replay_us / client_us,
            "share",
            traced.lookups,
        ),
        metric(
            "node.frames_per_lookup",
            (traced.messages - traced.write_frames) as f64 / traced.lookups as f64,
            "count",
            traced.lookups,
        ),
        metric(
            "node.local_lookup_p50_us",
            local.p50,
            "us",
            local.samples as u64,
        ),
        span_ms("node.insert_batch"),
        span_ms("node.settle"),
        span_ms("node.build_round"),
        metric(
            "node.slow_lookups",
            (plain.slow + traced.slow) as f64,
            "count",
            plain.lookups + traced.lookups,
        ),
        metric("node.peak_threads", threads as f64, "count", 1),
        metric(
            "node.conn_established",
            net.conn_established as f64,
            "count",
            1,
        ),
        metric("node.conn_lost", net.conn_lost as f64, "count", 1),
        metric("node.retransmits", net.retries as f64, "count", 1),
        metric("node.writes_shed", net.writes_shed as f64, "count", 1),
        metric("node.partial_frames", net.partial_frames as f64, "count", 1),
        metric(
            "store.disk_bytes_per_write",
            if inserted == 0 {
                0.0
            } else {
                disk_bytes as f64 / inserted as f64
            },
            "B",
            inserted as u64,
        ),
    ]);
    traced_report(args, &rec, mark, plain, traced, out, Vec::new())
}

/// The socket-vs-mailbox A/B: the same keys looked up through the
/// in-process `Cluster` (one actor thread per node, `LocalTransport`).
fn local_lookup_p50_us(args: &Args, sc: &Scale, keys: &[Key]) -> stats::Latency {
    let mut cluster = Cluster::spawn(ClusterConfig {
        n: sc.peers,
        maxl: sc.maxl,
        refmax: 2,
        seed: args.seed,
        ..ClusterConfig::default()
    });
    for _ in 0..sc.build_rounds {
        cluster.build(sc.meetings);
    }
    let seeded = &keys[..sc.seeded_keys];
    for (i, key) in seeded.iter().enumerate() {
        cluster.seed_index(*key, entry_for(i as u64, sc.peers));
    }
    let mut latencies = Vec::with_capacity(sc.warmup);
    for i in 0..2 * sc.warmup {
        let idx = i % seeded.len();
        let start = Instant::now();
        let answer = cluster.query(&seeded[idx]);
        let took = start.elapsed();
        assert!(
            matches!(answer, Some((_, entries)) if entries == [entry_for(idx as u64, sc.peers)]),
            "in-process lookup {i} returned a wrong or no answer"
        );
        if i >= sc.warmup {
            latencies.push(took.as_secs_f64() * 1e6);
        }
    }
    cluster.shutdown();
    stats::latency(latencies)
}

/// The `node.*` rows of a workload that runs no live cluster.
pub fn no_node_metrics() -> Vec<Metric> {
    [
        ("node.lookup_client_us", "us"),
        ("node.wait_share", "share"),
        ("node.frames_per_lookup", "count"),
        ("node.local_lookup_p50_us", "us"),
        ("node.insert_batch_ms", "ms"),
        ("node.settle_ms", "ms"),
        ("node.build_round_ms", "ms"),
        ("node.slow_lookups", "count"),
        ("node.peak_threads", "count"),
        ("node.conn_established", "count"),
        ("node.conn_lost", "count"),
        ("node.retransmits", "count"),
        ("node.writes_shed", "count"),
        ("node.partial_frames", "count"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit, 0))
    .collect()
}
