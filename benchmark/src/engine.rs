//! `engine_read` and `engine_mixed`: the in-process engine at paper scale.
//!
//! Both run a **fixed count** of ops per requested second (sized once for
//! this class of host and frozen), so a seed names exactly the same work on
//! every run: `workload_hash`, `outcome_hash` and `msgs_per_op` repeat
//! exactly, and only the clock differs. Individual ops (~µs) are not
//! timed; latency samples are per-lookup averages over one timed batch.

use std::path::PathBuf;
use std::time::Instant;

use pgrid_core::{
    BuildOptions, Ctx, IndexEntry, InformationSystem, OwnedCtx, PGrid, PGridConfig, SystemConfig,
};
use pgrid_keys::Key;
use pgrid_net::{AlwaysOnline, BernoulliOnline, PeerId};
use pgrid_store::{ItemId, LogOptions, StorageSpec, Version};

use crate::gen::{payload, KeySpace, SplitMix64, WorkHash};
use crate::span::Recorder;
use crate::window::{end_to_end, repeat_setup, traced_report, Window};
use crate::{host, live, metric, probes, Args, Report};

/// Sub-windows per window for the throughput median.
const SUB_WINDOWS: u64 = 20;

fn hash_notes(ops: WorkHash, outcome: WorkHash) -> Vec<String> {
    vec![
        format!("workload_hash {:016x}", ops.value()),
        format!("outcome_hash {:016x}", outcome.value()),
    ]
}

// ---- engine_read -----------------------------------------------------

struct ReadScale {
    peers: usize,
    grid: PGridConfig,
    items: usize,
    /// Lookups per requested second (this host does ~200 k/s).
    ops_per_second: u64,
    /// Lookups per latency sample.
    batch: u64,
    setup_repeats: usize,
}

fn read_scale(args: &Args) -> ReadScale {
    if args.smoke {
        ReadScale {
            peers: 512,
            grid: PGridConfig {
                maxl: 5,
                refmax: 4,
                ..PGridConfig::default()
            },
            items: 256,
            ops_per_second: 20_000,
            batch: 64,
            setup_repeats: 1,
        }
    } else {
        ReadScale {
            peers: 20_000,
            grid: PGridConfig::paper_large(),
            items: 4096,
            ops_per_second: 150_000,
            batch: 256,
            setup_repeats: 3,
        }
    }
}

struct ReadSystem {
    grid: PGrid,
    ctx: OwnedCtx,
    keys: Vec<Key>,
}

fn item_entry(i: usize, peers: usize) -> IndexEntry {
    IndexEntry {
        item: ItemId(i as u64),
        holder: PeerId::from_index(i % peers),
        version: Version::INITIAL,
    }
}

fn read_setup(args: &Args, sc: &ReadScale, rec: &mut Recorder) -> ReadSystem {
    let mut ctx = Ctx::fork_for_task(args.seed, 0, Box::new(AlwaysOnline));
    let mut grid = PGrid::new(sc.peers, sc.grid);
    let report = rec.span("core.build", |_| {
        grid.build(&BuildOptions::default(), &mut ctx.ctx())
    });
    assert!(
        report.reached_threshold,
        "construction hit the meeting cap: {report:?}"
    );
    grid.check_invariants()
        .expect("grid invariants after construction");
    let keys = KeySpace::new(&mut SplitMix64::new(args.seed), 32).take(sc.items);
    rec.span("core.seed_index", |_| {
        for (i, key) in keys.iter().enumerate() {
            grid.seed_index(*key, item_entry(i, sc.peers));
        }
    });
    ReadSystem { grid, ctx, keys }
}

fn read_window(
    sys: &mut ReadSystem,
    sc: &ReadScale,
    rng: &mut SplitMix64,
    ops: u64,
    hashes: &mut (WorkHash, WorkHash),
    rec: &mut Recorder,
) -> Window {
    let mut w = Window::default();
    let grid = &sys.grid;
    let mut ctx = sys.ctx.ctx();
    let messages_before = ctx.stats.total();
    let mut hops = 0u64;
    let per_sub_window = (ops / SUB_WINDOWS).max(1);
    while w.attempted < ops && !rec.full() {
        if w.attempted % per_sub_window < sc.batch {
            w.rate.mark(w.good_ops());
        }
        let batch = sc.batch.min(ops - w.attempted);
        let batch_start = Instant::now();
        for _ in 0..batch {
            rec.set_op(w.attempted);
            let idx = rng.below(sys.keys.len());
            hashes.0.add(idx as u64);
            let ok = rec.span("op", |rec| {
                let key = &sys.keys[idx];
                let from = rec.span("core.random_peer", |_| grid.random_peer(&mut ctx));
                let (outcome, entries) = rec.span("core.search_entries", |_| {
                    grid.search_entries_ref(from, key, &mut ctx)
                });
                hops += u64::from(outcome.hops);
                entries == [item_entry(idx, sc.peers)]
                    && outcome
                        .responsible
                        .is_some_and(|peer| grid.peer(peer).path().responsible_for(key))
            });
            w.attempted += 1;
            w.found += u64::from(ok);
            w.failed += u64::from(!ok);
        }
        w.latencies_us
            .push(batch_start.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    w.rate.mark(w.good_ops());
    w.lookups = w.attempted;
    w.messages = ctx.stats.total() - messages_before;
    for count in [w.attempted, w.found, w.messages, hops] {
        hashes.1.add(count);
    }
    w
}

pub fn run_read(args: &Args) -> Report {
    let sc = read_scale(args);
    let mut rng = SplitMix64::new(args.seed ^ 0x656e_6772);
    let mut hashes = (WorkHash::new(), WorkHash::new());
    let ops = args.seconds * sc.ops_per_second;

    if args.trace {
        let mut rec = Recorder::new(true);
        let mut sys = read_setup(args, &sc, &mut rec);
        let mut off = Recorder::new(false);
        let plain = read_window(&mut sys, &sc, &mut rng, ops / 4, &mut hashes, &mut off);
        let mark = rec.mark();
        let traced = read_window(&mut sys, &sc, &mut rng, ops / 4, &mut hashes, &mut rec);
        let mut metrics = probes::layers(args, &mut sys.grid, &sys.keys);
        metrics.extend(live::no_node_metrics());
        metrics.push(metric("store.disk_bytes_per_write", 0.0, "B", 0));
        let notes = hash_notes(hashes.0, hashes.1);
        return traced_report(args, &rec, mark, plain, traced, metrics, notes);
    }

    let mut rec = Recorder::new(false);
    let (mut sys, setups) =
        repeat_setup(sc.setup_repeats, |_| read_setup(args, &sc, &mut rec), drop);
    let w = read_window(&mut sys, &sc, &mut rng, ops, &mut hashes, &mut rec);
    end_to_end(
        w,
        setups,
        host::peak_rss_mb(),
        hash_notes(hashes.0, hashes.1),
    )
}

// ---- engine_mixed ----------------------------------------------------

/// Share of peers online once construction ends (the paper's setting).
const ONLINE_SHARE: f64 = 0.3;
/// One round: 85 lookup+fetch, 5 publish, 5 update, 5 exchange meetings.
const ROUND_LOOKUPS: u64 = 85;
const ROUND_WRITES: u64 = 5;

struct MixedScale {
    peers: usize,
    maxl: usize,
    /// Peers that publish (and so host payloads on disk).
    hosts: usize,
    /// Names published during set-up, while every peer is online.
    initial_names: usize,
    /// Rounds per requested second (this host does ~600/s).
    rounds_per_second: u64,
    setup_repeats: usize,
}

fn mixed_scale(args: &Args) -> MixedScale {
    if args.smoke {
        MixedScale {
            peers: 256,
            maxl: 4,
            hosts: 32,
            initial_names: 256,
            rounds_per_second: 50,
            setup_repeats: 1,
        }
    } else {
        MixedScale {
            peers: 2048,
            maxl: 7,
            hosts: 256,
            initial_names: 2048,
            rounds_per_second: 400,
            setup_repeats: 3,
        }
    }
}

struct Published {
    name: String,
    item: ItemId,
    publisher: PeerId,
    /// Newest version this client wrote.
    version: u64,
}

struct MixedSystem {
    system: InformationSystem,
    ctx: OwnedCtx,
    names: Vec<Published>,
    dir: PathBuf,
}

impl MixedSystem {
    fn publish(&mut self, publisher: PeerId, rec: &mut Recorder) {
        let name = format!("item-{}", self.names.len());
        let bytes = payload(self.names.len() as u64, 0);
        let (item, _) = rec.span("core.publish", |_| {
            self.system
                .publish(publisher, &name, bytes, &mut self.ctx.ctx())
        });
        self.names.push(Published {
            name,
            item,
            publisher,
            version: 0,
        });
    }

    fn teardown(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn mixed_setup(args: &Args, sc: &MixedScale, attempt: usize, rec: &mut Recorder) -> MixedSystem {
    // One log backend (one open segment file) per peer.
    let limit = host::nofile_limit();
    assert!(
        limit as usize >= 2 * sc.peers,
        "engine_mixed opens one storage backend per peer: `ulimit -n` is {limit}, need {}",
        2 * sc.peers
    );
    let dir = args
        .out
        .join(format!("engine_mixed-{}-{attempt}", std::process::id()));
    let config = SystemConfig {
        grid: PGridConfig {
            maxl: sc.maxl,
            refmax: 20,
            ..PGridConfig::default()
        },
        // Long enough that no two of the run's names share a key.
        key_len: 64,
        ..SystemConfig::default()
    };
    let storage = StorageSpec::Log {
        dir: dir.clone(),
        options: LogOptions::default(),
    };
    let mut ctx = Ctx::fork_for_task(args.seed, 0, Box::new(AlwaysOnline));
    let system = rec.span("core.bootstrap", |_| {
        InformationSystem::bootstrap_with_storage(sc.peers, config, &storage, &mut ctx.ctx())
    });
    system
        .grid()
        .check_invariants()
        .expect("grid invariants after construction");
    let mut sys = MixedSystem {
        system,
        ctx,
        names: Vec::new(),
        dir,
    };
    for i in 0..sc.initial_names {
        sys.publish(PeerId::from_index(i % sc.hosts), rec);
    }
    sys.ctx
        .set_online(Box::new(BernoulliOnline::new(ONLINE_SHARE)));
    sys
}

fn mixed_window(
    sys: &mut MixedSystem,
    sc: &MixedScale,
    rng: &mut SplitMix64,
    rounds: u64,
    hashes: &mut (WorkHash, WorkHash),
    rec: &mut Recorder,
) -> Window {
    let mut w = Window::default();
    let messages_before = sys.ctx.stats.total();
    let (mut fetched, mut stale, mut updated_replicas) = (0u64, 0u64, 0u64);
    let per_sub_window = (rounds / SUB_WINDOWS).max(1);
    for round in 0..rounds {
        if rec.full() {
            break;
        }
        if round % per_sub_window == 0 {
            w.rate.mark(w.good_ops());
        }
        let lookups_start = Instant::now();
        for _ in 0..ROUND_LOOKUPS {
            rec.set_op(w.attempted);
            let idx = rng.below(sys.names.len());
            hashes.0.add(idx as u64);
            let wrong = rec.span("op", |rec| {
                let known = &sys.names[idx];
                let mut ctx = sys.ctx.ctx();
                let Some(hit) =
                    rec.span("core.lookup", |_| sys.system.lookup(&known.name, &mut ctx))
                else {
                    return false; // not found under churn: an outcome
                };
                w.found += 1;
                stale += u64::from(hit.version.0 < known.version);
                let mut wrong = hit.item != known.item
                    || hit.holders != [known.publisher]
                    || hit.version.0 > known.version;
                // The holder is online with probability 0.3; `None` is the
                // model's answer, a wrong payload is the program's.
                if let Some(bytes) = rec.span("core.fetch", |_| sys.system.fetch(&hit, &mut ctx)) {
                    fetched += 1;
                    wrong |= bytes != payload(idx as u64, 0);
                }
                wrong
            });
            w.attempted += 1;
            w.lookups += 1;
            w.failed += u64::from(wrong);
        }
        w.latencies_us
            .push(lookups_start.elapsed().as_secs_f64() * 1e6 / ROUND_LOOKUPS as f64);

        for _ in 0..ROUND_WRITES {
            rec.set_op(w.attempted);
            let host = rng.below(sc.hosts);
            hashes.0.add(host as u64);
            rec.span("op", |rec| sys.publish(PeerId::from_index(host), rec));
            w.attempted += 1;
        }
        for _ in 0..ROUND_WRITES {
            rec.set_op(w.attempted);
            let idx = rng.below(sys.names.len());
            hashes.0.add(idx as u64);
            rec.span("op", |rec| {
                let known = &mut sys.names[idx];
                known.version += 1;
                let (replicas, _) = rec.span("core.update", |_| {
                    sys.system.update(
                        &known.name,
                        known.item,
                        Version(known.version),
                        &mut sys.ctx.ctx(),
                    )
                });
                updated_replicas += replicas as u64;
            });
            w.attempted += 1;
        }
        for _ in 0..ROUND_WRITES {
            rec.set_op(w.attempted);
            rec.span("op", |rec| {
                let mut ctx = sys.ctx.ctx();
                let (a, b) = sys.system.grid().random_pair(&mut ctx);
                rec.span("core.exchange", |_| {
                    sys.system.grid_mut().exchange(a, b, &mut ctx)
                });
            });
            w.attempted += 1;
        }
    }
    w.rate.mark(w.good_ops());
    w.messages = sys.ctx.stats.total() - messages_before;
    for count in [
        w.attempted,
        w.found,
        w.messages,
        fetched,
        stale,
        updated_replicas,
    ] {
        hashes.1.add(count);
    }
    w
}

pub fn run_mixed(args: &Args) -> Report {
    let sc = mixed_scale(args);
    let mut rng = SplitMix64::new(args.seed ^ 0x6d69_7865);
    let mut hashes = (WorkHash::new(), WorkHash::new());
    let rounds = args.seconds * sc.rounds_per_second;

    if args.trace {
        let mut rec = Recorder::new(true);
        let mut sys = mixed_setup(args, &sc, 0, &mut rec);
        let mut off = Recorder::new(false);
        let plain = mixed_window(&mut sys, &sc, &mut rng, rounds / 4, &mut hashes, &mut off);
        let mark = rec.mark();
        let traced = mixed_window(&mut sys, &sc, &mut rng, rounds / 4, &mut hashes, &mut rec);
        let disk_bytes = host::dir_bytes(&sys.dir);
        let keys: Vec<Key> = sys
            .names
            .iter()
            .map(|n| sys.system.key_of(&n.name))
            .collect();
        let mut metrics = probes::layers(args, sys.system.grid_mut(), &keys);
        metrics.extend(live::no_node_metrics());
        metrics.push(metric(
            "store.disk_bytes_per_write",
            disk_bytes as f64 / sys.names.len() as f64,
            "B",
            sys.names.len() as u64,
        ));
        sys.teardown();
        let notes = hash_notes(hashes.0, hashes.1);
        return traced_report(args, &rec, mark, plain, traced, metrics, notes);
    }

    let mut rec = Recorder::new(false);
    let (mut sys, setups) = repeat_setup(
        sc.setup_repeats,
        |attempt| mixed_setup(args, &sc, attempt, &mut rec),
        MixedSystem::teardown,
    );
    let w = mixed_window(&mut sys, &sc, &mut rng, rounds, &mut hashes, &mut rec);
    let peak_rss = host::peak_rss_mb();
    sys.teardown();
    end_to_end(w, setups, peak_rss, hash_notes(hashes.0, hashes.1))
}
