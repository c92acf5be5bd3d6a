//! Per-layer probes: each layer's public functions timed from outside, on
//! inputs captured from the workload that just ran — its keys, the peer
//! paths and references of its grid (for a live cluster, the restored
//! snapshot), and the message mix a lookup or insert puts on the wire.
//!
//! Every probe times one loop with a single clock pair and reports the
//! mean per call; results pass through `black_box` so the calls stay.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use pgrid_core::{
    BatchQuery, BuildOptions, CompactRoutingTable, Ctx, FindStrategy, IndexEntry, PGrid,
    PGridConfig,
};
use pgrid_keys::{BitPath, HashKeyMapper, Key, KeyMapper, RankBits};
use pgrid_net::{AlwaysOnline, PeerId};
use pgrid_proto::{classify, route_step, Event, ProtoCtx, ProtocolPeer};
use pgrid_sim::{run_query_plan, run_query_plan_batched, run_query_plan_traced, QueryPlan};
use pgrid_store::{BackendKind, DataItem, ItemId, StorageBackend, StorageSpec, Version};
use pgrid_trace::NullTracer;
use pgrid_wire::{decode_frame, encode_frame, Message, WireEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{payload, KeySpace, SplitMix64};
use crate::{host, metric, Args, Metric};

/// Calls per probe loop.
struct Sizes {
    calls: u64,
    searches: u64,
    writes: u64,
    store_items: u64,
    plan_queries: usize,
    /// The fixed-size construction probe (`core.build_s`).
    build_peers: usize,
    build_maxl: usize,
}

fn sizes(args: &Args) -> Sizes {
    if args.smoke {
        Sizes {
            calls: 20_000,
            searches: 2_000,
            writes: 50,
            store_items: 2_000,
            plan_queries: 2_000,
            build_peers: 128,
            build_maxl: 4,
        }
    } else {
        Sizes {
            calls: 2_000_000,
            searches: 100_000,
            writes: 500,
            store_items: 100_000,
            plan_queries: 50_000,
            build_peers: 8192,
            build_maxl: 9,
        }
    }
}

/// Mean ns per call of `f(i)` for `i` in `0..calls`.
fn ns_per_call(calls: u64, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i as usize);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

pub fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} was not measured"))
        .value
}

/// Every layer probe that needs only a grid and its installed keys.
/// Mutating probes run last; the grid is not used for lookups afterwards.
pub fn layers(args: &Args, grid: &mut PGrid, keys: &[Key]) -> Vec<Metric> {
    let sz = sizes(args);
    let paths: Vec<BitPath> = grid.peers().map(|p| p.path()).collect();
    let mut out = Vec::new();
    keys_layer(&sz, keys, &paths, &mut out);
    proto_layer(&sz, grid, keys, &paths, &mut out);
    wire_layer(&sz, keys, &mut out);
    core_layer(args, &sz, grid, keys, &mut out);
    store_layer(args, &sz, &mut out);
    sim_layer(args, &sz, grid, &mut out);
    out
}

fn keys_layer(sz: &Sizes, keys: &[Key], paths: &[BitPath], out: &mut Vec<Metric>) {
    let pair = |i: usize| (&keys[i % keys.len()], &paths[(i * 7) % paths.len()]);
    let common = ns_per_call(sz.calls, |i| {
        let (key, path) = pair(i);
        black_box(key.common_prefix_len(path));
    });
    let is_prefix = ns_per_call(sz.calls, |i| {
        let (key, path) = pair(i);
        black_box(path.is_prefix_of(key));
    });
    let names: Vec<String> = (0..1024).map(|i| format!("item-{i}")).collect();
    let mapper = HashKeyMapper::default();
    let hash_map = ns_per_call(sz.calls / 4, |i| {
        black_box(mapper.map(&names[i % names.len()], 64));
    });
    // Occupancy bits as the compact routing table keeps them: one bit per
    // (peer, level) slot, set where the level holds references.
    let mut bits = SplitMix64::new(paths.len() as u64);
    let rank = RankBits::from_fn(1 << 20, |_| bits.below(3) == 0);
    let rank1 = ns_per_call(sz.calls, |i| {
        black_box(rank.rank1(i.wrapping_mul(0x9e37_79b9) % rank.len()));
    });
    out.extend([
        metric("keys.common_prefix_ns", common, "ns", sz.calls),
        metric("keys.is_prefix_ns", is_prefix, "ns", sz.calls),
        metric("keys.hash_map_ns", hash_map, "ns", sz.calls / 4),
        metric("keys.rank1_ns", rank1, "ns", sz.calls),
    ]);
}

fn proto_layer(sz: &Sizes, grid: &PGrid, keys: &[Key], paths: &[BitPath], out: &mut Vec<Metric>) {
    let maxl = grid.config().maxl;
    let route = ns_per_call(sz.calls, |i| {
        black_box(route_step(
            &paths[(i * 7) % paths.len()],
            0,
            &keys[i % keys.len()],
        ));
    });
    let classified = ns_per_call(sz.calls, |i| {
        let (a, b) = (&paths[i % paths.len()], &paths[(i * 7 + 1) % paths.len()]);
        black_box(classify(a, b, maxl));
    });
    // The live node's state machine over the same paths and references.
    let mut peers: Vec<ProtocolPeer> = grid
        .peers()
        .take(256)
        .map(|p| {
            let mut peer = ProtocolPeer::new(p.id(), maxl, grid.config().refmax, 2);
            peer.path = p.path();
            peer.refs = p
                .routing()
                .iter()
                .map(|(_, r)| r.as_slice().to_vec())
                .collect();
            peer
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let calls = sz.calls / 4;
    let peer_route = ns_per_call(calls, |i| {
        black_box(peers[i % peers.len()].route(&keys[i % keys.len()], 0, &mut rng));
    });
    let client = PeerId(u32::MAX - 1);
    let mut effects = Vec::new();
    let n_peers = peers.len();
    let handle_query = ns_per_call(calls, |i| {
        effects.clear();
        let event = Event::QueryReceived {
            from: client,
            id: i as u64,
            origin: client,
            key: keys[i % keys.len()],
            matched: 0,
            ttl: 64,
        };
        let mut ctx = ProtoCtx {
            rng: &mut rng,
            tracer: &mut NullTracer,
        };
        peers[i % n_peers].handle(event, &mut ctx, &mut effects);
        black_box(&effects);
    });
    out.extend([
        metric("proto.route_step_ns", route, "ns", sz.calls),
        metric("proto.classify_ns", classified, "ns", sz.calls),
        metric("proto.peer_route_ns", peer_route, "ns", calls),
        metric("proto.handle_query_ns", handle_query, "ns", calls),
    ]);
}

fn wire_layer(sz: &Sizes, keys: &[Key], out: &mut Vec<Metric>) {
    let client = PeerId(u32::MAX - 1);
    let entry = |i: usize| WireEntry {
        item: i as u64,
        holder: PeerId(i as u32 % 64),
        version: 1,
    };
    // The frames one lookup or insert puts on the wire.
    type Build<'a> = Box<dyn Fn(usize) -> Message + 'a>;
    let kinds: [(&str, Build); 4] = [
        (
            "query",
            Box::new(|i| Message::Query {
                id: i as u64,
                origin: client,
                key: keys[i % keys.len()],
                matched: (i % 4) as u16,
                ttl: 64,
            }),
        ),
        (
            "ack",
            Box::new(|i| Message::Ack {
                seq: (1 << 63) | i as u64,
            }),
        ),
        (
            "query_ok",
            Box::new(|i| Message::QueryOk {
                id: i as u64,
                responsible: PeerId(i as u32 % 64),
                entries: vec![entry(i)],
            }),
        ),
        (
            "index_insert",
            Box::new(|i| Message::IndexInsert {
                seq: i as u64,
                key: keys[i % keys.len()],
                entry: entry(i),
            }),
        ),
    ];
    let calls = sz.calls / 8;
    for (kind, build) in kinds {
        let messages: Vec<Message> = (0..1024).map(&build).collect();
        let encode = ns_per_call(calls, |i| {
            black_box(encode_frame(&messages[i % messages.len()]));
        });
        let frames: Vec<_> = messages.iter().map(encode_frame).collect();
        let decode = ns_per_call(calls, |i| {
            // As the node does: copy the frame into a fresh accumulator.
            let mut buf = BytesMut::from(&frames[i % frames.len()][..]);
            black_box(decode_frame(&mut buf).expect("a frame this codec wrote"));
        });
        for (message, frame) in messages.iter().zip(&frames) {
            let mut buf = BytesMut::from(&frame[..]);
            assert_eq!(
                decode_frame(&mut buf).ok().flatten().as_ref(),
                Some(message)
            );
        }
        let bytes = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / frames.len() as f64;
        out.extend([
            metric(format!("wire.{kind}.encode_ns"), encode, "ns", calls),
            metric(format!("wire.{kind}.decode_ns"), decode, "ns", calls),
            metric(
                format!("wire.{kind}.bytes_per_frame"),
                bytes,
                "B",
                frames.len() as u64,
            ),
        ]);
    }
}

fn core_layer(args: &Args, sz: &Sizes, grid: &mut PGrid, keys: &[Key], out: &mut Vec<Metric>) {
    let mut owned = Ctx::fork_for_task(args.seed ^ 0x70726f62, 0, Box::new(AlwaysOnline));
    let mut bench_rng = SplitMix64::new(args.seed);

    // The replayed lookups: every one must name a peer whose path is
    // responsible for the key.
    let mut hops = 0u64;
    let search = {
        let mut ctx = owned.ctx();
        ns_per_call(sz.searches, |i| {
            let key = &keys[i % keys.len()];
            let from = grid.random_peer(&mut ctx);
            let hit = grid.search(from, key, &mut ctx);
            let peer = hit
                .responsible
                .expect("every peer online: the search must succeed");
            assert!(grid.peer(peer).path().responsible_for(key));
            hops += u64::from(hit.hops);
        })
    };

    let queries: Vec<BatchQuery> = (0..sz.searches as usize)
        .map(|i| BatchQuery {
            key: keys[i % keys.len()],
            start: PeerId::from_index(bench_rng.below(grid.len())),
            seed: bench_rng.next_u64(),
        })
        .collect();
    let build_start = Instant::now();
    let table = CompactRoutingTable::build(grid);
    let compact_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let mut batched = |width: usize, table: Option<&CompactRoutingTable>| {
        let mut ctx = owned.ctx();
        let mut outcomes = Vec::with_capacity(width);
        let start = Instant::now();
        for batch in queries.chunks(width) {
            outcomes.clear();
            grid.search_batch(table, batch, &mut ctx, &mut outcomes);
            assert!(black_box(&outcomes).iter().all(|o| o.responsible.is_some()));
        }
        start.elapsed().as_nanos() as f64 / queries.len() as f64
    };
    let batch1 = batched(1, None);
    let batch64_live = batched(64, None);
    let batch64_compact = batched(64, Some(&table));
    drop(table);

    // A fixed-size construction, the same on every workload.
    let build_start = Instant::now();
    let mut fresh = PGrid::new(
        sz.build_peers,
        PGridConfig {
            maxl: sz.build_maxl,
            refmax: 20,
            ..PGridConfig::default()
        },
    );
    let report = fresh.build(&BuildOptions::default(), &mut owned.ctx());
    let build_s = build_start.elapsed().as_secs_f64();
    assert!(
        report.reached_threshold,
        "probe construction hit the meeting cap"
    );
    drop(fresh);

    // Mutating probes: fresh keys that no workload item uses.
    let key_len = keys[0].len() as u8;
    let mut space = KeySpace::new(&mut SplitMix64::new(!args.seed), key_len);
    let mut fresh_entry = {
        let mut next = 1u64 << 40;
        move || {
            next += 1;
            IndexEntry {
                item: ItemId(next),
                holder: PeerId(0),
                version: Version::INITIAL,
            }
        }
    };
    let strategy = FindStrategy::Bfs {
        recbreadth: 2,
        repetition: 2,
    };
    let seeded = ns_per_call(sz.writes, |_| {
        grid.seed_index(space.next_key(), fresh_entry());
    });
    let mut written = Vec::new();
    let inserted = {
        let mut ctx = owned.ctx();
        ns_per_call(sz.writes, |_| {
            let (key, entry) = (space.next_key(), fresh_entry());
            black_box(grid.insert_item(&key, entry, strategy, &mut ctx));
            written.push((key, entry.item));
        })
    };
    let updated = {
        let mut ctx = owned.ctx();
        ns_per_call(sz.writes, |i| {
            let (key, item) = written[i];
            black_box(grid.update_item(&key, item, Version(1), strategy, &mut ctx));
        })
    };
    let exchanges = sz.writes * 20;
    let exchange = {
        let mut ctx = owned.ctx();
        ns_per_call(exchanges, |_| {
            let (a, b) = grid.random_pair(&mut ctx);
            black_box(grid.exchange(a, b, &mut ctx));
        })
    };
    grid.check_invariants()
        .expect("grid invariants after the write probes");

    out.extend([
        metric("core.search_ns", search, "ns", sz.searches),
        metric(
            "core.hops_per_search",
            hops as f64 / sz.searches as f64,
            "count",
            sz.searches,
        ),
        metric("core.search_batch1_ns", batch1, "ns", sz.searches),
        metric(
            "core.search_batch64_live_ns",
            batch64_live,
            "ns",
            sz.searches,
        ),
        metric(
            "core.search_batch64_compact_ns",
            batch64_compact,
            "ns",
            sz.searches,
        ),
        metric("core.compact_build_ms", compact_build_ms, "ms", 1),
        metric("core.exchange_ns", exchange, "ns", exchanges),
        metric("core.build_s", build_s, "s", 1),
        metric("core.insert_item_us", inserted / 1e3, "us", sz.writes),
        metric("core.update_item_us", updated / 1e3, "us", sz.writes),
        metric("core.seed_index_us", seeded / 1e3, "us", sz.writes),
    ]);
}

/// The same items through each backend; contents must come out identical.
fn store_layer(args: &Args, sz: &Sizes, out: &mut Vec<Metric>) {
    let n = sz.store_items;
    let keys = KeySpace::new(&mut SplitMix64::new(args.seed), 32).take(n as usize);
    let item = |i: usize| {
        DataItem::with_payload(
            ItemId(i as u64),
            format!("item-{i}"),
            keys[i],
            payload(i as u64, 0),
        )
    };
    let digest = |backend: &dyn StorageBackend| {
        let mut sum = 0u64;
        backend.for_each(&mut |it: DataItem| {
            let bytes = it
                .payload
                .iter()
                .fold(it.id.0, |h, &b| h.wrapping_mul(31) + u64::from(b));
            sum = sum.wrapping_add(bytes ^ it.key.raw_bits() as u64);
        });
        (backend.len(), sum)
    };
    let mut digests = Vec::new();
    for kind in [BackendKind::Memory, BackendKind::HashFile, BackendKind::Log] {
        let dir = args
            .out
            .join(format!("store-{}-{}", kind.name(), std::process::id()));
        let spec = StorageSpec::of_kind(kind, &dir);
        let mut backend = spec.open_for(0).expect("open the probe backend");
        let put = ns_per_call(n, |i| {
            backend.put(item(i));
        });
        let flush_start = Instant::now();
        backend.flush().expect("flush the probe backend");
        let flush_ms = flush_start.elapsed().as_secs_f64() * 1e3;
        let get = ns_per_call(n, |i| {
            let id = ItemId((i as u64).wrapping_mul(0x9e37_79b9) % n);
            black_box(backend.get(id).expect("an item that was put"));
        });
        // Ordered prefix scans, as a peer indexing its subtree does them.
        let mut scanned = 0u64;
        let scan_start = Instant::now();
        for prefix in 0..16 {
            backend.for_each_under(&BitPath::from_value(prefix, 4), &mut |it| {
                scanned += 1;
                black_box(it);
            });
        }
        let scan = scan_start.elapsed().as_nanos() as f64 / scanned as f64;
        assert_eq!(scanned, n, "sixteen 4-bit prefixes cover every key once");
        let disk = host::dir_bytes(&dir) as f64 / n as f64;
        drop(backend);
        let reopen_start = Instant::now();
        let backend = spec.open_for(0).expect("reopen the probe backend");
        let reopen_ms = reopen_start.elapsed().as_secs_f64() * 1e3;
        // Memory holds nothing across a reopen; digest it before.
        if kind != BackendKind::Memory {
            digests.push(digest(&backend));
        } else {
            let mut memory = spec.open_for(0).expect("memory backend");
            for i in 0..n as usize {
                memory.put(item(i));
            }
            digests.push(digest(&memory));
        }
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
        let name = kind.name();
        out.extend([
            metric(format!("store.{name}.put_ns"), put, "ns", n),
            metric(format!("store.{name}.get_ns"), get, "ns", n),
            metric(
                format!("store.{name}.scan_ns_per_item"),
                scan,
                "ns",
                scanned,
            ),
            metric(format!("store.{name}.flush_ms"), flush_ms, "ms", 1),
            metric(format!("store.{name}.reopen_ms"), reopen_ms, "ms", 1),
            metric(format!("store.{name}.disk_bytes_per_item"), disk, "B", n),
        ]);
    }
    assert!(
        digests.iter().all(|d| *d == digests[0] && d.0 as u64 == n),
        "backends disagree on their contents: {digests:?}"
    );
}

fn sim_layer(args: &Args, sz: &Sizes, grid: &PGrid, out: &mut Vec<Metric>) {
    let plan = QueryPlan {
        queries: sz.plan_queries,
        key_len: 16,
        shards: 8,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let qps = |run: &dyn Fn() -> u64| {
        let start = Instant::now();
        let successes = run();
        assert_eq!(
            successes, plan.queries as u64,
            "every planned query must succeed"
        );
        plan.queries as f64 / start.elapsed().as_secs_f64()
    };
    let serial = qps(&|| run_query_plan(grid, &plan, args.seed, &AlwaysOnline, 1).successes());
    let parallel =
        qps(&|| run_query_plan(grid, &plan, args.seed, &AlwaysOnline, threads).successes());
    let batched =
        qps(&|| run_query_plan_batched(grid, &plan, args.seed, &AlwaysOnline, 1, 64).successes());
    let ring = qps(&|| {
        run_query_plan_traced(grid, &plan, args.seed, &AlwaysOnline, 1, 1 << 16)
            .0
            .successes()
    });
    let n = plan.queries as u64;
    out.extend([
        metric("sim.query_plan_qps_t1", serial, "1/s", n),
        metric("sim.query_plan_qps_tn", parallel, "1/s", n),
        metric("sim.batched_plan_qps", batched, "1/s", n),
        metric(
            "trace.ring_overhead_pct",
            (serial / ring - 1.0) * 100.0,
            "%",
            n,
        ),
    ]);
}
