//! Steady-state allocation gate (DESIGN §9): on a warm scratch arena a
//! `search` and a batched query allocate nothing. Warm-up operations grow
//! every scratch buffer to its high-water mark; the measured operations
//! then run under a counting allocator and must leave the calling thread's
//! count where it was. `exchange` rewrites reference sets, which is peer
//! state rather than scratch, so it gets a per-call ceiling instead. The
//! allocator also tracks live heap bytes, which gate what a peer keeps per
//! leaf-index entry, what a converged grid keeps besides its peers, and
//! what a live node's custody journal keeps per record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pgrid::core::{
    BatchQuery, BuildOptions, CompactRoutingTable, Ctx, IndexEntry, KeyEntries, PGrid, PGridConfig,
    Peer,
};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, NetStats, PeerId};
use pgrid::node::{ClusterConfig, SimCluster};
use pgrid::proto::ProtocolPeer;
use pgrid::store::{AppendLog, ItemId, LogOptions, StorageSpec, Version};
use pgrid::wire::WireEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Allocation events (fresh allocations and reallocations) of this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread allocated minus those it freed.
    static BYTES: Cell<i64> = const { Cell::new(0) };
}

/// System-allocator delegate that counts allocation events and live bytes
/// per thread, so the test harness's own threads cannot disturb a
/// measurement.
struct CountingAlloc;

fn count(bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    release(-bytes);
}

fn release(bytes: i64) {
    let _ = BYTES.try_with(|c| c.set(c.get() - bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `op` `warm` times unmeasured, then `measure` times under the
/// counter; returns the allocation events of the measured part.
fn steady_state_allocs(warm: usize, measure: usize, mut op: impl FnMut()) -> u64 {
    for _ in 0..warm {
        op();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..measure {
        op();
    }
    ALLOCS.with(Cell::get) - before
}

/// The 256-peer fixture before construction: every peer at the root.
fn fresh_grid() -> PGrid {
    PGrid::new(
        256,
        PGridConfig {
            maxl: 4,
            refmax: 4,
            ..PGridConfig::default()
        },
    )
}

/// Builds `grid` to convergence under `seed`, dropping the context (and
/// its scratch arena) before returning.
fn converge(grid: &mut PGrid, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = NetStats::new();
    let mut online = AlwaysOnline;
    let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
    let report = grid.build(&BuildOptions::default(), &mut ctx);
    assert!(report.reached_threshold, "fixture failed to converge");
}

fn converged_grid(seed: u64) -> PGrid {
    let mut grid = fresh_grid();
    converge(&mut grid, seed);
    grid
}

#[test]
fn search_and_batched_query_do_not_allocate_when_warm() {
    const SEED: u64 = 42;
    let grid = converged_grid(SEED);
    let mut owned = Ctx::fork_for_task(SEED, 0, Box::new(AlwaysOnline));
    let mut sink = 0u64;

    let search = steady_state_allocs(200, 1000, || {
        let mut ctx = owned.ctx();
        let key = BitPath::random(ctx.rng, 4);
        let start = grid.random_peer(&mut ctx);
        sink += grid.search(start, &key, &mut ctx).messages;
    });
    assert_eq!(search, 0, "search allocated on a warm arena");

    // Through a snapshot the caller holds, like the batched plan runner;
    // the batch and outcome buffers belong to the caller and are likewise
    // reused.
    const BATCH: usize = 64;
    let table = CompactRoutingTable::build(&grid);
    let mut batch = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::with_capacity(BATCH);
    let batched = steady_state_allocs(50, 250, || {
        let mut ctx = owned.ctx();
        batch.clear();
        outcomes.clear();
        for _ in 0..BATCH {
            batch.push(BatchQuery {
                key: BitPath::random(ctx.rng, 4),
                start: grid.random_peer(&mut ctx),
                seed: ctx.rng.gen(),
            });
        }
        grid.search_batch(Some(&table), &batch, &mut ctx, &mut outcomes);
        sink += outcomes.iter().map(|o| o.messages).sum::<u64>();
    });
    assert_eq!(batched, 0, "batched query allocated on a warm arena");
    assert!(sink > 0);
}

/// Allocation events and live heap bytes of `seed` on this thread.
fn measured(seed: impl FnOnce()) -> (u64, i64) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    seed();
    (
        ALLOCS.with(Cell::get) - allocs,
        BYTES.with(Cell::get) - bytes,
    )
}

/// The footprint fixture: 1 000 random 64-bit keys, entry `i` held by
/// peer `i mod 256`.
fn seeding_keys() -> Vec<(BitPath, IndexEntry)> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..1000u32)
        .map(|i| {
            let entry = IndexEntry {
                item: ItemId(u64::from(i)),
                holder: PeerId(i % 256),
                version: Version(0),
            };
            (BitPath::random(&mut rng, 64), entry)
        })
        .collect()
}

/// Seeds the fixture's first `keys` keys into the converged grid; returns
/// the grid with the allocation events and live heap bytes, each per
/// resulting index entry.
fn engine_seeding_cost(keys: usize) -> (PGrid, f64, f64) {
    let mut grid = converged_grid(42);
    let fixture = seeding_keys();
    let (allocs, bytes) = measured(|| {
        for &(key, entry) in &fixture[..keys] {
            grid.seed_index(key, entry);
        }
    });
    let entries: usize = grid.peers().map(|p| p.index().len()).sum();
    assert!(entries >= keys, "every key lands on at least one peer");
    (
        grid,
        allocs as f64 / entries as f64,
        bytes as f64 / entries as f64,
    )
}

/// Footprint gate (DESIGN §9): what a peer keeps per index entry. Seeding
/// 1 000 random 64-bit keys (17 158 entries over the replicas) costs 0.294
/// allocation events per resulting index entry: B-tree nodes,
/// `replicas_of`'s scratch list, and the small form's three growth steps
/// before a peer's twelfth key moves it to the B-tree; a key's only entry
/// sits inline in its slot. A B-tree from the first key took 0.249, a
/// `Vec` per key 1.25, and the node-per-bit trie before it 56.2.
#[test]
fn seeding_an_index_entry_costs_at_most_two_allocations() {
    let (_, per_entry, _) = engine_seeding_cost(1000);
    assert!(
        per_entry <= 0.3,
        "{per_entry:.3} allocations per index entry"
    );
}

/// Byte gate (DESIGN §9) on the same fixture, for the engine's `Peer` and
/// for `ProtocolPeer`s at the grid's paths holding the same replicas: an
/// entry keeps 100.1 live heap bytes in both — its share of B-tree nodes
/// holding 32-byte keys and 32-byte slots — where a `Vec` per key kept
/// 185.2.
#[test]
fn an_index_entry_holds_at_most_112_heap_bytes() {
    let (_, _, engine) = engine_seeding_cost(1000);
    let grid = converged_grid(42);
    let keys = seeding_keys();
    let mut peers: Vec<ProtocolPeer> = grid
        .peers()
        .map(|p| {
            let mut peer = ProtocolPeer::new(p.id(), 4, 4, 2);
            peer.path = p.path();
            peer
        })
        .collect();
    let (_, bytes) = measured(|| {
        for &(key, e) in &keys {
            let entry = WireEntry {
                item: e.item.0,
                holder: e.holder,
                version: e.version.0,
            };
            for peer in peers.iter_mut().filter(|p| p.path.is_prefix_of(&key)) {
                peer.index_insert(key, entry);
            }
        }
    });
    let entries: usize = peers.iter().map(|p| p.index.len()).sum();
    let live = bytes as f64 / entries as f64;
    for (who, per_entry) in [("Peer", engine), ("ProtocolPeer", live)] {
        assert!(
            per_entry <= 112.0,
            "{who}: {per_entry:.1} heap bytes per index entry"
        );
    }
}

/// Footprint gate (DESIGN §9) where peers hold few keys, as on a large
/// grid: the fixture's first 40 keys give 682 entries, at most 22 on a
/// peer. An entry keeps 116.4 live heap bytes in a sorted `Vec` of at
/// most eleven keys per peer; a B-tree leaf per peer kept 263.8.
#[test]
fn a_sparse_index_entry_holds_at_most_128_heap_bytes() {
    let (grid, _, per_entry) = engine_seeding_cost(40);
    let held: Vec<usize> = grid.peers().map(|p| p.index().len()).collect();
    assert_eq!(held.iter().sum::<usize>(), 682, "fixture moved");
    assert_eq!(held.iter().max(), Some(&22), "fixture moved");
    assert!(
        per_entry <= 128.0,
        "{per_entry:.1} heap bytes per index entry"
    );
}

/// The sizes DESIGN §9 budgets on 64-bit targets: a `Peer`, whose hosted
/// store sits behind a box, and the leaf index's slot value, one entry
/// inline.
#[test]
#[cfg(target_pointer_width = "64")]
fn peer_and_index_slot_sizes_hold() {
    assert_eq!(std::mem::size_of::<Peer>(), 128);
    assert!(std::mem::size_of::<KeyEntries<IndexEntry>>() <= 32);
    assert!(std::mem::size_of::<KeyEntries<WireEntry>>() <= 32);
}

/// Live heap bytes of the peer `make` returns.
fn heap_of(make: impl FnOnce() -> Peer) -> i64 {
    let mut peer = None;
    measured(|| peer = Some(make())).1
}

/// A fresh peer allocates nothing: its index, buddy set and routing
/// buffer start empty, and its hosted store is made at the first write. A
/// boxed store from the start cost 160 B per peer.
#[test]
fn a_fresh_peer_holds_no_heap() {
    assert_eq!(heap_of(|| Peer::new(PeerId(7))), 0);
}

/// Heap bytes `peer` holds beyond a fresh peer's: a clone copies its
/// routing buffer at its length and its buddy set node for node.
fn grown_heap(peer: &Peer) -> i64 {
    heap_of(|| peer.clone()) - heap_of(|| Peer::new(peer.id()))
}

/// One routing copy (DESIGN §9): the heap `build` leaves on the fixture
/// is what the peers hold (routing buffers, trimmed to their length, and
/// buddy sets), within 10 %. It measures 54 652 B, all of it in the peers
/// (routing buffers 21 212 B, buddy sets the rest). A grid that also kept
/// a frozen `CompactRoutingTable` left 76 192 B (1.39×).
#[test]
fn build_leaves_one_copy_of_the_routing_state() {
    let mut grid = fresh_grid();
    let (_, left) = measured(|| converge(&mut grid, 42));
    let routing: usize = grid
        .peers()
        .map(|p| p.routing().capacity() * std::mem::size_of::<PeerId>())
        .sum();
    let in_peers: i64 = grid.peers().map(grown_heap).sum();
    assert!(
        left as f64 <= 1.1 * in_peers as f64,
        "build left {left} heap bytes; the peers hold {in_peers} (routing {routing})"
    );
}

/// Exchange allocation gate (DESIGN §9): 1 000 meetings on the converged
/// fixture from a fresh context, scratch warm-up included. One buffer per
/// peer's routing table measures 299 allocation events over 16 087
/// `exchange` calls (0.0186 per call); a `Vec` per level made 318.
#[test]
fn exchange_allocates_at_most_one_event_per_fifty_calls() {
    const SEED: u64 = 42;
    let mut grid = converged_grid(SEED);
    let mut owned = Ctx::fork_for_task(SEED, 0, Box::new(AlwaysOnline));
    let mut calls = 0u64;
    let allocs = steady_state_allocs(0, 1000, || {
        let mut ctx = owned.ctx();
        let (a, b) = grid.random_pair(&mut ctx);
        calls += grid.exchange(a, b, &mut ctx);
    });
    let per_call = allocs as f64 / calls as f64;
    assert!(
        per_call <= 0.0186,
        "{per_call:.4} allocations per exchange call ({allocs} over {calls})"
    );
}

/// The shape of `live_mixed`'s cluster at a quarter of its meetings, on
/// the virtual clock so that every shell runs on this thread.
fn custody_cluster(storage: Option<&StorageSpec>) -> SimCluster {
    let config = ClusterConfig {
        n: 64,
        maxl: 4,
        refmax: 2,
        seed: 5,
        ..ClusterConfig::default()
    };
    let mut cluster = match storage {
        Some(spec) => SimCluster::spawn_with_storage(config, spec.clone()),
        None => SimCluster::spawn(config),
    };
    for _ in 0..8 {
        cluster.build(128);
    }
    assert!(cluster.avg_path_len() >= 3.5, "fixture failed to converge");
    cluster
}

/// Routes `count` inserts from item `first` on, each entering at a node
/// the cluster draws, and waits each batch of 64 out.
fn insert_custody(cluster: &mut SimCluster, first: u64, count: u64) {
    let mut rng = StdRng::seed_from_u64(first);
    for item in first..first + count {
        let entry = WireEntry {
            item,
            holder: PeerId((item % 64) as u32),
            version: 1,
        };
        cluster.insert(BitPath::random(&mut rng, 32), entry);
        if item % 64 == 63 {
            cluster.settle();
        }
    }
    cluster.settle();
}

/// Records in the 64 journals of `spec`.
fn journaled(spec: &StorageSpec) -> u64 {
    (0..64)
        .map(|slot| {
            let (dir, options) = spec.log_slot(slot).unwrap();
            AppendLog::open(dir, options).unwrap().records()
        })
        .sum()
}

/// Footprint gate on a live node's custody journal: the same seeded
/// inserts, with and without a log spec, differ in live heap by at most
/// 16 B per journaled record. The journal keeps a file handle and a few
/// counters, nothing per record: its leaf index is the resident copy.
/// A `LogBackend` journal, with an id map and a key set, kept ≈187 B.
#[test]
fn journaled_custody_holds_at_most_16_heap_bytes_per_record() {
    let dir = std::env::temp_dir().join(format!("pgrid-alloc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = StorageSpec::Log {
        dir: dir.clone(),
        options: LogOptions::default(),
    };
    let heap = |storage: Option<&StorageSpec>| {
        let mut cluster = custody_cluster(storage);
        // Warm-up: every node's first record opens its segment.
        insert_custody(&mut cluster, 0, 512);
        let before = storage.map_or(0, journaled);
        let (_, bytes) = measured(|| insert_custody(&mut cluster, 512, 2048));
        let records = storage.map_or(0, journaled) - before;
        cluster.shutdown();
        (bytes, records)
    };
    let (plain, _) = heap(None);
    let (journaling, records) = heap(Some(&spec));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(records >= 2048, "each insert is journaled: {records}");
    let per_record = (journaling - plain) as f64 / records as f64;
    assert!(
        per_record <= 16.0,
        "{per_record:.1} heap bytes per journaled record ({records} records)"
    );
}
