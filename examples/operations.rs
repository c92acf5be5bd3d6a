//! Day-2 operations tour: persist, crash, restore, lose peers, repair.
//!
//! A P-Grid someone actually runs needs more than construction and search:
//! this example walks the operational lifecycle using the persistence and
//! maintenance APIs.
//!
//! ```sh
//! cargo run --release --example operations
//! ```

use pgrid::core::{BuildOptions, Ctx, GridSnapshot, IndexEntry, PGrid, PGridConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, EpochOnline, NetStats, PeerId};
use pgrid::store::{DataItem, ItemId, StorageBackend, StorageSpec, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 800;
const MAXL: usize = 6;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut stats = NetStats::new();

    // --- 1. Build and index -------------------------------------------
    let mut grid = PGrid::new(
        N,
        PGridConfig {
            maxl: MAXL,
            refmax: 3,
            ..PGridConfig::default()
        },
    );
    {
        let mut online = AlwaysOnline;
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        let report = grid.build(&BuildOptions::default(), &mut ctx);
        println!(
            "built: {} peers, avg depth {:.2}, {} exchanges",
            N, report.avg_path_len, report.exchange_calls
        );
    }
    for i in 0..50u64 {
        let key = BitPath::random(&mut rng, 12);
        grid.seed_index(
            key,
            IndexEntry {
                item: ItemId(i),
                holder: PeerId((i % N as u64) as u32),
                version: Version::INITIAL,
            },
        );
    }

    // --- 2. Snapshot the whole community to JSON -----------------------
    let snapshot = GridSnapshot::capture(&grid);
    let json = snapshot.to_json();
    let path = std::env::temp_dir().join("pgrid-operations-demo.json");
    std::fs::write(&path, &json).expect("write snapshot");
    println!(
        "snapshot: {} bytes to {} ({} peers, config maxl={})",
        json.len(),
        path.display(),
        snapshot.peers.len(),
        snapshot.config.maxl
    );

    // --- 3. "Crash" and restore ----------------------------------------
    drop(grid);
    let restored_json = std::fs::read_to_string(&path).expect("read snapshot");
    let mut grid = GridSnapshot::from_json(&restored_json)
        .expect("parse")
        .restore()
        .expect("restore");
    grid.check_invariants().expect("restored grid is valid");
    println!(
        "restored: invariants hold, {} peers back online",
        grid.len()
    );

    // --- 4. A peer's own items survive in its log-structured backend -----
    let store_dir = std::env::temp_dir().join("pgrid-operations-demo.store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let spec = StorageSpec::Log {
        dir: store_dir.clone(),
        options: Default::default(),
    };
    {
        let mut durable = spec.open_for(0).expect("open log backend");
        for i in 0..10u64 {
            durable.put(DataItem::new(
                ItemId(i),
                format!("local-{i}.dat"),
                BitPath::random(&mut rng, 12),
            ));
        }
        durable.apply_version(ItemId(3), Version(2));
        durable.flush().expect("flush log backend");
    } // process "dies" here
    let recovered = spec.open_for(0).expect("recover log backend");
    println!(
        "log recovery: {} items recovered, item#3 at {}",
        recovered.len(),
        recovered.get(ItemId(3)).unwrap().version
    );

    // --- 5. Mass failure, then self-repair ------------------------------
    let mut online = EpochOnline::new(N, 1.0);
    for i in (0..N).step_by(2) {
        online.set_online(PeerId::from_index(i), false);
    }
    let rate_before = measure(&grid, &mut online, &mut rng, &mut stats);
    let report = {
        let mut ctx = Ctx::new(&mut rng, &mut online, &mut stats);
        grid.repair_round(3, &mut ctx)
    };
    let rate_after = measure(&grid, &mut online, &mut rng, &mut stats);
    println!(
        "repair after losing 50% of peers: success {rate_before:.3} -> {rate_after:.3} \
         ({} refs pruned, {} re-learned)",
        report.removed, report.added
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}

fn measure(grid: &PGrid, online: &mut EpochOnline, rng: &mut StdRng, stats: &mut NetStats) -> f64 {
    let mut ctx = Ctx::new(rng, online, stats);
    let mut hits = 0usize;
    let mut issued = 0usize;
    while issued < 300 {
        let start = grid.random_peer(&mut ctx);
        if !ctx.online.is_online(start, ctx.rng) {
            continue;
        }
        issued += 1;
        let key = BitPath::random(ctx.rng, MAXL as u8);
        if grid.search(start, &key, &mut ctx).responsible.is_some() {
            hits += 1;
        }
    }
    hits as f64 / 300.0
}
