//! Cross-layer pins for the pluggable storage backends (ISSUE 9): under
//! one seed, the choice of backend must be invisible to everything above
//! the [`pgrid::store::StorageBackend`] seam — grid construction, the
//! publish/lookup/fetch workload, message counters, and snapshot JSON are
//! byte-identical whether hosted items live in RAM, a record file, or
//! log-structured segments. Disk-backed communities additionally survive a
//! process "restart" (drop + reopen) with their hosted sets intact.

use std::path::PathBuf;

use pgrid::core::{Ctx, GridSnapshot, InformationSystem, PGrid, PGridConfig, SystemConfig};
use pgrid::keys::BitPath;
use pgrid::net::{AlwaysOnline, PeerId};
use pgrid::store::{BackendKind, DataItem, ItemId, StorageSpec};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgrid-ws-storage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One full workload under `spec`; returns everything an equivalence
/// check needs, serialized to bytes.
fn run_workload(spec: &StorageSpec, seed: u64) -> (String, String, Vec<Option<Vec<u8>>>) {
    let mut owned = Ctx::fork_for_task(seed, 0, Box::new(AlwaysOnline));
    let mut ctx = owned.ctx();
    let sys_cfg = SystemConfig {
        grid: PGridConfig {
            maxl: 4,
            refmax: 3,
            ..PGridConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = InformationSystem::bootstrap_with_storage(96, sys_cfg, spec, &mut ctx);
    for i in 0..200usize {
        let publisher = PeerId((i % 96) as u32);
        sys.publish(
            publisher,
            &format!("doc-{i}"),
            vec![(i % 251) as u8; 32],
            &mut ctx,
        );
    }
    let mut fetched = Vec::new();
    for i in 0..60usize {
        let name = format!("doc-{}", (i * 13) % 200);
        let hit = sys.lookup(&name, &mut ctx);
        fetched.push(hit.and_then(|h| sys.fetch(&h, &mut ctx)));
    }
    drop(ctx);
    let snapshot = GridSnapshot::capture(sys.grid()).to_json();
    let counters = format!("{:?}", owned.stats);
    (snapshot, counters, fetched)
}

#[test]
fn all_backends_produce_byte_identical_communities() {
    let dir = fresh_dir("equiv");
    let reference = run_workload(&StorageSpec::Memory, 0xb9);
    for kind in [BackendKind::HashFile, BackendKind::Log] {
        let spec = StorageSpec::of_kind(kind, dir.join(kind.name()));
        let got = run_workload(&spec, 0xb9);
        assert_eq!(
            got.0, reference.0,
            "{kind} snapshot JSON diverged from the memory backend"
        );
        assert_eq!(got.1, reference.1, "{kind} message counters diverged");
        assert_eq!(got.2, reference.2, "{kind} fetch results diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_backend_same_seed_is_deterministic_across_runs() {
    let dir = fresh_dir("rerun");
    for kind in BackendKind::ALL {
        let a = run_workload(&StorageSpec::of_kind(kind, dir.join("a")), 7);
        let _ = std::fs::remove_dir_all(dir.join("a"));
        let b = run_workload(&StorageSpec::of_kind(kind, dir.join("a")), 7);
        let _ = std::fs::remove_dir_all(dir.join("a"));
        assert_eq!(a.0, b.0, "{kind}: reruns must be byte-identical");
        assert_eq!(a.1, b.1, "{kind}: counters must be byte-identical");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Disk-backed peers keep their hosted items across a drop + reopen of the
/// whole community, and `index_hosted_under` re-derives their leaf index
/// entries from the recovered backends.
#[test]
fn disk_backed_peers_survive_reopen_and_reindex() {
    for kind in [BackendKind::HashFile, BackendKind::Log] {
        let dir = fresh_dir(kind.name());
        let spec = StorageSpec::of_kind(kind, &dir);
        let cfg = PGridConfig {
            maxl: 3,
            refmax: 3,
            ..PGridConfig::default()
        };
        // First life: host a few items directly at their peers.
        let hosted: Vec<(PeerId, DataItem)> = (0..24u64)
            .map(|i| {
                let peer = PeerId((i % 16) as u32);
                let key = BitPath::from_value(u128::from(i % 8), 3);
                (
                    peer,
                    DataItem::with_payload(ItemId(i), format!("it-{i}"), key, vec![i as u8; 10]),
                )
            })
            .collect();
        {
            let mut grid = PGrid::with_storage(16, cfg, &spec).unwrap();
            for (peer, item) in &hosted {
                grid.peer_mut(*peer).store_mut().insert(item.clone());
            }
            for id in 0..16 {
                grid.peer_mut(PeerId(id)).store_mut().flush().unwrap();
            }
        } // community "process" exits here
          // Second life: reopen the same directories.
        let mut grid = PGrid::with_storage(16, cfg, &spec).unwrap();
        for (peer, item) in &hosted {
            let got = grid
                .peer(*peer)
                .store()
                .get(item.id)
                .unwrap_or_else(|| panic!("{kind}: item {} lost on reopen", item.id.0));
            assert_eq!(&got, item, "{kind}: payload must survive verbatim");
        }
        // Re-derive index entries from the recovered stores: every peer is
        // still at the root, so everything it hosts is under its path.
        for id in 0..16u32 {
            let peer = grid.peer_mut(PeerId(id));
            let expect = peer.store().len();
            assert_eq!(peer.index_hosted_under(), expect);
            // Peers 0–7 host two items under one key: count entries, not keys.
            let entries: usize = peer.index().iter().map(|(_, e)| e.len()).sum();
            assert_eq!(entries, expect);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A peer snapshot round-trips hosted items regardless of backend, so the
/// JSON persistence layer sees one logical format.
#[test]
fn snapshot_round_trips_hosted_items_from_any_backend() {
    let dir = fresh_dir("snap");
    for kind in BackendKind::ALL {
        let spec = StorageSpec::of_kind(kind, dir.join(kind.name()));
        let cfg = PGridConfig {
            maxl: 3,
            refmax: 3,
            ..PGridConfig::default()
        };
        let mut grid = PGrid::with_storage(8, cfg, &spec).unwrap();
        for i in 0..12u64 {
            grid.peer_mut(PeerId((i % 8) as u32))
                .store_mut()
                .insert(DataItem::with_payload(
                    ItemId(i),
                    format!("n{i}"),
                    BitPath::from_value(u128::from(i), 3),
                    vec![0xcd; 5],
                ));
        }
        let snap = GridSnapshot::capture(&grid);
        let restored = GridSnapshot::from_json(&snap.to_json())
            .unwrap()
            .restore()
            .unwrap();
        for (a, b) in grid.peers().zip(restored.peers()) {
            let mut x = Vec::new();
            a.store().for_each(&mut |it| x.push(it));
            let mut y = Vec::new();
            b.store().for_each(&mut |it| y.push(it));
            assert_eq!(x, y, "{kind}: hosted items must round-trip");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log-backed grid touches the disk only for peers that host an item:
/// opening it creates nothing, each hosting peer creates its own
/// `peer-<slot>` directory, and reopening the spec recovers every item
/// while the other peers' stores stay empty.
#[test]
fn log_store_directories_exist_only_for_hosting_peers() {
    let cfg = PGridConfig {
        maxl: 3,
        refmax: 3,
        ..PGridConfig::default()
    };
    for (peers, hosts) in [(64, 8), (2048, 256)] {
        let base = fresh_dir(&format!("lazy-{peers}"));
        let root = base.join("stores");
        let spec = StorageSpec::of_kind(BackendKind::Log, &root);
        let stride = peers / hosts;
        let hosted = |slot: usize| -> Vec<DataItem> {
            if !slot.is_multiple_of(stride) {
                return Vec::new();
            }
            (0..3u64)
                .map(|j| {
                    let id = slot as u64 * 3 + j;
                    let key = BitPath::from_value(u128::from(j), 3);
                    DataItem::with_payload(ItemId(id), format!("it-{id}"), key, vec![j as u8; 8])
                })
                .collect()
        };
        {
            let mut grid = PGrid::with_storage(peers, cfg, &spec).unwrap();
            assert!(!root.exists(), "{peers} peers: opening creates nothing");
            for slot in 0..peers {
                let store = grid.peer_mut(PeerId::from_index(slot)).store_mut();
                for item in hosted(slot) {
                    store.insert(item);
                }
                store.flush().unwrap();
            }
        }
        let dirs = std::fs::read_dir(&root)
            .unwrap()
            .filter(|e| {
                let e = e.as_ref().unwrap();
                e.file_type().unwrap().is_dir()
                    && e.file_name().to_string_lossy().starts_with("peer-")
            })
            .count();
        assert_eq!(dirs, hosts, "{peers} peers: one directory per hosting peer");
        let grid = PGrid::with_storage(peers, cfg, &spec).unwrap();
        for slot in 0..peers {
            let mut got = Vec::new();
            grid.peer(PeerId::from_index(slot))
                .store()
                .for_each(&mut |item| got.push(item));
            assert_eq!(got, hosted(slot), "{peers} peers: slot {slot} after reopen");
        }
        drop(grid);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
