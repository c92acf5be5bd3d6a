//! Pins of leaf-index content. Existing pins see the index only through
//! snapshot JSON or query answers; these hash every peer's `(key, entries)`
//! in iteration order (key order, then insertion order within a key), so a
//! change in the insert rule, an extraction or the iteration order moves a
//! digest.
//!
//! * the engine: a seeded `InformationSystem` on the log store with
//!   publishes, updates, coarse keys and extra exchanges;
//! * the live protocol: a seeded `SimNet` run whose inserts start while
//!   peers are still splitting, so entries travel with extractions.

use std::path::PathBuf;

use pgrid::core::{Ctx, IndexEntry, InformationSystem, PGridConfig, SystemConfig};
use pgrid::keys::{BitPath, Key};
use pgrid::net::{AlwaysOnline, PeerId};
use pgrid::proto::{ProtocolPeer, SimNet};
use pgrid::store::{BackendKind, ItemId, StorageSpec, Version};
use pgrid::wire::WireEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn key(&mut self, key: &Key) {
        self.bytes(&key.raw_bits().to_le_bytes());
        self.word(key.len() as u64);
    }

    fn entry(&mut self, item: u64, holder: PeerId, version: u64) {
        self.word(item);
        self.word(u64::from(holder.0));
        self.word(version);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgrid-index-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 64 peers on the log store, 6-bit keys so names collide: keys with
/// several holders, newer and stale versions, 2-bit keys coarser than the
/// paths, then exchanges that move entries between partners.
#[test]
fn engine_index_content_is_pinned() {
    let dir = fresh_dir("engine");
    let mut owned = Ctx::fork_for_task(37, 0, Box::new(AlwaysOnline));
    let mut ctx = owned.ctx();
    let config = SystemConfig {
        grid: PGridConfig {
            maxl: 4,
            refmax: 3,
            ..PGridConfig::default()
        },
        key_len: 6,
        ..SystemConfig::default()
    };
    let spec = StorageSpec::of_kind(BackendKind::Log, &dir);
    let mut sys = InformationSystem::bootstrap_with_storage(64, config, &spec, &mut ctx);
    let mut rng = StdRng::seed_from_u64(37);
    let mut published = Vec::new();
    for i in 0..240u32 {
        let name = format!("doc-{}", i % 160);
        let publisher = PeerId(rng.gen_range(0..64));
        let (item, _) = sys.publish(publisher, &name, vec![i as u8; 8], &mut ctx);
        published.push((name, item));
    }
    for (round, (name, item)) in published.iter().enumerate().step_by(3) {
        let version = Version(1 + (round % 4) as u64);
        sys.update(name, *item, version, &mut ctx);
    }
    for i in 0..24u64 {
        let key = BitPath::random(&mut rng, 2);
        let entry = IndexEntry {
            item: ItemId(1_000 + i % 6),
            holder: PeerId(rng.gen_range(0..64)),
            version: Version(i % 3),
        };
        sys.grid_mut().seed_index(key, entry);
    }
    for _ in 0..2_000 {
        let (a, b) = sys.grid().random_pair(&mut ctx);
        sys.grid_mut().exchange(a, b, &mut ctx);
    }

    let mut h = Fnv::new();
    let (mut keys, mut entries, mut shared) = (0usize, 0usize, 0usize);
    for p in sys.grid().peers() {
        h.word(u64::from(p.id().0));
        h.word(p.index().len() as u64);
        p.index().for_each_under(&BitPath::EMPTY, |key, slot| {
            h.key(&key);
            h.word(slot.len() as u64);
            for e in slot.iter() {
                h.entry(e.item.0, e.holder, e.version.0);
            }
            keys += 1;
            entries += slot.len();
            shared += usize::from(slot.len() > 1);
        });
    }
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        shared > 0,
        "the fixture must hold keys with several entries"
    );
    assert_eq!((keys, entries, shared), (296, 1223, 254));
    assert_eq!(h.0, 0x2bb6_e39e_aedc_725b);
}

/// 48 `SimNet` peers (`maxl` 4, `refmax` 2, `recmax` 2): inserts of 6-bit
/// keys interleave with meeting rounds from the first round on, so entries
/// land on root peers, ride splits and re-home through anti-entropy; items
/// repeat with newer, stale and other-holder entries.
#[test]
fn live_index_content_is_pinned() {
    const N: u32 = 48;
    let mut net = SimNet::new(PeerId(u32::MAX - 1));
    for i in 0..N {
        let mut peer = ProtocolPeer::new(PeerId(i), 4, 2, 2);
        peer.recmax = 2;
        net.add_peer(peer, 0x1eaf ^ (u64::from(i) << 24));
    }
    let mut rng = StdRng::seed_from_u64(37);
    let mut seq = 0u64;
    for _ in 0..10 {
        for _ in 0..N {
            let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
            net.meet(PeerId(a), PeerId(b));
        }
        for _ in 0..24 {
            let key = BitPath::random(&mut rng, 6);
            let entry = WireEntry {
                item: rng.gen_range(0..40),
                holder: PeerId(rng.gen_range(0..4)),
                version: rng.gen_range(0..3),
            };
            seq += 1;
            net.insert(PeerId(rng.gen_range(0..N)), seq, key, entry);
        }
    }

    let mut h = Fnv::new();
    let (mut keys, mut entries, mut shared) = (0usize, 0usize, 0usize);
    for id in net.peer_ids() {
        let p = net.peer(id);
        h.word(u64::from(id.0));
        h.word(p.index.len() as u64);
        for (key, slot) in p.index.iter() {
            h.key(key);
            h.word(slot.len() as u64);
            for e in slot.iter() {
                h.entry(e.item, e.holder, e.version);
            }
            keys += 1;
            entries += slot.len();
            shared += usize::from(slot.len() > 1);
        }
    }
    assert!(
        shared > 0,
        "the fixture must hold keys with several entries"
    );
    assert_eq!((keys, entries, shared), (125, 239, 59));
    assert_eq!(h.0, 0x4480_3d9b_28d9_c448);
}
