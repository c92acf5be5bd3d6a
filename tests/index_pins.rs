//! Pins of leaf-index and routing content. Existing pins see the index
//! only through query answers; these hash every peer's `(key, entries)` in
//! iteration order (key order, then insertion order within a key), or a
//! whole snapshot's JSON, so a change in the insert rule, an extraction,
//! the iteration order or a protocol draw moves a digest.
//!
//! * the engine: a seeded `InformationSystem` on the log store with
//!   publishes, updates, coarse keys and extra exchanges;
//! * the live protocol: seeded node shells on the virtual-clock transport,
//!   driven one operation at a time — inserts that start while peers are
//!   still splitting, so entries travel with extractions, and meeting
//!   rounds with queries between them for the routing state.

use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pgrid::core::{
    Ctx, GridSnapshot, IndexEntry, InformationSystem, PGridConfig, PeerSnapshot, SystemConfig,
};
use pgrid::keys::{BitPath, Key};
use pgrid::net::{AlwaysOnline, PeerId};
use pgrid::node::{NodeState, SimTransport, Transport};
use pgrid::store::{BackendKind, ItemId, StorageSpec, Version};
use pgrid::trace::NullTracer;
use pgrid::wire::{encode_frame, Message, WireEntry};
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

/// Peers hosted one by one on the virtual-clock transport, each on its own
/// seed, and a harness client driving one operation at a time: every
/// operation runs the network until no frame is due.
struct Rig {
    net: SimTransport,
    states: Vec<Arc<Mutex<NodeState>>>,
    client: Receiver<(PeerId, Message)>,
}

const CLIENT: PeerId = PeerId(u32::MAX - 1);

impl Rig {
    /// `n` peers (`maxl`, `refmax` 2, `recfanout` 2, `recmax` 2); peer `i`
    /// is seeded `seed(i)`.
    fn new(n: u32, maxl: usize, seed: impl Fn(u64) -> u64) -> Self {
        let net = SimTransport::new();
        let states = (0..n)
            .map(|i| {
                let mut peer = NodeState::new(PeerId(i), maxl, 2, 2);
                peer.recmax = 2;
                let state = Arc::new(Mutex::new(peer));
                net.host(
                    Arc::clone(&state),
                    seed(u64::from(i)),
                    None,
                    Box::new(NullTracer),
                );
                state
            })
            .collect();
        let client = net.open_client(CLIENT);
        Rig {
            net,
            states,
            client,
        }
    }

    fn meet(&self, a: u32, b: u32) {
        let frame = encode_frame(&Message::Meet { with: PeerId(b) });
        self.net.send_control(CLIENT, PeerId(a), frame);
        self.net.advance(Duration::ZERO);
    }

    fn insert(&self, at: u32, seq: u64, key: BitPath, entry: WireEntry) {
        let frame = encode_frame(&Message::IndexInsert { seq, key, entry });
        self.net.send(CLIENT, PeerId(at), frame);
        self.net.advance(Duration::ZERO);
    }

    /// Issues query `id` at peer `at` and acks every answer the moment it
    /// reaches the client.
    fn query(&self, at: u32, id: u64, key: BitPath, ttl: u16) {
        let query = Message::Query {
            id,
            origin: CLIENT,
            key,
            matched: 0,
            ttl,
        };
        self.net.send(CLIENT, PeerId(at), encode_frame(&query));
        let deadline = self.net.now() + Duration::from_secs(1);
        while let Some((from, msg)) = self.net.recv_client(&self.client, deadline) {
            if let Message::QueryOk { id: seq, .. } | Message::QueryFail { id: seq } = msg {
                self.net
                    .send(CLIENT, from, encode_frame(&Message::Ack { seq }));
                if seq == id {
                    break;
                }
            }
        }
        self.net.advance(Duration::ZERO);
    }

    fn peers(&self) -> Vec<NodeState> {
        self.states
            .iter()
            .map(|s| s.lock().unwrap().clone())
            .collect()
    }
}

/// 48 peers (`maxl` 4, `refmax` 2, `recmax` 2): inserts of 6-bit keys
/// interleave with meeting rounds from the first round on, so entries land
/// on root peers, ride splits and re-home through anti-entropy; items
/// repeat with newer, stale and other-holder entries.
#[test]
fn live_index_content_is_pinned() {
    const N: u32 = 48;
    let rig = Rig::new(N, 4, |i| 0x1eaf ^ (i << 24));
    let mut rng = StdRng::seed_from_u64(37);
    let mut seq = 0u64;
    for _ in 0..10 {
        for _ in 0..N {
            let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
            rig.meet(a, b);
        }
        for _ in 0..24 {
            let key = BitPath::random(&mut rng, 6);
            let entry = WireEntry {
                item: rng.gen_range(0..40),
                holder: PeerId(rng.gen_range(0..4)),
                version: rng.gen_range(0..3),
            };
            seq += 1;
            rig.insert(rng.gen_range(0..N), seq, key, entry);
        }
    }

    let mut h = Fnv::new();
    let (mut keys, mut entries, mut shared) = (0usize, 0usize, 0usize);
    for p in rig.peers() {
        h.word(u64::from(p.id.0));
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
    rig.net.shutdown();
    assert!(
        shared > 0,
        "the fixture must hold keys with several entries"
    );
    assert_eq!((keys, entries, shared), (125, 239, 59));
    assert_eq!(h.0, 0x4480_3d9b_28d9_c448);
}

/// The live protocol's routing state, pinned: 64 peers (`maxl` 5,
/// `refmax` 2, `recmax` 2) meet in seeded rounds with queries between
/// them, so route shuffles, Cases 1–4, the offer's level mix, adopted
/// levels and multi-id evictions all draw from the peers' streams before
/// the snapshot is taken.
#[test]
fn sim_snapshot_json_is_pinned() {
    const N: u32 = 64;
    const MAXL: usize = 5;
    let rig = Rig::new(N, MAXL, |i| 0x5eed ^ (i << 20));
    let mut rng = StdRng::seed_from_u64(36);
    let mut qid = 0;
    for _ in 0..8 {
        for _ in 0..N {
            let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
            rig.meet(a, b);
        }
        for _ in 0..16 {
            let key = (0..MAXL).fold(BitPath::EMPTY, |k, _| k.child(rng.gen_range(0..2)));
            qid += 1;
            rig.query(rng.gen_range(0..N), qid, key, 32);
        }
    }
    let peers = rig
        .peers()
        .into_iter()
        .map(|p| PeerSnapshot {
            id: p.id,
            path: p.path,
            refs: p.refs.clone(),
            index: p
                .index
                .iter()
                .map(|(k, entries)| {
                    let entries = entries.iter().map(|e| IndexEntry {
                        item: ItemId(e.item),
                        holder: e.holder,
                        version: Version(e.version),
                    });
                    (*k, entries.collect())
                })
                .collect(),
            buddies: p.buddies.clone(),
            hosted: Vec::new(),
            misplaced: p.misplaced,
        })
        .collect();
    rig.net.shutdown();
    let snap = GridSnapshot {
        config: PGridConfig {
            maxl: MAXL,
            refmax: 2,
            recmax: 2,
            recfanout: Some(2),
            ..PGridConfig::default()
        },
        peers,
    };
    let mut h = Fnv::new();
    h.bytes(snap.to_json().as_bytes());
    assert_eq!(h.0, 0xbe25_4443_812a_37ff);
}
