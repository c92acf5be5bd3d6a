//! Golden-transcript determinism tests: replay a recorded event sequence
//! through [`ProtocolPeer`] and byte-compare the Debug-formatted effect
//! log. The same seed must reproduce the log exactly; a different seed
//! must produce a different log (the sequence below forces enough
//! randomized decisions — a split bit, candidate shuffles over four
//! references — that a collision across seeds is practically impossible).

use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_proto::{Effect, Event, ProtoCtx, ProtocolPeer};
use pgrid_wire::WireEntry;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn path(s: &str) -> BitPath {
    BitPath::from_str_lossy(s)
}

/// The opening: a same-path offer, which the peer answers with a Case-1
/// split (randomized bit), and the partner's confirmation.
fn opening() -> Vec<Event> {
    vec![
        Event::OfferReceived {
            from: PeerId(1),
            id: 100,
            depth: 0,
            path: BitPath::EMPTY,
            level_refs: vec![(1, vec![PeerId(2), PeerId(3), PeerId(4), PeerId(5)])],
        },
        Event::ConfirmReceived {
            from: PeerId(1),
            path: path("0"),
        },
    ]
}

/// The rest of a fixed event sequence exercising every randomized decision
/// point: exchange case application (ref mixing shuffles), query routing
/// (candidate shuffles), insert forwarding, rehoming, and failure handling.
/// `own` is the peer's path after the split, so the next offer diverges
/// from it whichever bit the split drew.
fn after_split(own: BitPath) -> Vec<Event> {
    let e = |item| WireEntry {
        item,
        holder: PeerId(90),
        version: 1,
    };
    vec![
        // A diverging offer at the new level: ref mixing shuffles.
        Event::OfferReceived {
            from: PeerId(2),
            id: 101,
            depth: 0,
            path: own.sibling(),
            level_refs: vec![(1, vec![PeerId(3), PeerId(6), PeerId(7)])],
        },
        // Inserts: one stored, one forwarded through shuffled candidates.
        Event::InsertReceived {
            from: PeerId(3),
            seq: 200,
            key: path("00"),
            entry: e(1),
        },
        Event::InsertReceived {
            from: PeerId(3),
            seq: 201,
            key: path("11"),
            entry: e(2),
        },
        // Queries: one answered, one forwarded (candidate shuffle), one
        // duplicate (re-verdict from the dedup window).
        Event::QueryReceived {
            from: PeerId(4),
            id: 300,
            origin: PeerId(99),
            key: path("0"),
            matched: 0,
            ttl: 8,
        },
        Event::QueryReceived {
            from: PeerId(4),
            id: 301,
            origin: PeerId(99),
            key: path("1"),
            matched: 0,
            ttl: 8,
        },
        Event::QueryReceived {
            from: PeerId(4),
            id: 301,
            origin: PeerId(99),
            key: path("1"),
            matched: 0,
            ttl: 8,
        },
        // An orphaned insert: kept in custody, then re-homed by the next
        // event's anti-entropy pass (another candidate shuffle).
        Event::InsertDeadEnd {
            key: path("10"),
            entry: e(3),
        },
        Event::PeerHeard { peer: PeerId(2) },
        // Failure accounting up to an eviction.
        Event::PeerSuspected { peer: PeerId(5) },
        Event::PeerSuspected { peer: PeerId(5) },
        Event::PeerSuspected { peer: PeerId(5) },
        // A fresh meeting at the end: offer emission with a fresh xid.
        Event::Meet {
            with: PeerId(6),
            depth: 0,
        },
    ]
}

/// Replays the transcript through a fresh peer seeded with `seed`, handing
/// each event and its effects to `each`; returns the peer.
fn replay(seed: u64, mut each: impl FnMut(&Event, &[Effect])) -> ProtocolPeer {
    let mut peer = ProtocolPeer::new(PeerId(0), 4, 3, 2);
    peer.seed_sequence(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut tracer = pgrid_trace::NullTracer;
    let mut play = |peer: &mut ProtocolPeer, events: Vec<Event>| {
        for event in events {
            out.clear();
            peer.handle(
                event.clone(),
                &mut ProtoCtx {
                    rng: &mut rng,
                    tracer: &mut tracer,
                },
                &mut out,
            );
            each(&event, &out);
        }
    };
    play(&mut peer, opening());
    let own = peer.path;
    play(&mut peer, after_split(own));
    peer
}

/// The Debug-formatted effect log of a replay (one line per event).
fn effect_log(seed: u64) -> String {
    let mut log = String::new();
    replay(seed, |event, out| {
        log.push_str(&format!("{event:?} => {out:?}\n"))
    });
    log
}

#[test]
fn same_seed_replays_byte_identically() {
    for seed in [7u64, 20260805] {
        let a = effect_log(seed);
        let b = effect_log(seed);
        assert!(!a.is_empty());
        assert_eq!(a, b, "seed {seed}: replay diverged");
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The logs themselves, not only their repetition: a draw that moves, an
/// effect that changes or a reordered candidate list changes a digest.
#[test]
fn effect_logs_are_pinned() {
    for (seed, digest) in [
        (7u64, 0xf191_4d69_1435_e356),
        (20260805, 0x4413_761f_d634_4102),
    ] {
        assert_eq!(
            fnv1a(effect_log(seed).as_bytes()),
            digest,
            "seed {seed}: the effect log moved"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = effect_log(7);
    let b = effect_log(20260805);
    assert_ne!(
        a, b,
        "two seeds produced identical logs — randomized decisions are not\
         reaching the effect stream"
    );
}

#[test]
fn transcript_leaves_the_peer_structurally_valid() {
    let peer = replay(7, |_, _| {});
    peer.check().unwrap();
    assert_eq!(peer.path.len(), 1, "the Case-1 split specialized the peer");
}
