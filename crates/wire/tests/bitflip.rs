//! Fuzz-style corruption regression: no bit pattern reachable by flipping
//! bits of a valid frame may panic the decoder. The live node feeds every
//! received frame through `decode_frame` and must survive arbitrary
//! corruption by counting it as malformed and dropping it — which is only
//! possible if the decoder itself is total (returns `Ok`/`Err`, never
//! panics, never over-allocates on a corrupt length).

use bytes::BytesMut;
use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_wire::{decode_frame, encode_frame, Message, WireEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn path(s: &str) -> BitPath {
    BitPath::from_str_lossy(s)
}

fn entry(item: u64) -> WireEntry {
    WireEntry {
        item,
        holder: PeerId(7),
        version: 3,
    }
}

/// One representative frame per variant, biased toward the field-rich ones
/// (paths, collections, varints near boundaries).
fn corpus() -> Vec<Message> {
    vec![
        Message::Ping { nonce: 0 },
        Message::Pong { nonce: u64::MAX },
        Message::Query {
            id: 1 << 63,
            origin: PeerId(1),
            key: path("011011"),
            matched: 3,
            ttl: 16,
        },
        Message::QueryOk {
            id: 11,
            responsible: PeerId(2),
            entries: vec![entry(1), entry(2), entry(3)],
        },
        Message::QueryFail { id: 127 },
        Message::ExchangeOffer {
            id: 128,
            depth: 2,
            path: path("0101"),
            level_refs: vec![
                (1, vec![PeerId(3), PeerId(4)]),
                (2, vec![]),
                (3, vec![PeerId(9)]),
            ],
        },
        Message::ExchangeAnswer {
            id: 16_384,
            responder_path: path("10"),
            take_bit: Some(1),
            adopt_refs: vec![(1, vec![PeerId(5)])],
            recurse_with: vec![PeerId(6), PeerId(8)],
        },
        Message::ExchangeConfirm {
            id: 3,
            path: path("110"),
        },
        Message::IndexInsert {
            seq: 999,
            key: path("0011"),
            entry: entry(4),
        },
        Message::Meet { with: PeerId(12) },
        Message::Shutdown,
        Message::Ack { seq: 17 },
        Message::Nack { seq: 18 },
    ]
}

/// Decoding must terminate without panicking, whatever it returns. A
/// corrupted length prefix may also legitimately yield `Ok(None)` (the
/// decoder waits for the rest of a frame that will never come — the node's
/// reassembly buffer cap handles that case).
fn assert_total(bytes: &[u8]) {
    let mut buf = BytesMut::from(bytes);
    let _ = decode_frame(&mut buf);
}

#[test]
fn every_single_bit_flip_decodes_or_errors() {
    for message in corpus() {
        let frame = encode_frame(&message);
        for byte_idx in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupted = frame.to_vec();
                corrupted[byte_idx] ^= 1 << bit;
                assert_total(&corrupted);
            }
        }
        // Sanity: the unflipped frame still round-trips.
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(message));
    }
}

#[test]
fn every_truncation_decodes_or_errors() {
    for message in corpus() {
        let frame = encode_frame(&message);
        for len in 0..frame.len() {
            assert_total(&frame[..len]);
        }
    }
}

/// Multi-bit corruption: flip a random set of bits across a random corpus
/// frame, including the length prefix. Case `c` draws from seed `c`.
#[test]
fn random_bit_flips_never_panic() {
    let corpus = corpus();
    for case in 0..256 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut corrupted = encode_frame(&corpus[rng.gen_range(0..corpus.len())]).to_vec();
        for _ in 0..rng.gen_range(1..24) {
            let idx = rng.gen_range(0..corrupted.len());
            corrupted[idx] ^= 1u8 << rng.gen_range(0..8);
        }
        assert_total(&corrupted);
    }
}

/// Pure garbage (not derived from any valid frame) must also be safe.
#[test]
fn arbitrary_bytes_never_panic() {
    for case in 0..256 {
        let mut rng = StdRng::seed_from_u64(case);
        let bytes: Vec<u8> = (0..rng.gen_range(0..200)).map(|_| rng.gen()).collect();
        assert_total(&bytes);
    }
}
