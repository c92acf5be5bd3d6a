//! Incremental-feed decoding: `decode_frame` under torn, byte-at-a-time
//! delivery.
//!
//! Nonblocking socket reads make partial frames the *common* case: a
//! readiness event may deliver one byte of a length prefix, half a varint,
//! or two frames plus the head of a third. These tests split every golden
//! frame at **all** byte boundaries and assert the decoder's contract:
//!
//! * `Ok(None)` for every strict prefix, with the buffer left untouched
//!   (no partial consumption that would corrupt later reassembly);
//! * a decode identical to the one-shot decode once the last byte lands;
//! * the same holds feeding one byte at a time, and for concatenated
//!   frame streams split at arbitrary points.

use bytes::BytesMut;
use pgrid_keys::BitPath;
use pgrid_net::PeerId;
use pgrid_wire::{decode_frame, encode_frame, CodecError, Message, WireEntry, MAX_FRAME_LEN};

fn path(s: &str) -> BitPath {
    BitPath::from_str_lossy(s)
}

/// One golden message per wire tag (13 tags, 0–12), with non-trivial
/// field values so varints span multiple bytes and collections nest.
fn golden_messages() -> Vec<Message> {
    vec![
        Message::Ping { nonce: 300 },      // tag 0, 2-byte varint
        Message::Pong { nonce: u64::MAX }, // tag 1, 10-byte varint
        Message::Query {
            id: 1 << 40,
            origin: PeerId(7),
            key: path("011010011"),
            matched: 4,
            ttl: 32,
        }, // tag 2
        Message::QueryOk {
            id: 129,
            responsible: PeerId(9),
            entries: vec![
                WireEntry {
                    item: 1,
                    holder: PeerId(2),
                    version: 0,
                },
                WireEntry {
                    item: u64::MAX,
                    holder: PeerId(u32::MAX),
                    version: 1 << 33,
                },
            ],
        }, // tag 3
        Message::QueryFail { id: 77 },     // tag 4
        Message::ExchangeOffer {
            id: 5,
            depth: 2,
            path: path("0101"),
            level_refs: vec![(1, vec![PeerId(1), PeerId(2)]), (4, vec![])],
        }, // tag 5
        Message::ExchangeAnswer {
            id: 1 << 21,
            responder_path: path("01011"),
            take_bit: Some(1),
            adopt_refs: vec![(2, vec![PeerId(8)])],
            recurse_with: vec![PeerId(1), PeerId(4)],
        }, // tag 6
        Message::IndexInsert {
            seq: 41,
            key: BitPath::from_raw(u128::MAX, 128),
            entry: WireEntry {
                item: 9,
                holder: PeerId(1),
                version: 2,
            },
        }, // tag 7, maximal path
        Message::Shutdown,                 // tag 8, empty payload
        Message::Meet { with: PeerId(17) }, // tag 9
        Message::ExchangeConfirm {
            id: 12,
            path: path("0101"),
        }, // tag 10
        Message::Ack { seq: 1 << 14 },     // tag 11
        Message::Nack { seq: 7 },          // tag 12
    ]
}

/// The reference decode: the whole frame at once.
fn one_shot(frame: &[u8]) -> Message {
    let mut buf = BytesMut::from(frame);
    let msg = decode_frame(&mut buf)
        .expect("golden frame decodes")
        .unwrap();
    assert!(buf.is_empty(), "one-shot decode must drain the frame");
    msg
}

#[test]
fn every_split_boundary_decodes_identically() {
    for msg in golden_messages() {
        let frame = encode_frame(&msg);
        let expect = one_shot(&frame);
        for split in 0..=frame.len() {
            let mut buf = BytesMut::new();
            buf.extend_from_slice(&frame[..split]);
            if split < frame.len() {
                let got = decode_frame(&mut buf)
                    .unwrap_or_else(|e| panic!("prefix of {split} bytes errored for {msg:?}: {e}"));
                assert!(
                    got.is_none(),
                    "premature decode at split {split} of {msg:?}"
                );
                assert_eq!(
                    buf.len(),
                    split,
                    "incomplete decode consumed bytes at split {split} of {msg:?}"
                );
            }
            buf.extend_from_slice(&frame[split..]);
            let got = decode_frame(&mut buf).unwrap().unwrap();
            assert_eq!(got, expect, "split {split} diverged for {msg:?}");
            assert!(buf.is_empty(), "split {split} left residue for {msg:?}");
        }
    }
}

#[test]
fn one_byte_at_a_time_decodes_identically() {
    for msg in golden_messages() {
        let frame = encode_frame(&msg);
        let expect = one_shot(&frame);
        let mut buf = BytesMut::new();
        for (i, b) in frame.iter().enumerate() {
            buf.extend_from_slice(&[*b]);
            let got = decode_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "premature decode at byte {i} of {msg:?}");
                assert_eq!(buf.len(), i + 1, "byte {i} of {msg:?} was consumed early");
            } else {
                assert_eq!(got, Some(expect.clone()), "final byte of {msg:?}");
                assert!(buf.is_empty());
            }
        }
    }
}

/// A concatenated stream of all golden frames, torn at every boundary of
/// the *combined* byte string: the decoder must emit exactly the original
/// message sequence regardless of where the tears fall.
#[test]
fn concatenated_stream_survives_any_tear() {
    let messages = golden_messages();
    let mut stream = Vec::new();
    for m in &messages {
        stream.extend_from_slice(&encode_frame(m));
    }
    // Tear the stream into two segments at every boundary.
    for split in 0..=stream.len() {
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for segment in [&stream[..split], &stream[split..]] {
            buf.extend_from_slice(segment);
            while let Some(m) = decode_frame(&mut buf).unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, messages, "tear at byte {split}");
        assert!(buf.is_empty(), "tear at byte {split} left residue");
    }
}

/// Feeding the stream in fixed-size chunks (1, 2, 3, 5, 7 bytes) — the
/// shapes a nonblocking read loop actually produces.
#[test]
fn chunked_stream_decodes_in_order() {
    let messages = golden_messages();
    let mut stream = Vec::new();
    for m in &messages {
        stream.extend_from_slice(&encode_frame(m));
    }
    for chunk in [1usize, 2, 3, 5, 7] {
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            buf.extend_from_slice(piece);
            while let Some(m) = decode_frame(&mut buf).unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, messages, "chunk size {chunk}");
        assert!(buf.is_empty());
    }
}

/// A hostile length prefix is rejected from the header alone — before the
/// receiver buffers a single payload byte, and even when the header itself
/// arrives one byte at a time.
#[test]
fn oversized_header_rejected_even_fed_bytewise() {
    let header = ((MAX_FRAME_LEN as u32) + 1).to_le_bytes();
    let mut buf = BytesMut::new();
    for (i, b) in header.iter().enumerate() {
        buf.extend_from_slice(&[*b]);
        let res = decode_frame(&mut buf);
        if i + 1 < header.len() {
            assert_eq!(res, Ok(None), "header byte {i}");
        } else {
            assert_eq!(
                res,
                Err(CodecError::FrameTooLarge(MAX_FRAME_LEN as u32 + 1))
            );
        }
    }
}

/// Decoding must be stateless across calls on the same buffer: repeatedly
/// poking an incomplete buffer neither consumes bytes nor changes the
/// eventual result.
#[test]
fn repeated_polls_on_incomplete_buffer_are_idempotent() {
    let frame = encode_frame(&Message::Ping { nonce: 300 });
    let cut = frame.len() - 1;
    let mut buf = BytesMut::new();
    buf.extend_from_slice(&frame[..cut]);
    for _ in 0..100 {
        assert_eq!(decode_frame(&mut buf), Ok(None));
        assert_eq!(buf.len(), cut);
    }
    buf.extend_from_slice(&frame[cut..]);
    assert_eq!(
        decode_frame(&mut buf),
        Ok(Some(Message::Ping { nonce: 300 }))
    );
}
