//! Frame encoding and decoding.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pgrid_keys::BitPath;
use pgrid_net::PeerId;

use crate::{read_varint, write_varint, Message, WireEntry};

/// Decoding failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended mid-value.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A varint used more bytes than its value needs (non-canonical
    /// encoding). Rejected so every value has exactly one wire form —
    /// otherwise dedup-by-bytes and trace byte-identity could be defeated
    /// by re-encoding.
    VarintOverlong,
    /// Unknown message tag.
    UnknownTag(u8),
    /// A bit-path length byte exceeded 128.
    BadPathLength(u8),
    /// A declared collection length is implausibly large for the frame.
    BadCollectionLength(u64),
    /// A frame header declared a payload larger than [`MAX_FRAME_LEN`].
    /// Rejected from the 4-byte header alone, before any buffering — a
    /// hostile or corrupt length prefix must not make a streaming receiver
    /// accumulate gigabytes waiting for a frame that never completes.
    FrameTooLarge(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::VarintOverlong => write!(f, "varint encoding is non-canonical"),
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadPathLength(l) => write!(f, "bit-path length {l} exceeds 128"),
            CodecError::BadCollectionLength(l) => write!(f, "collection length {l} implausible"),
            CodecError::FrameTooLarge(l) => write!(
                f,
                "frame payload length {l} exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Hard cap on collection lengths: nothing in the protocol legitimately
/// ships more than this many elements in one message.
const MAX_COLLECTION: u64 = 1 << 20;

/// Hard cap on a frame's declared payload length (64 MiB). The largest
/// legitimate message — a `MAX_COLLECTION`-entry `QueryOk` with maximal
/// varints — stays well under this, while a corrupt or hostile length
/// prefix can otherwise declare up to 4 GiB and pin a streaming receiver's
/// accumulator. [`decode_frame`] enforces it from the header alone.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Validates a declared collection length against the absolute cap **and**
/// the bytes actually left in the payload: every element occupies at least
/// `min_elem_bytes` on the wire, so a count the remainder cannot possibly
/// hold is corruption. Checking here keeps a corrupt 20-byte frame from
/// pre-allocating megabytes via `Vec::with_capacity`.
fn checked_len(n: u64, buf: &Bytes, min_elem_bytes: usize) -> Result<usize, CodecError> {
    if n > MAX_COLLECTION {
        return Err(CodecError::BadCollectionLength(n));
    }
    let n = n as usize;
    if n.saturating_mul(min_elem_bytes) > buf.remaining() {
        return Err(CodecError::BadCollectionLength(n as u64));
    }
    Ok(n)
}

/// Encodes `message` as one length-prefixed frame.
pub fn encode_frame(message: &Message) -> Bytes {
    let mut payload = BytesMut::with_capacity(64);
    payload.put_u8(message.tag());
    match message {
        Message::Ping { nonce } | Message::Pong { nonce } => {
            write_varint(&mut payload, *nonce);
        }
        Message::Query {
            id,
            origin,
            key,
            matched,
            ttl,
        } => {
            write_varint(&mut payload, *id);
            put_peer(&mut payload, *origin);
            put_path(&mut payload, key);
            payload.put_u16_le(*matched);
            payload.put_u16_le(*ttl);
        }
        Message::QueryOk {
            id,
            responsible,
            entries,
        } => {
            write_varint(&mut payload, *id);
            put_peer(&mut payload, *responsible);
            write_varint(&mut payload, entries.len() as u64);
            for e in entries {
                put_entry(&mut payload, e);
            }
        }
        Message::QueryFail { id } => {
            write_varint(&mut payload, *id);
        }
        Message::ExchangeOffer {
            id,
            depth,
            path,
            level_refs,
        } => {
            write_varint(&mut payload, *id);
            payload.put_u8(*depth);
            put_path(&mut payload, path);
            put_level_refs(&mut payload, level_refs);
        }
        Message::ExchangeAnswer {
            id,
            responder_path,
            take_bit,
            adopt_refs,
            recurse_with,
        } => {
            write_varint(&mut payload, *id);
            put_path(&mut payload, responder_path);
            match take_bit {
                None => payload.put_u8(0xff),
                Some(b) => payload.put_u8(*b),
            }
            put_level_refs(&mut payload, adopt_refs);
            write_varint(&mut payload, recurse_with.len() as u64);
            for p in recurse_with {
                put_peer(&mut payload, *p);
            }
        }
        Message::IndexInsert { seq, key, entry } => {
            write_varint(&mut payload, *seq);
            put_path(&mut payload, key);
            put_entry(&mut payload, entry);
        }
        Message::Shutdown => {}
        Message::Ack { seq } | Message::Nack { seq } => {
            write_varint(&mut payload, *seq);
        }
        Message::Meet { with } => {
            put_peer(&mut payload, *with);
        }
        Message::ExchangeConfirm { id, path } => {
            write_varint(&mut payload, *id);
            put_path(&mut payload, path);
        }
    }
    let mut frame = BytesMut::with_capacity(4 + payload.len());
    frame.put_u32_le(payload.len() as u32);
    frame.extend_from_slice(&payload);
    frame.freeze()
}

/// Decodes one frame from the front of `buf`. Returns `Ok(None)` when the
/// buffer does not yet hold a complete frame (streaming reassembly).
///
/// A header declaring a payload over [`MAX_FRAME_LEN`] is rejected
/// immediately — the receiver must not buffer toward an impossible length.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Option<Message>, CodecError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let declared = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let len = declared as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(declared));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let mut payload = buf.split_to(len).freeze();
    let message = decode_payload(&mut payload)?;
    if payload.has_remaining() {
        // Trailing garbage means the sender and receiver disagree on the
        // schema — treat as corruption.
        return Err(CodecError::Truncated);
    }
    Ok(Some(message))
}

/// Decodes `frame`, which must hold exactly one complete frame as
/// [`encode_frame`] writes it; a short buffer or trailing bytes are
/// [`CodecError::Truncated`]. For callers that hold a frame in a plain
/// slice rather than a streaming accumulator.
pub fn decode_frame_slice(frame: &[u8]) -> Result<Message, CodecError> {
    let mut buf = BytesMut::from(frame);
    match decode_frame(&mut buf)? {
        Some(message) if buf.is_empty() => Ok(message),
        _ => Err(CodecError::Truncated),
    }
}

fn decode_payload(buf: &mut Bytes) -> Result<Message, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    let msg = match tag {
        0 => Message::Ping {
            nonce: read_varint(buf)?,
        },
        1 => Message::Pong {
            nonce: read_varint(buf)?,
        },
        2 => {
            let id = read_varint(buf)?;
            let origin = get_peer(buf)?;
            let key = get_path(buf)?;
            let matched = get_u16(buf)?;
            let ttl = get_u16(buf)?;
            Message::Query {
                id,
                origin,
                key,
                matched,
                ttl,
            }
        }
        3 => {
            let id = read_varint(buf)?;
            let responsible = get_peer(buf)?;
            // An entry is at least two 1-byte varints plus a 4-byte peer.
            let n = checked_len(read_varint(buf)?, buf, 6)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_entry(buf)?);
            }
            Message::QueryOk {
                id,
                responsible,
                entries,
            }
        }
        4 => Message::QueryFail {
            id: read_varint(buf)?,
        },
        5 => {
            let id = read_varint(buf)?;
            if !buf.has_remaining() {
                return Err(CodecError::Truncated);
            }
            let depth = buf.get_u8();
            let path = get_path(buf)?;
            let level_refs = get_level_refs(buf)?;
            Message::ExchangeOffer {
                id,
                depth,
                path,
                level_refs,
            }
        }
        6 => {
            let id = read_varint(buf)?;
            let responder_path = get_path(buf)?;
            if !buf.has_remaining() {
                return Err(CodecError::Truncated);
            }
            let take_bit = match buf.get_u8() {
                0xff => None,
                b => Some(b & 1),
            };
            let adopt_refs = get_level_refs(buf)?;
            let n = checked_len(read_varint(buf)?, buf, 4)?;
            let mut recurse_with = Vec::with_capacity(n);
            for _ in 0..n {
                recurse_with.push(get_peer(buf)?);
            }
            Message::ExchangeAnswer {
                id,
                responder_path,
                take_bit,
                adopt_refs,
                recurse_with,
            }
        }
        7 => Message::IndexInsert {
            seq: read_varint(buf)?,
            key: get_path(buf)?,
            entry: get_entry(buf)?,
        },
        8 => Message::Shutdown,
        9 => Message::Meet {
            with: get_peer(buf)?,
        },
        10 => Message::ExchangeConfirm {
            id: read_varint(buf)?,
            path: get_path(buf)?,
        },
        11 => Message::Ack {
            seq: read_varint(buf)?,
        },
        12 => Message::Nack {
            seq: read_varint(buf)?,
        },
        t => return Err(CodecError::UnknownTag(t)),
    };
    Ok(msg)
}

fn put_peer(buf: &mut BytesMut, peer: PeerId) {
    buf.put_u32_le(peer.0);
}

fn get_peer(buf: &mut Bytes) -> Result<PeerId, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(PeerId(buf.get_u32_le()))
}

fn get_u16(buf: &mut Bytes) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u16_le())
}

/// Bit paths travel as `len:u8 ‖ ceil(len/8) big-endian bytes` — compact and
/// self-delimiting.
fn put_path(buf: &mut BytesMut, path: &BitPath) {
    let len = path.len() as u8;
    buf.put_u8(len);
    let nbytes = path.len().div_ceil(8);
    let raw = path.raw_bits().to_be_bytes();
    buf.extend_from_slice(&raw[..nbytes]);
}

fn get_path(buf: &mut Bytes) -> Result<BitPath, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u8();
    if len > 128 {
        return Err(CodecError::BadPathLength(len));
    }
    let nbytes = (len as usize).div_ceil(8);
    if buf.remaining() < nbytes {
        return Err(CodecError::Truncated);
    }
    let mut raw = [0u8; 16];
    buf.copy_to_slice(&mut raw[..nbytes]);
    Ok(BitPath::from_raw(u128::from_be_bytes(raw), len))
}

fn put_entry(buf: &mut BytesMut, e: &WireEntry) {
    write_varint(buf, e.item);
    buf.put_u32_le(e.holder.0);
    write_varint(buf, e.version);
}

fn get_entry(buf: &mut Bytes) -> Result<WireEntry, CodecError> {
    let item = read_varint(buf)?;
    let holder = get_peer(buf)?;
    let version = read_varint(buf)?;
    Ok(WireEntry {
        item,
        holder,
        version,
    })
}

fn put_level_refs(buf: &mut BytesMut, level_refs: &[(u16, Vec<PeerId>)]) {
    write_varint(buf, level_refs.len() as u64);
    for (level, refs) in level_refs {
        buf.put_u16_le(*level);
        write_varint(buf, refs.len() as u64);
        for p in refs {
            put_peer(buf, *p);
        }
    }
}

fn get_level_refs(buf: &mut Bytes) -> Result<Vec<(u16, Vec<PeerId>)>, CodecError> {
    // A level entry is at least a 2-byte level plus a 1-byte count varint.
    let n = checked_len(read_varint(buf)?, buf, 3)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let level = get_u16(buf)?;
        let m = checked_len(read_varint(buf)?, buf, 4)?;
        let mut refs = Vec::with_capacity(m);
        for _ in 0..m {
            refs.push(get_peer(buf)?);
        }
        out.push((level, refs));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let frame = encode_frame(&msg);
        let mut buf = BytesMut::from(&frame[..]);
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert!(buf.is_empty());
        assert_eq!(decode_frame_slice(&frame), Ok(msg));
    }

    fn path(s: &str) -> BitPath {
        BitPath::from_str_lossy(s)
    }

    #[test]
    fn ping_pong() {
        round_trip(Message::Ping { nonce: 0 });
        round_trip(Message::Pong { nonce: u64::MAX });
    }

    #[test]
    fn query_messages() {
        round_trip(Message::Query {
            id: 77,
            origin: PeerId(3),
            key: path("011010011"),
            matched: 4,
            ttl: 32,
        });
        round_trip(Message::QueryOk {
            id: 77,
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
                    version: 12345,
                },
            ],
        });
        round_trip(Message::QueryFail { id: 77 });
    }

    #[test]
    fn exchange_messages() {
        round_trip(Message::ExchangeOffer {
            id: 5,
            depth: 2,
            path: path(""),
            level_refs: vec![],
        });
        round_trip(Message::ExchangeOffer {
            id: 5,
            depth: 0,
            path: path("0101"),
            level_refs: vec![(1, vec![PeerId(1), PeerId(2)]), (4, vec![])],
        });
        round_trip(Message::ExchangeAnswer {
            id: 5,
            responder_path: path("01011"),
            take_bit: Some(1),
            adopt_refs: vec![(2, vec![PeerId(8)])],
            recurse_with: vec![PeerId(1), PeerId(4)],
        });
        round_trip(Message::ExchangeAnswer {
            id: 6,
            responder_path: path("1"),
            take_bit: None,
            adopt_refs: vec![],
            recurse_with: vec![],
        });
    }

    #[test]
    fn index_and_shutdown() {
        round_trip(Message::IndexInsert {
            seq: 41,
            key: path("110011001100"),
            entry: WireEntry {
                item: 9,
                holder: PeerId(1),
                version: 2,
            },
        });
        round_trip(Message::Shutdown);
        round_trip(Message::Meet { with: PeerId(17) });
        round_trip(Message::ExchangeConfirm {
            id: 12,
            path: path("0101"),
        });
    }

    #[test]
    fn ack_and_nack() {
        round_trip(Message::Ack { seq: 0 });
        round_trip(Message::Ack { seq: u64::MAX });
        round_trip(Message::Nack { seq: 7 });
    }

    #[test]
    fn streaming_reassembly() {
        let frame = encode_frame(&Message::Ping { nonce: 42 });
        let mut buf = BytesMut::new();
        // Feed byte by byte; decode must return None until complete.
        for (i, b) in frame.iter().enumerate() {
            buf.put_u8(*b);
            let res = decode_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(res.is_none(), "premature decode at byte {i}");
            } else {
                assert_eq!(res, Some(Message::Ping { nonce: 42 }));
            }
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(&Message::Ping { nonce: 1 }));
        buf.extend_from_slice(&encode_frame(&Message::Shutdown));
        assert_eq!(
            decode_frame(&mut buf).unwrap(),
            Some(Message::Ping { nonce: 1 })
        );
        assert_eq!(decode_frame(&mut buf).unwrap(), Some(Message::Shutdown));
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn slice_decode_takes_exactly_one_frame() {
        let frame = encode_frame(&Message::Ping { nonce: 1 });
        assert_eq!(
            decode_frame_slice(&frame[..frame.len() - 1]),
            Err(CodecError::Truncated),
            "a short frame"
        );
        let mut two = frame.to_vec();
        two.extend_from_slice(&frame);
        assert_eq!(
            decode_frame_slice(&two),
            Err(CodecError::Truncated),
            "bytes after the frame"
        );
        assert_eq!(decode_frame_slice(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(99);
        assert_eq!(decode_frame(&mut buf), Err(CodecError::UnknownTag(99)));
    }

    #[test]
    fn bad_path_length_rejected() {
        let mut buf = BytesMut::new();
        // Query with path length 200.
        let mut payload = BytesMut::new();
        payload.put_u8(2); // tag
        write_varint(&mut payload, 1); // id
        payload.put_u32_le(0); // origin
        payload.put_u8(200); // bogus path length
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert_eq!(decode_frame(&mut buf), Err(CodecError::BadPathLength(200)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let frame = encode_frame(&Message::Shutdown);
        let mut buf = BytesMut::new();
        // Lie about the length: declare 3 bytes for a 1-byte payload.
        buf.put_u32_le(3);
        buf.extend_from_slice(&frame[4..]);
        buf.put_u8(0);
        buf.put_u8(0);
        assert_eq!(decode_frame(&mut buf), Err(CodecError::Truncated));
    }

    #[test]
    fn implausible_collection_length_is_rejected_cheaply() {
        // A QueryOk frame claiming a million entries with none attached:
        // the declared count exceeds what the remaining bytes could hold,
        // so it must be refused before any Vec::with_capacity.
        let mut payload = BytesMut::new();
        payload.put_u8(3); // tag
        write_varint(&mut payload, 1); // id
        payload.put_u32_le(0); // responsible
        write_varint(&mut payload, 1_000_000); // entry count, no entries
        let mut buf = BytesMut::new();
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert_eq!(
            decode_frame(&mut buf),
            Err(CodecError::BadCollectionLength(1_000_000))
        );
    }

    #[test]
    fn oversized_frame_header_rejected_before_buffering() {
        // Only the 4-byte header has arrived; the declared length alone
        // must trigger rejection — waiting for 4 GiB is the attack.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert_eq!(
            decode_frame(&mut buf),
            Err(CodecError::FrameTooLarge(u32::MAX))
        );
        // The boundary itself is accepted as "incomplete", one past is not.
        let mut ok = BytesMut::new();
        ok.put_u32_le(MAX_FRAME_LEN as u32);
        assert_eq!(decode_frame(&mut ok), Ok(None));
        let mut over = BytesMut::new();
        over.put_u32_le(MAX_FRAME_LEN as u32 + 1);
        assert_eq!(
            decode_frame(&mut over),
            Err(CodecError::FrameTooLarge(MAX_FRAME_LEN as u32 + 1))
        );
    }

    #[test]
    fn full_length_paths_survive() {
        let full = BitPath::from_raw(u128::MAX, 128);
        round_trip(Message::IndexInsert {
            seq: 0,
            key: full,
            entry: WireEntry {
                item: 0,
                holder: PeerId(0),
                version: 0,
            },
        });
    }
}
