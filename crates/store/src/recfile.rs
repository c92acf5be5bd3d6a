//! Binary record files shared by the disk backends.
//!
//! Both [`HashFileBackend`](crate::HashFileBackend) and
//! [`LogBackend`](crate::LogBackend) persist items as a flat sequence of
//! CRC'd frames behind an 8-byte magic header:
//!
//! ```text
//! file   := MAGIC frame*
//! frame  := len:u32le  crc32:u32le  payload[len]      (crc over payload)
//! payload:= 0x01 id:u64le version:u64le key_len:u8 key_bits:[u8;16]le
//!                name_len:u32le name[..] data_len:u32le data[..]   # Put
//!         | 0x02 id:u64le                                          # Remove
//! ```
//!
//! Keys serialize as their raw left-aligned `u128` plus a bit length and
//! round-trip through [`BitPath::from_raw`], so the on-disk order of key
//! bytes never matters — ordering always comes from the rebuilt in-memory
//! key index.
//!
//! The scanner distinguishes a **torn tail** (the bad bytes run to end of
//! file — the signature of a crash mid-append; recovery truncates and
//! carries on) from **mid-file corruption** (bad bytes with valid data
//! after them — a real integrity fault; recovery refuses).

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;
use std::sync::OnceLock;

use pgrid_keys::BitPath;

use crate::{DataItem, ItemId, StoreError, Version};

/// First 8 bytes of every record file.
pub(crate) const MAGIC: &[u8; 8] = b"PGSTORE1";

/// Frame header size: length + checksum.
pub(crate) const FRAME_HEADER: u64 = 8;

/// Upper bound on a single payload; anything larger is garbage.
const MAX_PAYLOAD: u32 = 1 << 28;

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// One decoded record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    /// Insert or replace an item.
    Put(DataItem),
    /// Tombstone.
    Remove(ItemId),
}

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3), the checksum guarding every frame payload.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends the full frame (header + payload) for a Put record to `out`.
pub(crate) fn encode_put_frame(item: &DataItem, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]); // header patched below
    out.push(TAG_PUT);
    out.extend_from_slice(&item.id.0.to_le_bytes());
    out.extend_from_slice(&item.version.0.to_le_bytes());
    out.push(item.key.len() as u8);
    out.extend_from_slice(&item.key.raw_bits().to_le_bytes());
    push_bytes(out, item.name.as_bytes());
    push_bytes(out, &item.payload);
    patch_header(out, start);
}

/// Appends the full frame for a Remove tombstone to `out`.
pub(crate) fn encode_remove_frame(id: ItemId, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    out.push(TAG_REMOVE);
    out.extend_from_slice(&id.0.to_le_bytes());
    patch_header(out, start);
}

fn patch_header(out: &mut [u8], start: usize) {
    let payload_start = start + FRAME_HEADER as usize;
    let len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("payload truncated: wanted {n} more bytes"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn len_prefixed(&mut self) -> Result<&'a [u8], String> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Decodes a frame payload (the bytes the CRC covers).
pub(crate) fn decode_payload(payload: &[u8]) -> Result<Record, String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let record = match c.u8()? {
        TAG_PUT => {
            let id = ItemId(c.u64()?);
            let version = Version(c.u64()?);
            let key_len = c.u8()?;
            let key = BitPath::from_raw(c.u128()?, key_len);
            let name = std::str::from_utf8(c.len_prefixed()?)
                .map_err(|e| format!("name not utf-8: {e}"))?
                .to_owned();
            let payload = c.len_prefixed()?.to_vec();
            let mut item = DataItem::new(id, name, key);
            item.version = version;
            item.payload = payload;
            Record::Put(item)
        }
        TAG_REMOVE => Record::Remove(ItemId(c.u64()?)),
        tag => return Err(format!("unknown record tag {tag}")),
    };
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after record",
            payload.len() - c.pos
        ));
    }
    Ok(record)
}

/// Decodes a complete frame (header + payload), verifying length and CRC.
/// Used by point reads, where the frame bounds come from the index.
pub(crate) fn decode_frame(frame: &[u8]) -> Result<Record, String> {
    if frame.len() < FRAME_HEADER as usize {
        return Err("frame shorter than header".into());
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let payload = &frame[FRAME_HEADER as usize..];
    if payload.len() != len {
        return Err(format!(
            "frame length mismatch: header says {len}, have {}",
            payload.len()
        ));
    }
    if crc32(payload) != crc {
        return Err("crc mismatch".into());
    }
    decode_payload(payload)
}

/// Positioned read that leaves the file cursor alone, so `&self` readers
/// never disturb the append position. `path` names the file and is only
/// evaluated where the platform has no positioned read.
pub(crate) fn read_exact_at<P: AsRef<Path>>(
    file: &File,
    path: impl FnOnce() -> P,
    buf: &mut [u8],
    offset: u64,
) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let _ = path;
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        // Fallback: a fresh handle gets its own cursor.
        use std::io::{Read, Seek, SeekFrom};
        let mut f = File::open(path())?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// A record yielded by [`scan_file`], with its frame location.
pub(crate) struct ScanItem {
    /// Byte offset of the frame (header) within the file.
    pub offset: u64,
    /// Total frame length, header included.
    pub frame_len: u32,
    /// The decoded record.
    pub record: Record,
}

/// How a sequential scan ended.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ScanOutcome {
    /// Every byte parsed; `end` is the file length.
    Clean {
        /// Length of the valid region (the whole file).
        end: u64,
    },
    /// The final bytes are an incomplete or garbled frame running to end of
    /// file — a crash mid-append. Bytes before `valid_end` all parsed.
    TornTail {
        /// Length of the valid prefix; recovery truncates here.
        valid_end: u64,
    },
}

/// Sequentially scans a record file, yielding every decodable record.
///
/// Returns [`ScanOutcome::TornTail`] when (and only when) the undecodable
/// region extends to end of file; bad bytes *followed by* valid data are
/// [`StoreError::Corrupt`]. A file shorter than the magic header is treated
/// as a torn creation (`valid_end: 0`); a full-length wrong magic is
/// corruption.
pub(crate) fn scan_file(
    path: &Path,
    file: &File,
    mut visit: impl FnMut(ScanItem),
) -> Result<ScanOutcome, StoreError> {
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let corrupt = |offset: u64, reason: String| StoreError::Corrupt {
        file: path.to_path_buf(),
        offset,
        reason,
    };

    if file_len < MAGIC.len() as u64 {
        return Ok(ScanOutcome::TornTail { valid_end: 0 });
    }
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt(0, "bad magic".into()));
    }

    let mut pos = MAGIC.len() as u64;
    let mut payload = Vec::new();
    loop {
        if pos == file_len {
            return Ok(ScanOutcome::Clean { end: pos });
        }
        if file_len - pos < FRAME_HEADER {
            return Ok(ScanOutcome::TornTail { valid_end: pos });
        }
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let frame_end = pos + FRAME_HEADER + u64::from(len);
        if len > MAX_PAYLOAD || frame_end > file_len {
            // Oversized or overhanging length: torn if nothing could follow,
            // corrupt only if a plausible frame would still fit after it.
            return Ok(ScanOutcome::TornTail { valid_end: pos });
        }
        payload.clear();
        payload.resize(len as usize, 0);
        reader.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            if frame_end == file_len {
                return Ok(ScanOutcome::TornTail { valid_end: pos });
            }
            return Err(corrupt(pos, "crc mismatch".into()));
        }
        match decode_payload(&payload) {
            Ok(record) => visit(ScanItem {
                offset: pos,
                frame_len: (FRAME_HEADER + u64::from(len)) as u32,
                record,
            }),
            Err(reason) => {
                if frame_end == file_len {
                    return Ok(ScanOutcome::TornTail { valid_end: pos });
                }
                return Err(corrupt(pos, reason));
            }
        }
        pos = frame_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn item(id: u64, key: &str, payload: &[u8]) -> DataItem {
        let mut it = DataItem::new(ItemId(id), format!("n{id}"), BitPath::from_str_lossy(key));
        it.payload = payload.to_vec();
        it
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let original = item(7, "0101", b"hello");
        let mut buf = Vec::new();
        encode_put_frame(&original, &mut buf);
        match decode_frame(&buf).unwrap() {
            Record::Put(it) => {
                assert_eq!(it.id, original.id);
                assert_eq!(it.key, original.key);
                assert_eq!(it.name, original.name);
                assert_eq!(it.payload, original.payload);
                assert_eq!(it.version, original.version);
            }
            other => panic!("expected put, got {other:?}"),
        }
        buf.clear();
        encode_remove_frame(ItemId(9), &mut buf);
        assert_eq!(decode_frame(&buf).unwrap(), Record::Remove(ItemId(9)));
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut buf = Vec::new();
        encode_put_frame(&item(1, "01", b"x"), &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(decode_frame(&buf).unwrap_err().contains("crc"));
    }

    fn write_file(path: &Path, bytes: &[u8]) -> File {
        let mut f = File::create(path).unwrap();
        f.write_all(bytes).unwrap();
        File::open(path).unwrap()
    }

    #[test]
    fn scan_distinguishes_torn_tail_from_corruption() {
        let dir = std::env::temp_dir().join(format!("pgrid-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = MAGIC.to_vec();
        encode_put_frame(&item(1, "00", b"a"), &mut bytes);
        let first_end = bytes.len();
        encode_put_frame(&item(2, "01", b"b"), &mut bytes);

        // Clean scan sees both records.
        let path = dir.join("clean");
        let mut seen = Vec::new();
        let out = scan_file(&path, &write_file(&path, &bytes), |s| seen.push(s.offset)).unwrap();
        assert_eq!(
            out,
            ScanOutcome::Clean {
                end: bytes.len() as u64
            }
        );
        assert_eq!(seen.len(), 2);

        // Truncating anywhere inside the second frame: torn tail at its start.
        for cut in first_end + 1..bytes.len() {
            let path = dir.join("torn");
            let mut count = 0;
            let out = scan_file(&path, &write_file(&path, &bytes[..cut]), |_| count += 1).unwrap();
            assert_eq!(
                out,
                ScanOutcome::TornTail {
                    valid_end: first_end as u64
                },
                "cut at {cut}"
            );
            assert_eq!(count, 1);
        }

        // Corrupting the FIRST frame while the second stays valid: hard error.
        let mut corrupted = bytes.clone();
        corrupted[MAGIC.len() + FRAME_HEADER as usize] ^= 0xff;
        let path = dir.join("corrupt");
        let err = scan_file(&path, &write_file(&path, &corrupted), |_| {}).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { offset: 8, .. }),
            "{err}"
        );

        // Corrupting the final frame (runs to EOF): torn, not corrupt.
        let mut tail_flip = bytes.clone();
        let last = tail_flip.len() - 1;
        tail_flip[last] ^= 0xff;
        let path = dir.join("tailflip");
        let out = scan_file(&path, &write_file(&path, &tail_flip), |_| {}).unwrap();
        assert_eq!(
            out,
            ScanOutcome::TornTail {
                valid_end: first_end as u64
            }
        );

        // A sub-magic file is a torn creation.
        let path = dir.join("stub");
        let out = scan_file(&path, &write_file(&path, b"PGST"), |_| {}).unwrap();
        assert_eq!(out, ScanOutcome::TornTail { valid_end: 0 });

        // Wrong magic at full length is corruption.
        let path = dir.join("magic");
        let err = scan_file(&path, &write_file(&path, b"NOTMAGIC"), |_| {}).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { offset: 0, .. }));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
