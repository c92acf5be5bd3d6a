//! Crash-point coverage for the disk backends: every simulated kill leaves
//! files that recovery must either replay to a converged state (crash
//! artifacts: torn tails, empty or part-magic new segments, stale
//! compaction scratch, undeleted pre-compaction segments) or refuse loudly
//! (real corruption in the middle of sealed data).

use std::path::{Path, PathBuf};

use pgrid_keys::BitPath;
use pgrid_store::{
    DataItem, HashFileBackend, ItemId, LogBackend, LogOptions, StorageBackend, StoreError,
};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgrid-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn item(id: u64, key: &str, fill: u8) -> DataItem {
    DataItem::with_payload(
        ItemId(id),
        format!("item-{id}"),
        BitPath::from_str_lossy(key),
        vec![fill; 24],
    )
}

fn contents(b: &dyn StorageBackend) -> Vec<DataItem> {
    let mut out = Vec::new();
    b.for_each(&mut |i| out.push(i));
    out
}

// ---------------------------------------------------------------- hashfile

/// Kill mid-append: for EVERY possible truncation point inside the last
/// record, reopening drops exactly that record and keeps all earlier ones.
#[test]
fn hashfile_truncated_tail_is_dropped_not_an_error() {
    let dir = fresh_dir("hash-tail");
    let path = dir.join("peer.store");
    let (before_len, after_len, expect) = {
        let mut b = HashFileBackend::open(&path).unwrap();
        b.put(item(1, "0101", 1));
        b.put(item(2, "0110", 2));
        b.flush().unwrap();
        let before = b.file_bytes();
        let snapshot = contents(&b);
        b.put(item(3, "1100", 3));
        b.flush().unwrap();
        (before, b.file_bytes(), snapshot)
    };

    let full = std::fs::read(&path).unwrap();
    assert_eq!(full.len() as u64, after_len);
    for cut in before_len..after_len {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let recovered = HashFileBackend::open(&path).unwrap();
        assert_eq!(
            contents(&recovered),
            expect,
            "cut at byte {cut}: torn tail must vanish, earlier records must survive"
        );
        // Recovery truncated to a frame boundary, so new appends work.
        drop(recovered);
        let mut again = HashFileBackend::open(&path).unwrap();
        again.put(item(9, "1111", 9));
        assert_eq!(again.len(), 3);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped bit in the middle of the file — with intact records after it —
/// is corruption, not a crash artifact, and must refuse to load.
#[test]
fn hashfile_mid_file_corruption_is_an_error() {
    let dir = fresh_dir("hash-corrupt");
    let path = dir.join("peer.store");
    {
        let mut b = HashFileBackend::open(&path).unwrap();
        b.put(item(1, "0101", 1));
        b.put(item(2, "0110", 2));
        b.flush().unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one bit inside the first record's payload (file offset 20 is
    // well past the 8-byte magic + 8-byte frame header).
    bytes[20] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match HashFileBackend::open(&path) {
        Err(StoreError::Corrupt { offset: 8, .. }) => {}
        other => panic!("expected corruption at the first frame, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------------------- log

fn tiny() -> LogOptions {
    LogOptions {
        segment_bytes: 256,
        compact_min_bytes: u64::MAX, // only explicit compact_now()
    }
}

/// Highest-numbered (active) segment file in `dir`.
fn active_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort_by_key(|p| {
        p.file_name()
            .unwrap()
            .to_string_lossy()
            .trim_start_matches("seg-")
            .trim_end_matches(".log")
            .parse::<u64>()
            .unwrap()
    });
    segs.pop().unwrap()
}

/// Kill mid-append to the active segment: every truncation point inside
/// the final record recovers to the state before that record.
#[test]
fn log_truncated_active_tail_recovers() {
    let dir = fresh_dir("log-tail");
    let (expect, before_len) = {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        for i in 0..12 {
            b.put(item(i, "0101", i as u8));
        }
        b.flush().unwrap();
        let snapshot = contents(&b);
        let before = std::fs::metadata(active_segment(&dir)).unwrap().len();
        b.put(item(99, "1111", 9));
        b.flush().unwrap();
        (snapshot, before)
    };
    let active = active_segment(&dir);
    let full = std::fs::read(&active).unwrap();
    for cut in before_len..full.len() as u64 {
        std::fs::write(&active, &full[..cut as usize]).unwrap();
        let recovered = LogBackend::open_with(&dir, tiny()).unwrap();
        assert_eq!(contents(&recovered), expect, "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn record in a SEALED segment can only mean external damage (the
/// log never appends to sealed files) and must refuse to load.
#[test]
fn log_torn_sealed_segment_is_an_error() {
    let dir = fresh_dir("log-sealed");
    {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        for i in 0..30 {
            b.put(item(i, "0101", i as u8));
        }
        b.flush().unwrap();
        assert!(b.segment_count() > 1, "need a sealed segment");
    }
    let oldest = dir.join("seg-0.log");
    let bytes = std::fs::read(&oldest).unwrap();
    std::fs::write(&oldest, &bytes[..bytes.len() - 3]).unwrap();
    match LogBackend::open_with(&dir, tiny()) {
        Err(StoreError::Corrupt { reason, .. }) => {
            assert!(reason.contains("sealed"), "unexpected reason: {reason}")
        }
        other => panic!("expected sealed-segment error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash mid-compaction BEFORE the rename: the half-written scratch file
/// is discarded on open and the old segments remain authoritative.
#[test]
fn log_crash_before_compaction_rename_discards_scratch() {
    let dir = fresh_dir("log-pre-rename");
    let expect = {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        for i in 0..10 {
            b.put(item(i, "0101", i as u8));
        }
        b.remove(ItemId(3)).unwrap();
        b.flush().unwrap();
        contents(&b)
    };
    // The crash artifact: a partially-written compaction target, torn
    // mid-record. Recovery must delete it, not read it.
    let stale = dir.join("seg-7.log.tmp");
    std::fs::write(&stale, b"PGSTORE1\x40\x00\x00\x00junk").unwrap();
    let recovered = LogBackend::open_with(&dir, tiny()).unwrap();
    assert_eq!(contents(&recovered), expect);
    assert!(!stale.exists(), "stale compaction scratch must be deleted");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash mid-compaction AFTER the rename but before (or during) deletion
/// of the old segments: ascending-id replay over old + compacted segments
/// converges to exactly the compacted state — including removed items,
/// whose tombstones sit in segments newer than their puts.
#[test]
fn log_crash_after_compaction_rename_converges() {
    let dir = fresh_dir("log-post-rename");
    let backup = fresh_dir("log-post-rename-backup");

    // Build a multi-segment history with overwrites and a removal.
    let expect = {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        for i in 0..14 {
            b.put(item(i, "0101", i as u8));
        }
        for i in 0..6 {
            b.put(item(i, "0011", 0xaa));
        }
        b.remove(ItemId(7)).unwrap();
        b.flush().unwrap();
        assert!(b.segment_count() > 1);
        contents(&b)
    };
    // Stash the pre-compaction segments, then run a real compaction.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, backup.join(p.file_name().unwrap())).unwrap();
    }
    {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        b.compact_now().unwrap();
        b.flush().unwrap();
        assert_eq!(b.segment_count(), 1, "compaction leaves one segment");
    }
    // Reconstruct the crash state: old segments restored NEXT TO the
    // compacted one (the rename happened; the deletes did not).
    let compacted = active_segment(&dir);
    for entry in std::fs::read_dir(&backup).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dir.join(p.file_name().unwrap())).unwrap();
    }
    let recovered = LogBackend::open_with(&dir, tiny()).unwrap();
    assert_eq!(contents(&recovered), expect, "full crash state converges");
    drop(recovered);

    // And a partial-deletion state (oldest segments already gone).
    std::fs::remove_file(dir.join("seg-0.log")).unwrap();
    let recovered = LogBackend::open_with(&dir, tiny()).unwrap();
    assert_eq!(
        contents(&recovered),
        expect,
        "mid-delete crash state converges"
    );
    assert_eq!(active_segment(&dir), compacted);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&backup).unwrap();
}

/// After any recovered crash, the store keeps working: appends land on
/// clean frame boundaries and survive another reopen.
#[test]
fn log_recovered_store_accepts_new_writes() {
    let dir = fresh_dir("log-rewrites");
    {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        for i in 0..5 {
            b.put(item(i, "0101", i as u8));
        }
        b.flush().unwrap();
    }
    // Tear the tail.
    let active = active_segment(&dir);
    let bytes = std::fs::read(&active).unwrap();
    std::fs::write(&active, &bytes[..bytes.len() - 5]).unwrap();
    {
        let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
        assert_eq!(b.len(), 4);
        b.put(item(50, "1010", 5));
        b.flush().unwrap();
    }
    let b = LogBackend::open_with(&dir, tiny()).unwrap();
    assert_eq!(b.len(), 5);
    assert!(b.contains(ItemId(50)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Power loss after a segment is created but before the first `flush`:
/// the new segment — the first, or one started by a rollover — can be
/// empty or hold part of its magic. It opens as an empty active segment,
/// gets its header back, and takes writes that survive a reopen.
#[test]
fn log_unflushed_new_segment_opens_empty() {
    for torn in [&b""[..], b"PGST", b"PGSTORE"] {
        for after_rollover in [false, true] {
            let dir = fresh_dir("log-unflushed");
            let mut expect = Vec::new();
            if after_rollover {
                let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
                for i in 0..2 {
                    expect.push(item(i, "0101", i as u8));
                    b.put(item(i, "0101", i as u8));
                }
                b.flush().unwrap();
                assert_eq!(b.segment_count(), 1);
            }
            let active = dir.join(if after_rollover {
                "seg-1.log"
            } else {
                "seg-0.log"
            });
            std::fs::write(&active, torn).unwrap();
            {
                let mut b = LogBackend::open_with(&dir, tiny()).unwrap();
                assert_eq!(contents(&b), expect, "header {torn:?}");
                assert_eq!(std::fs::read(&active).unwrap(), b"PGSTORE1");
                for i in 10..13 {
                    expect.push(item(i, "0110", i as u8));
                    b.put(item(i, "0110", i as u8));
                }
                b.flush().unwrap();
            }
            let b = LogBackend::open_with(&dir, tiny()).unwrap();
            assert_eq!(contents(&b), expect, "header {torn:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
