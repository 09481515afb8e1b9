//! WAL shipping and read-only tailing for read replicas.
//!
//! A replica is fed by copying the primary's store directory — manifest,
//! part images, and WAL segments — into its own directory ([`ship`]),
//! then reading it **without** taking the store's writer lock or
//! mutating anything ([`read_checkpoint`], [`tail_records`]). This works
//! because every durable artifact is append-only or immutable:
//!
//! * part files are written once under a fresh name and never modified
//!   while a manifest names them. A primary does reuse the name of a part
//!   file it deleted (it counts part numbers from the files on disk when
//!   it opens), so a file is skipped only when the replica's **own
//!   current manifest** names it with the same length and checksum —
//!   never on its length alone;
//! * segments only grow between checkpoints, so shipping resumes by
//!   copying the byte tail past what the replica already has — a frame
//!   half-copied by one ship completes on the next;
//! * the manifest is replaced atomically (temp + rename), and is only
//!   shipped after the parts it references, so a manifest never points at
//!   a missing part;
//! * a part streams into its temp file through the same hashing writer a
//!   checkpoint writes it with, and the new parts are renamed into place
//!   only once every one of them matches its length and checksum in the
//!   shipped manifest. A corrupt source part fails the ship before any
//!   replica file or the replica's manifest moves, so the replica keeps
//!   reading its previous checkpoint.
//!
//! Part retention is the primary's rule, `remove_orphan_parts`: once the
//! shipped manifest is in place, every part file it does not name is
//! deleted, so the replica holds the images of one checkpoint, as the
//! primary does.
//!
//! A reader of a directory that a ship is writing into races it, as it
//! always has for segments: a reader that listed the segments (or read
//! the manifest) before a ship pruned a segment (or a superseded part)
//! finds that file gone and gets a `NotFound` error, never wrong data.
//! Readers that share a directory with a shipper retry, or ship and read
//! in turn, as `Follower` users and the forum's replica do.
//!
//! [`tail_records`] treats a torn tail as "end of shipped log", not an
//! error: the tear is the in-flight append the next ship will complete.
//! Segments the primary has compacted away are deleted from the replica
//! directory once — and only once — the shipped checkpoint covers them:
//! every record the replica's copy holds must have `seq <=` the shipped
//! manifest's base sequence number. A torn copy of a compacted segment
//! passes the same test on its valid prefix — sound because the primary
//! only compacts a segment after the manifest covering *all* of its
//! records is durable, so whatever the tear hides is covered too. A
//! segment whose records exceed the shipped base sequence (a primary-side
//! bug the replica must not amplify) is kept. This bounds the replica
//! directory by the same retention the primary enforces, without ever
//! dropping a record a replay still needs.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::Path;

use crate::error::{Result, StoreError};
use crate::segment::list_segments;
use crate::store::{
    decode_manifest, part_mismatch, read_checkpoint_state, remove_orphan_parts, sync_dir,
    write_atomic, write_file, Parts, MANIFEST_FILE,
};
use crate::wal::{scan, Record};

/// What one [`ship`] call copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Segments that received new bytes.
    pub segments_copied: u64,
    /// Checkpoint part files newly copied.
    pub parts_copied: u64,
    /// Total bytes copied (segments + parts + manifest).
    pub bytes_copied: u64,
    /// Replica segments deleted because the primary compacted them away
    /// and the shipped checkpoint covers every record they held.
    pub segments_pruned: u64,
}

/// Records tailed from a shipped (or live) store directory.
#[derive(Debug, Clone, Default)]
pub struct Tailed {
    /// Records with sequence number strictly greater than `after_seq`,
    /// in append order.
    pub records: Vec<Record>,
    /// True when the scan stopped at a torn tail (an append still in
    /// flight on the primary, or a partially shipped frame).
    pub torn: bool,
}

/// Copies the primary store at `src` into the replica directory `dst`:
/// new checkpoint parts first, then the manifest, then segment tails,
/// then prunes replica segments the primary compacted away **if** the
/// shipped checkpoint fully covers their records. Incremental and
/// idempotent; the only deletions are part files the shipped manifest no
/// longer names and those checkpoint-covered segments, so a slow follower
/// that has not shipped the covering manifest yet keeps every segment it
/// might still need. A ship with nothing new reads the two manifests and
/// no part image. A part whose copy does not match the shipped manifest
/// fails the ship before the replica's manifest is replaced.
pub fn ship(src: &Path, dst: &Path) -> Result<ShipReport> {
    std::fs::create_dir_all(dst)?;
    let mut report = ShipReport::default();

    // Checkpoint parts before the manifest that references them.
    let manifest_bytes = match std::fs::read(src.join(MANIFEST_FILE)) {
        Ok(b) => Some(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    let have = std::fs::read(dst.join(MANIFEST_FILE)).unwrap_or_default();
    if let Some(bytes) = manifest_bytes.filter(|b| *b != have) {
        let (_, entries) = decode_manifest(&bytes)?;
        // What the replica's own manifest vouches for; an unreadable one
        // vouches for nothing, and every part is copied again.
        let held = decode_manifest(&have).map(|(_, e)| e).unwrap_or_default();
        // Every new part is copied and verified into its temp file before
        // any is renamed, so a part that fails leaves every file the
        // replica's manifest names as it was, a reused part name included.
        let mut staged = Vec::new();
        for e in &entries {
            if held
                .iter()
                .any(|h| h.file == e.file && h.len == e.len && h.sum == e.sum)
            {
                continue;
            }
            let tmp = dst.join(format!("{}.shiptmp", e.file));
            let copied = File::open(src.join(&e.file))
                .map_err(StoreError::from)
                .and_then(|mut from| {
                    write_file(&tmp, |out| {
                        out.copy_from(&mut from)?;
                        if out.len() != e.len || out.sum()? != e.sum {
                            return Err(part_mismatch(e));
                        }
                        Ok(())
                    })
                });
            if let Err(err) = copied {
                for (tmp, _) in &staged {
                    let _ = std::fs::remove_file(tmp);
                }
                return Err(err);
            }
            staged.push((tmp, &e.file));
            report.parts_copied += 1;
            report.bytes_copied += e.len;
        }
        for (tmp, file) in staged {
            std::fs::rename(tmp, dst.join(file))?;
        }
        write_atomic(dst, MANIFEST_FILE, &bytes)?;
        report.bytes_copied += bytes.len() as u64;
        remove_orphan_parts(dst, &entries);
    }

    // Segment tails: append-only between checkpoints, so resume at the
    // replica's current length. A shorter source (post-crash repair on
    // the primary) forces a full re-copy.
    let src_segments = list_segments(src)?;
    for (index, path) in &src_segments {
        let (index, path) = (*index, path);
        let src_len = std::fs::metadata(path)?.len();
        let to = crate::segment::segment_path(dst, index);
        let dst_len = std::fs::metadata(&to).map(|m| m.len()).unwrap_or(0);
        if dst_len == src_len {
            continue;
        }
        let from = if dst_len < src_len { dst_len } else { 0 };
        let mut src_file = File::open(path)?;
        src_file.seek(SeekFrom::Start(from))?;
        let mut dst_file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&to)?;
        dst_file.set_len(from)?;
        dst_file.seek(SeekFrom::Start(from))?;
        let copied = std::io::copy(&mut src_file, &mut dst_file)?;
        dst_file.sync_data()?;
        report.segments_copied += 1;
        report.bytes_copied += copied;
    }

    // Retention: drop replica segments the primary compacted away, but
    // only when the checkpoint we just shipped covers their records.
    // Indexes are monotonic and never reused, so "absent at src and below
    // the lowest live source index" means compacted. Each candidate is
    // still scanned: a record above base_seq (which compaction should
    // have made impossible) or an unreadable file keeps the segment — a
    // replica never amplifies a primary-side bug into data loss. A torn
    // candidate's valid prefix passing the seq test is enough: the
    // primary only deletes a segment once the covering manifest is
    // durable, so the tear cannot hide an uncovered record.
    if let Some(base_seq) = checkpoint_base_seq(dst)? {
        let min_src = src_segments.iter().map(|(i, _)| *i).min();
        for (index, path) in list_segments(dst)? {
            if min_src.is_some_and(|m| index >= m) {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let Ok(scanned) = scan(&bytes) else { continue };
            if scanned.records.iter().all(|r| r.seq <= base_seq) {
                std::fs::remove_file(&path)?;
                report.segments_pruned += 1;
            }
        }
    }

    sync_dir(dst)?;
    Ok(report)
}

/// Reads just the checkpoint's base sequence number from a store
/// directory's manifest — cheap (no part images touched), for pollers
/// deciding whether a full [`read_checkpoint`] is warranted. `None`
/// when no manifest exists.
pub fn checkpoint_base_seq(dir: &Path) -> Result<Option<u64>> {
    match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => {
            let (base_seq, _) = decode_manifest(&bytes)?;
            Ok(Some(base_seq))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Reads the checkpoint (base sequence number + named parts) from a
/// store directory without locking or mutating it. Returns `None` when
/// no checkpoint was ever taken.
pub fn read_checkpoint(dir: &Path) -> Result<Option<(u64, Parts)>> {
    let (_, base_seq, parts) = read_checkpoint_state(dir)?;
    if parts.is_empty() && base_seq == 0 {
        return Ok(None);
    }
    Ok(Some((base_seq, parts)))
}

/// Scans the WAL segments of a store directory read-only, returning
/// every record with `seq > after_seq` in append order. Stops at the
/// first torn frame (reported, not repaired — the next [`ship`] may
/// complete it). Never locks, truncates, or deletes anything.
pub fn tail_records(dir: &Path, after_seq: u64) -> Result<Tailed> {
    let mut out = Tailed::default();
    for (_, path) in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let scanned = scan(&bytes)?;
        out.records
            .extend(scanned.records.into_iter().filter(|r| r.seq > after_seq));
        if scanned.torn {
            out.torn = true;
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::HashWriter;
    use crate::store::Store;
    use crate::StoreError;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Checkpoints `image` as the store's one part, rewritten every time.
    fn checkpoint(s: &Store, image: &[u8]) {
        s.mark_dirty("img");
        s.checkpoint_parts([("img".to_string(), |out: &mut HashWriter<File>| {
            Ok::<_, StoreError>(out.write_all(image)?)
        })])
        .unwrap();
    }

    /// The image of a shipped checkpoint's one part.
    fn image(parts: Parts) -> Vec<u8> {
        let [part]: [crate::store::Part; 1] = parts.try_into().expect("one part");
        part.bytes()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "resin-replica-test-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn ship_and_tail_follow_the_primary() {
        let src = tmp_dir("src");
        let dst = tmp_dir("dst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        ship(&src, &dst).unwrap();
        let t = tail_records(&dst, 0).unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[1].payload, b"two");
        assert!(!t.torn);
        // Incremental: only the new tail ships.
        s.append(b"three").unwrap();
        let rep = ship(&src, &dst).unwrap();
        assert_eq!(rep.segments_copied, 1);
        let t = tail_records(&dst, 2).unwrap();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].payload, b"three");
        // Idempotent when nothing changed.
        let rep = ship(&src, &dst).unwrap();
        assert_eq!(rep, ShipReport::default());
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn ship_carries_checkpoint_and_compaction() {
        let src = tmp_dir("ckptsrc");
        let dst = tmp_dir("ckptdst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.set_segment_max_bytes(64);
        for i in 0..10u32 {
            s.append(format!("r{i}").as_bytes()).unwrap();
        }
        checkpoint(&s, b"CKPT");
        s.append(b"post").unwrap();
        let rep = ship(&src, &dst).unwrap();
        assert!(rep.parts_copied >= 1);
        let (base_seq, parts) = read_checkpoint(&dst).unwrap().expect("checkpoint shipped");
        assert_eq!(base_seq, 10);
        assert_eq!(image(parts), b"CKPT");
        let t = tail_records(&dst, base_seq).unwrap();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].payload, b"post");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn shipped_replica_directory_stays_bounded_under_checkpoints() {
        let src = tmp_dir("prunesrc");
        let dst = tmp_dir("prunedst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.set_segment_max_bytes(64);
        let mut pruned_total = 0;
        for round in 0..8u32 {
            for i in 0..6u32 {
                s.append(format!("round{round}-rec{i}-payload").as_bytes())
                    .unwrap();
            }
            // Ship the live log first (the replica now holds the rotated
            // segments), then checkpoint — the next ship must prune them.
            ship(&src, &dst).unwrap();
            checkpoint(&s, format!("CKPT{round}").as_bytes());
            let rep = ship(&src, &dst).unwrap();
            pruned_total += rep.segments_pruned;
            // The replica holds a subset of the primary's segments (an
            // empty active segment is never materialized): compaction-
            // covered history is pruned, nothing else accumulates.
            let src_idx: Vec<u64> = list_segments(&src)
                .unwrap()
                .iter()
                .map(|(i, _)| *i)
                .collect();
            let dst_idx: Vec<u64> = list_segments(&dst)
                .unwrap()
                .iter()
                .map(|(i, _)| *i)
                .collect();
            assert!(
                dst_idx.iter().all(|i| src_idx.contains(i)),
                "round {round}: replica directory unbounded: src {src_idx:?} dst {dst_idx:?}"
            );
            // Superseded part images go too: every part file the replica
            // holds is one its own manifest names.
            let (_, entries) =
                decode_manifest(&std::fs::read(dst.join(MANIFEST_FILE)).unwrap()).unwrap();
            let held: Vec<String> = std::fs::read_dir(&dst)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.starts_with("part."))
                .collect();
            assert!(
                held.iter().all(|f| entries.iter().any(|e| &e.file == f)),
                "round {round}: replica keeps superseded parts: {held:?}"
            );
            // Replay still reconstructs the full state.
            let (base_seq, parts) = read_checkpoint(&dst).unwrap().expect("checkpoint shipped");
            assert_eq!(image(parts), format!("CKPT{round}").as_bytes());
            let t = tail_records(&dst, base_seq).unwrap();
            assert!(t.records.is_empty());
            assert!(!t.torn);
        }
        assert!(pruned_total > 0, "compaction never pruned anything");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn pruning_spares_uncovered_segments_and_needs_a_checkpoint() {
        let src = tmp_dir("sparesrc");
        let dst = tmp_dir("sparedst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.set_segment_max_bytes(32);
        for i in 0..6u32 {
            s.append(format!("record-{i}-padding-bytes").as_bytes())
                .unwrap();
        }
        ship(&src, &dst).unwrap();
        let shipped = list_segments(&dst).unwrap();
        assert!(shipped.len() >= 3, "cap must force rotation");
        // Simulate a primary that lost an old segment without ever
        // checkpointing: no manifest at the replica means no pruning, so
        // the replica keeps its copy (the only surviving one).
        let (lost_idx, lost_src_path) = list_segments(&src).unwrap().remove(0);
        std::fs::remove_file(&lost_src_path).unwrap();
        ship(&src, &dst).unwrap();
        assert!(
            list_segments(&dst)
                .unwrap()
                .iter()
                .any(|(i, _)| *i == lost_idx),
            "pruned without a covering checkpoint"
        );
        // Now checkpoint — compaction drops the remaining old segments at
        // the source — but hand the replica a *stale* manifest whose
        // base_seq predates the tail records: segments holding records
        // above it must survive.
        checkpoint(&s, b"CKPT");
        ship(&src, &dst).unwrap();
        let base_seq = checkpoint_base_seq(&dst).unwrap().unwrap();
        assert_eq!(base_seq, 6);
        for i in 0..4u32 {
            s.append(format!("after-ckpt-{i}-padding").as_bytes())
                .unwrap();
        }
        // Records 7..=10 live in segments the replica has; pretend the
        // primary compacted them away prematurely (a bug) by deleting
        // them at the source after shipping.
        ship(&src, &dst).unwrap();
        let src_now = list_segments(&src).unwrap();
        let (active_idx, _) = *src_now.last().unwrap();
        for (i, p) in &src_now {
            if *i < active_idx {
                std::fs::remove_file(p).unwrap();
            }
        }
        let rep = ship(&src, &dst).unwrap();
        assert_eq!(rep.segments_pruned, 0, "pruned records above base_seq");
        let t = tail_records(&dst, base_seq).unwrap();
        assert_eq!(t.records.len(), 4, "uncovered records must survive");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn torn_copy_of_a_compacted_segment_is_pruned_once_covered() {
        let src = tmp_dir("tornprunesrc");
        let dst = tmp_dir("tornprunedst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.set_segment_max_bytes(32);
        for i in 0..6u32 {
            s.append(format!("record-{i}-padding-bytes").as_bytes())
                .unwrap();
        }
        ship(&src, &dst).unwrap();
        // Tear the replica's oldest segment mid-frame (a ship that raced
        // an append), then checkpoint: the primary compacts the segment
        // away, so the tear can never be repaired — but the covering
        // manifest makes the whole segment prunable, valid prefix and
        // hidden tail alike.
        let (torn_idx, torn_path) = list_segments(&dst).unwrap().remove(0);
        let bytes = std::fs::read(&torn_path).unwrap();
        std::fs::write(&torn_path, &bytes[..bytes.len() - 3]).unwrap();
        checkpoint(&s, b"CKPT");
        let rep = ship(&src, &dst).unwrap();
        assert!(rep.segments_pruned >= 1, "torn covered segment leaked");
        assert!(
            list_segments(&dst)
                .unwrap()
                .iter()
                .all(|(i, _)| *i != torn_idx),
            "torn covered segment still present"
        );
        // Replay is whole: checkpoint plus (empty) tail.
        let (base_seq, parts) = read_checkpoint(&dst).unwrap().unwrap();
        assert_eq!(image(parts), b"CKPT");
        let t = tail_records(&dst, base_seq).unwrap();
        assert!(t.records.is_empty() && !t.torn);
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn a_corrupt_source_part_fails_the_ship_and_leaves_the_replica_as_it_was() {
        let src = tmp_dir("badpartsrc");
        let dst = tmp_dir("badpartdst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.append(b"one").unwrap();
        checkpoint(&s, b"CKPT1");
        ship(&src, &dst).unwrap();
        let names = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let shipped = names(&dst);
        let manifest = std::fs::read(dst.join(MANIFEST_FILE)).unwrap();
        // The next checkpoint writes two parts, and its second rots on the
        // primary before it ships.
        s.append(b"two").unwrap();
        s.mark_dirty("img");
        s.checkpoint_parts(["img", "z"].map(|name| {
            (name.to_string(), move |out: &mut HashWriter<File>| {
                Ok::<_, StoreError>(out.write_all(name.as_bytes())?)
            })
        }))
        .unwrap();
        let (_, entries) =
            decode_manifest(&std::fs::read(src.join(MANIFEST_FILE)).unwrap()).unwrap();
        let part = src.join(&entries[1].file);
        let mut bytes = std::fs::read(&part).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&part, &bytes).unwrap();
        let err = ship(&src, &dst).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("fails its checksum")),
            "{err:?}"
        );
        // No temp file, no new part (not even the sound first one), the
        // same manifest: the follower still reads the checkpoint it had.
        assert_eq!(names(&dst), shipped);
        assert_eq!(std::fs::read(dst.join(MANIFEST_FILE)).unwrap(), manifest);
        let (base_seq, parts) = read_checkpoint(&dst).unwrap().unwrap();
        assert_eq!(base_seq, 1);
        assert_eq!(image(parts), b"CKPT1");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn partially_shipped_frame_reads_as_torn_then_completes() {
        let src = tmp_dir("tornsrc");
        let dst = tmp_dir("torndst");
        let (s, _) = Store::open(&src).unwrap();
        s.set_sync(false);
        s.append(b"whole-record-payload").unwrap();
        ship(&src, &dst).unwrap();
        // Chop the replica's copy mid-frame, as if ship raced an append.
        let seg = crate::segment::segment_path(&dst, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let t = tail_records(&dst, 0).unwrap();
        assert!(t.torn);
        assert!(t.records.is_empty());
        // The next ship completes the frame from the source tail.
        ship(&src, &dst).unwrap();
        let t = tail_records(&dst, 0).unwrap();
        assert!(!t.torn);
        assert_eq!(t.records[0].payload, b"whole-record-payload");
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }
}
