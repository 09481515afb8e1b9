//! The durable store: a manifest-based checkpoint plus a segmented WAL,
//! with crash recovery.
//!
//! On-disk layout inside the store directory:
//!
//! ```text
//! manifest.bin   the last complete checkpoint: base sequence number plus
//!                a list of named parts (atomic: temp file + rename)
//! part.NNNNNN.bin  one immutable checkpoint part image per file; part
//!                files are written once under a fresh name and never
//!                modified, so an unchanged part carries over between
//!                checkpoints by *reference* instead of being rewritten
//! wal.NNNNNN     append-only WAL segments since that checkpoint,
//!                size-capped and rotated; compaction deletes segments
//!                fully covered by the checkpoint's base sequence number
//! wal.lock       advisory single-writer lock
//! ```
//!
//! # Recovery contract
//!
//! [`Store::open`] loads the last complete checkpoint and replays the
//! WAL's longest valid prefix *across segments*: segments are scanned in
//! index order, and the first torn or corrupt frame ends replay — the
//! torn segment is truncated to its valid prefix and every later segment
//! is discarded, exactly as a torn tail in a single file would swallow
//! everything after the tear. The manifest records the sequence number it
//! covers (`base_seq`), and replay skips records at or below it — so a
//! crash *between* "rename new manifest into place" and "delete covered
//! segments" cannot double-apply operations. Every crash point therefore
//! recovers to a consistent state: the last checkpoint plus a prefix of
//! the operations appended after it. How the log was found — clean, or
//! repaired from a tear — is the store's [`Recovery`], which every client
//! layer reports rather than keeping a copy.
//!
//! # Incremental checkpoints
//!
//! The store decides what a checkpoint rewrites. A client names the part
//! each write touched ([`Store::mark_dirty`], beside the
//! [`append`](Store::append) that logged it), and
//! [`Store::checkpoint_parts`] takes every part the checkpoint should hold
//! with a way to encode it: a part that is dirty, or that the manifest
//! lacks, is encoded into a fresh file; every other part is re-referenced
//! from the previous manifest without touching its bytes; parts absent
//! from the list are dropped. A checkpoint costs O(changed parts), not
//! O(database) — and one with nothing to do (no dirty part, nothing logged
//! since `base_seq`, the same part names) writes nothing at all.
//!
//! # Parts stream
//!
//! No part image is ever whole in memory. A part's encoder writes into a
//! [`HashWriter`] over its fresh file, which hands the file 64 KiB chunks
//! and hashes each once on the way, so the manifest's length and checksum
//! cost no second pass; a part whose encoder, write or fsync fails is
//! removed, and the manifest and dirty marks stay as they were. Recovery
//! hands the client a [`Part`] per manifest entry, whose file
//! [`Store::open`] has already streamed against the manifest's length and
//! checksum: no unverified byte reaches a decoder, and the client decodes
//! the image through its own window. So a checkpoint costs a chunk of heap
//! beyond what its encoder holds, and a recovery one window beyond the
//! state it rebuilds.
//!
//! The WAL does not say which part a record touched, so a client that
//! replays a recovered tail marks what each record writes, as it did when
//! the record was first logged.
//!
//! # Appends
//!
//! [`Store::append`] does all of its work under one lock: it claims the
//! next sequence number, rotates the segment if it is at the cap, writes
//! the frame and fsyncs it (when sync is on). The log's order is the order
//! appends took the lock, and every acknowledged durable append paid one
//! fsync of its own. A failed write truncates the segment back to the last
//! whole frame, and its sequence number is never reused (recovery
//! tolerates gaps: frames carry their own). A checkpoint takes the same
//! lock to fix the sequence number its manifest covers and to compact.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use resin_core::sync::mlock;

use crate::error::{Result, StoreError};
use crate::io::{checksum, read_all, HashWriter, Seq, Wire};
use crate::segment::{list_segments, segment_path};
use crate::wal::{encode_record, scan, Record};
use crate::wire;

pub(crate) const MANIFEST_FILE: &str = "manifest.bin";
const LOCK_FILE: &str = "wal.lock";

/// Default segment rotation threshold (bytes). Small enough that
/// compaction reclaims space promptly, large enough that rotation is
/// rare next to appends.
const DEFAULT_SEGMENT_MAX: u64 = 4 * 1024 * 1024;

/// Magic bytes opening the checkpoint manifest.
const MANIFEST_MAGIC: &[u8; 4] = b"RSTM";
const MANIFEST_VERSION: u32 = 1;

/// One manifest entry: a named part and the immutable file holding it.
#[derive(Debug, Clone)]
pub(crate) struct ManifestEntry {
    pub(crate) name: String,
    pub(crate) file: String,
    pub(crate) len: u64,
    pub(crate) sum: u64,
}

/// One part of a recovered checkpoint: its name and its image file,
/// already streamed against the manifest's length and checksum. The file
/// stays open, so the image decoded is the image verified, whatever
/// later happens to the name; decoding consumes the handle and closes it.
#[derive(Debug)]
pub struct Part {
    name: String,
    file: File,
    len: u64,
}

impl Part {
    /// The part's name, as the client gave it to the checkpoint.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The image from its first byte, unbuffered: the client reads it
    /// through its own window (`SnapshotReader::read`).
    pub fn into_image(mut self) -> Result<impl Read> {
        self.file.seek(SeekFrom::Start(0))?;
        Ok(self.file.take(self.len))
    }
}

/// The parts of a recovered checkpoint, in manifest order.
pub type Parts = Vec<Part>;

#[cfg(test)]
impl Part {
    /// The whole image, for tests of the store's own raw images.
    pub(crate) fn bytes(self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.into_image().unwrap().read_to_end(&mut bytes).unwrap();
        bytes
    }
}

/// What [`Store::open`] recovered from disk: the state its client
/// replays. How the log was found is [`Store::recovery`].
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every named part of the last checkpoint, in manifest order.
    /// Empty if no checkpoint was ever taken.
    pub parts: Parts,
    /// WAL payloads appended after that checkpoint, in append order.
    pub records: Vec<Vec<u8>>,
}

/// How [`Store::open`] found the log: the one recovery status every
/// client layer reports, read from its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Every frame on disk was whole: nothing was discarded.
    Clean,
    /// A torn frame ended the log and was truncated away. The state is
    /// consistent, but acknowledged-but-unsynced appends from the crashed
    /// process may be lost.
    TornTail,
    /// As [`TornTail`](Recovery::TornTail), found while more than one
    /// segment was on disk: recovery crossed (or discarded) a segment
    /// boundary to repair the log, a wider loss window than one in-flight
    /// append.
    TornAcrossSegments,
}

impl std::fmt::Display for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Recovery::Clean => "recovered a clean WAL",
            Recovery::TornTail => {
                "recovered from a torn WAL tail; acknowledged writes may have been discarded"
            }
            Recovery::TornAcrossSegments => {
                "recovered from a torn WAL record with several segments on disk; \
                 acknowledged writes in it and every later segment may have been discarded"
            }
        })
    }
}

/// One store's counters, read at one point in time by [`Store::stats`]:
/// segments, live WAL bytes, sequence watermarks, parts, fsyncs, and the
/// cost of the last checkpoint. They belong to the instance (a process
/// may hold several stores), so they are not `resin_core::metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL segments currently on disk.
    pub segments: u64,
    /// Bytes across those segments (appended since the last compaction).
    pub live_wal_bytes: u64,
    /// Last claimed sequence number.
    pub seq: u64,
    /// Sequence number the last checkpoint covers.
    pub base_seq: u64,
    /// Parts referenced by the current manifest.
    pub parts: u64,
    /// Parts marked dirty since the last checkpoint: what the next
    /// checkpoint will re-encode.
    pub dirty_parts: u64,
    /// Parts actually (re)written by the last checkpoint — the direct
    /// observable of incremental reuse.
    pub last_checkpoint_parts_written: u64,
    /// Wall-clock duration of the last checkpoint, microseconds.
    pub last_checkpoint_micros: u64,
    /// `fsync` calls the WAL has issued since open: one per durable
    /// append, none with sync off.
    pub syncs: u64,
}

/// The segmented WAL: the open tail segment and the counters appends
/// move. Every write to a segment happens under [`Store`]'s one lock on it.
#[derive(Debug)]
struct Wal {
    file: File,
    /// Index of the active segment.
    index: u64,
    /// Byte length of the active segment: the end of its last whole
    /// frame, where a failed write truncates back to.
    len: u64,
    /// Index of the oldest segment still on disk.
    first_index: u64,
    /// Last claimed sequence number.
    seq: u64,
    /// Sequence number the current manifest covers.
    base_seq: u64,
    /// Bytes appended across all live segments since the last
    /// compaction (diagnostics and checkpoint policy).
    live_bytes: u64,
    /// `fsync` calls the WAL has issued since open.
    syncs: u64,
    /// Whether an append fsyncs before it returns.
    sync: bool,
    /// Rotation threshold: an append that finds the active segment at or
    /// past this length opens the next segment first.
    segment_max: u64,
}

/// Fsyncs the directory `dir`, making the creates, renames and unlinks
/// in it durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A durable checkpoint+WAL store rooted at one directory. Its methods
/// take `&self`, so threads share one store by reference (or `Arc`).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    recovery: Recovery,
    /// Advisory single-writer lock, held for the store's lifetime.
    _lock: File,
    // Each mutex below is consistent at every unlock point (a failed
    // write is rolled back before the lock drops), so a panicking thread
    // must not poison the store for every other one: they are taken
    // with `mlock`.
    wal: Mutex<Wal>,
    /// Current manifest (in-memory mirror of `manifest.bin`); the source
    /// of the entries a checkpoint re-references. Held across a whole
    /// checkpoint, so checkpoints serialize; ordered before `wal`.
    manifest: Mutex<Vec<ManifestEntry>>,
    /// Parts written since the last checkpoint: the ones the next
    /// checkpoint re-encodes. No other lock is taken while it is held.
    dirty: Mutex<HashSet<String>>,
    /// Next part-file number (part files are never reused).
    next_part: AtomicU64,
    last_ckpt_micros: AtomicU64,
    last_ckpt_parts_written: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, recovering the last
    /// consistent state: checkpoint parts, surviving WAL records, and a
    /// repaired (truncated) WAL ready for appends.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Store, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // One writer per store: an advisory lock (released when the store
        // drops the file) keeps a second process from interleaving
        // appends into the same log.
        let lock_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))?;
        match lock_file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Locked(dir.display().to_string()));
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e.into()),
        }

        let (manifest, base_seq, parts) = read_checkpoint_state(&dir)?;

        let mut segments = list_segments(&dir)?;
        if segments.is_empty() {
            let path = segment_path(&dir, 1);
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&path)?;
            sync_dir(&dir)?;
            segments.push((1, path));
        }

        // Scan segments in index order; the first tear ends the log.
        let total_segments = segments.len();
        let mut records: Vec<Record> = Vec::new();
        let mut torn = false;
        let mut live_bytes = 0u64;
        let mut active: Option<(u64, File, u64)> = None;
        let first_index = segments[0].0;
        for (pos, (index, path)) in segments.iter().enumerate() {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .truncate(false)
                .open(path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let scanned = scan(&bytes)?;
            records.extend(scanned.records);
            live_bytes += scanned.valid_len as u64;
            if scanned.torn {
                // Repair: truncate the torn segment and discard every
                // later one — they are past the tear, exactly like bytes
                // after a torn tail in a single file.
                file.set_len(scanned.valid_len as u64)?;
                file.sync_data()?;
                for (_, later) in &segments[pos + 1..] {
                    std::fs::remove_file(later)?;
                }
                sync_dir(&dir)?;
                torn = true;
                file.seek(SeekFrom::Start(scanned.valid_len as u64))?;
                active = Some((*index, file, scanned.valid_len as u64));
                break;
            }
            file.seek(SeekFrom::Start(scanned.valid_len as u64))?;
            active = Some((*index, file, scanned.valid_len as u64));
        }
        let (active_index, active_file, active_len) = active.expect("at least one segment");

        let last_seq = records.last().map(|r| r.seq).unwrap_or(0);
        let seq = last_seq.max(base_seq);
        // Skip records the checkpoint already covers (crash between
        // manifest rename and segment deletion).
        let records: Vec<Vec<u8>> = records
            .into_iter()
            .filter(|r: &Record| r.seq > base_seq)
            .map(|r| r.payload)
            .collect();

        let next_part = next_part_number(&dir)?;
        remove_orphan_parts(&dir, &manifest);
        let recovery = match (torn, total_segments > 1) {
            (false, _) => Recovery::Clean,
            (true, false) => Recovery::TornTail,
            (true, true) => Recovery::TornAcrossSegments,
        };

        Ok((
            Store {
                dir,
                recovery,
                _lock: lock_file,
                wal: Mutex::new(Wal {
                    file: active_file,
                    index: active_index,
                    len: active_len,
                    first_index,
                    seq,
                    base_seq,
                    live_bytes,
                    syncs: 0,
                    sync: true,
                    segment_max: DEFAULT_SEGMENT_MAX,
                }),
                manifest: Mutex::new(manifest),
                dirty: Mutex::new(HashSet::new()),
                next_part: AtomicU64::new(next_part),
                last_ckpt_micros: AtomicU64::new(0),
                last_ckpt_parts_written: AtomicU64::new(0),
            },
            Recovered { parts, records },
        ))
    }

    /// Whether appends fsync before returning (default `true`). Turning
    /// this off trades crash durability of the very last appends for
    /// throughput — benchmarks and tests only.
    pub fn set_sync(&self, sync: bool) {
        mlock(&self.wal).sync = sync;
    }

    /// Sets the segment rotation threshold in bytes. Small values force
    /// frequent rotation (tests); the default is 4 MiB.
    pub fn set_segment_max_bytes(&self, max: u64) {
        mlock(&self.wal).segment_max = max.max(1);
    }

    /// How [`open`](Store::open) found the log: clean, or repaired from
    /// a torn tail (worth logging or alerting on).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The sequence number of the most recent append (0 if none yet).
    #[cfg(test)]
    fn seq(&self) -> u64 {
        mlock(&self.wal).seq
    }

    /// Marks `part` as written since the last checkpoint, so the next
    /// [`checkpoint_parts`](Store::checkpoint_parts) encodes it afresh.
    /// A write calls this beside the [`append`](Store::append) that
    /// logged it; recovery calls it for each replayed record.
    pub fn mark_dirty(&self, part: &str) {
        let mut dirty = mlock(&self.dirty);
        if !dirty.contains(part) {
            dirty.insert(part.to_string());
        }
    }

    /// Point-in-time diagnostics counters.
    pub fn stats(&self) -> StoreStats {
        let wal = mlock(&self.wal);
        let (segments, live_wal_bytes, seq, base_seq, syncs) = (
            wal.index - wal.first_index + 1,
            wal.live_bytes,
            wal.seq,
            wal.base_seq,
            wal.syncs,
        );
        drop(wal);
        StoreStats {
            segments,
            live_wal_bytes,
            seq,
            base_seq,
            parts: mlock(&self.manifest).len() as u64,
            dirty_parts: mlock(&self.dirty).len() as u64,
            last_checkpoint_parts_written: self.last_ckpt_parts_written.load(Ordering::Relaxed),
            last_checkpoint_micros: self.last_ckpt_micros.load(Ordering::Relaxed),
            syncs,
        }
    }

    /// Appends one record to the WAL, returning its sequence number. The
    /// record is on disk (fsynced, unless [`set_sync`](Store::set_sync)
    /// disabled it) when this returns (see the module docs).
    ///
    /// A failed write rolls the active segment back to the last whole
    /// frame: the log must not keep a partial frame — which would read as
    /// a tear at recovery and silently swallow every *later* acknowledged
    /// append — nor a complete frame the caller was told failed, which
    /// would resurrect on restart.
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        if payload.len() > u32::MAX as usize {
            // The frame's length field is u32; a silently wrapped length
            // would read back as a torn tail and truncate every record
            // after it. Refuse loudly instead.
            return Err(StoreError::Corrupt(format!(
                "record of {} bytes exceeds the 4 GiB frame limit",
                payload.len()
            )));
        }
        let mut guard = mlock(&self.wal);
        let wal = &mut *guard;
        wal.seq += 1;
        let seq = wal.seq;
        let frame = encode_record(seq, payload);
        if wal.len >= wal.segment_max && wal.len > 0 {
            // Rotate at frame boundaries only: a frame never splits
            // across segments (one may overshoot the cap instead).
            self.rotate(wal)?;
        }
        let res = (|| -> Result<()> {
            wal.file.write_all(&frame)?;
            if wal.sync {
                wal.file.sync_data()?;
                wal.syncs += 1;
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                wal.len += frame.len() as u64;
                wal.live_bytes += frame.len() as u64;
                Ok(seq)
            }
            Err(e) => {
                // Best effort on the file ops — the boundary itself is
                // already on disk.
                let _ = wal.file.set_len(wal.len);
                let _ = wal.file.seek(SeekFrom::Start(wal.len));
                let _ = wal.file.sync_data();
                Err(e)
            }
        }
    }

    /// Opens the next segment and makes it the active one. The directory
    /// entry is fsynced before any frame lands in the new file.
    fn rotate(&self, wal: &mut Wal) -> Result<()> {
        let next = wal.index + 1;
        let path = segment_path(&self.dir, next);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        if let Err(e) = sync_dir(&self.dir) {
            // Not made active: leave no file for the next rotation's
            // `create_new` to trip over.
            let _ = std::fs::remove_file(&path);
            return Err(e.into());
        }
        wal.file = file;
        wal.index = next;
        wal.len = 0;
        Ok(())
    }

    /// Checkpoints `parts` — every part the checkpoint holds, in manifest
    /// order, each with a function encoding its image — and compacts the
    /// WAL.
    ///
    /// This is the one place that decides what a checkpoint rewrites: a
    /// part [marked dirty](Store::mark_dirty) since the last checkpoint,
    /// or one the manifest lacks, is encoded into a fresh immutable file
    /// and fsynced; every other part re-references the previous
    /// manifest's file without touching its bytes, and its encoder never
    /// runs; parts absent from the list are dropped. With no part dirty,
    /// nothing logged since the last checkpoint and the same part names,
    /// the call writes nothing.
    ///
    /// The manifest is written to a temp file, fsynced, and renamed into
    /// place — readers see either the old or the new checkpoint, never a
    /// partial one. Covered WAL segments are deleted afterwards; if a
    /// crash intervenes, the base sequence number stored in the manifest
    /// keeps the stale records from replaying twice. The manifest's base
    /// sequence is read under the lock appends write under, so it never
    /// claims to cover a record that is not in the log.
    ///
    /// Each encoder writes its image into a [`HashWriter`] over the
    /// part's fresh file, which counts and hashes it for the manifest on
    /// the way. The images must hold every write appended so far: the
    /// caller keeps writers out for the whole call. If an encoder, a write
    /// or an fsync fails, the part file it was writing is removed, and the
    /// manifest and the dirty marks stay as they were for the next attempt.
    pub fn checkpoint_parts<E, F>(
        &self,
        parts: impl IntoIterator<Item = (String, F)>,
    ) -> std::result::Result<(), E>
    where
        E: From<StoreError>,
        F: FnOnce(&mut HashWriter<File>) -> std::result::Result<(), E>,
    {
        let started = Instant::now();
        let parts: Vec<(String, F)> = parts.into_iter().collect();
        let mut manifest = mlock(&self.manifest);
        let dirty = std::mem::take(&mut *mlock(&self.dirty));
        let same_names = manifest.len() == parts.len()
            && manifest
                .iter()
                .zip(&parts)
                .all(|(e, (name, _))| e.name == *name);
        let logged = {
            let wal = mlock(&self.wal);
            wal.seq != wal.base_seq
        };
        if dirty.is_empty() && same_names && !logged {
            return Ok(());
        }
        let result = (|| -> std::result::Result<(), E> {
            let previous: HashMap<&str, &ManifestEntry> =
                manifest.iter().map(|e| (e.name.as_str(), e)).collect();
            let mut entries = Vec::with_capacity(parts.len());
            let mut written = 0u64;
            for (name, encode) in parts {
                match previous.get(name.as_str()) {
                    Some(&kept) if !dirty.contains(&name) => entries.push(kept.clone()),
                    _ => {
                        let n = self.next_part.fetch_add(1, Ordering::Relaxed);
                        let file = format!("part.{n:06}.bin");
                        let (len, sum) = write_file(&self.dir.join(&file), encode)?;
                        entries.push(ManifestEntry {
                            name,
                            file,
                            len,
                            sum,
                        });
                        written += 1;
                    }
                }
            }
            drop(previous);
            self.commit_manifest(&mut manifest, entries)?;
            self.last_ckpt_parts_written
                .store(written, Ordering::Relaxed);
            self.last_ckpt_micros
                .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            Ok(())
        })();
        if result.is_err() {
            mlock(&self.dirty).extend(dirty);
        }
        result
    }

    /// Makes `entries` the durable manifest at the current sequence
    /// number, then drops the part files and WAL segments it supersedes.
    fn commit_manifest(
        &self,
        manifest: &mut Vec<ManifestEntry>,
        entries: Vec<ManifestEntry>,
    ) -> Result<()> {
        let mut guard = mlock(&self.wal);
        let wal = &mut *guard;
        let base_seq = wal.seq;
        let next = Manifest { base_seq, entries };
        write_atomic(&self.dir, MANIFEST_FILE, &encode_manifest(&next)?)?;
        // Make the rename itself durable before discarding the WAL: if it
        // cannot be, the checkpoint fails with every segment still there.
        sync_dir(&self.dir)?;

        // The new manifest is the truth: drop superseded/orphan part
        // files and every covered segment.
        *manifest = next.entries;
        remove_orphan_parts(&self.dir, manifest);

        if wal.len > 0 {
            // Rotate so every record ≤ base_seq sits in a prior segment.
            self.rotate(wal)?;
        }
        for i in wal.first_index..wal.index {
            let _ = std::fs::remove_file(segment_path(&self.dir, i));
        }
        wal.first_index = wal.index;
        // The checkpoint is durable already. A crash that undoes these
        // unlinks brings back segments the manifest covers, and opening
        // skips their records: this sync only saves disk space.
        let _ = sync_dir(&self.dir);

        wal.live_bytes = 0;
        wal.base_seq = base_seq;
        Ok(())
    }
}

wire! { ManifestEntry { name, file, len, sum } }

/// A manifest's payload: the sequence number it covers and its entries.
struct Manifest {
    base_seq: u64,
    entries: Vec<ManifestEntry>,
}

wire! { Manifest { base_seq, entries as Seq<u32> } }

/// The manifest: its magic and version, then its payload, then the
/// checksum of all of that.
fn encode_manifest(manifest: &Manifest) -> Result<Vec<u8>> {
    let mut out = MANIFEST_MAGIC.to_vec();
    MANIFEST_VERSION.put(&mut out)?;
    manifest.put(&mut out)?;
    checksum(&out).put(&mut out)?;
    Ok(out)
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<ManifestEntry>)> {
    let Some((body, trailer)) = bytes.split_last_chunk::<8>() else {
        return Err(StoreError::Corrupt("manifest too short".into()));
    };
    if checksum(body) != u64::from_le_bytes(*trailer) {
        return Err(StoreError::Corrupt("manifest checksum mismatch".into()));
    }
    read_all(body, |c| {
        if &<[u8; 4]>::get(c)? != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("bad manifest magic".into()));
        }
        let version = u32::get(c)?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::Version {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        let m = Manifest::get(c)?;
        Ok((m.base_seq, m.entries))
    })
}

/// Creates `path` and fills it through a [`HashWriter`], then fsyncs it,
/// returning its length and checksum. A failure at any step removes the
/// file: a part file exists whole or not at all.
pub(crate) fn write_file<E: From<StoreError>>(
    path: &Path,
    fill: impl FnOnce(&mut HashWriter<File>) -> std::result::Result<(), E>,
) -> std::result::Result<(u64, u64), E> {
    let result = (|| {
        let mut out = HashWriter::new(File::create(path).map_err(StoreError::from)?);
        fill(&mut out)?;
        let sum = out.sum().map_err(StoreError::from)?;
        let len = out.len();
        let file = out.finish().map_err(StoreError::from)?;
        file.sync_all().map_err(StoreError::from)?;
        Ok((len, sum))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Writes `bytes` to `dir/name` atomically: a synced temp file renamed
/// over it, so no reader observes a half-written file.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    write_file(&tmp, |out| Ok::<_, StoreError>(out.write_all(bytes)?))?;
    std::fs::rename(&tmp, dir.join(name))?;
    Ok(())
}

/// The error of a part file that does not match its manifest entry.
pub(crate) fn part_mismatch(e: &ManifestEntry) -> StoreError {
    StoreError::Corrupt(format!(
        "checkpoint part `{}` ({}) fails its checksum",
        e.name, e.file
    ))
}

/// Reads the checkpoint (manifest + part handles) without taking any
/// locks or mutating anything: each part file is opened and streamed
/// against its manifest entry, and handed out open. Shared by
/// [`Store::open`] and the read-only replica tail
/// ([`crate::replica::read_checkpoint`]).
pub(crate) fn read_checkpoint_state(dir: &Path) -> Result<(Vec<ManifestEntry>, u64, Parts)> {
    let bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), 0, Vec::new()));
        }
        Err(e) => return Err(e.into()),
    };
    let (base_seq, entries) = decode_manifest(&bytes)?;
    let mut parts = Vec::with_capacity(entries.len());
    for e in &entries {
        let mut file = File::open(dir.join(&e.file))?;
        let mut verify = HashWriter::new(std::io::sink());
        verify.copy_from(&mut file)?;
        if verify.len() != e.len || verify.sum()? != e.sum {
            return Err(part_mismatch(e));
        }
        parts.push(Part {
            name: e.name.clone(),
            file,
            len: e.len,
        });
    }
    Ok((entries, base_seq, parts))
}

/// The highest part-file number on disk plus one.
fn next_part_number(dir: &Path) -> Result<u64> {
    let mut max = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix("part.") {
            if let Some(digits) = rest.strip_suffix(".bin") {
                if let Ok(n) = digits.parse::<u64>() {
                    max = max.max(n + 1);
                }
            }
        }
    }
    Ok(max)
}

/// Deletes `part.*.bin` files not referenced by `manifest` — superseded
/// images and the debris of a crash between part write and manifest
/// rename. Best effort. The one retention rule for part files, on a
/// primary and on a replica alike.
pub(crate) fn remove_orphan_parts(dir: &Path, manifest: &[ManifestEntry]) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("part.")
            && name.ends_with(".bin")
            && !manifest.iter().any(|e| e.file == name)
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("resin-store-test-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn a_manifest_is_every_byte_of_its_body() {
        let entry = ManifestEntry {
            name: "tbl.t".into(),
            file: "part.000001.bin".into(),
            len: 9,
            sum: 7,
        };
        let manifest = Manifest {
            base_seq: 3,
            entries: vec![entry],
        };
        let bytes = encode_manifest(&manifest).unwrap();
        let (base_seq, entries) = decode_manifest(&bytes).unwrap();
        assert_eq!((base_seq, entries.len()), (3, 1));
        // One more byte before the checksum, the checksum made to match.
        let mut longer = bytes[..bytes.len() - 8].to_vec();
        longer.push(0);
        let sum = checksum(&longer);
        longer.extend_from_slice(&sum.to_le_bytes());
        let err = decode_manifest(&longer).unwrap_err();
        assert!(err.to_string().contains("after the last field"), "{err}");
    }

    fn segment_count(dir: &Path) -> usize {
        list_segments(dir).unwrap().len()
    }

    #[test]
    fn a_directory_sync_reports_its_failure() {
        let dir = tmp_dir("sync-dir");
        assert!(sync_dir(&dir).is_err(), "a missing directory is not synced");
        std::fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints fixed images, one per named part.
    fn checkpoint(s: &Store, parts: &[(&str, &[u8])]) -> Result<()> {
        s.checkpoint_parts(parts.iter().map(|&(name, image)| {
            (name.to_string(), move |out: &mut HashWriter<File>| {
                Ok(out.write_all(image)?)
            })
        }))
    }

    /// The recovered parts as `(name, image)` pairs.
    fn contents(parts: Parts) -> Vec<(String, Vec<u8>)> {
        parts
            .into_iter()
            .map(|p| (p.name().to_string(), p.bytes()))
            .collect()
    }

    /// Checkpoints `image` as the store's one part, rewritten every time.
    fn checkpoint_image(s: &Store, image: &[u8]) {
        s.mark_dirty("img");
        checkpoint(s, &[("img", image)]).unwrap();
    }

    /// The image [`checkpoint_image`] left in a recovered checkpoint.
    fn image(mut parts: Parts) -> Option<Vec<u8>> {
        match parts.pop() {
            Some(part) if parts.is_empty() && part.name() == "img" => Some(part.bytes()),
            _ => None,
        }
    }

    #[test]
    fn append_close_reopen_replays() {
        let dir = tmp_dir("replay");
        {
            let (s, r) = Store::open(&dir).unwrap();
            assert!(r.parts.is_empty());
            assert!(r.records.is_empty());
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(s.recovery(), Recovery::Clean);
        assert_eq!(s.seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_wal_and_survives() {
        let dir = tmp_dir("checkpoint");
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.append(b"pre").unwrap();
            checkpoint_image(&s, b"IMAGE");
            s.append(b"post").unwrap();
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(image(r.parts), Some(b"IMAGE".to_vec()));
        assert_eq!(r.records, vec![b"post".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let dir = tmp_dir("torn");
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.append(b"keep me").unwrap();
            s.append(b"torn away").unwrap();
        }
        // Tear the second record mid-payload.
        let wal = segment_path(&dir, 1);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 4]).unwrap();
        {
            let (s, r) = Store::open(&dir).unwrap();
            assert_eq!(r.records, vec![b"keep me".to_vec()]);
            assert_eq!(s.recovery(), Recovery::TornTail, "single segment tear");
            // The repaired log accepts new appends cleanly.
            s.append(b"after repair").unwrap();
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(
            r.records,
            vec![b"keep me".to_vec(), b"after repair".to_vec()]
        );
        assert_eq!(s.recovery(), Recovery::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_checkpoint_is_not_replayed_twice() {
        // Simulate a crash between manifest rename and segment deletion:
        // a covered segment is still on disk.
        let dir = tmp_dir("staleseq");
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.append(b"covered").unwrap();
            // Checkpoint, then put the pre-checkpoint segment back.
            let wal_bytes = std::fs::read(segment_path(&dir, 1)).unwrap();
            checkpoint_image(&s, b"SNAP");
            std::fs::write(segment_path(&dir, 1), &wal_bytes).unwrap();
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(image(r.parts), Some(b"SNAP".to_vec()));
        assert!(
            r.records.is_empty(),
            "covered records must not replay twice"
        );
        // New appends continue above the covered sequence numbers.
        assert_eq!(s.append(b"fresh").unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_of_a_live_store_is_refused() {
        let dir = tmp_dir("lock");
        let (store, _) = Store::open(&dir).unwrap();
        assert!(
            matches!(Store::open(&dir), Err(StoreError::Locked(_))),
            "advisory lock must refuse a second writer"
        );
        drop(store);
        assert!(Store::open(&dir).is_ok(), "lock released on drop");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_part_is_an_error() {
        let dir = tmp_dir("badsnap");
        {
            let (s, _) = Store::open(&dir).unwrap();
            checkpoint_image(&s, b"GOOD");
        }
        // Corrupt the single part image behind the manifest.
        let part = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("part."))
            })
            .expect("one part file");
        let mut bytes = std::fs::read(&part).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&part, &bytes).unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_rotate_segments_at_the_cap() {
        let dir = tmp_dir("rotate");
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.set_sync(false);
            s.set_segment_max_bytes(64);
            for i in 0..20u32 {
                s.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
            assert!(
                segment_count(&dir) > 1,
                "64-byte cap must force rotation: {} segments",
                segment_count(&dir)
            );
            assert_eq!(s.stats().segments as usize, segment_count(&dir));
        }
        // All records survive across the segment boundaries.
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), 20);
        assert_eq!(r.records[7], b"record-0007".to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_across_segments_drops_later_segments() {
        let dir = tmp_dir("tornseg");
        let cut_segment;
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.set_sync(false);
            s.set_segment_max_bytes(64);
            for i in 0..20u32 {
                s.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
            let segs = list_segments(&dir).unwrap();
            assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
            cut_segment = segs[1].clone();
        }
        // Tear the middle segment mid-record: everything after the tear
        // — including whole later segments — must be discarded.
        let bytes = std::fs::read(&cut_segment.1).unwrap();
        std::fs::write(&cut_segment.1, &bytes[..bytes.len() - 3]).unwrap();
        let survivors;
        {
            let (s, r) = Store::open(&dir).unwrap();
            assert_eq!(
                s.recovery(),
                Recovery::TornAcrossSegments,
                "tear dropped later segments"
            );
            survivors = r.records.len();
            assert!(survivors < 20);
            // Later segments are gone; the torn one is the active tail.
            let segs = list_segments(&dir).unwrap();
            assert_eq!(segs.last().unwrap().0, cut_segment.0);
            s.append(b"after repair").unwrap();
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), survivors + 1);
        assert_eq!(r.records.last().unwrap(), &b"after repair".to_vec());
        assert_eq!(s.recovery(), Recovery::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_covered_segments() {
        let dir = tmp_dir("compact");
        let (s, _) = Store::open(&dir).unwrap();
        s.set_sync(false);
        s.set_segment_max_bytes(64);
        for i in 0..20u32 {
            s.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        assert!(segment_count(&dir) > 1);
        checkpoint_image(&s, b"COMPACT");
        assert_eq!(
            segment_count(&dir),
            1,
            "compaction leaves only the fresh active segment"
        );
        assert_eq!(s.stats().live_wal_bytes, 0);
        let stats = s.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.base_seq, 20);
        drop(s);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(image(r.parts), Some(b"COMPACT".to_vec()));
        assert!(r.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_parts_reuse_unchanged_images() {
        let dir = tmp_dir("parts");
        let (s, _) = Store::open(&dir).unwrap();
        checkpoint(&s, &[("alpha", b"AAAA"), ("beta", b"BBBB")]).unwrap();
        assert_eq!(s.stats().last_checkpoint_parts_written, 2);
        // Second checkpoint rewrites only beta; alpha carries by reference
        // (its new image is never encoded).
        s.mark_dirty("beta");
        checkpoint(&s, &[("alpha", b"XXXX"), ("beta", b"B2B2")]).unwrap();
        let stats = s.stats();
        assert_eq!(stats.last_checkpoint_parts_written, 1);
        assert_eq!(stats.parts, 2);
        drop(s);
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(
            contents(r.parts),
            vec![
                ("alpha".to_string(), b"AAAA".to_vec()),
                ("beta".to_string(), b"B2B2".to_vec()),
            ]
        );
        // A part dropped from the list disappears, and its file with it.
        checkpoint(&s, &[("beta", b"XXXX")]).unwrap();
        assert_eq!(s.stats().parts, 1);
        assert_eq!(s.stats().last_checkpoint_parts_written, 0);
        let part_files = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("part."))
            .count();
        assert_eq!(part_files, 1, "alpha's image left with it");
        drop(s);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(
            contents(r.parts),
            vec![("beta".to_string(), b"B2B2".to_vec())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_parts_decide_what_a_checkpoint_writes() {
        let dir = tmp_dir("dirty");
        let (s, _) = Store::open(&dir).unwrap();
        s.set_sync(false);
        let encoded = RefCell::new(Vec::new());
        // Checkpoints parts `a` and `b`, returning which were encoded.
        let run = |s: &Store| {
            let log = &encoded;
            log.borrow_mut().clear();
            s.checkpoint_parts(["a", "b"].map(|name| {
                (name.to_string(), move |out: &mut HashWriter<File>| {
                    log.borrow_mut().push(name);
                    Ok::<_, StoreError>(out.write_all(name.as_bytes())?)
                })
            }))
            .unwrap();
            log.borrow().clone()
        };
        assert_eq!(s.stats().dirty_parts, 0, "a fresh store is clean");
        assert_eq!(run(&s), ["a", "b"], "missing parts are written");
        // A write dirties only its part.
        s.append(b"write to a").unwrap();
        s.mark_dirty("a");
        s.mark_dirty("a");
        assert_eq!(s.stats().dirty_parts, 1);
        assert_eq!(run(&s), ["a"]);
        assert_eq!(s.stats().dirty_parts, 0);
        // A clean checkpoint writes nothing and leaves base_seq alone.
        let base_seq = s.stats().base_seq;
        let files = |dir: &Path| {
            let mut names: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .map(|e| {
                    let bytes = std::fs::read(e.path()).unwrap();
                    (e.file_name().into_string().unwrap(), bytes)
                })
                .collect();
            names.sort();
            names
        };
        let before = files(&dir);
        assert!(run(&s).is_empty());
        assert_eq!(s.stats().base_seq, base_seq);
        assert_eq!(files(&dir), before, "not a byte written");
        // A reopen with a WAL tail is dirty: even before the client marks
        // what the tail wrote, its checkpoint is not skipped, and covers
        // the tail.
        s.append(b"tail").unwrap();
        drop(s);
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(run(&s).is_empty());
        assert_eq!(s.stats().base_seq, base_seq + 1);
        // A failed encode keeps the marks for the next attempt.
        s.mark_dirty("a");
        let failed = s.checkpoint_parts([("a".to_string(), |_: &mut HashWriter<File>| {
            Err(StoreError::Corrupt("encoder failed".into()))
        })]);
        assert!(failed.is_err());
        assert_eq!(s.stats().dirty_parts, 1);
        assert_eq!(s.stats().parts, 2, "the manifest did not move");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_streamed_part_leaves_nothing_behind() {
        let dir = tmp_dir("failpart");
        let (s, _) = Store::open(&dir).unwrap();
        checkpoint(&s, &[("a", b"A1"), ("b", b"B1")]).unwrap();
        let part_files = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.file_name().into_string().unwrap())
                .filter(|n| n.starts_with("part."))
                .collect();
            names.sort();
            names
        };
        let before = part_files();
        // `b` writes more than a chunk to its file, then fails: the file
        // goes, and the manifest and the mark stand.
        s.append(b"w").unwrap();
        s.mark_dirty("b");
        let failed = s.checkpoint_parts(["a", "b"].map(|name| {
            (name.to_string(), move |out: &mut HashWriter<File>| {
                assert_eq!(name, "b", "`a` is clean");
                out.write_all(&vec![7u8; crate::io::CHUNK + 10])?;
                Err(StoreError::Corrupt("encoder failed midway".into()))
            })
        }));
        assert!(failed.is_err());
        assert_eq!(part_files(), before, "no partial part file");
        assert_eq!(s.stats().dirty_parts, 1, "the mark is kept");
        assert_eq!(s.stats().base_seq, 0, "the manifest did not move");
        // A snapshot encoder whose writing pass strays from its sizing
        // pass fails the same way, as corrupt.
        let mut pass = 0;
        let diverged = s.checkpoint_parts([("b".to_string(), |out: &mut HashWriter<File>| {
            crate::SnapshotWriter::write(out, |w| {
                pass += 1;
                "x".repeat(pass * 40_000).put(w)
            })
        })]);
        assert!(
            matches!(diverged, Err(StoreError::Corrupt(_))),
            "{diverged:?}"
        );
        assert_eq!(part_files(), before, "no partial part file");
        assert_eq!(s.stats().dirty_parts, 1);
        drop(s);
        // A reopen reads the prior checkpoint; the next checkpoint works.
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(
            contents(r.parts),
            vec![
                ("a".to_string(), b"A1".to_vec()),
                ("b".to_string(), b"B1".to_vec()),
            ]
        );
        assert_eq!(r.records, vec![b"w".to_vec()]);
        s.mark_dirty("b");
        checkpoint(&s, &[("a", b"A1"), ("b", b"B3")]).unwrap();
        drop(s);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(
            contents(r.parts),
            vec![
                ("a".to_string(), b"A1".to_vec()),
                ("b".to_string(), b"B3".to_vec()),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_all_durable_in_seq_order() {
        // 8 committer threads share one store: every record must land,
        // exactly once, in sequence order, and survive reopen.
        let dir = tmp_dir("group");
        const THREADS: usize = 8;
        const PER: usize = 50;
        let total_syncs;
        {
            let (store, _) = Store::open(&dir).unwrap();
            let store = Arc::new(store);
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let s = store.clone();
                    std::thread::spawn(move || {
                        (0..PER)
                            .map(|i| s.append(format!("t{t}-r{i}").as_bytes()).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            let mut seqs = Vec::new();
            for h in handles {
                let got = h.join().unwrap();
                // Each thread's own appends are strictly ordered.
                assert!(got.windows(2).all(|w| w[0] < w[1]));
                seqs.extend(got);
            }
            seqs.sort_unstable();
            let expect: Vec<u64> = (1..=(THREADS * PER) as u64).collect();
            assert_eq!(seqs, expect, "every seq claimed exactly once");
            total_syncs = store.stats().syncs;
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), THREADS * PER);
        assert_eq!(s.recovery(), Recovery::Clean);
        // Every acknowledged durable append paid its own fsync.
        assert_eq!(total_syncs, (THREADS * PER) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solo_baseline_syncs_once_per_append() {
        // Each append of an uncontended appender pays exactly the one
        // fsync it needs.
        let dir = tmp_dir("solo");
        let (store, _) = Store::open(&dir).unwrap();
        store.append(b"a").unwrap();
        assert_eq!(store.stats().syncs, 1, "uncontended append = one fsync");
        store.append(b"b").unwrap();
        store.append(b"c").unwrap();
        assert_eq!(store.stats().syncs, 3);
        drop(store);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nosync_appends_recoverable() {
        let dir = tmp_dir("nosync");
        {
            let (s, _) = Store::open(&dir).unwrap();
            s.set_sync(false);
            s.append(b"fast").unwrap();
            assert_eq!(s.stats().syncs, 0, "no fsync in nosync mode");
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records, vec![b"fast".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_with_checkpoint_interleaved() {
        // Checkpoints racing appends must never lose an acknowledged
        // record: after the final checkpoint, the snapshot covers every
        // append and the WAL is empty.
        let dir = tmp_dir("ckptrace");
        const THREADS: usize = 4;
        const PER: usize = 30;
        {
            let (store, _) = Store::open(&dir).unwrap();
            let store = Arc::new(store);
            store.set_sync(false); // keep the race window tight, not slow
            let appenders: Vec<_> = (0..THREADS)
                .map(|t| {
                    let s = store.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER {
                            s.append(format!("t{t}-r{i}").as_bytes()).unwrap();
                        }
                    })
                })
                .collect();
            for _ in 0..5 {
                checkpoint_image(&store, b"MID");
                std::thread::yield_now();
            }
            for h in appenders {
                h.join().unwrap();
            }
            checkpoint_image(&store, b"FINAL");
        }
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(image(r.parts), Some(b"FINAL".to_vec()));
        assert!(r.records.is_empty(), "final checkpoint covers all appends");
        assert_eq!(s.seq(), (THREADS * PER) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_racing_appends_never_drops_acknowledged_records() {
        // The segmented variant of the checkpoint race: tiny segments
        // force rotation *and* compaction while appenders run. Every
        // acknowledged record must be recoverable — either covered by
        // the final checkpoint or present in a surviving segment.
        let dir = tmp_dir("compactrace");
        const THREADS: usize = 4;
        const PER: usize = 50;
        {
            let (store, _) = Store::open(&dir).unwrap();
            let store = Arc::new(store);
            store.set_sync(false);
            store.set_segment_max_bytes(96);
            let appenders: Vec<_> = (0..THREADS)
                .map(|t| {
                    let s = store.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER {
                            s.append(format!("t{t}-r{i}").as_bytes()).unwrap();
                        }
                    })
                })
                .collect();
            for _ in 0..8 {
                checkpoint_image(&store, b"MID");
                std::thread::yield_now();
            }
            for h in appenders {
                h.join().unwrap();
            }
            // No final checkpoint: the tail records must survive in the
            // segments compaction left behind.
            assert_eq!(store.seq(), (THREADS * PER) as u64);
        }
        let (s, r) = Store::open(&dir).unwrap();
        // Whatever the last MID checkpoint covered is in the snapshot;
        // everything after it must be in the recovered records, with no
        // gaps: base_seq + records == all acknowledged appends.
        assert_eq!(image(r.parts), Some(b"MID".to_vec()));
        assert_eq!(s.recovery(), Recovery::Clean);
        let (_, base_seq, _) = read_checkpoint_state(&dir).unwrap();
        assert_eq!(
            base_seq + r.records.len() as u64,
            (THREADS * PER) as u64,
            "every acknowledged record is covered or recovered"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_track_checkpoint_cost() {
        let dir = tmp_dir("stats");
        let (s, _) = Store::open(&dir).unwrap();
        s.append(b"x").unwrap();
        let before = s.stats();
        assert_eq!(before.base_seq, 0);
        assert!(before.live_wal_bytes > 0);
        checkpoint_image(&s, b"IMG");
        let after = s.stats();
        assert_eq!(after.base_seq, 1);
        assert_eq!(after.live_wal_bytes, 0);
        assert_eq!(after.parts, 1);
        assert!(after.last_checkpoint_micros > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_manifest_decodes_only_what_it_encodes() {
        use crate::mutants::{canonical_over, resealed, Rng};
        let mut rng = Rng::new(9);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|base_seq| {
                let entries = (0..rng.below(3))
                    .map(|k| ManifestEntry {
                        name: format!("tbl.t{k}"),
                        file: format!("part.{:06}.bin", rng.below(99)),
                        len: rng.below(1 << 20) as u64,
                        sum: rng.below(usize::MAX) as u64,
                    })
                    .collect();
                encode_manifest(&Manifest { base_seq, entries }).unwrap()
            })
            .collect();
        let encode = |(base_seq, entries): &(u64, Vec<ManifestEntry>)| {
            let (base_seq, entries) = (*base_seq, entries.clone());
            encode_manifest(&Manifest { base_seq, entries }).unwrap()
        };
        let accepted = canonical_over(&canons, resealed, |b| decode_manifest(b).ok(), encode);
        assert!(accepted > 0, "a mutant inside a name still reads");
    }
}
