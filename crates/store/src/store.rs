//! The durable store: a manifest-based checkpoint plus a segmented WAL,
//! with crash recovery and **group commit**.
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
//! the operations appended after it.
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
//! The WAL does not say which part a record touched, so a client that
//! replays a recovered tail marks what each record writes, as it did when
//! the record was first logged.
//!
//! # Group commit
//!
//! A fsynced append costs two orders of magnitude more than the write
//! itself, and it is the *fsync* that is amortizable: when N threads
//! commit concurrently, their frames can go to disk under **one**
//! `fsync` instead of N. [`Store`] is therefore a cheap `Clone` handle
//! over shared state, and [`append`](Store::append) runs a
//! leader/follower protocol:
//!
//! 1. every appender takes the queue lock, claims the next sequence
//!    number, and stages its encoded frame into a shared buffer;
//! 2. if no leader is active, the appender becomes the leader: it takes
//!    the whole staged buffer, **releases the lock**, and performs a
//!    single `write` + `fsync` for the batch;
//! 3. otherwise it parks on a condvar until the durable watermark
//!    reaches its sequence number. Frames staged while a leader is
//!    writing form the next batch — the next leader is whichever parked
//!    appender wakes first and finds the leader slot free.
//!
//! A single uncontended appender becomes leader immediately and pays
//! exactly one fsync — the floor — so group commit costs nothing when
//! there is nothing to batch. When a batched write fails, the active
//! segment is truncated back to the durable boundary and every appender
//! whose staged frame was discarded gets an error: acknowledged state and
//! recoverable state never diverge.
//!
//! The active segment lives in its own mutex, ordered *after* the queue
//! lock; exclusive write access is still the leader-protocol invariant
//! (the segment is written only by the thread that set `leader`, or under
//! the queue lock while `leader` is false) — the mutex exists so rotation
//! can swap the file handle and so read-side diagnostics can observe it.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::error::{Result, StoreError};
use crate::io::{checksum, put_str, put_u32, put_u64, Cursor};
use crate::segment::{list_segments, segment_path};
use crate::wal::{encode_record, scan, Record};

pub(crate) const MANIFEST_FILE: &str = "manifest.bin";
const MANIFEST_TMP: &str = "manifest.tmp";
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

/// Named checkpoint parts in manifest order: `(part name, image bytes)`.
pub type Parts = Vec<(String, Vec<u8>)>;

/// What [`Store::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every named part of the last checkpoint, in manifest order.
    /// Empty if no checkpoint was ever taken.
    pub parts: Parts,
    /// WAL payloads appended after that checkpoint, in append order.
    pub records: Vec<Vec<u8>>,
    /// True when a torn WAL tail was discarded during recovery.
    pub torn_tail: bool,
    /// True when the torn tail was found while more than one WAL segment
    /// was on disk — i.e. recovery crossed (or discarded) a segment
    /// boundary to repair the log. Surfaced so operators can tell a
    /// mundane single-segment tear from one that dropped whole segments.
    pub torn_cross_segment: bool,
}

/// Point-in-time counters for diagnostics (see the observability
/// satellite): segment count, live WAL bytes, sequence watermarks, and
/// the cost of the last checkpoint.
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
    /// Parts actually (re)written by the last checkpoint — the direct
    /// observable of incremental reuse.
    pub last_checkpoint_parts_written: u64,
    /// Wall-clock duration of the last checkpoint, microseconds.
    pub last_checkpoint_micros: u64,
}

/// The segmented WAL plus the group-commit queue, shared by every clone
/// of the owning [`Store`].
///
/// The active segment sits in its own mutex (ordered after `state`) so
/// rotation can replace the handle. Exclusive *write* access is a
/// protocol invariant, not the mutex: frames are written only (a) by the
/// thread that set `leader` under the queue lock, or (b) under the queue
/// lock while `leader` is false.
#[derive(Debug)]
struct WalShared {
    dir: PathBuf,
    /// Advisory single-writer lock, held for the store's lifetime.
    _lock: File,
    active: Mutex<ActiveWal>,
    state: Mutex<WalState>,
    /// Signaled whenever the durable watermark advances, a batch fails,
    /// or the leader slot frees — parked appenders re-check their seq.
    durable: Condvar,
    /// Number of `fsync` calls issued, ever. Lets benchmarks and tests
    /// observe the amortization directly: with group commit, 8 threads ×
    /// K appends need far fewer than 8·K syncs.
    syncs: AtomicU64,
    /// Current manifest (in-memory mirror of `manifest.bin`); the source
    /// of the entries a checkpoint re-references. Held across a whole
    /// checkpoint, so checkpoints serialize; ordered before `state`.
    manifest: Mutex<Vec<ManifestEntry>>,
    /// Parts written since the last checkpoint: the ones the next
    /// checkpoint re-encodes. No other lock is taken while it is held.
    dirty: Mutex<HashSet<String>>,
    /// Next part-file number (part files are never reused).
    next_part: AtomicU64,
    /// Sequence number the current manifest covers.
    base_seq: AtomicU64,
    last_ckpt_micros: AtomicU64,
    last_ckpt_parts_written: AtomicU64,
}

/// The open tail segment of the log.
#[derive(Debug)]
struct ActiveWal {
    file: File,
    /// Index of the active segment.
    index: u64,
    /// Durable byte length of the active segment (the rollback target
    /// for a failed batch write).
    len: u64,
    /// Index of the oldest segment still on disk.
    first_index: u64,
}

#[derive(Debug)]
struct WalState {
    /// Last *claimed* sequence number (staged or durable).
    seq: u64,
    /// Last sequence number whose frame is in the file (and fsynced,
    /// when sync is on). `durable_seq < seq` exactly when frames are
    /// staged or a leader is mid-write.
    durable_seq: u64,
    /// Bytes appended across all live segments since the last
    /// compaction (diagnostics and checkpoint policy).
    live_bytes: u64,
    /// Encoded frames staged for the next batch write, in seq order.
    staged: Vec<u8>,
    /// Inclusive seq ranges discarded by failed batch writes. Sequence
    /// numbers are never reused (recovery tolerates gaps — frames carry
    /// their own seq), so a parked appender can distinguish "my frame
    /// became durable" from "a later batch with a recycled seq did".
    /// Grows only on WAL I/O failure, which is terminal in practice.
    dead: Vec<(u64, u64)>,
    /// True while some appender is writing a batch outside the lock.
    leader: bool,
    sync: bool,
    /// Rotation threshold: a batch that finds the active segment at or
    /// past this length opens the next segment first.
    segment_max: u64,
}

// The queue is consistent at every unlock point (frames are staged as
// complete units), so a panicking appender must not poison the store
// for every other thread.
fn lock(shared: &WalShared) -> MutexGuard<'_, WalState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_active(shared: &WalShared) -> MutexGuard<'_, ActiveWal> {
    shared.active.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_manifest(shared: &WalShared) -> MutexGuard<'_, Vec<ManifestEntry>> {
    shared
        .manifest
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn lock_dirty(shared: &WalShared) -> MutexGuard<'_, HashSet<String>> {
    shared.dirty.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort directory fsync, making renames/creates/unlinks durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A durable checkpoint+WAL store rooted at one directory.
///
/// `Store` is a cheap `Clone` handle: clones share the WAL segments, the
/// sequence counter, and the group-commit queue, so any number of
/// threads may [`append`](Store::append) concurrently and share fsyncs.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    shared: Arc<WalShared>,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, recovering the last
    /// consistent state: checkpoint parts, surviving WAL records, and a
    /// repaired (truncated) WAL ready for appends.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Store, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // One writer per store: an advisory lock (released when the last
        // clone drops the file) keeps a second process from interleaving
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
            sync_dir(&dir);
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
                sync_dir(&dir);
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

        Ok((
            Store {
                dir: dir.clone(),
                shared: Arc::new(WalShared {
                    dir,
                    _lock: lock_file,
                    active: Mutex::new(ActiveWal {
                        file: active_file,
                        index: active_index,
                        len: active_len,
                        first_index,
                    }),
                    state: Mutex::new(WalState {
                        seq,
                        durable_seq: seq,
                        live_bytes,
                        staged: Vec::new(),
                        dead: Vec::new(),
                        leader: false,
                        sync: true,
                        segment_max: DEFAULT_SEGMENT_MAX,
                    }),
                    durable: Condvar::new(),
                    syncs: AtomicU64::new(0),
                    manifest: Mutex::new(manifest),
                    dirty: Mutex::new(HashSet::new()),
                    next_part: AtomicU64::new(next_part),
                    base_seq: AtomicU64::new(base_seq),
                    last_ckpt_micros: AtomicU64::new(0),
                    last_ckpt_parts_written: AtomicU64::new(0),
                }),
            },
            Recovered {
                parts,
                records,
                torn_tail: torn,
                torn_cross_segment: torn && total_segments > 1,
            },
        ))
    }

    /// Whether appends fsync before returning (default `true`). Turning
    /// this off trades crash durability of the very last appends for
    /// throughput — benchmarks and tests only.
    pub fn set_sync(&self, sync: bool) {
        lock(&self.shared).sync = sync;
    }

    /// Sets the segment rotation threshold in bytes. Small values force
    /// frequent rotation (tests); the default is 4 MiB.
    pub fn set_segment_max_bytes(&self, max: u64) {
        lock(&self.shared).segment_max = max.max(1);
    }

    /// Number of `fsync` calls this store has issued since open — the
    /// direct observable of group-commit amortization.
    pub fn sync_count(&self) -> u64 {
        self.shared.syncs.load(Ordering::Relaxed)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number of the most recent append (0 if none yet).
    pub fn seq(&self) -> u64 {
        lock(&self.shared).seq
    }

    /// Live WAL bytes across all segments (diagnostics and checkpoint
    /// policy).
    pub fn wal_len(&self) -> u64 {
        lock(&self.shared).live_bytes
    }

    /// The sequence number the current checkpoint covers (0 if none).
    pub fn base_seq(&self) -> u64 {
        self.shared.base_seq.load(Ordering::Relaxed)
    }

    /// Marks `part` as written since the last checkpoint, so the next
    /// [`checkpoint_parts`](Store::checkpoint_parts) encodes it afresh.
    /// A write calls this beside the [`append`](Store::append) that
    /// logged it; recovery calls it for each replayed record.
    pub fn mark_dirty(&self, part: &str) {
        let mut dirty = lock_dirty(&self.shared);
        if !dirty.contains(part) {
            dirty.insert(part.to_string());
        }
    }

    /// Number of parts marked dirty since the last checkpoint — what the
    /// next checkpoint will re-encode.
    pub fn dirty_count(&self) -> usize {
        lock_dirty(&self.shared).len()
    }

    /// Point-in-time diagnostics counters.
    pub fn stats(&self) -> StoreStats {
        let state = lock(&self.shared);
        let (seq, live) = (state.seq, state.live_bytes);
        drop(state);
        let active = lock_active(&self.shared);
        let segments = active.index - active.first_index + 1;
        drop(active);
        StoreStats {
            segments,
            live_wal_bytes: live,
            seq,
            base_seq: self.shared.base_seq.load(Ordering::Relaxed),
            parts: lock_manifest(&self.shared).len() as u64,
            last_checkpoint_parts_written: self
                .shared
                .last_ckpt_parts_written
                .load(Ordering::Relaxed),
            last_checkpoint_micros: self.shared.last_ckpt_micros.load(Ordering::Relaxed),
        }
    }

    /// Appends one record to the WAL, returning its sequence number. The
    /// record is on disk (fsynced, unless [`set_sync`](Store::set_sync)
    /// disabled it) when this returns. Concurrent appends share one
    /// fsync per batch (see the module docs).
    ///
    /// A failed batch write rolls the active segment back to the durable
    /// record boundary: the log must not keep a partial frame — which
    /// would read as a tear at recovery and silently swallow every
    /// *later* acknowledged append — nor a complete frame the caller was
    /// told failed, which would resurrect on restart. Every appender
    /// whose staged frame was discarded gets the error.
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
        let mut state = lock(&self.shared);
        state.seq += 1;
        let seq = state.seq;
        let frame = encode_record(seq, payload);
        state.staged.extend_from_slice(&frame);

        if !state.sync && !state.leader {
            // Without sync there is no fsync to share: flush everything
            // staged right here, under the lock — just a buffered write.
            // (If a leader is mid-write the file is not ours — fall
            // through to the queue protocol, which handles the frame.)
            return self.flush_staged(&mut state).map(|()| seq);
        }

        loop {
            // Dead check first: the durable watermark advances past the
            // seq gap a failed batch leaves behind.
            if state.dead.iter().any(|&(lo, hi)| lo <= seq && seq <= hi) {
                return Err(StoreError::Io(std::io::Error::other(
                    "append discarded: batched WAL write failed",
                )));
            }
            if state.durable_seq >= seq {
                return Ok(seq);
            }
            if !state.leader {
                // Become the leader for everything staged so far.
                state.leader = true;
                let segment_max = state.segment_max;
                // Gather window: drop the lock and yield once so peers
                // just woken by the previous commit can stage into this
                // batch instead of arriving right after the fsync starts
                // (which would halve the effective batch size). For an
                // uncontended writer this costs one sched_yield — noise
                // next to the fsync itself.
                drop(state);
                std::thread::yield_now();
                state = lock(&self.shared);
                let batch = std::mem::take(&mut state.staged);
                let batch_high = state.seq;
                drop(state);
                let outcome = self.write_durable(&batch, true, segment_max);
                state = lock(&self.shared);
                state.leader = false;
                match outcome {
                    Ok(()) => {
                        state.durable_seq = state.durable_seq.max(batch_high);
                        state.live_bytes += batch.len() as u64;
                        self.shared.durable.notify_all();
                        // Loop around: our own seq is inside the batch.
                    }
                    Err(e) => {
                        // The segment is already rolled back to the
                        // durable boundary; fail every in-flight append:
                        // the batch *and* frames staged behind it, whose
                        // seq numbers assume our batch landed.
                        self.rollback(&mut state);
                        return Err(e);
                    }
                }
            } else {
                state = self
                    .shared
                    .durable
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Writes `batch` at the active segment's cursor, rotating first if
    /// the segment is at the cap, and (optionally) fsyncs. On a failed
    /// write the segment is truncated back to the pre-batch boundary.
    /// The caller must hold exclusive write access per the protocol
    /// invariant on [`WalShared`].
    fn write_durable(&self, batch: &[u8], sync: bool, segment_max: u64) -> Result<()> {
        let mut active = lock_active(&self.shared);
        if active.len >= segment_max && active.len > 0 && !batch.is_empty() {
            // Rotate at batch boundaries only: a frame never splits
            // across segments (a batch may overshoot the cap instead).
            self.rotate_locked(&mut active)?;
        }
        let boundary = active.len;
        let res = (|| -> Result<()> {
            active.file.write_all(batch)?;
            if sync {
                active.file.sync_data()?;
                self.shared.syncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                active.len += batch.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Best effort on the file ops — the boundary itself is
                // already durable.
                let _ = active.file.set_len(boundary);
                let _ = active.file.seek(SeekFrom::Start(boundary));
                let _ = active.file.sync_data();
                Err(e)
            }
        }
    }

    /// Opens the next segment and makes it the active one. The directory
    /// entry is fsynced before any frame lands in the new file.
    fn rotate_locked(&self, active: &mut ActiveWal) -> Result<()> {
        let next = active.index + 1;
        let path = segment_path(&self.shared.dir, next);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        sync_dir(&self.shared.dir);
        active.file = file;
        active.index = next;
        active.len = 0;
        Ok(())
    }

    /// Marks every undurable claimed seq dead after a failed batch write
    /// so its appender errors out (the file itself was already rolled
    /// back by [`write_durable`](Store::write_durable)).
    fn rollback(&self, state: &mut WalState) {
        state.staged.clear();
        // The failed batch plus anything staged behind it: all claimed,
        // none durable.
        state.dead.push((state.durable_seq + 1, state.seq));
        self.shared.durable.notify_all();
    }

    /// Flushes all staged frames under the held lock. Caller must ensure
    /// no leader is active (so the active segment is exclusively ours).
    fn flush_staged(&self, state: &mut WalState) -> Result<()> {
        let staged = std::mem::take(&mut state.staged);
        if staged.is_empty() {
            return Ok(());
        }
        let high = state.seq;
        match self.write_durable(&staged, state.sync, state.segment_max) {
            Ok(()) => {
                state.durable_seq = high;
                state.live_bytes += staged.len() as u64;
                self.shared.durable.notify_all();
                Ok(())
            }
            Err(e) => {
                self.rollback(state);
                Err(e)
            }
        }
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
    /// keeps the stale records from replaying twice. Any staged-but-
    /// unwritten frames are flushed first, so the manifest's base sequence
    /// never claims to cover a record that is not on disk.
    ///
    /// The images must hold every write appended so far: the caller keeps
    /// writers out for the whole call. If encoding or writing fails, the
    /// dirty marks are kept for the next attempt.
    pub fn checkpoint_parts<E, F>(
        &self,
        parts: impl IntoIterator<Item = (String, F)>,
    ) -> std::result::Result<(), E>
    where
        E: From<StoreError>,
        F: FnOnce() -> std::result::Result<Vec<u8>, E>,
    {
        let started = Instant::now();
        let parts: Vec<(String, F)> = parts.into_iter().collect();
        let mut manifest = lock_manifest(&self.shared);
        let dirty = std::mem::take(&mut *lock_dirty(&self.shared));
        let same_names = manifest.len() == parts.len()
            && manifest
                .iter()
                .zip(&parts)
                .all(|(e, (name, _))| e.name == *name);
        if dirty.is_empty() && same_names && self.seq() == self.base_seq() {
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
                        entries.push(self.write_part(name, &encode()?)?);
                        written += 1;
                    }
                }
            }
            drop(previous);
            self.commit_manifest(&mut manifest, entries)?;
            self.shared
                .last_ckpt_parts_written
                .store(written, Ordering::Relaxed);
            self.shared
                .last_ckpt_micros
                .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            Ok(())
        })();
        if result.is_err() {
            lock_dirty(&self.shared).extend(dirty);
        }
        result
    }

    /// Writes one part image to a fresh immutable file and fsyncs it.
    fn write_part(&self, name: String, image: &[u8]) -> Result<ManifestEntry> {
        let n = self.shared.next_part.fetch_add(1, Ordering::Relaxed);
        let file = format!("part.{n:06}.bin");
        let mut f = File::create(self.dir.join(&file))?;
        f.write_all(image)?;
        f.sync_all()?;
        Ok(ManifestEntry {
            name,
            file,
            len: image.len() as u64,
            sum: checksum(image),
        })
    }

    /// Makes `entries` the durable manifest at the current sequence
    /// number, then drops the part files and WAL segments it supersedes.
    fn commit_manifest(
        &self,
        manifest: &mut Vec<ManifestEntry>,
        entries: Vec<ManifestEntry>,
    ) -> Result<()> {
        let mut state = lock(&self.shared);
        // Wait out any in-flight batch write: compacting under a leader
        // would corrupt the log.
        while state.leader {
            state = self
                .shared
                .durable
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.flush_staged(&mut state)?;
        let base_seq = state.seq;

        let tmp = self.dir.join(MANIFEST_TMP);
        let fin = self.dir.join(MANIFEST_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&encode_manifest(base_seq, &entries))?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &fin)?;
        // Make the rename itself durable before discarding the WAL.
        sync_dir(&self.dir);

        // The new manifest is the truth: drop superseded/orphan part
        // files and every covered segment.
        *manifest = entries;
        remove_orphan_parts(&self.dir, manifest);

        let mut active = lock_active(&self.shared);
        if active.len > 0 {
            // Rotate so every record ≤ base_seq sits in a prior segment.
            self.rotate_locked(&mut active)?;
        }
        for i in active.first_index..active.index {
            let _ = std::fs::remove_file(segment_path(&self.dir, i));
        }
        active.first_index = active.index;
        drop(active);
        sync_dir(&self.dir);

        state.live_bytes = 0;
        self.shared.base_seq.store(base_seq, Ordering::Relaxed);
        Ok(())
    }
}

fn encode_manifest(base_seq: u64, entries: &[ManifestEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, MANIFEST_VERSION);
    put_u64(&mut out, base_seq);
    put_u32(&mut out, entries.len() as u32);
    for e in entries {
        put_str(&mut out, &e.name);
        put_str(&mut out, &e.file);
        put_u64(&mut out, e.len);
        put_u64(&mut out, e.sum);
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<ManifestEntry>)> {
    if bytes.len() < 8 {
        return Err(StoreError::Corrupt("manifest too short".into()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("len 8"));
    if checksum(body) != stored {
        return Err(StoreError::Corrupt("manifest checksum mismatch".into()));
    }
    let mut c = Cursor::new(body);
    let magic = [c.u8()?, c.u8()?, c.u8()?, c.u8()?];
    if &magic != MANIFEST_MAGIC {
        return Err(StoreError::Corrupt("bad manifest magic".into()));
    }
    let version = c.u32()?;
    if version != MANIFEST_VERSION {
        return Err(StoreError::Version {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    let base_seq = c.u64()?;
    let count = c.u32()?;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = c.str()?;
        let file = c.str()?;
        let len = c.u64()?;
        let sum = c.u64()?;
        entries.push(ManifestEntry {
            name,
            file,
            len,
            sum,
        });
    }
    Ok((base_seq, entries))
}

/// Reads the checkpoint (manifest + part images) without taking any
/// locks or mutating anything. Shared by [`Store::open`] and the
/// read-only replica tail ([`crate::replica::read_checkpoint`]).
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
        let image = std::fs::read(dir.join(&e.file))?;
        if image.len() as u64 != e.len || checksum(&image) != e.sum {
            return Err(StoreError::Corrupt(format!(
                "checkpoint part `{}` ({}) fails its checksum",
                e.name, e.file
            )));
        }
        parts.push((e.name.clone(), image));
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

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("resin-store-test-{}-{tag}-{n}", std::process::id()))
    }

    fn segment_count(dir: &Path) -> usize {
        list_segments(dir).unwrap().len()
    }

    /// Checkpoints fixed images, one per named part.
    fn checkpoint(s: &Store, parts: &[(&str, &[u8])]) -> Result<()> {
        s.checkpoint_parts(
            parts
                .iter()
                .map(|&(name, image)| (name.to_string(), move || Ok(image.to_vec()))),
        )
    }

    /// Checkpoints `image` as the store's one part, rewritten every time.
    fn checkpoint_image(s: &Store, image: &[u8]) {
        s.mark_dirty("img");
        checkpoint(s, &[("img", image)]).unwrap();
    }

    /// The image [`checkpoint_image`] left in a recovered checkpoint.
    fn image(r: &Recovered) -> Option<&[u8]> {
        match r.parts.as_slice() {
            [(name, image)] if name == "img" => Some(image),
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
        assert!(!r.torn_tail);
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
        assert_eq!(image(&r), Some(b"IMAGE" as &[u8]));
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
            assert!(r.torn_tail);
            assert!(!r.torn_cross_segment, "single segment tear");
            // The repaired log accepts new appends cleanly.
            s.append(b"after repair").unwrap();
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(
            r.records,
            vec![b"keep me".to_vec(), b"after repair".to_vec()]
        );
        assert!(!r.torn_tail);
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
        assert_eq!(image(&r), Some(b"SNAP" as &[u8]));
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
            assert!(r.torn_tail);
            assert!(r.torn_cross_segment, "tear dropped later segments");
            survivors = r.records.len();
            assert!(survivors < 20);
            // Later segments are gone; the torn one is the active tail.
            let segs = list_segments(&dir).unwrap();
            assert_eq!(segs.last().unwrap().0, cut_segment.0);
            s.append(b"after repair").unwrap();
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), survivors + 1);
        assert_eq!(r.records.last().unwrap(), &b"after repair".to_vec());
        assert!(!r.torn_tail);
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
        assert_eq!(s.wal_len(), 0);
        let stats = s.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.base_seq, 20);
        drop(s);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(image(&r), Some(b"COMPACT" as &[u8]));
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
            r.parts,
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
        assert_eq!(r.parts, vec![("beta".to_string(), b"B2B2".to_vec())]);
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
                (name.to_string(), move || {
                    log.borrow_mut().push(name);
                    Ok::<_, StoreError>(name.as_bytes().to_vec())
                })
            }))
            .unwrap();
            log.borrow().clone()
        };
        assert_eq!(s.dirty_count(), 0, "a fresh store is clean");
        assert_eq!(run(&s), ["a", "b"], "missing parts are written");
        // A write dirties only its part.
        s.append(b"write to a").unwrap();
        s.mark_dirty("a");
        s.mark_dirty("a");
        assert_eq!(s.dirty_count(), 1);
        assert_eq!(run(&s), ["a"]);
        assert_eq!(s.dirty_count(), 0);
        // A clean checkpoint writes nothing and leaves base_seq alone.
        let base_seq = s.base_seq();
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
        assert_eq!(s.base_seq(), base_seq);
        assert_eq!(files(&dir), before, "not a byte written");
        // A reopen with a WAL tail is dirty: even before the client marks
        // what the tail wrote, its checkpoint is not skipped, and covers
        // the tail.
        s.append(b"tail").unwrap();
        drop(s);
        let (s, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(run(&s).is_empty());
        assert_eq!(s.base_seq(), base_seq + 1);
        // A failed encode keeps the marks for the next attempt.
        s.mark_dirty("a");
        let failed = s.checkpoint_parts([("a".to_string(), || {
            Err(StoreError::Corrupt("encoder failed".into()))
        })]);
        assert!(failed.is_err());
        assert_eq!(s.dirty_count(), 1);
        assert_eq!(s.stats().parts, 2, "the manifest did not move");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_all_durable_in_seq_order() {
        // 8 committer threads share one store: every record must land,
        // exactly once, in sequence order, and survive reopen —
        // regardless of how the leader batches them.
        let dir = tmp_dir("group");
        const THREADS: usize = 8;
        const PER: usize = 50;
        let total_syncs;
        {
            let (store, _) = Store::open(&dir).unwrap();
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
            total_syncs = store.sync_count();
            assert!(total_syncs >= 1);
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records.len(), THREADS * PER);
        assert!(!r.torn_tail);
        // Sanity on the amortization mechanism: syncs can never exceed
        // appends. (The *ratio* is measured in the net_throughput bench,
        // not asserted here, to keep the test scheduler-independent.)
        assert!(total_syncs <= (THREADS * PER) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solo_baseline_syncs_once_per_append() {
        // Group commit costs an uncontended appender nothing: each of its
        // appends pays exactly the one fsync it needs, the floor.
        let dir = tmp_dir("solo");
        let (store, _) = Store::open(&dir).unwrap();
        store.append(b"a").unwrap();
        assert_eq!(store.sync_count(), 1, "uncontended append = one fsync");
        store.append(b"b").unwrap();
        store.append(b"c").unwrap();
        assert_eq!(store.sync_count(), 3);
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
            assert_eq!(s.sync_count(), 0, "no fsync in nosync mode");
        }
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records, vec![b"fast".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_share_sequence_and_file() {
        let dir = tmp_dir("clones");
        let (a, _) = Store::open(&dir).unwrap();
        let b = a.clone();
        assert_eq!(a.append(b"from a").unwrap(), 1);
        assert_eq!(b.append(b"from b").unwrap(), 2);
        assert_eq!(a.seq(), 2);
        drop(a);
        drop(b);
        let (_, r) = Store::open(&dir).unwrap();
        assert_eq!(r.records, vec![b"from a".to_vec(), b"from b".to_vec()]);
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
        assert_eq!(image(&r), Some(b"FINAL" as &[u8]));
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
        let (_, r) = Store::open(&dir).unwrap();
        // Whatever the last MID checkpoint covered is in the snapshot;
        // everything after it must be in the recovered records, with no
        // gaps: base_seq + records == all acknowledged appends.
        assert_eq!(image(&r), Some(b"MID" as &[u8]));
        assert!(!r.torn_tail);
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
}
