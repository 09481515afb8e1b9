//! Read replicas: a [`Follower`] tails a shipped store directory.
//!
//! The primary's durable artifacts are shipped (rsync-style, see
//! [`resin_store::ship`]) into a replica directory; a `Follower` opens
//! that directory **read-only** — no store lock, no mutation — decodes
//! the last shipped checkpoint into an in-memory [`ResinDb`], and
//! replays the shipped WAL tail through the *identical* replay pipeline
//! the primary's own crash recovery uses. Replica reads therefore revive
//! byte- and label-identical cells: a policy can no more be laundered
//! through a replica than through the primary, because the replica
//! stores the same policy text beside each value and its gates enforce
//! the same `export_check`s.
//!
//! Consistency model: a follower is *eventually consistent* with the
//! primary — [`applied_seq`](Follower::applied_seq) is the watermark of
//! the last WAL record applied, and its distance from the primary's
//! current sequence number quantifies staleness. Reads are
//! always *self-consistent* (a complete prefix of the primary's WAL
//! order), never torn: [`catch_up`](Follower::catch_up) stops at a
//! partially shipped frame and resumes once the next ship completes it.
//!
//! The follower's database handle is **not** write-protected at this
//! layer — it is an ordinary in-memory `ResinDb` — so serving layers
//! must route writes to the primary (resin-net's `--replica` mode
//! rejects mutating endpoints). A write applied locally would silently
//! diverge from the primary and be overwritten by no one: replay never
//! rewinds, it only appends.

use std::path::{Path, PathBuf};

#[cfg(test)]
use resin_core::TaintedString;

use crate::durable::{decode_parts, decode_wal_batch};
use crate::error::Result;
use crate::rewrite::GuardMode;
use crate::shard::ResinDb;
use crate::Tracking;

/// A read replica: an in-memory [`ResinDb`] kept in sync with a
/// shipped store directory by replaying its WAL tail.
pub struct Follower {
    db: ResinDb,
    dir: PathBuf,
    applied_seq: u64,
}

impl Follower {
    /// Opens a follower over the shipped store directory `dir`:
    /// decodes the last shipped checkpoint, then applies the shipped
    /// WAL tail. Tracking on, guard off — see
    /// [`open_with_modes`](Follower::open_with_modes).
    pub fn open(dir: impl AsRef<Path>) -> Result<Follower> {
        Self::open_with_modes(dir, Tracking::On, GuardMode::Off)
    }

    /// [`open`](Follower::open) with explicit tracking and guard
    /// settings — use the same tracking mode the primary was written
    /// under, exactly as when reopening the primary itself.
    pub fn open_with_modes(
        dir: impl AsRef<Path>,
        tracking: Tracking,
        guard: GuardMode,
    ) -> Result<Follower> {
        let dir = dir.as_ref().to_path_buf();
        let (base_seq, tables) = match resin_store::read_checkpoint(&dir)? {
            Some((base_seq, parts)) => (base_seq, decode_parts(parts)?),
            None => (0, Default::default()),
        };
        let db = ResinDb::with_modes(tracking, guard);
        db.raw().reset_tables(tables);
        let mut follower = Follower {
            db,
            dir,
            applied_seq: base_seq,
        };
        follower.catch_up()?;
        Ok(follower)
    }

    /// Applies every newly shipped WAL record, returning how many were
    /// applied. Statements replay through the same pipeline as primary
    /// crash recovery; one that failed execution on the primary fails
    /// identically here and is skipped. Idempotent: records at or below
    /// the watermark are never re-applied.
    ///
    /// If the primary checkpointed and compacted records *before they
    /// were ever shipped*, the shipped log has a sequence gap above the
    /// watermark. The follower detects the gap and rebuilds from the
    /// shipped checkpoint — which by construction covers every record
    /// at or below its base sequence number — then resumes tailing.
    pub fn catch_up(&mut self) -> Result<u64> {
        let mut tailed = resin_store::tail_records(&self.dir, self.applied_seq)?;
        let contiguous = tailed.records.first().map(|r| r.seq) == Some(self.applied_seq + 1);
        if !contiguous && resin_store::checkpoint_base_seq(&self.dir)? > Some(self.applied_seq) {
            if let Some((base_seq, parts)) = resin_store::read_checkpoint(&self.dir)? {
                self.db.raw().reset_tables(decode_parts(parts)?);
                self.applied_seq = base_seq;
                tailed = resin_store::tail_records(&self.dir, self.applied_seq)?;
            }
        }
        let mut applied = 0u64;
        for record in &tailed.records {
            for sql in decode_wal_batch(&record.payload)? {
                let _ = self.db.replay(&sql);
            }
            self.applied_seq = record.seq;
            applied += 1;
        }
        Ok(applied)
    }

    /// The read-serving database. Clone the handle freely; route writes
    /// to the primary (see the module docs).
    pub fn db(&self) -> &ResinDb {
        &self.db
    }

    /// Sequence number of the last WAL record applied — the replica's
    /// consistency watermark.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Records this replica is behind a primary whose current sequence
    /// number is `primary_seq` (the primary's `StoreStats::seq`).
    #[cfg(test)]
    pub(crate) fn lag(&self, primary_seq: u64) -> u64 {
        primary_seq.saturating_sub(self.applied_seq)
    }

    /// Replays one already-decoded statement (crate-internal: tests and
    /// divergence diagnostics).
    #[cfg(test)]
    pub(crate) fn apply_raw(&self, sql: &TaintedString) -> Result<()> {
        self.db.replay(sql)
    }
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("dir", &self.dir)
            .field("applied_seq", &self.applied_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::UntrustedData;
    use std::sync::Arc;

    fn dirs(tag: &str) -> (PathBuf, PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let base =
            std::env::temp_dir().join(format!("resin-follower-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("primary"), base.join("replica"))
    }

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn follower_serves_byte_and_label_identical_reads() {
        let (primary_dir, replica_dir) = dirs("identical");
        let db = ResinDb::open(&primary_dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
            .unwrap();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("tainted body"));
        q.push_str("')");
        db.query(&q).unwrap();
        db.checkpoint().unwrap();
        db.query_str("INSERT INTO posts VALUES (2, 'post-checkpoint')")
            .unwrap();

        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        let follower = Follower::open(&replica_dir).unwrap();
        let r_primary = db.query_str("SELECT id, body FROM posts").unwrap();
        let r_replica = follower
            .db()
            .query_str("SELECT id, body FROM posts")
            .unwrap();
        assert_eq!(r_primary.rows.len(), 2);
        assert_eq!(r_replica.rows.len(), 2);
        for (a, b) in r_primary.rows.iter().zip(&r_replica.rows) {
            for (ca, cb) in a.iter().zip(b) {
                match (ca.as_text(), cb.as_text()) {
                    (Some(ta), Some(tb)) => {
                        assert_eq!(ta.as_str(), tb.as_str(), "byte-identical");
                        assert!(ta.taint_eq(tb), "label-identical");
                    }
                    _ => assert_eq!(ca.as_int().unwrap().value(), cb.as_int().unwrap().value()),
                }
            }
        }
        let body = r_replica.cell(0, "body").unwrap().as_text().unwrap();
        assert!(
            body.has_policy::<UntrustedData>(),
            "policies revive on the replica"
        );
        std::fs::remove_dir_all(primary_dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn catch_up_tracks_the_watermark_and_lag() {
        let (primary_dir, replica_dir) = dirs("lag");
        let db = ResinDb::open(&primary_dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        db.query_str("INSERT INTO t VALUES (1)").unwrap();
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        let mut follower = Follower::open(&replica_dir).unwrap();
        assert_eq!(follower.applied_seq(), 2);
        assert_eq!(follower.lag(db.store().unwrap().stats().seq), 0);

        // The primary advances; lag is visible until ship + catch_up.
        db.query_str("INSERT INTO t VALUES (2)").unwrap();
        db.query_str("INSERT INTO t VALUES (3)").unwrap();
        let primary_seq = db.store().unwrap().stats().seq;
        assert_eq!(follower.lag(primary_seq), 2);
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        assert_eq!(follower.catch_up().unwrap(), 2);
        assert_eq!(follower.lag(primary_seq), 0);
        let r = follower.db().query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &3);
        // Idempotent: nothing new to apply.
        assert_eq!(follower.catch_up().unwrap(), 0);
        std::fs::remove_dir_all(primary_dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn follower_survives_primary_checkpoint_compaction() {
        // After the follower opens, the primary checkpoints (compacting
        // shipped segments away at the source). The replica keeps its
        // already-shipped segments, so catch_up never loses records; a
        // *fresh* follower starts from the shipped checkpoint instead.
        let (primary_dir, replica_dir) = dirs("compact");
        let db = ResinDb::open(&primary_dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        let mut follower = Follower::open(&replica_dir).unwrap();

        db.query_str("INSERT INTO t VALUES (1)").unwrap();
        db.checkpoint().unwrap();
        db.query_str("INSERT INTO t VALUES (2)").unwrap();
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        follower.catch_up().unwrap();
        let r = follower.db().query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);

        let fresh = Follower::open(&replica_dir).unwrap();
        let r = fresh.db().query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
        assert_eq!(fresh.applied_seq(), follower.applied_seq());
        std::fs::remove_dir_all(primary_dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn follower_reads_a_table_recreated_under_a_reused_part_file() {
        // The primary drops `posts`, so the checkpoint deletes its part
        // file; after a restart the part number is counted again from the
        // files on disk and the re-created table's image lands in the same
        // file name with the same length. The replica must not mistake its
        // stale copy for the new image.
        let (primary_dir, replica_dir) = dirs("reused-part");
        {
            let db = ResinDb::open(&primary_dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE accounts (a INTEGER)").unwrap();
            db.query_str("CREATE TABLE posts (s TEXT)").unwrap();
            db.query_str("INSERT INTO posts VALUES ('old-row')")
                .unwrap();
            db.checkpoint().unwrap();
            resin_store::ship(&primary_dir, &replica_dir).unwrap();
            db.query_str("DROP TABLE posts").unwrap();
            db.checkpoint().unwrap();
            resin_store::ship(&primary_dir, &replica_dir).unwrap();
        }
        let db = ResinDb::open(&primary_dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE posts (s TEXT)").unwrap();
        db.query_str("INSERT INTO posts VALUES ('new-row')")
            .unwrap();
        db.checkpoint().unwrap();
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        let follower = Follower::open(&replica_dir).unwrap();
        let r = follower.db().query_str("SELECT s FROM posts").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            r.cell(0, "s").unwrap().as_text().unwrap().as_str(),
            "new-row"
        );
        std::fs::remove_dir_all(primary_dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn local_divergence_is_not_masked_by_replay() {
        // A write applied directly to the follower's db (a serving-layer
        // bug) diverges; replay does not rewind it. This documents why
        // the net layer must reject writes on replicas.
        let (primary_dir, replica_dir) = dirs("diverge");
        let db = ResinDb::open(&primary_dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        resin_store::ship(&primary_dir, &replica_dir).unwrap();
        let follower = Follower::open(&replica_dir).unwrap();
        follower
            .apply_raw(&TaintedString::from("INSERT INTO t VALUES (99)"))
            .unwrap();
        let r = follower.db().query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &1, "diverged");
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
        std::fs::remove_dir_all(primary_dir.parent().unwrap()).unwrap();
    }
}
