//! The RESIN SQL front: one [`ResinDb`] that every query crosses.
//!
//! The paper has one "RESIN SQL filter" between the application and its
//! database (§3.4.1, Figure 4; §5.3), and serves its workloads from inside
//! live web servers (§6) — many worker threads sharing one database.
//! [`ResinDb`] is that front:
//!
//! * it is a `Clone` handle (an `Arc`) over the lock-sharded
//!   [`Database`] and its methods take `&self`: hand one to every worker;
//! * every query runs the rewrite + guard pipeline of [`crate::rewrite`]
//!   (policy columns, injection guards, the sql gate);
//! * opened on a directory ([`ResinDb::open`]) it logs every mutating
//!   statement write-ahead into a shared [`resin_store::Store`] (one
//!   checkpoint part per table, plus the WAL) and recovers every cell *and
//!   every cell's policies* on reopen;
//! * [`ResinDb::begin`] opens a [`Transaction`] with commit-time integrity
//!   checks.

use std::borrow::Cow;
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, RwLockReadGuard};

use resin_core::sync::{mlock, rlock, wlock};
use resin_core::TaintedString;
use resin_store::Store;

use crate::durable::{
    decode_parts, decode_wal_batch, encode_table_part, encode_wal_batch, table_part_name,
};
use crate::engine::Database;
use crate::error::Result;
use crate::rewrite::{
    prepare_query, prepare_statement, render_bound_sql, run_prepared, BindValue, BoundStatement,
    GuardMode, Prepared, TaintedResult, Tracking,
};
use crate::txn::{statement_write_target, Transaction};

/// What every clone of a [`ResinDb`] handle shares.
#[derive(Debug, Default)]
struct Shared {
    db: Database,
    /// The checkpoint+WAL store of a durable database. Lock-free here
    /// (`OnceLock`, set once at open): concurrent writers call straight
    /// into the store's group-commit queue, which batches their fsyncs —
    /// serializing appends behind an outer mutex would defeat exactly that.
    store: OnceLock<Store>,
    /// Checkpoint exclusion: writers hold it shared across their WAL
    /// append → execute window, [`ResinDb::checkpoint`] holds it
    /// exclusively — so a snapshot can never land between a statement's
    /// log record and its effect on the tables.
    ckpt: RwLock<()>,
    /// Open transactions that have written. Their table changes are live
    /// but their WAL records are buffered until commit, so a checkpoint
    /// waits for this to reach zero (`txn_done` signals each finish).
    txn_writers: Mutex<usize>,
    txn_done: Condvar,
}

/// A database wrapped by the RESIN SQL filter: clone a handle per worker
/// thread.
///
/// Each handle carries its own [`Tracking`]/[`GuardMode`] settings (so a
/// trusted maintenance path can run unguarded while request handlers keep
/// the injection guard), while all handles share the same storage.
///
/// By default the database is in-memory only. [`ResinDb::open`] attaches
/// a durable [`resin_store::Store`] underneath: every mutating statement
/// is logged (post-guard, with its byte-range policies) before it
/// executes, [`checkpoint`](ResinDb::checkpoint) folds the WAL into fresh
/// images of the tables written since, and reopening the same directory —
/// even after a crash
/// that tore the WAL tail mid-record — recovers every cell *and every
/// cell's policies*.
///
/// # Examples
///
/// ```
/// use resin_sql::ResinDb;
///
/// let db = ResinDb::new();
/// db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)").unwrap();
///
/// let handle = db.clone();
/// let t = std::thread::spawn(move || {
///     handle.query_str("INSERT INTO posts VALUES (1, 'hello')").unwrap();
/// });
/// t.join().unwrap();
/// let r = db.query_str("SELECT body FROM posts").unwrap();
/// assert_eq!(r.rows.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResinDb {
    shared: Arc<Shared>,
    tracking: Tracking,
    guard: GuardMode,
    torn_recovery: bool,
    torn_cross_segment: bool,
}

impl ResinDb {
    /// A RESIN-tracked database with no injection guard.
    pub fn new() -> Self {
        ResinDb::default()
    }

    /// A database with explicit tracking and guard settings.
    pub fn with_modes(tracking: Tracking, guard: GuardMode) -> Self {
        ResinDb {
            tracking,
            guard,
            ..ResinDb::default()
        }
    }

    /// Opens (creating if needed) a durable database rooted at `dir`:
    /// loads the last checkpoint, replays the WAL's surviving prefix (torn
    /// tail tolerated), and logs every subsequent mutating statement
    /// write-ahead. All clones share the store.
    ///
    /// Tracking is on and the guard off; use
    /// [`open_with_modes`](ResinDb::open_with_modes) for other settings —
    /// a store must be reopened with the same tracking mode it was
    /// written under. Applications persisting **custom** policy classes
    /// must register them (`register_policy_class`) before opening: WAL
    /// replay revives each logged query's taint, which deserializes its
    /// policies (snapshot cells stay serialized until a SELECT revives
    /// them, exactly as in a live database).
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::open_with_modes(dir, Tracking::On, GuardMode::Off)
    }

    /// [`open`](ResinDb::open) with explicit tracking and guard settings.
    pub fn open_with_modes(
        dir: impl AsRef<std::path::Path>,
        tracking: Tracking,
        guard: GuardMode,
    ) -> Result<Self> {
        let (store, recovered) = Store::open(dir)?;
        let db = ResinDb {
            torn_recovery: recovered.torn_tail,
            torn_cross_segment: recovered.torn_cross_segment,
            ..ResinDb::with_modes(tracking, guard)
        };
        // Each image and record is dropped once decoded: recovery holds
        // the tables, not their encodings beside them.
        db.raw().reset_tables(decode_parts(&recovered.parts)?);
        drop(recovered.parts);
        // Attached first, so replay marks the tables it writes dirty;
        // replay never logs.
        let _ = db.shared.store.set(store);
        for payload in recovered.records {
            for sql in decode_wal_batch(&payload)? {
                // A statement that errors here failed identically pre-crash.
                let _ = db.replay(&sql);
            }
        }
        Ok(db)
    }

    /// True when this open discarded a torn WAL tail: the store is
    /// consistent, but acknowledged-but-unsynced work from the crashed
    /// process may have been lost — worth logging or alerting on.
    pub fn recovered_from_torn_wal(&self) -> bool {
        self.torn_recovery
    }

    /// True when the torn tail spanned a segment boundary, so recovery
    /// dropped one or more whole later segments — a wider loss window
    /// than one in-flight append.
    pub fn recovered_torn_cross_segment(&self) -> bool {
        self.torn_cross_segment
    }

    /// Replays one logged statement (crash recovery, and read replicas
    /// applying shipped WAL records). The logged text is post-guard, so
    /// replay skips the gate and re-runs the same rewrite. On a durable
    /// database the statement's table is dirty from here on: the
    /// checkpoint does not hold its effect yet.
    pub(crate) fn replay(&self, sql: &TaintedString) -> Result<()> {
        let tokens = crate::token::lex(sql.as_str())?;
        let stmt = crate::parser::parse(&tokens)?;
        if let (Some(store), Some(target)) = (self.store(), statement_write_target(&stmt)) {
            store.mark_dirty(&table_part_name(target));
        }
        run_prepared(&self.shared.db, sql, stmt, self.tracking, &[])?;
        Ok(())
    }

    fn store(&self) -> Option<&Store> {
        self.shared.store.get()
    }

    /// True when a durable store backs this database.
    pub fn is_durable(&self) -> bool {
        self.store().is_some()
    }

    /// Folds the WAL into a fresh checkpoint (no-op without a store). Only
    /// tables written since the last checkpoint are re-encoded; the store
    /// carries the others over by reference, and writes nothing at all
    /// when no table was written and none created or dropped.
    ///
    /// The checkpoint is statement-consistent: the checkpoint-exclusion
    /// lock keeps it out of every writer's WAL-append → execute window
    /// (a logged statement is never dropped unexecuted by the WAL
    /// truncation), and it waits for open *writing* transactions to
    /// finish (their table changes are live while their WAL records are
    /// buffered until commit — snapshotting mid-transaction would
    /// resurrect rollbacks or double-apply commits on recovery). The
    /// image is encoded under every table's read lock simultaneously, so
    /// it is point-in-time consistent across tables.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = self.store() else {
            return Ok(());
        };
        // Wait for writing transactions *without* holding the ckpt write
        // lock: their owner thread may need the read lock (a plain
        // durable write) before it can commit, so parking on the condvar
        // with the write lock held would deadlock the database. New
        // registrations take the read lock, so once the count reads zero
        // *under* the write lock, no transaction can slip in.
        let mut excl = wlock(&self.shared.ckpt);
        loop {
            if *mlock(&self.shared.txn_writers) == 0 {
                break;
            }
            drop(excl);
            {
                let mut open = mlock(&self.shared.txn_writers);
                while *open > 0 {
                    open = self
                        .shared
                        .txn_done
                        .wait(open)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
            excl = wlock(&self.shared.ckpt);
        }
        let _excl = excl;
        // Encoded straight from the table read guards — no whole-catalog
        // deep copy. Durable writers are already excluded by the ckpt
        // lock, and readers take the same shared locks.
        self.shared.db.with_all_tables(|tables| {
            store.checkpoint_parts(
                tables.map(|(name, t)| (table_part_name(name), move || encode_table_part(name, t))),
            )
        })
    }

    /// Live storage counters (segments, WAL bytes, checkpoint cost) of
    /// the underlying store, or `None` when not durable.
    pub fn store_stats(&self) -> Option<resin_store::StoreStats> {
        self.store().map(Store::stats)
    }

    /// Number of tables written since the last checkpoint — what the
    /// next checkpoint will re-encode.
    pub fn dirty_table_count(&self) -> usize {
        self.store().map_or(0, Store::dirty_count)
    }

    /// Marks tables as written since the last checkpoint (transactions
    /// call this at commit, when their buffered WAL record lands).
    pub(crate) fn mark_tables_dirty<'a>(&self, names: impl IntoIterator<Item = &'a str>) {
        if let Some(store) = self.store() {
            for name in names {
                store.mark_dirty(&table_part_name(name));
            }
        }
    }

    /// Whether WAL appends fsync before returning (default `true`;
    /// benches and tests may trade tail durability for throughput).
    pub fn set_wal_sync(&self, sync: bool) {
        if let Some(store) = self.store() {
            store.set_sync(sync);
        }
    }

    /// Total fsyncs the WAL has issued — the observable of group-commit
    /// amortization under concurrent committers.
    pub fn wal_sync_count(&self) -> u64 {
        self.store().map_or(0, Store::sync_count)
    }

    /// Appends statements to the WAL as one atomic record (a transaction
    /// commits its buffer this way: a crash mid-commit persists the whole
    /// transaction or none of it, never a prefix). An empty batch writes
    /// nothing.
    pub(crate) fn wal_log_batch(&self, stmts: &[TaintedString]) -> Result<()> {
        if let (Some(store), false) = (self.store(), stmts.is_empty()) {
            store.append(&encode_wal_batch(stmts))?;
        }
        Ok(())
    }

    /// Opens the checkpoint-exclusion window of a durable write to
    /// `target` and logs `sql` inside it: a checkpoint must never truncate
    /// this statement's WAL record before its effect is in the tables it
    /// snapshots, and the checkpoint that would truncate it also sees its
    /// table as dirty. `None` (nothing logged) for reads and in-memory
    /// databases.
    fn log_write<'s>(
        &self,
        target: Option<&str>,
        sql: impl FnOnce() -> Cow<'s, TaintedString>,
    ) -> Result<Option<RwLockReadGuard<'_, ()>>> {
        let (Some(store), Some(target)) = (self.store(), target) else {
            return Ok(None);
        };
        let no_ckpt = rlock(&self.shared.ckpt);
        store.append(&encode_wal_batch(std::slice::from_ref(&*sql())))?;
        store.mark_dirty(&table_part_name(target));
        Ok(Some(no_ckpt))
    }

    /// Counts a transaction's first durable write into `txn_writers`, so
    /// checkpoints wait the transaction out: a snapshot taken
    /// mid-transaction would see live table changes whose WAL records are
    /// still buffered. Blocks out a running checkpoint first.
    pub(crate) fn register_txn_writer(&self) {
        let _gate = rlock(&self.shared.ckpt);
        *mlock(&self.shared.txn_writers) += 1;
    }

    /// Undoes [`register_txn_writer`](Self::register_txn_writer) when the
    /// transaction finishes, waking a waiting checkpoint.
    pub(crate) fn unregister_txn_writer(&self) {
        *mlock(&self.shared.txn_writers) -= 1;
        self.shared.txn_done.notify_all();
    }

    /// Sets the injection guard **for this handle** (other clones keep
    /// theirs — storage is shared, modes are per handle).
    pub fn set_guard(&mut self, guard: GuardMode) {
        self.guard = guard;
    }

    /// The enforced guard mode of this handle.
    pub fn guard(&self) -> GuardMode {
        self.guard
    }

    /// The tracking mode of this handle.
    pub(crate) fn tracking(&self) -> Tracking {
        self.tracking
    }

    /// The underlying engine (for tests and diagnostics).
    pub fn raw(&self) -> &Database {
        &self.shared.db
    }

    /// Executes a (possibly tainted) query through the RESIN SQL filter.
    ///
    /// Any number of workers may query concurrently. On a durable database
    /// mutating statements hit the WAL (write-ahead) between the guard and
    /// execution — the `prepare_query`/`run_prepared` seam — so what is
    /// logged is exactly what executes. Concurrent appends group-commit
    /// (the store batches them under shared fsyncs, in the order it
    /// sequences them), and recovery replays in WAL order. Two *racing*
    /// writers to the same table may therefore recover in the other
    /// interleaving than the one that executed — every statement is
    /// preserved, but non-commuting racing writes (two UPDATEs of one row)
    /// can recover to the other winner. Racing writers partitioned by
    /// table — the discipline the lock sharding already rewards — recover
    /// exactly. A statement that fails *execution* after logging stays in
    /// the WAL as a no-op (replay fails identically and is skipped) until
    /// the next checkpoint truncates it.
    pub fn query(&self, sql: &TaintedString) -> Result<TaintedResult> {
        let (sql, stmt) = prepare_query(sql, self.guard)?;
        let _no_ckpt = self.log_write(statement_write_target(&stmt), || Cow::Borrowed(&*sql))?;
        run_prepared(&self.shared.db, &sql, stmt, self.tracking, &[])
    }

    /// Executes an untainted query string.
    pub fn query_str(&self, sql: &str) -> Result<TaintedResult> {
        self.query(&TaintedString::from(sql))
    }

    /// Guards, lexes, and parses a statement template once; `?`
    /// placeholders become bind parameters ([`Prepared::bind`]). The
    /// returned [`Prepared`] is reusable across executions (and across
    /// databases — it holds no reference to this one).
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        prepare_statement(sql, self.guard)
    }

    /// Executes a prepared statement with bound values. Bound values
    /// reach the engine as data — never as query text — so this path is
    /// injection-proof by construction. On a durable database a mutating
    /// statement is WAL-logged as rendered SQL (values spliced back as
    /// escaped, label-carrying literals) so recovery replays it byte- and
    /// policy-identically, under the same checkpoint-exclusion window as
    /// [`query`](ResinDb::query).
    pub fn run(&self, bound: &BoundStatement<'_>) -> Result<TaintedResult> {
        let p = bound.prepared;
        let _no_ckpt = self.log_write(p.write_target(), || {
            Cow::Owned(render_bound_sql(p, &bound.values))
        })?;
        run_prepared(
            &self.shared.db,
            p.text_tainted(),
            p.statement().clone(),
            self.tracking,
            &bound.values,
        )
    }

    /// [`prepare`](ResinDb::prepare)-bind-[`run`](ResinDb::run) in one
    /// call, for one-shot parameterized statements.
    pub fn exec_prepared(
        &self,
        prepared: &Prepared,
        values: Vec<BindValue>,
    ) -> Result<TaintedResult> {
        let bound = prepared.bind(values)?;
        self.run(&bound)
    }

    /// Opens a transaction. No data is copied here — tables are
    /// snapshotted lazily, on their first write.
    pub fn begin<'c>(&self) -> Transaction<'c> {
        Transaction::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyViolation, UntrustedData};

    fn posts_db() -> ResinDb {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
            .unwrap();
        db.query_str("CREATE TABLE sessions (sid TEXT, user TEXT)")
            .unwrap();
        db
    }

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn policy_roundtrip_through_shared_storage() {
        let db = posts_db();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("hello"));
        q.push_str("')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT body FROM posts").unwrap();
        let cell = r.cell(0, "body").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "hello");
        assert!(cell.has_policy::<UntrustedData>(), "taint survives storage");
    }

    #[test]
    fn injection_guard_applies_per_handle() {
        let db = posts_db();
        let mut guarded = db.clone();
        guarded.set_guard(GuardMode::StructureCheck);
        let mut q = TaintedString::from("SELECT body FROM posts WHERE id = ");
        q.push_tainted(&untrusted("1 OR 1=1"));
        assert!(guarded.query(&q).unwrap_err().is_violation());
        // The unguarded handle shares storage but not the guard.
        assert_eq!(db.guard(), GuardMode::Off);
    }

    #[test]
    fn clones_share_storage() {
        let db = posts_db();
        let other = db.clone();
        other
            .query_str("INSERT INTO posts VALUES (7, 'shared')")
            .unwrap();
        let r = db.query_str("SELECT body FROM posts WHERE id = 7").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn txn_snapshots_only_touched_tables() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'keep')")
            .unwrap();
        let mut txn = db.begin();
        txn.query_str("INSERT INTO sessions VALUES ('s1', 'alice')")
            .unwrap();
        assert_eq!(
            txn.snapshotted_tables(),
            vec!["sessions"],
            "posts was never cloned"
        );
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM sessions").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &1);
    }

    #[test]
    fn txn_commit_check_failure_restores() {
        let db = posts_db();
        let mut txn = db.begin();
        txn.add_check(Box::new(|db| {
            let r = db
                .query_str("SELECT COUNT(*) FROM posts WHERE id > 100")
                .map_err(|e| PolicyViolation::new("IdRange", e.to_string()))?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("IdRange", "id above 100"))
            }
        }));
        txn.query_str("INSERT INTO posts VALUES (999, 'out of range')")
            .unwrap();
        assert!(txn.commit().is_err());
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
    }

    #[test]
    fn txn_create_table_rolls_back_to_absent() {
        let db = posts_db();
        {
            let mut txn = db.begin();
            txn.query_str("CREATE TABLE scratch (x INTEGER)").unwrap();
            txn.query_str("INSERT INTO scratch VALUES (1)").unwrap();
            // Dropped uncommitted.
        }
        assert!(db.query_str("SELECT COUNT(*) FROM scratch").is_err());
    }

    #[test]
    fn drop_table_rolls_back() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'precious')")
            .unwrap();
        let mut txn = db.begin();
        txn.query_str("DROP TABLE posts").unwrap();
        assert!(db.query_str("SELECT COUNT(*) FROM posts").is_err());
        txn.rollback();
        let r = db.query_str("SELECT body FROM posts").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn guard_rewritten_txn_query_snapshots_one_table() {
        // The write target is read off the post-guard parse: a statement
        // the AutoSanitize guard must rewrite before it parses strictly
        // still snapshots only the table it writes.
        let mut db = posts_db();
        db.set_guard(GuardMode::AutoSanitize);
        let mut txn = db.begin();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("o'hara says hi"));
        q.push_str("')");
        txn.query(&q).unwrap();
        assert_eq!(txn.snapshotted_tables(), vec!["posts"]);
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("resin-shard-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_waits_for_writing_transactions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = disk_dir("ckpt-txn");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();

            let done = Arc::new(AtomicBool::new(false));
            let (db2, done2) = (db.clone(), done.clone());
            let h = std::thread::spawn(move || {
                db2.checkpoint().unwrap();
                done2.store(true, Ordering::SeqCst);
            });
            // Give the checkpoint ample time to (wrongly) complete: it
            // must instead be parked on the open writing transaction,
            // whose table change is live but whose WAL record is not.
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(
                !done.load(Ordering::SeqCst),
                "checkpoint must wait for the writing transaction"
            );
            txn.rollback();
            h.join().unwrap();
            assert!(done.load(Ordering::SeqCst));
        }
        // The rolled-back row must not be resurrected by recovery.
        let db = ResinDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_does_not_deadlock_mixed_txn_and_plain_writes() {
        // A checkpoint parked on an open writing transaction must not
        // hold the ckpt write lock while waiting: the transaction's own
        // thread may need the read lock (a plain durable write) before
        // it can ever commit.
        let dir = disk_dir("ckpt-deadlock");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            let db2 = db.clone();
            let h = std::thread::spawn(move || db2.checkpoint().unwrap());
            // Let the checkpoint reach its wait on the open transaction.
            std::thread::sleep(std::time::Duration::from_millis(50));
            // Pre-fix this deadlocked against the parked checkpoint.
            db.query_str("INSERT INTO t VALUES (2)").unwrap();
            txn.commit().unwrap();
            h.join().unwrap();
        }
        let db = ResinDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn integrity_check_reads_the_table_its_transaction_wrote() {
        // A check gets `&ResinDb`, not exclusive access, so this has to
        // hold by construction: a transaction keeps no table lock and no
        // checkpoint lock between statements, so its check may SELECT the
        // very table it wrote — on a durable database too, where the
        // transaction is counted against checkpoints — and commit returns.
        let dir = disk_dir("check-reads-write");
        let db = ResinDb::open(&dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = db.clone();
        let h = std::thread::spawn(move || {
            let mut txn = worker.begin();
            txn.add_check(Box::new(|db| {
                let r = db
                    .query_str("SELECT COUNT(*) FROM t")
                    .map_err(|e| PolicyViolation::new("SeesOwnWrite", e.to_string()))?;
                match r.rows[0][0].as_int().map(|v| *v.value()) {
                    Some(1) => Ok(()),
                    n => Err(PolicyViolation::new("SeesOwnWrite", format!("{n:?}"))),
                }
            }));
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            tx.send(txn.commit()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("commit deadlocked against its own write")
            .unwrap();
        h.join().unwrap();
        db.checkpoint().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prepared_writes_replay_byte_and_label_identical() {
        // A bound write is WAL-logged as rendered SQL (values spliced
        // back as escaped, labeled literals). Recovery must revive the
        // same cells — payload bytes, escaping undone, labels intact —
        // and rebuild the PRIMARY KEY index so probes work post-restart.
        let dir = disk_dir("prepared-replay");
        {
            let db =
                ResinDb::open_with_modes(&dir, Tracking::On, GuardMode::StructureCheck).unwrap();
            db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
            db.exec_prepared(&ins, vec![1i64.into(), untrusted("it's ''quoted''").into()])
                .unwrap();
            db.exec_prepared(&ins, vec![2i64.into(), "plain".into()])
                .unwrap();
        }
        let db = ResinDb::open_with_modes(&dir, Tracking::On, GuardMode::StructureCheck).unwrap();
        let sel = db.prepare("SELECT body FROM posts WHERE id = ?").unwrap();
        let r = db.exec_prepared(&sel, vec![1i64.into()]).unwrap();
        let body = r.cell(0, "body").unwrap().as_text().unwrap();
        assert_eq!(
            body.as_str(),
            "it's ''quoted''",
            "escaping undone on replay"
        );
        assert!(
            body.all_bytes_have::<UntrustedData>(),
            "labels recovered on every byte"
        );
        let r = db.exec_prepared(&sel, vec![2i64.into()]).unwrap();
        assert!(r.cell(0, "body").unwrap().as_text().unwrap().is_untainted());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_commit_is_one_atomic_wal_record() {
        // A crash mid-commit must never persist a prefix of a
        // transaction, so the whole buffered batch goes down as a single
        // WAL record (and a single fsync).
        let dir = disk_dir("txn-batch");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            txn.query_str("INSERT INTO t VALUES (2)").unwrap();
            txn.commit().unwrap();
        }
        {
            let (store, recovered) = resin_store::Store::open(&dir).unwrap();
            assert_eq!(
                recovered.records.len(),
                2,
                "CREATE plus exactly one commit record"
            );
            drop(store);
        }
        let db = ResinDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_txn_then_checkpoint_never_double_applies() {
        let dir = disk_dir("ckpt-commit");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (7)").unwrap();
            txn.commit().unwrap();
            db.checkpoint().unwrap();
        }
        let db = ResinDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            r.rows[0][0].as_int().unwrap().value(),
            &1,
            "snapshot covers the commit; its WAL record must not replay on top"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_rewrites_only_dirty_tables() {
        let dir = disk_dir("incr-ckpt");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE a (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE b (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE c (x INTEGER)").unwrap();
            db.query_str("INSERT INTO a VALUES (1)").unwrap();
            assert_eq!(db.dirty_table_count(), 3);
            db.checkpoint().unwrap();
            let s = db.store_stats().unwrap();
            assert_eq!(
                s.last_checkpoint_parts_written, 3,
                "first checkpoint writes every part"
            );
            assert_eq!(db.dirty_table_count(), 0);

            db.query_str("INSERT INTO b VALUES (2)").unwrap();
            assert_eq!(db.dirty_table_count(), 1);
            db.checkpoint().unwrap();
            let s = db.store_stats().unwrap();
            assert_eq!(s.last_checkpoint_parts_written, 1, "only b re-encoded");
            assert_eq!(s.parts, 3, "a and c carried over by reference");
        }
        // Everything recovers across incremental checkpoints.
        let db = ResinDb::open(&dir).unwrap();
        for (t, n) in [("a", 1), ("b", 1), ("c", 0)] {
            let r = db.query_str(&format!("SELECT COUNT(*) FROM {t}")).unwrap();
            assert_eq!(r.rows[0][0].as_int().unwrap().value(), &n, "table {t}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_table_leaves_the_checkpoint() {
        let dir = disk_dir("drop-ckpt");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE keep (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE gone (x INTEGER)").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.store_stats().unwrap().parts, 2);
            db.query_str("DROP TABLE gone").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.store_stats().unwrap().parts, 1);
        }
        let db = ResinDb::open(&dir).unwrap();
        assert!(db.query_str("SELECT COUNT(*) FROM keep").is_ok());
        assert!(db.query_str("SELECT COUNT(*) FROM gone").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_commit_marks_written_tables_dirty() {
        let dir = disk_dir("txn-dirty");
        let db = ResinDb::open(&dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.dirty_table_count(), 0);
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (1)").unwrap();
        txn.commit().unwrap();
        assert_eq!(db.dirty_table_count(), 1);
        // A rolled-back transaction leaves no dirty mark behind.
        db.checkpoint().unwrap();
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (2)").unwrap();
        txn.rollback();
        assert_eq!(db.dirty_table_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_policy_columns_still_hidden() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'x')").unwrap();
        let r = db.query_str("SELECT * FROM posts").unwrap();
        assert_eq!(r.columns, vec!["id", "body"]);
        assert!(db.query_str("SELECT __rp_body FROM posts").is_err());
    }
}
