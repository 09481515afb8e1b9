//! The RESIN SQL front: one [`ResinDb`] that every query crosses.
//!
//! The paper has one "RESIN SQL filter" between the application and its
//! database (§3.4.1, Figure 4; §5.3), and serves its workloads from inside
//! live web servers (§6) — many worker threads sharing one database.
//! [`ResinDb`] is that front:
//!
//! * it is a `Clone` handle (an `Arc`) over the lock-sharded
//!   `Database` and its methods take `&self`: hand one to every worker;
//! * every query runs the guard pipeline of `crate::rewrite` (the sql
//!   gate, injection guards, and each value's stored policy text);
//! * opened on a directory ([`ResinDb::open`]) it logs every mutating
//!   statement write-ahead into a shared [`resin_store::Store`] (one
//!   checkpoint part per table, plus the WAL), under the lock that orders
//!   the statement, and recovers every cell *and every cell's policies* on
//!   reopen in the order the statements executed;
//! * [`ResinDb::begin`] opens a [`Transaction`], whose writes stay in its
//!   own copies of the tables until a commit whose integrity checks pass
//!   installs them.

use std::borrow::Cow;
use std::fs::File;
use std::sync::{Arc, OnceLock};

use resin_core::{PolicyViolation, Reason, TaintedString};
use resin_store::{HashWriter, Recovery, Store};

use crate::durable::{
    decode_parts, decode_wal_batch, encode_table_part, encode_wal_batch, table_part_name,
};
use crate::engine::{Database, Table};
use crate::error::{Result, SqlError};
use crate::rewrite::{
    prepare_query, render_bound_sql, run_prepared, GuardMode, Prepared, TCell, TaintedResult,
};
use crate::txn::Transaction;
use crate::Tracking;

/// What every clone of a [`ResinDb`] handle shares.
#[derive(Debug, Default)]
struct Shared {
    db: Database,
    /// The checkpoint+WAL store of a durable database, set once at open.
    /// Its appends take turns under the store's one WAL lock, each with
    /// its own fsync.
    store: OnceLock<Store>,
    /// Set on the view an integrity check reads: its writes are refused.
    read_only: bool,
}

/// A database wrapped by the RESIN SQL filter: clone a handle per worker
/// thread.
///
/// Each handle carries its own [`GuardMode`] (so a trusted maintenance
/// path can run unguarded while request handlers keep the injection
/// guard), while all handles share the same storage and [`Tracking`] mode.
///
/// By default the database is in-memory only. [`ResinDb::open`] attaches
/// a durable [`resin_store::Store`] underneath: every mutating statement
/// is logged (post-guard, with its byte-range policies) under the lock
/// that orders it, before it executes,
/// [`checkpoint`](ResinDb::checkpoint) folds the WAL into fresh
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
///
/// Every statement crosses the filter: the engine under it is not
/// reachable from outside the crate, so nothing can run a statement past
/// the guard, policy revival or the WAL.
///
/// ```compile_fail,E0624
/// let db = resin_sql::ResinDb::new();
/// db.raw().table_names();
/// ```
#[derive(Debug, Clone)]
pub struct ResinDb {
    shared: Arc<Shared>,
    guard: GuardMode,
}

impl Default for ResinDb {
    fn default() -> Self {
        ResinDb::with_modes(Tracking::On, GuardMode::Off)
    }
}

impl ResinDb {
    /// A RESIN-tracked database with no injection guard.
    pub fn new() -> Self {
        ResinDb::default()
    }

    /// A database with explicit tracking and guard settings.
    pub fn with_modes(tracking: Tracking, guard: GuardMode) -> Self {
        let shared = Shared {
            db: Database::new(tracking == Tracking::On),
            ..Shared::default()
        };
        ResinDb {
            shared: Arc::new(shared),
            guard,
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
        let db = ResinDb::with_modes(tracking, guard);
        // Each image streams from its file, and each record is dropped
        // once decoded: recovery holds the tables, not their encodings
        // beside them.
        db.raw().reset_tables(decode_parts(recovered.parts)?);
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

    /// How [`open`](ResinDb::open) found the store's log (`Clean` when
    /// not durable): a torn tail means acknowledged-but-unsynced work from
    /// the crashed process may have been lost.
    pub fn recovery(&self) -> Recovery {
        self.store().map_or(Recovery::Clean, Store::recovery)
    }

    /// Replays one logged statement (crash recovery, and read replicas
    /// applying shipped WAL records). The logged text is post-guard, so
    /// replay skips the gate and runs the same front again. On a durable
    /// database the statement's table is dirty from here on: the
    /// checkpoint does not hold its effect yet.
    pub(crate) fn replay(&self, sql: &TaintedString) -> Result<()> {
        let tokens = crate::token::lex(sql.as_str())?;
        let stmt = crate::parser::parse(&tokens)?;
        let mut log = |name: &str| {
            self.mark_tables_dirty([name]);
            Ok(())
        };
        run_prepared(&self.shared.db, sql, &stmt, &[], &mut log)?;
        Ok(())
    }

    /// Marks tables as written since the last checkpoint (every logged
    /// write, replayed write and commit does).
    pub(crate) fn mark_tables_dirty<'a>(&self, names: impl IntoIterator<Item = &'a str>) {
        if let Some(store) = self.store() {
            for name in names {
                store.mark_dirty(&table_part_name(name));
            }
        }
    }

    /// The durable store under this database, `None` when in memory or
    /// a replica: for its counters ([`Store::stats`]). Writes go through
    /// the database, which logs them, never straight to the store.
    pub fn store(&self) -> Option<&Store> {
        self.shared.store.get()
    }

    /// Folds the WAL into a fresh checkpoint (no-op without a store). Only
    /// tables written since the last checkpoint are re-encoded; the store
    /// carries the others over by reference, and writes nothing at all
    /// when no table was written and none created or dropped.
    ///
    /// The image is encoded under the catalog's read lock and every
    /// table's read lock at once, so it is consistent across tables. It
    /// needs no lock of its own: every logged write holds a lock the
    /// checkpoint also takes, from before its WAL append until its effect
    /// has landed (its table's write lock; the catalog's for `CREATE`/`DROP
    /// TABLE` and a transaction's commit). So every record the checkpoint
    /// truncates is in the image, and no record it keeps is. A write to a
    /// missing table changes nothing, and an open transaction changes only
    /// its own copies.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = self.store() else {
            return Ok(());
        };
        // Encoded straight from the table read guards — no whole-catalog
        // deep copy.
        self.shared.db.with_all_tables(|tables| {
            store.checkpoint_parts(tables.map(|(name, t)| {
                (table_part_name(name), move |out: &mut HashWriter<File>| {
                    encode_table_part(out, name, t)
                })
            }))
        })
    }

    /// Whether WAL appends fsync before returning (default `true`;
    /// benches and tests may trade tail durability for throughput).
    pub fn set_wal_sync(&self, sync: bool) {
        if let Some(store) = self.store() {
            store.set_sync(sync);
        }
    }

    /// Total fsyncs the WAL has issued: [`StoreStats::syncs`](resin_store::StoreStats::syncs),
    /// 0 when not durable.
    pub fn wal_sync_count(&self) -> u64 {
        self.store().map_or(0, |store| store.stats().syncs)
    }

    /// Refuses a write on the read-only view an integrity check gets.
    pub(crate) fn writable(&self) -> Result<()> {
        let refused = Reason::Refused("a check may not write");
        if self.shared.read_only {
            return Err(PolicyViolation::new("IntegrityCheck", refused).into());
        }
        Ok(())
    }

    /// The [`Log`](crate::engine::Log) step of an autocommit write: on a
    /// durable database, append `sql` to the WAL and mark the table dirty.
    fn log_step<'s>(
        &'s self,
        sql: impl Fn() -> Cow<'s, TaintedString> + 's,
    ) -> impl FnMut(&str) -> Result<()> + 's {
        move |name| {
            self.writable()?;
            if let Some(store) = self.store() {
                store.append(&encode_wal_batch(std::slice::from_ref(&*sql())))?;
            }
            self.mark_tables_dirty([name]);
            Ok(())
        }
    }

    /// A transaction's view of this database (see [`Database::view`]),
    /// read-only through the handle: the transaction writes its copies
    /// into [`raw`](ResinDb::raw), and its checks read them here.
    pub(crate) fn view(&self) -> ResinDb {
        let db = self.shared.db.view();
        let shared = Arc::new(Shared {
            db,
            read_only: true,
            ..Shared::default()
        });
        ResinDb {
            shared,
            ..self.clone()
        }
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

    /// The underlying engine. A statement run through it bypasses the
    /// injection guard, policy revival and the WAL: its writes are neither
    /// logged nor marked for the next checkpoint. Crate-private for that
    /// reason: from outside, only the read-only views below reach the
    /// stored tables.
    pub(crate) fn raw(&self) -> &Database {
        &self.shared.db
    }

    /// The names of the stored tables.
    pub fn table_names(&self) -> Vec<String> {
        self.shared.db.table_names()
    }

    /// A copy of one table as a checkpoint stores it: a tracked table's
    /// policy texts in its shadow policy columns, and no policy revived.
    pub fn snapshot_table(&self, name: &str) -> Option<Table> {
        self.shared.db.snapshot_table(name)
    }

    /// The access path the planner picks for a `SELECT`, as a one-line
    /// `EXPLAIN` (e.g. `probe-eq(users via pk_users [BTREE], 1 key)`);
    /// `(not a select)` for another statement.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.shared.db.explain(sql)
    }

    /// Executes a (possibly tainted) query through the RESIN SQL filter.
    ///
    /// Any number of workers may query concurrently. On a durable database
    /// a mutating statement is logged write-ahead, post-guard, under the
    /// lock that orders it (its table's write lock; the catalog's for
    /// `CREATE`/`DROP TABLE`), so the WAL holds each table's writes in the
    /// order they ran. The fsync happens under that lock too, so each
    /// durable write pays one of its own. A statement that fails
    /// *execution* after logging stays in the WAL as a no-op (replay fails
    /// identically and is skipped) until the next checkpoint truncates it.
    pub fn query(&self, sql: &TaintedString) -> Result<TaintedResult> {
        let (sql, stmt, _) = prepare_query(Cow::Borrowed(sql), self.guard)?;
        let mut log = self.log_step(|| Cow::Borrowed(&*sql));
        run_prepared(&self.shared.db, &sql, &stmt, &[], &mut log)
    }

    /// Executes an untainted query string.
    pub fn query_str(&self, sql: &str) -> Result<TaintedResult> {
        self.query(&TaintedString::from(sql))
    }

    /// Guards, lexes, and parses a statement template once; each `?`
    /// placeholder takes a value at every
    /// [`exec_prepared`](ResinDb::exec_prepared). The returned
    /// [`Prepared`] is reusable across executions (and across databases —
    /// it holds no reference to this one).
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (text, stmt, param_spans) =
            prepare_query(Cow::Owned(TaintedString::from(sql)), self.guard)?;
        Ok(Prepared {
            text: text.into_owned(),
            stmt,
            param_spans,
        })
    }

    /// Executes a prepared statement with one value per placeholder, in
    /// text order; a count that does not match is refused before anything
    /// runs or is logged. Bound values reach the engine as data — never as
    /// query text — so this path is injection-proof by construction. On a
    /// durable database a mutating statement is WAL-logged as rendered SQL
    /// (values spliced back as escaped, label-carrying literals) so
    /// recovery replays it byte- and policy-identically, under the same
    /// lock as [`query`](ResinDb::query) logs under.
    pub fn exec_prepared(&self, prepared: &Prepared, values: Vec<TCell>) -> Result<TaintedResult> {
        if values.len() != prepared.param_spans.len() {
            return Err(SqlError::Type(format!(
                "statement has {} parameter(s), {} value(s) bound",
                prepared.param_spans.len(),
                values.len()
            )));
        }
        let mut log = self.log_step(|| Cow::Owned(render_bound_sql(prepared, &values)));
        run_prepared(
            &self.shared.db,
            &prepared.text,
            &prepared.stmt,
            &values,
            &mut log,
        )
    }

    /// Opens a transaction. No data is copied here — a table is copied
    /// lazily, on the transaction's first write to it.
    pub fn begin<'c>(&self) -> Transaction<'c> {
        Transaction::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::set_policy_text;
    use crate::value::Value;
    use resin_core::metrics::{self, Counter};
    use resin_core::{register_policy_class, FlowError, PolicyRef, SerializeError, UntrustedData};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn posts_db() -> ResinDb {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
            .unwrap();
        db.query_str("CREATE TABLE sessions (sid TEXT, user TEXT)")
            .unwrap();
        db
    }

    /// The counters of a durable database's store.
    fn stats(db: &ResinDb) -> resin_store::StoreStats {
        db.store().expect("durable").stats()
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
            let r = db.query_str("SELECT COUNT(*) FROM posts WHERE id > 100")?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("IdRange", Reason::Refused("id above 100")).into())
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
        assert!(
            db.query_str("SELECT COUNT(*) FROM posts").is_ok(),
            "the live handle still sees the table"
        );
        assert!(
            txn.query_str("SELECT COUNT(*) FROM posts").is_err(),
            "the transaction does not"
        );
        txn.rollback();
        for handle in [&db, &db.clone()] {
            let r = handle.query_str("SELECT body FROM posts").unwrap();
            assert_eq!(r.rows.len(), 1);
        }
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
                let r = db.query_str("SELECT COUNT(*) FROM t")?;
                match r.rows[0][0].as_int().map(|v| *v.value()) {
                    Some(1) => Ok(()),
                    _ => Err(
                        PolicyViolation::new("SeesOwnWrite", Reason::Refused("not one row")).into(),
                    ),
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
    fn a_wrong_value_count_is_refused_before_it_is_logged() {
        let dir = disk_dir("arity");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
            let seq = stats(&db).seq;
            for values in [vec![1i64.into()], vec![1i64.into(), "x".into(), "y".into()]] {
                let n = values.len();
                let err = db.exec_prepared(&ins, values).unwrap_err();
                assert!(matches!(err, SqlError::Type(_)), "{n} values: {err}");
                assert_eq!(stats(&db).seq, seq, "{n} values: nothing logged");
            }
        }
        let db = ResinDb::open(&dir).unwrap();
        assert_eq!(ints(&db, "SELECT COUNT(*) FROM posts"), vec![0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn text_cell(db: &ResinDb, sql: &str) -> TaintedString {
        let r = db.query_str(sql).unwrap();
        r.cell(0, "body").unwrap().as_text().unwrap().clone()
    }

    #[test]
    fn a_tainted_literal_keeps_its_utf8_bytes_and_its_span() {
        // A literal's value is its source bytes. Read one byte a `char`
        // (Latin-1), `é` would be stored as `Ã©` while the literal's
        // label, cut from the query's bytes, ends at byte 5.
        let db = posts_db();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("café"));
        q.push_str("')");
        db.query(&q).unwrap();
        let stored = db.raw().snapshot_table("posts").unwrap();
        let at = stored
            .columns
            .iter()
            .position(|c| c.name == "body")
            .unwrap();
        assert_eq!(stored.rows[0][at], crate::value::Value::Text("café".into()));
        let body = text_cell(&db, "SELECT body FROM posts");
        assert_eq!(body.as_str(), "café");
        assert_eq!(body.spans().map(|(r, _)| r).collect::<Vec<_>>(), vec![0..5]);
        assert!(body.all_bytes_have::<UntrustedData>());
    }

    #[test]
    fn a_prepared_utf8_value_is_found_by_an_equal_literal() {
        let db = posts_db();
        let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
        db.exec_prepared(&ins, vec![1i64.into(), "café".into()])
            .unwrap();
        let r = db
            .query_str("SELECT COUNT(*) FROM posts WHERE body = 'café'")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &1);
    }

    #[test]
    fn a_prepared_utf8_value_replays_from_the_wal_and_on_a_follower() {
        // The WAL holds a bound write as SQL text, so recovery and a
        // follower read the value back through the lexer.
        let base = disk_dir("utf8-replay");
        let (primary, replica) = (base.join("primary"), base.join("replica"));
        {
            let db = ResinDb::open(&primary).unwrap();
            db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
            db.exec_prepared(&ins, vec![1i64.into(), untrusted("café <b>").into()])
                .unwrap();
        }
        resin_store::ship(&primary, &replica).unwrap();
        let follower = crate::Follower::open(&replica).unwrap();
        let recovered = ResinDb::open(&primary).unwrap();
        for (who, db) in [("recovered", &recovered), ("follower", follower.db())] {
            let body = text_cell(db, "SELECT body FROM posts WHERE id = 1");
            assert_eq!(body.as_str(), "café <b>", "{who}");
            assert!(body.all_bytes_have::<UntrustedData>(), "{who}");
        }
        std::fs::remove_dir_all(&base).unwrap();
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
            assert_eq!(stats(&db).dirty_parts, 3);
            db.checkpoint().unwrap();
            let s = stats(&db);
            assert_eq!(
                s.last_checkpoint_parts_written, 3,
                "first checkpoint writes every part"
            );
            assert_eq!(stats(&db).dirty_parts, 0);

            db.query_str("INSERT INTO b VALUES (2)").unwrap();
            assert_eq!(stats(&db).dirty_parts, 1);
            db.checkpoint().unwrap();
            let s = stats(&db);
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
            assert_eq!(stats(&db).parts, 2);
            db.query_str("DROP TABLE gone").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(stats(&db).parts, 1);
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
        assert_eq!(stats(&db).dirty_parts, 0);
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (1)").unwrap();
        txn.commit().unwrap();
        assert_eq!(stats(&db).dirty_parts, 1);
        // A rolled-back transaction leaves no dirty mark behind.
        db.checkpoint().unwrap();
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (2)").unwrap();
        txn.rollback();
        assert_eq!(stats(&db).dirty_parts, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every table as the engine stores it (policy columns included).
    fn tables(db: &ResinDb) -> BTreeMap<String, Vec<Vec<Value>>> {
        db.raw()
            .table_names()
            .into_iter()
            .map(|name| {
                let rows = db.raw().snapshot_table(&name).unwrap().rows;
                (name, rows)
            })
            .collect()
    }

    fn ints(db: &ResinDb, sql: &str) -> Vec<i64> {
        let r = db.query_str(sql).unwrap();
        r.rows
            .iter()
            .map(|row| *row[0].as_int().unwrap().value())
            .collect()
    }

    /// Threads that keep the CPUs busy until dropped: crowding writers
    /// off their CPUs mid-statement is what shows a WAL order that
    /// differs from the order the writes executed in.
    struct Spinners(Arc<AtomicBool>, Vec<std::thread::JoinHandle<()>>);

    impl Spinners {
        fn start(n: usize) -> Self {
            let stop = Arc::new(AtomicBool::new(false));
            let threads = (0..n)
                .map(|_| {
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                })
                .collect();
            Spinners(stop, threads)
        }
    }

    impl Drop for Spinners {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            for t in self.1.drain(..) {
                let _ = t.join();
            }
        }
    }

    #[test]
    fn racing_same_row_updates_recover_and_ship_as_they_executed() {
        // Two writers race an UPDATE of each of 200 rows, fsync on. The
        // WAL must hold each row's two updates in the order they ran, so
        // the reopened store and a follower both end with the value the
        // live table holds.
        let _spin = Spinners::start(3);
        for trial in 0..5 {
            let base = disk_dir("race");
            let (primary, replica) = (base.join("primary"), base.join("replica"));
            let live = {
                let db = ResinDb::open(&primary).unwrap();
                db.query_str("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
                    .unwrap();
                let rows: Vec<String> = (0..200).map(|i| format!("({i}, '')")).collect();
                db.query_str(&format!("INSERT INTO kv VALUES {}", rows.join(", ")))
                    .unwrap();
                std::thread::scope(|s| {
                    for tag in ["a", "b"] {
                        let db = db.clone();
                        s.spawn(move || {
                            for i in 0..200 {
                                db.query_str(&format!(
                                    "UPDATE kv SET v = '{tag}{i}' WHERE id = {i}"
                                ))
                                .unwrap();
                            }
                        });
                    }
                });
                tables(&db)
            };
            assert_eq!(
                tables(&ResinDb::open(&primary).unwrap()),
                live,
                "trial {trial}: reopened"
            );
            resin_store::ship(&primary, &replica).unwrap();
            let follower = crate::Follower::open(&replica).unwrap();
            assert_eq!(tables(follower.db()), live, "trial {trial}: follower");
            std::fs::remove_dir_all(&base).unwrap();
        }
    }

    #[test]
    fn another_handle_never_reads_a_write_whose_check_fails() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'kept')")
            .unwrap();
        let other = db.clone();
        let mut txn = db.begin();
        txn.add_check(Box::new(|db| match ints(db, "SELECT id FROM posts")[..] {
            [id] if id <= 100 => Ok(()),
            _ => Err(PolicyViolation::new("IdRange", Reason::Refused("id above 100")).into()),
        }));
        txn.query_str("UPDATE posts SET id = 999 WHERE id = 1")
            .unwrap();
        assert_eq!(ints(&other, "SELECT id FROM posts"), vec![1]);
        let r = txn.query_str("SELECT id FROM posts").unwrap();
        assert_eq!(
            r.rows[0][0].as_int().unwrap().value(),
            &999,
            "reads its own write"
        );
        assert!(txn.commit().unwrap_err().is_violation());
        assert_eq!(ints(&other, "SELECT id FROM posts"), vec![1]);
    }

    #[test]
    fn a_rollback_keeps_another_handles_acknowledged_insert() {
        let dir = disk_dir("rollback-keeps");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            db.query_str("INSERT INTO t VALUES (1)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (2)").unwrap();
            db.clone().query_str("INSERT INTO t VALUES (3)").unwrap();
            txn.rollback();
            assert_eq!(ints(&db, "SELECT a FROM t ORDER BY a"), vec![1, 3]);
        }
        let db = ResinDb::open(&dir).unwrap();
        assert_eq!(ints(&db, "SELECT a FROM t ORDER BY a"), vec![1, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_conflicting_commit_is_refused_and_the_live_table_equals_reopen() {
        let dir = disk_dir("conflict");
        let live = {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            // A checkpoint does not wait for the open transaction, whose
            // write is in its own copy.
            let (tx, rx) = std::sync::mpsc::channel();
            let db2 = db.clone();
            let h = std::thread::spawn(move || tx.send(db2.checkpoint()).unwrap());
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("checkpoint waited for an open transaction")
                .unwrap();
            // Joined, so its handle on the store is gone before the reopen.
            h.join().unwrap();
            db.query_str("INSERT INTO t VALUES (2)").unwrap();
            let err = txn.commit().unwrap_err();
            assert!(matches!(err, SqlError::Conflict(_)), "{err}");
            assert_eq!(ints(&db, "SELECT a FROM t"), vec![2]);
            tables(&db)
        };
        assert_eq!(tables(&ResinDb::open(&dir).unwrap()), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_write_inside_a_check_is_refused() {
        let db = posts_db();
        let mut txn = db.begin();
        txn.add_check(Box::new(|db| {
            let insert = db.query_str("INSERT INTO sessions VALUES ('s1', 'eve')");
            let mut nested = db.begin();
            nested.query_str("INSERT INTO sessions VALUES ('s2', 'eve')")?;
            match (insert, nested.commit()) {
                (Err(a), Err(b)) if a.is_violation() && b.is_violation() => Ok(()),
                _ => Err(PolicyViolation::new("ReadOnly", Reason::Refused("a check wrote")).into()),
            }
        }));
        txn.query_str("INSERT INTO posts VALUES (1, 'x')").unwrap();
        txn.commit().unwrap();
        assert_eq!(ints(&db, "SELECT COUNT(*) FROM sessions"), vec![0]);
        assert_eq!(ints(&db, "SELECT COUNT(*) FROM posts"), vec![1]);
    }

    /// Counts a writer thread out when it ends, panicking or not, so the
    /// checkpointing thread that waits for the count to reach zero stops.
    struct Writing<'a>(&'a AtomicUsize);

    impl Drop for Writing<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn checkpoints_racing_writers_and_transactions_reopen_to_the_live_state() {
        // Autocommit writers on `a` and `b`, transactions committing and
        // rolling back on `c`, and a checkpoint in a loop. No write holds
        // a checkpoint lock and no checkpoint waits for a transaction. An
        // autocommit insert into `c` acknowledged while a transaction is
        // open there survives that transaction's rollback.
        let dir = disk_dir("ckpt-race");
        let live = {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            for t in ["a", "b", "c"] {
                db.query_str(&format!("CREATE TABLE {t} (k TEXT)")).unwrap();
            }
            let writing = &AtomicUsize::new(3);
            std::thread::scope(|s| {
                for t in ["a", "b"] {
                    let db = db.clone();
                    s.spawn(move || {
                        let _writing = Writing(writing);
                        for i in 0..200 {
                            db.query_str(&format!("INSERT INTO {t} VALUES ('{t}{i}')"))
                                .unwrap();
                            assert_eq!(
                                ints(&db, "SELECT COUNT(*) FROM c WHERE k = 'rolled back'"),
                                vec![0],
                                "a rolled-back write is never visible"
                            );
                        }
                    });
                }
                let txns = db.clone();
                s.spawn(move || {
                    let _writing = Writing(writing);
                    for i in 0..200 {
                        let mut txn = txns.begin();
                        if i % 2 == 0 {
                            txn.query_str(&format!("INSERT INTO c VALUES ('c{i}')"))
                                .unwrap();
                            txn.commit().unwrap();
                        } else {
                            txn.query_str("INSERT INTO c VALUES ('rolled back')")
                                .unwrap();
                            txns.query_str(&format!("INSERT INTO c VALUES ('kept{i}')"))
                                .unwrap();
                            txn.rollback();
                        }
                    }
                });
                let ckpt = db.clone();
                s.spawn(move || {
                    while writing.load(Ordering::SeqCst) > 0 {
                        ckpt.checkpoint().unwrap();
                    }
                });
            });
            assert_eq!(ints(&db, "SELECT COUNT(*) FROM c"), vec![200]);
            tables(&db)
        };
        assert_eq!(tables(&ResinDb::open(&dir).unwrap()), live);
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

    #[test]
    fn no_statement_can_name_a_policy_text() {
        // Every clause that names a column, naming the `__rp_` column a
        // checkpoint stores `v`'s policy texts in. The table is not empty:
        // an unknown column in a WHERE fails when a row reaches it.
        let reads = [
            "SELECT __rp_v FROM t",
            "SELECT v FROM t WHERE __rp_v LIKE '%'",
            "SELECT v FROM t ORDER BY __rp_v",
        ];
        let writes = [
            "UPDATE t SET __rp_v = ''",
            "UPDATE t SET v = 'y' WHERE __rp_v LIKE '%'",
            "INSERT INTO t (v, __rp_v) VALUES ('z', '')",
            "CREATE INDEX ix ON t (__rp_v)",
        ];
        let refused = |q: &str, r: Result<TaintedResult>| match r {
            Err(SqlError::Schema(m)) if m.starts_with("no column `__rp_v`") => {}
            other => panic!("{q}: {other:?}"),
        };
        // Each way a statement runs: as text, prepared, in a transaction.
        let refuse_all = |db: &ResinDb| {
            for q in reads.iter().chain(&writes) {
                refused(q, db.query_str(q));
                refused(q, db.prepare(q).and_then(|p| db.exec_prepared(&p, vec![])));
                let mut txn = db.begin();
                refused(q, txn.query_str(q));
                txn.rollback();
            }
        };
        let stored = |db: &ResinDb| {
            let r = db.query_str("SELECT v FROM t").unwrap();
            assert_eq!(r.rows.len(), 1);
            let v = r.cell(0, "v").unwrap().as_text().unwrap();
            assert_eq!(v.as_str(), "pw");
            assert!(v.all_bytes_have::<UntrustedData>());
        };
        let dir = disk_dir("reserved");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (v TEXT)").unwrap();
            let mut q = TaintedString::from("INSERT INTO t VALUES ('");
            q.push_tainted(&untrusted("pw"));
            q.push_str("')");
            db.query(&q).unwrap();
            let seq = stats(&db).seq;
            refuse_all(&db);
            // A refused write still reaches the log, once as text and once
            // prepared; a transaction's is never committed.
            assert_eq!(stats(&db).seq, seq + 2 * writes.len() as u64);
            stored(&db);
        }
        // Replayed, each is the same refusal.
        let db = ResinDb::open(&dir).unwrap();
        stored(&db);
        refuse_all(&db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_table_refuses_a_front_of_the_other_tracking_mode() {
        // A table stored tracked, reopened by an untracked front: every
        // statement on it is refused before it is logged, so the store
        // reopens tracked as it was.
        let dir = disk_dir("modes");
        {
            let db = ResinDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (v TEXT)").unwrap();
            db.query(&TaintedString::with_policy(
                "INSERT INTO t VALUES ('pw')",
                Arc::new(UntrustedData::new()),
            ))
            .unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = ResinDb::open_with_modes(&dir, Tracking::Off, GuardMode::Off).unwrap();
            let seq = stats(&db).seq;
            for q in [
                "SELECT v FROM t",
                "SELECT COUNT(*) FROM t",
                "INSERT INTO t VALUES ('x')",
                "UPDATE t SET v = 'x'",
                "DELETE FROM t",
                "CREATE INDEX ix ON t (v)",
                "CREATE TABLE IF NOT EXISTS t (v TEXT)",
                "DROP TABLE t",
            ] {
                match db.query_str(q) {
                    Err(SqlError::Schema(m)) if m.contains("is tracked") => {}
                    other => panic!("{q}: {other:?}"),
                }
            }
            assert_eq!(stats(&db).seq, seq, "nothing logged");
        }
        let db = ResinDb::open(&dir).unwrap();
        let r = db.query_str("SELECT v FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0][0]
            .as_text()
            .unwrap()
            .has_policy::<UntrustedData>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Concurrent readers and writers on *other* tables must neither block
    /// nor corrupt a transaction's rollback: the transaction's table is
    /// restored exactly, the concurrent writes all survive.
    #[test]
    fn shared_db_rollback_survives_concurrent_traffic() {
        const THREADS: usize = 8;
        let db = ResinDb::new();
        db.query_str("CREATE TABLE accounts (id INTEGER, balance INTEGER)")
            .unwrap();
        db.query_str("INSERT INTO accounts VALUES (1, 100), (2, 250)")
            .unwrap();
        db.query_str("CREATE TABLE audit (entry TEXT)").unwrap();

        let barrier = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..50 {
                        db.query_str(&format!("INSERT INTO audit VALUES ('w{t}-{i}')"))
                            .unwrap();
                        let r = db
                            .query_str("SELECT balance FROM accounts WHERE id = 1")
                            .unwrap();
                        assert_eq!(r.rows.len(), 1, "reader always sees the row");
                    }
                })
            })
            .collect();

        barrier.wait();
        // A transaction on `accounts` races all that `audit` traffic, then
        // fails its integrity check: only `accounts` must roll back.
        let mut txn = db.begin();
        txn.add_check(Box::new(|db: &ResinDb| {
            let r = db.query_str("SELECT COUNT(*) FROM accounts WHERE balance < 0")?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("NoOverdraft", Reason::Refused("negative balance")).into())
            }
        }));
        txn.query_str("UPDATE accounts SET balance = -500 WHERE id = 1")
            .unwrap();
        assert_eq!(txn.snapshotted_tables(), vec!["accounts"]);
        assert!(txn.commit().is_err(), "overdraft check fires");

        for w in writers {
            w.join().unwrap();
        }

        let r = db
            .query_str("SELECT balance FROM accounts ORDER BY id")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &100, "rolled back");
        assert_eq!(r.rows[1][0].as_int().unwrap().value(), &250);
        let r = db.query_str("SELECT COUNT(*) FROM audit").unwrap();
        assert_eq!(
            r.rows[0][0].as_int().unwrap().value(),
            &(THREADS as i64 * 50),
            "concurrent writes to the other table all survive the rollback"
        );
    }

    #[test]
    fn sql_policy_column_tampering_fails_select() {
        // An attacker (or bug) that writes junk into a stored policy text
        // cannot make the filter silently ignore it: the SELECT that revives
        // the cell fails closed. No statement can name a policy text, so
        // the junk goes in through the engine under the filter.
        let db = ResinDb::new();
        db.query_str("CREATE TABLE t (v TEXT)").unwrap();
        let mut q = TaintedString::from("INSERT INTO t VALUES ('");
        q.push_tainted(&TaintedString::with_policy(
            "pw",
            Arc::new(UntrustedData::new()),
        ));
        q.push_str("')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT v FROM t").unwrap();
        assert!(r
            .cell(0, "v")
            .unwrap()
            .as_text()
            .unwrap()
            .has_policy::<UntrustedData>());
        // Not a blob at all, a spans blob whose span names an index outside
        // its policy table, and one whose span lies wholly past the text:
        // clipped to it, that span was empty and its policy dropped, so the
        // SELECT returned the value untainted. So did a table entry that no
        // span names: a table with no spans, and one whose only span names
        // the other entry.
        for blob in [
            "corrupt{",
            "#UntrustedData{}#0..1|7",
            "#PasswordPolicy{email=u@x}#2..9|0",
            "#PasswordPolicy{email=u@x}#",
            "#PasswordPolicy{email=u@x},UntrustedData{}#0..2|1",
        ] {
            set_policy_text(db.raw(), "t", 0, "v", blob);
            match db.query_str("SELECT v FROM t") {
                Err(SqlError::Policy(FlowError::Serialize(_))) => {}
                Err(e) => panic!("{blob}: wrong error: {e}"),
                Ok(r) => panic!("{blob}: tampered cell returned: {:?}", r.cell(0, "v")),
            }
        }
    }

    /// What a `WireNoSuchClass` text revives to once the class exists.
    #[derive(Debug)]
    struct Revived;

    impl resin_core::Policy for Revived {
        fn name(&self) -> &str {
            "WireNoSuchClass"
        }

        fn serialize_fields(&self) -> Vec<(String, String)> {
            Vec::new()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// A policy text that fails to decode is decoded again on every read,
    /// and revives once its class exists: a failure is never indexed.
    #[test]
    fn a_failed_decode_is_not_indexed() {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE t (a TEXT)").unwrap();
        db.query_str("INSERT INTO t VALUES ('x'), ('y')").unwrap();
        // Straight into the engine: a cell whose policy class nobody
        // registered, and one whose class refuses to revive (what a script
        // policy's deserializer does when the linter rejects its class).
        set_policy_text(db.raw(), "t", 0, "a", "#WireNoSuchClass{owner=eve}#0..1|0");
        set_policy_text(
            db.raw(),
            "t",
            1,
            "a",
            "#WireRejectedClass{owner=eve}#0..1|0",
        );
        static REJECTIONS: AtomicUsize = AtomicUsize::new(0);
        register_policy_class("WireRejectedClass", |_| {
            REJECTIONS.fetch_add(1, Ordering::SeqCst);
            Err(SerializeError::BadField {
                class: "WireRejectedClass".into(),
                field: "<lint>".into(),
                reason: "export_check can return without deciding".into(),
            })
        });
        let decodes = || metrics::thread(Counter::PolicyDecodes);
        let before = decodes();
        let read = |q: &str| match db.query_str(q) {
            Err(SqlError::Policy(FlowError::Serialize(e))) => e,
            other => panic!("expected a serialize error, got {other:?}"),
        };
        for _ in 0..2 {
            assert_eq!(
                read("SELECT a FROM t WHERE a = 'x'"),
                SerializeError::UnknownClass("WireNoSuchClass".into())
            );
            assert!(matches!(
                read("SELECT a FROM t WHERE a = 'y'"),
                SerializeError::BadField { field, .. } if field == "<lint>"
            ));
        }
        assert_eq!(REJECTIONS.load(Ordering::SeqCst), 2, "asked both times");
        assert_eq!(decodes() - before, 4, "each read decodes again");

        // Nor is the failure remembered: once the class exists, the same
        // stored text revives.
        register_policy_class("WireNoSuchClass", |_| Ok(Arc::new(Revived) as PolicyRef));
        let r = db.query_str("SELECT a FROM t WHERE a = 'x'").unwrap();
        let TCell::Text(cell) = &r.rows[0][0] else {
            panic!("text cell")
        };
        assert!(cell.label().has_named("WireNoSuchClass"));
    }
}
