//! Transactions with commit-time integrity assertions (§8, future work).
//!
//! The paper's planned approach to data *integrity* invariants: "using
//! transactions to buffer database or file system changes, and checking a
//! programmer-specified assertion before committing them." A
//! [`Transaction`] buffers changes, applies queries, and runs the
//! programmer's integrity checks at commit; if any check fails, every
//! buffered change is rolled back.
//!
//! Snapshots are **lazy and per table**: a table is copied only when the
//! transaction first writes it, so touching one small table never clones
//! the large cold ones next to it. The write target of each statement is
//! read off the *prepared* statement — the parse produced after any guard
//! rewriting (`prepare_query`), i.e. exactly what executes — so every
//! executed write is covered and no statement is parsed twice.

use std::collections::BTreeMap;

use resin_core::{PolicyViolation, TaintedString};

use crate::ast::Statement;
use crate::engine::Table;
use crate::error::{Result, SqlError};
use crate::rewrite::{prepare_query, run_prepared, TaintedResult};
use crate::shard::ResinDb;

/// A programmer-specified integrity assertion, checked at commit time
/// against the post-transaction database state.
///
/// Checks must be read-only: a write performed inside a check bypasses the
/// transaction's snapshot tracking and is not rolled back.
pub type IntegrityCheck<'c> =
    Box<dyn Fn(&ResinDb) -> std::result::Result<(), PolicyViolation> + Send + 'c>;

/// The table a prepared statement writes (`None` for reads). Total over
/// [`Statement`], so every statement that can execute has its write
/// coverage known before it runs.
pub(crate) fn statement_write_target(stmt: &Statement) -> Option<&str> {
    match stmt {
        Statement::Select(_) => None,
        Statement::CreateTable { name, .. } | Statement::DropTable { name } => Some(name),
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. }
        | Statement::CreateIndex { table, .. }
        | Statement::DropIndex { table, .. } => Some(table),
    }
}

/// An open transaction on a [`ResinDb`], from [`ResinDb::begin`].
///
/// A table is snapshotted only when the transaction first writes it;
/// queries against other tables — from this transaction or from other
/// threads — never pay for a clone. Rollback restores exactly the touched
/// tables. Dropping an uncommitted transaction rolls it back.
///
/// Isolation is *per table*: concurrent writers to a table this
/// transaction later rolls back will lose their writes to the restore
/// (last-writer-wins). Partition writes by table — the same discipline the
/// lock sharding already rewards.
///
/// The same discipline governs **durability**: a transaction's statements
/// reach the WAL only at commit (as one atomic record), while its table
/// changes are live immediately — so a non-transactional write that lands
/// on a transaction-touched table between its write and its commit is
/// logged *before* the transaction's record, and crash recovery replays
/// them in that (WAL) order, not execution order. Writes partitioned by
/// table recover exactly; interleaved same-table mixes may not.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use resin_sql::ResinDb;
///
/// let db = ResinDb::new();
/// db.query_str("CREATE TABLE grades (student TEXT, score INTEGER)").unwrap();
/// db.query_str("INSERT INTO grades VALUES ('ada', 91)").unwrap();
///
/// // Invariant: no score may exceed 100.
/// let mut txn = db.begin();
/// txn.add_check(Box::new(|db| {
///     let r = db.query_str("SELECT COUNT(*) FROM grades WHERE score > 100")
///         .map_err(|e| PolicyViolation::new("GradeInvariant", e.to_string()))?;
///     match r.rows[0][0].as_int().map(|v| *v.value()) {
///         Some(0) => Ok(()),
///         _ => Err(PolicyViolation::new("GradeInvariant", "score above 100")),
///     }
/// }));
/// txn.query_str("UPDATE grades SET score = 250 WHERE student = 'ada'").unwrap();
/// assert!(txn.commit().is_err());                  // invariant fails...
/// let r = db.query_str("SELECT score FROM grades").unwrap();
/// assert_eq!(r.rows[0][0].as_int().unwrap().value(), &91); // ...rolled back
/// ```
pub struct Transaction<'c> {
    db: ResinDb,
    /// name → state at first write (`None` = did not exist, so rollback
    /// removes it).
    snapshots: BTreeMap<String, Option<Table>>,
    checks: Vec<IntegrityCheck<'c>>,
    wal: Vec<TaintedString>,
    /// Counted among the database's writing transactions (set on the
    /// first durable write, cleared on drop) so checkpoints wait this
    /// transaction out.
    registered: bool,
    finished: bool,
    /// Keeps labels interned during the transaction (snapshot scratch,
    /// query results) safe from a concurrent label-table sweep.
    _epoch_pin: resin_core::EpochPin<'static>,
}

impl<'c> Transaction<'c> {
    pub(crate) fn new(db: ResinDb) -> Self {
        Transaction {
            db,
            snapshots: BTreeMap::new(),
            checks: Vec::new(),
            wal: Vec::new(),
            registered: false,
            finished: false,
            _epoch_pin: resin_core::LabelTable::global().pin(),
        }
    }

    /// Registers an integrity assertion to run at commit.
    pub fn add_check(&mut self, check: IntegrityCheck<'c>) {
        self.checks.push(check);
    }

    /// Table names snapshotted so far (sorted). Untouched tables never
    /// appear here — that is the copy-on-write guarantee.
    pub fn snapshotted_tables(&self) -> Vec<&str> {
        self.snapshots.keys().map(String::as_str).collect()
    }

    /// Executes a query inside the transaction (all RESIN rewriting and
    /// guards apply as usual).
    ///
    /// The write target comes from the statement as prepared — parsed
    /// *after* any guard rewriting, i.e. exactly what executes — so a
    /// query only ever snapshots the one table it writes.
    pub fn query(&mut self, sql: &TaintedString) -> Result<TaintedResult> {
        let (sql, stmt) = prepare_query(sql, self.db.guard())?;
        let target = statement_write_target(&stmt);
        let durable_write = target.is_some() && self.db.is_durable();
        if durable_write && !self.registered {
            self.db.register_txn_writer();
            self.registered = true;
        }
        if let Some(name) = target {
            if !self.snapshots.contains_key(name) {
                let snap = self.db.raw().snapshot_table(name);
                self.snapshots.insert(name.to_string(), snap);
            }
        }
        let res = run_prepared(self.db.raw(), &sql, stmt, self.db.tracking(), &[])?;
        if durable_write {
            // Buffered, not logged: the WAL only sees statements whose
            // transaction committed, so a rollback recovers as a rollback.
            self.wal.push(sql.into_owned());
        }
        Ok(res)
    }

    /// Executes an untainted query inside the transaction.
    pub fn query_str(&mut self, sql: &str) -> Result<TaintedResult> {
        self.query(&TaintedString::from(sql))
    }

    fn restore(&mut self) {
        for (name, snap) in std::mem::take(&mut self.snapshots) {
            self.db.raw().restore_table(&name, snap);
        }
    }

    /// Runs the integrity checks; keeps the changes if all pass, restores
    /// the touched tables otherwise.
    pub fn commit(mut self) -> Result<()> {
        self.finished = true;
        let checks = std::mem::take(&mut self.checks);
        for check in &checks {
            if let Err(v) = check(&self.db) {
                self.restore();
                return Err(SqlError::Policy(resin_core::FlowError::Denied(v)));
            }
        }
        let wal = std::mem::take(&mut self.wal);
        if let Err(e) = self.db.wal_log_batch(&wal) {
            // The commit could not be made durable: take the writes back
            // out of the live tables too, so the state the caller observes
            // matches the state a restart would recover.
            self.restore();
            return Err(e);
        }
        // Still counted as a writing transaction until drop, so no
        // checkpoint can slip between the batch landing and these marks.
        self.db.mark_tables_dirty(self.snapshotted_tables());
        Ok(())
    }

    /// Discards all changes made inside the transaction.
    pub fn rollback(mut self) {
        self.finished = true;
        self.restore();
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.restore();
        }
        if self.registered {
            self.db.unregister_txn_writer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::UntrustedData;
    use std::sync::Arc;

    fn grades_db() -> ResinDb {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE grades (student TEXT, score INTEGER)")
            .unwrap();
        db.query_str("INSERT INTO grades VALUES ('ada', 91), ('bob', 72)")
            .unwrap();
        db
    }

    fn max_100_check<'c>() -> IntegrityCheck<'c> {
        Box::new(|db| {
            let r = db
                .query_str("SELECT COUNT(*) FROM grades WHERE score > 100")
                .map_err(|e| PolicyViolation::new("GradeInvariant", e.to_string()))?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("GradeInvariant", "score above 100"))
            }
        })
    }

    #[test]
    fn commit_keeps_valid_changes() {
        let db = grades_db();
        let mut txn = db.begin();
        txn.add_check(max_100_check());
        txn.query_str("UPDATE grades SET score = 95 WHERE student = 'bob'")
            .unwrap();
        txn.commit().unwrap();
        let r = db
            .query_str("SELECT score FROM grades WHERE student = 'bob'")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &95);
    }

    #[test]
    fn failed_check_rolls_back_everything() {
        let db = grades_db();
        let mut txn = db.begin();
        txn.add_check(max_100_check());
        txn.query_str("UPDATE grades SET score = 95 WHERE student = 'bob'")
            .unwrap();
        txn.query_str("UPDATE grades SET score = 250 WHERE student = 'ada'")
            .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(err.is_violation());
        // *Both* updates rolled back, not just the offending one.
        let r = db
            .query_str("SELECT score FROM grades ORDER BY student")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &91);
        assert_eq!(r.rows[1][0].as_int().unwrap().value(), &72);
    }

    #[test]
    fn explicit_rollback() {
        let db = grades_db();
        let mut txn = db.begin();
        txn.query_str("DELETE FROM grades").unwrap();
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM grades").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let db = grades_db();
        {
            let mut txn = db.begin();
            txn.query_str("DELETE FROM grades").unwrap();
            // Dropped here.
        }
        let r = db.query_str("SELECT COUNT(*) FROM grades").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
    }

    #[test]
    fn policies_tracked_inside_transactions() {
        let db = grades_db();
        let mut txn = db.begin();
        let mut q = TaintedString::from("INSERT INTO grades VALUES ('");
        q.push_tainted(&TaintedString::with_policy(
            "eve",
            Arc::new(UntrustedData::new()),
        ));
        q.push_str("', 50)");
        txn.query(&q).unwrap();
        txn.commit().unwrap();
        let r = db
            .query_str("SELECT student FROM grades WHERE score = 50")
            .unwrap();
        let cell = r.cell(0, "student").unwrap().as_text().unwrap();
        assert!(cell.has_policy::<UntrustedData>());
    }

    #[test]
    fn multiple_checks_all_run() {
        let db = grades_db();
        let mut txn = db.begin();
        txn.add_check(max_100_check());
        txn.add_check(Box::new(|db| {
            let r = db
                .query_str("SELECT COUNT(*) FROM grades")
                .map_err(|e| PolicyViolation::new("NonEmpty", e.to_string()))?;
            if r.rows[0][0].as_int().map(|v| *v.value()) > Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("NonEmpty", "grades table emptied"))
            }
        }));
        txn.query_str("DELETE FROM grades").unwrap();
        assert!(txn.commit().is_err(), "second check fires");
        let r = db.query_str("SELECT COUNT(*) FROM grades").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
    }

    #[test]
    fn untouched_tables_are_never_snapshotted() {
        // The copy-on-write guarantee: begin is free, and a write to one
        // table does not clone its neighbours.
        let db = grades_db();
        db.query_str("CREATE TABLE audit (entry TEXT)").unwrap();
        let mut txn = db.begin();
        assert!(txn.snapshotted_tables().is_empty(), "begin copies nothing");
        txn.query_str("SELECT COUNT(*) FROM grades").unwrap();
        assert!(
            txn.snapshotted_tables().is_empty(),
            "reads never snapshot either"
        );
        txn.query_str("UPDATE grades SET score = 1 WHERE student = 'ada'")
            .unwrap();
        assert_eq!(
            txn.snapshotted_tables(),
            vec!["grades"],
            "only the written table is copied"
        );
        txn.rollback();
        let r = db
            .query_str("SELECT score FROM grades ORDER BY student")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &91);
    }

    #[test]
    fn create_inside_txn_rolls_back_to_absent() {
        let db = grades_db();
        {
            let mut txn = db.begin();
            txn.query_str("CREATE TABLE scratch (x INTEGER)").unwrap();
            txn.query_str("INSERT INTO scratch VALUES (1)").unwrap();
        }
        assert!(
            db.raw().snapshot_table("scratch").is_none(),
            "create rolled back"
        );
    }

    #[test]
    fn guard_rewritten_query_snapshots_its_own_table_only() {
        // A statement whose *raw* text does not parse strictly (untrusted
        // quote mid-literal) but that the AutoSanitize guard rewrites into
        // valid SQL: the write set must come from the post-guard parse, so
        // only the written table is snapshotted — never everything.
        let mut db = grades_db();
        db.set_guard(crate::GuardMode::AutoSanitize);
        db.query_str("CREATE TABLE audit (entry TEXT)").unwrap();
        let mut txn = db.begin();
        let mut q = TaintedString::from("INSERT INTO grades VALUES ('");
        q.push_tainted(&TaintedString::with_policy(
            "o'hara",
            Arc::new(UntrustedData::new()),
        ));
        q.push_str("', 50)");
        txn.query(&q).unwrap();
        assert_eq!(
            txn.snapshotted_tables(),
            vec!["grades"],
            "post-guard write set, not a whole-db fallback"
        );
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM grades").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
    }

    #[test]
    fn unparseable_statement_errors_without_executing() {
        let db = grades_db();
        let mut txn = db.begin();
        assert!(txn.query_str("not sql at all").is_err());
        assert!(
            txn.snapshotted_tables().is_empty(),
            "nothing executed, nothing snapshotted"
        );
    }

    #[test]
    fn write_target_extraction() {
        let t = |sql: &str| {
            let stmt = crate::parser::parse_str(sql).unwrap();
            statement_write_target(&stmt).map(str::to_string)
        };
        assert_eq!(t("SELECT * FROM a"), None);
        assert_eq!(t("INSERT INTO a VALUES (1)"), Some("a".to_string()));
        assert_eq!(t("UPDATE b SET x = 1"), Some("b".to_string()));
        assert_eq!(t("DELETE FROM c"), Some("c".to_string()));
        assert_eq!(t("DROP TABLE d"), Some("d".to_string()));
        assert_eq!(
            t("CREATE INDEX i ON e (x)"),
            Some("e".to_string()),
            "index DDL mutates its table (snapshot + WAL coverage)"
        );
        assert_eq!(t("DROP INDEX i ON f"), Some("f".to_string()));
    }
}
