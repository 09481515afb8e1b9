//! Transactions with commit-time integrity assertions (§8, future work).
//!
//! The paper's planned approach to data *integrity* invariants: "using
//! transactions to buffer database or file system changes, and checking a
//! programmer-specified assertion before committing them." A
//! [`Transaction`] does exactly that: its writes go to private copies of
//! the tables it writes, its integrity checks read those copies, and only
//! a commit whose checks all pass installs them.
//!
//! Copies are **lazy and per table**: a table is copied only when the
//! transaction first writes it, so touching one small table never clones
//! the large cold ones next to it. The write target of each statement is
//! read off the *prepared* statement — the parse produced after any guard
//! rewriting (`prepare_query`), i.e. exactly what executes — so every
//! executed write lands in a copy and no statement is parsed twice.

use std::borrow::Cow;
use std::collections::BTreeMap;

use resin_core::TaintedString;

use crate::ast::Statement;
use crate::durable::encode_wal_batch;
use crate::error::Result;
use crate::rewrite::{prepare_query, run_prepared, TaintedResult};
use crate::shard::ResinDb;

/// A programmer-specified integrity assertion, checked at commit time
/// against the post-transaction state: a read-only [`ResinDb`] over the
/// transaction's own copies and the live tables it did not write. A write
/// inside a check is refused. A check fails the commit with its
/// [`PolicyViolation`](resin_core::PolicyViolation), or with the error of
/// a query it ran.
pub type IntegrityCheck<'c> = Box<dyn Fn(&ResinDb) -> Result<()> + Send + 'c>;

/// The table a prepared statement writes (`None` for reads). Total over
/// [`Statement`], so every statement that can execute has its write
/// target known before it runs.
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
/// From its first write on, the transaction runs on a view: the live
/// tables, shared, with a private copy of each table it has written. It
/// reads its own writes, and no other handle sees them before commit. The
/// view's set of tables is the one at the first write.
///
/// [`commit`](Transaction::commit) runs the integrity checks on the view,
/// then installs the copies, unless another writer changed one of those
/// tables since it was copied
/// ([`SqlError::Conflict`](crate::SqlError::Conflict)). A rollback, or a
/// drop, discards the view: the live tables never held its writes.
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
///     let r = db.query_str("SELECT COUNT(*) FROM grades WHERE score > 100")?;
///     match r.rows[0][0].as_int().map(|v| *v.value()) {
///         Some(0) => Ok(()),
///         _ => Err(PolicyViolation::new("GradeInvariant", Reason::Refused("score above 100")).into()),
///     }
/// }));
/// txn.query_str("UPDATE grades SET score = 250 WHERE student = 'ada'").unwrap();
/// let r = db.query_str("SELECT score FROM grades").unwrap();
/// assert_eq!(r.rows[0][0].as_int().unwrap().value(), &91); // not yet visible
/// assert!(txn.commit().is_err());                  // invariant fails...
/// let r = db.query_str("SELECT score FROM grades").unwrap();
/// assert_eq!(r.rows[0][0].as_int().unwrap().value(), &91); // ...never installed
/// ```
pub struct Transaction<'c> {
    db: ResinDb,
    /// The view every statement runs on from the first write on.
    view: Option<ResinDb>,
    /// name → the live table's write stamp when the transaction copied it
    /// (`None`: it did not exist).
    copied: BTreeMap<String, Option<u64>>,
    checks: Vec<IntegrityCheck<'c>>,
    wal: Vec<TaintedString>,
}

impl<'c> Transaction<'c> {
    pub(crate) fn new(db: ResinDb) -> Self {
        Transaction {
            db,
            view: None,
            copied: BTreeMap::new(),
            checks: Vec::new(),
            wal: Vec::new(),
        }
    }

    /// Registers an integrity assertion to run at commit.
    pub fn add_check(&mut self, check: IntegrityCheck<'c>) {
        self.checks.push(check);
    }

    /// Table names copied so far (sorted). Untouched tables never appear
    /// here — that is the copy-on-write guarantee.
    #[cfg(test)]
    pub(crate) fn snapshotted_tables(&self) -> Vec<&str> {
        self.copied.keys().map(String::as_str).collect()
    }

    /// Executes a query inside the transaction (the RESIN guard and
    /// policy storage apply as usual).
    ///
    /// The write target comes from the statement as prepared — parsed
    /// *after* any guard rewriting, i.e. exactly what executes — so a
    /// query only ever copies the one table it writes.
    pub fn query(&mut self, sql: &TaintedString) -> Result<TaintedResult> {
        let (sql, stmt, _) = prepare_query(Cow::Borrowed(sql), self.db.guard())?;
        let writes = statement_write_target(&stmt).is_some();
        if let Some(name) = statement_write_target(&stmt) {
            let view = self.view.get_or_insert_with(|| self.db.view());
            if !self.copied.contains_key(name) {
                let (stamp, copy) = self.db.raw().copy_table(name).unzip();
                self.copied.insert(name.to_string(), stamp);
                view.raw().put_table(name, copy);
            }
        }
        let db = self.view.as_ref().unwrap_or(&self.db);
        let res = run_prepared(db.raw(), &sql, &stmt, &[], &mut |_| Ok(()))?;
        if writes && self.db.store().is_some() {
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

    /// Runs the integrity checks on the transaction's view; if all pass,
    /// installs its writes and logs them as one WAL record, under the
    /// catalog write lock. A failed check or a conflict installs nothing.
    pub fn commit(self) -> Result<()> {
        let view = self.view.unwrap_or_else(|| self.db.view());
        for check in &self.checks {
            check(&view)?;
        }
        if self.copied.is_empty() {
            return Ok(());
        }
        self.db.writable()?;
        // One WAL record: a crash mid-commit keeps all of it or none.
        self.db.raw().install(view.raw(), &self.copied, || {
            if let (Some(store), false) = (self.db.store(), self.wal.is_empty()) {
                store.append(&encode_wal_batch(&self.wal))?;
            }
            self.db
                .mark_tables_dirty(self.copied.keys().map(String::as_str));
            Ok(())
        })
    }

    /// Discards all changes made inside the transaction.
    pub fn rollback(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyViolation, Reason, UntrustedData};
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
            let r = db.query_str("SELECT COUNT(*) FROM grades WHERE score > 100")?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(
                    PolicyViolation::new("GradeInvariant", Reason::Refused("score above 100"))
                        .into(),
                )
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
            let r = db.query_str("SELECT COUNT(*) FROM grades")?;
            if r.rows[0][0].as_int().map(|v| *v.value()) > Some(0) {
                Ok(())
            } else {
                Err(
                    PolicyViolation::new("NonEmpty", Reason::Refused("grades table emptied"))
                        .into(),
                )
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
