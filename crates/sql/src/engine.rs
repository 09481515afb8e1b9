//! The storage and execution engine.
//!
//! A straightforward in-memory engine: tables are vectors of rows, queries
//! scan or probe an index. It is deliberately policy-oblivious — the RESIN
//! integration (policy columns, injection guards) lives in
//! [`crate::rewrite`], exactly as the paper layers its SQL filter over an
//! unmodified database.
//!
//! [`Database`] is built for many worker threads sharing one database (§6
//! runs the applications inside live web servers): a catalog `RwLock` maps
//! table names to `Arc<RwLock<Table>>`, so locking is **per table** —
//! readers of `posts` never contend with writers of `sessions`, and two
//! readers of the same table proceed in parallel. The per-table operations
//! (`table_insert`, `matching_rows` and `project`, `table_update`,
//! `table_delete`) are free functions over a single locked [`Table`].

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

use resin_core::sync::{rlock, wlock};

use crate::ast::{ColumnDef, Expr, IndexKind, Projection, SelectStmt, Statement};
use crate::error::{Result, SqlError};
use crate::index::Index;
use crate::plan::{self, Access};
use crate::predicate::Predicate;
use crate::value::Value;

/// A table: schema, row storage, and secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row-major storage.
    pub rows: Vec<Vec<Value>>,
    /// Secondary indexes (see [`crate::index`]). Kept inside the table so
    /// transaction snapshots and rollbacks restore index state for free.
    pub(crate) indexes: Vec<Index>,
}

impl Table {
    /// Index of a column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The table's secondary indexes, in creation order.
    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// Builds an index over `column` and registers it. Returns `false`
    /// when `if_not_exists` suppressed a duplicate.
    pub(crate) fn create_index(
        &mut self,
        name: &str,
        column: &str,
        kind: IndexKind,
        if_not_exists: bool,
    ) -> Result<bool> {
        if self.indexes.iter().any(|ix| ix.name() == name) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(SqlError::schema(format!("index `{name}` already exists")));
        }
        let ix = Index::build(name, column, kind, &self.columns, &self.rows)?;
        self.indexes.push(ix);
        Ok(true)
    }

    /// Removes the index called `name`.
    pub(crate) fn drop_index(&mut self, name: &str) -> Result<()> {
        match self.indexes.iter().position(|ix| ix.name() == name) {
            Some(i) => {
                self.indexes.remove(i);
                Ok(())
            }
            None => Err(SqlError::schema(format!("no such index `{name}`"))),
        }
    }
}

/// Rejects table names in the reserved `__rp_` namespace (policy columns
/// and the durable index catalog live there).
pub(crate) fn check_table_name(name: &str) -> Result<()> {
    if name.starts_with(crate::rewrite::POLICY_COL_PREFIX) {
        return Err(SqlError::schema(format!(
            "table name `{name}` uses the reserved `{}` prefix",
            crate::rewrite::POLICY_COL_PREFIX
        )));
    }
    Ok(())
}

/// The result of executing a statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Result column names (empty for non-SELECT statements).
    pub columns: Vec<String>,
    /// Result rows (empty for non-SELECT statements).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
}

type TableShard = Arc<RwLock<Table>>;

/// The storage engine: one `RwLock` per table plus a catalog lock for
/// schema changes.
///
/// All methods take `&self`. Row statements hold the catalog lock in
/// shared mode (readers never block each other; per-table locks provide
/// the sharding), schema statements take it exclusively — so DDL
/// serializes cleanly against in-flight row work.
// Both lock levels guard data that is consistent at every panic point
// (rows are staged before being extended in; catalog changes are single
// map operations), so a panicking worker must not poison the database for
// every other request — the poison-recovering accessors of
// `resin_core::sync` apply.
#[derive(Debug, Default)]
pub struct Database {
    catalog: RwLock<BTreeMap<String, TableShard>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    fn resolve<'a>(
        catalog: &'a BTreeMap<String, TableShard>,
        name: &str,
    ) -> Result<&'a TableShard> {
        catalog
            .get(name)
            .ok_or_else(|| SqlError::schema(format!("no such table `{name}`")))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        rlock(&self.catalog).keys().cloned().collect()
    }

    /// A point-in-time copy of one table, if it exists.
    pub fn snapshot_table(&self, name: &str) -> Option<Table> {
        let catalog = rlock(&self.catalog);
        let shard = catalog.get(name)?;
        let copy = rlock(shard).clone();
        Some(copy)
    }

    /// Restores one table to a snapshot: `Some` replaces (or re-creates)
    /// the table, `None` drops it.
    pub fn restore_table(&self, name: &str, snapshot: Option<Table>) {
        match snapshot {
            Some(t) => {
                let mut catalog = wlock(&self.catalog);
                match catalog.get(name) {
                    // Swap contents in place so concurrent holders of the
                    // shard Arc observe the restored state too.
                    Some(shard) => *wlock(shard) = t,
                    None => {
                        catalog.insert(name.to_string(), Arc::new(RwLock::new(t)));
                    }
                }
            }
            None => {
                wlock(&self.catalog).remove(name);
            }
        }
    }

    /// Replaces the whole catalog (recovery, and read replicas rebuilding
    /// from a newer shipped checkpoint). In-flight readers holding a shard
    /// `Arc` finish against the old table; new queries resolve the new one.
    pub(crate) fn reset_tables(&self, tables: BTreeMap<String, Table>) {
        let mut catalog = wlock(&self.catalog);
        catalog.clear();
        for (name, t) in tables {
            catalog.insert(name, Arc::new(RwLock::new(t)));
        }
    }

    /// Runs `f` over every table under every shard's read lock at once, so
    /// what it sees is point-in-time consistent *across* tables.
    pub(crate) fn with_all_tables<R>(
        &self,
        f: impl for<'t> FnOnce(&mut dyn Iterator<Item = (&'t str, &'t Table)>) -> R,
    ) -> R {
        let catalog = rlock(&self.catalog);
        let shards: Vec<(&str, RwLockReadGuard<'_, Table>)> = catalog
            .iter()
            .map(|(n, shard)| (n.as_str(), rlock(shard)))
            .collect();
        f(&mut shards.iter().map(|(n, t)| (*n, &**t)))
    }

    /// All column names of `table` (policy columns included).
    pub(crate) fn columns_of(&self, table: &str) -> Result<Vec<String>> {
        let catalog = rlock(&self.catalog);
        let t = rlock(Self::resolve(&catalog, table)?);
        Ok(t.columns.iter().map(|c| c.name.clone()).collect())
    }

    /// Executes one parsed statement; `params[i]` is the value of the
    /// `i`-th `?` placeholder in text order.
    ///
    /// Row statements hold the catalog lock in *shared* mode for their
    /// whole run (sharding comes from the per-table locks), so a schema
    /// change — which takes the catalog lock exclusively — serializes
    /// against in-flight row work instead of detaching a shard mid-write:
    /// a write racing a `DROP TABLE` either lands before the drop or
    /// reports "no such table", never a silently-lost `Ok`.
    pub fn execute(&self, stmt: &Statement, params: &[Value]) -> Result<QueryResult> {
        let affected = |n: usize| QueryResult {
            affected: n,
            ..QueryResult::default()
        };
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
                primary_key,
            } => {
                let mut catalog = wlock(&self.catalog);
                if catalog.contains_key(name) {
                    // Existence wins over column validation: IF NOT EXISTS
                    // on an existing table is a no-op even for an invalid
                    // column list.
                    if *if_not_exists {
                        return Ok(QueryResult::default());
                    }
                    return Err(SqlError::schema(format!("table `{name}` already exists")));
                }
                check_table_name(name)?;
                let mut table = new_table(columns)?;
                if let Some(pk) = primary_key {
                    table.create_index(&format!("pk_{name}"), pk, IndexKind::Ordered, false)?;
                }
                catalog.insert(name.clone(), Arc::new(RwLock::new(table)));
                Ok(QueryResult::default())
            }
            Statement::DropTable { name } => {
                if wlock(&self.catalog).remove(name).is_none() {
                    return Err(SqlError::schema(format!("no such table `{name}`")));
                }
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                kind,
                if_not_exists,
            } => {
                // Index DDL mutates one table, not the catalog map, so the
                // catalog lock stays shared — like a row statement.
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                wlock(shard).create_index(name, column, *kind, *if_not_exists)?;
                Ok(QueryResult::default())
            }
            Statement::DropIndex { name, table } => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                wlock(shard).drop_index(name)?;
                Ok(QueryResult::default())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let catalog = rlock(&self.catalog);
                let mut t = wlock(Self::resolve(&catalog, table)?);
                table_insert(&mut t, table, columns.as_deref(), rows, params).map(affected)
            }
            Statement::Select(sel) => {
                self.select_rows(sel, params, |t, rows| project(t, sel, rows))
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let catalog = rlock(&self.catalog);
                let mut t = wlock(Self::resolve(&catalog, table)?);
                table_update(&mut t, assignments, where_clause.as_ref(), params).map(affected)
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let catalog = rlock(&self.catalog);
                let mut t = wlock(Self::resolve(&catalog, table)?);
                table_delete(&mut t, where_clause.as_ref(), params).map(affected)
            }
        }
    }

    /// Runs the row-finding half of a SELECT — access path, WHERE, ORDER
    /// BY, LIMIT — and hands `f` the table and the matching rows,
    /// *borrowed*, under the table's read lock. The projection is `f`'s
    /// business: [`execute`](Database::execute) clones the projected
    /// cells into a [`QueryResult`]; the policy-column rewrite revives
    /// each cell straight from the stored row and copies no blob.
    pub(crate) fn select_rows<R>(
        &self,
        sel: &SelectStmt,
        params: &[Value],
        f: impl FnOnce(&Table, &[&Vec<Value>]) -> Result<R>,
    ) -> Result<R> {
        let catalog = rlock(&self.catalog);
        let t = rlock(Self::resolve(&catalog, &sel.table)?);
        let rows = matching_rows(&t, sel, params)?;
        f(&t, &rows)
    }

    /// Parses and executes a query string (tests and diagnostics).
    pub fn execute_str(&self, sql: &str) -> Result<QueryResult> {
        let stmt = crate::parser::parse_str(sql)?;
        self.execute(&stmt, &[])
    }

    /// The access path the planner would pick for a SELECT — a one-line
    /// `EXPLAIN` (e.g. `probe-eq(users via pk_users [BTREE], 1 key)`)
    /// for tests and diagnostics. Non-SELECT statements report
    /// `(not a select)`.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_str(sql)?;
        let Statement::Select(sel) = stmt else {
            return Ok("(not a select)".to_string());
        };
        let catalog = rlock(&self.catalog);
        let t = rlock(Self::resolve(&catalog, &sel.table)?);
        Ok(plan::explain_select(&t, &sel, &[]))
    }
}

// ---- per-table operations ----

/// Validates `columns` and builds an empty [`Table`].
pub(crate) fn new_table(columns: &[ColumnDef]) -> Result<Table> {
    let mut seen = std::collections::BTreeSet::new();
    for c in columns {
        if !seen.insert(&c.name) {
            return Err(SqlError::schema(format!("duplicate column `{}`", c.name)));
        }
    }
    Ok(Table {
        columns: columns.to_vec(),
        rows: Vec::new(),
        indexes: Vec::new(),
    })
}

/// Inserts `rows` into `t` (`name` is for error messages only), returning
/// the number of rows added. All rows are validated before any is stored.
pub(crate) fn table_insert(
    t: &mut Table,
    name: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
    params: &[Value],
) -> Result<usize> {
    // Map provided positions to storage positions.
    let positions: Vec<usize> = match columns {
        None => (0..t.columns.len()).collect(),
        Some(cols) => cols
            .iter()
            .map(|c| {
                t.col_index(c)
                    .ok_or_else(|| SqlError::schema(format!("no column `{c}` in `{name}`")))
            })
            .collect::<Result<_>>()?,
    };
    let width = t.columns.len();
    let mut staged = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != positions.len() {
            return Err(SqlError::schema(format!(
                "expected {} values, got {}",
                positions.len(),
                row.len()
            )));
        }
        let mut storage = vec![Value::Null; width];
        for (expr, &pos) in row.iter().zip(&positions) {
            storage[pos] = eval_const(expr, params)?;
        }
        staged.push(storage);
    }
    let affected = staged.len();
    let base = t.rows.len();
    t.rows.extend(staged);
    let Table { rows, indexes, .. } = t;
    for ix in indexes.iter_mut() {
        for (id, row) in rows.iter().enumerate().skip(base) {
            ix.add(id, &row[ix.col]);
        }
    }
    Ok(affected)
}

/// The rows of `t` a SELECT matches, in result order.
///
/// The [`crate::plan`] module picks the access path: a full scan, an
/// index probe (candidate ids that the full predicate is re-applied to,
/// so probes are exactly as selective as scans), or ordered-index
/// iteration that yields rows already in ORDER BY order (skipping the
/// sort and stopping at LIMIT).
fn matching_rows<'t>(
    t: &'t Table,
    sel: &SelectStmt,
    params: &[Value],
) -> Result<Vec<&'t Vec<Value>>> {
    let order = match &sel.order_by {
        Some((col, desc)) => {
            let idx = t
                .col_index(col)
                .ok_or_else(|| SqlError::schema(format!("no column `{col}`")))?;
            Some((idx, *desc))
        }
        None => None,
    };
    let pred = Predicate::bind(t, sel.where_clause.as_ref(), params);
    let mut matched: Vec<&Vec<Value>> = Vec::new();
    let mut pre_ordered = false;
    match plan::plan_select(t, sel, params) {
        Access::Scan => {
            for row in &t.rows {
                if pred.test(row)? {
                    matched.push(row);
                }
            }
        }
        Access::Ids(ids) => {
            for id in ids {
                let row = &t.rows[id];
                if pred.test(row)? {
                    matched.push(row);
                }
            }
        }
        Access::KeyOrdered(ids) => {
            // Rows arrive in ORDER BY order (planner guarantees the index
            // is exact: ordered kind, no residue), so LIMIT pushes down.
            pre_ordered = true;
            let cap = sel.limit.unwrap_or(usize::MAX);
            for id in ids {
                if matched.len() >= cap {
                    break;
                }
                let row = &t.rows[id];
                if pred.test(row)? {
                    matched.push(row);
                }
            }
        }
    }
    if let Some((idx, desc)) = order {
        if !pre_ordered {
            // NULL is not comparable (`Value::compare` returns `None`), so
            // an ordering over it would be arbitrary; fail loudly instead
            // of silently treating incomparable keys as equal.
            if matched.iter().any(|r| r[idx].is_null()) {
                let (col, _) = sel.order_by.as_ref().expect("order resolved from order_by");
                return Err(SqlError::schema(format!(
                    "cannot ORDER BY `{col}`: a matching row has a NULL key"
                )));
            }
            matched.sort_by(|a, b| {
                let ord = a[idx]
                    .compare(&b[idx])
                    .expect("non-NULL cells always compare");
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
    }
    if !pre_ordered {
        if let Some(limit) = sel.limit {
            matched.truncate(limit);
        }
    }
    Ok(matched)
}

/// Positions in `t`'s rows of the columns called `names`.
pub(crate) fn column_positions(t: &Table, names: &[String]) -> Result<Vec<usize>> {
    names
        .iter()
        .map(|c| {
            t.col_index(c)
                .ok_or_else(|| SqlError::schema(format!("no column `{c}`")))
        })
        .collect()
}

/// The projecting half of a SELECT: `sel`'s columns of the matched rows,
/// cloned into a result.
fn project(t: &Table, sel: &SelectStmt, matched: &[&Vec<Value>]) -> Result<QueryResult> {
    match &sel.projection {
        Projection::CountStar => Ok(QueryResult {
            columns: vec!["count".to_string()],
            rows: vec![vec![Value::Int(matched.len() as i64)]],
            affected: 0,
        }),
        Projection::Star => Ok(QueryResult {
            columns: t.columns.iter().map(|c| c.name.clone()).collect(),
            rows: matched.iter().map(|&r| r.clone()).collect(),
            affected: 0,
        }),
        Projection::Columns(cols) => {
            let idxs = column_positions(t, cols)?;
            let rows = matched
                .iter()
                .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
                .collect();
            Ok(QueryResult {
                columns: cols.clone(),
                rows,
                affected: 0,
            })
        }
    }
}

/// Applies an UPDATE to one table, returning the affected-row count.
/// Matching rows are found via the planner (probe or scan); indexes on
/// assigned columns are maintained in place.
pub(crate) fn table_update(
    t: &mut Table,
    assignments: &[(String, Expr)],
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<usize> {
    let idxs: Vec<(usize, Value)> = assignments
        .iter()
        .map(|(c, e)| {
            let i = t
                .col_index(c)
                .ok_or_else(|| SqlError::schema(format!("no column `{c}`")))?;
            Ok((i, eval_const(e, params)?))
        })
        .collect::<Result<_>>()?;
    let hits = plan::matching_row_ids(t, where_clause, params)?;
    let affected = hits.len();
    let Table { rows, indexes, .. } = t;
    for &ri in &hits {
        for (ci, v) in &idxs {
            let old = std::mem::replace(&mut rows[ri][*ci], v.clone());
            if old != *v {
                for ix in indexes.iter_mut() {
                    if ix.col == *ci {
                        ix.replace(ri, &old, v);
                    }
                }
            }
        }
    }
    Ok(affected)
}

/// Applies a DELETE to one table, returning the affected-row count.
/// Index posting lists drop the deleted ids and shift the survivors to
/// match the compacted row storage.
pub(crate) fn table_delete(
    t: &mut Table,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<usize> {
    let hits = plan::matching_row_ids(t, where_clause, params)?;
    let affected = hits.len();
    if affected > 0 {
        for ix in t.indexes.iter_mut() {
            ix.apply_delete(&hits);
        }
        let mut hit_iter = hits.into_iter().peekable();
        let mut idx = 0usize;
        t.rows.retain(|_| {
            let drop_row = hit_iter.peek() == Some(&idx);
            if drop_row {
                hit_iter.next();
            }
            idx += 1;
            !drop_row
        });
    }
    Ok(affected)
}

fn eval_const(expr: &Expr, params: &[Value]) -> Result<Value> {
    match expr {
        Expr::Lit(l) => Ok(l.value.to_value()),
        Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::Type(format!("parameter ?{} has no bound value", *i + 1))),
        other => Err(SqlError::Type(format!(
            "expected a literal value, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_users() -> Database {
        let db = Database::new();
        db.execute_str("CREATE TABLE users (id INTEGER, name TEXT, age INTEGER)")
            .unwrap();
        db.execute_str(
            "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = db_with_users();
        let r = db
            .execute_str("SELECT name FROM users WHERE age > 26")
            .unwrap();
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn select_star_and_order() {
        let db = db_with_users();
        let r = db
            .execute_str("SELECT * FROM users ORDER BY age DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Text("carol".into()));
        assert_eq!(r.rows[1][1], Value::Text("alice".into()));
    }

    #[test]
    fn count_star() {
        let db = db_with_users();
        let r = db
            .execute_str("SELECT COUNT(*) FROM users WHERE age < 31")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn update_rows() {
        let db = db_with_users();
        let r = db
            .execute_str("UPDATE users SET age = 26 WHERE name = 'bob'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = db
            .execute_str("SELECT age FROM users WHERE name = 'bob'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(26));
    }

    #[test]
    fn delete_rows() {
        let db = db_with_users();
        let r = db.execute_str("DELETE FROM users WHERE age >= 30").unwrap();
        assert_eq!(r.affected, 2);
        let r = db.execute_str("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn insert_with_columns_fills_null() {
        let db = db_with_users();
        db.execute_str("INSERT INTO users (id, name) VALUES (4, 'dan')")
            .unwrap();
        let r = db
            .execute_str("SELECT age FROM users WHERE id = 4")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
        let r = db
            .execute_str("SELECT name FROM users WHERE age IS NULL")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("dan".into()));
    }

    #[test]
    fn like_and_in_filters() {
        let db = db_with_users();
        let r = db
            .execute_str("SELECT name FROM users WHERE name LIKE '%o%'")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "bob and carol");
        let r = db
            .execute_str("SELECT name FROM users WHERE id IN (1, 3)")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = db
            .execute_str("SELECT name FROM users WHERE id NOT IN (1, 3)")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn schema_errors() {
        let db = db_with_users();
        assert!(db.execute_str("SELECT nope FROM users").is_err());
        assert!(db.execute_str("SELECT * FROM nope").is_err());
        assert!(db.execute_str("INSERT INTO users VALUES (1)").is_err());
        assert!(db
            .execute_str("INSERT INTO users (zzz) VALUES (1)")
            .is_err());
        assert!(db.execute_str("CREATE TABLE users (id INTEGER)").is_err());
        assert!(db.execute_str("CREATE TABLE t2 (a TEXT, a TEXT)").is_err());
        assert!(db.execute_str("DROP TABLE nope").is_err());
        assert!(db.execute_str("UPDATE users SET nope = 1").is_err());
    }

    #[test]
    fn if_not_exists_is_idempotent() {
        let db = db_with_users();
        assert!(db
            .execute_str("CREATE TABLE IF NOT EXISTS users (id INTEGER)")
            .is_ok());
        // Existence wins over column validation.
        assert!(db
            .execute_str("CREATE TABLE IF NOT EXISTS users (a INTEGER, a INTEGER)")
            .is_ok());
        // Original schema retained.
        assert_eq!(db.snapshot_table("users").unwrap().columns.len(), 3);
    }

    #[test]
    fn drop_table() {
        let db = db_with_users();
        db.execute_str("DROP TABLE users").unwrap();
        assert!(db.snapshot_table("users").is_none());
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn classic_injection_dumps_table_without_guard() {
        // The raw engine happily executes an injected query — protection is
        // the RESIN filter's job, not the database's.
        let db = db_with_users();
        let name_input = "x' OR '1'='1";
        let q = format!("SELECT name FROM users WHERE name = '{name_input}");
        // The trailing quote from the template closes the injected literal.
        let q = format!("{q}'");
        let r = db.execute_str(&q).unwrap();
        assert_eq!(r.rows.len(), 3, "injection dumps every row");
    }

    #[test]
    fn multi_insert_affected_count() {
        let db = Database::new();
        db.execute_str("CREATE TABLE t (a INTEGER)").unwrap();
        let r = db
            .execute_str("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
        assert_eq!(r.affected, 3);
    }

    #[test]
    fn order_by_null_key_is_an_error_not_an_arbitrary_order() {
        // `compare` returns None for NULL; an earlier revision silently
        // treated incomparable keys as Equal, yielding an arbitrary,
        // stable-sort-dependent order. Fail loudly instead.
        let db = db_with_users();
        db.execute_str("INSERT INTO users (id, name) VALUES (4, 'dan')")
            .unwrap();
        let err = db
            .execute_str("SELECT name FROM users ORDER BY age")
            .unwrap_err();
        assert!(err.to_string().contains("NULL key"), "{err}");
        // Rows with NULL keys that the WHERE clause excludes don't error.
        let r = db
            .execute_str("SELECT name FROM users WHERE age > 0 ORDER BY age")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn primary_key_auto_creates_ordered_index() {
        let db = Database::new();
        db.execute_str("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        let t = db.snapshot_table("t").unwrap();
        let ix = t.indexes().next().unwrap();
        assert_eq!(ix.name(), "pk_t");
        assert_eq!(ix.kind(), crate::ast::IndexKind::Ordered);
        db.execute_str("INSERT INTO t VALUES (2, 'b'), (1, 'a')")
            .unwrap();
        assert!(db
            .explain("SELECT v FROM t WHERE id = 1")
            .unwrap()
            .contains("probe-eq"));
        let r = db.execute_str("SELECT v FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows[0][0], Value::Text("a".into()));
    }

    #[test]
    fn indexes_stay_correct_through_insert_update_delete() {
        let db = db_with_users();
        db.execute_str("CREATE INDEX ix_age ON users (age)")
            .unwrap();
        db.execute_str("INSERT INTO users VALUES (4, 'dan', 25)")
            .unwrap();
        let r = db
            .execute_str("SELECT name FROM users WHERE age = 25")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "insert maintained the index");
        db.execute_str("UPDATE users SET age = 31 WHERE name = 'bob'")
            .unwrap();
        let r = db
            .execute_str("SELECT name FROM users WHERE age = 25")
            .unwrap();
        assert_eq!(r.rows.len(), 1, "update moved bob out of the bucket");
        db.execute_str("DELETE FROM users WHERE age = 31").unwrap();
        let r = db
            .execute_str("SELECT name FROM users WHERE age = 25 OR age = 30 OR age = 35")
            .unwrap();
        assert_eq!(r.rows.len(), 3, "delete remapped surviving row ids");
        let r = db
            .execute_str("SELECT name FROM users ORDER BY age")
            .unwrap();
        assert_eq!(
            r.rows.iter().map(|r| &r[0]).collect::<Vec<_>>(),
            vec![
                &Value::Text("dan".into()),
                &Value::Text("alice".into()),
                &Value::Text("carol".into())
            ]
        );
    }

    #[test]
    fn probe_results_equal_scan_results() {
        let indexed = db_with_users();
        indexed
            .execute_str("CREATE INDEX ix_id ON users (id) USING HASH")
            .unwrap();
        indexed
            .execute_str("CREATE INDEX ix_age ON users (age)")
            .unwrap();
        let plain = db_with_users();
        for q in [
            "SELECT * FROM users WHERE id = 2",
            "SELECT * FROM users WHERE id IN (1, 3)",
            "SELECT * FROM users WHERE age > 26",
            "SELECT * FROM users WHERE age >= 25 AND age < 35",
            "SELECT * FROM users ORDER BY age DESC",
            "SELECT * FROM users WHERE age > 20 ORDER BY age LIMIT 2",
        ] {
            let a = indexed.execute_str(q).unwrap();
            let b = plain.execute_str(q).unwrap();
            assert_eq!(a.rows, b.rows, "{q}");
        }
    }

    #[test]
    fn index_ddl_errors() {
        let db = db_with_users();
        db.execute_str("CREATE INDEX i ON users (id)").unwrap();
        assert!(db.execute_str("CREATE INDEX i ON users (age)").is_err());
        db.execute_str("CREATE INDEX IF NOT EXISTS i ON users (age)")
            .unwrap();
        assert!(db.execute_str("CREATE INDEX j ON users (nope)").is_err());
        assert!(db.execute_str("CREATE INDEX j ON nope (id)").is_err());
        assert!(db.execute_str("DROP INDEX nope ON users").is_err());
        db.execute_str("DROP INDEX i ON users").unwrap();
        assert_eq!(db.snapshot_table("users").unwrap().indexes().count(), 0);
    }

    #[test]
    fn reserved_table_namespace_rejected() {
        let db = Database::new();
        assert!(db.execute_str("CREATE TABLE __rp_x (a INTEGER)").is_err());
    }

    #[test]
    fn bind_params_evaluate_and_report_unbound() {
        let db = db_with_users();
        let stmt = crate::parser::parse_str("SELECT name FROM users WHERE id = ?").unwrap();
        let r = db.execute(&stmt, &[Value::Int(2)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Text("bob".into()));
        let err = db.execute(&stmt, &[]).unwrap_err();
        assert!(err.to_string().contains("parameter ?1"), "{err}");
    }

    #[test]
    fn probe_with_bound_param_uses_index() {
        let db = db_with_users();
        db.execute_str("CREATE INDEX ix_id ON users (id) USING HASH")
            .unwrap();
        let stmt = crate::parser::parse_str("SELECT name FROM users WHERE id = ?").unwrap();
        // The planner sees the bound value, so the probe applies.
        let t = &db.snapshot_table("users").unwrap();
        let Statement::Select(sel) = &stmt else {
            unreachable!()
        };
        let plan = plan::explain_select(t, sel, &[Value::Int(3)]);
        assert!(plan.contains("probe-eq"), "{plan}");
        // Unbound: planner falls back to scan (eval then reports).
        let plan = plan::explain_select(t, sel, &[]);
        assert_eq!(plan, "scan(users)");
        let r = db.execute(&stmt, &[Value::Int(3)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Text("carol".into()));
    }
}
