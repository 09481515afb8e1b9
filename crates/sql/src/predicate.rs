//! The `WHERE` clause, bound once per statement execution.
//!
//! [`Predicate::bind`] resolves everything about a clause that does not
//! depend on the row — column names to indices, `?N` to the bound value,
//! literals to [`Value`]s, a constant `LIKE` pattern to its compiled
//! [`LikePattern`] — and [`Predicate::test`] then evaluates it against a
//! borrowed row without cloning a cell or allocating.
//!
//! **The index narrows, the predicate decides.** An index probe
//! ([`crate::plan`]) only proposes candidate rows; every candidate is
//! passed through the full predicate, so an access path can change how
//! many rows are tested and never which rows match.
//!
//! # Semantics
//!
//! * Comparison is [`Value::compare`]: NULL compares as unknown, which is
//!   false under every operator including `!=`; mixed int/text compares
//!   by rendering the int as text.
//! * `LIKE` is [`like_match`]: `%` any run, `_` exactly one **byte**,
//!   other bytes ASCII-case-insensitive, at most O(text × pattern) byte
//!   comparisons. It is false when either side is not text.
//! * `AND`/`OR` evaluate **both** sides, and `IN` stops at the first
//!   equal item, so which errors a clause can raise does not depend on
//!   the data it short-circuits over.
//! * A column the table does not have, or a `?N` with no bound value, is
//!   an error of the *evaluation*, not of binding: it surfaces when the
//!   first candidate row reaches that operand, so a statement over an
//!   empty table (or whose probe finds no candidate) succeeds.

use std::cmp::Ordering;

use crate::ast::{BinOp, Expr};
use crate::engine::Table;
use crate::error::{Result, SqlError};
use crate::like::LikePattern;
use crate::value::{like_match, Value};

/// A `WHERE` clause bound to one table and one set of parameter values.
pub(crate) struct Predicate<'a>(Option<Node<'a>>);

enum Node<'a> {
    /// The row's cell at this index.
    Column(usize),
    /// A literal, built once at bind time.
    Lit(Value),
    /// A bound parameter, borrowed from the caller.
    Param(&'a Value),
    /// An unknown column or unbound parameter: raised when evaluated.
    Unbound(SqlError),
    Not(Box<Node<'a>>),
    IsNull {
        expr: Box<Node<'a>>,
        negated: bool,
    },
    InList {
        expr: Box<Node<'a>>,
        list: Vec<Node<'a>>,
        negated: bool,
    },
    Like {
        text: Box<Node<'a>>,
        pattern: Box<Node<'a>>,
        /// `pattern` compiled, when it is constant text.
        compiled: Option<LikePattern>,
    },
    Binary {
        op: BinOp,
        left: Box<Node<'a>>,
        right: Box<Node<'a>>,
    },
}

static TRUE: Value = Value::Int(1);
static FALSE: Value = Value::Int(0);

fn truth(b: bool) -> &'static Value {
    if b {
        &TRUE
    } else {
        &FALSE
    }
}

impl<'a> Predicate<'a> {
    /// Binds `clause` (absent: every row matches) to `t`'s columns and
    /// to `params`. Never fails; see the module docs for why.
    pub(crate) fn bind(t: &Table, clause: Option<&Expr>, params: &'a [Value]) -> Self {
        Predicate(clause.map(|e| Node::bind(t, e, params)))
    }

    /// Whether `row` (a row of the bound table) satisfies the clause.
    pub(crate) fn test(&self, row: &[Value]) -> Result<bool> {
        match &self.0 {
            None => Ok(true),
            Some(node) => Ok(node.eval(row)?.truthy()),
        }
    }
}

impl<'a> Node<'a> {
    fn bind(t: &Table, expr: &Expr, params: &'a [Value]) -> Node<'a> {
        let bind = |e: &Expr| Box::new(Node::bind(t, e, params));
        match expr {
            Expr::Column(name) => match t.col_index(name) {
                Some(i) => Node::Column(i),
                None => Node::Unbound(SqlError::schema(format!("no column `{name}`"))),
            },
            Expr::Lit(l) => Node::Lit(l.value.to_value()),
            Expr::Param(i) => match params.get(*i) {
                Some(v) => Node::Param(v),
                None => Node::Unbound(SqlError::Type(format!(
                    "parameter ?{} has no bound value",
                    *i + 1
                ))),
            },
            Expr::Not(inner) => Node::Not(bind(inner)),
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: bind(expr),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Node::InList {
                expr: bind(expr),
                list: list.iter().map(|e| Node::bind(t, e, params)).collect(),
                negated: *negated,
            },
            Expr::Binary {
                op: BinOp::Like,
                left,
                right,
            } => {
                let pattern = bind(right);
                let compiled = match &*pattern {
                    Node::Lit(Value::Text(p)) | Node::Param(Value::Text(p)) => {
                        Some(LikePattern::compile(p))
                    }
                    _ => None,
                };
                Node::Like {
                    text: bind(left),
                    pattern,
                    compiled,
                }
            }
            Expr::Binary { op, left, right } => Node::Binary {
                op: *op,
                left: bind(left),
                right: bind(right),
            },
        }
    }

    /// The operand's value for `row`, borrowed from the row, the bound
    /// parameters or the node itself; boolean results are `Int(0|1)`.
    fn eval<'v>(&'v self, row: &'v [Value]) -> Result<&'v Value> {
        Ok(match self {
            Node::Column(i) => &row[*i],
            Node::Lit(v) => v,
            Node::Param(v) => *v,
            Node::Unbound(e) => return Err(e.clone()),
            Node::Not(inner) => truth(!inner.eval(row)?.truthy()),
            Node::IsNull { expr, negated } => truth(expr.eval(row)?.is_null() != *negated),
            Node::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                let mut found = false;
                for item in list {
                    if v.compare(item.eval(row)?) == Some(Ordering::Equal) {
                        found = true;
                        break;
                    }
                }
                truth(found != *negated)
            }
            Node::Like {
                text,
                pattern,
                compiled,
            } => {
                let (l, r) = (text.eval(row)?, pattern.eval(row)?);
                truth(match (l, r, compiled) {
                    (Value::Text(s), Value::Text(_), Some(c)) => c.matches(s),
                    (Value::Text(s), Value::Text(p), None) => like_match(s, p),
                    _ => false,
                })
            }
            Node::Binary { op, left, right } => {
                let (l, r) = (left.eval(row)?, right.eval(row)?);
                truth(match op {
                    BinOp::And => l.truthy() && r.truthy(),
                    BinOp::Or => l.truthy() || r.truthy(),
                    cmp => match (cmp, l.compare(r)) {
                        (_, None) => false,
                        (BinOp::Eq, Some(o)) => o == Ordering::Equal,
                        (BinOp::Ne, Some(o)) => o != Ordering::Equal,
                        (BinOp::Lt, Some(o)) => o == Ordering::Less,
                        (BinOp::Le, Some(o)) => o != Ordering::Greater,
                        (BinOp::Gt, Some(o)) => o == Ordering::Greater,
                        (BinOp::Ge, Some(o)) => o != Ordering::Less,
                        (BinOp::And | BinOp::Or | BinOp::Like, _) => {
                            unreachable!("and/or matched above, like bound to Node::Like")
                        }
                    },
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::engine::Database;
    use crate::like::like_match_recursive;
    use crate::parser::parse_str;

    /// The evaluator this module replaced, verbatim: it resolved columns
    /// by name, cloned every operand and ran the recursive `LIKE`, per
    /// row. Kept as the oracle for what a clause means.
    fn oracle(t: &Table, row: &[Value], clause: &Expr, params: &[Value]) -> Result<bool> {
        fn eval(t: &Table, row: &[Value], expr: &Expr, params: &[Value]) -> Result<Value> {
            let bool_value = |b: bool| Value::Int(if b { 1 } else { 0 });
            match expr {
                Expr::Column(name) => {
                    let i = t
                        .col_index(name)
                        .ok_or_else(|| SqlError::schema(format!("no column `{name}`")))?;
                    Ok(row[i].clone())
                }
                Expr::Lit(l) => Ok(l.value.to_value()),
                Expr::Param(i) => params.get(*i).cloned().ok_or_else(|| {
                    SqlError::Type(format!("parameter ?{} has no bound value", *i + 1))
                }),
                Expr::Not(inner) => Ok(bool_value(!eval(t, row, inner, params)?.truthy())),
                Expr::IsNull { expr, negated } => Ok(bool_value(
                    eval(t, row, expr, params)?.is_null() != *negated,
                )),
                Expr::InList {
                    expr,
                    list,
                    negated,
                } => {
                    let v = eval(t, row, expr, params)?;
                    let mut found = false;
                    for item in list {
                        let w = eval(t, row, item, params)?;
                        if v.compare(&w) == Some(Ordering::Equal) {
                            found = true;
                            break;
                        }
                    }
                    Ok(bool_value(found != *negated))
                }
                Expr::Binary { op, left, right } => {
                    let l = eval(t, row, left, params)?;
                    let r = eval(t, row, right, params)?;
                    Ok(bool_value(match op {
                        BinOp::And => l.truthy() && r.truthy(),
                        BinOp::Or => l.truthy() || r.truthy(),
                        BinOp::Like => match (&l, &r) {
                            (Value::Text(s), Value::Text(p)) => like_match_recursive(s, p),
                            _ => false,
                        },
                        cmp => match (cmp, l.compare(&r)) {
                            (_, None) => false,
                            (BinOp::Eq, Some(o)) => o == Ordering::Equal,
                            (BinOp::Ne, Some(o)) => o != Ordering::Equal,
                            (BinOp::Lt, Some(o)) => o == Ordering::Less,
                            (BinOp::Le, Some(o)) => o != Ordering::Greater,
                            (BinOp::Gt, Some(o)) => o == Ordering::Greater,
                            (BinOp::Ge, Some(o)) => o != Ordering::Less,
                            _ => unreachable!("and/or/like handled above"),
                        },
                    }))
                }
            }
        }
        Ok(eval(t, row, clause, params)?.truthy())
    }

    /// Every cell kind in every column the clauses below look at: NULLs,
    /// an int stored in a text column, text that reads as an int.
    fn db() -> Database {
        let db = Database::new();
        db.execute_str("CREATE TABLE t (id INTEGER, name TEXT, n INTEGER, s TEXT)")
            .unwrap();
        db.execute_str(
            "INSERT INTO t VALUES (1, 'alice', 30, 'a%'), (2, 'bob', NULL, '%O%'), \
             (3, 'Carol', 0, NULL), (4, '5', 5, ''), (5, NULL, 35, '_ob'), (6, 7, 7, 'x')",
        )
        .unwrap();
        db
    }

    /// A deep copy: statements run against it leave `db` as it was.
    fn copy_of(db: &Database) -> Database {
        let copy = Database::new();
        for name in db.table_names() {
            copy.restore_table(&name, db.snapshot_table(&name));
        }
        copy
    }

    fn where_of(sql: &str) -> Expr {
        match parse_str(sql).unwrap() {
            Statement::Select(sel) => sel.where_clause.unwrap(),
            other => panic!("not a select: {other:?}"),
        }
    }

    /// Runs `clause` as a SELECT, an UPDATE and a DELETE over copies of
    /// `db` and holds each to what the oracle says row by row, in storage
    /// order: same rows, or the same error from the same row.
    fn assert_parity(db: &Database, table: &str, clause: &str, params: &[Value]) {
        let expr = where_of(&format!("SELECT * FROM {table} WHERE {clause}"));
        let t = &db.snapshot_table(table).unwrap();
        let want: Result<Vec<bool>> = t
            .rows
            .iter()
            .map(|row| oracle(t, row, &expr, params))
            .collect();
        let run = |sql: String| {
            let copy = copy_of(db);
            let stmt = parse_str(&sql).unwrap();
            let r = copy.execute(&stmt, params);
            (r, copy)
        };

        let (selected, _) = run(format!("SELECT * FROM {table} WHERE {clause}"));
        let (updated, after_update) = run(format!("UPDATE {table} SET id = -1 WHERE {clause}"));
        let (deleted, after_delete) = run(format!("DELETE FROM {table} WHERE {clause}"));
        match want {
            Err(e) => {
                assert_eq!(selected.unwrap_err(), e, "SELECT {clause}");
                assert_eq!(updated.unwrap_err(), e, "UPDATE {clause}");
                assert_eq!(deleted.unwrap_err(), e, "DELETE {clause}");
                assert_eq!(after_update.snapshot_table(table).unwrap().rows, t.rows);
                assert_eq!(after_delete.snapshot_table(table).unwrap().rows, t.rows);
            }
            Ok(hits) => {
                let kept = |keep: bool| -> Vec<Vec<Value>> {
                    t.rows
                        .iter()
                        .zip(&hits)
                        .filter(|(_, &hit)| hit == keep)
                        .map(|(row, _)| row.clone())
                        .collect()
                };
                let n = hits.iter().filter(|&&h| h).count();
                assert_eq!(selected.unwrap().rows, kept(true), "SELECT {clause}");
                assert_eq!(updated.unwrap().affected, n, "UPDATE {clause}");
                assert_eq!(deleted.unwrap().affected, n, "DELETE {clause}");
                assert_eq!(
                    after_delete.snapshot_table(table).unwrap().rows,
                    kept(false),
                    "DELETE {clause}"
                );
                for ((before, after), &hit) in t
                    .rows
                    .iter()
                    .zip(&after_update.snapshot_table(table).unwrap().rows)
                    .zip(&hits)
                {
                    let id = if hit {
                        Value::Int(-1)
                    } else {
                        before[0].clone()
                    };
                    assert_eq!(after[0], id, "UPDATE {clause}");
                    assert_eq!(after[1..], before[1..], "UPDATE {clause}");
                }
            }
        }
    }

    #[test]
    fn every_expr_shape_means_what_the_cloning_evaluator_said() {
        let db = db();
        for clause in [
            // NOT, and operands that are not comparisons at all
            "NOT n",
            "NOT (name = 'bob')",
            "NOT NOT s",
            "n",
            "name",
            "1",
            "0",
            "''",
            "NULL",
            // IS [NOT] NULL
            "n IS NULL",
            "s IS NOT NULL",
            "(n = 30) IS NULL",
            // IN
            "id IN (1, 3)",
            "id NOT IN (1, 3)",
            "name IN ('bob', 7)",
            "n IN (NULL, 30)",
            "n NOT IN (NULL, 30)",
            "name IN (s, 'alice')",
            // AND / OR
            "id = 1 AND name = 'alice'",
            "id = 1 OR name = 'bob'",
            "id > 1 AND id < 5 AND n IS NOT NULL",
            "id = 1 OR id = 2 AND name = 'zzz'",
            // mixed int/text compare
            "id = '2'",
            "name = 5",
            "name > 1",
            "name <= 7",
            "s < 10",
            "n >= '30'",
            // NULL comparisons: unknown is false under every operator
            "n = NULL",
            "n != NULL",
            "n != 30",
            "NULL = NULL",
            "name < 'b'",
            // LIKE: constant, dynamic, and with a side that is not text
            "name LIKE '%O%'",
            "name LIKE 'a%e'",
            "name LIKE '_ob'",
            "name LIKE s",
            "'bob' LIKE s",
            "n LIKE '3%'",
            "name LIKE 5",
            "name LIKE n",
            "name LIKE NULL",
            "NOT (name LIKE '%o%')",
            // comparisons of comparisons
            "(id = 1) = (name = 'alice')",
            "(n IS NULL) != (s IS NULL)",
        ] {
            assert_parity(&db, "t", clause, &[]);
        }
        for (clause, params) in [
            ("id = ?", vec![Value::Int(2)]),
            ("id = ?", vec![Value::Text("2".into())]),
            ("name LIKE ?", vec![Value::Text("%O%".into())]),
            ("name LIKE ?", vec![Value::Int(1)]),
            ("name LIKE ?", vec![Value::Null]),
            ("n IN (?, ?)", vec![Value::Int(5), Value::Null]),
            (
                "n > ? AND name != ?",
                vec![Value::Int(1), Value::Text("5".into())],
            ),
        ] {
            assert_parity(&db, "t", clause, &params);
        }
    }

    #[test]
    fn unknown_columns_and_unbound_params_fail_at_the_first_row_that_reaches_them() {
        let db = db();
        db.execute_str("CREATE TABLE empty (id INTEGER)").unwrap();
        let one = [Value::Int(1)];
        for (clause, params) in [
            ("nope = 1", &[][..]),
            ("id = ?", &[]),
            ("id = ? AND n = ?", &one),
            // AND and OR evaluate both sides whatever the left says.
            ("id = 99 AND nope = 1", &[]),
            ("id > 0 OR nope = 1", &[]),
            ("id > 0 OR id = ?", &[]),
            // The left operand's error wins: evaluation is left to right.
            ("nope = 1 AND id = ?", &[]),
            ("id = ? AND nope = 1", &[]),
            ("nope LIKE ?", &[]),
            ("name LIKE ? AND nope = 1", &[]),
            // IN stops at the first equal item: row 1 never reaches `nope`
            // and row 2 does.
            ("id IN (1, nope)", &[]),
            ("id NOT IN (?, 2)", &[]),
            ("NOT nope", &[]),
            ("nope IS NULL", &[]),
        ] {
            assert_parity(&db, "t", clause, params);
            // No row, no evaluation, no error.
            assert_parity(&db, "empty", clause, params);
        }
        let err = db
            .execute_str("SELECT * FROM t WHERE nope = 1")
            .unwrap_err();
        assert_eq!(err, SqlError::schema("no column `nope`"));
        let stmt = parse_str("DELETE FROM t WHERE id = ? AND n = ?").unwrap();
        let err = db.execute(&stmt, &one).unwrap_err();
        assert_eq!(
            err,
            SqlError::Type("parameter ?2 has no bound value".into())
        );
    }

    #[test]
    fn the_index_narrows_and_the_predicate_decides() {
        let db = db();
        db.execute_str("CREATE INDEX ix_id ON t (id) USING HASH")
            .unwrap();
        db.execute_str("CREATE INDEX ix_n ON t (n)").unwrap();
        let plain = self::db();
        for clause in [
            "id = 2 AND name = 'zzz'",
            "id = 2 AND name LIKE 'B%'",
            "id IN (1, 2, 3) AND n IS NULL",
            "n > 4 AND name LIKE '%a%'",
            "n >= 5 AND n < 35 AND NOT (s = 'x')",
            "n > 0 AND name IS NULL",
        ] {
            let sql = format!("SELECT * FROM t WHERE {clause}");
            assert!(
                db.explain(&sql).unwrap().starts_with("probe-"),
                "{clause}: {}",
                db.explain(&sql).unwrap()
            );
            // The probing database answers exactly as the scanning one,
            // which the oracle vouches for.
            assert_parity(&plain, "t", clause, &[]);
            for verb in ["SELECT * FROM t", "DELETE FROM t", "UPDATE t SET s = 'hit'"] {
                let sql = format!("{verb} WHERE {clause}");
                let (a, b) = (copy_of(&db), copy_of(&plain));
                let (ra, rb) = (a.execute_str(&sql).unwrap(), b.execute_str(&sql).unwrap());
                assert_eq!((ra.rows, ra.affected), (rb.rows, rb.affected), "{sql}");
                assert_eq!(
                    a.snapshot_table("t").unwrap().rows,
                    b.snapshot_table("t").unwrap().rows,
                    "{sql}"
                );
            }
        }
        // A candidate reaches the bad operand; no candidate, no error —
        // where a scan tests every row and fails on the first.
        for verb in ["SELECT * FROM t", "DELETE FROM t", "UPDATE t SET s = 'hit'"] {
            let err = copy_of(&db)
                .execute_str(&format!("{verb} WHERE id = 2 AND nope = 1"))
                .unwrap_err();
            assert_eq!(err, SqlError::schema("no column `nope`"), "{verb}");
            let r = copy_of(&db)
                .execute_str(&format!("{verb} WHERE id = 99 AND nope = 1"))
                .unwrap();
            assert_eq!((r.rows.len(), r.affected), (0, 0), "{verb}");
            assert!(copy_of(&plain)
                .execute_str(&format!("{verb} WHERE id = 99 AND nope = 1"))
                .is_err());
        }
    }
}
