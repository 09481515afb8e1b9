//! A minimal access-path planner.
//!
//! Runs **post-guard / post-rewrite**: by the time a statement reaches
//! the planner it has already passed the injection guard and had its
//! policy columns attached, so planning is pure engine-side work on
//! trusted structure. The planner decomposes the `WHERE` clause into
//! AND-conjuncts, matches each against the table's secondary indexes,
//! and picks one of three access paths:
//!
//! 1. **Equality probe** (`col = lit`, `col IN (lits)`): the
//!    session/login/post-by-id shape the forum and wiki hammer. Hash
//!    indexes are preferred; an ordered index serves equality too.
//! 2. **Range probe** (`col > lit`, chains of range conjuncts on one
//!    column with bound tightening) over an ordered index. When the
//!    range column is also the `ORDER BY` column and the index is exact,
//!    rows come back already sorted and `LIMIT` pushes down.
//! 3. **Ordered iteration**: no usable predicate conjunct, but the
//!    `ORDER BY` column has an exact ordered index — skip the sort.
//!
//! Anything else falls back to the full scan. **The index narrows, the
//! predicate decides**: probes return *candidate* ids only, and the
//! executor tests the complete bound `WHERE` clause against each
//! candidate, so a plan can never change a result, only the amount of
//! work to produce it. The planner is deliberately conservative about
//! [`Value::compare`]'s cross-type leniency: a conjunct whose literal is
//! not of the index's declared key type is never matched to an index
//! (an INTEGER probe for `'5'` would miss `Int(5)` cells that lenient
//! equality matches — see [`crate::index`] on non-transitivity).

use std::ops::Bound;

use crate::ast::{BinOp, Expr, IndexKind, SelectStmt};
use crate::engine::Table;
use crate::error::Result;
use crate::index::{kind_name, Index};
use crate::predicate::Predicate;
use crate::value::Value;

/// The chosen access path for a statement over one table.
pub(crate) enum Access {
    /// Walk every row in storage order.
    Scan,
    /// Candidate row ids, ascending (scan order). The full predicate must
    /// be re-applied to each.
    Ids(Vec<usize>),
    /// Candidate row ids already in `ORDER BY` order (ties in row order).
    /// The full predicate must be re-applied; `LIMIT` may stop early.
    KeyOrdered(Vec<usize>),
}

/// One matched index strategy, before materializing row ids.
enum Choice<'t> {
    Scan,
    /// `col = k` / `col IN (ks)` via `ix`.
    Eq {
        ix: &'t Index,
        keys: Vec<Value>,
    },
    /// A (possibly half-open) key range on `ix`; `ordered` means the ids
    /// may be emitted in key order to satisfy ORDER BY.
    Range {
        ix: &'t Index,
        lo: Bound<Value>,
        hi: Bound<Value>,
        ordered: bool,
        desc: bool,
    },
    /// Full-key iteration of `ix` to satisfy ORDER BY without sorting.
    OrderIter {
        ix: &'t Index,
        desc: bool,
    },
}

/// Plans the access path for a SELECT.
pub(crate) fn plan_select(t: &Table, sel: &SelectStmt, params: &[Value]) -> Access {
    let order = sel.order_by.as_ref().map(|(c, d)| (c.as_str(), *d));
    // With no WHERE clause every iterated row survives, so LIMIT caps the
    // order-only iteration itself (O(limit) instead of O(table)). A
    // predicate can reject rows, so there the iteration must stay full.
    let cap = match (&sel.where_clause, sel.limit) {
        (None, Some(n)) => n,
        _ => usize::MAX,
    };
    materialize(choose(t, sel.where_clause.as_ref(), order, params), cap)
}

/// Row ids matching `where_clause`, ascending — the shared path for
/// UPDATE and DELETE (and any caller that needs exact hits rather than
/// result rows). Uses an index probe when one matches, then re-applies
/// the full predicate.
pub(crate) fn matching_row_ids(
    t: &Table,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<usize>> {
    let pred = Predicate::bind(t, where_clause, params);
    let mut hits = Vec::new();
    match materialize(choose(t, where_clause, None, params), usize::MAX) {
        Access::Scan => {
            for (ri, row) in t.rows.iter().enumerate() {
                if pred.test(row)? {
                    hits.push(ri);
                }
            }
        }
        Access::Ids(ids) | Access::KeyOrdered(ids) => {
            for id in ids {
                if pred.test(&t.rows[id])? {
                    hits.push(id);
                }
            }
        }
    }
    Ok(hits)
}

/// A one-line description of the plan for a SELECT — `EXPLAIN` for tests
/// and diagnostics.
pub(crate) fn explain_select(t: &Table, sel: &SelectStmt, params: &[Value]) -> String {
    let order = sel.order_by.as_ref().map(|(c, d)| (c.as_str(), *d));
    match choose(t, sel.where_clause.as_ref(), order, params) {
        Choice::Scan => format!("scan({})", sel.table),
        Choice::Eq { ix, keys } => format!(
            "probe-eq({} via {} [{}], {} key{})",
            sel.table,
            ix.name(),
            kind_name(ix.kind()),
            keys.len(),
            if keys.len() == 1 { "" } else { "s" }
        ),
        Choice::Range { ix, ordered, .. } => format!(
            "probe-range({} via {}{})",
            sel.table,
            ix.name(),
            if ordered { ", pre-ordered" } else { "" }
        ),
        Choice::OrderIter { ix, desc } => format!(
            "order-iter({} via {}{})",
            sel.table,
            ix.name(),
            if desc { ", desc" } else { "" }
        ),
    }
}

fn materialize(choice: Choice<'_>, order_cap: usize) -> Access {
    match choice {
        Choice::Scan => Access::Scan,
        Choice::Eq { ix, keys } => {
            let mut ids: Vec<usize> = Vec::new();
            for k in &keys {
                ids.extend_from_slice(ix.probe_eq(k));
            }
            ids.extend_from_slice(ix.residue());
            ids.sort_unstable();
            ids.dedup();
            Access::Ids(ids)
        }
        Choice::Range {
            ix,
            lo,
            hi,
            ordered,
            desc,
        } => {
            if ordered {
                Access::KeyOrdered(ix.probe_range(lo.as_ref(), hi.as_ref(), desc))
            } else {
                let mut ids = ix.probe_range(lo.as_ref(), hi.as_ref(), false);
                ids.extend_from_slice(ix.residue());
                ids.sort_unstable();
                Access::Ids(ids)
            }
        }
        Choice::OrderIter { ix, desc } => {
            Access::KeyOrdered(ix.ordered_ids_capped(desc, order_cap))
        }
    }
}

fn choose<'t>(
    t: &'t Table,
    where_clause: Option<&Expr>,
    order: Option<(&str, bool)>,
    params: &[Value],
) -> Choice<'t> {
    let mut cs = Vec::new();
    if let Some(e) = where_clause {
        conjuncts(e, &mut cs);
    }

    // 1. Equality probe: the most selective shape we recognize.
    for c in &cs {
        if let Some((col, keys)) = eq_shape(c, params) {
            if let Some(ix) = index_for(t, col, /* needs_order: */ false) {
                if keys.iter().all(|k| ix.covers_literal(k)) {
                    return Choice::Eq { ix, keys };
                }
            }
        }
    }

    // 2. Range probe with bound tightening across conjuncts per column.
    //    Prefer a range on the ORDER BY column (enables sort skipping).
    let mut ranges: Vec<(&str, &'t Index, Bound<Value>, Bound<Value>)> = Vec::new();
    for c in &cs {
        let Some((col, op, key)) = range_shape(c, params) else {
            continue;
        };
        let Some(ix) = ordered_index_on(t, col) else {
            continue;
        };
        if !ix.covers_literal(&key) {
            continue;
        }
        let slot = match ranges.iter_mut().find(|(rc, ..)| *rc == col) {
            Some(s) => s,
            None => {
                ranges.push((col, ix, Bound::Unbounded, Bound::Unbounded));
                ranges.last_mut().expect("just pushed")
            }
        };
        match op {
            BinOp::Gt => tighten_lo(&mut slot.2, Bound::Excluded(key)),
            BinOp::Ge => tighten_lo(&mut slot.2, Bound::Included(key)),
            BinOp::Lt => tighten_hi(&mut slot.3, Bound::Excluded(key)),
            BinOp::Le => tighten_hi(&mut slot.3, Bound::Included(key)),
            _ => unreachable!("range_shape only yields range ops"),
        }
    }
    if !ranges.is_empty() {
        let on_order = order.and_then(|(oc, desc)| {
            ranges
                .iter()
                .position(|(rc, ix, ..)| *rc == oc && ix.supports_ordered_iteration())
                .map(|i| (i, desc))
        });
        let (i, ordered, desc) = match on_order {
            Some((i, desc)) => (i, true, desc),
            None => (0, false, false),
        };
        let (_, ix, lo, hi) = ranges.swap_remove(i);
        return Choice::Range {
            ix,
            lo,
            hi,
            ordered,
            desc,
        };
    }

    // 3. No usable predicate: ordered iteration for ORDER BY alone.
    if let Some((oc, desc)) = order {
        if let Some(ix) = ordered_index_on(t, oc) {
            if ix.supports_ordered_iteration() {
                return Choice::OrderIter { ix, desc };
            }
        }
    }
    Choice::Scan
}

/// Splits nested `AND`s into a conjunct list.
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            conjuncts(left, out);
            conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// `col = lit`, `lit = col`, or `col IN (lit, ...)` — returns the column
/// and the probe keys. NULL keys never match anything under `=`/`IN`, so
/// they disqualify the shape (the scan handles them, matching nothing).
fn eq_shape<'e>(e: &'e Expr, params: &[Value]) -> Option<(&'e str, Vec<Value>)> {
    match e {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (col, lit) = column_and_value(left, right, params)?;
            if lit.is_null() {
                return None;
            }
            Some((col, vec![lit]))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let Expr::Column(col) = expr.as_ref() else {
                return None;
            };
            let mut keys = Vec::with_capacity(list.len());
            for item in list {
                let v = const_value(item, params)?;
                // A NULL element matches nothing; skip it rather than
                // disqualifying the whole list.
                if !v.is_null() {
                    keys.push(v);
                }
            }
            Some((col, keys))
        }
        _ => None,
    }
}

/// `col <op> lit` or `lit <op> col` for a range operator; the operator is
/// returned as if the column were on the left.
fn range_shape<'e>(e: &'e Expr, params: &[Value]) -> Option<(&'e str, BinOp, Value)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    if let (Expr::Column(c), Some(v)) = (left.as_ref(), const_value(right, params)) {
        if v.is_null() {
            return None;
        }
        return Some((c, *op, v));
    }
    if let (Some(v), Expr::Column(c)) = (const_value(left, params), right.as_ref()) {
        if v.is_null() {
            return None;
        }
        let flipped = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            _ => unreachable!("filtered above"),
        };
        return Some((c, flipped, v));
    }
    None
}

fn column_and_value<'e>(
    left: &'e Expr,
    right: &'e Expr,
    params: &[Value],
) -> Option<(&'e str, Value)> {
    if let (Expr::Column(c), Some(v)) = (left, const_value(right, params)) {
        return Some((c, v));
    }
    if let (Some(v), Expr::Column(c)) = (const_value(left, params), right) {
        return Some((c, v));
    }
    None
}

/// The constant value of a literal or bound parameter, if any. An unbound
/// parameter yields `None`, which routes the statement to the scan path
/// where evaluation reports the missing binding.
fn const_value(e: &Expr, params: &[Value]) -> Option<Value> {
    match e {
        Expr::Lit(l) => Some(l.value.to_value()),
        Expr::Param(i) => params.get(*i).cloned(),
        _ => None,
    }
}

/// An index on `col`, preferring hash over ordered for equality probes.
fn index_for<'t>(t: &'t Table, col: &str, needs_order: bool) -> Option<&'t Index> {
    let mut best: Option<&Index> = None;
    for ix in t.indexes() {
        if ix.column() != col {
            continue;
        }
        match ix.kind() {
            IndexKind::Ordered => {
                if best.is_none() {
                    best = Some(ix);
                }
            }
            IndexKind::Hash => {
                if !needs_order {
                    return Some(ix);
                }
            }
        }
    }
    best
}

fn ordered_index_on<'t>(t: &'t Table, col: &str) -> Option<&'t Index> {
    t.indexes()
        .find(|ix| ix.column() == col && ix.kind() == IndexKind::Ordered)
}

fn tighten_lo(cur: &mut Bound<Value>, new: Bound<Value>) {
    if bound_beats(&new, cur, /* is_lower: */ true) {
        *cur = new;
    }
}

fn tighten_hi(cur: &mut Bound<Value>, new: Bound<Value>) {
    if bound_beats(&new, cur, /* is_lower: */ false) {
        *cur = new;
    }
}

/// Whether `new` is a strictly tighter bound than `cur`. Both bound
/// values are of the index key type (checked via `covers_literal`), so
/// `Value::compare` is total here.
fn bound_beats(new: &Bound<Value>, cur: &Bound<Value>, is_lower: bool) -> bool {
    use std::cmp::Ordering::*;
    let (nv, n_excl) = match new {
        Bound::Included(v) => (v, false),
        Bound::Excluded(v) => (v, true),
        Bound::Unbounded => return false,
    };
    let (cv, c_excl) = match cur {
        Bound::Included(v) => (v, false),
        Bound::Excluded(v) => (v, true),
        Bound::Unbounded => return true,
    };
    match nv.compare(cv) {
        Some(Greater) => is_lower,
        Some(Less) => !is_lower,
        Some(Equal) => n_excl && !c_excl,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::parser::parse_str;
    use crate::Statement;

    fn planned(db: &Database, sql: &str) -> String {
        let Statement::Select(sel) = parse_str(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let t = db.snapshot_table(&sel.table).unwrap();
        explain_select(&t, &sel, &[])
    }

    fn db() -> Database {
        let db = Database::new();
        db.execute_str("CREATE TABLE users (id INTEGER, name TEXT, age INTEGER)")
            .unwrap();
        db.execute_str(
            "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)",
        )
        .unwrap();
        db.execute_str("CREATE INDEX ix_id ON users (id) USING HASH")
            .unwrap();
        db.execute_str("CREATE INDEX ix_age ON users (age)")
            .unwrap();
        db
    }

    #[test]
    fn eq_prefers_hash() {
        let db = db();
        let plan = planned(&db, "SELECT name FROM users WHERE id = 2");
        assert!(
            plan.contains("probe-eq") && plan.contains("ix_id"),
            "{plan}"
        );
    }

    #[test]
    fn eq_on_ordered_index_works() {
        let db = db();
        let plan = planned(&db, "SELECT name FROM users WHERE age = 25");
        assert!(
            plan.contains("probe-eq") && plan.contains("ix_age"),
            "{plan}"
        );
    }

    #[test]
    fn in_list_probes() {
        let db = db();
        let plan = planned(&db, "SELECT name FROM users WHERE id IN (1, 3)");
        assert!(
            plan.contains("probe-eq") && plan.contains("2 keys"),
            "{plan}"
        );
    }

    #[test]
    fn range_uses_ordered_only() {
        let db = db();
        let plan = planned(&db, "SELECT name FROM users WHERE age > 26");
        assert!(plan.contains("probe-range"), "{plan}");
        // Hash index cannot serve a range.
        let plan = planned(&db, "SELECT name FROM users WHERE id > 1");
        assert_eq!(plan, "scan(users)");
    }

    #[test]
    fn range_on_order_column_pre_orders() {
        let db = db();
        let plan = planned(
            &db,
            "SELECT name FROM users WHERE age > 20 ORDER BY age LIMIT 1",
        );
        assert!(plan.contains("pre-ordered"), "{plan}");
    }

    #[test]
    fn order_only_iterates_index() {
        let db = db();
        let plan = planned(&db, "SELECT name FROM users ORDER BY age DESC");
        assert!(
            plan.contains("order-iter") && plan.contains("desc"),
            "{plan}"
        );
    }

    #[test]
    fn mismatched_literal_type_falls_back_to_scan() {
        let db = db();
        // '2' could leniently equal Int(2) cells the probe would miss.
        let plan = planned(&db, "SELECT name FROM users WHERE id = '2'");
        assert_eq!(plan, "scan(users)");
    }

    #[test]
    fn unindexed_predicate_scans() {
        let db = db();
        let plan = planned(&db, "SELECT id FROM users WHERE name = 'bob'");
        assert_eq!(plan, "scan(users)");
    }
}
