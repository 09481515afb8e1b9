//! Secondary indexes over a [`Table`](crate::Table)'s row storage.
//!
//! An index maps **raw cell values** to row ids (positions in
//! `Table::rows`). It stores no cell payloads and no labels: a probe
//! yields candidate row ids, and the executor re-materializes each row
//! from `t.rows`, where every cell still carries its exact [`Label`]
//! (as the policy text a tracked row keeps beside each value).
//! Structurally, therefore, an index probe can never launder a policy —
//! the exported cells are the very same cells a full scan would export,
//! bit-identical in value and per-byte labels (§3.4 closed-under-storage
//! discipline).
//!
//! [`Label`]: resin_core::label::Label
//!
//! # Typed keys and the residue set
//!
//! [`Value::compare`] is deliberately lenient across types (an `Int(5)`
//! cell equals a `'5'` text cell, the PHP-flavoured semantics the paper's
//! apps rely on), but that leniency is **not transitive**:
//! `Int(5) == Text("5")`, yet `Int(10) < Text("5")` while
//! `Int(5) < Int(10)`. A single ordered map over mixed-type keys would
//! therefore be unsound. Instead each index is typed by its column's
//! *declared* [`ColumnType`]: cells of that type go into the key map;
//! NULLs and cells of any other runtime type go into a small `residue`
//! id set that every probe appends to its candidates. The executor
//! re-evaluates the full predicate on all candidates, so probes stay
//! exact (candidate set ⊇ match set is the only invariant the index must
//! uphold). Ordered iteration (ORDER BY pushdown) is offered only while
//! the residue is empty.
//!
//! # One layout
//!
//! Every index is a B-tree over its typed keys, whatever its
//! [`IndexKind`]: `USING HASH` and `USING BTREE` are two spellings of the
//! same structure, kept so that stored catalogs and `EXPLAIN` output read
//! as they were written. A B-tree answers equality as well as ranges and
//! ordered iteration.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::ast::{ColumnDef, ColumnType, IndexKind};
use crate::error::{Result, SqlError};
use crate::value::Value;

/// A posting list: row ids in ascending order (scan order), so probe
/// results iterate rows exactly as a full scan would.
type Postings = Vec<usize>;

/// The key → postings storage, specialized by declared type.
#[derive(Debug, Clone)]
enum KeyMap {
    Int(BTreeMap<i64, Postings>),
    Text(BTreeMap<String, Postings>),
}

/// A secondary index over one column of one table.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within its table).
    pub(crate) name: String,
    /// Indexed column name.
    pub(crate) column: String,
    /// How `CREATE INDEX` spelled it (the layout is the same).
    pub(crate) kind: IndexKind,
    /// Position of the indexed column in row storage.
    pub(crate) col: usize,
    /// Declared type of the indexed column (= key type).
    key_ty: ColumnType,
    map: KeyMap,
    /// Row ids whose cell is NULL or not of `key_ty`, ascending.
    residue: Postings,
}

impl Index {
    /// Builds an index over `column` from existing rows.
    pub(crate) fn build(
        name: &str,
        column: &str,
        kind: IndexKind,
        columns: &[ColumnDef],
        rows: &[Vec<Value>],
    ) -> Result<Index> {
        let col = columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| SqlError::schema(format!("no column `{column}` to index")))?;
        let key_ty = columns[col].ty;
        let map = match key_ty {
            ColumnType::Integer => KeyMap::Int(BTreeMap::new()),
            ColumnType::Text => KeyMap::Text(BTreeMap::new()),
        };
        let mut ix = Index {
            name: name.to_string(),
            column: column.to_string(),
            kind,
            col,
            key_ty,
            map,
            residue: Vec::new(),
        };
        for (id, row) in rows.iter().enumerate() {
            ix.add(id, &row[col]);
        }
        Ok(ix)
    }

    /// The index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// How `CREATE INDEX` spelled the index.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// True when ordered iteration is exact: no residue rows (no NULL /
    /// off-type cells whose position in `Value::compare` order the key
    /// map cannot represent).
    pub(crate) fn supports_ordered_iteration(&self) -> bool {
        self.residue.is_empty()
    }

    /// Row ids the key map cannot hold (NULL or off-type cells).
    pub(crate) fn residue(&self) -> &[usize] {
        &self.residue
    }

    /// Registers row `id` (which must exceed all present ids) under `cell`.
    pub(crate) fn add(&mut self, id: usize, cell: &Value) {
        match (&mut self.map, cell) {
            (KeyMap::Int(m), Value::Int(k)) => m.entry(*k).or_default().push(id),
            (KeyMap::Text(m), Value::Text(k)) => m.entry(k.clone()).or_default().push(id),
            _ => self.residue.push(id),
        }
    }

    /// Moves row `id` from key `old` to key `new` (UPDATE maintenance).
    /// Bucket order is restored by binary insertion so posting lists stay
    /// ascending (probe output must keep scan order).
    pub(crate) fn replace(&mut self, id: usize, old: &Value, new: &Value) {
        self.remove(id, old);
        self.insert_sorted(id, new);
    }

    fn remove(&mut self, id: usize, cell: &Value) {
        fn drop_id<K: Ord>(m: &mut BTreeMap<K, Postings>, k: &K, id: usize) {
            if let Some(v) = m.get_mut(k) {
                v.retain(|&x| x != id);
                if v.is_empty() {
                    m.remove(k);
                }
            }
        }
        match (&mut self.map, cell) {
            (KeyMap::Int(m), Value::Int(k)) => drop_id(m, k, id),
            (KeyMap::Text(m), Value::Text(k)) => drop_id(m, k, id),
            _ => self.residue.retain(|&x| x != id),
        }
    }

    fn insert_sorted(&mut self, id: usize, cell: &Value) {
        fn put(v: &mut Postings, id: usize) {
            let at = v.partition_point(|&x| x < id);
            v.insert(at, id);
        }
        match (&mut self.map, cell) {
            (KeyMap::Int(m), Value::Int(k)) => put(m.entry(*k).or_default(), id),
            (KeyMap::Text(m), Value::Text(k)) => put(m.entry(k.clone()).or_default(), id),
            _ => put(&mut self.residue, id),
        }
    }

    /// Applies a DELETE: `hits` are the removed row ids, ascending. Hit
    /// ids are dropped from every posting list and surviving ids are
    /// shifted down by the number of removed rows below them, mirroring
    /// the compaction `table_delete` performs on `t.rows`.
    pub(crate) fn apply_delete(&mut self, hits: &[usize]) {
        let fix = |v: &mut Postings| {
            v.retain_mut(|id| match hits.binary_search(id) {
                Ok(_) => false,
                Err(below) => {
                    *id -= below;
                    true
                }
            });
        };
        match &mut self.map {
            KeyMap::Int(m) => m.retain(|_, v| {
                fix(v);
                !v.is_empty()
            }),
            KeyMap::Text(m) => m.retain(|_, v| {
                fix(v);
                !v.is_empty()
            }),
        }
        fix(&mut self.residue);
    }

    /// True when `lit` has the index's key type, i.e. the key map alone
    /// (plus residue) covers every row that could match `column = lit`
    /// under lenient comparison. Off-type literals (e.g. `'5'` against an
    /// INTEGER index) may leniently match typed cells the probe would
    /// miss, so the planner must fall back to a scan for them.
    pub(crate) fn covers_literal(&self, lit: &Value) -> bool {
        matches!(
            (self.key_ty, lit),
            (ColumnType::Integer, Value::Int(_)) | (ColumnType::Text, Value::Text(_))
        )
    }

    /// Candidate row ids for `column = key` (the key-map bucket; residue
    /// is appended by the caller). `key` must satisfy [`covers_literal`].
    ///
    /// [`covers_literal`]: Index::covers_literal
    pub(crate) fn probe_eq(&self, key: &Value) -> &[usize] {
        match (&self.map, key) {
            (KeyMap::Int(m), Value::Int(k)) => m.get(k).map_or(&[], |v| v),
            (KeyMap::Text(m), Value::Text(k)) => m.get(k).map_or(&[], |v| v),
            _ => &[],
        }
    }

    /// Candidate row ids for a key range, in **key order** (ties in row
    /// order; reversed for `desc`). Bounds must be of the key type.
    pub(crate) fn probe_range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        desc: bool,
    ) -> Vec<usize> {
        fn collect<K: Ord + Clone>(
            m: &BTreeMap<K, Postings>,
            lo: Bound<&K>,
            hi: Bound<&K>,
            desc: bool,
        ) -> Vec<usize> {
            let lo = lo.cloned();
            let hi = hi.cloned();
            // An inverted range (lo > hi) would panic in BTreeMap::range;
            // it simply matches nothing.
            if let (
                Bound::Included(a) | Bound::Excluded(a),
                Bound::Included(b) | Bound::Excluded(b),
            ) = (&lo, &hi)
            {
                if a > b {
                    return Vec::new();
                }
                if a == b
                    && matches!(
                        (&lo, &hi),
                        (Bound::Excluded(_), _) | (_, Bound::Excluded(_))
                    )
                {
                    return Vec::new();
                }
            }
            let iter = m.range((lo, hi));
            let mut out = Vec::new();
            if desc {
                for (_, v) in iter.rev() {
                    out.extend_from_slice(v);
                }
            } else {
                for (_, v) in iter {
                    out.extend_from_slice(v);
                }
            }
            out
        }
        fn as_int(b: Bound<&Value>) -> Bound<&i64> {
            match b {
                Bound::Included(Value::Int(k)) => Bound::Included(k),
                Bound::Excluded(Value::Int(k)) => Bound::Excluded(k),
                _ => Bound::Unbounded,
            }
        }
        fn as_text(b: Bound<&Value>) -> Bound<&String> {
            match b {
                Bound::Included(Value::Text(k)) => Bound::Included(k),
                Bound::Excluded(Value::Text(k)) => Bound::Excluded(k),
                _ => Bound::Unbounded,
            }
        }
        match &self.map {
            KeyMap::Int(m) => collect(m, as_int(lo), as_int(hi), desc),
            KeyMap::Text(m) => collect(m, as_text(lo), as_text(hi), desc),
        }
    }

    /// All row ids in key order (ties ascending; keys reversed for
    /// `desc`), stopping once `cap` ids are collected — the LIMIT
    /// pushdown for order-only iteration, which turns `ORDER BY k
    /// LIMIT n` from O(table) into O(n) on a big table. The result may
    /// overshoot `cap` by a partial bucket; the caller truncates. Only
    /// meaningful when [`supports_ordered_iteration`] holds.
    ///
    /// [`supports_ordered_iteration`]: Index::supports_ordered_iteration
    pub(crate) fn ordered_ids_capped(&self, desc: bool, cap: usize) -> Vec<usize> {
        fn collect<K>(m: &BTreeMap<K, Postings>, desc: bool, cap: usize) -> Vec<usize> {
            let mut out = Vec::new();
            let iter = m.values();
            if desc {
                for v in iter.rev() {
                    out.extend_from_slice(v);
                    if out.len() >= cap {
                        break;
                    }
                }
            } else {
                for v in iter {
                    out.extend_from_slice(v);
                    if out.len() >= cap {
                        break;
                    }
                }
            }
            out
        }
        match &self.map {
            KeyMap::Int(m) => collect(m, desc, cap),
            KeyMap::Text(m) => collect(m, desc, cap),
        }
    }
}

/// Renders an [`IndexKind`] the way `CREATE INDEX ... USING` spells it.
pub(crate) fn kind_name(kind: IndexKind) -> &'static str {
    match kind {
        IndexKind::Hash => "HASH",
        IndexKind::Ordered => "BTREE",
    }
}

/// Parses a [`kind_name`] back (durable catalog decoding).
pub(crate) fn kind_from_name(s: &str) -> Option<IndexKind> {
    match s {
        "HASH" => Some(IndexKind::Hash),
        "BTREE" => Some(IndexKind::Ordered),
        _ => None,
    }
}

#[cfg(test)]
impl Index {
    /// Number of distinct keys.
    pub(crate) fn key_count(&self) -> usize {
        match &self.map {
            KeyMap::Int(m) => m.len(),
            KeyMap::Text(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                ty: ColumnType::Integer,
            },
            ColumnDef {
                name: "name".into(),
                ty: ColumnType::Text,
            },
        ]
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(10), Value::Text("b".into())],
            vec![Value::Int(5), Value::Text("a".into())],
            vec![Value::Null, Value::Text("c".into())],
            vec![Value::Int(5), Value::Text("a".into())],
        ]
    }

    #[test]
    fn eq_probe_and_residue() {
        let ix = Index::build("i", "id", IndexKind::Hash, &cols(), &rows()).unwrap();
        assert_eq!(ix.probe_eq(&Value::Int(5)), &[1, 3]);
        assert_eq!(ix.probe_eq(&Value::Int(99)), &[] as &[usize]);
        assert_eq!(ix.residue(), &[2], "NULL cell lands in residue");
        assert!(ix.covers_literal(&Value::Int(1)));
        assert!(!ix.covers_literal(&Value::Text("5".into())));
    }

    #[test]
    fn ordered_range_and_iteration() {
        let ix = Index::build("i", "id", IndexKind::Ordered, &cols(), &rows()).unwrap();
        let got = ix.probe_range(
            Bound::Included(&Value::Int(5)),
            Bound::Excluded(&Value::Int(10)),
            false,
        );
        assert_eq!(got, vec![1, 3]);
        assert_eq!(ix.ordered_ids_capped(false, usize::MAX), vec![1, 3, 0]);
        assert_eq!(
            ix.ordered_ids_capped(true, usize::MAX),
            vec![0, 1, 3],
            "ties stay ascending"
        );
        assert_eq!(
            ix.ordered_ids_capped(false, 2),
            vec![1, 3],
            "cap stops after the bucket that crosses it"
        );
        assert!(!ix.supports_ordered_iteration(), "residue row blocks it");
    }

    #[test]
    fn inverted_range_is_empty() {
        let ix = Index::build("i", "id", IndexKind::Ordered, &cols(), &rows()).unwrap();
        let got = ix.probe_range(
            Bound::Included(&Value::Int(10)),
            Bound::Included(&Value::Int(5)),
            false,
        );
        assert!(got.is_empty());
        let got = ix.probe_range(
            Bound::Excluded(&Value::Int(5)),
            Bound::Included(&Value::Int(5)),
            false,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn replace_keeps_buckets_sorted() {
        let mut ix = Index::build("i", "id", IndexKind::Ordered, &cols(), &rows()).unwrap();
        // Move row 0 (key 10) to key 5: bucket must become [0, 1, 3].
        ix.replace(0, &Value::Int(10), &Value::Int(5));
        assert_eq!(ix.probe_eq(&Value::Int(5)), &[0, 1, 3]);
        assert_eq!(ix.probe_eq(&Value::Int(10)), &[] as &[usize]);
        // Move row 1 to NULL: residue must stay sorted.
        ix.replace(1, &Value::Int(5), &Value::Null);
        assert_eq!(ix.residue(), &[1, 2]);
    }

    #[test]
    fn apply_delete_remaps_ids() {
        let mut ix = Index::build("i", "id", IndexKind::Ordered, &cols(), &rows()).unwrap();
        // Delete rows 1 and 2: survivors 0 and 3 become ids 0 and 1.
        ix.apply_delete(&[1, 2]);
        assert_eq!(ix.probe_eq(&Value::Int(10)), &[0]);
        assert_eq!(ix.probe_eq(&Value::Int(5)), &[1]);
        assert!(ix.residue().is_empty());
        assert_eq!(ix.key_count(), 2);
    }
}
