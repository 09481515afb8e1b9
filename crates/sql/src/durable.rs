//! The SQL engine's on-disk layouts: checkpoint part images and the
//! statement WAL. `ResinDb` hands both to a [`resin_store::Store`], which
//! decides what each checkpoint rewrites.
//!
//! A checkpoint holds one part per table (`tbl.<name>`), each a snapshot
//! image of that table alone, streamed straight from the table into its
//! part file and back (never whole in memory).
//!
//! This module owns the **shadow-column layout** of Figure 4 (§3.4.1).
//! The engine's schema holds data columns only; a tracked table's row
//! keeps each value's policy text after its values. An image stores such a
//! table with one `__rp_<c>` `Text` shadow column per data column `c`,
//! after the data columns, and its rows as they are. The decoder splits
//! the shadows off again, and refuses a `__rp_` column that is not the
//! exact shadow of the data column at its position. Data cells are stored
//! verbatim; shadow cells (the policy texts) are not stored as strings but
//! re-encoded as refs into the image's shared policy table — a table with
//! a million identically-labeled cells persists each distinct policy body
//! once (the durable twin of `Label` interning).
//!
//! Column definitions, cells and the WAL batch are each one `wire!`
//! declaration (`resin_store::io`), read and written from that one
//! layout; a table's rows, whose cells take their form from their
//! column, are the one loop written here. A cell stored in another form
//! than its column's (refs outside a shadow column, text inside one), a
//! table named twice and a byte after a WAL batch are refused.
//!
//! The WAL logs each mutating statement *post-guard*: the exact query text
//! `prepare_query` produced, together with the serialized byte-range
//! policies of that text. Recovery revives the tainted query and runs it
//! back through the same front, so replayed cells regain byte-identical
//! policy texts without the WAL holding any.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::mem::discriminant;

use resin_core::serialize::is_spans_blob;
use resin_core::{deserialize_spans, serialize_spans, TaintedString};
use resin_store::io::{read_all, Codec, Seq, Wire};
use resin_store::snapshot::{LabelBlob, SpansBlob};
use resin_store::{wire, HashWriter, Part, SnapshotReader, SnapshotWriter, StoreError};

use crate::ast::{ColumnDef, ColumnType};
use crate::engine::Table;
use crate::error::{Result, SqlError};
use crate::index::{kind_from_name, kind_name};
use crate::value::Value;

impl From<StoreError> for SqlError {
    fn from(e: StoreError) -> Self {
        SqlError::Storage(e.to_string())
    }
}

/// Prefix of the reserved namespace: each shadow column is named
/// `__rp_<data column>`, and the index catalog is a `__rp_` table.
pub(crate) const POLICY_COL_PREFIX: &str = "__rp_";

wire! { ColumnType: u8 { Integer {} = 0, Text {} = 1 } }
wire! { ColumnDef { name, ty } }

/// A cell as an image holds it: a shadow column's non-empty policy text as
/// refs into the image's policy table, every other value as it is.
enum Cell<'a> {
    Null,
    Int(i64),
    Text(Cow<'a, str>),
    Spans(Cow<'a, str>),
    Label(Cow<'a, str>),
}

wire! {
    Cell<'a>: u8 {
        Null {} = 0,
        Int(v) = 1,
        Text(s) = 2,
        Spans(s as SpansBlob) = 3,
        Label(s as LabelBlob) = 4,
    }
}

impl<'a> Cell<'a> {
    /// How `v` is stored in a shadow column (`policy`) or another one.
    fn of(v: &'a Value, policy: bool) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Text(s) if policy && is_spans_blob(s) => Cell::Spans(s.into()),
            Value::Text(s) if policy && !s.is_empty() => Cell::Label(s.into()),
            Value::Text(s) => Cell::Text(s.into()),
        }
    }

    /// The value, if [`Cell::of`] stores it as `self` in such a column.
    fn value(self, policy: bool) -> Result<Value> {
        let form = discriminant(&self);
        let v = match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Text(s) | Cell::Spans(s) | Cell::Label(s) => Value::Text(s.into_owned()),
        };
        if discriminant(&Cell::of(&v, policy)) != form {
            return Err(SqlError::Storage(
                "a cell stored in another form than its column's".into(),
            ));
        }
        Ok(v)
    }
}

/// Name of the synthetic table that persists index definitions inside a
/// snapshot image. Lives in the reserved `__rp_` namespace (which
/// `check_table_name` keeps applications out of), is appended by
/// [`encode_tables`] and consumed — never surfaced — by
/// [`decode_tables`], so the snapshot wire format itself is unchanged:
/// index definitions ride as ordinary rows, and the indexes themselves
/// are **rebuilt from row storage** on recovery rather than persisted.
const INDEX_META_TABLE: &str = "__rp_indexes";

/// Checkpoint part-name prefix for per-table images.
const TABLE_PART_PREFIX: &str = "tbl.";

/// The checkpoint part name persisting `table`'s image.
pub(crate) fn table_part_name(table: &str) -> String {
    format!("{TABLE_PART_PREFIX}{table}")
}

/// One definition row per index across the catalog, or `None` when no
/// table is indexed (unindexed images stay byte-identical to before).
fn index_meta_table(tables: &[(&str, &Table)]) -> Option<Table> {
    let rows: Vec<Vec<Value>> = tables
        .iter()
        .flat_map(|(name, t)| {
            t.indexes().map(move |ix| {
                vec![
                    Value::Text((*name).to_string()),
                    Value::Text(ix.name().to_string()),
                    Value::Text(ix.column().to_string()),
                    Value::Text(kind_name(ix.kind()).to_string()),
                ]
            })
        })
        .collect();
    if rows.is_empty() {
        return None;
    }
    let col = |name: &str| ColumnDef {
        name: name.to_string(),
        ty: ColumnType::Text,
    };
    Some(Table {
        columns: vec![col("tbl"), col("name"), col("col"), col("kind")],
        rows,
        ..Table::default()
    })
}

/// `t`'s columns as an image stores them: a tracked table's data columns,
/// then the `Text` shadow of each, which holds the policy texts its rows
/// keep after their values.
fn stored_columns(t: &Table) -> Vec<ColumnDef> {
    let shadows = t.columns.iter().filter(|_| t.tracked).map(|c| ColumnDef {
        name: format!("{POLICY_COL_PREFIX}{}", c.name),
        ty: ColumnType::Text,
    });
    t.columns.iter().cloned().chain(shadows).collect()
}

/// `t` as a checkpoint stores it: its shadows are columns like the others.
pub(crate) fn at_rest(t: Table) -> Table {
    Table {
        columns: stored_columns(&t),
        tracked: false,
        ..t
    }
}

/// The empty table an image's column list describes. It is tracked if a
/// column is in the reserved namespace, and then the list must be what
/// [`stored_columns`] writes for the columns before that one.
fn stored_table(mut columns: Vec<ColumnDef>) -> Result<Table> {
    let reserved = |c: &ColumnDef| c.name.starts_with(POLICY_COL_PREFIX);
    let Some(n) = columns.iter().position(reserved) else {
        return Ok(Table {
            columns,
            ..Table::default()
        });
    };
    let shadows = columns.split_off(n);
    let table = Table {
        columns,
        tracked: true,
        ..Table::default()
    };
    if stored_columns(&table)[n..] != shadows[..] {
        return Err(SqlError::Storage(
            "a `__rp_` column that is not the shadow of the data column at its place".into(),
        ));
    }
    Ok(table)
}

/// Encodes `tables` as one snapshot image into `out`: the table count,
/// then each table's name, columns, row count and cells, row by row.
fn encode_tables<'a>(
    out: &mut HashWriter<dyn Write + '_>,
    tables: impl IntoIterator<Item = (&'a str, &'a Table)>,
) -> Result<()> {
    let mut tables: Vec<(&str, &Table)> = tables.into_iter().collect();
    let meta = index_meta_table(&tables);
    if let Some(meta) = meta.as_ref() {
        tables.push((INDEX_META_TABLE, meta));
    }
    Ok(SnapshotWriter::write(out, |w| {
        (tables.len() as u32).put(w)?;
        for &(name, t) in &tables {
            name.put(w)?;
            Seq::<u32>::put(&stored_columns(t), w)?;
            (t.rows.len() as u64).put(w)?;
            // A tracked row's cells past its values are policy texts.
            let n = t.columns.len();
            for row in &t.rows {
                for (i, v) in row.iter().enumerate() {
                    Cell::of(v, i >= n).put(w)?;
                }
            }
        }
        Ok::<_, StoreError>(())
    })?)
}

/// Encodes one table as a self-contained checkpoint part image: the
/// same wire format as a whole-catalog snapshot, holding exactly this
/// table (with its index definitions). Parts therefore decode without
/// the rest of the catalog — an unchanged part can carry over between
/// checkpoints by reference while its neighbors are re-encoded.
pub(crate) fn encode_table_part(
    out: &mut HashWriter<dyn Write + '_>,
    name: &str,
    table: &Table,
) -> Result<()> {
    encode_tables(out, std::iter::once((name, table)))
}

/// Decodes a per-table part image back into its (name, table).
pub(crate) fn decode_table_part(image: impl Read) -> Result<(String, Table)> {
    let mut tables = decode_tables(image)?;
    if tables.len() != 1 {
        return Err(SqlError::Storage(format!(
            "table part holds {} tables, expected 1",
            tables.len()
        )));
    }
    Ok(tables.pop_first().expect("len checked"))
}

/// Decodes recovered per-table `tbl.*` checkpoint parts into the table
/// catalog, streaming each image from its file.
pub(crate) fn decode_parts(parts: Vec<Part>) -> Result<BTreeMap<String, Table>> {
    let mut out = BTreeMap::new();
    for part in parts {
        if !part.name().starts_with(TABLE_PART_PREFIX) {
            return Err(SqlError::Storage(format!(
                "unknown checkpoint part `{}`",
                part.name()
            )));
        }
        let (tname, table) = decode_table_part(part.into_image()?)?;
        out.insert(tname, table);
    }
    Ok(out)
}

/// Decodes a snapshot image back into the table catalog.
fn decode_tables(image: impl Read) -> Result<BTreeMap<String, Table>> {
    SnapshotReader::read(image, decode_catalog)
}

fn decode_catalog(r: &mut SnapshotReader<'_>) -> Result<BTreeMap<String, Table>> {
    let mut out = BTreeMap::new();
    for _ in 0..u32::get(r)? {
        let name = String::get(r)?;
        let table = stored_table(Seq::<u32>::get(r)?)?;
        let (n, width) = (table.columns.len(), table.width());
        // The row count is read before the image's checksum is, so it
        // sizes no allocation unbounded; and a row reads at least one cell.
        let n_rows = u64::get(r)?;
        if width == 0 && n_rows > 0 {
            return Err(SqlError::Storage(format!("{n_rows} rows of no column")));
        }
        let mut rows = Vec::with_capacity(n_rows.min(1 << 20) as usize);
        for _ in 0..n_rows {
            // Sized to its cells, as a `collect` through `Result` is not.
            let mut row = Vec::with_capacity(width);
            for i in 0..width {
                row.push(Cell::get(r)?.value(i >= n)?);
            }
            rows.push(row);
        }
        let table = Table { rows, ..table };
        if out.insert(name, table).is_some() {
            return Err(SqlError::Storage("an image names a table twice".into()));
        }
    }
    if let Some(meta) = out.remove(INDEX_META_TABLE) {
        apply_index_meta(&mut out, meta)?;
    }
    Ok(out)
}

/// Re-applies persisted index definitions: each index is rebuilt from
/// the decoded rows, so probe structures always match row storage.
fn apply_index_meta(tables: &mut BTreeMap<String, Table>, meta: Table) -> Result<()> {
    for row in &meta.rows {
        let field = |i: usize| {
            row.get(i)
                .and_then(Value::as_text)
                .ok_or_else(|| SqlError::Storage("malformed index catalog row".into()))
        };
        let (tbl, name, col, kind) = (field(0)?, field(1)?, field(2)?, field(3)?);
        let kind = kind_from_name(kind)
            .ok_or_else(|| SqlError::Storage(format!("unknown index kind `{kind}`")))?;
        let t = tables.get_mut(tbl).ok_or_else(|| {
            SqlError::Storage(format!("index catalog names missing table `{tbl}`"))
        })?;
        t.create_index(name, col, kind, false)?;
    }
    Ok(())
}

/// One logged statement: its text and its spans blob.
struct Logged<'a> {
    text: Cow<'a, str>,
    spans: Cow<'a, str>,
}

wire! { Logged<'a> { text, spans } }

/// Encodes a batch of post-guard statements (text + byte-range policies
/// each) as **one** WAL payload: their count, then each. A transaction
/// commits its buffered statements as a single record, so the whole
/// commit is durable atomically: one fsync, and a crash mid-commit can
/// never persist a prefix of the transaction.
pub(crate) fn encode_wal_batch(stmts: &[TaintedString]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + stmts.iter().map(|s| s.len() + 32).sum::<usize>());
    (stmts.len() as u32)
        .put(&mut buf)
        .expect("a Vec takes every byte");
    for sql in stmts {
        let logged = Logged {
            text: sql.as_str().into(),
            spans: serialize_spans(sql).into(),
        };
        logged.put(&mut buf).expect("a Vec takes every byte");
    }
    buf
}

/// Decodes a WAL payload back into the tainted statements it logged.
pub(crate) fn decode_wal_batch(payload: &[u8]) -> Result<Vec<TaintedString>> {
    let logged: Vec<Logged> = read_all(payload, Seq::<u32>::get)?;
    logged
        .iter()
        .map(|l| Ok(deserialize_spans(&l.text, &l.spans)?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// One image of `tables`, written through the streaming writer.
    fn image_of(tables: &BTreeMap<String, Table>) -> Vec<u8> {
        let mut out = HashWriter::new(Vec::new());
        encode_tables(&mut out, tables.iter().map(|(n, t)| (n.as_str(), t))).unwrap();
        out.finish().unwrap()
    }

    #[test]
    fn the_parent_stores_part_images_re_encode_byte_for_byte() {
        // Recorded stores (never regenerated): their blobs go through the
        // wire codec's reader into span refs and back out through its
        // writer, and must come out as they were written.
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/parent_front_store"
        );
        let mut parts = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if !path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("part.")
            {
                continue;
            }
            let image = std::fs::read(&path).unwrap();
            let (name, table) = decode_table_part(std::fs::File::open(&path).unwrap()).unwrap();
            let mut out = HashWriter::new(Vec::new());
            encode_table_part(&mut out, &name, &table).unwrap();
            assert_eq!(out.finish().unwrap(), image, "{path:?}");
            parts += 1;
        }
        assert!(parts > 0, "no part images under {dir}");
    }

    #[test]
    fn catalog_roundtrip_with_policy_columns() {
        let mut tables = BTreeMap::new();
        tables.insert(
            "users".to_string(),
            Table {
                columns: vec![
                    ColumnDef {
                        name: "name".into(),
                        ty: ColumnType::Text,
                    },
                    ColumnDef {
                        name: "n".into(),
                        ty: ColumnType::Integer,
                    },
                ],
                rows: vec![
                    vec![
                        Value::Text("alice".into()),
                        Value::Int(7),
                        Value::Text("#UntrustedData{}#0..5|0".into()),
                        Value::Text("UntrustedData{}".into()),
                    ],
                    vec![
                        Value::Text("bob".into()),
                        Value::Null,
                        Value::Text(String::new()),
                        Value::Null,
                    ],
                ],
                tracked: true,
                indexes: Vec::new(),
            },
        );
        let image = image_of(&tables);
        let back = decode_tables(&image[..]).unwrap();
        assert_eq!(back.len(), 1);
        let t = &back["users"];
        assert!(t.tracked);
        assert_eq!(t.columns, tables["users"].columns);
        assert_eq!(t.rows, tables["users"].rows);
    }

    /// A one-table catalog with a policy column, and its image.
    fn small_image() -> (BTreeMap<String, Table>, Vec<u8>) {
        let mut tables = BTreeMap::new();
        tables.insert(
            "t".to_string(),
            Table {
                columns: vec![ColumnDef {
                    name: "b".into(),
                    ty: ColumnType::Text,
                }],
                rows: vec![vec![
                    Value::Text("hello".into()),
                    Value::Text("#UntrustedData{}#0..5|0".into()),
                ]],
                tracked: true,
                indexes: Vec::new(),
            },
        );
        let image = image_of(&tables);
        (tables, image)
    }

    #[test]
    fn a_reserved_column_is_the_exact_shadow_of_its_data_column_or_refused() {
        // An untracked table's column list is written as it stands, so it
        // can hold what no tracked table's does. Rows are empty: only the
        // column list decides.
        let col = |name: &str, ty| ColumnDef {
            name: name.into(),
            ty,
        };
        let (int, text) = (ColumnType::Integer, ColumnType::Text);
        let decode = |columns: Vec<ColumnDef>| {
            let mut tables = BTreeMap::new();
            let table = Table {
                columns,
                ..Table::default()
            };
            tables.insert("t".to_string(), table);
            decode_tables(&image_of(&tables)[..]).map(|mut back| back.remove("t").unwrap())
        };
        let t = decode(vec![
            col("a", int),
            col("b", text),
            col("__rp_a", text),
            col("__rp_b", text),
        ])
        .unwrap();
        assert!(t.tracked);
        assert_eq!(t.columns, vec![col("a", int), col("b", text)]);
        for (what, columns) in [
            (
                "missing",
                vec![col("a", int), col("b", text), col("__rp_a", text)],
            ),
            (
                "first missing",
                vec![col("a", int), col("b", text), col("__rp_b", text)],
            ),
            (
                "reordered",
                vec![
                    col("a", int),
                    col("b", text),
                    col("__rp_b", text),
                    col("__rp_a", text),
                ],
            ),
            (
                "extra",
                vec![col("a", int), col("__rp_a", text), col("__rp_b", text)],
            ),
            (
                "twice",
                vec![col("a", int), col("__rp_a", text), col("__rp_a", text)],
            ),
            (
                "after",
                vec![col("a", int), col("__rp_a", text), col("b", text)],
            ),
            ("not text", vec![col("a", int), col("__rp_a", int)]),
            (
                "of a shadow",
                vec![col("__rp_a", text), col("__rp___rp_a", text)],
            ),
            ("alone", vec![col("__rp_a", text)]),
        ] {
            match decode(columns) {
                Err(SqlError::Storage(m)) if m.contains("not the shadow") => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn an_image_with_an_undecoded_body_byte_is_refused() {
        // One more body byte than the catalog holds, with the body length
        // and the checksum recomputed so only the decoder's end check can
        // tell: the image is refused, not silently half-read.
        let (_, image) = small_image();
        assert!(decode_tables(&image[..]).is_ok());
        // Walk the header (magic, versions, policy table) to the body length.
        let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        let policies = u32::from_le_bytes(image[12..16].try_into().unwrap());
        let mut at = 16;
        for _ in 0..policies {
            at += 8 + u64_at(at) as usize;
        }
        let body_len = u64_at(at);
        assert_eq!(image.len(), at + 8 + body_len as usize + 8);
        let mut longer = image[..image.len() - 8].to_vec();
        longer[at..at + 8].copy_from_slice(&(body_len + 1).to_le_bytes());
        longer.push(0);
        let sum = resin_store::io::checksum(&longer);
        longer.extend_from_slice(&sum.to_le_bytes());
        let err = decode_tables(&longer[..]).unwrap_err();
        assert!(err.to_string().contains("undecoded"), "{err}");
    }

    #[test]
    fn a_damaged_column_count_is_refused_not_allocated() {
        // The column count is read before the checksum: a flipped high
        // byte must come back an error, not a multi-gigabyte reservation.
        let (tables, image) = small_image();
        let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        let policies = u32::from_le_bytes(image[12..16].try_into().unwrap());
        let mut at = 16;
        for _ in 0..policies {
            at += 8 + u64_at(at) as usize;
        }
        // Body: length, table count, the table's name, its column count.
        let name_at = at + 8 + 4;
        let cols_at = name_at + 8 + u64_at(name_at) as usize;
        let n_cols = u32::from_le_bytes(image[cols_at..cols_at + 4].try_into().unwrap());
        assert_eq!(
            n_cols as usize,
            tables["t"].width(),
            "data and shadow columns"
        );
        let mut damaged = image.clone();
        damaged[cols_at + 3] ^= 0xf0;
        assert!(decode_tables(&damaged[..]).is_err());
        assert!(decode_table_part(&damaged[..]).is_err());
    }

    #[test]
    fn every_single_byte_flip_of_a_part_image_is_refused() {
        let (tables, image) = small_image();
        assert_eq!(
            decode_tables(&image[..]).unwrap()["t"].rows,
            tables["t"].rows
        );
        let mut bytes = image;
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            assert!(decode_table_part(&bytes[..]).is_err(), "flip at {i}");
            bytes[i] ^= 0xff;
        }
    }

    #[test]
    fn policy_bodies_are_stored_once() {
        // 100 rows under the same policy: the image grows by fixed-size
        // span refs per row, not by 100 copies of the policy body.
        let blob =
            "#PasswordPolicy{email=averylonguser@example-corp-accounts.com;allow_chair=true}#0..5|0";
        let make = |rows: usize| {
            let table = Table {
                columns: vec![ColumnDef {
                    name: "b".into(),
                    ty: ColumnType::Text,
                }],
                rows: (0..rows)
                    .map(|_| vec![Value::Text("hello".into()), Value::Text(blob.into())])
                    .collect(),
                tracked: true,
                indexes: Vec::new(),
            };
            let mut m = BTreeMap::new();
            m.insert("t".to_string(), table);
            image_of(&m)
        };
        let one = make(1).len();
        let hundred = make(100).len();
        let per_row = (hundred - one) / 99;
        assert!(
            per_row < blob.len(),
            "per-row cost {per_row} must undercut the {}-byte blob",
            blob.len()
        );
        let body_hits = String::from_utf8_lossy(&make(100))
            .matches("PasswordPolicy")
            .count();
        assert_eq!(body_hits, 1, "policy body persisted once");
    }

    #[test]
    fn index_definitions_survive_snapshot_roundtrip() {
        use crate::ast::IndexKind;
        let mut table = Table {
            columns: vec![ColumnDef {
                name: "id".into(),
                ty: ColumnType::Integer,
            }],
            rows: vec![
                vec![Value::Int(2), Value::Text(String::new())],
                vec![Value::Int(1), Value::Text(String::new())],
            ],
            tracked: true,
            indexes: Vec::new(),
        };
        table
            .create_index("ix_id", "id", IndexKind::Hash, false)
            .unwrap();
        table
            .create_index("ord_id", "id", IndexKind::Ordered, false)
            .unwrap();
        let mut tables = BTreeMap::new();
        tables.insert("t".to_string(), table);
        let image = image_of(&tables);
        let back = decode_tables(&image[..]).unwrap();
        assert_eq!(back.len(), 1, "meta table consumed, not surfaced");
        let t = &back["t"];
        let names: Vec<&str> = t.indexes().map(|ix| ix.name()).collect();
        assert_eq!(names, vec!["ix_id", "ord_id"]);
        let ord = t.indexes().find(|ix| ix.name() == "ord_id").unwrap();
        assert_eq!(ord.kind(), IndexKind::Ordered);
        assert_eq!(
            ord.ordered_ids_capped(false, usize::MAX),
            vec![1, 0],
            "rebuilt from decoded rows"
        );
    }

    #[test]
    fn wal_batch_roundtrip_revives_taint() {
        use resin_core::UntrustedData;
        use std::sync::Arc;
        let mut q = TaintedString::from("INSERT INTO t VALUES ('");
        q.push_tainted(&TaintedString::with_policy(
            "evil",
            Arc::new(UntrustedData::new()),
        ));
        q.push_str("')");
        let plain = TaintedString::from("DELETE FROM t");
        let payload = encode_wal_batch(&[q.clone(), plain.clone()]);
        let back = decode_wal_batch(&payload).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[0].taint_eq(&q));
        assert_eq!(back[0].as_str(), q.as_str());
        assert!(back[1].taint_eq(&plain));
        assert!(decode_wal_batch(&payload[..5]).is_err(), "truncated batch");
    }

    #[test]
    fn a_wal_batch_is_every_byte_of_its_payload() {
        let mut payload = encode_wal_batch(&[TaintedString::from("DELETE FROM t")]);
        assert_eq!(decode_wal_batch(&payload).unwrap().len(), 1);
        payload.push(0);
        assert!(
            decode_wal_batch(&payload).is_err(),
            "a byte after the batch"
        );
    }

    #[test]
    fn a_wal_batch_decodes_only_what_it_encodes() {
        // The layout is canonical; each statement then revives through
        // `deserialize_spans`, which must not panic on what it accepts.
        use crate::mutants::{canonical, Rng};
        use resin_core::UntrustedData;
        use std::sync::Arc;
        let mut rng = Rng::new(10);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|_| {
                let stmts: Vec<TaintedString> = (0..rng.below(3))
                    .map(|i| {
                        let mut q = TaintedString::from("INSERT INTO t VALUES ('");
                        let v = ["x'y", "é", "%2C"][rng.below(3)];
                        q.push_tainted(&TaintedString::with_policy(
                            v,
                            Arc::new(UntrustedData::new()),
                        ));
                        q.push_str(if i % 2 == 0 { "')" } else { "', 7)" });
                        q
                    })
                    .collect();
                encode_wal_batch(&stmts)
            })
            .collect();
        let layout = |b: &[u8]| {
            let _ = decode_wal_batch(b);
            read_all(b, Seq::<u32>::get).ok()
        };
        let encode = |logged: &Vec<Logged>| {
            let mut out = Vec::new();
            Seq::<u32>::put(logged, &mut out).unwrap();
            out
        };
        canonical(&canons, layout, encode);
    }

    /// A one-table tracked catalog of `rows` random rows, indexed when
    /// `rows` is odd.
    fn random_table(rng: &mut crate::mutants::Rng, rows: usize) -> Table {
        use crate::ast::IndexKind;
        let col = |name: &str, ty| ColumnDef {
            name: name.into(),
            ty,
        };
        let blobs = [
            "",
            "UntrustedData{}",
            "#UntrustedData{}#0..1|0",
            "#PasswordPolicy{email=a@b},UntrustedData{}#0..1|0;1..2|1,0",
        ];
        let mut table = Table {
            columns: vec![
                col("id", ColumnType::Integer),
                col("name", ColumnType::Text),
            ],
            rows: (0..rows)
                .map(|i| {
                    vec![
                        [Value::Null, Value::Int(i as i64 - 2)][rng.below(2)].clone(),
                        Value::Text(["ab", "é#", ""][rng.below(3)].into()),
                        [Value::Null, Value::Text(blobs[1].into())][rng.below(2)].clone(),
                        Value::Text(blobs[rng.below(blobs.len())].into()),
                    ]
                })
                .collect(),
            tracked: true,
            indexes: Vec::new(),
        };
        if rows % 2 == 1 {
            table
                .create_index("ix_id", "id", IndexKind::Hash, false)
                .unwrap();
        }
        table
    }

    #[test]
    fn a_part_image_reads_back_as_itself_once_re_encoded() {
        use crate::mutants::{resealed, wider, Rng};
        let image = |(name, table): &(String, Table)| {
            let mut out = HashWriter::new(Vec::new());
            encode_table_part(&mut out, name, table).unwrap();
            out.finish().unwrap()
        };
        let mut rng = Rng::new(11);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|i| image(&(format!("t{}", i % 3), random_table(&mut rng, i % 4))))
            .collect();
        let decode = |b: &[u8]| decode_table_part(b).ok().map(|part| image(&part));
        wider(&canons, resealed, decode, Vec::clone);
    }
}
