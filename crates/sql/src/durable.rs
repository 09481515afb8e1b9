//! The SQL engine's on-disk codecs: checkpoint part images and the
//! statement WAL. `ResinDb` hands both to a [`resin_store::Store`], which
//! decides what each checkpoint rewrites.
//!
//! A checkpoint holds one part per table (`tbl.<name>`), each a snapshot
//! image of that table alone, streamed straight from the table into its
//! part file and back (never whole in memory). Data cells are stored
//! verbatim;
//! **policy-column** cells (the `__rp_` shadow blobs) are not stored as
//! strings but re-encoded as refs into the image's shared policy table — a
//! table with a million identically-labeled cells persists each distinct
//! policy body once (the durable twin of `Label` interning).
//!
//! The WAL logs each mutating statement *post-guard, pre-rewrite*: the
//! exact query text `prepare_query` produced, together with the serialized
//! byte-range policies of that text. Recovery revives the tainted query
//! and runs it back through the same rewrite pipeline, so replayed cells
//! regain byte-identical policy columns without the WAL knowing anything
//! about rewriting.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use resin_core::serialize::is_spans_blob;
use resin_core::{deserialize_spans, serialize_spans, TaintedString};
use resin_store::{HashWriter, Part, SnapshotReader, SnapshotWriter, StoreError};

use crate::ast::{ColumnDef, ColumnType};
use crate::engine::Table;
use crate::error::{Result, SqlError};
use crate::index::{kind_from_name, kind_name};
use crate::rewrite::POLICY_COL_PREFIX;
use crate::value::Value;

impl From<StoreError> for SqlError {
    fn from(e: StoreError) -> Self {
        SqlError::Storage(e.to_string())
    }
}

// Cell tags in the snapshot body.
const CELL_NULL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_TEXT: u8 = 2;
const CELL_SPANS: u8 = 3;
const CELL_LABEL: u8 = 4;

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
        indexes: Vec::new(),
    })
}

/// Encodes `tables` as one snapshot image into `out`.
pub(crate) fn encode_tables<'a>(
    out: &mut HashWriter<dyn Write + '_>,
    tables: impl IntoIterator<Item = (&'a str, &'a Table)>,
) -> Result<()> {
    let mut tables: Vec<(&str, &Table)> = tables.into_iter().collect();
    let meta = index_meta_table(&tables);
    if let Some(meta) = meta.as_ref() {
        tables.push((INDEX_META_TABLE, meta));
    }
    SnapshotWriter::write(out, |w| {
        w.put_u32(tables.len() as u32)?;
        for &(name, t) in &tables {
            encode_table(w, name, t)?;
        }
        Ok(())
    })
}

fn encode_table(w: &mut SnapshotWriter<'_>, name: &str, t: &Table) -> Result<()> {
    w.put_str(name)?;
    w.put_u32(t.columns.len() as u32)?;
    let mut is_policy_col = Vec::with_capacity(t.columns.len());
    for c in &t.columns {
        w.put_str(&c.name)?;
        w.put_u8(match c.ty {
            ColumnType::Integer => 0,
            ColumnType::Text => 1,
        })?;
        is_policy_col.push(c.name.starts_with(POLICY_COL_PREFIX));
    }
    w.put_u64(t.rows.len() as u64)?;
    for row in &t.rows {
        for (i, v) in row.iter().enumerate() {
            encode_cell(w, v, is_policy_col[i])?;
        }
    }
    Ok(())
}

fn encode_cell(w: &mut SnapshotWriter<'_>, v: &Value, policy_col: bool) -> Result<()> {
    match v {
        Value::Null => w.put_u8(CELL_NULL)?,
        Value::Int(i) => {
            w.put_u8(CELL_INT)?;
            w.put_i64(*i)?;
        }
        Value::Text(s) if policy_col && !s.is_empty() => {
            if is_spans_blob(s) {
                let refs = w.intern_spans_blob(s)?;
                w.put_u8(CELL_SPANS)?;
                w.put_span_refs(&refs)?;
            } else {
                let idxs = w.intern_label_blob(s)?;
                w.put_u8(CELL_LABEL)?;
                w.put_label_refs(&idxs)?;
            }
        }
        Value::Text(s) => {
            w.put_u8(CELL_TEXT)?;
            w.put_str(s)?;
        }
    }
    Ok(())
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
pub(crate) fn decode_tables(image: impl Read) -> Result<BTreeMap<String, Table>> {
    SnapshotReader::read(image, decode_catalog)
}

fn decode_catalog(r: &mut SnapshotReader<'_>) -> Result<BTreeMap<String, Table>> {
    let mut out = BTreeMap::new();
    let n_tables = r.u32()?;
    for _ in 0..n_tables {
        let name = r.str()?;
        // Counts are read before the image's checksum is, so none of them
        // sizes an allocation unbounded.
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            let col_name = r.str()?;
            let ty = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Text,
                other => {
                    return Err(SqlError::Storage(format!("unknown column type {other}")));
                }
            };
            columns.push(ColumnDef { name: col_name, ty });
        }
        let n_rows = r.u64()? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols.min(1024));
            for _ in 0..n_cols {
                row.push(decode_cell(r)?);
            }
            rows.push(row);
        }
        out.insert(
            name,
            Table {
                columns,
                rows,
                indexes: Vec::new(),
            },
        );
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

fn decode_cell(r: &mut SnapshotReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        CELL_NULL => Value::Null,
        CELL_INT => Value::Int(r.i64()?),
        CELL_TEXT => Value::Text(r.str()?),
        CELL_SPANS => {
            let refs = r.span_refs()?;
            Value::Text(r.spans_blob(&refs)?)
        }
        CELL_LABEL => {
            let idxs = r.label_refs()?;
            Value::Text(r.label_blob(&idxs)?)
        }
        other => return Err(SqlError::Storage(format!("unknown cell tag {other}"))),
    })
}

/// Encodes a batch of post-guard statements (text + byte-range policies
/// each) as **one** WAL payload. A transaction commits its buffered
/// statements as a single record, so the whole commit is durable
/// atomically: one fsync, and a crash mid-commit can never persist a
/// prefix of the transaction.
pub(crate) fn encode_wal_batch(stmts: &[TaintedString]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + stmts.iter().map(|s| s.len() + 32).sum::<usize>());
    resin_store::io::put_u32(&mut buf, stmts.len() as u32);
    for sql in stmts {
        resin_store::io::put_str(&mut buf, sql.as_str());
        resin_store::io::put_str(&mut buf, &serialize_spans(sql));
    }
    buf
}

/// Decodes a WAL payload back into the tainted statements it logged.
pub(crate) fn decode_wal_batch(payload: &[u8]) -> Result<Vec<TaintedString>> {
    let mut c = resin_store::io::Cursor::new(payload);
    let n = c.u32().map_err(SqlError::from)? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let text = c.str().map_err(SqlError::from)?;
        let spans = c.str().map_err(SqlError::from)?;
        out.push(deserialize_spans(&text, &spans)?);
    }
    Ok(out)
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
                    ColumnDef {
                        name: "__rp_name".into(),
                        ty: ColumnType::Text,
                    },
                    ColumnDef {
                        name: "__rp_n".into(),
                        ty: ColumnType::Text,
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
                indexes: Vec::new(),
            },
        );
        let image = image_of(&tables);
        let back = decode_tables(&image[..]).unwrap();
        assert_eq!(back.len(), 1);
        let t = &back["users"];
        assert_eq!(t.columns, tables["users"].columns);
        assert_eq!(t.rows, tables["users"].rows);
    }

    /// A one-table catalog with a policy column, and its image.
    fn small_image() -> (BTreeMap<String, Table>, Vec<u8>) {
        let mut tables = BTreeMap::new();
        tables.insert(
            "t".to_string(),
            Table {
                columns: vec![
                    ColumnDef {
                        name: "b".into(),
                        ty: ColumnType::Text,
                    },
                    ColumnDef {
                        name: "__rp_b".into(),
                        ty: ColumnType::Text,
                    },
                ],
                rows: vec![vec![
                    Value::Text("hello".into()),
                    Value::Text("#UntrustedData{}#0..5|0".into()),
                ]],
                indexes: Vec::new(),
            },
        );
        let image = image_of(&tables);
        (tables, image)
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
        assert_eq!(n_cols as usize, tables["t"].columns.len());
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
                columns: vec![
                    ColumnDef {
                        name: "b".into(),
                        ty: ColumnType::Text,
                    },
                    ColumnDef {
                        name: "__rp_b".into(),
                        ty: ColumnType::Text,
                    },
                ],
                rows: (0..rows)
                    .map(|_| vec![Value::Text("hello".into()), Value::Text(blob.into())])
                    .collect(),
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
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    ty: ColumnType::Integer,
                },
                ColumnDef {
                    name: "__rp_id".into(),
                    ty: ColumnType::Text,
                },
            ],
            rows: vec![
                vec![Value::Int(2), Value::Text(String::new())],
                vec![Value::Int(1), Value::Text(String::new())],
            ],
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
}
