//! The versioned snapshot image format.
//!
//! A snapshot is the durable twin of the in-memory label interning
//! (§3.4.1): the **policy table** — every distinct serialized policy body
//! — is written exactly once in the header, and the client body refers to
//! policies by `u32` index. A database with a million password cells under
//! one `PasswordPolicy` persists one policy body and a million 4-byte
//! refs, not a million copies of the body.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    "RSNP"
//! version  u32           (snapshot format)
//! wire     u32           (resin_core::serialize::WIRE_VERSION of the bodies)
//! policies u32 count, then count × length-prefixed policy bodies
//! body     u64 length, then client-encoded bytes
//! checksum u64           (FNV-1a over everything above)
//! ```
//!
//! The storage layer never *deserializes* policies: bodies are opaque
//! strings in the textual wire format. The blobs that name them move
//! through `resin_core::serialize`'s one reader and writer of the format
//! ([`read_spans`], [`SpansWriter`], [`read_texts`], [`write_texts`]),
//! texts in and texts out, so nothing here knows the grammar. Policy
//! classes therefore do not need to be registered to checkpoint or
//! recover a store — exactly the paper's property that persisted policies
//! outlive (and never load) the code that produced them.

use std::collections::HashMap;

use resin_core::serialize::{read_spans, read_texts, write_texts, SpansWriter, WIRE_VERSION};
use resin_core::SerializeError;

use crate::error::{Result, StoreError};
use crate::io::{checksum, put_i64, put_str, put_u32, put_u64, put_u8, Cursor};

/// Magic bytes opening every snapshot image.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"RSNP";

/// Version of the snapshot container format.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One byte range of a persisted datum and the policy-table indexes of the
/// policies attached to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRef {
    /// Start byte offset (inclusive).
    pub start: u64,
    /// End byte offset (exclusive).
    pub end: u64,
    /// Indexes into the snapshot policy table.
    pub policies: Vec<u32>,
}

/// Builds a snapshot image: interns policy bodies into the shared table
/// while the client encodes its body through the `put_*` methods.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    body: Vec<u8>,
    policies: Vec<String>,
    index: HashMap<String, u32>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Interns one serialized policy body, returning its table index.
    pub fn intern(&mut self, body: &str) -> u32 {
        if let Some(&i) = self.index.get(body) {
            return i;
        }
        let i = self.policies.len() as u32;
        self.policies.push(body.to_string());
        self.index.insert(body.to_string(), i);
        i
    }

    /// Interns the policies of a spans blob (`#table#spans`, the output
    /// of `serialize_spans`) into the shared table, returning per-span
    /// refs.
    pub fn intern_spans_blob(&mut self, blob: &str) -> Result<Vec<SpanRef>> {
        let mut texts = Vec::new();
        let spans = read_spans(blob, &mut |text| texts.push(text)).map_err(corrupt)?;
        // Local (per-blob) table index → shared table index.
        let local: Vec<u32> = texts.into_iter().map(|text| self.intern(text)).collect();
        let outside = |i| StoreError::Corrupt(format!("index `{i}` outside the blob policy table"));
        spans
            .map(|span| {
                let (range, indexes) = span.map_err(corrupt)?;
                let policies = indexes
                    .map(|i| local.get(i).copied().ok_or_else(|| outside(i)))
                    .collect::<Result<_>>()?;
                Ok(SpanRef {
                    start: range.start,
                    end: range.end,
                    policies,
                })
            })
            .collect()
    }

    /// Interns the policies of a whole-datum label blob (comma-joined
    /// policy bodies, the output of `serialize_label`), returning their
    /// shared table indexes.
    pub fn intern_label_blob(&mut self, blob: &str) -> Vec<u32> {
        read_texts(blob).map(|text| self.intern(text)).collect()
    }

    // ---- body encoding ----

    /// Appends a `u8` to the body.
    pub fn put_u8(&mut self, v: u8) {
        put_u8(&mut self.body, v);
    }

    /// Appends a `u32` to the body.
    pub fn put_u32(&mut self, v: u32) {
        put_u32(&mut self.body, v);
    }

    /// Appends a `u64` to the body.
    pub fn put_u64(&mut self, v: u64) {
        put_u64(&mut self.body, v);
    }

    /// Appends an `i64` to the body.
    pub fn put_i64(&mut self, v: i64) {
        put_i64(&mut self.body, v);
    }

    /// Appends a length-prefixed string to the body.
    pub fn put_str(&mut self, s: &str) {
        put_str(&mut self.body, s);
    }

    /// Appends span refs (count + per-span start/end/policy indexes).
    pub fn put_span_refs(&mut self, refs: &[SpanRef]) {
        put_u32(&mut self.body, refs.len() as u32);
        for r in refs {
            put_u64(&mut self.body, r.start);
            put_u64(&mut self.body, r.end);
            put_u32(&mut self.body, r.policies.len() as u32);
            for &p in &r.policies {
                put_u32(&mut self.body, p);
            }
        }
    }

    /// Appends label refs (count + policy indexes).
    pub fn put_label_refs(&mut self, idxs: &[u32]) {
        put_u32(&mut self.body, idxs.len() as u32);
        for &i in idxs {
            put_u32(&mut self.body, i);
        }
    }

    /// Seals the image: header, policy table, body, trailing checksum.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 64);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, WIRE_VERSION);
        put_u32(&mut out, self.policies.len() as u32);
        for p in &self.policies {
            put_str(&mut out, p);
        }
        put_u64(&mut out, self.body.len() as u64);
        out.extend_from_slice(&self.body);
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        out
    }
}

fn corrupt(e: SerializeError) -> StoreError {
    StoreError::Corrupt(e.to_string())
}

/// Decodes a snapshot image: validates the header and checksum, exposes
/// the policy table, and walks the client body.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    policies: Vec<String>,
    cursor: Cursor<'a>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and validates `bytes`, leaving the cursor at the body start.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(StoreError::Corrupt("snapshot too short".into()));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("len 8"));
        if checksum(payload) != stored {
            return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut c = Cursor::new(payload);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = c.u8()?;
        }
        if &magic != SNAPSHOT_MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic".into()));
        }
        let version = c.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::Version {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let wire = c.u32()?;
        if wire > WIRE_VERSION {
            return Err(StoreError::Version {
                found: wire,
                supported: WIRE_VERSION,
            });
        }
        let count = c.u32()? as usize;
        let mut policies = Vec::with_capacity(count);
        for _ in 0..count {
            policies.push(c.str()?);
        }
        let body_len = c.u64()? as usize;
        if c.remaining() != body_len {
            return Err(StoreError::Corrupt(format!(
                "body length {body_len} does not match remaining {}",
                c.remaining()
            )));
        }
        Ok(SnapshotReader {
            policies,
            cursor: c,
        })
    }

    /// The policy body at `idx`.
    pub fn policy(&self, idx: u32) -> Result<&str> {
        self.policies
            .get(idx as usize)
            .map(|s| s.as_str())
            .ok_or_else(|| StoreError::Corrupt(format!("policy index {idx} out of range")))
    }

    /// Regenerates an interned `#table#spans` blob from span refs — the
    /// inverse of [`SnapshotWriter::intern_spans_blob`] up to local table
    /// ordering (the revived taint is identical).
    pub fn spans_blob(&self, refs: &[SpanRef]) -> Result<String> {
        let mut local: Vec<&str> = Vec::new();
        let mut map: HashMap<u32, usize> = HashMap::new();
        let mut out = SpansWriter::default();
        let mut idxs = Vec::new();
        for r in refs {
            idxs.clear();
            for &p in &r.policies {
                let body = self.policy(p)?;
                idxs.push(*map.entry(p).or_insert_with(|| {
                    local.push(body);
                    local.len() - 1
                }));
            }
            out.span(r.start..r.end, idxs.iter().copied());
        }
        Ok(out.finish(&local))
    }

    /// Regenerates a whole-datum label blob from policy indexes.
    pub fn label_blob(&self, idxs: &[u32]) -> Result<String> {
        let bodies = idxs.iter().map(|&i| self.policy(i));
        Ok(write_texts(bodies.collect::<Result<Vec<_>>>()?))
    }

    // ---- body decoding ----

    /// Reads a `u8` from the body.
    pub fn u8(&mut self) -> Result<u8> {
        self.cursor.u8()
    }

    /// Reads a `u32` from the body.
    pub fn u32(&mut self) -> Result<u32> {
        self.cursor.u32()
    }

    /// Reads a `u64` from the body.
    pub fn u64(&mut self) -> Result<u64> {
        self.cursor.u64()
    }

    /// Reads an `i64` from the body.
    pub fn i64(&mut self) -> Result<i64> {
        self.cursor.i64()
    }

    /// Reads a length-prefixed string from the body.
    pub fn str(&mut self) -> Result<String> {
        self.cursor.str()
    }

    /// Reads span refs written by [`SnapshotWriter::put_span_refs`].
    pub fn span_refs(&mut self) -> Result<Vec<SpanRef>> {
        let count = self.cursor.u32()? as usize;
        let mut refs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let start = self.cursor.u64()?;
            let end = self.cursor.u64()?;
            let n = self.cursor.u32()? as usize;
            let mut policies = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                policies.push(self.cursor.u32()?);
            }
            refs.push(SpanRef {
                start,
                end,
                policies,
            });
        }
        Ok(refs)
    }

    /// Reads label refs written by [`SnapshotWriter::put_label_refs`].
    pub fn label_refs(&mut self) -> Result<Vec<u32>> {
        let count = self.cursor.u32()? as usize;
        let mut idxs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            idxs.push(self.cursor.u32()?);
        }
        Ok(idxs)
    }

    /// True when the whole body has been consumed.
    pub fn at_end(&self) -> bool {
        self.cursor.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_and_policy_table_roundtrip() {
        let mut w = SnapshotWriter::new();
        let a = w.intern("PasswordPolicy{email=u@x}");
        let b = w.intern("UntrustedData{}");
        let a2 = w.intern("PasswordPolicy{email=u@x}");
        assert_eq!(a, a2, "bodies dedup into one table entry");
        w.put_str("hello");
        w.put_i64(-5);
        w.put_span_refs(&[SpanRef {
            start: 0,
            end: 5,
            policies: vec![a, b],
        }]);
        let bytes = w.finish();

        let mut r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.policy(0).unwrap(), "PasswordPolicy{email=u@x}");
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.i64().unwrap(), -5);
        let refs = r.span_refs().unwrap();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].policies, vec![0, 1]);
        assert!(r.at_end());
    }

    #[test]
    fn spans_blob_roundtrips_through_refs() {
        // The exact output format of resin_core::serialize_spans.
        let blob = "#UntrustedData{},PasswordPolicy{email=a@b;allow_chair=true}#0..2|0;4..9|0,1";
        let mut w = SnapshotWriter::new();
        let refs = w.intern_spans_blob(blob).unwrap();
        assert_eq!(refs.len(), 2);
        w.put_span_refs(&refs);
        let bytes = w.finish();
        let mut r = SnapshotReader::parse(&bytes).unwrap();
        let back = r.span_refs().unwrap();
        assert_eq!(back, refs);
        assert_eq!(r.spans_blob(&back).unwrap(), blob, "byte-identical here");
    }

    #[test]
    fn label_blob_roundtrips() {
        let blob = "UntrustedData{source=q},SqlSanitized{}";
        let mut w = SnapshotWriter::new();
        let idxs = w.intern_label_blob(blob);
        assert_eq!(idxs.len(), 2);
        assert!(w.intern_label_blob("").is_empty());
        w.put_label_refs(&idxs);
        let bytes = w.finish();
        let mut r = SnapshotReader::parse(&bytes).unwrap();
        let back = r.label_refs().unwrap();
        assert_eq!(r.label_blob(&back).unwrap(), blob);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_str("data");
        let mut bytes = w.finish();
        // Flip one body byte: checksum catches it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(StoreError::Corrupt(_))
        ));
        assert!(SnapshotReader::parse(b"RS").is_err(), "too short");
        assert!(
            SnapshotReader::parse(b"XXXXYYYYZZZZWWWWVVVV").is_err(),
            "bad magic/checksum"
        );
    }

    #[test]
    fn malformed_blobs_are_corrupt_errors() {
        let mut w = SnapshotWriter::new();
        assert!(w.intern_spans_blob("no-hash").is_err());
        assert!(w.intern_spans_blob("#onlyone").is_err());
        assert!(w.intern_spans_blob("#T{}#nospan").is_err());
        assert!(w.intern_spans_blob("#T{}#0..1|9").is_err(), "bad local idx");
        assert!(w.intern_spans_blob("#T{}#a..1|0").is_err(), "bad range");
    }
}
