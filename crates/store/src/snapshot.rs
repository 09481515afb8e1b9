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
//! An image is streamed both ways, never held whole. [`SnapshotWriter::write`]
//! runs the client's encoder twice: a sizing pass interns every policy
//! body and counts the body bytes, then a writing pass emits header,
//! policy table, body and checksum into a [`HashWriter`] — so the table
//! still comes first while only the table and one 64 KiB chunk are in
//! memory. The passes must agree: a policy the sizing pass did not intern,
//! or a body of another length, fails the write as [`StoreError::Corrupt`].
//! [`SnapshotReader::read`] decodes any `io::Read` through a 64 KiB window,
//! hashing each window once, and checks the end of every image — the body
//! consumed exactly, then the checksum, then nothing after it.
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
use std::io::{Read, Write};

use resin_core::serialize::{read_spans, read_texts, write_texts, SpansWriter, WIRE_VERSION};
use resin_core::SerializeError;

use crate::error::{Result, StoreError};
use crate::io::{checksum_from, HashWriter, CHUNK, FNV_OFFSET};

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

/// Encodes a snapshot image: interns policy bodies into the shared table
/// while the client encodes its body through the `put_*` methods. The
/// client sees it only inside [`SnapshotWriter::write`], once per pass.
pub struct SnapshotWriter<'a> {
    policies: Vec<String>,
    index: HashMap<String, u32>,
    /// `None` in the sizing pass; the image's sink in the writing pass.
    out: Option<&'a mut HashWriter<dyn Write + 'a>>,
    /// Body bytes counted (sizing pass) or written (writing pass).
    body: u64,
}

impl std::fmt::Debug for SnapshotWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("policies", &self.policies.len())
            .field("writing", &self.out.is_some())
            .field("body", &self.body)
            .finish()
    }
}

impl<'a> SnapshotWriter<'a> {
    /// Writes one image into `out`, which must be empty: the image's
    /// checksum is `out`'s running sum. `encode` runs twice and must
    /// encode the same body both times.
    pub fn write<E: From<StoreError>>(
        out: &'a mut HashWriter<dyn Write + 'a>,
        mut encode: impl FnMut(&mut SnapshotWriter<'a>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        if !out.is_empty() {
            return Err(StoreError::Corrupt("a snapshot image must open its writer".into()).into());
        }
        let mut w = SnapshotWriter {
            policies: Vec::new(),
            index: HashMap::new(),
            out: None,
            body: 0,
        };
        encode(&mut w)?;
        let sized = w.body;
        header(out, &w.policies, sized)?;
        w.out = Some(out);
        w.body = 0;
        encode(&mut w)?;
        if w.body != sized {
            return Err(StoreError::Corrupt(format!(
                "the writing pass encoded {} body bytes, the sizing pass {sized}",
                w.body
            ))
            .into());
        }
        let out = w.out.take().expect("the writing pass holds the sink");
        let sum = out.sum().map_err(StoreError::from)?;
        out.put(&sum.to_le_bytes()).map_err(StoreError::from)?;
        Ok(())
    }

    /// Interns one serialized policy body, returning its table index. In
    /// the writing pass the table is sealed: a body the sizing pass did
    /// not meet is an error.
    pub fn intern(&mut self, body: &str) -> Result<u32> {
        if let Some(&i) = self.index.get(body) {
            return Ok(i);
        }
        if self.out.is_some() {
            return Err(StoreError::Corrupt(format!(
                "policy `{body}` met only by the writing pass"
            )));
        }
        let i = self.policies.len() as u32;
        self.policies.push(body.to_string());
        self.index.insert(body.to_string(), i);
        Ok(i)
    }

    /// Interns the policies of a spans blob (`#table#spans`, the output
    /// of `serialize_spans`) into the shared table, returning per-span
    /// refs.
    pub fn intern_spans_blob(&mut self, blob: &str) -> Result<Vec<SpanRef>> {
        let mut texts = Vec::new();
        let spans = read_spans(blob, &mut |text| texts.push(text)).map_err(corrupt)?;
        // Local (per-blob) table index → shared table index.
        let local: Vec<u32> = texts
            .into_iter()
            .map(|text| self.intern(text))
            .collect::<Result<_>>()?;
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
    pub fn intern_label_blob(&mut self, blob: &str) -> Result<Vec<u32>> {
        read_texts(blob).map(|text| self.intern(text)).collect()
    }

    // ---- body encoding ----

    #[inline]
    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.body += bytes.len() as u64;
        match &mut self.out {
            Some(out) => Ok(out.put(bytes)?),
            None => Ok(()),
        }
    }

    /// Appends a `u8` to the body.
    pub fn put_u8(&mut self, v: u8) -> Result<()> {
        self.emit(&[v])
    }

    /// Appends a `u32` to the body.
    pub fn put_u32(&mut self, v: u32) -> Result<()> {
        self.emit(&v.to_le_bytes())
    }

    /// Appends a `u64` to the body.
    pub fn put_u64(&mut self, v: u64) -> Result<()> {
        self.emit(&v.to_le_bytes())
    }

    /// Appends an `i64` to the body.
    pub fn put_i64(&mut self, v: i64) -> Result<()> {
        self.emit(&v.to_le_bytes())
    }

    /// Appends a length-prefixed string to the body.
    pub fn put_str(&mut self, s: &str) -> Result<()> {
        self.put_u64(s.len() as u64)?;
        self.emit(s.as_bytes())
    }

    /// Appends span refs (count + per-span start/end/policy indexes).
    pub fn put_span_refs(&mut self, refs: &[SpanRef]) -> Result<()> {
        self.put_u32(refs.len() as u32)?;
        for r in refs {
            self.put_u64(r.start)?;
            self.put_u64(r.end)?;
            self.put_label_refs(&r.policies)?;
        }
        Ok(())
    }

    /// Appends label refs (count + policy indexes).
    pub fn put_label_refs(&mut self, idxs: &[u32]) -> Result<()> {
        self.put_u32(idxs.len() as u32)?;
        for &i in idxs {
            self.put_u32(i)?;
        }
        Ok(())
    }
}

/// Writes the image header: magic, versions, the policy table and the
/// body length.
fn header(out: &mut HashWriter<dyn Write + '_>, policies: &[String], body: u64) -> Result<()> {
    out.put(SNAPSHOT_MAGIC)?;
    out.put(&SNAPSHOT_VERSION.to_le_bytes())?;
    out.put(&WIRE_VERSION.to_le_bytes())?;
    out.put(&(policies.len() as u32).to_le_bytes())?;
    for p in policies {
        out.put(&(p.len() as u64).to_le_bytes())?;
        out.put(p.as_bytes())?;
    }
    out.put(&body.to_le_bytes())?;
    Ok(())
}

fn corrupt(e: SerializeError) -> StoreError {
    StoreError::Corrupt(e.to_string())
}

/// Decodes a snapshot image from a stream: validates the header, exposes
/// the policy table, and walks the client body through a 64 KiB window.
/// The client sees it only inside [`SnapshotReader::read`].
pub struct SnapshotReader<'a> {
    policies: Vec<String>,
    input: &'a mut dyn Read,
    window: Box<[u8]>,
    /// Bytes of `window` read from `input`.
    filled: usize,
    /// Next unread byte of `window`.
    pos: usize,
    /// `window[..hashed]` is already in `hash`.
    hashed: usize,
    /// FNV-1a state over the image up to `window[hashed]`.
    hash: u64,
    /// Stream offset of `window[0]`.
    offset: u64,
    /// Bytes the decoder may still read: the unread body once the header
    /// is parsed.
    left: u64,
    body_len: u64,
}

impl std::fmt::Debug for SnapshotReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("policies", &self.policies.len())
            .field("at", &self.at())
            .field("left", &self.left)
            .finish()
    }
}

impl<'a> SnapshotReader<'a> {
    /// Decodes one image from `input` with `decode`, then checks the end
    /// of the image: the body consumed exactly, the checksum, and nothing
    /// after it. When `decode` fails on an image that fails those checks
    /// too, the image's error is the one returned: a corrupt image reads
    /// as corrupt, whatever its damage made the decoder trip over.
    pub fn read<T, E: From<StoreError>>(
        mut input: impl Read,
        decode: impl FnOnce(&mut SnapshotReader<'_>) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let mut r = SnapshotReader::open(&mut input)?;
        match decode(&mut r) {
            Ok(v) => match r.seal()? {
                0 => Ok(v),
                unread => Err(StoreError::Corrupt(format!(
                    "{unread} bytes of the snapshot body left undecoded"
                ))
                .into()),
            },
            Err(e) => match r.seal() {
                Err(image) => Err(image.into()),
                Ok(_) => Err(e),
            },
        }
    }

    /// Reads and validates the header, leaving the window at the body.
    fn open(input: &'a mut dyn Read) -> Result<Self> {
        let mut r = SnapshotReader {
            policies: Vec::new(),
            input,
            window: vec![0; CHUNK].into_boxed_slice(),
            filled: 0,
            pos: 0,
            hashed: 0,
            hash: FNV_OFFSET,
            offset: 0,
            left: u64::MAX,
            body_len: 0,
        };
        let short = |e| match e {
            StoreError::Truncated { .. } => StoreError::Corrupt("snapshot too short".into()),
            e => e,
        };
        if &r.fixed::<4>().map_err(short)? != SNAPSHOT_MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic".into()));
        }
        let version = r.u32().map_err(short)?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::Version {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let wire = r.u32().map_err(short)?;
        if wire > WIRE_VERSION {
            return Err(StoreError::Version {
                found: wire,
                supported: WIRE_VERSION,
            });
        }
        let count = r.u32().map_err(short)? as usize;
        r.policies = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let p = r.str().map_err(short)?;
            r.policies.push(p);
        }
        r.body_len = r.u64().map_err(short)?;
        r.left = r.body_len;
        Ok(r)
    }

    /// Stream offset of the next unread byte.
    fn at(&self) -> u64 {
        self.offset + self.pos as u64
    }

    /// Claims `n` more bytes of the body for the decoder.
    #[inline]
    fn claim(&mut self, n: u64) -> Result<()> {
        if self.left < n {
            return Err(StoreError::Truncated {
                at: self.at() as usize,
                needed: n as usize,
                have: self.left as usize,
            });
        }
        self.left -= n;
        Ok(())
    }

    /// Hashes what was read, moves what was not to the window's start,
    /// and reads until at least `need` bytes are unread.
    fn refill(&mut self, need: usize) -> Result<()> {
        self.hash = checksum_from(self.hash, &self.window[self.hashed..self.pos]);
        self.window.copy_within(self.pos..self.filled, 0);
        self.offset += self.pos as u64;
        self.filled -= self.pos;
        self.pos = 0;
        self.hashed = 0;
        while self.filled < need {
            match self.input.read(&mut self.window[self.filled..]) {
                Ok(0) => {
                    return Err(StoreError::Truncated {
                        at: self.at() as usize,
                        needed: need,
                        have: self.filled,
                    })
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    #[inline]
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.claim(N as u64)?;
        if self.filled - self.pos < N {
            self.refill(N)?;
        }
        let out = self.window[self.pos..self.pos + N]
            .try_into()
            .expect("length N");
        self.pos += N;
        Ok(out)
    }

    /// Reads past whatever of the body the decoder left, then the
    /// trailer, checking the checksum and the end of the stream. Returns
    /// how many body bytes the decoder left unread.
    fn seal(&mut self) -> Result<u64> {
        let body_len = self.body_len;
        let short = || {
            StoreError::Corrupt(format!(
                "snapshot body of {body_len} bytes does not match its image"
            ))
        };
        let unread = self.left;
        let mut skip = unread;
        while skip > 0 {
            if self.pos == self.filled {
                self.refill(1).map_err(|_| short())?;
            }
            let k = ((self.filled - self.pos) as u64).min(skip);
            self.pos += k as usize;
            skip -= k;
        }
        self.left = 0;
        self.hash = checksum_from(self.hash, &self.window[self.hashed..self.pos]);
        self.hashed = self.pos;
        let sum = self.hash;
        if self.filled - self.pos < 8 {
            self.refill(8).map_err(|_| short())?;
        }
        let stored = u64::from_le_bytes(
            self.window[self.pos..self.pos + 8]
                .try_into()
                .expect("len 8"),
        );
        self.pos += 8;
        self.hashed = self.pos;
        let mut more = [0u8; 1];
        let trailing = self.filled > self.pos
            || loop {
                match self.input.read(&mut more) {
                    Ok(n) => break n > 0,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            };
        if sum != stored {
            return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
        }
        if trailing {
            return Err(short());
        }
        Ok(unread)
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
        Ok(self.fixed::<1>()?[0])
    }

    /// Reads a `u32` from the body.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    /// Reads a `u64` from the body.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    /// Reads an `i64` from the body.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.fixed()?))
    }

    /// Reads a length-prefixed string from the body. A string longer than
    /// the window is gathered window by window, never trusting its length
    /// prefix for an allocation.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u64()?;
        self.claim(len)?;
        let mut left = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("string of {len} bytes")))?;
        let mut bytes = Vec::with_capacity(left.min(CHUNK));
        loop {
            let k = (self.filled - self.pos).min(left);
            bytes.extend_from_slice(&self.window[self.pos..self.pos + k]);
            self.pos += k;
            left -= k;
            if left == 0 {
                break;
            }
            self.refill(1)?;
        }
        String::from_utf8(bytes).map_err(|_| StoreError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads span refs written by [`SnapshotWriter::put_span_refs`].
    pub fn span_refs(&mut self) -> Result<Vec<SpanRef>> {
        let count = self.u32()? as usize;
        let mut refs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let start = self.u64()?;
            let end = self.u64()?;
            let policies = self.label_refs()?;
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
        let count = self.u32()? as usize;
        let mut idxs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            idxs.push(self.u32()?);
        }
        Ok(idxs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::checksum;

    /// Writes one image into a `Vec` through the production writer.
    fn image(encode: impl FnMut(&mut SnapshotWriter<'_>) -> Result<()>) -> Result<Vec<u8>> {
        let mut out = HashWriter::new(Vec::new());
        SnapshotWriter::write(&mut out, encode)?;
        Ok(out.finish()?)
    }

    /// A reader that hands out at most 7 bytes a call, so every field
    /// of an image can straddle a window refill.
    struct Trickle<'b>(&'b [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn body_and_policy_table_roundtrip() {
        let bytes = image(|w| {
            let a = w.intern("PasswordPolicy{email=u@x}")?;
            let b = w.intern("UntrustedData{}")?;
            let a2 = w.intern("PasswordPolicy{email=u@x}")?;
            assert_eq!(a, a2, "bodies dedup into one table entry");
            w.put_str("hello")?;
            w.put_i64(-5)?;
            w.put_span_refs(&[SpanRef {
                start: 0,
                end: 5,
                policies: vec![a, b],
            }])
        })
        .unwrap();

        SnapshotReader::read(&bytes[..], |r| {
            assert_eq!(r.policy(0)?, "PasswordPolicy{email=u@x}");
            assert_eq!(r.str()?, "hello");
            assert_eq!(r.i64()?, -5);
            let refs = r.span_refs()?;
            assert_eq!(refs.len(), 1);
            assert_eq!(refs[0].policies, vec![0, 1]);
            Ok::<_, StoreError>(())
        })
        .unwrap();
    }

    #[test]
    fn spans_blob_roundtrips_through_refs() {
        // The exact output format of resin_core::serialize_spans.
        let blob = "#UntrustedData{},PasswordPolicy{email=a@b;allow_chair=true}#0..2|0;4..9|0,1";
        let mut refs = Vec::new();
        let bytes = image(|w| {
            refs = w.intern_spans_blob(blob)?;
            assert_eq!(refs.len(), 2);
            w.put_span_refs(&refs)
        })
        .unwrap();
        SnapshotReader::read(&bytes[..], |r| {
            let back = r.span_refs()?;
            assert_eq!(back, refs);
            assert_eq!(r.spans_blob(&back)?, blob, "byte-identical here");
            Ok::<_, StoreError>(())
        })
        .unwrap();
    }

    #[test]
    fn label_blob_roundtrips() {
        let blob = "UntrustedData{source=q},SqlSanitized{}";
        let bytes = image(|w| {
            let idxs = w.intern_label_blob(blob)?;
            assert_eq!(idxs.len(), 2);
            assert!(w.intern_label_blob("")?.is_empty());
            w.put_label_refs(&idxs)
        })
        .unwrap();
        let back = SnapshotReader::read(&bytes[..], |r| {
            let idxs = r.label_refs()?;
            r.label_blob(&idxs)
        })
        .unwrap();
        assert_eq!(back, blob);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let read_str = |bytes: &[u8]| SnapshotReader::read(bytes, |r| r.str());
        let mut bytes = image(|w| w.put_str("data")).unwrap();
        assert_eq!(read_str(&bytes).unwrap(), "data");
        // Flip any one byte past the magic and versions: the checksum (or
        // the image's own framing) catches it, whatever the decoder made
        // of the damage.
        for i in 12..bytes.len() {
            bytes[i] ^= 0xff;
            assert!(
                matches!(read_str(&bytes), Err(StoreError::Corrupt(_))),
                "flip at {i}"
            );
            bytes[i] ^= 0xff;
        }
        assert!(read_str(b"RS").is_err(), "too short");
        assert!(read_str(b"XXXXYYYYZZZZWWWWVVVV").is_err(), "bad magic");
    }

    #[test]
    fn malformed_blobs_are_corrupt_errors() {
        image(|w| {
            assert!(w.intern_spans_blob("no-hash").is_err());
            assert!(w.intern_spans_blob("#onlyone").is_err());
            assert!(w.intern_spans_blob("#T{}#nospan").is_err());
            assert!(w.intern_spans_blob("#T{}#0..1|9").is_err(), "bad local idx");
            assert!(w.intern_spans_blob("#T{}#a..1|0").is_err(), "bad range");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn an_image_streams_through_many_windows() {
        // A string longer than two windows between small fields, read back
        // through a source that never fills the window: every field
        // straddles some refill, and the image is byte-identical to the
        // one-shot layout.
        let long: String = (0..2 * CHUNK + 99)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        let bytes = image(|w| {
            let p = w.intern("UntrustedData{}")?;
            for i in 0..5000u32 {
                w.put_u32(i)?;
                w.put_label_refs(&[p])?;
            }
            w.put_str(&long)?;
            w.put_u8(7)
        })
        .unwrap();
        let mut layout = Vec::new();
        layout.extend_from_slice(SNAPSHOT_MAGIC);
        layout.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        layout.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        layout.extend_from_slice(&1u32.to_le_bytes());
        layout.extend_from_slice(&15u64.to_le_bytes());
        layout.extend_from_slice(b"UntrustedData{}");
        let body = 5000 * 12 + 8 + long.len() + 1;
        layout.extend_from_slice(&(body as u64).to_le_bytes());
        assert_eq!(&bytes[..layout.len()], &layout[..], "header");
        assert_eq!(bytes.len(), layout.len() + body + 8);
        let payload = &bytes[..bytes.len() - 8];
        assert_eq!(bytes[payload.len()..], checksum(payload).to_le_bytes());

        let back = SnapshotReader::read(Trickle(&bytes), |r| {
            for i in 0..5000u32 {
                assert_eq!(r.u32()?, i);
                assert_eq!(r.label_refs()?, vec![0]);
            }
            let s = r.str()?;
            assert_eq!(r.u8()?, 7);
            Ok::<_, StoreError>(s)
        })
        .unwrap();
        assert_eq!(back, long);
    }

    #[test]
    fn a_writing_pass_that_diverges_is_corrupt() {
        // A second pass with another body length, or a policy the first
        // pass never interned, fails the write: the header already went
        // out with the first pass's table and length.
        let mut pass = 0;
        let longer = image(|w| {
            pass += 1;
            w.put_str(if pass == 1 { "one" } else { "three" })
        });
        assert!(matches!(longer, Err(StoreError::Corrupt(_))), "{longer:?}");
        let mut pass = 0;
        let new_policy = image(|w| {
            pass += 1;
            let p = w.intern(if pass == 1 { "A{}" } else { "B{}" })?;
            w.put_u32(p)
        });
        assert!(
            matches!(new_policy, Err(StoreError::Corrupt(_))),
            "{new_policy:?}"
        );
        // A writer that is not at its start cannot frame an image.
        let mut out = HashWriter::new(Vec::new());
        out.put(b"x").unwrap();
        let err = SnapshotWriter::write(&mut out, |w| w.put_u8(1));
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn undecoded_body_and_trailing_bytes_are_refused() {
        // One more body byte than the decoder reads, with the body length
        // and checksum made to match: refused as undecoded, not ignored.
        let bytes = image(|w| w.put_u32(9)).unwrap();
        let body_len_at = 16;
        let mut longer = bytes[..bytes.len() - 8].to_vec();
        longer[body_len_at..body_len_at + 8].copy_from_slice(&5u64.to_le_bytes());
        longer.push(0);
        let sum = checksum(&longer);
        longer.extend_from_slice(&sum.to_le_bytes());
        let decode = |r: &mut SnapshotReader<'_>| r.u32();
        assert_eq!(SnapshotReader::read(&bytes[..], decode).unwrap(), 9);
        let err = SnapshotReader::read(&longer[..], decode).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("undecoded")),
            "{err:?}"
        );
        // Bytes after the checksum are not part of any image.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SnapshotReader::read(&trailing[..], decode),
            Err(StoreError::Corrupt(_))
        ));
    }
}
