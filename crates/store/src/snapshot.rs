//! The versioned snapshot image format.
//!
//! A snapshot is the durable twin of the in-memory label interning
//! (§3.4.1): the **policy table** — every distinct serialized policy body
//! — is written exactly once in the header, and the client body refers to
//! policies by `u32` index, so a million password cells under one
//! `PasswordPolicy` persist one policy body and a million 4-byte refs.
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
//! A client declares its body with the wire kit (`crate::io`):
//! [`SnapshotWriter`] is the body's [`Sink`] and [`SnapshotReader`] its
//! [`Source`], both holding the policy table, so a [`SpanRef`] list or a
//! [`SpansBlob`] or [`LabelBlob`] field is stored as refs into it. An image
//! streams both ways, never whole: [`SnapshotWriter::write`] runs the
//! encoder twice, a sizing pass that interns the table and counts the
//! body, then a writing pass into a [`HashWriter`] (the passes must agree,
//! or the write fails as [`StoreError::Corrupt`]); [`SnapshotReader::read`]
//! decodes through a 64 KiB window and checks the body consumed exactly,
//! then the checksum, then nothing after it.
//!
//! Policy bodies are opaque: blobs move through `resin_core::serialize`'s
//! one reader and writer of the format ([`read_spans`], [`SpansWriter`],
//! [`read_texts`], [`write_texts`]), texts in and texts out, so no policy
//! class need be registered to checkpoint or recover a store — persisted
//! policies outlive the code that produced them. The table is kept as
//! written: a blob comes back with its own table in order of first use.
//! It holds only texts that come back whole from any blob
//! ([`is_whole_text`]): the writer refuses to intern another, and the
//! reader to open an image holding one.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

use resin_core::serialize::{
    is_whole_text, read_spans, read_texts, write_texts, SpansWriter, WIRE_VERSION,
};
use resin_core::SerializeError;

use crate::error::{Result, StoreError};
use crate::io::{checksum_from, Codec, HashWriter, Seq, Sink, Source, Wire, CHUNK, FNV_OFFSET};
use crate::wire;

/// Magic bytes opening every snapshot image.
const SNAPSHOT_MAGIC: &[u8; 4] = b"RSNP";

/// Version of the snapshot container format.
const SNAPSHOT_VERSION: u32 = 1;

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

wire! { SpanRef { start, end, policies as Seq<u32> } }

/// Encodes a snapshot image: interns policy bodies into the shared table
/// while the client encodes its body into it as a [`Sink`]. The client
/// sees it only inside [`SnapshotWriter::write`], once per pass.
pub struct SnapshotWriter<'a> {
    policies: Vec<String>,
    index: HashMap<String, u32>,
    /// `None` in the sizing pass; the image's sink in the writing pass.
    out: Option<&'a mut HashWriter<dyn Write + 'a>>,
    /// Body bytes counted (sizing pass) or written (writing pass).
    body: u64,
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
        SNAPSHOT_MAGIC.put(out)?;
        SNAPSHOT_VERSION.put(out)?;
        WIRE_VERSION.put(out)?;
        Seq::<u32>::put(&w.policies, out)?;
        sized.put(out)?;
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
        sum.put(out)?;
        Ok(())
    }
}

impl Sink for SnapshotWriter<'_> {
    #[inline]
    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.body += bytes.len() as u64;
        match &mut self.out {
            Some(out) => out.emit(bytes),
            None => Ok(()),
        }
    }

    /// In the writing pass the table is sealed: a body the sizing pass did
    /// not meet is an error. A text that is not whole is refused.
    fn intern(&mut self, body: &str) -> Result<u32> {
        if let Some(&i) = self.index.get(body) {
            return Ok(i);
        }
        whole(body)?;
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
}

fn corrupt(e: SerializeError) -> StoreError {
    StoreError::Corrupt(e.to_string())
}

/// Interns the policies of a spans blob (`#table#spans`, the output of
/// `serialize_spans`) into `out`'s policy table, returning per-span refs.
pub fn intern_spans<S: Sink + ?Sized>(out: &mut S, blob: &str) -> Result<Vec<SpanRef>> {
    let mut texts = Vec::new();
    let spans = read_spans(blob, &mut |text| texts.push(text)).map_err(corrupt)?;
    // Local (per-blob) table index → shared table index.
    let local: Vec<u32> = texts
        .into_iter()
        .map(|text| out.intern(text))
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

/// Regenerates a `#table#spans` blob from span refs — the inverse of
/// [`intern_spans`] up to the blob's table order, which comes back in
/// order of first use (the revived taint is identical). A ref no blob
/// interns to (reversed, or naming no policy) is refused.
pub fn spans_blob<R: Source + ?Sized>(src: &R, refs: &[SpanRef]) -> Result<String> {
    let mut local: Vec<&str> = Vec::new();
    let mut map: HashMap<u32, usize> = HashMap::new();
    let mut out = SpansWriter::default();
    let mut idxs = Vec::new();
    for r in refs {
        if r.start > r.end || r.policies.is_empty() {
            return Err(StoreError::Corrupt(format!("span ref {r:?}")));
        }
        idxs.clear();
        for &p in &r.policies {
            let body = src.policy(p)?;
            idxs.push(*map.entry(p).or_insert_with(|| {
                local.push(body);
                local.len() - 1
            }));
        }
        out.span(r.start..r.end, idxs.iter().copied());
    }
    Ok(out.finish(&local))
}

/// Refuses a policy text that would not come back whole from the blobs
/// regenerated with it: one naming only `""` reads back as the empty
/// table, and one whose own commas or braces split or swallow its
/// neighbours names other policies once stored again.
fn whole(text: &str) -> Result<&str> {
    match is_whole_text(text) {
        true => Ok(text),
        false => Err(StoreError::Corrupt(format!(
            "policy text `{text}` does not list apart"
        ))),
    }
}

/// A spans blob field, kept in the image as [`SpanRef`]s.
#[derive(Debug)]
pub struct SpansBlob;

impl<T: AsRef<str> + From<String>> Codec<T> for SpansBlob {
    fn put<S: Sink + ?Sized>(v: &T, out: &mut S) -> Result<()> {
        let refs = intern_spans(out, v.as_ref())?;
        Seq::<u32>::put(&refs, out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<T> {
        let refs: Vec<SpanRef> = Seq::<u32>::get(src)?;
        spans_blob(src, &refs).map(T::from)
    }
}

/// A whole-datum label blob field (comma-joined policy bodies, the output
/// of `serialize_label`), kept in the image as policy table indexes.
#[derive(Debug)]
pub struct LabelBlob;

impl<T: AsRef<str> + From<String>> Codec<T> for LabelBlob {
    fn put<S: Sink + ?Sized>(v: &T, out: &mut S) -> Result<()> {
        let idxs: Vec<u32> = read_texts(v.as_ref())
            .map(|text| out.intern(text))
            .collect::<Result<_>>()?;
        Seq::<u32>::put(&idxs, out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<T> {
        let idxs: Vec<u32> = Seq::<u32>::get(src)?;
        let bodies = idxs.iter().map(|&i| src.policy(i));
        let bodies = bodies.collect::<Result<Vec<_>>>()?;
        Ok(write_texts(bodies).into())
    }
}

/// Decodes a snapshot image from a stream: validates the header, holds
/// the policy table, and gives the client body through a 64 KiB window as
/// a [`Source`], hashing each byte as the body takes it. The client sees
/// it only inside [`SnapshotReader::read`].
pub struct SnapshotReader<'a> {
    policies: Vec<String>,
    input: BufReader<&'a mut dyn Read>,
    /// FNV-1a state over the image up to the next unread byte.
    hash: u64,
    /// Bytes the decoder may still read: the unread body once the header
    /// is parsed.
    left: u64,
    body_len: u64,
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
            input: BufReader::with_capacity(CHUNK, input),
            hash: FNV_OFFSET,
            left: u64::MAX,
            body_len: 0,
        };
        let short = |e| match e {
            StoreError::Truncated { .. } => StoreError::Corrupt("snapshot too short".into()),
            e => e,
        };
        if &<[u8; 4]>::get(&mut r).map_err(short)? != SNAPSHOT_MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic".into()));
        }
        let found = u32::get(&mut r).map_err(short)?;
        if found != SNAPSHOT_VERSION {
            let supported = SNAPSHOT_VERSION;
            return Err(StoreError::Version { found, supported });
        }
        // Bodies of an older wire version still read.
        let found = u32::get(&mut r).map_err(short)?;
        if found > WIRE_VERSION {
            let supported = WIRE_VERSION;
            return Err(StoreError::Version { found, supported });
        }
        r.policies = Seq::<u32>::get(&mut r).map_err(short)?;
        r.policies.iter().try_for_each(|p| whole(p).map(drop))?;
        r.body_len = u64::get(&mut r).map_err(short)?;
        r.left = r.body_len;
        Ok(r)
    }

    /// Claims `n` more bytes of the body for the decoder.
    #[inline]
    fn claim(&mut self, n: u64) -> Result<()> {
        let have = self.left;
        self.left = have
            .checked_sub(n)
            .ok_or(StoreError::Truncated { needed: n, have })?;
        Ok(())
    }

    /// Hands the next `n` bytes of the image to `take`, a window's worth
    /// at most at a time, hashing each on its way.
    #[inline]
    fn stream(&mut self, mut n: u64, mut take: impl FnMut(&[u8])) -> Result<()> {
        while n > 0 {
            let window = match self.input.fill_buf() {
                Ok([]) => return Err(StoreError::Truncated { needed: n, have: 0 }),
                Ok(window) => window,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            let k = window.len().min(usize::try_from(n).unwrap_or(usize::MAX));
            self.hash = checksum_from(self.hash, &window[..k]);
            take(&window[..k]);
            self.input.consume(k);
            n -= k as u64;
        }
        Ok(())
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
        let unread = std::mem::take(&mut self.left);
        self.stream(unread, |_| {}).map_err(|_| short())?;
        let sum = self.hash;
        self.left = 8;
        let stored = u64::get(self).map_err(|_| short())?;
        let trailing = (&mut self.input).bytes().next().transpose()?.is_some();
        if stored != sum {
            return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
        }
        if trailing {
            return Err(short());
        }
        Ok(unread)
    }
}

impl Source for SnapshotReader<'_> {
    #[inline]
    fn fill(&mut self, out: &mut [u8]) -> Result<()> {
        self.claim(out.len() as u64)?;
        // A field the window already holds is one copy.
        match self.input.buffer().get(..out.len()) {
            Some(held) => {
                out.copy_from_slice(held);
                self.hash = checksum_from(self.hash, held);
                self.input.consume(out.len());
                Ok(())
            }
            None => {
                let mut at = 0;
                self.stream(out.len() as u64, |b| {
                    out[at..at + b.len()].copy_from_slice(b);
                    at += b.len();
                })
            }
        }
    }

    /// A string longer than the window is gathered window by window,
    /// never trusting its length prefix for an allocation.
    fn gather(&mut self, n: u64, out: &mut Vec<u8>) -> Result<()> {
        self.claim(n)?;
        out.reserve(n.min(CHUNK as u64) as usize);
        self.stream(n, |b| out.extend_from_slice(b))
    }

    fn policy(&self, idx: u32) -> Result<&str> {
        self.policies
            .get(idx as usize)
            .map(|s| s.as_str())
            .ok_or_else(|| StoreError::Corrupt(format!("policy index {idx} out of range")))
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
            "hello".put(w)?;
            (-5i64).put(w)?;
            let refs = vec![SpanRef {
                start: 0,
                end: 5,
                policies: vec![a, b],
            }];
            Seq::<u32>::put(&refs, w)
        })
        .unwrap();

        SnapshotReader::read(&bytes[..], |r| {
            assert_eq!(r.policy(0)?, "PasswordPolicy{email=u@x}");
            assert_eq!(String::get(r)?, "hello");
            assert_eq!(i64::get(r)?, -5);
            let refs: Vec<SpanRef> = Seq::<u32>::get(r)?;
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
            refs = intern_spans(w, blob)?;
            assert_eq!(refs.len(), 2);
            Seq::<u32>::put(&refs, w)
        })
        .unwrap();
        SnapshotReader::read(&bytes[..], |r| {
            let back: Vec<SpanRef> = Seq::<u32>::get(r)?;
            assert_eq!(back, refs);
            assert_eq!(spans_blob(r, &back)?, blob, "byte-identical here");
            Ok::<_, StoreError>(())
        })
        .unwrap();
    }

    #[test]
    fn a_spans_blob_the_writer_interns_reads_back() {
        // The reader must take every blob the writer stores as refs: a
        // table naming only the empty text would come back as `##`, the
        // empty table, and refuse to open. Mutated blobs probe the rest.
        let write_read = |blob: &str| -> Result<Option<String>> {
            let bytes = match image(|w| SpansBlob::put(&blob.to_string(), w)) {
                Ok(bytes) => bytes,
                Err(_) => return Ok(None),
            };
            SnapshotReader::read(&bytes[..], |r| SpansBlob::get(r)).map(Some)
        };
        for blob in ["#,A{}#0..1|0", "#,A{}#0..1|1", "#A{},#0..1|1"] {
            assert!(write_read(blob).unwrap().is_none(), "{blob}");
        }
        let canon = "#UntrustedData{},PasswordPolicy{email=a@b}#0..2|0;4..9|0,1";
        let mut stored = 0;
        for seed in 0..32 {
            for m in crate::mutants::mutants(canon.as_bytes(), seed) {
                let Ok(blob) = std::str::from_utf8(&m) else {
                    continue;
                };
                if let Some(back) = write_read(blob).unwrap() {
                    stored += 1;
                    assert_eq!(write_read(&back).unwrap(), Some(back.clone()), "{blob}");
                }
            }
        }
        assert!(stored > 0, "some mutants are blobs the writer takes");
        // The table itself: the writer interns no text that is not whole,
        // and the reader opens no image whose table holds one.
        assert!(image(|w| w.intern("A{},B{}").map(drop)).is_err());
        let bytes = image(|w| w.intern("A{};B{}").map(drop)).unwrap();
        let mut crafted = bytes[..bytes.len() - 8].to_vec();
        let at = crafted.iter().position(|&b| b == b';').unwrap();
        crafted[at] = b',';
        let sum = checksum(&crafted);
        crafted.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotReader::read(&crafted[..], |_| Ok::<_, StoreError>(())),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn label_blob_roundtrips() {
        let blob = "UntrustedData{source=q},SqlSanitized{}";
        let bytes = image(|w| LabelBlob::put(&blob.to_string(), w)).unwrap();
        let back: String = SnapshotReader::read(&bytes[..], |r| LabelBlob::get(r)).unwrap();
        assert_eq!(back, blob);
        let idxs: Vec<u32> = SnapshotReader::read(&bytes[..], |r| Seq::<u32>::get(r)).unwrap();
        assert_eq!(idxs, [0, 1]);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let read_str = |bytes: &[u8]| SnapshotReader::read(bytes, |r| String::get(r));
        let mut bytes = image(|w| "data".put(w)).unwrap();
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
            assert!(intern_spans(w, "no-hash").is_err());
            assert!(intern_spans(w, "#onlyone").is_err());
            assert!(intern_spans(w, "#T{}#nospan").is_err());
            assert!(intern_spans(w, "#T{}#0..1|9").is_err(), "bad local idx");
            assert!(intern_spans(w, "#T{}#a..1|0").is_err(), "bad range");
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
                i.put(w)?;
                Seq::<u32>::put(&vec![p], w)?;
            }
            long.put(w)?;
            7u8.put(w)
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
                assert_eq!(u32::get(r)?, i);
                let refs: Vec<u32> = Seq::<u32>::get(r)?;
                assert_eq!(refs, [0]);
            }
            let s = String::get(r)?;
            assert_eq!(u8::get(r)?, 7);
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
            (if pass == 1 { "one" } else { "three" }).put(w)
        });
        assert!(matches!(longer, Err(StoreError::Corrupt(_))), "{longer:?}");
        let mut pass = 0;
        let new_policy = image(|w| {
            pass += 1;
            let p = w.intern(if pass == 1 { "A{}" } else { "B{}" })?;
            p.put(w)
        });
        assert!(
            matches!(new_policy, Err(StoreError::Corrupt(_))),
            "{new_policy:?}"
        );
        // A writer that is not at its start cannot frame an image.
        let mut out = HashWriter::new(Vec::new());
        out.emit(b"x").unwrap();
        let err = SnapshotWriter::write(&mut out, |w| 1u8.put(w));
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn undecoded_body_and_trailing_bytes_are_refused() {
        // One more body byte than the decoder reads, with the body length
        // and checksum made to match: refused as undecoded, not ignored.
        let bytes = image(|w| 9u32.put(w)).unwrap();
        let body_len_at = 16;
        let mut longer = bytes[..bytes.len() - 8].to_vec();
        longer[body_len_at..body_len_at + 8].copy_from_slice(&5u64.to_le_bytes());
        longer.push(0);
        let sum = checksum(&longer);
        longer.extend_from_slice(&sum.to_le_bytes());
        let decode = |r: &mut SnapshotReader<'_>| u32::get(r);
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

    #[test]
    fn an_older_wire_version_reads_and_a_newer_one_does_not() {
        let bytes = image(|w| 9u32.put(w)).unwrap();
        let with_wire = |wire: u32| {
            let mut image = bytes[..bytes.len() - 8].to_vec();
            image[8..12].copy_from_slice(&wire.to_le_bytes());
            let sum = checksum(&image);
            image.extend_from_slice(&sum.to_le_bytes());
            SnapshotReader::read(&image[..], |r| u32::get(r))
        };
        assert_eq!(with_wire(WIRE_VERSION - 1).unwrap(), 9);
        assert!(matches!(
            with_wire(WIRE_VERSION + 1),
            Err(StoreError::Version { .. })
        ));
    }
}
