//! Binary encoding primitives shared by the snapshot and WAL formats.
//!
//! Everything is little-endian and length-prefixed; there are no varints
//! and no alignment requirements, so a decoder can always tell a truncated
//! buffer from a corrupt one. Integrity is an FNV-1a 64-bit checksum —
//! cheap, dependency-free, and strong enough to detect the torn or
//! partially-written records that crash recovery must tolerate.
//!
//! Checkpoint parts move through [`HashWriter`]: every byte of a part goes
//! to its file, its replica copy, or the verifying pass of a recovery in
//! [`CHUNK`]-sized writes, hashed once per chunk, so no part is ever held
//! whole in memory.

use std::io::{self, Read, Write};

use crate::error::{Result, StoreError};

/// The window every checkpoint part is written, copied and read through.
pub const CHUNK: usize = 64 * 1024;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `data`.
pub fn checksum(data: &[u8]) -> u64 {
    checksum_from(FNV_OFFSET, data)
}

/// Continues an FNV-1a 64-bit hash whose state is `h` over `data`: the
/// hash of a stream is the hash of its pieces, fed in order.
pub fn checksum_from(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A writer that hands `W` its bytes in [`CHUNK`]-sized writes, counting
/// them and hashing each chunk once on its way out. [`sum`](Self::sum) is
/// [`checksum`] of everything written so far.
///
/// The sink is the last field, so a `&mut HashWriter<File>` coerces to a
/// `&mut HashWriter<dyn Write>`: a snapshot encoder writes through one
/// type whatever the sink is, and pays a dynamic call per chunk, not per
/// field.
#[derive(Debug)]
pub struct HashWriter<W: ?Sized> {
    chunk: Box<[u8]>,
    filled: usize,
    /// Bytes handed to `inner`.
    flushed: u64,
    /// FNV-1a state over the bytes handed to `inner`.
    hash: u64,
    inner: W,
}

impl<W: Write> HashWriter<W> {
    /// A writer at offset 0 of `inner`.
    pub fn new(inner: W) -> Self {
        HashWriter {
            chunk: vec![0; CHUNK].into_boxed_slice(),
            filled: 0,
            flushed: 0,
            hash: FNV_OFFSET,
            inner,
        }
    }

    /// Hands over the last chunk and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        Ok(self.inner)
    }
}

impl<W: Write + ?Sized> HashWriter<W> {
    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.flushed + self.filled as u64
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The FNV-1a checksum of every byte written so far. Hands the pending
    /// chunk to the sink first, so no byte is hashed twice.
    pub fn sum(&mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        Ok(self.hash)
    }

    /// Copies `from` to its end through the chunk itself, returning the
    /// bytes copied.
    pub fn copy_from(&mut self, from: &mut dyn Read) -> io::Result<u64> {
        let mut copied = 0u64;
        loop {
            if self.filled == CHUNK {
                self.flush_chunk()?;
            }
            match from.read(&mut self.chunk[self.filled..]) {
                Ok(0) => return Ok(copied),
                Ok(n) => {
                    self.filled += n;
                    copied += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends `bytes`; the fast path of a snapshot encoder's every field.
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        let end = self.filled + bytes.len();
        if end <= CHUNK {
            self.chunk[self.filled..end].copy_from_slice(bytes);
            self.filled = end;
            Ok(())
        } else {
            self.write_all(bytes)
        }
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.filled == 0 {
            return Ok(());
        }
        let chunk = &self.chunk[..self.filled];
        self.hash = checksum_from(self.hash, chunk);
        self.inner.write_all(chunk)?;
        self.flushed += self.filled as u64;
        self.filled = 0;
        Ok(())
    }
}

impl<W: Write + ?Sized> Write for HashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.filled == CHUNK {
            self.flush_chunk()?;
        }
        let n = buf.len().min(CHUNK - self.filled);
        self.chunk[self.filled..self.filled + n].copy_from_slice(&buf[..n]);
        self.filled += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_chunk()?;
        self.inner.flush()
    }
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reading cursor over an encoded buffer.
///
/// Every read distinguishes "buffer too short" from "well-formed": short
/// reads surface as [`StoreError::Truncated`], which the WAL replayer
/// treats as the torn tail of an interrupted append.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                at: self.pos,
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("non-UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_str(&mut buf, "héllo");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xdead_beef);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.i64().unwrap(), -42);
        assert_eq!(c.str().unwrap(), "héllo");
        assert!(c.is_empty());
    }

    #[test]
    fn short_reads_are_truncation_errors() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 100); // claims a 100-byte string...
        buf.extend_from_slice(b"short"); // ...but delivers 5 bytes
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.str(), Err(StoreError::Truncated { .. })));
        assert!(matches!(
            Cursor::new(&[1, 2]).u32(),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn a_hash_writer_hashes_what_it_writes_in_chunks() {
        // Three chunks and a bit, through every way in: the sink gets every
        // byte in order, and the running sum is the checksum of the whole.
        let data: Vec<u8> = (0..3 * CHUNK + 17).map(|i| (i * 31 % 251) as u8).collect();
        let mut w = HashWriter::new(Vec::new());
        w.put(&data[..5]).unwrap();
        w.write_all(&data[5..CHUNK + 3]).unwrap();
        assert_eq!(w.len(), CHUNK as u64 + 3);
        assert_eq!(w.sum().unwrap(), checksum(&data[..CHUNK + 3]));
        w.copy_from(&mut &data[CHUNK + 3..]).unwrap();
        assert_eq!(w.sum().unwrap(), checksum(&data));
        assert_eq!(w.finish().unwrap(), data);
        assert_eq!(
            checksum_from(checksum(&data[..9]), &data[9..]),
            checksum(&data),
            "a hash continues across pieces"
        );
    }

    #[test]
    fn checksum_differs_on_flip() {
        let a = checksum(b"hello world");
        let mut data = b"hello world".to_vec();
        data[3] ^= 1;
        assert_ne!(a, checksum(&data));
        assert_eq!(a, checksum(b"hello world"), "deterministic");
    }
}
