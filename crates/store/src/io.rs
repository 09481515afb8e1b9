//! The binary wire kit, and the chunked writer checkpoint parts move
//! through.
//!
//! Every binary format kept on disk — the manifest, snapshot headers and
//! the SQL and vfs image bodies, the SQL WAL batch and the vfs `FsOp` — is
//! declared once here and read and written from that one declaration. A
//! [`Sink`] takes bytes and a [`Source`] gives them (a `Vec` or a slice, a
//! [`HashWriter`], a snapshot body). A [`Wire`] value has one layout:
//! little-endian fixed-width integers, a `bool` of 0 or 1, an `Option` as
//! that `bool` and its value, a `u64`-length-prefixed string. A [`Codec`]
//! gives a type another one, such as a [`Seq`] or [`Map`] whose count
//! width is chosen where it is used, and [`wire!`](crate::wire) declares a
//! struct's fields or a tagged enum's variants once for both directions.
//!
//! A decoder takes only what its encoder writes: an unknown tag, a flag
//! other than 0 or 1, a map key not above the one before it, or a byte
//! left after a whole payload ([`read_all`]) is refused. There are no
//! varints and no alignment, so a short read is always
//! [`StoreError::Truncated`], and no count or length read off the wire
//! sizes an allocation before its items arrive.
//!
//! Integrity is an FNV-1a 64-bit checksum, strong enough to detect the
//! torn or partially-written records crash recovery must tolerate. Every
//! byte of a checkpoint part moves through [`HashWriter`] in
//! `CHUNK`-sized writes, hashed once per chunk, so no part is ever held
//! whole in memory.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::marker::PhantomData;

use crate::error::{Result, StoreError};

/// The window every checkpoint part is written, copied and read through.
pub(crate) const CHUNK: usize = 64 * 1024;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `data`.
pub fn checksum(data: &[u8]) -> u64 {
    checksum_from(FNV_OFFSET, data)
}

/// Continues an FNV-1a 64-bit hash whose state is `h` over `data`: the
/// hash of a stream is the hash of its pieces, fed in order.
pub(crate) fn checksum_from(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A writer that hands `W` its bytes in `CHUNK`-sized writes, counting
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
    pub(crate) fn copy_from(&mut self, from: &mut dyn Read) -> io::Result<u64> {
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

// ---- the wire kit ----

/// Where an encoder's bytes go: a `Vec`, a [`HashWriter`] or a snapshot
/// body, which alone has a policy table to [`intern`](Sink::intern) in.
pub trait Sink {
    /// Appends `bytes`.
    fn emit(&mut self, bytes: &[u8]) -> Result<()>;

    /// The table index of policy text `body`, entered on first sight.
    fn intern(&mut self, body: &str) -> Result<u32> {
        Err(StoreError::Corrupt(format!("no policy table for `{body}`")))
    }
}

/// Where a decoder's bytes come from: a byte slice, consumed from its
/// front, or a snapshot body, which alone has a policy table. A read past
/// the end is [`StoreError::Truncated`].
pub trait Source {
    /// Fills `out` with the next bytes.
    fn fill(&mut self, out: &mut [u8]) -> Result<()>;

    /// Appends the next `n` bytes to `out`, which grows by what arrives,
    /// never by the unread `n`.
    fn gather(&mut self, n: u64, out: &mut Vec<u8>) -> Result<()>;

    /// The policy text at table index `idx`.
    fn policy(&self, idx: u32) -> Result<&str> {
        Err(StoreError::Corrupt(format!("no policy table for {idx}")))
    }
}

impl Sink for Vec<u8> {
    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

/// The fast path of a snapshot encoder's every field.
impl<W: Write + ?Sized> Sink for HashWriter<W> {
    #[inline]
    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        match self.filled + bytes.len() {
            end if end <= CHUNK => {
                self.chunk[self.filled..end].copy_from_slice(bytes);
                self.filled = end;
            }
            _ => self.write_all(bytes)?,
        }
        Ok(())
    }
}

/// The first `n` bytes of `src`, which moves past them.
fn take<'a>(src: &mut &'a [u8], n: u64) -> Result<&'a [u8]> {
    let have = src.len() as u64;
    if have < n {
        return Err(StoreError::Truncated { needed: n, have });
    }
    let (head, rest) = src.split_at(n as usize);
    *src = rest;
    Ok(head)
}

impl Source for &[u8] {
    fn fill(&mut self, out: &mut [u8]) -> Result<()> {
        out.copy_from_slice(take(self, out.len() as u64)?);
        Ok(())
    }

    fn gather(&mut self, n: u64, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(take(self, n)?);
        Ok(())
    }
}

/// Decodes a whole payload with `get`, which must take every byte of it.
pub fn read_all<'a, T>(
    mut bytes: &'a [u8],
    get: impl FnOnce(&mut &'a [u8]) -> Result<T>,
) -> Result<T> {
    let v = get(&mut bytes)?;
    match bytes.len() {
        0 => Ok(v),
        n => Err(StoreError::Corrupt(format!(
            "{n} bytes after the last field"
        ))),
    }
}

/// A value with one binary layout: [`get`](Wire::get) reads back exactly
/// what [`put`](Wire::put) writes, and refuses every other byte string.
pub trait Wire {
    /// Writes the value.
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()>;

    /// Reads a value.
    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self>
    where
        Self: Sized;
}

macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        /// Fixed width, little-endian.
        impl Wire for $t {
            fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
                out.emit(&self.to_le_bytes())
            }

            fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
                Ok(<$t>::from_le_bytes(Wire::get(src)?))
            }
        }
    )*};
}
fixed_width!(u8, u32, u64, i64);

/// The bytes themselves (a magic number).
impl<const N: usize> Wire for [u8; N] {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        out.emit(self)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
        let mut b = [0; N];
        src.fill(&mut b).map(|()| b)
    }
}

/// One byte, exactly 0 or 1.
impl Wire for bool {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        u8::from(*self).put(out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
        match u8::get(src)? {
            tag @ (0 | 1) => Ok(tag == 1),
            tag => Err(StoreError::Corrupt(format!("flag byte {tag}"))),
        }
    }
}

/// A `bool`, then the value when there is one.
impl<T: Wire> Wire for Option<T> {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        self.is_some().put(out)?;
        self.as_ref().map_or(Ok(()), |v| v.put(out))
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
        bool::get(src)?.then(|| T::get(src)).transpose()
    }
}

/// A `u64` byte length, then the UTF-8 bytes.
impl Wire for str {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        (self.len() as u64).put(out)?;
        out.emit(self.as_bytes())
    }
}

impl Wire for String {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        self.as_str().put(out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
        let (len, mut bytes) = (u64::get(src)?, Vec::new());
        src.gather(len, &mut bytes)?;
        String::from_utf8(bytes).map_err(|_| StoreError::Corrupt("non-UTF-8 string".into()))
    }
}

impl Wire for Cow<'_, str> {
    fn put<S: Sink + ?Sized>(&self, out: &mut S) -> Result<()> {
        (**self).put(out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Self> {
        String::get(src).map(Cow::Owned)
    }
}

/// A layout for a `T` other than `T`'s own: a count width, a path's
/// form, policy refs. A [`wire!`](crate::wire) field names one with `as`.
pub trait Codec<T> {
    /// Writes `v`.
    fn put<S: Sink + ?Sized>(v: &T, out: &mut S) -> Result<()>;

    /// Reads a value.
    fn get<R: Source + ?Sized>(src: &mut R) -> Result<T>;
}

/// The width of an item count: `u32` or `u64`.
pub trait Count: Wire + TryFrom<usize> + Into<u64> {}
impl Count for u32 {}
impl Count for u64 {}

fn put_count<N: Count, S: Sink + ?Sized>(n: usize, out: &mut S) -> Result<()> {
    let n = N::try_from(n).map_err(|_| StoreError::Corrupt(format!("{n} items overflow")))?;
    n.put(out)
}

/// A sequence: its item count as an `N`, then the items.
#[derive(Debug)]
pub struct Seq<N>(PhantomData<N>);

impl<N: Count, T: Wire> Codec<Vec<T>> for Seq<N> {
    fn put<S: Sink + ?Sized>(v: &Vec<T>, out: &mut S) -> Result<()> {
        put_count::<N, S>(v.len(), out)?;
        v.iter().try_for_each(|x| x.put(out))
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<Vec<T>> {
        let n: u64 = N::get(src)?.into();
        // An unread count reserves room for 1024 items at most.
        let mut v = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            v.push(T::get(src)?);
        }
        Ok(v)
    }
}

/// A map from names: its entry count as an `N`, then each key and its
/// value, keys strictly increasing (a `BTreeMap`'s order), so a repeated
/// or reordered key is refused.
#[derive(Debug)]
pub struct Map<N>(PhantomData<N>);

impl<N: Count> Map<N> {
    /// Writes `m`, each value with `value`.
    pub fn put_with<V, S: Sink + ?Sized>(
        m: &BTreeMap<String, V>,
        out: &mut S,
        mut value: impl FnMut(&str, &V, &mut S) -> Result<()>,
    ) -> Result<()> {
        put_count::<N, S>(m.len(), out)?;
        m.iter().try_for_each(|(k, v)| {
            k.put(out)?;
            value(k, v, out)
        })
    }

    /// Reads a map, each value with `value`.
    pub fn get_with<V, R: Source + ?Sized>(
        src: &mut R,
        mut value: impl FnMut(&str, &mut R) -> Result<V>,
    ) -> Result<BTreeMap<String, V>> {
        let mut m = BTreeMap::new();
        for _ in 0..N::get(src)?.into() {
            let k = String::get(src)?;
            if m.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(StoreError::Corrupt(format!("map key `{k}` out of order")));
            }
            let v = value(&k, src)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<N: Count, V: Wire> Codec<BTreeMap<String, V>> for Map<N> {
    fn put<S: Sink + ?Sized>(m: &BTreeMap<String, V>, out: &mut S) -> Result<()> {
        Self::put_with(m, out, |_, v, out| v.put(out))
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> Result<BTreeMap<String, V>> {
        Self::get_with(src, |_, src| V::get(src))
    }
}

/// Declares the binary layout of a struct, or of an enum tagged by a
/// `u8`, once, and implements [`Wire`](crate::io::Wire) both ways from it.
///
/// A struct is its fields in the order listed, each through its own
/// `Wire` or, written `field as C`, through [`Codec`](crate::io::Codec)
/// `C`; every field must be listed. An enum is its variant's tag, then
/// that variant's fields; a variant is `Name { fields }` (`Name {}` for a
/// unit one) or `Name(bindings)`, and a tag no variant has is refused.
///
/// ```text
/// wire! { ManifestEntry { name, file, len, sum } }
/// wire! { Cell<'a>: u8 { Null {} = 0, Int(v) = 1, Spans(s as SpansBlob) = 3 } }
/// ```
#[macro_export]
macro_rules! wire {
    ($ty:ident $(<$lt:lifetime>)? { $($f:ident $(as $c:ty)?),* $(,)? }) => {
        impl$(<$lt>)? $crate::io::Wire for $ty$(<$lt>)? {
            fn put<S: $crate::io::Sink + ?Sized>(&self, out: &mut S) -> $crate::Result<()> {
                $($crate::wire!(@put out, &self.$f $(, $c)?);)*
                Ok(())
            }

            fn get<R: $crate::io::Source + ?Sized>(src: &mut R) -> $crate::Result<Self> {
                Ok($ty { $($f: $crate::wire!(@get src $(, $c)?)),* })
            }
        }
    };
    ($ty:ident $(<$lt:lifetime>)?: u8 { $($v:ident $body:tt = $tag:literal),* $(,)? }) => {
        impl$(<$lt>)? $crate::io::Wire for $ty$(<$lt>)? {
            fn put<S: $crate::io::Sink + ?Sized>(&self, out: &mut S) -> $crate::Result<()> {
                match self {
                    $($crate::wire!(@pat $ty $v $body) => {
                        $crate::io::Wire::put(&($tag as u8), out)?;
                        $crate::wire!(@put_all out $body);
                    })*
                }
                Ok(())
            }

            fn get<R: $crate::io::Source + ?Sized>(src: &mut R) -> $crate::Result<Self> {
                Ok(match <u8 as $crate::io::Wire>::get(src)? {
                    $($tag => $crate::wire!(@new src $ty $v $body),)*
                    tag => {
                        return Err($crate::StoreError::Corrupt(format!(
                            "unknown {} tag {tag}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
    (@pat $ty:ident $v:ident { $($f:ident $(as $c:ty)?),* }) => { $ty::$v { $($f),* } };
    (@pat $ty:ident $v:ident ( $($f:ident $(as $c:ty)?),* )) => { $ty::$v ( $($f),* ) };
    (@put_all $out:ident { $($f:ident $(as $c:ty)?),* }) => {
        $($crate::wire!(@put $out, $f $(, $c)?);)*
    };
    (@put_all $out:ident ( $($f:ident $(as $c:ty)?),* )) => {
        $($crate::wire!(@put $out, $f $(, $c)?);)*
    };
    (@new $src:ident $ty:ident $v:ident { $($f:ident $(as $c:ty)?),* }) => {
        $ty::$v { $($f: $crate::wire!(@get $src $(, $c)?)),* }
    };
    (@new $src:ident $ty:ident $v:ident ( $($f:ident $(as $c:ty)?),* )) => {
        $ty::$v ( $($crate::wire!(@get $src $(, $c)?)),* )
    };
    (@put $out:ident, $v:expr) => { $crate::io::Wire::put($v, $out)? };
    (@put $out:ident, $v:expr, $c:ty) => { <$c as $crate::io::Codec<_>>::put($v, $out)? };
    (@get $src:ident) => { $crate::io::Wire::get($src)? };
    (@get $src:ident, $c:ty) => { <$c as $crate::io::Codec<_>>::get($src)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        7u8.put(&mut buf).unwrap();
        0xdead_beefu32.put(&mut buf).unwrap();
        (u64::MAX - 1).put(&mut buf).unwrap();
        (-42i64).put(&mut buf).unwrap();
        "héllo".put(&mut buf).unwrap();
        Some(true).put(&mut buf).unwrap();
        let mut c = &buf[..];
        assert_eq!(u8::get(&mut c).unwrap(), 7);
        assert_eq!(u32::get(&mut c).unwrap(), 0xdead_beef);
        assert_eq!(u64::get(&mut c).unwrap(), u64::MAX - 1);
        assert_eq!(i64::get(&mut c).unwrap(), -42);
        assert_eq!(String::get(&mut c).unwrap(), "héllo");
        assert_eq!(Option::<bool>::get(&mut c).unwrap(), Some(true));
        assert!(c.is_empty());
    }

    #[test]
    fn short_reads_are_truncation_errors() {
        let mut buf = Vec::new();
        100u64.put(&mut buf).unwrap(); // claims a 100-byte string...
        buf.extend_from_slice(b"short"); // ...but delivers 5 bytes
        assert!(matches!(
            String::get(&mut &buf[..]),
            Err(StoreError::Truncated {
                needed: 100,
                have: 5
            })
        ));
        assert!(matches!(
            u32::get(&mut &[1u8, 2][..]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn a_whole_payload_takes_every_byte() {
        let mut buf = Vec::new();
        7u32.put(&mut buf).unwrap();
        assert_eq!(read_all(&buf, u32::get).unwrap(), 7);
        buf.push(0);
        assert!(matches!(
            read_all(&buf, u32::get),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_hash_writer_hashes_what_it_writes_in_chunks() {
        // Three chunks and a bit, through every way in: the sink gets every
        // byte in order, and the running sum is the checksum of the whole.
        let data: Vec<u8> = (0..3 * CHUNK + 17).map(|i| (i * 31 % 251) as u8).collect();
        let mut w = HashWriter::new(Vec::new());
        w.emit(&data[..5]).unwrap();
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
