//! Seeded mutants of canonical encodings, and the decoder property run
//! over them: `decode` never panics, and a mutant it accepts is one its
//! encoder writes byte for byte.
//!
//! Shared by `tests/decoders.rs` and by the unit tests of the crates whose
//! decoders are private (each includes this file with `#[path]`).

#![allow(dead_code)]

/// Mutants made of each canonical encoding.
pub(crate) const MUTANTS: usize = 48;

/// A deterministic xorshift64* generator.
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// A value below `n` (`n` > 0).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Bytes an inserted or flipped-in byte is drawn from: the separators and
/// tags of every format, and bytes around them.
const BYTES: &[u8] = b"\x00\x01\x02\x05\xff0119+-,.|#%{}:;=/\x1c";

/// One mutant of `canon`: a byte inserted, deleted or flipped, a digit
/// padded with a leading `0`, a stretch duplicated, two stretches
/// swapped, or the tail cut off.
pub(crate) fn mutate(canon: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut m = canon.to_vec();
    let len = m.len();
    let at = rng.below(len + 1);
    let pick = |rng: &mut Rng| BYTES[rng.below(BYTES.len())];
    match rng.below(7) {
        0 => m.insert(at, pick(rng)),
        1 if at < len => {
            m.remove(at);
        }
        2 if at < len => {
            m[at] = if rng.below(2) == 0 {
                pick(rng)
            } else {
                m[at] ^ 1 << rng.below(8)
            }
        }
        3 => {
            let digits: Vec<usize> = (0..len).filter(|&i| m[i].is_ascii_digit()).collect();
            match digits.len() {
                0 => m.insert(at, 0),
                n => m.insert(digits[rng.below(n)], b'0'),
            }
        }
        4 if at < len => {
            let end = (at + 1 + rng.below(8)).min(len);
            let copy = m[at..end].to_vec();
            m.splice(end..end, copy);
        }
        5 if at < len => {
            let k = 1 + rng.below(4);
            let end = (at + 2 * k).min(len);
            m[at..end].rotate_left(k.min(end - at));
        }
        _ => m.truncate(at),
    }
    m
}

/// The mutants of `canon` seeded with `seed`.
pub(crate) fn mutants(canon: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    (0..MUTANTS).map(|_| mutate(canon, &mut rng)).collect()
}

/// The property of a canonical decoder over `canons` and their mutants:
/// whatever `decode` accepts, `encode` writes back byte for byte. A
/// canonical encoding must decode. Returns how many mutants decoded.
pub(crate) fn canonical<T>(
    canons: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    canonical_over(canons, mutants, decode, encode)
}

/// [`canonical`] over the mutants `make` makes of each encoding.
pub(crate) fn canonical_over<T>(
    canons: &[Vec<u8>],
    make: impl Fn(&[u8], u64) -> Vec<Vec<u8>>,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    let mut accepted = 0;
    for (seed, canon) in canons.iter().enumerate() {
        let v = decode(canon).unwrap_or_else(|| panic!("canonical {canon:?} refused"));
        assert_eq!(encode(&v), *canon, "canonical round trip");
        for m in make(canon, seed as u64) {
            if let Some(v) = decode(&m) {
                accepted += 1;
                assert_eq!(encode(&v), m, "accepted a mutant it does not write");
            }
        }
    }
    accepted
}

/// The property of a decoder the census marks "wider": it never panics,
/// and what it accepts encodes to a text it reads back as the same value.
pub(crate) fn wider<T: PartialEq + std::fmt::Debug>(
    canons: &[Vec<u8>],
    make: impl Fn(&[u8], u64) -> Vec<Vec<u8>>,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    let mut accepted = 0;
    for (seed, canon) in canons.iter().enumerate() {
        assert!(decode(canon).is_some(), "canonical {canon:?} refused");
        for m in make(canon, seed as u64) {
            if let Some(v) = decode(&m) {
                accepted += 1;
                assert_eq!(decode(&encode(&v)).as_ref(), Some(&v), "{m:?}");
            }
        }
    }
    accepted
}

/// The mutants of a checksummed image (a snapshot part, a manifest):
/// each mutates everything before the trailing FNV-1a checksum, then
/// carries the checksum of what it made, so only the decoder can refuse
/// it.
pub(crate) fn resealed(image: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let payload = &image[..image.len() - 8];
    let mut out = mutants(payload, seed);
    for m in &mut out {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in m.iter() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        m.extend_from_slice(&h.to_le_bytes());
    }
    out
}
