//! Linear-time `LIKE` matching.
//!
//! `%` matches any run of bytes (including none), `_` matches exactly one
//! **byte** (not one character), and every other pattern byte matches
//! itself ASCII-case-insensitively. There is no escape syntax.
//!
//! A pattern is compiled into its `%`-separated segments. The first
//! segment is pinned to the start of the text unless the pattern opens
//! with `%`, the last to the end unless it closes with `%`, and every
//! segment in between is found leftmost-first in what remains — taking the
//! leftmost match never hurts, because a segment has a fixed length and
//! everything after it only needs *more* room. So the only backtracking is
//! the restart of one segment's search, and a match costs at most
//! O(text × pattern) byte comparisons; the recursive matcher this
//! replaces was exponential in the number of `%`s, and `/search` hands
//! the pattern to the client.
//!
//! # Finding a segment
//!
//! A segment with a literal (non-`_`) byte is found through a *packed
//! pair* filter, after Muła's SIMD-friendly substring search: its first
//! and last literal bytes, at their fixed distance, are compared with the
//! text at a whole block of window positions at once, and only a position
//! where both compare equal is verified byte by byte. A search term's
//! first byte may be common in the text; the pair of its first and last
//! bytes, at that distance, rarely is. A segment with one literal byte is
//! a pair whose two ends are that byte. A segment of `_`s alone needs no
//! search: it fits at the first position or nowhere.
//!
//! On x86_64 a step is sixty-four positions: four blocks of sixteen in
//! SSE2 registers, each one unaligned load from the text, and one branch
//! on whether any of them holds the pair. The positions after the last
//! whole step go a block at a time, and the last block ends at the last
//! position, masked to the positions the block before it did not test.
//! SSE2 is part of the x86_64 baseline, so this is a property of the
//! target and not a switch. The SSE2 body is the only code in the crate
//! allowed `unsafe`: its call into the `#[target_feature]` code, compiled
//! only where the target has SSE2, and its load, whose bound every loop
//! condition proves. The portable body does eight positions at a time in
//! a `u64` (SWAR), and then one at a time; it is the whole search on other
//! targets and, on x86_64, the search of a text shorter than one block.
//! Either way each window position is verified at most once.

use std::ops::Range;

/// A `LIKE` pattern compiled once per statement execution.
pub(crate) struct LikePattern {
    /// The pattern, ASCII-lowercased.
    bytes: Vec<u8>,
    /// The non-empty runs between `%`s, as ranges into `bytes`, each with
    /// its pair (`None` for a run of `_`s alone).
    segs: Vec<(Range<usize>, Option<Pair>)>,
    /// The pattern does not open with `%`.
    anchored_start: bool,
    /// The pattern does not close with `%`.
    anchored_end: bool,
}

impl LikePattern {
    pub(crate) fn compile(pattern: &str) -> LikePattern {
        let bytes = pattern.as_bytes().to_ascii_lowercase();
        let mut segs = Vec::new();
        let mut start = 0;
        for (i, &b) in bytes.iter().chain(b"%").enumerate() {
            if b == b'%' {
                if start < i {
                    segs.push((start..i, Pair::of(&bytes[start..i])));
                }
                start = i + 1;
            }
        }
        LikePattern {
            anchored_start: !pattern.starts_with('%'),
            anchored_end: !pattern.ends_with('%'),
            bytes,
            segs,
        }
    }

    pub(crate) fn matches(&self, text: &str) -> bool {
        self.matches_with(text, find_pair)
    }

    /// [`matches`](LikePattern::matches), with `find` searching for each
    /// segment that no end pins: the tests pass each body of the filter.
    fn matches_with(&self, text: &str, find: impl Fn(&[u8], &[u8], Pair) -> Option<usize>) -> bool {
        let mut hay = text.as_bytes();
        let mut segs = self.segs.as_slice();
        if self.anchored_start {
            if let Some(((first, _), rest)) = segs.split_first() {
                let seg = &self.bytes[first.clone()];
                if hay.len() < seg.len() || !seg_matches(seg, hay) {
                    return false;
                }
                hay = &hay[seg.len()..];
                segs = rest;
            }
        }
        if self.anchored_end {
            // No segment left to pin means the pattern had no `%` at all
            // (or was empty): the text must be used up exactly.
            let Some(((last, _), rest)) = segs.split_last() else {
                return hay.is_empty();
            };
            let seg = &self.bytes[last.clone()];
            let Some(at) = hay.len().checked_sub(seg.len()) else {
                return false;
            };
            if !seg_matches(seg, &hay[at..]) {
                return false;
            }
            hay = &hay[..at];
            segs = rest;
        }
        for (r, pair) in segs {
            let seg = &self.bytes[r.clone()];
            let found = match *pair {
                Some(pair) => find(seg, hay, pair),
                // All `_`: the first window fits if any does.
                None => (hay.len() >= seg.len()).then_some(0),
            };
            let Some(at) = found else {
                return false;
            };
            hay = &hay[at + seg.len()..];
        }
        true
    }
}

// Work done on this thread, for the complexity regression tests: steps
// (byte comparisons, and block or word steps of a filter) and candidate
// windows verified are deterministic where wall time is not.
#[cfg(test)]
thread_local! {
    static STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static CANDIDATES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline(always)]
fn tick(_n: usize) {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + _n));
}

/// Whether `seg` (lowercased, non-empty of `%`) matches the front of `at`,
/// which is at least as long.
fn seg_matches(seg: &[u8], at: &[u8]) -> bool {
    tick(seg.len());
    #[cfg(test)]
    CANDIDATES.with(|c| c.set(c.get() + 1));
    seg.iter()
        .zip(at)
        .all(|(&p, &b)| p == b'_' || p == b.to_ascii_lowercase())
}

/// `0x20` for a lowercase letter, else 0: `b | fold(byte) == byte` holds
/// for exactly the bytes that equal `byte` ignoring ASCII case, as a
/// lowercase letter differs from its uppercase twin in bit 5 alone and
/// nothing else folds.
fn fold(byte: u8) -> u8 {
    if byte.is_ascii_lowercase() {
        0x20
    } else {
        0
    }
}

/// What a segment's window positions are filtered on: its first and last
/// literal (non-`_`) bytes, lowercased, at their offsets in the segment.
#[derive(Clone, Copy)]
struct Pair {
    at: [usize; 2],
    byte: [u8; 2],
    fold: [u8; 2],
}

impl Pair {
    /// The pair of a segment with a literal byte; with only one, both ends
    /// are that byte.
    fn of(seg: &[u8]) -> Option<Pair> {
        let first = seg.iter().position(|&b| b != b'_')?;
        let last = seg.iter().rposition(|&b| b != b'_')?;
        let at = [first, last];
        Some(Pair {
            at,
            byte: at.map(|i| seg[i]),
            fold: at.map(|i| fold(seg[i])),
        })
    }

    /// Whether the window at `at` holds both bytes.
    fn hits(self, hay: &[u8], at: usize) -> bool {
        (0..2).all(|i| hay[at + self.at[i]] | self.fold[i] == self.byte[i])
    }
}

/// The body of the pair filter this target runs: the leftmost offset in
/// `hay` at which `seg`, with its `pair`, matches.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
use find_pair_sse2 as find_pair;
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
use find_pair_swar as find_pair;

/// The pair filter sixty-four window positions a step, then sixteen: each
/// pair byte is compared with a block of sixteen text bytes at its offset,
/// and the positions where both compare equal are verified, leftmost
/// first. A text with fewer than sixteen window positions holds no block,
/// and goes to [`find_pair_swar`].
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[allow(unsafe_code)]
fn find_pair_sse2(seg: &[u8], hay: &[u8], pair: Pair) -> Option<usize> {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
        _mm_set1_epi8,
    };
    /// `end` is the number of window positions, at least sixteen.
    #[target_feature(enable = "sse2")]
    fn body(seg: &[u8], hay: &[u8], pair: Pair, end: usize) -> Option<usize> {
        let splat = |b: u8| _mm_set1_epi8(b as i8);
        let (want, fold) = (pair.byte.map(splat), pair.fold.map(splat));
        // The block of window positions `p..p + 16` reads the text from
        // `p + pair.at[i] <= p + seg.len() - 1`, sixteen bytes, so it
        // stays inside `hay` when `p + 16 <= end`: each loop below
        // checks that before it loads.
        let load = |at: usize| {
            debug_assert!(at + 16 <= hay.len(), "load at {at} of {} bytes", hay.len());
            // SAFETY: `at + 16 <= hay.len()`, by the argument above.
            unsafe { _mm_loadu_si128(hay.as_ptr().add(at).cast::<__m128i>()) }
        };
        let eq = |i: usize, p| _mm_cmpeq_epi8(_mm_or_si128(load(p + pair.at[i]), fold[i]), want[i]);
        // Byte `k` is all ones when the window at `p + k` holds both bytes.
        let block = |p: usize| _mm_and_si128(eq(0, p), eq(1, p));
        let bits = |b: __m128i| u64::from(_mm_movemask_epi8(b) as u16);
        // Verifies the window at `p + k` for each bit `k` of `hits`, in
        // position order.
        let verify = |p: usize, mut hits: u64| {
            while hits != 0 {
                let at = p + hits.trailing_zeros() as usize;
                if seg_matches(seg, &hay[at..]) {
                    return Some(at);
                }
                hits &= hits - 1;
            }
            None
        };
        let mut from = 0;
        while from + 64 <= end {
            tick(1);
            let b = [0, 16, 32, 48].map(|k| block(from + k));
            let any = _mm_or_si128(_mm_or_si128(b[0], b[1]), _mm_or_si128(b[2], b[3]));
            if _mm_movemask_epi8(any) != 0 {
                let hits = bits(b[0]) | bits(b[1]) << 16 | bits(b[2]) << 32 | bits(b[3]) << 48;
                if let Some(at) = verify(from, hits) {
                    return Some(at);
                }
            }
            from += 64;
        }
        // The last block ends at `end` and overlaps the one before it,
        // whose positions are masked off.
        while from < end {
            tick(1);
            let p = from.min(end - 16);
            if let Some(at) = verify(p, bits(block(p)) >> (from - p) << (from - p)) {
                return Some(at);
            }
            from = p + 16;
        }
        None
    }
    let end = (hay.len() + 1).checked_sub(seg.len())?;
    if end < 16 {
        return find_pair_swar(seg, hay, pair);
    }
    // SAFETY: `body` requires SSE2, and this call is compiled only for
    // targets that have it: see the `cfg` above.
    unsafe { body(seg, hay, pair, end) }
}

/// The pair filter eight window positions a step, in a `u64`, then one
/// position at a time. The whole search on targets without SSE2, and on
/// x86_64 that of a text shorter than one block.
fn find_pair_swar(seg: &[u8], hay: &[u8], pair: Pair) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let end = (hay.len() + 1).checked_sub(seg.len())?;
    let splat = |b: u8| LO * u64::from(b);
    let (want, fold) = (pair.byte.map(splat), pair.fold.map(splat));
    let word = |at: usize| u64::from_le_bytes(hay[at..at + 8].try_into().expect("8 bytes"));
    // As for the blocks of `find_pair_sse2`, both loads stay inside `hay`.
    let mut from = 0;
    while from + 8 <= end {
        tick(1);
        let ne = |i: usize| (word(from + pair.at[i]) | fold[i]) ^ want[i];
        // A byte of `x` is zero exactly where the window holds both bytes.
        let x = ne(0) | ne(1);
        // The top bit of each zero byte of `x` and of no other: adding
        // 0x7f to a byte's low seven bits carries into its top bit unless
        // they are all zero, and never out of the byte.
        let mut hits = !(((x & LOW7) + LOW7) | x) & !LOW7;
        while hits != 0 {
            let at = from + (hits.trailing_zeros() / 8) as usize;
            if seg_matches(seg, &hay[at..]) {
                return Some(at);
            }
            hits &= hits - 1;
        }
        from += 8;
    }
    tick(end - from);
    (from..end).find(|&at| pair.hits(hay, at) && seg_matches(seg, &hay[at..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::like_match_recursive;
    use crate::value::like_match;
    use proptest::prelude::*;

    #[test]
    fn anchors_and_wildcards() {
        for (text, pattern, want) in [
            ("", "", true),
            ("a", "", false),
            ("", "%", true),
            ("", "%%", true),
            ("", "_", false),
            ("abc", "abc", true),
            ("abcd", "abc", false),
            ("ab", "abc", false),
            ("abc", "a%c", true),
            ("ac", "a%c", true),
            ("a", "a%a", false),
            ("aba", "a%a", true),
            ("xaby", "%ab%", true),
            ("xAbY", "%aB%", true),
            ("xay", "%ab%", false),
            ("abab", "%ab", true),
            ("abab", "ab%ab", true),
            ("aab", "_ab", true),
            ("ab", "_ab", false),
            ("a_b", "a_b", true),
            ("a%b", "a%b", true),
            ("hello world", "h%o w%d", true),
            ("@", "`", false),
            ("x@b", "%@b%", true),
            ("x`B", "%@b%", false),
            ("xa`", "%a@%", false),
            ("[", "{", false),
            ("é", "__", true),
            ("é", "_", false),
        ] {
            assert_eq!(like_match(text, pattern), want, "{text:?} LIKE {pattern:?}");
            assert_eq!(
                like_match_recursive(text, pattern),
                want,
                "oracle: {text:?} LIKE {pattern:?}"
            );
        }
    }

    type Find = fn(&[u8], &[u8], Pair) -> Option<usize>;

    /// The body this target runs, and the portable body alone, as a
    /// target without SSE2 runs it.
    const BODIES: [(&str, Find); 2] = [("native", find_pair), ("portable", find_pair_swar)];

    /// `seg`'s leftmost offset in `hay` by `find`, and the candidate
    /// windows it verified on the way.
    fn find_counted(find: Find, seg: &[u8], hay: &[u8]) -> (Option<usize>, usize) {
        CANDIDATES.with(|c| c.set(0));
        let found = find(seg, hay, Pair::of(seg).expect("a literal byte"));
        (found, CANDIDATES.with(|c| c.get()))
    }

    #[test]
    fn pair_filter_finds_every_offset_in_either_case() {
        // Texts of up to 200 bytes reach past three 64-position steps, the
        // blocks after them and the last block, which overlaps the one
        // before it.
        for len in 1..=20 {
            // Literal ends, a `_` in every third place between them; one
            // literal byte at `len` 1.
            let seg: Vec<u8> = (0..len)
                .map(|i| match i {
                    0 => b'q',
                    _ if i == len - 1 => b'z',
                    _ if i % 3 == 1 => b'_',
                    _ => b'a' + i as u8,
                })
                .collect();
            for n in 0..=200 {
                for (body, find) in BODIES {
                    assert_eq!(
                        find_counted(find, &seg, &vec![b'x'; n]),
                        (None, 0),
                        "{body} {len} {n}"
                    );
                }
                for at in 0..(n + 1).saturating_sub(len) {
                    for case in [u8::to_ascii_lowercase, u8::to_ascii_uppercase] {
                        let mut hay = vec![b'x'; n];
                        for (h, &p) in hay[at..at + len].iter_mut().zip(&seg) {
                            *h = if p == b'_' { b'!' } else { case(&p) };
                        }
                        // The pair alone, without the literals between:
                        // the one window holding it is verified once,
                        // wherever it sits, in the last block's overlap too.
                        let mut decoy = vec![b'x'; n];
                        decoy[at] = hay[at];
                        decoy[at + len - 1] = hay[at + len - 1];
                        let only_ends = len <= 3;
                        for (body, find) in BODIES {
                            assert_eq!(
                                find_counted(find, &seg, &hay).0,
                                Some(at),
                                "{body} {len} {n} {at}"
                            );
                            let want = (only_ends.then_some(at), 1);
                            assert_eq!(
                                find_counted(find, &seg, &decoy),
                                want,
                                "{body} {len} {n} {at}"
                            );
                        }
                    }
                    // One literal that folds for no case: `\x10` is
                    // `'0' & !0x20`, and only letters fold.
                    if len == 1 {
                        let mut hay = vec![b'\x01'; n];
                        for (byte, want) in [(b'0', Some(at)), (b'\x10', None)] {
                            hay[at] = byte;
                            for (body, find) in BODIES {
                                let found = find_counted(find, b"0", &hay).0;
                                assert_eq!(found, want, "{body} {n} {at} {byte}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_leftmost_of_two_matches_is_found_wherever_they_sit() {
        // Two matches in one block, in two blocks of one step, in two
        // steps, and in the last block and the one before it.
        let n = 200;
        for a in 0..=n - 3 {
            for b in a + 3..=n - 3 {
                let mut hay = vec![b'x'; n];
                hay[a..a + 3].copy_from_slice(b"q1z");
                hay[b..b + 3].copy_from_slice(b"Q1Z");
                for (body, find) in BODIES {
                    assert_eq!(
                        find_counted(find, b"q1z", &hay).0,
                        Some(a),
                        "{body} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_term_absent_from_the_text_verifies_no_candidate() {
        // Lowercase words without digits, as the search workload's bodies.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut text: String = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 27 {
                    26 => ' ',
                    r => char::from(b'a' + r as u8),
                }
            })
            .collect();
        // Each `q` (158 of them) was a candidate when the skip went by the
        // first byte alone.
        let qs = text.bytes().filter(|&b| b == b'q').count();
        assert!(qs > 100, "{qs}");
        let pattern = LikePattern::compile("%q1z12345%");
        let candidates = |text: &str, find: Find| {
            CANDIDATES.with(|c| c.set(0));
            let found = pattern.matches_with(text, find);
            (found, CANDIDATES.with(|c| c.get()))
        };
        for (body, find) in BODIES {
            assert_eq!(candidates(&text, find), (false, 0), "{body}");
        }
        text.replace_range(2000..2008, "Q1Z12345");
        for (body, find) in BODIES {
            assert_eq!(candidates(&text, find), (true, 1), "{body}");
        }
    }

    #[test]
    fn many_percents_over_a_long_run_stay_within_a_step_budget() {
        // The recursive matcher needed ~n^k steps here (k `%`s): 7.5 s at
        // n = 200, k = 5. Budgets are the documented O(text x pattern).
        let text = "a".repeat(4096);
        let steps = |pattern: &str, find| {
            STEPS.with(|s| s.set(0));
            let found = LikePattern::compile(pattern).matches_with(&text, find);
            (found, STEPS.with(|s| s.get()))
        };
        for (body, find) in BODIES {
            for pattern in [
                "%a%a%a%a%a%a%a%a%b",
                "%a%a%a%a%a%a%a%a%b%",
                "%aaaaaaab%",
                "%_a_a_a_b%",
                "a%a%a%a%a%a%a%a%b",
            ] {
                let (found, steps) = steps(pattern, find);
                assert!(!found, "{body} {pattern}");
                assert!(
                    steps <= text.len() * pattern.len(),
                    "{body} {pattern}: {steps} steps"
                );
            }
            let (found, steps) = steps("%a%a%a%a%a%a%a%a%a", find);
            assert!(found && steps <= 64, "{body}: {steps} steps");
        }
    }

    proptest! {
        #[test]
        fn segment_matcher_agrees_with_the_recursive_one(
            pairs in prop::collection::vec(("[aAbB1_%é]{0,300}", "[aAbB1_%é]{0,20}"), 64..65),
            cuts in prop::collection::vec((0usize..300, 2usize..21), 64..65),
        ) {
            for ((text, drawn), &(at, len)) in pairs.iter().zip(&cuts) {
                // A drawn segment of many bytes rarely occurs in the text; one
                // cut from it, in the other case, usually does.
                let cut = text.get(at..text.len().min(at + len));
                let cut = cut.map(|c| format!("%{}%", c.to_ascii_uppercase()));
                for pattern in std::iter::once(drawn).chain(&cut) {
                    let want = like_match_recursive(text, pattern);
                    let compiled = LikePattern::compile(pattern);
                    for (body, find) in BODIES {
                        prop_assert!(
                            compiled.matches_with(text, find) == want,
                            "{body}: {text:?} LIKE {pattern:?}"
                        );
                    }
                    prop_assert!(like_match(text, pattern) == want, "{text:?} LIKE {pattern:?}");
                }
            }
        }
    }
}
