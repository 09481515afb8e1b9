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
//! A segment with two literal (non-`_`) bytes or more is found through a
//! *packed pair* filter, after Muła's SIMD-friendly substring search: its
//! first and last literal bytes, at their fixed distance, are compared
//! with the text at a whole block of window positions at once, and only a
//! position where both compare equal is verified byte by byte. A search
//! term's first byte may be common in the text; the pair of its first and
//! last bytes, at that distance, rarely is.
//!
//! On x86_64 a block is sixteen positions in SSE2 registers. SSE2 is part
//! of the x86_64 baseline, so this is a property of the target and not a
//! switch: the one `unsafe` call into the SSE2 body is compiled only where
//! the target has it. The portable body does the same eight positions at a
//! time in a `u64` (SWAR), and then one at a time; it is the whole search
//! on other targets and, on x86_64, the positions after the last whole
//! block. A segment with fewer literal bytes skips from one occurrence of
//! its first byte to the next, eight bytes a step, or walks. Either way
//! each window position is verified at most once.

use std::ops::Range;

/// A `LIKE` pattern compiled once per statement execution.
pub(crate) struct LikePattern {
    /// The pattern, ASCII-lowercased.
    bytes: Vec<u8>,
    /// The non-empty runs between `%`s, as ranges into `bytes`.
    segs: Vec<Range<usize>>,
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
                    segs.push(start..i);
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
        self.matches_with(text, find_seg)
    }

    /// [`matches`](LikePattern::matches), with `find` searching for each
    /// segment that no end pins: the tests pass each body of the filter.
    fn matches_with(&self, text: &str, find: impl Fn(&[u8], &[u8]) -> Option<usize>) -> bool {
        let mut hay = text.as_bytes();
        let mut segs = self.segs.as_slice();
        if self.anchored_start {
            if let Some((first, rest)) = segs.split_first() {
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
            let Some((last, rest)) = segs.split_last() else {
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
        for r in segs {
            let seg = &self.bytes[r.clone()];
            match find(seg, hay) {
                Some(at) => hay = &hay[at + seg.len()..],
                None => return false,
            }
        }
        true
    }
}

// Work done on this thread, for the complexity regression tests: steps
// (byte comparisons, and word or block steps of a skip loop) and candidate
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
    /// The pair of a segment with two literal bytes or more.
    fn of(seg: &[u8]) -> Option<Pair> {
        let first = seg.iter().position(|&b| b != b'_')?;
        let last = seg.iter().rposition(|&b| b != b'_')?;
        (first < last).then(|| Pair {
            at: [first, last],
            byte: [seg[first], seg[last]],
            fold: [fold(seg[first]), fold(seg[last])],
        })
    }

    /// Whether the window at `at` holds both bytes.
    fn hits(self, hay: &[u8], at: usize) -> bool {
        (0..2).all(|i| hay[at + self.at[i]] | self.fold[i] == self.byte[i])
    }
}

/// Leftmost offset in `hay` at which the non-empty `seg` matches.
fn find_seg(seg: &[u8], hay: &[u8]) -> Option<usize> {
    if hay.len() < seg.len() {
        return None;
    }
    let Some(pair) = Pair::of(seg) else {
        return find_one(seg, hay);
    };
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    // SAFETY: `find_pair_sse2` requires SSE2, and this call is compiled
    // only for targets that have it: see the `cfg` above.
    let found = unsafe { find_pair_sse2(seg, hay, pair) };
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    let found = find_pair_swar(seg, hay, pair, 0);
    found
}

/// [`find_seg`] for a segment with at most one literal byte: a skip to
/// each occurrence of its first byte, or a walk if that is a `_`.
fn find_one(seg: &[u8], hay: &[u8]) -> Option<usize> {
    let last = hay.len() - seg.len();
    let first = seg[0];
    if first == b'_' {
        return (0..=last).find(|&i| seg_matches(seg, &hay[i..]));
    }
    let fold = fold(first);
    let mut from = 0;
    while from <= last {
        let at = from + find_byte(&hay[from..=last], first, fold)?;
        if seg_matches(&seg[1..], &hay[at + 1..]) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The pair filter sixteen window positions a step: each pair byte is
/// compared with a block of sixteen text bytes at its offset, and only a
/// position where both compare equal is verified. The positions after the
/// last whole block go to [`find_pair_swar`]. `hay` is at least as long
/// as `seg`.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
fn find_pair_sse2(seg: &[u8], hay: &[u8], pair: Pair) -> Option<usize> {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        _mm_set_epi64x,
    };
    let end = hay.len() - seg.len() + 1;
    let splat = |b: u8| _mm_set1_epi8(b as i8);
    let (want, fold) = (pair.byte.map(splat), pair.fold.map(splat));
    let half = |at: usize| i64::from_le_bytes(hay[at..at + 8].try_into().expect("8 bytes"));
    let block = |at: usize| -> __m128i { _mm_set_epi64x(half(at + 8), half(at)) };
    let mut from = 0;
    // A block's last window ends at `from + 15 + seg.len() <= hay.len()`,
    // so both loads stay inside `hay`.
    while from + 16 <= end {
        tick(1);
        let eq =
            |i: usize| _mm_cmpeq_epi8(_mm_or_si128(block(from + pair.at[i]), fold[i]), want[i]);
        // Bit `k` is set when the window at `from + k` holds both bytes.
        let mut hits = _mm_movemask_epi8(_mm_and_si128(eq(0), eq(1))) as u32;
        while hits != 0 {
            let at = from + hits.trailing_zeros() as usize;
            if seg_matches(seg, &hay[at..]) {
                return Some(at);
            }
            hits &= hits - 1;
        }
        from += 16;
    }
    find_pair_swar(seg, hay, pair, from)
}

/// One in each byte of a word.
const LO: u64 = 0x0101_0101_0101_0101;

/// The pair filter eight window positions a step, in a `u64`, from `from`
/// on, then one position at a time. The whole search on targets without
/// SSE2, and the tail of it on x86_64. `hay` is at least as long as `seg`.
fn find_pair_swar(seg: &[u8], hay: &[u8], pair: Pair, mut from: usize) -> Option<usize> {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let end = hay.len() - seg.len() + 1;
    let splat = |b: u8| LO * u64::from(b);
    let (want, fold) = (pair.byte.map(splat), pair.fold.map(splat));
    let word = |at: usize| u64::from_le_bytes(hay[at..at + 8].try_into().expect("8 bytes"));
    // As for the blocks of `find_pair_sse2`, both loads stay inside `hay`.
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

/// Offset of the first `b` in `hay` with `b | fold == byte`, eight bytes
/// to a step.
fn find_byte(hay: &[u8], byte: u8, fold: u8) -> Option<usize> {
    const HI: u64 = 0x8080_8080_8080_8080;
    let (want, fold8) = (LO * u64::from(byte), LO * u64::from(fold));
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for w in &mut words {
        tick(1);
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        // A byte of `x` is zero exactly where the text byte matches; the
        // lowest flagged byte of `zero` is always a true zero (borrows
        // only travel upwards).
        let x = (w | fold8) ^ want;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(base + (zero.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder();
    tick(tail.len());
    tail.iter()
        .position(|&b| b | fold == byte)
        .map(|i| base + i)
}

/// The recursive backtracker `like_match` used to be, kept as the
/// oracle: it *is* the specification, one byte at a time.
#[cfg(test)]
pub(crate) fn like_match_recursive(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some(b'%'), _) => rec(t, &p[1..]) || (!t.is_empty() && rec(&t[1..], p)),
            (Some(b'_'), Some(_)) => rec(&t[1..], &p[1..]),
            (Some(pc), Some(tc)) if pc.eq_ignore_ascii_case(tc) => rec(&t[1..], &p[1..]),
            _ => false,
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn skip_loop_finds_every_offset_in_either_case() {
        for len in 0..40 {
            for at in 0..len {
                for hit in [b'q', b'Q'] {
                    let mut hay = vec![b'x'; len];
                    hay[at] = hit;
                    assert_eq!(find_byte(&hay, b'q', 0x20), Some(at), "{len} {at}");
                }
                let mut hay = vec![b'\x01'; len];
                hay[at] = b'0';
                assert_eq!(find_byte(&hay, b'0', 0), Some(at), "{len} {at}");
                hay[at] = b'\x10'; // `'0' & !0x20`: folds only for letters
                assert_eq!(find_byte(&hay, b'0', 0), None, "{len} {at}");
            }
        }
    }

    /// [`find_seg`] with the portable body alone, as a target without
    /// SSE2 runs it; on x86_64 `find_seg` runs it only as the tail.
    fn find_seg_portable(seg: &[u8], hay: &[u8]) -> Option<usize> {
        if hay.len() < seg.len() {
            return None;
        }
        match Pair::of(seg) {
            Some(pair) => find_pair_swar(seg, hay, pair, 0),
            None => find_one(seg, hay),
        }
    }

    type Find = fn(&[u8], &[u8]) -> Option<usize>;

    /// `find_seg` as this target runs it, and the portable body alone.
    const BODIES: [(&str, Find); 2] = [("native", find_seg), ("portable", find_seg_portable)];

    #[test]
    fn pair_filter_finds_every_offset_in_either_case() {
        for len in 2..=20 {
            // Literal ends, a `_` in every third place between them.
            let seg: Vec<u8> = (0..len)
                .map(|i| match i {
                    0 => b'q',
                    _ if i == len - 1 => b'z',
                    _ if i % 3 == 1 => b'_',
                    _ => b'a' + i as u8,
                })
                .collect();
            for n in 0..=48 {
                for (body, find) in BODIES {
                    assert_eq!(find(&seg, &vec![b'x'; n]), None, "{body} {len} {n}");
                }
                for at in 0..(n + 1).saturating_sub(len) {
                    for case in [u8::to_ascii_lowercase, u8::to_ascii_uppercase] {
                        let mut hay = vec![b'x'; n];
                        for (h, &p) in hay[at..at + len].iter_mut().zip(&seg) {
                            *h = if p == b'_' { b'!' } else { case(&p) };
                        }
                        // The pair alone, without the literals between.
                        let mut decoy = vec![b'x'; n];
                        decoy[at] = hay[at];
                        decoy[at + len - 1] = hay[at + len - 1];
                        let only_ends = len <= 3;
                        for (body, find) in BODIES {
                            assert_eq!(find(&seg, &hay), Some(at), "{body} {len} {n} {at}");
                            let want = only_ends.then_some(at);
                            assert_eq!(find(&seg, &decoy), want, "{body} {len} {n} {at}");
                        }
                    }
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
            pairs in prop::collection::vec(("[aAbB1_%é]{0,80}", "[aAbB1_%é]{0,20}"), 64..65),
            cuts in prop::collection::vec((0usize..80, 2usize..21), 64..65),
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
