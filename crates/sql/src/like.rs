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
            match find_seg(seg, hay) {
                Some(at) => hay = &hay[at + seg.len()..],
                None => return false,
            }
        }
        true
    }
}

// Byte comparisons made on this thread, for the complexity regression
// test: a budget in steps is deterministic where wall time is not.
#[cfg(test)]
thread_local!(static STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

#[inline(always)]
fn tick(_n: usize) {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + _n));
}

/// Whether `seg` (lowercased, non-empty of `%`) matches the front of `at`,
/// which is at least as long.
fn seg_matches(seg: &[u8], at: &[u8]) -> bool {
    tick(seg.len());
    seg.iter()
        .zip(at)
        .all(|(&p, &b)| p == b'_' || p == b.to_ascii_lowercase())
}

/// Leftmost offset in `hay` at which the non-empty `seg` matches.
fn find_seg(seg: &[u8], hay: &[u8]) -> Option<usize> {
    let last = hay.len().checked_sub(seg.len())?;
    let first = seg[0];
    if first == b'_' {
        return (0..=last).find(|&i| seg_matches(seg, &hay[i..]));
    }
    // `b | fold == first` holds for exactly the bytes that equal `first`
    // ignoring ASCII case: a lowercase letter differs from its uppercase
    // twin in bit 5 alone, and nothing else folds.
    let fold = if first.is_ascii_lowercase() { 0x20 } else { 0 };
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

/// Offset of the first `b` in `hay` with `b | fold == byte`, eight bytes
/// to a step: this skip loop is what a `%word%` scan spends its time in.
fn find_byte(hay: &[u8], byte: u8, fold: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
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

    #[test]
    fn many_percents_over_a_long_run_stay_within_a_step_budget() {
        // The recursive matcher needed ~n^k steps here (k `%`s): 7.5 s at
        // n = 200, k = 5. Budgets are the documented O(text x pattern).
        let text = "a".repeat(4096);
        for pattern in [
            "%a%a%a%a%a%a%a%a%b",
            "%a%a%a%a%a%a%a%a%b%",
            "%aaaaaaab%",
            "%_a_a_a_b%",
            "a%a%a%a%a%a%a%a%b",
        ] {
            STEPS.with(|s| s.set(0));
            assert!(!like_match(&text, pattern), "{pattern}");
            let steps = STEPS.with(|s| s.get());
            assert!(
                steps <= text.len() * pattern.len(),
                "{pattern}: {steps} steps"
            );
        }
        STEPS.with(|s| s.set(0));
        assert!(like_match(&text, "%a%a%a%a%a%a%a%a%a"));
        assert!(STEPS.with(|s| s.get()) <= 64);
    }

    proptest! {
        #[test]
        fn segment_matcher_agrees_with_the_recursive_one(
            pairs in prop::collection::vec(("[aAb%_]{0,12}", "[aAb%_]{0,12}"), 64..65),
        ) {
            for (text, pattern) in &pairs {
                prop_assert!(
                    like_match(text, pattern) == like_match_recursive(text, pattern),
                    "{text:?} LIKE {pattern:?}"
                );
            }
        }
    }
}
