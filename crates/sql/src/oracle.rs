//! The specifications the engine's fast paths are held to, compiled into
//! test builds only.

/// The recursive backtracker `like_match` used to be, kept as the
/// oracle: it *is* the specification, one byte at a time, with the
/// answer for `t[i..]` LIKE `p[j..]` memoized in one flat table.
pub(crate) fn like_match_recursive(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8], i: usize, j: usize, memo: &mut [Option<bool>]) -> bool {
        let at = i * (p.len() + 1) + j;
        if let Some(known) = memo[at] {
            return known;
        }
        let matched = match (p.get(j), t.get(i)) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some(b'%'), _) => {
                rec(t, p, i, j + 1, memo) || (i < t.len() && rec(t, p, i + 1, j, memo))
            }
            (Some(b'_'), Some(_)) => rec(t, p, i + 1, j + 1, memo),
            (Some(pc), Some(tc)) if pc.eq_ignore_ascii_case(tc) => rec(t, p, i + 1, j + 1, memo),
            _ => false,
        };
        memo[at] = Some(matched);
        matched
    }
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    rec(t, p, 0, 0, &mut vec![None; (t.len() + 1) * (p.len() + 1)])
}
