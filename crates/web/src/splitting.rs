//! HTTP response splitting protection (§3.2, §5.4).
//!
//! In a splitting attack the adversary smuggles a header/body delimiter
//! into a response header, making browsers see two responses. The paper's
//! fix is a filter that rejects delimiter sequences *that came from user
//! input* — server-generated delimiters are legitimate.
//!
//! The delimiter is not just `CR-LF-CR-LF`: lenient HTTP parsers (and every
//! browser) also honor bare-LF and mixed line endings, so `\n\n`, `\r\n\n`,
//! and `\n\r\n` terminate a header block too. An earlier revision matched
//! only the strict `\r\n\r\n` form, which let an attacker slip an LF-only
//! delimiter straight past the guard; the scan now normalizes over every
//! combination of `\r\n` / `\n` line breaks.

use resin_core::{PolicyViolation, Reason, Result, TaintedString, UntrustedData};

/// The length of a blank-line delimiter starting at the head of `bytes`:
/// two consecutive line breaks, each either `\r\n` or a bare `\n`.
fn delimiter_len(bytes: &[u8]) -> Option<usize> {
    let line_break = |b: &[u8]| match b {
        [b'\r', b'\n', ..] => Some(2),
        [b'\n', ..] => Some(1),
        _ => None,
    };
    let first = line_break(bytes)?;
    let second = line_break(&bytes[first..])?;
    Some(first + second)
}

/// Rejects header values containing an untrusted header/body delimiter in
/// any line-ending convention (`\r\n\r\n`, `\n\n`, `\r\n\n`, `\n\r\n`).
///
/// A sequence counts as user-supplied when any of its bytes carries
/// [`UntrustedData`].
pub(crate) fn check_header_splitting(value: &TaintedString) -> Result<()> {
    let bytes = value.as_str().as_bytes();
    // Resolve the untrusted ranges once instead of per byte.
    let untrusted = value.ranges_with::<UntrustedData>();
    for start in 0..bytes.len() {
        let Some(len) = delimiter_len(&bytes[start..]) else {
            continue;
        };
        let at = start..start + len;
        if at.clone().any(|i| untrusted.iter().any(|r| r.contains(&i))) {
            return Err(PolicyViolation::at("HttpSplitGuard", Reason::HeaderDelimiter, at).into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn untrusted_delimiter_rejected() {
        let mut v = TaintedString::from("safe");
        v.push_tainted(&untrusted("\r\n\r\nHTTP/1.1 200 OK"));
        assert!(check_header_splitting(&v).is_err());
    }

    #[test]
    fn bare_lf_delimiter_rejected() {
        // The LF-only bypass: lenient parsers treat `\n\n` as end-of-headers.
        let mut v = TaintedString::from("safe");
        v.push_tainted(&untrusted("\n\nHTTP/1.1 200 OK"));
        assert!(check_header_splitting(&v).is_err());
    }

    #[test]
    fn mixed_delimiters_rejected() {
        for evil in ["\r\n\n<body>", "\n\r\n<body>"] {
            let mut v = TaintedString::from("safe");
            v.push_tainted(&untrusted(evil));
            assert!(
                check_header_splitting(&v).is_err(),
                "mixed delimiter {evil:?} must be caught"
            );
        }
    }

    #[test]
    fn trusted_delimiter_allowed() {
        // Server-generated delimiters are fine in every convention.
        for benign in ["a\r\n\r\nb", "a\n\nb", "a\r\n\nb", "a\n\r\nb"] {
            let v = TaintedString::from(benign);
            assert!(check_header_splitting(&v).is_ok(), "{benign:?}");
        }
    }

    #[test]
    fn partial_taint_still_rejected() {
        // Only the final LF is untrusted — still user-influenced.
        let mut v = TaintedString::from("x\r\n\r");
        v.push_tainted(&untrusted("\n"));
        assert!(check_header_splitting(&v).is_err());
    }

    #[test]
    fn single_line_break_is_fine() {
        // One untrusted line break folds a header; it does not end the
        // header block, and the guard only polices the block delimiter.
        let mut v = TaintedString::from("a");
        v.push_tainted(&untrusted("\nb"));
        assert!(check_header_splitting(&v).is_ok());
    }

    #[test]
    fn no_delimiter_is_fine() {
        let v = untrusted("evil but harmless");
        assert!(check_header_splitting(&v).is_ok());
    }

    #[test]
    fn second_occurrence_detected() {
        let mut v = TaintedString::from("a\r\n\r\nb");
        v.push_tainted(&untrusted("\n\n"));
        assert!(check_header_splitting(&v).is_err());
    }
}
