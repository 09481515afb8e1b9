//! SQL tokens and the lexer.
//!
//! Tokens record their byte range in the source query so the RESIN SQL
//! filter can check the *taint of the query's structure* (the
//! SQL-injection assertion, §5.3) and extract per-literal policies for the
//! policy text each written value is stored with (§3.4.1).
//!
//! The lexer has two modes:
//!
//! * **strict** — standard SQL lexing; `''` escapes a quote in a literal.
//! * **tolerant** — the §5.3 "variation on the second strategy": a quote
//!   character that carries `UntrustedData` does *not* terminate a string
//!   literal; contiguous untrusted bytes stay inside one token, so
//!   untrusted data cannot affect the command structure of the query.

use std::ops::Range;

use resin_core::{TaintedString, UntrustedData};

use crate::error::{Result, SqlError};

/// The kind and payload of a token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// A reserved keyword, uppercased.
    Kw(String),
    /// An identifier (table/column name), case preserved.
    Ident(String),
    /// An integer literal (text preserved for span math).
    Num(i64),
    /// A string literal; payload is the *decoded* content.
    Str(String),
    /// Single-character punctuation: `( ) , ; * .`
    Punct(char),
    /// An operator: `= != <> < > <= >= + -`
    Op(&'static str),
    /// A `?` bind-parameter placeholder; payload is its 0-based ordinal in
    /// text order. A placeholder is query *structure* (its value arrives
    /// out-of-band at execution time), so a tainted `?` smuggled in
    /// through data trips the structure-taint guard like any keyword.
    Param(usize),
}

/// A token plus its byte range in the query text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token value.
    pub tok: Tok,
    /// Byte range in the source query covering the whole token (for string
    /// literals this includes the quotes).
    pub span: Range<usize>,
}

impl Token {
    /// True for tokens that are query *structure* (keywords, identifiers,
    /// operators, punctuation) as opposed to data (literals).
    pub(crate) fn is_structure(&self) -> bool {
        !matches!(self.tok, Tok::Num(_) | Tok::Str(_))
    }
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO", "VALUES", "CREATE", "TABLE",
    "UPDATE", "SET", "DELETE", "DROP", "ORDER", "BY", "LIMIT", "ASC", "DESC", "LIKE", "NULL", "IS",
    "INTEGER", "TEXT", "IF", "EXISTS", "COUNT", "IN", "PRIMARY", "KEY", "INDEX", "ON", "USING",
    "HASH", "BTREE",
];

/// Lexes a plain query in strict mode.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    lex_inner(src, None)
}

/// Lexes a tainted query.
///
/// With `tolerant` set, quote characters carrying `UntrustedData` are
/// treated as literal content rather than delimiters.
pub(crate) fn lex_tainted(query: &TaintedString, tolerant: bool) -> Result<Vec<Token>> {
    if tolerant {
        lex_inner(query.as_str(), Some(query))
    } else {
        lex_inner(query.as_str(), None)
    }
}

fn lex_inner(src: &str, taint: Option<&TaintedString>) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    // Resolve the untrusted ranges once (tolerant mode only) instead of a
    // label-table hit per quote position.
    let untrusted: Vec<std::ops::Range<usize>> = taint
        .map(|q| q.ranges_with::<UntrustedData>())
        .unwrap_or_default();
    let is_untrusted_at = |pos: usize| untrusted.iter().any(|r| r.contains(&pos));
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut next_param = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '(' | ')' | ',' | ';' | '*' | '.' => {
                out.push(Token {
                    tok: Tok::Punct(c),
                    span: i..i + 1,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    tok: Tok::Op("="),
                    span: i..i + 1,
                });
                i += 1;
            }
            '?' => {
                out.push(Token {
                    tok: Tok::Param(next_param),
                    span: i..i + 1,
                });
                next_param += 1;
                i += 1;
            }
            '+' => {
                out.push(Token {
                    tok: Tok::Op("+"),
                    span: i..i + 1,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::Op("!="),
                        span: i..i + 2,
                    });
                    i += 2;
                } else {
                    return Err(SqlError::Lex {
                        pos: i,
                        message: "expected `=` after `!`".into(),
                    });
                }
            }
            '<' => {
                let (tok, n) = match bytes.get(i + 1) {
                    Some(b'=') => (Tok::Op("<="), 2),
                    Some(b'>') => (Tok::Op("!="), 2),
                    _ => (Tok::Op("<"), 1),
                };
                out.push(Token {
                    tok,
                    span: i..i + n,
                });
                i += n;
            }
            '>' => {
                let (tok, n) = match bytes.get(i + 1) {
                    Some(b'=') => (Tok::Op(">="), 2),
                    _ => (Tok::Op(">"), 1),
                };
                out.push(Token {
                    tok,
                    span: i..i + n,
                });
                i += n;
            }
            '\'' => {
                let start = i;
                let mut content = String::new();
                let end = unquote(src, start, is_untrusted_at, |r| content.push_str(&src[r]))
                    .ok_or_else(|| SqlError::Lex {
                        pos: start,
                        message: "unterminated string literal".into(),
                    })?;
                out.push(Token {
                    tok: Tok::Str(content),
                    span: start..end,
                });
                i = end;
            }
            '-' => {
                // Negative number literal or minus operator.
                if bytes
                    .get(i + 1)
                    .map(|b| b.is_ascii_digit())
                    .unwrap_or(false)
                {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: i64 = src[start..i].parse().map_err(|_| SqlError::Lex {
                        pos: start,
                        message: "integer out of range".into(),
                    })?;
                    out.push(Token {
                        tok: Tok::Num(n),
                        span: start..i,
                    });
                } else {
                    out.push(Token {
                        tok: Tok::Op("-"),
                        span: i..i + 1,
                    });
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|_| SqlError::Lex {
                    pos: start,
                    message: "integer out of range".into(),
                })?;
                out.push(Token {
                    tok: Tok::Num(n),
                    span: start..i,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                let upper = word.to_ascii_uppercase();
                let tok = if KEYWORDS.contains(&upper.as_str()) {
                    Tok::Kw(upper)
                } else {
                    Tok::Ident(word.to_string())
                };
                out.push(Token {
                    tok,
                    span: start..i,
                });
            }
            other => {
                return Err(SqlError::Lex {
                    pos: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(out)
}

/// The one unquote of string literals: hands `piece` the source ranges
/// whose bytes, joined, are the content of the literal opening at
/// `src[open]`, and returns the offset past its closing quote. A `''` is
/// one quote, handed out as the range of its first byte, as is a quote
/// `lone` accepts (an untrusted one, in tolerant mode). Cuts fall at ASCII
/// quotes only, so every range is whole UTF-8.
pub(crate) fn unquote(
    src: &str,
    open: usize,
    lone: impl Fn(usize) -> bool,
    mut piece: impl FnMut(Range<usize>),
) -> Option<usize> {
    let bytes = src.as_bytes();
    let (mut from, mut start) = (open + 1, open + 1);
    loop {
        let q = from + bytes.get(from..)?.iter().position(|&b| b == b'\'')?;
        if lone(q) {
            from = q + 1;
            continue;
        }
        if start < q {
            piece(start..q);
        }
        if bytes.get(q + 1) != Some(&b'\'') {
            return Some(q + 1);
        }
        piece(q..q + 1);
        from = q + 2;
        start = from;
    }
}

/// The one quote of string literals: appends `src[range]` as `'…'`, each
/// quote doubled, both bytes of the pair under the quote's label (an
/// untainted escape would launder an attacker's quote through storage).
pub(crate) fn push_quoted(out: &mut TaintedString, src: &TaintedString, range: Range<usize>) {
    out.push('\'');
    let mut start = range.start;
    for (i, &b) in src.as_str().as_bytes()[range.clone()].iter().enumerate() {
        if b == b'\'' {
            let q = range.start + i;
            out.push_range(src, start..q);
            out.push_label("''", src.label_at(q));
            start = q + 1;
        }
    }
    out.push_range(src, start..range.end);
    out.push('\'');
}

/// Re-emits a tolerantly-lexed tainted query as a *sanitized* tainted query:
/// string-literal content is re-escaped (quotes doubled), so untrusted
/// quotes can no longer change the query structure. Taint is preserved
/// byte-for-byte for the copied content.
pub(crate) fn sanitize_query(query: &TaintedString, tokens: &[Token]) -> TaintedString {
    let mut out = TaintedString::with_capacity(query.len() + tokens.len());
    for (idx, t) in tokens.iter().enumerate() {
        if idx > 0 {
            out.push(' ');
        }
        match &t.tok {
            // The literal's interior, between its delimiters, quoted anew.
            Tok::Str(_) => push_quoted(&mut out, query, t.span.start + 1..t.span.end - 1),
            _ => out.push_range(query, t.span.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::TaintedString;
    use std::sync::Arc;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_basic_select() {
        assert_eq!(
            toks("SELECT a, b FROM t WHERE a = 'x'"),
            vec![
                Tok::Kw("SELECT".into()),
                Tok::Ident("a".into()),
                Tok::Punct(','),
                Tok::Ident("b".into()),
                Tok::Kw("FROM".into()),
                Tok::Ident("t".into()),
                Tok::Kw("WHERE".into()),
                Tok::Ident("a".into()),
                Tok::Op("="),
                Tok::Str("x".into()),
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(toks("select"), vec![Tok::Kw("SELECT".into())]);
        assert_eq!(toks("SeLeCt"), vec![Tok::Kw("SELECT".into())]);
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(toks("42 -7"), vec![Tok::Num(42), Tok::Num(-7)]);
        assert_eq!(
            toks("a - 7"),
            vec![Tok::Ident("a".into()), Tok::Op("-"), Tok::Num(7)]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= >= != <> < > ="),
            vec![
                Tok::Op("<="),
                Tok::Op(">="),
                Tok::Op("!="),
                Tok::Op("!="),
                Tok::Op("<"),
                Tok::Op(">"),
                Tok::Op("=")
            ]
        );
    }

    #[test]
    fn escaped_quotes() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn a_literal_keeps_its_utf8() {
        // A literal's value is its source bytes: `é` is two bytes, one `char`.
        assert_eq!(toks("'café'"), vec![Tok::Str("café".into())]);
        assert_eq!(toks("'l''été'"), vec![Tok::Str("l'été".into())]);
        assert_eq!(lex("'€' x").unwrap()[0].span, 0..5);
        let mut pieces = Vec::new();
        let end = unquote("'l''été'", 0, |_| false, |r| pieces.push(r));
        assert_eq!(end, Some(10));
        assert_eq!(
            pieces,
            [1..2, 2..3, 4..9],
            "an escape pair is its first quote"
        );
        assert_eq!(unquote("'never closed", 0, |_| false, |_| {}), None);
    }

    #[test]
    fn spans_cover_source() {
        let ts = lex("SELECT 'ab'").unwrap();
        assert_eq!(ts[0].span, 0..6);
        assert_eq!(ts[1].span, 7..11, "includes quotes");
        assert!(ts[0].is_structure());
        assert!(!ts[1].is_structure());
    }

    #[test]
    fn lex_errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("a @ b").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn params_get_text_order_ordinals() {
        assert_eq!(
            toks("a = ? AND b = ?"),
            vec![
                Tok::Ident("a".into()),
                Tok::Op("="),
                Tok::Param(0),
                Tok::Kw("AND".into()),
                Tok::Ident("b".into()),
                Tok::Op("="),
                Tok::Param(1),
            ]
        );
        let ts = lex("? ?").unwrap();
        assert!(ts[0].is_structure(), "placeholders are structure");
        assert_eq!(ts[1].span, 2..3);
    }

    #[test]
    fn tolerant_mode_keeps_untrusted_quote_inside_literal() {
        // Build: SELECT * FROM t WHERE name = '<input>' with a hostile input.
        let mut q = TaintedString::from("SELECT * FROM t WHERE name = '");
        let evil =
            TaintedString::with_policy("x' OR '1'='1", Arc::new(resin_core::UntrustedData::new()));
        q.push_tainted(&evil);
        q.push_str("'");

        // Strict lexing sees the injected quote as a delimiter: the query
        // "works" for the attacker (5 extra structure tokens).
        let strict = lex_tainted(&q, false).unwrap();
        assert!(strict.len() > 8);

        // Tolerant lexing keeps the whole input in one literal.
        let tolerant = lex_tainted(&q, true).unwrap();
        let strs: Vec<&Tok> = tolerant
            .iter()
            .map(|t| &t.tok)
            .filter(|t| matches!(t, Tok::Str(_)))
            .collect();
        assert_eq!(strs, vec![&Tok::Str("x' OR '1'='1".into())]);
    }

    #[test]
    fn sanitize_roundtrip() {
        let mut q = TaintedString::from("SELECT * FROM t WHERE name = '");
        let evil =
            TaintedString::with_policy("x' OR '1'='1", Arc::new(resin_core::UntrustedData::new()));
        q.push_tainted(&evil);
        q.push_str("'");
        let tokens = lex_tainted(&q, true).unwrap();
        let clean = sanitize_query(&q, &tokens);
        // The sanitized query escapes the hostile quotes...
        assert!(clean.as_str().contains("x'' OR ''1''=''1"));
        // ...and still carries the taint on the copied content.
        assert!(clean.has_policy::<resin_core::UntrustedData>());
        // Strict lexing of the sanitized query yields one literal again.
        let relexed = lex(clean.as_str()).unwrap();
        let strs: Vec<&Tok> = relexed
            .iter()
            .map(|t| &t.tok)
            .filter(|t| matches!(t, Tok::Str(_)))
            .collect();
        assert_eq!(strs, vec![&Tok::Str("x' OR '1'='1".into())]);
    }
}
