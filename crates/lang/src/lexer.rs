//! The RSL lexer.
//!
//! RSL ("Resin Scripting Language") is the small dynamic language whose
//! interpreter carries RESIN's data tracking — the stand-in for the
//! paper's modified PHP runtime (§4).

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// String literal (decoded).
    Str(String),
    /// Keyword.
    Kw(&'static str),
    /// Operator or punctuation.
    Op(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Kw(k) => write!(f, "{k}"),
            Tok::Op(o) => write!(f, "{o}"),
        }
    }
}

/// A token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column of the token's first character.
    pub col: u32,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error on line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

const KEYWORDS: &[&str] = &[
    "let", "fn", "if", "else", "while", "return", "class", "new", "this", "true", "false", "null",
    "throw", "and", "or", "not",
];

/// Tokenizes RSL source.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    // Byte index where the current line starts; a token's column is its
    // byte offset from there, 1-based.
    let mut line_start = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let col = (i - line_start + 1) as u32;
        match c {
            '\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '"' => {
                let (start_line, start_col) = (line, col);
                i += 1;
                let mut s = String::new();
                // Literal bytes are copied a run at a time, as UTF-8; an
                // escape or the closing quote ends a run, and both are
                // ASCII, so a run ends on a character boundary.
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LexError {
                                line: start_line,
                                col: start_col,
                                message: "unterminated string".into(),
                            });
                        }
                        Some(b'"') => {
                            s.push_str(&src[run..i]);
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            s.push_str(&src[run..i]);
                            let esc = bytes.get(i + 1).copied().ok_or(LexError {
                                line,
                                col: (i - line_start + 1) as u32,
                                message: "trailing backslash".into(),
                            })?;
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'"' => '"',
                                b'\\' => '\\',
                                _ => {
                                    return Err(LexError {
                                        line,
                                        col: (i - line_start + 1) as u32,
                                        message: format!("bad escape `\\{}`", char_at(src, i + 1)),
                                    });
                                }
                            });
                            i += 2;
                            run = i;
                        }
                        Some(&b) => {
                            if b == b'\n' {
                                line += 1;
                                line_start = i + 1;
                            }
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line: start_line,
                    col: start_col,
                });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|_| LexError {
                    line,
                    col,
                    message: "integer out of range".into(),
                })?;
                out.push(Token {
                    tok: Tok::Int(n),
                    line,
                    col,
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
                let tok = match KEYWORDS.iter().find(|k| **k == word) {
                    Some(k) => Tok::Kw(k),
                    None => Tok::Ident(word.to_string()),
                };
                out.push(Token { tok, line, col });
            }
            _ => {
                // Operators, longest first.
                const OPS: &[&str] = &[
                    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=",
                    "!", "(", ")", "{", "}", "[", "]", ",", ";", ".", ":",
                ];
                let rest = &src[i..];
                let mut matched = None;
                for op in OPS {
                    if rest.starts_with(op) {
                        matched = Some(*op);
                        break;
                    }
                }
                match matched {
                    Some(op) => {
                        out.push(Token {
                            tok: Tok::Op(op),
                            line,
                            col,
                        });
                        i += op.len();
                    }
                    None => {
                        return Err(LexError {
                            line,
                            col,
                            message: format!("unexpected character `{}`", char_at(src, i)),
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// The character that starts at byte `i` of `src`.
fn char_at(src: &str, i: usize) -> char {
    src[i..].chars().next().expect("a character starts here")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("let x = 42;"),
            vec![
                Tok::Kw("let"),
                Tok::Ident("x".into()),
                Tok::Op("="),
                Tok::Int(42),
                Tok::Op(";")
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks(r#""a\nb\"c\\d""#), vec![Tok::Str("a\nb\"c\\d".into())]);
    }

    #[test]
    fn non_ascii_literals_are_utf8() {
        // Two bytes, not the four a Latin-1 reading of them makes.
        assert_eq!(toks(r#""é""#), vec![Tok::Str("é".into())]);
        // Runs on either side of escapes, and a line break inside.
        assert_eq!(
            toks("\"José\\t\\\"ü\\\"\nñ\" x"),
            vec![Tok::Str("José\t\"ü\"\nñ".into()), Tok::Ident("x".into())]
        );
    }

    #[test]
    fn an_unexpected_character_is_named_as_written() {
        let e = lex("let x = é;").unwrap_err();
        assert_eq!(e.message, "unexpected character `é`");
        let e = lex(r#""\é""#).unwrap_err();
        assert_eq!(e.message, "bad escape `\\é`");
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("1 # comment\n2"), vec![Tok::Int(1), Tok::Int(2)]);
    }

    #[test]
    fn line_numbers_tracked() {
        let ts = lex("a\nb\nc").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 3);
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            toks("== != <= >= && ||"),
            vec![
                Tok::Op("=="),
                Tok::Op("!="),
                Tok::Op("<="),
                Tok::Op(">="),
                Tok::Op("&&"),
                Tok::Op("||")
            ]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            toks("if iffy"),
            vec![Tok::Kw("if"), Tok::Ident("iffy".into())]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("@").is_err());
        assert!(lex(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn columns_tracked() {
        let ts = lex("let x = 42;\n  x + 1;").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1)); // let
        assert_eq!((ts[1].line, ts[1].col), (1, 5)); // x
        assert_eq!((ts[3].line, ts[3].col), (1, 9)); // 42
        assert_eq!((ts[5].line, ts[5].col), (2, 3)); // x on line 2
    }

    #[test]
    fn lex_error_carries_column() {
        let e = lex("let x = @;").unwrap_err();
        assert_eq!((e.line, e.col), (1, 9));
        assert!(e.to_string().contains("1:9"), "{e}");
    }
}
