//! Storage values and comparison semantics.

use std::cmp::Ordering;
use std::fmt;

use crate::like::LikePattern;

/// A stored cell value (the engine itself is policy-oblivious; the RESIN
/// filter layers policies on top via shadow columns).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// True when the value is NULL.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as text, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison. NULL compares as unknown (`None`); ints and text
    /// compare within their type; mixed int/text compares by rendering the
    /// int as text (PHP-flavoured leniency).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Text(b)) => Some(a.to_string().cmp(b)),
            (Value::Text(a), Value::Int(b)) => Some(a.cmp(&b.to_string())),
        }
    }

    /// Truthiness for WHERE results: nonzero int / nonempty text.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Text(s) => !s.is_empty(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

/// SQL `LIKE`: whether `text` matches `pattern`.
///
/// `%` matches any run of bytes (including none) and `_` matches exactly
/// one **byte** — not one character, so `'é' LIKE '__'`. Every other
/// pattern byte matches itself ignoring ASCII case; bytes outside ASCII
/// match only themselves. There is no escape: a literal `%` or `_` cannot
/// be asked for.
///
/// Costs at most O(`text.len()` × `pattern.len()`) byte comparisons
/// whatever the pattern: it is split at its `%`s, the first and last
/// piece are pinned to the ends of the text unless a `%` frees them, and
/// each piece between is searched for once, leftmost first — a piece has
/// a fixed length, so taking the leftmost match never costs a later one
/// its room. (The recursive matcher this replaced was exponential in the
/// number of `%`s.) A statement whose pattern is a literal or a bound
/// parameter compiles it once per execution rather than once per row.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::compile(pattern).matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("a".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(5).compare(&Value::Text("5".into())),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Text("".into()).truthy());
        assert!(Value::Text("x".into()).truthy());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("HELLO", "hello"), "case-insensitive");
        assert!(!like_match("hello", "h_llo_"));
        assert!(!like_match("hello", "world%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Text("x".into()).to_string(), "x");
        assert!(Value::Text("x".into()).as_text().is_some());
        assert!(Value::Int(1).as_int().is_some());
        assert!(Value::Null.is_null());
    }
}
