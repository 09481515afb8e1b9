//! SQL engine error types.

use std::fmt;

use resin_core::FlowError;

/// Errors produced by the SQL engine and the RESIN query filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical error in the query text.
    Lex { pos: usize, message: String },
    /// Syntax error.
    Parse { pos: usize, message: String },
    /// Schema error (unknown table/column, duplicate, arity mismatch...).
    Schema(String),
    /// Type error during evaluation.
    Type(String),
    /// A policy (injection guard, merge, serialization) rejected the query.
    Policy(FlowError),
    /// The durable store failed (I/O error, corrupt snapshot, unsupported
    /// format version).
    Storage(String),
    /// A transaction's commit found a table it wrote changed by another
    /// writer since it copied it; nothing was installed, so the caller may
    /// retry.
    Conflict(String),
}

impl SqlError {
    /// Shorthand for a schema error.
    pub fn schema(msg: impl Into<String>) -> Self {
        SqlError::Schema(msg.into())
    }

    /// True if the error is a data flow assertion failure.
    pub fn is_violation(&self) -> bool {
        matches!(self, SqlError::Policy(e) if e.is_violation())
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            SqlError::Parse { pos, message } => write!(f, "parse error at token {pos}: {message}"),
            SqlError::Schema(m) => write!(f, "schema error: {m}"),
            SqlError::Type(m) => write!(f, "type error: {m}"),
            SqlError::Policy(e) => write!(f, "{e}"),
            SqlError::Storage(m) => write!(f, "storage error: {m}"),
            SqlError::Conflict(m) => write!(f, "conflict: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<FlowError> for SqlError {
    fn from(e: FlowError) -> Self {
        SqlError::Policy(e)
    }
}

impl From<resin_core::SerializeError> for SqlError {
    fn from(e: resin_core::SerializeError) -> Self {
        SqlError::Policy(FlowError::Serialize(e))
    }
}

impl From<resin_core::PolicyViolation> for SqlError {
    fn from(v: resin_core::PolicyViolation) -> Self {
        SqlError::Policy(FlowError::Denied(v))
    }
}

/// Result alias for SQL operations.
pub type Result<T, E = SqlError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyViolation, Reason};

    #[test]
    fn display_and_violation() {
        let e = SqlError::Lex {
            pos: 3,
            message: "bad char".into(),
        };
        assert!(e.to_string().contains("byte 3"));
        assert!(!e.is_violation());
        let v: SqlError = PolicyViolation::new("SqlGuard", Reason::InStructure).into();
        assert!(v.is_violation());
    }
}
