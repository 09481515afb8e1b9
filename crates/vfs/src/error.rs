//! Filesystem error types.

use std::fmt;

use resin_core::FlowError;

/// Errors produced by the virtual filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// No file or directory at the path.
    NotFound(String),
    /// A path component that must be a directory is not one.
    NotADirectory(String),
    /// The operation needs a file but found a directory.
    IsADirectory(String),
    /// Creation target already exists.
    AlreadyExists(String),
    /// The path is syntactically invalid (e.g. escapes the root).
    InvalidPath(String),
    /// A policy or persistent filter rejected the operation.
    Policy(FlowError),
    /// The durable store failed (I/O error, corrupt checkpoint,
    /// unsupported format version).
    Storage(String),
}

impl VfsError {
    /// True if the error is a data flow assertion failure.
    pub fn is_violation(&self) -> bool {
        matches!(self, VfsError::Policy(e) if e.is_violation())
            || matches!(self, VfsError::Policy(FlowError::Rejected(_)))
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            VfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            VfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            VfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            VfsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            VfsError::Policy(e) => write!(f, "{e}"),
            VfsError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for VfsError {}

impl From<FlowError> for VfsError {
    fn from(e: FlowError) -> Self {
        VfsError::Policy(e)
    }
}

impl From<resin_core::PolicyViolation> for VfsError {
    fn from(v: resin_core::PolicyViolation) -> Self {
        VfsError::Policy(FlowError::Denied(v))
    }
}

impl From<resin_core::SerializeError> for VfsError {
    fn from(e: resin_core::SerializeError) -> Self {
        VfsError::Policy(FlowError::Serialize(e))
    }
}

/// Result alias for filesystem operations.
pub type Result<T, E = VfsError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyViolation, Reason};

    #[test]
    fn violation_detection() {
        let e = VfsError::Policy(FlowError::Denied(PolicyViolation::new(
            "P",
            Reason::NotOnAcl,
        )));
        assert!(e.is_violation());
        assert!(!VfsError::NotFound("/x".into()).is_violation());
        let f = VfsError::Policy(FlowError::Rejected("w".into()));
        assert!(f.is_violation());
    }

    #[test]
    fn display_messages() {
        assert!(VfsError::NotFound("/a".into()).to_string().contains("/a"));
        assert!(VfsError::InvalidPath("..".into())
            .to_string()
            .contains(".."));
    }
}
