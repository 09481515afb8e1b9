//! Storage error types.

use std::fmt;

/// Errors produced by the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io(std::io::Error),
    /// The buffer ended before a complete value could be read. For WAL
    /// records this is the expected shape of a torn tail and is tolerated
    /// by recovery; everywhere else it is corruption.
    Truncated {
        /// Bytes the read needed.
        needed: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// The data is structurally invalid (bad magic, checksum mismatch,
    /// out-of-range index, non-UTF-8 text).
    Corrupt(String),
    /// The snapshot was written by an unsupported format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Another process (or another `Store` in this one) holds the store
    /// directory's advisory lock.
    Locked(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt store data: {m}"),
            StoreError::Version { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            StoreError::Locked(dir) => {
                write!(f, "store at `{dir}` is locked by another process")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T, E = StoreError> = std::result::Result<T, E>;
