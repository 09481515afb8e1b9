//! The vfs's write-ahead log records: [`FsOp`] and its codec.
//!
//! The tree in [`crate::Vfs`] is the working state. A durable `Vfs`
//! ([`crate::Vfs::open_disk`]) holds a [`resin_store::Store`] beneath it:
//! every mutating file operation that commits to the tree appends one
//! `FsOp` to the store's WAL, and a checkpoint writes the whole encoded
//! tree as the store's one part. Recovery decodes that part and replays
//! the ops logged after it, even from a torn WAL tail.
//!
//! Ops are logged **post-guard**: persistent filters and dir-op checks
//! ran before the tree mutated, so recovery re-applies raw state changes
//! without re-running (or needing the code of) any filter.

use resin_store::io::{put_str, put_u8, Cursor};
use resin_store::StoreError;

use crate::error::{Result, VfsError};

impl From<StoreError> for VfsError {
    fn from(e: StoreError) -> Self {
        VfsError::Storage(e.to_string())
    }
}

/// One committed mutation of the tree, as logged to the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// A directory came into existence (one op per created component).
    Mkdir {
        /// Absolute path of the created directory.
        path: String,
    },
    /// A file's content was replaced (creating it if needed).
    Write {
        /// Absolute file path.
        path: String,
        /// The new content bytes.
        content: String,
        /// Serialized byte-range policies (`None` clears the policy
        /// xattr, mirroring an untainted write).
        policy: Option<String>,
    },
    /// A file or empty directory was removed.
    Unlink {
        /// Absolute path removed.
        path: String,
    },
    /// A node moved.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// An extended attribute was set (persistent filters arrive here:
    /// `attach_filter` is a `user.resin.filter` xattr write).
    SetXattr {
        /// Node path.
        path: String,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: String,
    },
    /// An extended attribute was removed (e.g. `clear_filters`).
    RemoveXattr {
        /// Node path.
        path: String,
        /// Attribute key.
        key: String,
    },
}

const OP_MKDIR: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_UNLINK: u8 = 2;
const OP_RENAME: u8 = 3;
const OP_SET_XATTR: u8 = 4;
const OP_REMOVE_XATTR: u8 = 5;

impl FsOp {
    /// Encodes the op as a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            FsOp::Mkdir { path } => {
                put_u8(&mut buf, OP_MKDIR);
                put_str(&mut buf, path);
            }
            FsOp::Write {
                path,
                content,
                policy,
            } => {
                put_u8(&mut buf, OP_WRITE);
                put_str(&mut buf, path);
                put_str(&mut buf, content);
                match policy {
                    Some(p) => {
                        put_u8(&mut buf, 1);
                        put_str(&mut buf, p);
                    }
                    None => put_u8(&mut buf, 0),
                }
            }
            FsOp::Unlink { path } => {
                put_u8(&mut buf, OP_UNLINK);
                put_str(&mut buf, path);
            }
            FsOp::Rename { from, to } => {
                put_u8(&mut buf, OP_RENAME);
                put_str(&mut buf, from);
                put_str(&mut buf, to);
            }
            FsOp::SetXattr { path, key, value } => {
                put_u8(&mut buf, OP_SET_XATTR);
                put_str(&mut buf, path);
                put_str(&mut buf, key);
                put_str(&mut buf, value);
            }
            FsOp::RemoveXattr { path, key } => {
                put_u8(&mut buf, OP_REMOVE_XATTR);
                put_str(&mut buf, path);
                put_str(&mut buf, key);
            }
        }
        buf
    }

    /// Decodes a WAL payload.
    pub fn decode(payload: &[u8]) -> Result<FsOp> {
        let mut c = Cursor::new(payload);
        let op = match c.u8().map_err(VfsError::from)? {
            OP_MKDIR => FsOp::Mkdir {
                path: c.str().map_err(VfsError::from)?,
            },
            OP_WRITE => {
                let path = c.str().map_err(VfsError::from)?;
                let content = c.str().map_err(VfsError::from)?;
                let policy = match c.u8().map_err(VfsError::from)? {
                    0 => None,
                    _ => Some(c.str().map_err(VfsError::from)?),
                };
                FsOp::Write {
                    path,
                    content,
                    policy,
                }
            }
            OP_UNLINK => FsOp::Unlink {
                path: c.str().map_err(VfsError::from)?,
            },
            OP_RENAME => FsOp::Rename {
                from: c.str().map_err(VfsError::from)?,
                to: c.str().map_err(VfsError::from)?,
            },
            OP_SET_XATTR => FsOp::SetXattr {
                path: c.str().map_err(VfsError::from)?,
                key: c.str().map_err(VfsError::from)?,
                value: c.str().map_err(VfsError::from)?,
            },
            OP_REMOVE_XATTR => FsOp::RemoveXattr {
                path: c.str().map_err(VfsError::from)?,
                key: c.str().map_err(VfsError::from)?,
            },
            other => return Err(VfsError::Storage(format!("unknown fs op tag {other}"))),
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            FsOp::Mkdir { path: "/a".into() },
            FsOp::Write {
                path: "/a/f".into(),
                content: "hello".into(),
                policy: Some("#UntrustedData{}#0..5|0".into()),
            },
            FsOp::Write {
                path: "/a/g".into(),
                content: String::new(),
                policy: None,
            },
            FsOp::Unlink {
                path: "/a/g".into(),
            },
            FsOp::Rename {
                from: "/a/f".into(),
                to: "/a/h".into(),
            },
            FsOp::SetXattr {
                path: "/a".into(),
                key: "user.resin.filter".into(),
                value: "AclWriteFilter{acl=alice:w}".into(),
            },
            FsOp::RemoveXattr {
                path: "/a".into(),
                key: "user.resin.filter".into(),
            },
        ];
        for op in &ops {
            assert_eq!(&FsOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(FsOp::decode(&[99]).is_err(), "unknown tag");
        assert!(FsOp::decode(&[]).is_err(), "empty payload");
    }
}
