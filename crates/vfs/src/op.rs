//! The vfs's mutations: [`FsOp`] and its write-ahead-log codec.
//!
//! The tree in [`crate::Vfs`] is the working state, and an `FsOp` is the
//! only way it changes. Every mutating file operation builds one after its
//! guards passed and commits it: the op is validated against the tree,
//! appended to the WAL of a durable `Vfs` ([`crate::Vfs::open_disk`]),
//! then applied. Recovery decodes the last checkpoint's tree and commits
//! each op logged after it through that same function, even from a torn
//! WAL tail.
//!
//! Ops are logged **post-guard**: persistent filters and dir-op checks
//! ran before the op was built, so recovery re-applies raw state changes
//! without re-running (or needing the code of) any filter.

use resin_store::io::{put_str, put_u8, Cursor};
use resin_store::StoreError;

use crate::error::{Result, VfsError};
use crate::path::{normalize, to_absolute};

impl From<StoreError> for VfsError {
    fn from(e: StoreError) -> Self {
        VfsError::Storage(e.to_string())
    }
}

/// One mutation of the tree, as committed and logged to the WAL.
///
/// Paths are the normalized components of an absolute path (`[]` is the
/// root, as [`normalize`] returns it); the log holds each as its absolute
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// A directory came into existence under an existing one.
    Mkdir {
        /// The created directory.
        path: Vec<String>,
    },
    /// A file's content was replaced (creating it if needed).
    Write {
        /// The file.
        path: Vec<String>,
        /// The new content bytes.
        content: String,
        /// Serialized byte-range policies (`None` clears the policy
        /// xattr, mirroring an untainted write).
        policy: Option<String>,
    },
    /// A file or empty directory was removed.
    Unlink {
        /// The removed node.
        path: Vec<String>,
    },
    /// A node moved.
    Rename {
        /// Source path.
        from: Vec<String>,
        /// Destination path.
        to: Vec<String>,
    },
    /// An extended attribute was set (persistent filters arrive here:
    /// `attach_filter` is a `user.resin.filter` xattr write).
    SetXattr {
        /// Node path.
        path: Vec<String>,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: String,
    },
    /// An extended attribute was removed (e.g. `clear_filters`).
    RemoveXattr {
        /// Node path.
        path: Vec<String>,
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

fn put_path(buf: &mut Vec<u8>, path: &[String]) {
    put_str(buf, &to_absolute(path));
}

fn path(c: &mut Cursor) -> Result<Vec<String>> {
    normalize(&c.str().map_err(VfsError::from)?)
}

fn string(c: &mut Cursor) -> Result<String> {
    c.str().map_err(VfsError::from)
}

impl FsOp {
    /// Encodes the op as a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            FsOp::Mkdir { path } => {
                put_u8(&mut buf, OP_MKDIR);
                put_path(&mut buf, path);
            }
            FsOp::Write {
                path,
                content,
                policy,
            } => {
                put_u8(&mut buf, OP_WRITE);
                put_path(&mut buf, path);
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
                put_path(&mut buf, path);
            }
            FsOp::Rename { from, to } => {
                put_u8(&mut buf, OP_RENAME);
                put_path(&mut buf, from);
                put_path(&mut buf, to);
            }
            FsOp::SetXattr { path, key, value } => {
                put_u8(&mut buf, OP_SET_XATTR);
                put_path(&mut buf, path);
                put_str(&mut buf, key);
                put_str(&mut buf, value);
            }
            FsOp::RemoveXattr { path, key } => {
                put_u8(&mut buf, OP_REMOVE_XATTR);
                put_path(&mut buf, path);
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
                path: path(&mut c)?,
            },
            OP_WRITE => FsOp::Write {
                path: path(&mut c)?,
                content: string(&mut c)?,
                policy: match c.u8().map_err(VfsError::from)? {
                    0 => None,
                    _ => Some(string(&mut c)?),
                },
            },
            OP_UNLINK => FsOp::Unlink {
                path: path(&mut c)?,
            },
            OP_RENAME => FsOp::Rename {
                from: path(&mut c)?,
                to: path(&mut c)?,
            },
            OP_SET_XATTR => FsOp::SetXattr {
                path: path(&mut c)?,
                key: string(&mut c)?,
                value: string(&mut c)?,
            },
            OP_REMOVE_XATTR => FsOp::RemoveXattr {
                path: path(&mut c)?,
                key: string(&mut c)?,
            },
            other => return Err(VfsError::Storage(format!("unknown fs op tag {other}"))),
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Vec<String> {
        normalize(s).unwrap()
    }

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            FsOp::Mkdir { path: p("/a") },
            FsOp::Write {
                path: p("/a/f"),
                content: "hello".into(),
                policy: Some("#UntrustedData{}#0..5|0".into()),
            },
            FsOp::Write {
                path: p("/a/g"),
                content: String::new(),
                policy: None,
            },
            FsOp::Unlink { path: p("/a/g") },
            FsOp::Rename {
                from: p("/a/f"),
                to: p("/a/h"),
            },
            FsOp::SetXattr {
                path: p("/"),
                key: "user.resin.filter".into(),
                value: "AclWriteFilter{acl=alice:w}".into(),
            },
            FsOp::RemoveXattr {
                path: p("/a"),
                key: "user.resin.filter".into(),
            },
        ];
        for op in &ops {
            assert_eq!(&FsOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(FsOp::decode(&[99]).is_err(), "unknown tag");
        assert!(FsOp::decode(&[]).is_err(), "empty payload");
    }

    #[test]
    fn the_log_holds_absolute_paths() {
        let op = FsOp::Unlink { path: p("/a/b") };
        let mut want = vec![OP_UNLINK];
        put_str(&mut want, "/a/b");
        assert_eq!(op.encode(), want);
        // A logged path that escapes the root is corrupt, not a path.
        let mut bad = vec![OP_UNLINK];
        put_str(&mut bad, "/../x");
        assert!(matches!(FsOp::decode(&bad), Err(VfsError::InvalidPath(_))));
    }
}
