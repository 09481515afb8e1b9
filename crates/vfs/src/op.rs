//! The vfs's mutations: [`FsOp`] and its write-ahead-log layout.
//!
//! The tree in [`crate::Vfs`] is the working state, and an `FsOp` is the
//! only way it changes. Every mutating file operation builds one after its
//! guards passed and commits it: the op is validated against the tree,
//! appended to the WAL of a durable `Vfs` ([`crate::Vfs::open_disk`]),
//! then applied. Recovery decodes the last checkpoint's tree and commits
//! each op logged after it through that same function, even from a torn
//! WAL tail.
//!
//! The log's layout is one `wire!` declaration (`resin_store::io`): a tag
//! byte per variant, then its fields in order, each path as its absolute
//! string. Decoding reads back only what encoding writes: a path not in
//! normal form (`/a/./b`, `/a/`), a policy flag other than 0 or 1, and a
//! byte after the op are refused.
//!
//! Ops are logged **post-guard**: persistent filters and dir-op checks
//! ran before the op was built, so recovery re-applies raw state changes
//! without re-running (or needing the code of) any filter.

use resin_store::io::{read_all, Codec, Sink, Source, Wire};
use resin_store::{wire, StoreError};

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
/// root, as `normalize` returns it); the log holds each as its absolute
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

wire! {
    FsOp: u8 {
        Mkdir { path as AbsPath } = 0,
        Write { path as AbsPath, content, policy } = 1,
        Unlink { path as AbsPath } = 2,
        Rename { from as AbsPath, to as AbsPath } = 3,
        SetXattr { path as AbsPath, key, value } = 4,
        RemoveXattr { path as AbsPath, key } = 5,
    }
}

/// A path's components as the log holds them: the absolute path, in the
/// normal form [`to_absolute`] writes.
struct AbsPath;

impl Codec<Vec<String>> for AbsPath {
    fn put<S: Sink + ?Sized>(path: &Vec<String>, out: &mut S) -> resin_store::Result<()> {
        to_absolute(path).put(out)
    }

    fn get<R: Source + ?Sized>(src: &mut R) -> resin_store::Result<Vec<String>> {
        let text = String::get(src)?;
        match normalize(&text) {
            Ok(path) if to_absolute(&path) == text => Ok(path),
            _ => Err(StoreError::Corrupt(format!("logged path `{text}`"))),
        }
    }
}

impl FsOp {
    /// Encodes the op as a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.put(&mut buf).expect("a Vec takes every byte");
        buf
    }

    /// Decodes a WAL payload: one op, and every byte of it.
    pub fn decode(payload: &[u8]) -> Result<FsOp> {
        Ok(read_all(payload, FsOp::get)?)
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
        assert_eq!(op.encode(), unlink("/a/b"));
        // A logged path that escapes the root is corrupt, not a path.
        assert!(matches!(
            FsOp::decode(&unlink("/../x")),
            Err(VfsError::Storage(_))
        ));
    }

    /// An unlink op whose logged path is `path`, whatever its form.
    fn unlink(path: &str) -> Vec<u8> {
        let mut bytes = vec![2];
        path.put(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn a_logged_path_is_in_normal_form() {
        // Each names a path the log writes another way (`/a/b`, `/a`, `/`).
        for bad in ["/a/./b", "/a/", "a", "//a", "/a/../a", ""] {
            assert!(FsOp::decode(&unlink(bad)).is_err(), "{bad}");
        }
        assert_eq!(
            FsOp::decode(&unlink("/")).unwrap(),
            FsOp::Unlink { path: p("/") }
        );
    }

    #[test]
    fn a_logged_policy_flag_is_0_or_1() {
        let policy = "#UntrustedData{}#0..1|0";
        let op = FsOp::Write {
            path: p("/f"),
            content: "x".into(),
            policy: Some(policy.into()),
        };
        let mut bytes = op.encode();
        assert_eq!(FsOp::decode(&bytes).unwrap(), op);
        // The flag comes right before the policy's length and bytes.
        let flag = bytes.len() - 8 - policy.len() - 1;
        assert_eq!(bytes[flag], 1);
        bytes[flag] = 2;
        assert!(FsOp::decode(&bytes).is_err(), "a flag of 2");
    }

    #[test]
    fn a_logged_op_is_every_byte_of_its_payload() {
        let mut bytes = FsOp::Mkdir { path: p("/a") }.encode();
        assert!(FsOp::decode(&bytes).is_ok());
        bytes.push(0);
        assert!(FsOp::decode(&bytes).is_err(), "a byte after the op");
    }
}
