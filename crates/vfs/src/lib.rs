//! # resin-vfs — a virtual filesystem with persistent RESIN policies
//!
//! The filesystem substrate for the RESIN reproduction. Real RESIN stores
//! serialized policy objects in ext3 extended attributes (§3.4.1) and
//! persistent filter objects for write access control (§3.2.3); this crate
//! reproduces both on an in-memory tree:
//!
//! * every file/directory carries extended attributes;
//! * the default file filter serializes a file's byte-range content
//!   policies on write and revives them on read;
//! * persistent filter objects (e.g. [`pfilter::AclWriteFilter`]) govern
//!   writes, deletes, renames and creations in their subtree;
//! * paths resolve `..` lexically, so directory-traversal attacks behave
//!   exactly as on a Unix filesystem.
//!
//! # Examples
//!
//! ```
//! use resin_core::prelude::*;
//! use resin_vfs::{Vfs, pfilter::{AclWriteFilter, PersistentFilterRef}};
//! use std::sync::Arc;
//!
//! let mut fs = Vfs::new();
//! fs.mkdir_p("/wiki/Front", &Vfs::anonymous_ctx()).unwrap();
//!
//! // MoinMoin-style write ACL on the page directory (§5.1).
//! let f: PersistentFilterRef = Arc::new(AclWriteFilter::new(
//!     Acl::new().grant("alice", &[Right::Write])));
//! fs.attach_filter("/wiki/Front", &f).unwrap();
//!
//! let page = TaintedString::from("v1 text");
//! assert!(fs.write_file("/wiki/Front/v1", &page, &Vfs::user_ctx("alice")).is_ok());
//! assert!(fs.write_file("/wiki/Front/v1", &page, &Vfs::user_ctx("bob")).is_err());
//! ```

pub mod backend;
pub mod error;
pub mod fs;
pub mod path;
pub mod pfilter;

pub use backend::FsOp;
pub use error::{Result, VfsError};
pub use fs::{OpenFile, TrackingMode, Vfs, XATTR_FILTER, XATTR_POLICY};
