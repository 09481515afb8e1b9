//! Path handling, including lexical `..` resolution.
//!
//! Directory traversal attacks (§2, Data Flow Assertion 2) work because
//! applications join user input into paths and the filesystem resolves
//! `..` segments past the intended root. The VFS resolves paths the same
//! way a Unix filesystem would, so the attack surface is faithfully
//! reproduced — defense comes from persistent filter objects, not from the
//! path layer.

use crate::error::{Result, VfsError};

/// Normalizes `path` into absolute components, resolving `.` and `..`.
///
/// Relative paths are interpreted against `/`. A `..` that would escape the
/// root is an [`VfsError::InvalidPath`] (like hitting the real filesystem
/// root... except real filesystems clamp; we reject so tests can observe
/// over-traversal distinctly).
pub(crate) fn normalize(path: &str) -> Result<Vec<String>> {
    let mut out: Vec<String> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                if out.pop().is_none() {
                    return Err(VfsError::InvalidPath(path.to_string()));
                }
            }
            name => out.push(name.to_string()),
        }
    }
    Ok(out)
}

/// Joins a base directory and a (possibly relative, possibly hostile)
/// name the way a naive application would: simple string concatenation.
pub fn join(base: &str, name: &str) -> String {
    if name.starts_with('/') {
        name.to_string()
    } else if base.ends_with('/') {
        format!("{base}{name}")
    } else {
        format!("{base}/{name}")
    }
}

/// Renders normalized components back into an absolute path.
pub(crate) fn to_absolute(components: &[String]) -> String {
    if components.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", components.join("/"))
    }
}

/// The parent path and final component of a normalized path.
///
/// Returns `None` for the root.
pub(crate) fn split_parent(components: &[String]) -> Option<(&[String], &str)> {
    let (last, parent) = components.split_last()?;
    Some((parent, last.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalizes like a Unix kernel: `..` at the root stays at the root.
    fn normalize_clamped(path: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    out.pop();
                }
                name => out.push(name.to_string()),
            }
        }
        out
    }

    /// True if `path`, after normalization, stays within `root`.
    ///
    /// This is the check a *correct* application performs; the vulnerable file
    /// managers in `resin-apps` skip it.
    fn is_within(root: &str, path: &str) -> bool {
        let Ok(root_c) = normalize(root) else {
            return false;
        };
        let path_c = normalize_clamped(path);
        path_c.len() >= root_c.len() && path_c[..root_c.len()] == root_c[..]
    }

    #[test]
    fn normalize_basic() {
        assert_eq!(normalize("/a/b/c").unwrap(), ["a", "b", "c"]);
        assert_eq!(normalize("a/b").unwrap(), ["a", "b"]);
        assert_eq!(normalize("/a//b/./c").unwrap(), ["a", "b", "c"]);
        assert!(normalize("/").unwrap().is_empty());
        assert!(normalize("").unwrap().is_empty());
    }

    #[test]
    fn normalize_dotdot() {
        assert_eq!(normalize("/a/b/../c").unwrap(), ["a", "c"]);
        assert_eq!(normalize("/a/../a/b").unwrap(), ["a", "b"]);
        assert!(normalize("/..").is_err(), "escaping the root rejected");
        assert!(normalize("/a/../../b").is_err());
    }

    #[test]
    fn clamped_never_errors() {
        assert_eq!(normalize_clamped("/../../etc"), ["etc"]);
        assert_eq!(normalize_clamped("a/../.."), Vec::<String>::new());
    }

    #[test]
    fn join_is_naive() {
        assert_eq!(join("/files/alice", "doc.txt"), "/files/alice/doc.txt");
        assert_eq!(join("/files/alice/", "doc.txt"), "/files/alice/doc.txt");
        // The traversal attack: naive join happily embeds dot-dot.
        assert_eq!(join("/files/alice", "../bob/x"), "/files/alice/../bob/x");
        assert_eq!(join("/files", "/etc/passwd"), "/etc/passwd");
    }

    #[test]
    fn traversal_escapes_join() {
        let p = join("/files/alice", "../bob/secret.txt");
        assert_eq!(normalize(&p).unwrap(), ["files", "bob", "secret.txt"]);
        assert!(!is_within("/files/alice", &p), "escape detected");
        assert!(is_within("/files/alice", "/files/alice/sub/x"));
        assert!(!is_within("/files/alice", "/files/alicefake/x"));
    }

    #[test]
    fn roundtrip_absolute() {
        let c = normalize("/a/b").unwrap();
        assert_eq!(to_absolute(&c), "/a/b");
        assert_eq!(to_absolute(&[]), "/");
    }

    #[test]
    fn split_parent_works() {
        let c = normalize("/a/b/c").unwrap();
        let (parent, name) = split_parent(&c).unwrap();
        assert_eq!(to_absolute(parent), "/a/b");
        assert_eq!(name, "c");
        assert!(split_parent(&[]).is_none());
    }
}
