//! Web file managers in the style of File Thingie and PHP Navigator
//! (§6.2): each user gets a home directory; all operations are supposed to
//! stay inside it.
//!
//! Wired-in vulnerability: both apps build target paths by naive string
//! concatenation, so a file name like `../bob/x` escapes the home
//! directory — the directory traversal the paper discovered. The RESIN
//! assertion is a write-access filter (§3.2.3): an [`AclWriteFilter`] on
//! the file-area root (deny) and one per home directory (allow the owner),
//! so the *filesystem boundary* enforces the confinement the application
//! forgot.

use std::sync::Arc;

use resin_core::{Acl, Right, TaintedString, Tracking};
use resin_vfs::path::join;
use resin_vfs::pfilter::{AclWriteFilter, PersistentFilterRef};
use resin_vfs::{Vfs, VfsError};

/// Lines of the write-access assertion (File Thingie flavour).
pub(crate) const THINGIE_ASSERTION_LOC: usize = 19;
/// Lines of the write-access assertion (PHP Navigator flavour).
pub(crate) const NAVIGATOR_ASSERTION_LOC: usize = 17;

/// A web file manager with per-user home directories.
pub(crate) struct FileManager {
    /// The manager's filesystem.
    pub(crate) vfs: Vfs,
    resin: bool,
}

impl FileManager {
    /// Creates the file area. `resin` installs the write filters.
    pub(crate) fn new(resin: bool) -> Self {
        let vfs = Vfs::with_mode(if resin { Tracking::On } else { Tracking::Off });
        let mut fm = FileManager { vfs, resin };
        fm.vfs
            .mkdir_p("/files", &Vfs::anonymous_ctx())
            .expect("init");
        if resin {
            // Deny-by-default over the whole tree: only the provisioning
            // "admin" principal may write outside a granted home.
            let deny: PersistentFilterRef = Arc::new(AclWriteFilter::new(
                Acl::new().grant("admin", &[Right::Write]),
            ));
            fm.vfs.attach_filter("/", &deny).expect("root filter");
        }
        fm
    }

    /// Provisions a user's home directory.
    pub(crate) fn add_user(&mut self, user: &str) {
        let home = format!("/files/{user}");
        self.vfs
            .mkdir_p(&home, &Vfs::user_ctx("admin"))
            .expect("home");
        if self.resin {
            let allow: PersistentFilterRef =
                Arc::new(AclWriteFilter::new(Acl::new().grant(user, &[Right::Write])));
            self.vfs.attach_filter(&home, &allow).expect("home filter");
        }
    }

    fn home_of(user: &str) -> String {
        format!("/files/{user}")
    }

    /// Saves an upload. `filename` is user input; the application
    /// concatenates it onto the home path **without validation** — the
    /// traversal bug.
    pub(crate) fn upload(
        &mut self,
        user: &str,
        filename: &str,
        content: &str,
    ) -> Result<(), VfsError> {
        let target = join(&Self::home_of(user), filename); // BUG: no check.
        self.vfs
            .write_file(&target, &TaintedString::from(content), &Vfs::user_ctx(user))
    }

    /// Deletes a file, same naive path handling.
    pub(crate) fn delete(&mut self, user: &str, filename: &str) -> Result<(), VfsError> {
        let target = join(&Self::home_of(user), filename); // BUG: no check.
        self.vfs.unlink(&target, &Vfs::user_ctx(user))
    }

    /// Reads back one of the user's files (same naive joining).
    #[cfg(test)]
    pub(crate) fn read(&self, user: &str, filename: &str) -> Result<String, VfsError> {
        let target = join(&Self::home_of(user), filename);
        Ok(self
            .vfs
            .read_file(&target, &Vfs::user_ctx(user))?
            .as_str()
            .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(resin: bool) -> FileManager {
        let mut fm = FileManager::new(resin);
        fm.add_user("alice");
        fm.add_user("bob");
        fm.upload("bob", "notes.txt", "bob's notes").unwrap();
        fm
    }

    #[test]
    fn normal_uploads_work() {
        let mut fm = manager(true);
        fm.upload("alice", "doc.txt", "hello").unwrap();
        assert_eq!(fm.read("alice", "doc.txt").unwrap(), "hello");
        fm.delete("alice", "doc.txt").unwrap();
        assert!(fm.read("alice", "doc.txt").is_err());
    }

    #[test]
    fn traversal_write_blocked_with_resin() {
        let mut fm = manager(true);
        let err = fm
            .upload("alice", "../bob/pwned.txt", "owned by alice")
            .unwrap_err();
        assert!(err.is_violation());
        assert!(!fm.vfs.exists("/files/bob/pwned.txt"));
    }

    #[test]
    fn traversal_write_succeeds_without_resin() {
        let mut fm = manager(false);
        fm.upload("alice", "../bob/pwned.txt", "owned").unwrap();
        assert!(fm.vfs.exists("/files/bob/pwned.txt"), "the traversal bug");
    }

    #[test]
    fn traversal_overwrite_blocked_with_resin() {
        let mut fm = manager(true);
        let err = fm
            .upload("alice", "../bob/notes.txt", "defaced")
            .unwrap_err();
        assert!(err.is_violation());
        assert_eq!(fm.read("bob", "notes.txt").unwrap(), "bob's notes");
    }

    #[test]
    fn traversal_delete_blocked_with_resin() {
        let mut fm = manager(true);
        let err = fm.delete("alice", "../bob/notes.txt").unwrap_err();
        assert!(err.is_violation());
        assert!(fm.vfs.exists("/files/bob/notes.txt"));
    }

    #[test]
    fn traversal_delete_succeeds_without_resin() {
        let mut fm = manager(false);
        fm.delete("alice", "../bob/notes.txt").unwrap();
        assert!(!fm.vfs.exists("/files/bob/notes.txt"));
    }

    #[test]
    fn escape_above_file_area_blocked() {
        let mut fm = manager(true);
        let err = fm
            .upload("alice", "../../etc/passwd", "root::0:0")
            .unwrap_err();
        assert!(err.is_violation(), "root-wide filter governs /etc: {err}");
    }

    #[test]
    fn subdirectories_inside_home_allowed() {
        let mut fm = manager(true);
        fm.vfs
            .mkdir_p("/files/alice/projects", &Vfs::user_ctx("alice"))
            .unwrap();
        fm.upload("alice", "projects/p1.txt", "data").unwrap();
        assert_eq!(fm.read("alice", "projects/p1.txt").unwrap(), "data");
    }
}
