//! A functional core of the MoinMoin wiki (§5.1, Figure 5).
//!
//! Pages live in the VFS: a directory per page, one file per version —
//! exactly the layout the paper describes. Two assertions:
//!
//! * **Read ACL** (8 lines in the paper): `update_body` attaches a
//!   [`PagePolicy`] carrying the page ACL before writing; the persistent
//!   policy follows the page through storage and out any channel.
//! * **Write ACL** (15 lines): an [`AclWriteFilter`] on the page directory
//!   restricts modifying existing versions and creating new ones.
//!
//! Wired-in vulnerabilities:
//!
//! * the *rst-include* bug (CVE-2008-6548): rendering a page that
//!   `include`s another page does not check the included page's ACL;
//! * a raw-page endpoint with no ACL check at all (the second
//!   previously-known read vulnerability class).

use std::sync::Arc;

use resin_core::{Acl, Context, PagePolicy, Right, TaintedString, Tracking};
use resin_vfs::pfilter::{AclWriteFilter, PersistentFilterRef};
use resin_vfs::{Vfs, VfsError};
use resin_web::Response;

/// Lines of the read-ACL assertion (Figure 5 is 8 lines of Python).
pub(crate) const READ_ASSERTION_LOC: usize = 8;
/// Lines of the write-ACL assertion.
pub(crate) const WRITE_ASSERTION_LOC: usize = 15;

/// The wiki application.
pub struct MoinWiki {
    /// The wiki's filesystem.
    pub vfs: Vfs,
    resin: bool,
}

impl MoinWiki {
    /// Creates the wiki; `resin` enables both assertions.
    pub fn new(resin: bool) -> Self {
        let vfs = Vfs::with_mode(if resin { Tracking::On } else { Tracking::Off });
        let mut w = MoinWiki { vfs, resin };
        w.vfs
            .mkdir_p("/pages", &Vfs::anonymous_ctx())
            .expect("init");
        w
    }

    /// Opens (creating if needed) a disk-backed wiki rooted at `dir`:
    /// pages, versions, page ACL xattrs, persistent write filters, and
    /// every byte-range `PagePolicy` come back exactly as written — the
    /// paper's "policies travel with the data into storage" across a real
    /// process boundary. RESIN assertions are always on (durability
    /// exists to keep them enforceable).
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<MoinWiki, VfsError> {
        let dir = dir.as_ref();
        let mut w = MoinWiki {
            vfs: Vfs::open_disk(dir)?,
            resin: true,
        };
        crate::webapp::warn_if_torn("wiki", dir, w.vfs.recovery());
        w.vfs.mkdir_p("/pages", &Vfs::anonymous_ctx())?;
        Ok(w)
    }

    /// Folds the write-ahead log into a fresh tree snapshot.
    pub fn checkpoint(&self) -> Result<(), VfsError> {
        self.vfs.checkpoint()
    }

    /// True if `name` exists as a page directory.
    pub fn has_page(&self, name: &str) -> bool {
        self.vfs.is_dir(&Self::page_dir(name))
    }

    fn page_dir(name: &str) -> String {
        format!("/pages/{name}")
    }

    /// Creates a page with an ACL and initial content.
    pub fn create_page(&mut self, name: &str, acl: Acl, body: &str, author: &str) {
        let ctx = Vfs::user_ctx(author);
        self.vfs
            .mkdir_p(&Self::page_dir(name), &Vfs::anonymous_ctx())
            .expect("page dir");
        if self.resin {
            // Write-ACL assertion: a persistent filter on the page directory.
            let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(acl.clone()));
            self.vfs
                .attach_filter(&Self::page_dir(name), &filter)
                .expect("filter");
        }
        self.vfs
            .set_xattr(&Self::page_dir(name), "user.moin.acl", &acl.encode())
            .expect("acl xattr");
        self.update_body(name, body, &ctx).expect("initial version");
    }

    fn page_acl(&self, name: &str) -> Acl {
        self.vfs
            .get_xattr(&Self::page_dir(name), "user.moin.acl")
            .ok()
            .flatten()
            .and_then(|s| Acl::decode(&s))
            .unwrap_or_default()
    }

    /// Saves a new version of a page (Figure 5's `update_body`): with
    /// RESIN the body gets a [`PagePolicy`] carrying the page's ACL right
    /// before it flows into the file system.
    pub(crate) fn update_body(
        &mut self,
        name: &str,
        body: &str,
        ctx: &Context,
    ) -> Result<(), VfsError> {
        let mut text = TaintedString::from(body);
        if self.resin {
            text.add_policy(Arc::new(PagePolicy::new(self.page_acl(name))));
        }
        let dir = Self::page_dir(name);
        let version = self
            .vfs
            .list_dir(&dir)
            .map(|entries| entries.len() + 1)
            .unwrap_or(1);
        self.vfs
            .write_file(&format!("{dir}/v{version}"), &text, ctx)
    }

    fn latest_version(&self, name: &str) -> Result<String, VfsError> {
        let dir = Self::page_dir(name);
        let entries = self.vfs.list_dir(&dir)?;
        let last = entries
            .iter()
            .filter(|(n, is_dir)| !is_dir && n.starts_with('v'))
            .map(|(n, _)| n.clone())
            .max_by_key(|n| n[1..].parse::<u64>().unwrap_or(0))
            .ok_or_else(|| VfsError::NotFound(format!("{dir}: no versions")))?;
        Ok(format!("{dir}/{last}"))
    }

    /// Renders a page to the viewer — the *correct* path, which performs
    /// MoinMoin's own ACL check before reading.
    pub fn view_page(
        &self,
        name: &str,
        response: &mut Response,
        user: &str,
    ) -> Result<(), VfsError> {
        if !self.page_acl(name).may(user, Right::Read) {
            response.set_status(403);
            return response
                .echo_str("insufficient access")
                .map_err(VfsError::Policy);
        }
        self.render_raw(name, response, user)
    }

    /// The *vulnerable* raw endpoint: no ACL check.
    pub fn view_page_raw(
        &self,
        name: &str,
        response: &mut Response,
        user: &str,
    ) -> Result<(), VfsError> {
        self.render_raw(name, response, user)
    }

    fn render_raw(&self, name: &str, response: &mut Response, user: &str) -> Result<(), VfsError> {
        let path = self.latest_version(name)?;
        let body = self.vfs.read_file(&path, &Vfs::user_ctx(user))?;
        response.echo(body).map_err(VfsError::Policy)
    }

    /// The rst-include bug (CVE-2008-6548): rendering `host` inlines the
    /// body of `included` while only checking `host`'s ACL.
    pub fn view_page_with_include(
        &self,
        host: &str,
        included: &str,
        response: &mut Response,
        user: &str,
    ) -> Result<(), VfsError> {
        if !self.page_acl(host).may(user, Right::Read) {
            response.set_status(403);
            return response
                .echo_str("insufficient access")
                .map_err(VfsError::Policy);
        }
        let host_body = self
            .vfs
            .read_file(&self.latest_version(host)?, &Vfs::user_ctx(user))?;
        // BUG: the included page's ACL is never consulted.
        let inc_body = self
            .vfs
            .read_file(&self.latest_version(included)?, &Vfs::user_ctx(user))?;
        let mut combined = host_body;
        combined.push_str("\n--- included ---\n");
        combined.push_tainted(&inc_body);
        response.echo(combined).map_err(VfsError::Policy)
    }

    /// Attempts to vandalize a page as `user` (exercises the write ACL).
    pub fn edit_page(&mut self, name: &str, body: &str, user: &str) -> Result<(), VfsError> {
        self.update_body(name, body, &Vfs::user_ctx(user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiki(resin: bool) -> MoinWiki {
        let mut w = MoinWiki::new(resin);
        w.create_page(
            "PublicPage",
            Acl::new()
                .grant("*", &[Right::Read])
                .grant("alice", &[Right::Write]),
            "welcome all",
            "alice",
        );
        w.create_page(
            "SecretPlans",
            Acl::new().grant("alice", &[Right::Read, Right::Write]),
            "the secret plans",
            "alice",
        );
        w
    }

    #[test]
    fn acl_allows_authorized_reader() {
        let w = wiki(true);
        let mut r = Response::for_user("alice");
        w.view_page("SecretPlans", &mut r, "alice").unwrap();
        assert!(r.body().contains("secret plans"));
    }

    #[test]
    fn app_check_denies_outsider() {
        let w = wiki(true);
        let mut r = Response::for_user("mallory");
        w.view_page("SecretPlans", &mut r, "mallory").unwrap();
        assert_eq!(r.status(), 403);
    }

    #[test]
    fn raw_endpoint_blocked_by_assertion() {
        let w = wiki(true);
        let mut r = Response::for_user("mallory");
        let err = w
            .view_page_raw("SecretPlans", &mut r, "mallory")
            .unwrap_err();
        assert!(err.is_violation());
        assert!(!r.body().contains("secret plans"));
    }

    #[test]
    fn raw_endpoint_leaks_without_resin() {
        let w = wiki(false);
        let mut r = Response::for_user("mallory");
        w.view_page_raw("SecretPlans", &mut r, "mallory").unwrap();
        assert!(r.body().contains("secret plans"), "CVE reproduced");
    }

    #[test]
    fn include_bug_blocked_by_assertion() {
        // Mallory can read PublicPage, which includes SecretPlans.
        let w = wiki(true);
        let mut r = Response::for_user("mallory");
        let err = w
            .view_page_with_include("PublicPage", "SecretPlans", &mut r, "mallory")
            .unwrap_err();
        assert!(err.is_violation());
        assert!(!r.body().contains("secret plans"));
    }

    #[test]
    fn include_bug_leaks_without_resin() {
        let w = wiki(false);
        let mut r = Response::for_user("mallory");
        w.view_page_with_include("PublicPage", "SecretPlans", &mut r, "mallory")
            .unwrap();
        assert!(r.body().contains("secret plans"));
    }

    #[test]
    fn include_allowed_for_authorized_reader() {
        let w = wiki(true);
        let mut r = Response::for_user("alice");
        w.view_page_with_include("PublicPage", "SecretPlans", &mut r, "alice")
            .unwrap();
        assert!(r.body().contains("welcome all"));
        assert!(r.body().contains("secret plans"));
    }

    #[test]
    fn write_acl_blocks_vandalism() {
        let mut w = wiki(true);
        let err = w
            .edit_page("SecretPlans", "defaced", "mallory")
            .unwrap_err();
        assert!(err.is_violation());
        // Alice can still edit.
        w.edit_page("SecretPlans", "v2 content", "alice").unwrap();
        let mut r = Response::for_user("alice");
        w.view_page("SecretPlans", &mut r, "alice").unwrap();
        assert!(r.body().contains("v2 content"));
    }

    #[test]
    fn write_acl_absent_without_resin() {
        let mut w = wiki(false);
        w.edit_page("SecretPlans", "defaced", "mallory").unwrap();
        let mut r = Response::for_user("alice");
        w.view_page("SecretPlans", &mut r, "alice").unwrap();
        assert!(r.body().contains("defaced"));
    }

    #[test]
    fn public_page_readable_by_all() {
        let w = wiki(true);
        let mut r = Response::for_user("anyone");
        w.view_page("PublicPage", &mut r, "anyone").unwrap();
        assert!(r.body().contains("welcome all"));
    }
}
