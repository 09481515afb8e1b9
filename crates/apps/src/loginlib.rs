//! The myPHPscripts login-session library (§6.3).
//!
//! The library stores its users' passwords in a **plain-text file inside
//! the HTTP-accessible directory** that also holds the library's script
//! files (CVE-2008-5855). The exploit is trivial: request the password
//! file with a browser.
//!
//! The RESIN assertion is essentially the HotCRP password policy without
//! the email-reminder path ([`PasswordPolicy::strict`], 6 lines in the
//! paper): passwords are annotated when accounts are created, persistent
//! policies ride into the password file via the file filter, and a
//! RESIN-aware web server (§3.4.1) fails the `export_check` when the file
//! is fetched over HTTP.

use std::sync::Arc;

use resin_core::{PasswordPolicy, TaintedString, Tracking};
use resin_vfs::{Vfs, VfsError};
use resin_web::{serve_static_aware, serve_static_naive, Response};

/// Lines of the password assertion.
pub(crate) const ASSERTION_LOC: usize = 6;

/// Path of the world-readable password file (inside the web root).
pub(crate) const PASSWORD_FILE: &str = "/htdocs/login/users.txt";

/// The login library plus the web root it is installed into.
pub(crate) struct LoginLib {
    /// The site's filesystem (web root at `/htdocs`).
    pub(crate) vfs: Vfs,
    resin: bool,
}

impl LoginLib {
    /// Installs the library. `resin` enables the password assertion and
    /// makes the static file server RESIN-aware.
    pub(crate) fn new(resin: bool) -> Self {
        let vfs = Vfs::with_mode(if resin { Tracking::On } else { Tracking::Off });
        let mut lib = LoginLib { vfs, resin };
        lib.vfs
            .mkdir_p("/htdocs/login", &Vfs::anonymous_ctx())
            .expect("init");
        lib.vfs
            .write_file(PASSWORD_FILE, &TaintedString::new(), &Vfs::anonymous_ctx())
            .expect("password file");
        lib
    }

    /// Registers a user: appends `user:password` to the plain-text file.
    pub(crate) fn register(
        &mut self,
        user: &str,
        email: &str,
        password: &str,
    ) -> Result<(), VfsError> {
        let mut line = TaintedString::from(format!("{user}:"));
        let mut pw = TaintedString::from(password);
        if self.resin {
            pw.add_policy(Arc::new(PasswordPolicy::strict(email)));
        }
        line.push_tainted(&pw);
        line.push_str("\n");
        self.vfs
            .append_file(PASSWORD_FILE, &line, &Vfs::anonymous_ctx())
    }

    /// Verifies a login (the library's intended use — reads the file
    /// *inside* the runtime, so no boundary is crossed).
    #[cfg(test)]
    pub(crate) fn check_login(&self, user: &str, password: &str) -> Result<bool, VfsError> {
        let data = self.vfs.read_file(PASSWORD_FILE, &Vfs::anonymous_ctx())?;
        let needle = format!("{user}:{password}");
        Ok(data.lines().iter().any(|l| l.as_str() == needle))
    }

    /// The exploit: an HTTP GET for the password file, served by the web
    /// server. `aware` selects the RESIN-aware server vs a stock one.
    pub(crate) fn fetch_password_file(
        &self,
        response: &mut Response,
        aware: bool,
    ) -> Result<(), VfsError> {
        if aware {
            serve_static_aware(&self.vfs, PASSWORD_FILE, response)
        } else {
            serve_static_naive(&self.vfs, PASSWORD_FILE, response)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(resin: bool) -> LoginLib {
        let mut l = LoginLib::new(resin);
        l.register("victim", "victim@foo.com", "hunter2").unwrap();
        l.register("other", "other@foo.com", "passw0rd").unwrap();
        l
    }

    #[test]
    fn login_check_works() {
        let l = lib(true);
        assert!(l.check_login("victim", "hunter2").unwrap());
        assert!(!l.check_login("victim", "wrong").unwrap());
        assert!(!l.check_login("nobody", "hunter2").unwrap());
    }

    #[test]
    fn fetch_blocked_by_resin_aware_server() {
        let l = lib(true);
        let mut r = Response::new();
        let err = l.fetch_password_file(&mut r, true).unwrap_err();
        assert!(err.is_violation());
        assert!(!r.body().contains("hunter2"));
    }

    #[test]
    fn fetch_leaks_via_naive_server() {
        // Stock web server, or assertions disabled: CVE-2008-5855.
        let l = lib(true);
        let mut r = Response::new();
        l.fetch_password_file(&mut r, false).unwrap();
        assert!(r.body().contains("hunter2"));

        let l2 = lib(false);
        let mut r2 = Response::new();
        l2.fetch_password_file(&mut r2, true).unwrap();
        assert!(r2.body().contains("hunter2"), "no policies persisted");
    }

    #[test]
    fn strict_policy_blocks_even_chair() {
        let l = lib(true);
        let mut r = Response::new();
        r.set_priv_chair(true);
        let err = l.fetch_password_file(&mut r, true).unwrap_err();
        assert!(err.is_violation(), "myPHPscripts has no chair exception");
    }

    #[test]
    fn only_password_bytes_carry_policy() {
        let l = lib(true);
        let data = l
            .vfs
            .read_file(PASSWORD_FILE, &Vfs::anonymous_ctx())
            .unwrap();
        // "victim:" prefix is unlabeled; the password bytes are labeled.
        assert!(data.label_at(0).is_empty());
        let idx = data.as_str().find("hunter2").unwrap();
        assert!(data.label_at(idx).has::<PasswordPolicy>());
    }
}
