//! Server-side script injection across five applications (§5.2, Figure 6,
//! Table 4's "many" row).
//!
//! The paper's single 12-line assertion — tag installed code with
//! `CodeApproval`, require the approval on every byte the interpreter
//! imports — prevents upload-and-execute vulnerabilities in five distinct
//! PHP applications. This module reproduces the attack shapes on the RSL
//! interpreter:
//!
//! * **theme include** — the app `include`s a user-chosen theme file;
//! * **double extension** — an upload named `x.php.jpg` ends up executed;
//! * **direct request** — the adversary uploads `shell.php` and requests
//!   it straight from the web server;
//! * **avatar upload** / **attachment mod** — same flaw, different entry
//!   points (phpBB attachment mod, Kwalbum, wPortfolio, AWStats Totals,
//!   phpMyAdmin from the paper's references).

use resin_core::Tracking;
use resin_lang::{Interp, LangError};

/// Lines of the script-injection assertion (one assertion, five apps).
pub(crate) const ASSERTION_LOC: usize = 12;

/// The five vulnerable applications of the paper's Table 4 "many" row.
#[cfg(test)]
pub(crate) const VULNERABLE_APPS: [&str; 5] = [
    "phpBB attachment mod (CVE-2004-1404)",
    "Kwalbum (CVE-2008-5677)",
    "AWStats Totals (CVE-2008-3922)",
    "phpMyAdmin (CVE-2008-4096)",
    "wPortfolio (CVE-2008-5220)",
];

/// A site running the RSL interpreter with an upload feature.
pub struct ScriptHost {
    /// The interpreter (owns the VFS and HTTP channel).
    pub interp: Interp,
}

impl ScriptHost {
    /// Installs the application code. `resin` arms the import filter.
    pub fn new(resin: bool) -> Self {
        let tracking = if resin { Tracking::On } else { Tracking::Off };
        let mut interp = Interp::with_tracking(tracking);
        interp
            .run(
                r#"mkdir("/app");
                   mkdir("/uploads");
                   file_write("/app/theme_default.rsl", "let theme = \"default\";");
                   file_write("/app/main.rsl", "let app_ok = 1;");"#,
            )
            .expect("install");
        if resin {
            // The developer tags installed code at install time and
            // overrides the interpreter's import filter *before any other
            // code executes* (the auto_prepend_file point of §5.2).
            interp
                .run(
                    r#"make_executable("/app/theme_default.rsl");
                       make_executable("/app/main.rsl");
                       require_code_approval();"#,
                )
                .expect("arm assertion");
        }
        interp.run(r#"import("/app/main.rsl");"#).expect("boot");
        let mut host = ScriptHost { interp };
        host.surface_lint_warnings();
        host
    }

    /// Drains and prints lint warnings accumulated by policy-class
    /// registration — the app-stderr half of the analyzer's fail-closed /
    /// surface split (error-severity diagnostics never get this far:
    /// registration already refused the class).
    fn surface_lint_warnings(&mut self) {
        for report in self.interp.take_lint_reports() {
            for d in &report.diagnostics {
                eprintln!("scriptinj: {}: {d}", report.class_name);
            }
        }
    }

    /// The upload feature: stores adversary-controlled content. Uploads
    /// are *data*, so they are never tagged with `CodeApproval`.
    pub fn upload(&mut self, filename: &str, content: &str) {
        let escaped = content.replace('\\', "\\\\").replace('"', "\\\"");
        self.interp
            .run(&format!(
                r#"file_write("/uploads/{filename}", "{escaped}");"#
            ))
            .expect("upload");
    }

    /// The theme-include vulnerability: loads a user-chosen theme path.
    pub(crate) fn load_theme(&mut self, theme_path: &str) -> Result<(), LangError> {
        let r = self
            .interp
            .run(&format!(r#"import("{theme_path}");"#))
            .map(|_| ());
        self.surface_lint_warnings();
        r
    }

    /// The direct-request vulnerability: the web server executes any
    /// requested file whose name ends in `.rsl` (the `.php` analogue).
    pub fn http_request_script(&mut self, path: &str) -> Result<(), LangError> {
        if !path.ends_with(".rsl") {
            return Err(LangError::new("static file, not executed"));
        }
        let r = self
            .interp
            .run(&format!(r#"import("{path}");"#))
            .map(|_| ());
        self.surface_lint_warnings();
        r
    }

    /// True if adversary code has run (it sets the `owned` global).
    pub(crate) fn compromised(&mut self) -> bool {
        self.interp
            .run("file_exists(\"/tmp_owned_marker\");")
            .ok()
            .map(|v| v.truthy())
            .unwrap_or(false)
    }
}

/// The adversary's payload: drops a marker proving code execution.
pub(crate) const PAYLOAD: &str = r#"file_write("/tmp_owned_marker", "owned");"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legit_theme_loads_either_way() {
        for resin in [false, true] {
            let mut s = ScriptHost::new(resin);
            s.load_theme("/app/theme_default.rsl").unwrap();
            assert!(!s.compromised());
        }
    }

    #[test]
    fn theme_include_attack_blocked_with_resin() {
        let mut s = ScriptHost::new(true);
        s.upload("evil_theme.rsl", PAYLOAD);
        let err = s.load_theme("/uploads/evil_theme.rsl").unwrap_err();
        assert!(err.violation, "{err}");
        assert!(!s.compromised());
    }

    #[test]
    fn theme_include_attack_succeeds_without_resin() {
        let mut s = ScriptHost::new(false);
        s.upload("evil_theme.rsl", PAYLOAD);
        s.load_theme("/uploads/evil_theme.rsl").unwrap();
        assert!(s.compromised(), "the upload executed");
    }

    #[test]
    fn direct_request_attack_blocked_with_resin() {
        let mut s = ScriptHost::new(true);
        s.upload("shell.rsl", PAYLOAD);
        let err = s.http_request_script("/uploads/shell.rsl").unwrap_err();
        assert!(err.violation);
        assert!(!s.compromised());
    }

    #[test]
    fn direct_request_attack_succeeds_without_resin() {
        let mut s = ScriptHost::new(false);
        s.upload("shell.rsl", PAYLOAD);
        s.http_request_script("/uploads/shell.rsl").unwrap();
        assert!(s.compromised());
    }

    #[test]
    fn double_extension_blocked_with_resin() {
        // x.jpg.rsl sneaks past naive extension checks but still lacks
        // CodeApproval.
        let mut s = ScriptHost::new(true);
        s.upload("cat.jpg.rsl", PAYLOAD);
        let err = s.http_request_script("/uploads/cat.jpg.rsl").unwrap_err();
        assert!(err.violation);
    }

    #[test]
    fn non_script_request_not_executed() {
        let mut s = ScriptHost::new(true);
        s.upload("cat.jpg", PAYLOAD);
        let err = s.http_request_script("/uploads/cat.jpg").unwrap_err();
        assert!(!err.violation, "just not a script");
        assert!(!s.compromised());
    }

    #[test]
    fn approved_code_still_imports_after_arming() {
        let mut s = ScriptHost::new(true);
        s.interp
            .run(r#"file_write("/app/extra.rsl", "let extra = 2;"); make_executable("/app/extra.rsl"); import("/app/extra.rsl");"#)
            .unwrap();
    }

    #[test]
    fn five_cves_listed() {
        assert_eq!(VULNERABLE_APPS.len(), 5);
    }
}
