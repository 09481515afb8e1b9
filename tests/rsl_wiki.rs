//! An end-to-end mini-application written *in RSL*: a wiki whose read-ACL
//! assertion is a script-defined policy class (the paper's core claim that
//! programmers write policies in the application's own language, reusing
//! its data structures).

use resin::core::Tracking;
use resin::lang::Interp;

const WIKI_APP: &str = r#"
    # A tiny wiki. Pages live in /wiki; each page body carries a PagePolicy
    # with a comma-separated reader list — written in the same language as
    # the app, reusing its own helper (may_read).

    class PagePolicy {
        fn init(readers) { this.readers = readers; }
        fn may_read(user) {
            let names = split(this.readers, ",");
            let i = 0;
            while (i < len(names)) {
                if (names[i] == user || names[i] == "*") { return true; }
                i = i + 1;
            }
            return false;
        }
        fn export_check(context) {
            if (this.may_read(context["user"])) { return; }
            throw "insufficient access";
        }
    }

    fn save_page(name, body, readers) {
        let labeled = policy_add(body, new PagePolicy(readers));
        file_write("/wiki/" + name, labeled);
    }

    fn view_page(name) {
        echo(file_read("/wiki/" + name));
    }

    mkdir("/wiki");
    save_page("Front", "welcome all", "*");
    save_page("Secret", "the plans", "alice");
"#;

fn wiki() -> Interp {
    let mut i = Interp::new();
    i.run(WIKI_APP).expect("app boots");
    i
}

#[test]
fn authorized_reader_sees_page() {
    let mut w = wiki();
    w.run(r#"set_user("alice"); view_page("Secret");"#).unwrap();
    assert_eq!(w.http_output(), "the plans");
}

#[test]
fn unauthorized_reader_blocked() {
    let mut w = wiki();
    let err = w
        .run(r#"set_user("mallory"); view_page("Secret");"#)
        .unwrap_err();
    assert!(err.violation, "{err}");
    assert_eq!(w.http_output(), "");
}

#[test]
fn wildcard_page_readable_by_all() {
    let mut w = wiki();
    w.run(r#"set_user("mallory"); view_page("Front");"#)
        .unwrap();
    assert_eq!(w.http_output(), "welcome all");
}

#[test]
fn policy_survives_storage_hop() {
    // The script policy is serialized into the file xattr and revived —
    // a fresh read in a different request context still enforces it.
    let mut w = wiki();
    w.run(r#"set_user("alice");"#).unwrap();
    w.run(r#"let peek = policy_get(file_read("/wiki/Secret"));"#)
        .unwrap();
    let err = w
        .run(r#"set_user("eve"); view_page("Secret");"#)
        .unwrap_err();
    assert!(err.violation);
}

#[test]
fn unmodified_interpreter_leaks() {
    let mut w = Interp::with_tracking(Tracking::Off);
    w.run(WIKI_APP).unwrap();
    w.run(r#"set_user("mallory"); view_page("Secret");"#)
        .unwrap();
    assert_eq!(w.http_output(), "the plans", "no tracking, no protection");
}

#[test]
fn derived_copies_stay_protected() {
    // A summary built by string ops from the page body keeps the policy —
    // data tracking, not access control on names.
    let mut w = wiki();
    let err = w
        .run(
            r#"set_user("mallory");
               let body = file_read("/wiki/Secret");
               let summary = "Summary: " + substr(body, 0, 8) + "...";
               echo(summary);"#,
        )
        .unwrap_err();
    assert!(err.violation);
}
