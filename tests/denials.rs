//! A denial is a record, not prose: no violation quotes the data it
//! refused.
//!
//! Every site kind that raises a [`PolicyViolation`] is driven here over
//! an input that carries a secret — in the refused data, in the viewer's
//! name, in a file path, in a script's thrown value — and neither the
//! violation's `Display` nor its `Debug` may hold a byte run of it. An
//! operator reads a denial in a log or an error page; what it names is
//! the policy, the reason, the byte range and the channel.

use std::sync::Arc;

use resin::core::{
    Acl, Context, FlowError, Gate, GateKind, PagePolicy, PasswordPolicy, Policy, PolicyViolation,
    Reason, Right, TaintedString, Thrown,
};
use resin::lang::ast::StmtKind;
use resin::lang::{parse_program, Interp, ScriptPolicy};
use resin::sql::{GuardMode, ResinDb, SqlError, Tracking};
use resin::vfs::pfilter::{AclWriteFilter, PersistentFilterRef};
use resin::vfs::{Vfs, VfsError};
use resin::web::check_json_structure;
use resin::web::request::untrusted;
use resin::web::{check_html_markers, check_html_structure, Response};

const SECRET: &str = "zq-s3cret-71";

/// Fails if any 6-byte run of the secret shows in `shown`.
fn assert_quotes_nothing(shown: &str) {
    for run in SECRET.as_bytes().windows(6) {
        let run = std::str::from_utf8(run).unwrap();
        assert!(!shown.contains(run), "`{run}` shown in {shown}");
    }
}

/// The violation `e` is, shown both ways without the secret.
fn denial(e: &FlowError) -> PolicyViolation {
    let v = e.as_violation().expect("a violation").clone();
    assert_quotes_nothing(&format!("{v} {v:?} {e} {e:?}"));
    v
}

fn sql_denial(e: SqlError) -> PolicyViolation {
    let SqlError::Policy(flow) = e else {
        panic!("expected a denial, got {e:?}");
    };
    denial(&flow)
}

fn secret_payload() -> TaintedString {
    untrusted(
        format!("<b onclick=\"{SECRET}\">{SECRET}</b>"),
        "http_param",
    )
}

#[test]
fn a_gate_deny_rule_and_a_password_policy_quote_nothing() {
    let pw = TaintedString::with_policy(SECRET, Arc::new(PasswordPolicy::new(SECRET)));
    let gate = Gate::internal("auth").deny::<PasswordPolicy>();
    let v = denial(&gate.export(pw.clone()).unwrap_err());
    assert_eq!(
        v.reason,
        Reason::DenyRule(std::any::type_name::<PasswordPolicy>())
    );
    // The policy's own field, its owner's address, is data too.
    let v = denial(&Gate::new(GateKind::Http).write(pw).unwrap_err());
    assert_eq!(
        (v.policy.as_ref(), v.channel),
        ("PasswordPolicy", Some(GateKind::Http))
    );
}

#[test]
fn a_page_policy_does_not_name_its_viewer() {
    let page = TaintedString::with_policy(
        "minutes",
        Arc::new(PagePolicy::new(Acl::new().grant("alice", &[Right::Read]))),
    );
    let mut resp = Response::for_user(SECRET);
    let v = denial(&resp.echo(page.clone()).unwrap_err());
    assert_eq!(
        (v.policy.as_ref(), &v.reason),
        ("PagePolicy", &Reason::NotOnAcl)
    );
    let v = denial(&Response::new().echo(page).unwrap_err());
    assert_eq!(v.reason, Reason::NoUser);
}

#[test]
fn a_write_filter_names_neither_the_path_nor_the_writer() {
    let mut fs = Vfs::new();
    let root = Vfs::user_ctx("alice");
    fs.mkdir_p("/w", &root).unwrap();
    let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(
        Acl::new().grant("alice", &[Right::Write]),
    ));
    fs.attach_filter("/w", &filter).unwrap();
    let path = format!("/w/{SECRET}");
    let data = TaintedString::from("text");
    for ctx in [Vfs::user_ctx(SECRET), Vfs::anonymous_ctx()] {
        let err = fs.write_file(&path, &data, &ctx).unwrap_err();
        let VfsError::Policy(flow) = &err else {
            panic!("expected a denial, got {err:?}");
        };
        let v = denial(flow);
        assert_eq!(v.policy, "AclWriteFilter");
        assert_quotes_nothing(&format!("{err} {err:?}"));
    }
    assert!(fs.write_file(&path, &data, &root).is_ok());
}

#[test]
fn the_injection_guards_name_a_range_not_the_payload() {
    let mut page = TaintedString::from("<p>");
    page.push_tainted(&secret_payload());
    page.push_str("</p>");
    let v = denial(&check_html_markers(&page).unwrap_err());
    assert_eq!(
        (v.reason, v.at),
        (Reason::Unsanitized, Some(3..page.len() - 4))
    );
    let v = denial(&check_html_structure(&page).unwrap_err());
    assert_eq!((v.reason, v.at), (Reason::InStructure, Some(3..4)));

    let mut json = TaintedString::from("{\"k\":");
    json.push_tainted(&untrusted(format!("1,\"{SECRET}\":2"), "http_body"));
    json.push_str("}");
    let v = denial(&check_json_structure(&json).unwrap_err());
    assert_eq!(
        (v.policy.as_ref(), v.reason),
        ("JsonGuard", Reason::InStructure)
    );

    for mode in [GuardMode::MarkerCheck, GuardMode::StructureCheck] {
        let db = ResinDb::with_modes(Tracking::On, mode);
        db.query_str("CREATE TABLE users (name TEXT, pw TEXT)")
            .unwrap();
        let mut q = TaintedString::from("SELECT pw FROM users WHERE name = '");
        q.push_tainted(&untrusted(
            format!("x' OR '{SECRET}'='{SECRET}"),
            "http_param",
        ));
        q.push_str("'");
        let v = sql_denial(db.query(&q).unwrap_err());
        assert_eq!(v.policy, "SqlGuard");
    }
}

#[test]
fn a_split_header_names_the_delimiter_not_the_smuggled_head() {
    let mut value = TaintedString::from("en");
    value.push_tainted(&untrusted(
        format!("\r\n\r\nSet-Cookie: {SECRET}"),
        "http_header",
    ));
    let v = denial(
        &Response::new()
            .set_header("Content-Language", value)
            .unwrap_err(),
    );
    assert_eq!((v.reason, v.at), (Reason::HeaderDelimiter, Some(2..6)));
}

/// A script policy whose check throws `thrown`.
fn thrower(thrown: &str) -> ScriptPolicy {
    let src = format!("class Thrower {{ fn export_check(context) {{ throw {thrown}; }} }}");
    let class = parse_program(&src)
        .unwrap()
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .unwrap();
    ScriptPolicy::new(class.name.clone(), Default::default(), Some(class))
}

#[test]
fn a_script_throw_keeps_only_a_short_unlabelled_text() {
    let ctx = Context::new(GateKind::Http);
    let threw = |thrown: &str| {
        let policy = thrower(thrown);
        let v = policy.export_check(&ctx).unwrap_err();
        assert_eq!(v.policy, "Thrower");
        let data = TaintedString::with_policy("data", Arc::new(thrower(thrown)));
        denial(&Gate::new(GateKind::Http).write(data).unwrap_err());
        v.reason
    };
    // A labelled value is withheld: only its length is kept.
    let labelled = format!("policy_add(\"{SECRET}\", new Thrower())");
    assert_eq!(
        threw(&labelled),
        Reason::Threw(Thrown::Withheld(SECRET.len()))
    );
    // A long text is withheld even unlabelled.
    let long = format!("\"{}\"", SECRET.repeat(6));
    assert_eq!(
        threw(&long),
        Reason::Threw(Thrown::Withheld(SECRET.len() * 6))
    );
    // A short unlabelled text is the policy's stated reason.
    assert_eq!(
        threw("\"not the owner\""),
        Reason::Threw(Thrown::Text("not the owner".into()))
    );
}

#[test]
fn an_uncaught_throw_of_a_secret_quotes_nothing() {
    let err = Interp::new()
        .run(&format!(
            "class Secret {{ fn export_check(c) {{ throw \"no\"; }} }}
             let pw = policy_add(\"{SECRET}\", new Secret());
             throw pw;"
        ))
        .unwrap_err();
    assert!(!err.violation);
    assert_quotes_nothing(&format!("{err} {err:?}"));
    assert!(err.message.starts_with("uncaught exception: "), "{err}");
}

/// A script that stores `SECRET`, under a policy that refuses every
/// export, as a key of the map `m`, then runs `then`.
fn a_secret_key(then: &str) -> String {
    format!(
        "class Secret {{ fn export_check(c) {{ throw \"no\"; }} }}
         let pw = policy_add(\"{SECRET}\", new Secret());
         let m = map(); m[pw] = 1; {then}"
    )
}

/// After `more`, `shown` leaves the script as a value and crosses a bare
/// HTTP gate, and leaves through the script host's `echo`: both are
/// refused, quoting nothing, and the host writes nothing.
fn assert_a_secret_key_is_refused(more: &str, shown: &str) {
    let value = Interp::new().run(&a_secret_key(&format!("{more} {shown};")));
    let out = Gate::new(GateKind::Http).write(value.unwrap().to_tainted());
    assert_eq!(denial(&out.unwrap_err()).policy, "Secret");
    let mut host = Interp::new();
    let err = host.run(&a_secret_key(&format!("{more} echo({shown});")));
    let err = err.unwrap_err();
    assert!(err.violation, "{err}");
    assert_quotes_nothing(&format!("{err} {err:?}"));
    assert_eq!(host.http_output(), "");
}

#[test]
fn a_map_key_keeps_its_policy_through_keys() {
    assert_a_secret_key_is_refused("", "keys(m)[0]");
}

#[test]
fn a_map_key_keeps_its_policy_through_str() {
    assert_a_secret_key_is_refused("", "str(m)");
}

#[test]
fn a_map_key_stored_again_keeps_its_policy() {
    // The same text stored again, unlabelled, keeps the first key's label.
    let again = format!("m[\"{SECRET}\"] = 2;");
    assert_a_secret_key_is_refused(&again, "keys(m)[0]");
    assert_a_secret_key_is_refused(&again, "str(m)");
}
