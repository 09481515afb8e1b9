//! A script policy's check that panics costs its own request and nothing
//! after it: `serve_request` confines the panic, the evaluator the check
//! had taken from the thread's pool is lost with it, and the next request
//! on the same thread builds a new one and is judged correctly. A script
//! that used to abort the process — whatever no `catch_unwind` confines —
//! is refused instead.

use std::collections::BTreeMap;
use std::sync::Arc;

use resin::apps::scriptinj::ScriptHost;
use resin::core::{FlowError, Gate, GateKind, Runtime, TaintedString};
use resin::lang::ast::StmtKind;
use resin::lang::{parse_program, PValue, ScriptPolicy};
use resin::web::{serve_request, Request, Response};

/// The armed instance sends mail, and this process's email gate cannot be
/// opened: its factory panics, inside the VM's builtin call, inside the
/// crossing (no script can panic the evaluator by itself any more — see
/// the tests below); the other one is an owner check.
const SRC: &str = r#"
class Panicky {
    fn export_check(context) {
        if (this.armed) { email("ops@example.org", "armed"); }
        if (context["user"] != "alice") { throw "not alice"; }
    }
}
"#;

/// What used to panic the host thread from a script: a string index off a
/// character boundary, and the one integer quotient that does not fit.
const FORMERLY_PANICKING: &str = r#"
class Hostile {
    fn export_check(context) {
        if (this.armed) { let s = "é"; return s[0]; }
        let min = 0 - 9223372036854775807 - 1;
        return min / (0 - 1);
    }
}
"#;

/// A check whose refusal renders a container holding itself.
const CYCLIC: &str = r#"
class Cyclic {
    fn export_check(context) {
        if (this.armed) { let a = [1]; push(a, a); throw str(a); }
        let m = map();
        m["n"] = 2;
        m["self"] = m;
        throw str(m);
    }
}
"#;

/// An upload that `scriptinj`'s unarmed host runs when it is requested: a
/// policy whose field is a list holding itself.
const SELF_HOLDING: &str = r#"class P { fn init(f) { this.f = f; } fn export_check(c) { if (c["type"] == "email") { return; } throw "no"; } } let a = [1]; push(a, a); policy_add("x", new P(a));"#;

fn guarded(text: &str, armed: bool) -> TaintedString {
    guarded_by(SRC, text, armed)
}

fn guarded_by(src: &str, text: &str, armed: bool) -> TaintedString {
    let class = parse_program(src)
        .expect("policy parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("class decl");
    let mut fields = BTreeMap::new();
    fields.insert("armed".to_string(), PValue::Bool(armed));
    let mut s = TaintedString::from(text);
    s.add_policy(Arc::new(ScriptPolicy::new(
        class.name.clone(),
        fields,
        Some(class),
    )));
    s
}

#[test]
fn a_panicking_check_is_confined_to_its_request() {
    Runtime::global()
        .registry()
        .register(GateKind::Email, || -> Gate {
            panic!("the mail gate is down")
        });
    let safe = guarded("for alice", false);
    let armed = guarded("never shown", true);
    let app = move |req: &Request, resp: &mut Response| -> Result<(), FlowError> {
        let user = req.param_or_empty("user");
        resp.gate_mut().context_mut().set_str("user", user.as_str());
        match req.path() {
            "/armed" => resp.echo_ref(&armed),
            _ => resp.echo_ref(&safe),
        }
    };
    let get =
        |path: &str, user: &str| serve_request(&app, &Request::get(path).with_param("user", user));

    let page = get("/safe", "alice");
    assert_eq!((page.status, page.body.as_str()), (200, "for alice"));
    for _ in 0..3 {
        let page = get("/armed", "alice");
        assert_eq!((page.status, page.body.as_str()), (500, ""));
        // The thread keeps serving, and keeps serving correct verdicts.
        let page = get("/safe", "alice");
        assert_eq!((page.status, page.body.as_str()), (200, "for alice"));
        let page = get("/safe", "mallory");
        let err = page.outcome.expect_err("mallory is refused");
        assert!(
            err.is_violation() && err.to_string().contains("not alice"),
            "{err}"
        );
        assert_eq!(page.body, "");
    }
}

#[test]
fn a_hostile_script_is_refused_not_unwound() {
    // Through a bare gate, with nothing to confine a panic: both checks
    // fail closed as policy errors and the thread goes on.
    for (armed, error) in [
        (true, "string index not on a character boundary"),
        (false, "integer overflow"),
    ] {
        let data = guarded_by(FORMERLY_PANICKING, "never shown", armed);
        let mut gate = Runtime::global().open(GateKind::Http);
        let err = gate.write(data).expect_err("the check fails closed");
        assert!(err.is_violation(), "{err}");
        assert!(
            err.to_string().contains(&format!("policy error: {error}")),
            "{err}"
        );
        assert_eq!(gate.output_text(), "");
    }
    // And through a request: a refusal with its reason, not a 500.
    let armed = guarded_by(FORMERLY_PANICKING, "never shown", true);
    let app = move |_: &Request, resp: &mut Response| resp.echo_ref(&armed);
    let page = serve_request(&app, &Request::get("/"));
    let err = page.outcome.expect_err("refused");
    assert!(err.to_string().contains("character boundary"), "{err}");
    assert_eq!(page.body, "");
}

#[test]
fn a_container_holding_itself_renders_into_the_refusal() {
    for (armed, text) in [(true, "[1, [...]]"), (false, "{n: 2, self: {...}}")] {
        // Through a bare gate.
        let data = guarded_by(CYCLIC, "never shown", armed);
        let mut gate = Runtime::global().open(GateKind::Http);
        let err = gate.write(data).expect_err("the check refuses");
        assert!(err.is_violation(), "{err}");
        assert!(err.to_string().contains(text), "{err}");
        assert_eq!(gate.output_text(), "");
        // And through a request.
        let data = guarded_by(CYCLIC, "never shown", armed);
        let app = move |_: &Request, resp: &mut Response| resp.echo_ref(&data);
        let page = serve_request(&app, &Request::get("/"));
        let err = page.outcome.expect_err("refused");
        assert!(err.to_string().contains(text), "{err}");
        assert_eq!(page.body, "");
    }
}

#[test]
fn a_policy_field_holding_itself_is_refused_through_a_request() {
    let app = |req: &Request, resp: &mut Response| -> Result<(), FlowError> {
        let mut host = ScriptHost::new(false);
        host.upload("shell.rsl", req.param_or_empty("script").as_str());
        match host.http_request_script("/uploads/shell.rsl") {
            Ok(()) => resp.echo_str("ran"),
            Err(e) => resp.echo_str(&e.message),
        }
    };
    let page = serve_request(&app, &Request::get("/").with_param("script", SELF_HOLDING));
    assert_eq!(page.status, 200);
    assert!(
        page.body
            .ends_with("policy field `f` is not a persistable scalar"),
        "{}",
        page.body
    );
}
