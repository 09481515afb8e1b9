//! A policy check that panics costs its own request and nothing after it:
//! `serve_request` confines the panic, and the next request on the same
//! thread is judged correctly, script policies included. A script that
//! used to abort the process — whatever no `catch_unwind` confines — is
//! refused instead.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use resin::apps::scriptinj::ScriptHost;
use resin::core::{Context, FlowError, GateKind, Policy, PolicyViolation, Runtime, TaintedString};
use resin::lang::ast::StmtKind;
use resin::lang::{parse_program, PValue, ScriptPolicy};
use resin::web::{serve_request, Request, Response};

/// The armed instance sends mail, which a check may not: the crossing has
/// no host, and refuses `email` as a violation; the other one is an owner
/// check.
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

/// A check that exports data guarded by another instance of its class,
/// one level deeper each time. Nested on the native stack, one crossing
/// inside the other, 100 000 levels overflowed it and aborted the process.
const REENT: &str = r#"
class Reent {
    fn init(depth) { this.depth = depth; }
    fn export_check(context) {
        if (this.depth > 0) { echo(policy_add("nested", new Reent(this.depth - 1))); }
        if (context["type"] != "http") { throw "not http"; }
    }
}
"#;

/// A native policy whose check panics, as a bug in Rust-side policy code
/// would.
#[derive(Debug)]
struct Panics;

impl Policy for Panics {
    fn name(&self) -> &str {
        "Panics"
    }

    fn export_check(&self, _: &Context) -> Result<(), PolicyViolation> {
        panic!("the policy's own code is broken")
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An upload that `scriptinj`'s unarmed host runs when it is requested: a
/// policy whose field is a list holding itself.
const SELF_HOLDING: &str = r#"class P { fn init(f) { this.f = f; } fn export_check(c) { if (c["type"] == "email") { return; } throw "no"; } } let a = [1]; push(a, a); policy_add("x", new P(a));"#;

fn guarded(text: &str, armed: bool) -> TaintedString {
    guarded_by(SRC, text, armed)
}

fn guarded_by(src: &str, text: &str, armed: bool) -> TaintedString {
    guarded_with(src, text, "armed", PValue::Bool(armed))
}

fn guarded_with(src: &str, text: &str, field: &str, value: PValue) -> TaintedString {
    let class = parse_program(src)
        .expect("policy parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("class decl");
    let fields = BTreeMap::from([(field.to_string(), value)]);
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
    let safe = guarded("for alice", false);
    let armed = guarded("never shown", true);
    let mut panics = TaintedString::from("never shown");
    panics.add_policy(Arc::new(Panics));
    let app = move |req: &Request, resp: &mut Response| -> Result<(), FlowError> {
        let user = req.param_or_empty("user");
        resp.gate_mut().context_mut().set_str("user", user.as_str());
        match req.path() {
            "/panics" => resp.echo_ref(&panics),
            "/armed" => resp.echo_ref(&armed),
            _ => resp.echo_ref(&safe),
        }
    };
    let get =
        |path: &str, user: &str| serve_request(&app, &Request::get(path).with_param("user", user));

    let page = get("/safe", "alice");
    assert_eq!((page.status, page.body.as_str()), (200, "for alice"));
    for _ in 0..3 {
        let page = get("/panics", "alice");
        assert_eq!((page.status, page.body.as_str()), (500, ""));
        // The armed script reaches for the mail gate, and is refused.
        let page = get("/armed", "alice");
        let err = page.outcome.expect_err("the armed check is refused");
        assert!(
            err.is_violation() && err.to_string().contains("builtin `email` is refused"),
            "{err}"
        );
        assert_eq!(page.body, "");
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
fn a_check_that_would_nest_crossings_is_refused_not_aborted() {
    let deep = || guarded_with(REENT, "never shown", "depth", PValue::Int(100_000));
    // Through a bare gate, with nothing to confine a panic.
    let mut gate = Runtime::global().open(GateKind::Http);
    let err = gate.write(deep()).expect_err("the check is refused");
    assert!(err.is_violation(), "{err}");
    assert!(
        err.to_string()
            .contains("policy error: builtin `echo` is refused inside a policy check"),
        "{err}"
    );
    assert_eq!(gate.output_text(), "");
    // And through a request.
    let data = deep();
    let app = move |_: &Request, resp: &mut Response| resp.echo_ref(&data);
    let page = serve_request(&app, &Request::get("/"));
    let err = page.outcome.expect_err("refused");
    assert!(
        err.to_string().contains("builtin `echo` is refused"),
        "{err}"
    );
    assert_eq!(page.body, "");
    // An instance with nothing to nest is judged by its channel alone.
    let flat = guarded_with(REENT, "shown", "depth", PValue::Int(0));
    let app = move |_: &Request, resp: &mut Response| resp.echo_ref(&flat);
    let page = serve_request(&app, &Request::get("/"));
    assert_eq!((page.status, page.body.as_str()), (200, "shown"));
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
