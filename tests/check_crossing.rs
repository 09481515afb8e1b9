//! A script policy's check that panics costs its own request and nothing
//! after it: `serve_request` confines the panic, the evaluator the check
//! had taken from the thread's pool is lost with it, and the next request
//! on the same thread builds a new one and is judged correctly.

use std::collections::BTreeMap;
use std::sync::Arc;

use resin::core::{FlowError, TaintedString};
use resin::lang::ast::StmtKind;
use resin::lang::{parse_program, PValue, ScriptPolicy};
use resin::web::{serve_request, Request, Response};

/// The armed instance indexes a string in the middle of a two-byte
/// character, which panics inside the VM's `GetIndex` (a slice off a char
/// boundary); the other one is an owner check.
const SRC: &str = r#"
class Panicky {
    fn export_check(context) {
        if (this.armed) { let s = "é"; return s[0]; }
        if (context["user"] != "alice") { throw "not alice"; }
    }
}
"#;

fn guarded(text: &str, armed: bool) -> TaintedString {
    let class = parse_program(SRC)
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
