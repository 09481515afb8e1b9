//! VM-backed script policies enforced at the HTTP gate.
//!
//! A `ScriptPolicy` written in RSL rides on response data; `Response`
//! exports cross a guarded http gate, which runs the policy's
//! `export_check` on the bytecode VM and allows or denies at a real
//! web-layer gate.

use std::collections::BTreeMap;
use std::sync::Arc;

use resin_core::TaintedString;
use resin_lang::ast::StmtKind;
use resin_lang::{parse_program, PValue, ScriptPolicy};
use resin_web::Response;

/// The paper's owner-only shape: data may reach the HTTP channel only
/// when the authenticated user matches the field captured at taint time.
const OWNER_ONLY_SRC: &str = r#"
class OwnerOnly {
    fn init(owner) { this.owner = owner; }
    fn export_check(context) {
        if (context["user"] == this.owner) { return; }
        throw "not the owner";
    }
}
"#;

fn owner_only(owner: &str) -> TaintedString {
    let class = parse_program(OWNER_ONLY_SRC)
        .expect("policy parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("class decl");
    let mut fields = BTreeMap::new();
    fields.insert("owner".to_string(), PValue::Str(owner.to_string()));
    let policy = ScriptPolicy::new(class.name.clone(), fields, Some(class));
    let mut s = TaintedString::from("alice's draft review");
    s.add_policy(Arc::new(policy));
    s
}

#[test]
fn http_gate_runs_script_policy() {
    // The owner sees their own data.
    let mut r = Response::for_user("alice");
    r.echo(owner_only("alice"))
        .unwrap_or_else(|e| panic!("owner blocked: {e}"));
    assert_eq!(r.body(), "alice's draft review");

    // Anyone else is denied at the gate, and nothing leaks.
    let mut r = Response::for_user("mallory");
    let err = r.echo(owner_only("alice")).unwrap_err();
    assert!(err.is_violation(), "expected violation: {err}");
    assert!(
        err.to_string().contains("not the owner"),
        "policy's own message surfaces: {err}"
    );
    assert_eq!(r.body(), "", "nothing visible after violation");
}

#[test]
fn every_outcome_follows_the_owner() {
    // Allow exactly when the gate's user is the owner, at the web gate.
    for (owner, user) in [("a", "a"), ("a", "b"), ("", ""), ("x", "")] {
        let mut r = Response::for_user(user);
        let allowed = r.echo(owner_only(owner)).is_ok();
        assert_eq!(allowed, owner == user, "owner={owner:?} user={user:?}");
    }
}
