//! Registering a policy class compiles each of its methods once, into the
//! check plan the linter reads, and its crossings run those chunks.
//!
//! One `#[test]`: the compile counter is process-global, and parallel
//! test threads in one binary would race it.

use resin_core::{deserialize_policy, Context, GateKind};
use resin_lang::{compiled_policy_chunks, Interp};

#[test]
fn registration_compiles_each_method_once_and_crossings_run_those_chunks() {
    let before = compiled_policy_chunks();
    let mut interp = Interp::new();
    interp
        .run(
            r#"
            class RegisteredOwner {
                fn init(name) { this.name = name; }
                fn is_owner(user) { return user == this.name; }
                fn export_check(context) {
                    if (this.is_owner(context["user"])) { return; }
                    throw "not the owner";
                }
            }
            "#,
        )
        .expect("the class registers");
    assert!(
        interp.lint_reports().is_empty(),
        "{:?}",
        interp.lint_reports()
    );
    let registered = compiled_policy_chunks() - before;
    assert!(
        registered <= 3,
        "three methods compiled {registered} chunks"
    );

    // A revived instance resolves the plan registration built: five
    // crossings, each under a new context stamp so that each executes,
    // compile nothing.
    let policy = deserialize_policy("RegisteredOwner{name=s:alice}").expect("revives");
    let mut context = Context::new(GateKind::Http);
    for (i, user) in ["alice", "bob", "alice", "mallory", "alice"]
        .into_iter()
        .enumerate()
    {
        context.set_str("user", user);
        let verdict = policy.export_check(&context);
        assert_eq!(verdict.is_ok(), user == "alice", "crossing {i} as {user}");
    }
    assert_eq!(compiled_policy_chunks() - before, registered);
}
