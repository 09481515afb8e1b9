//! A policy class is known by its code: running the same declaration again
//! registers nothing and interns nothing, and a changed declaration is a
//! new version whose policies run its own check.
//!
//! The tests read the **global** label table's sizes, so they take turns
//! ([`turn`]); as its own integration-test binary the file shares its
//! process with nothing else.

use std::sync::{Mutex, MutexGuard};

use resin::core::metrics::{self, Counter};
use resin::core::{deserialize_policy, Context, GateKind, Label, LabelTable};
use resin::lang::{Interp, Value};

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A six-line policy class `class` whose check allows the user `allow`
/// names, and a string guarded by one of its objects.
fn script(class: &str, allow: &str) -> String {
    format!(
        r#"
        class {class} {{
            fn init(name) {{ this.name = name; }}
            fn export_check(context) {{
                if (context["user"] == {allow}) {{ return; }}
                throw "not the owner";
            }}
        }}
        let secret = policy_add("for alice", new {class}("alice"));
        "#
    )
}

/// Runs `src` in a fresh interpreter: the label of its `secret`.
fn secret_of(src: &str) -> Label {
    let mut interp = Interp::new();
    interp.run(src).expect("the script runs");
    match interp.global("secret") {
        Some(Value::Str(s)) => s.label(),
        other => panic!("`secret` is {other:?}"),
    }
}

/// True if the one policy of `label` lets `user` see it over HTTP.
fn allows(label: Label, user: &str) -> bool {
    let mut context = Context::new(GateKind::Http);
    context.set_str("user", user);
    label.policies()[0].export_check(&context).is_ok()
}

#[test]
fn ten_thousand_runs_of_one_script_intern_nothing() {
    let _turn = turn();
    let src = script("Owner", "this.name");
    let first = secret_of(&src);
    let before = LabelTable::global().stats();
    for _ in 0..10_000 {
        assert_eq!(secret_of(&src), first);
    }
    let after = LabelTable::global().stats();
    assert_eq!(
        (after.labels, after.policies),
        (before.labels, before.policies),
        "{before:?} -> {after:?}"
    );
}

#[test]
fn a_second_run_of_a_script_compiles_nothing_and_lints_alike() {
    // No reachable `throw`: a lint warning, reported by every run.
    let src = r#"
        class AllowsAll {
            fn export_check(context) { return; }
        }
        let secret = policy_add("open", new AllowsAll());
    "#;
    let compiled = || metrics::thread(Counter::PolicyChunksCompiled);
    let run = || {
        let mut interp = Interp::new();
        interp.run(src).expect("the script runs");
        format!("{:?}", interp.lint_reports())
    };
    let before = compiled();
    let reports = run();
    assert!(compiled() > before, "the first run compiles its class");
    assert!(reports.contains("RL001"), "{reports}");
    let before = compiled();
    assert_eq!(run(), reports);
    assert_eq!(compiled(), before, "the second run compiles no chunk");
}

#[test]
fn a_changed_class_is_a_new_version_that_runs_its_own_check() {
    let _turn = turn();
    let (v1, v2) = (
        script("Versioned", "this.name"),
        script("Versioned", "\"bob\""),
    );
    let a = secret_of(&v1);
    let b = secret_of(&v2);
    assert_ne!(a.ids(), b.ids(), "each version has its own id");
    assert!(allows(a, "alice") && !allows(a, "bob"));
    assert!(allows(b, "bob") && !allows(b, "alice"));
    // The version registered now is the one a stored text revives
    // through, and running it again adopts it.
    let stored = deserialize_policy("Versioned{name=s:alice}").expect("revives");
    assert_eq!(Label::of(&stored), b);
    assert_eq!(secret_of(&v2), b);
    assert!(
        allows(a, "alice"),
        "a live policy keeps its version's check"
    );
}
