//! Compile-cache behaviour for script policies.
//!
//! The process-wide chunk cache (kept alongside the policy interner) must
//! compile a policy's `export_check` exactly once no matter how many gate
//! crossings evaluate it, and must NOT conflate two distinct classes that
//! happen to share source text — the same rule `PolicyId` interning uses.
//!
//! Everything lives in a single `#[test]` because the compile counter is
//! process-global; parallel test threads in the same binary would race it.

use std::collections::BTreeMap;

use resin_core::metrics::{self, Counter};
use resin_core::{Context, GateKind, Policy};
use resin_lang::ast::StmtKind;
use resin_lang::{parse_program, ScriptPolicy};

const CLASS_SRC: &str = r#"
class MailOnly {
    fn init(addr) { this.addr = addr; }
    fn export_check(context) {
        if (context["type"] == "email" && context["rcpt"] == this.addr) {
            return;
        }
        throw "not for you";
    }
}
"#;

/// Policy-method chunks compiled in this process so far.
fn compiled_policy_chunks() -> u64 {
    metrics::total(Counter::PolicyChunksCompiled)
}

fn parse_class(src: &str) -> std::sync::Arc<resin_lang::ast::ClassDecl> {
    let program = parse_program(src).expect("class parses");
    for stmt in program {
        if let StmtKind::ClassDef(class) = stmt.kind {
            return class;
        }
    }
    panic!("no class in source");
}

fn policy_for(class: std::sync::Arc<resin_lang::ast::ClassDecl>) -> ScriptPolicy {
    let mut fields = BTreeMap::new();
    fields.insert("addr".to_string(), resin_lang::PValue::Str("u@x".into()));
    ScriptPolicy::new(class.name.clone(), fields, Some(class))
}

#[test]
fn policy_chunks_compile_once_and_never_conflate() {
    let before = compiled_policy_chunks();

    // One class, many crossings: exactly one compile.
    let policy = policy_for(parse_class(CLASS_SRC));
    let mut allowed = Context::new(GateKind::Email);
    allowed.set_str("rcpt", "u@x");
    let mut denied = Context::new(GateKind::Email);
    denied.set_str("rcpt", "eve@evil");
    policy.export_check(&allowed).expect("matching rcpt passes");
    policy.export_check(&denied).expect_err("wrong rcpt fails");
    policy.export_check(&allowed).expect("still passes");
    assert_eq!(
        compiled_policy_chunks() - before,
        1,
        "three checks of one policy must compile exactly once"
    );

    // `parse_class` re-parses, so this is a DISTINCT class allocation with
    // byte-identical source. It must get its own chunk, not the cached one.
    let sibling = policy_for(parse_class(CLASS_SRC));
    sibling.export_check(&allowed).expect("sibling passes");
    assert_eq!(
        compiled_policy_chunks() - before,
        2,
        "a distinct class Arc with identical source must get its own chunk"
    );

    // Same class Arc reused across policies: still one chunk total.
    let class = parse_class(CLASS_SRC);
    let p1 = policy_for(class.clone());
    let p2 = policy_for(class);
    p1.export_check(&allowed).expect("p1 passes");
    p2.export_check(&allowed).expect("p2 passes");
    assert_eq!(
        compiled_policy_chunks() - before,
        3,
        "two policies over one class Arc share one compiled chunk"
    );
}
