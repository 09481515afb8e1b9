//! Differential coverage for the static analyzer.
//!
//! Two properties, checked over a seeded-random corpus of policy classes
//! plus targeted shapes — mutating ones, and ones that alias `this` or a
//! field's list without storing through the alias:
//!
//! 1. **Cache soundness** — for every class, the sequence of verdicts
//!    over repeated crossings is identical with the per-crossing caches
//!    on and off, and identical to the tree-walker's. A class the
//!    bytecode certificate wrongly accepted would diverge here: its
//!    mutation would survive inside the cached `this` and change a later
//!    verdict (and a debug build's snapshot oracle would panic first; the
//!    instrumented assertion checks hit counters to prove certified
//!    classes really exercised the cache).
//! 2. **Lint honesty** — a class the linter passes without RL003
//!    (undefined method) or RL007/RL010 (unassigned variable) findings
//!    never hits those runtime errors when its check actually runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use resin_core::{Context, GateKind, Policy, PolicyViolation};

use crate::analysis::lint_class;
use crate::ast::{ClassDecl, StmtKind};
use crate::check::{check_cache_stats, plan_for, set_check_cache};
use crate::parser::parse_program;
use crate::value::{PValue, ScriptPolicy};

fn class_of(src: &str) -> Arc<ClassDecl> {
    parse_program(src)
        .unwrap_or_else(|e| panic!("{e}\n{src}"))
        .into_iter()
        .find_map(|s| match s.kind {
            StmtKind::ClassDef(c) => Some(c),
            _ => None,
        })
        .expect("class decl")
}

fn base_fields() -> BTreeMap<String, PValue> {
    let mut fields = BTreeMap::new();
    fields.insert("f0".to_string(), PValue::Int(3));
    fields.insert("f1".to_string(), PValue::Int(7));
    fields.insert("f2".to_string(), PValue::Int(11));
    fields.insert(
        "l0".to_string(),
        PValue::List(vec![PValue::Int(1), PValue::Int(2), PValue::Int(3)]),
    );
    fields
}

fn ctx() -> Context {
    let mut c = Context::new(GateKind::Http);
    c.set_str("k0", "a");
    c.set_str("k1", "b");
    c
}

/// One crossing's observable outcome, as a comparable string.
fn verdict(outcome: Result<(), PolicyViolation>) -> String {
    match outcome {
        Ok(()) => "allow".to_string(),
        Err(v) => format!("deny: {v}"),
    }
}

/// Runs `n` crossings of `class` through a [`ScriptPolicy`] and returns
/// the verdicts.
fn crossings(class: &Arc<ClassDecl>, fields: &BTreeMap<String, PValue>, n: usize) -> Vec<String> {
    let policy = ScriptPolicy::new(class.name.clone(), fields.clone(), Some(class.clone()));
    let context = ctx();
    (0..n)
        .map(|_| verdict(policy.export_check(&context)))
        .collect()
}

/// The core differential assertion for one class source; returns whether
/// the certificate accepted the class.
fn assert_cache_transparent(src: &str) -> bool {
    let class = class_of(src);
    let fields = base_fields();
    let certified = plan_for(&class).certified;

    set_check_cache(true);
    let (h0, _) = check_cache_stats();
    let cached_vm = crossings(&class, &fields, 4);
    let (h1, _) = check_cache_stats();
    set_check_cache(false);
    let uncached_vm = crossings(&class, &fields, 4);
    set_check_cache(true);
    // The oracle evaluates `export_check` on a fresh `this` every time.
    let oracle: Vec<String> = (0..4)
        .map(|_| verdict(super::cross(&class, &fields, &ctx())))
        .collect();

    assert_eq!(
        cached_vm, uncached_vm,
        "cache changed observable behavior of {}:\n{src}",
        class.name
    );
    assert_eq!(
        cached_vm, oracle,
        "engines disagree on {}:\n{src}",
        class.name
    );
    let repeats: Vec<&String> = cached_vm.iter().skip(1).collect();
    assert!(
        repeats.iter().all(|v| **v == cached_vm[0]),
        "crossings of {} are not independent:\n{src}\n{cached_vm:?}",
        class.name
    );
    if certified {
        // Instrumented assertion: a certified class must actually have
        // exercised the cache (3 same-thread crossings after the first).
        assert!(
            h1 - h0 >= 3,
            "{} was certified but never hit the cache",
            class.name
        );
    }

    // Lint honesty: no RL003/RL007/RL010 findings means the runtime never
    // reports the corresponding errors.
    let report = lint_class(&class);
    let linted_quiet = !report
        .diagnostics
        .iter()
        .any(|d| matches!(d.code, "RL003" | "RL007" | "RL010"));
    if linted_quiet {
        for v in &uncached_vm {
            assert!(
                !v.contains("undefined variable") && !v.contains("no method"),
                "{} lints clean but hit a linted-for error: {v}\n{src}",
                class.name
            );
        }
    }
    certified
}

#[test]
fn targeted_mutating_shapes_are_cache_transparent() {
    // A pure reader: certified.
    assert!(assert_cache_transparent(
        r#"class Quota {
            fn export_check(context) {
                let w = this.l0;
                if (w[0] + w[1] > this.f0) { throw "over"; }
            }
        }"#
    ));
    for src in [
        // A scratch-field writer.
        r#"class Audited {
            fn export_check(context) {
                let sum = this.f0 + this.f1;
                this.last_sum = sum;
                if (sum > this.f2) { throw "over"; }
            }
        }"#,
        // A read-back counter.
        r#"class Once {
            fn export_check(context) {
                this.f0 = this.f0 + 1;
                if (this.f0 > 4) { throw "ran too often"; }
            }
        }"#,
        // A deep store through an alias.
        r#"class Alias {
            fn export_check(context) {
                let w = this.l0;
                w[0] = w[0] + 1;
                if (w[0] > 2) { throw "bumped"; }
            }
        }"#,
        // A push through a helper.
        r#"class Sneaky {
            fn bump() { push(this.l0, 1); }
            fn export_check(context) {
                this.bump();
                if (len(this.l0) > 3) { throw "grew"; }
            }
        }"#,
        // A context mutation.
        r#"class CtxWriter {
            fn export_check(context) {
                if (context["seen"]) { throw "second look"; }
                context["seen"] = true;
            }
        }"#,
    ] {
        assert!(!assert_cache_transparent(src), "certified:\n{src}");
    }
}

/// Shapes that alias `this` or a field's list: the certificate accepts
/// those that only read through the alias, and refuses any store.
#[test]
fn aliasing_shapes_are_cache_transparent() {
    for src in [
        // `this` in a list literal, read back by index.
        r#"class Boxed { fn export_check(context) {
            let b = [this]; if (b[0].f0 + [this][0].f1 > 20) { throw "big"; } } }"#,
        // A local holding `this`.
        r#"class Local { fn export_check(context) { let t = this; if (t.f1 > 5) { throw t.f1; } } }"#,
        // `this` rendered and thrown, and returned from a helper.
        r#"class Rendered { fn export_check(context) {
            if (len(str(this)) > 100) { throw "long"; } throw this; } }"#,
        r#"class Returned {
            fn me() { return this; }
            fn export_check(context) { let m = this.me(); if (m.f2 > 10) { throw [m, m.l0]; } }
        }"#,
        // Nested lists built from a field.
        r#"class Nested { fn export_check(context) {
            let n = [this.l0, [this.l0]]; if (n[1][0][2] + n[0][0] > 3) { throw n; } } }"#,
        // A helper returning a field's list; a parameter passed one.
        r#"class Lister {
            fn list() { return this.l0; }
            fn export_check(context) { if (this.list()[2] > 2) { throw "third"; } }
        }"#,
        r#"class Summer {
            fn sum(xs) { return xs[0] + xs[1] + xs[2]; }
            fn export_check(context) { if (this.sum(this.l0) > 5) { throw "sum"; } }
        }"#,
    ] {
        assert!(assert_cache_transparent(src), "refused:\n{src}");
    }
    // The same aliases, stored through.
    for src in [
        r#"class BoxedWriter { fn export_check(context) {
            [this][0].f0 = [this][0].f0 + 1; if (this.f0 > 4) { throw "ran twice"; } } }"#,
        r#"class LocalWriter {
            fn export_check(context) { let t = this; t.f1 = t.f1 + 1; if (t.f1 > 8) { throw 2; } }
        }"#,
        r#"class ReturnedWriter {
            fn me() { return this; }
            fn export_check(context) { let m = this.me(); m.f2 = m.f2 * 2; if (this.f2 > 11) { throw 3; } }
        }"#,
        r#"class NestedWriter { fn export_check(context) {
            let n = [[this.l0]]; n[0][0][1] = n[0][0][1] + 5; if (this.l0[1] > 6) { throw 5; } } }"#,
        r#"class ListerWriter {
            fn list() { return this.l0; }
            fn export_check(context) { push(this.list(), 4); if (len(this.l0) > 4) { throw 4; } }
        }"#,
        r#"class Filler {
            fn fill(xs) { xs[0] = xs[0] + 10; return xs[0]; }
            fn export_check(context) { if (this.fill(this.l0) > 11) { throw "filled twice"; } }
        }"#,
    ] {
        assert!(!assert_cache_transparent(src), "certified:\n{src}");
    }
}

// ---- seeded-random policy corpus ----

/// Deterministic generator for small policy classes mixing reads,
/// scratch writes, counters, deep stores, reads and stores through aliases
/// of `this` and of a field's list, helpers, branches, and bounded loops —
/// the shapes the certificate has to separate.
struct PolicyGen {
    rng: proptest::TestRng,
    scratch: u32,
}

impl PolicyGen {
    fn int_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(2) == 0 {
            match self.rng.below(5) {
                0 => format!("this.f{}", self.rng.below(3)),
                1 => format!("{}", self.rng.below(20)),
                2 => "this.f0".into(),
                3 => format!("len(this.l0) + {}", self.rng.below(4)),
                _ => format!("{}", 1 + self.rng.below(5)),
            }
        } else {
            let a = self.int_expr(depth - 1);
            let b = self.int_expr(depth - 1);
            match self.rng.below(3) {
                0 => format!("({a} + {b})"),
                1 => format!("({a} * {b})"),
                _ => format!("({a} + {b} + 1)"),
            }
        }
    }

    fn cond(&mut self) -> String {
        match self.rng.below(4) {
            0 => format!("({} > {})", self.int_expr(1), self.int_expr(1)),
            1 => format!("(context[\"k{}\"] == \"a\")", self.rng.below(2)),
            2 => format!("({} == {})", self.int_expr(1), self.int_expr(1)),
            _ => format!("({} < {})", self.int_expr(1), self.int_expr(1)),
        }
    }

    fn stmt(&mut self, idx: u32) -> String {
        match self.rng.below(12) {
            // Pure local work.
            0 | 1 => format!("let v{idx} = {};", self.int_expr(2)),
            // Scratch write: a field never read by any generated code.
            2 => {
                self.scratch += 1;
                let id = self.scratch;
                format!("this.scratch{id} = {};", self.int_expr(1))
            }
            // Read-back counter (disqualifying).
            3 => "this.f0 = this.f0 + 1;".into(),
            // Deep store through an alias (disqualifying).
            4 => "let w = this.l0; w[0] = w[0] + 1;".into(),
            // Push (disqualifying).
            5 => "push(this.l0, 1);".into(),
            // Branch over a condition.
            6 => format!(
                "if {} {{ let b{idx} = {}; }}",
                self.cond(),
                self.int_expr(1)
            ),
            // Bounded loop.
            7 => format!("let i{idx} = 0; while (i{idx} < 3) {{ i{idx} = i{idx} + 1; }}"),
            // Reads through aliases of `this`.
            8 => format!(
                "let t{idx} = this; let v{idx} = [t{idx}][0].f{} + len(str(this));",
                self.rng.below(3)
            ),
            // Reads through nested lists built from a field.
            9 => format!(
                "let n{idx} = [this.l0, [this.l0]]; let v{idx} = n{idx}[1][0][{}];",
                self.rng.below(3)
            ),
            // A store through an alias of `this` (disqualifying).
            10 => format!("let t{idx} = [this][0]; t{idx}.f1 = t{idx}.f1 + 1;"),
            // A store through nested lists built from a field (disqualifying).
            _ => format!("let n{idx} = [[this.l0]]; n{idx}[0][0][1] = 9;"),
        }
    }

    fn class(&mut self, name: &str) -> String {
        let mut body = String::new();
        let n = 1 + self.rng.below(4);
        for i in 0..n {
            body.push_str(&format!("        {}\n", self.stmt(i as u32)));
        }
        let helper = if self.rng.below(3) == 0 {
            // A helper returning a field, `this` or a field's list, or
            // passed a field's list.
            let (params, ret, call) = match self.rng.below(4) {
                0 => ("", "this.f1", "this.helper()"),
                1 => ("", "this", "this.helper().f1"),
                2 => ("", "this.l0", "this.helper()[0]"),
                _ => ("xs", "xs[1]", "this.helper(this.l0)"),
            };
            body.push_str(&format!("        let hv = {call};\n"));
            format!(
                "    fn helper({params}) {{\n        {}\n        return {ret};\n    }}\n",
                self.stmt(90)
            )
        } else {
            String::new()
        };
        let deny = ["\"deny\"", "this", "[this, this.l0]"][self.rng.below(3) as usize];
        format!(
            "class {name} {{\n{helper}    fn export_check(context) {{\n{body}        if {} {{ throw {deny}; }}\n    }}\n}}\n",
            self.cond()
        )
    }
}

#[test]
fn random_policy_classes_cache_transparently() {
    let seed = proptest::seed_from_name("random_policy_classes_cache_transparently");
    let mut certified = 0usize;
    for case in 0..300u64 {
        let mut g = PolicyGen {
            rng: proptest::TestRng::new(seed ^ (case.wrapping_mul(0xA076_1D64_78BD_642F) | 1)),
            scratch: 0,
        };
        let src = g.class(&format!("Rand{case}"));
        if assert_cache_transparent(&src) {
            certified += 1;
        }
    }
    // The generator must cover both sides of the certificate's line, with
    // enough certified classes to make the transparency claim meaningful.
    assert!(
        certified >= 30,
        "only {certified}/300 generated classes were certified"
    );
    assert!(
        certified <= 270,
        "only {}/300 generated classes were refused",
        300 - certified
    );
}
