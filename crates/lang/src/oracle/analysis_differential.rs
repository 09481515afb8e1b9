//! Differential coverage for the static analyzer.
//!
//! Two properties, checked over a seeded-random corpus of policy classes
//! plus targeted shapes — mutating ones, and ones that alias `this` or a
//! field's list without storing through the alias:
//!
//! 1. **Cache soundness** — for every class, the sequence of verdicts
//!    over repeated crossings is identical with the per-crossing caches
//!    on and off, and identical to the tree-walker's, refusals of a host
//!    builtin, a definition or a store into the frozen `this` or context
//!    included. A store that got through would survive into a later
//!    crossing and change its verdict; the instrumented assertion checks
//!    the reuse counter to prove every allow really was reused.
//! 2. **Lint honesty** — a class the linter passes without RL003
//!    (undefined method) or RL007/RL010 (unassigned variable) findings
//!    never hits those runtime errors when its check actually runs.
//! 3. **One linter, two program forms** — the bytecode linter finds what
//!    the AST linter kept as an oracle ([`super::lint`]) finds: the same
//!    errors and warnings in the same order, and RL006 dead lines that
//!    are a superset of the oracle's, every extra one in a block the
//!    oracle's AST CFG finds unreachable. Checked over the lint fixtures,
//!    the corpus CI's `resin-lint` job scans and the seeded classes, whose
//!    generator makes every code RL001–RL010 fire.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use resin_core::metrics::{self, Counter};
use resin_core::{Context, GateKind, Policy, PolicyViolation};

use crate::analysis::lint::{extract_embedded_rsl, policy_classes, CorpusList};
use crate::analysis::{lint_class, Diagnostic, LintReport};
use crate::ast::{ClassDecl, FnDecl, StmtKind};
use crate::check::{plan_for, set_check_cache};
use crate::chunk::Op;
use crate::interp::Reach;
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

/// What a crossing refused reads, whatever it reached for.
const REFUSED: &str = "is refused inside a policy check";

/// What a crossing refused for a store into its frozen `this` or context
/// reads.
const STORE_REFUSED: &str = "a store into ";

/// The core differential assertion for one class source; returns whether
/// its crossings read their fields and context only (no store into them
/// was refused), and the verdicts.
fn assert_cache_transparent(src: &str) -> (bool, Vec<String>) {
    let class = class_of(src);
    let fields = base_fields();

    set_check_cache(true);
    let reused = || metrics::thread(Counter::VerdictsReused);
    let r0 = reused();
    let cached_vm = crossings(&class, &fields, 4);
    let r1 = reused();
    set_check_cache(false);
    let uncached_vm = crossings(&class, &fields, 4);
    set_check_cache(true);
    // The oracle evaluates `export_check` on the policy's own `this`.
    let policy = ScriptPolicy::new(class.name.clone(), fields.clone(), Some(class.clone()));
    let oracle: Vec<String> = (0..4)
        .map(|_| verdict(super::cross(&policy, &ctx())))
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
    if cached_vm[0] == "allow" {
        // Instrumented assertion: every allow is reused (3 same-thread
        // crossings after the first).
        assert_eq!(r1 - r0, 3, "{} allowed but reused nothing", class.name);
    }
    let reads_only = !cached_vm.iter().any(|v| v.contains(STORE_REFUSED));

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
    (reads_only, cached_vm)
}

/// Whether `export_check`, or a method it reaches by a resolved
/// `this.m()`, calls a host builtin or defines a function or class: what
/// a crossing refuses.
fn reaches_the_host(class: &Arc<ClassDecl>) -> bool {
    let plan = plan_for(class);
    let Some(entry) = class.methods.iter().position(|m| m.name == "export_check") else {
        return false;
    };
    let mut seen = BTreeSet::from([entry]);
    let mut todo = vec![entry];
    while let Some(method) = todo.pop() {
        let Ok(chunk) = plan.chunk(method) else {
            continue;
        };
        for op in &chunk.code {
            match *op {
                Op::CallBuiltin { id, .. } if id.reach() == Reach::Host => return true,
                Op::Define(_) => return true,
                Op::Method { index, .. }
                    if index != Op::UNRESOLVED && seen.insert(index as usize) =>
                {
                    todo.push(index as usize);
                }
                _ => {}
            }
        }
    }
    false
}

#[test]
fn targeted_mutating_shapes_are_cache_transparent() {
    // A pure reader.
    assert!(
        assert_cache_transparent(
            r#"class Quota {
            fn export_check(context) {
                let w = this.l0;
                if (w[0] + w[1] > this.f0) { throw "over"; }
            }
        }"#
        )
        .0
    );
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
        assert!(!assert_cache_transparent(src).0, "no store refused:\n{src}");
    }
}

/// Shapes that alias `this` or a field's list: those that only read
/// through the alias run, and any store through it is refused.
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
        assert!(assert_cache_transparent(src).0, "a store refused:\n{src}");
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
        assert!(!assert_cache_transparent(src).0, "no store refused:\n{src}");
    }
}

// ---- the bytecode linter against the AST oracle ----

/// Lints `class` with both linters and holds the bytecode one to the AST
/// oracle; returns the bytecode linter's report.
fn assert_lint_matches_oracle(class: &Arc<ClassDecl>, src: &str) -> LintReport {
    let (bytecode, ast) = (lint_class(class), super::lint::lint_class(class));
    let shown = || {
        format!(
            "{src}\nbytecode:\n{}oracle:\n{}",
            bytecode.render(),
            ast.render()
        )
    };
    assert_eq!(bytecode.has_errors(), ast.has_errors(), "{}", shown());
    let key = |d: &Diagnostic| {
        (
            d.code,
            d.severity,
            d.method.clone(),
            d.line,
            d.message.clone(),
        )
    };
    let others = |r: &LintReport| -> Vec<_> {
        r.diagnostics
            .iter()
            .filter(|d| d.code != "RL006")
            .map(key)
            .collect()
    };
    assert_eq!(others(&bytecode), others(&ast), "{}", shown());
    let dead = |r: &LintReport| -> BTreeSet<(String, u32)> {
        r.diagnostics
            .iter()
            .filter(|d| d.code == "RL006")
            .map(|d| (d.method.clone(), d.line.expect("RL006 has a line")))
            .collect()
    };
    let (found, reference) = (dead(&bytecode), dead(&ast));
    assert!(reference.is_subset(&found), "{}", shown());
    for (method, line) in found.difference(&reference) {
        let decl = class.method(method).expect("a linted method");
        assert!(
            oracle_dead_lines(decl).contains(line),
            "line {line} of `{method}` is live in the AST CFG:\n{}",
            shown()
        );
    }
    bytecode
}

/// The lines of the statements in blocks the oracle's AST CFG cannot reach.
fn oracle_dead_lines(method: &FnDecl) -> BTreeSet<u32> {
    use super::cfg::{Cfg, Term};
    let cfg = Cfg::build(&method.body);
    let reachable = cfg.reachable();
    let mut lines = BTreeSet::new();
    for (block, _) in cfg.blocks.iter().zip(reachable).filter(|(_, r)| !r) {
        lines.extend(block.stmts.iter().map(|s| s.line));
        if let Term::Branch { line, .. } | Term::Return { line, .. } | Term::Throw { line, .. } =
            block.term
        {
            lines.insert(line);
        }
    }
    lines
}

/// Every policy class in an RSL source, or in the snippets a Rust source
/// embeds, as `resin-lint` finds them.
fn classes_in(path: &Path) -> Vec<(String, Arc<ClassDecl>)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let sources = match path.extension().and_then(|e| e.to_str()) {
        Some("rsl") => vec![text],
        Some("rs") => extract_embedded_rsl(&text)
            .into_iter()
            .map(|(_, s)| s)
            .collect(),
        _ => Vec::new(),
    };
    let mut found = Vec::new();
    for src in sources {
        let Ok(program) = parse_program(&src) else {
            continue;
        };
        let mut classes = Vec::new();
        policy_classes(&program, &mut classes);
        found.extend(classes.into_iter().map(|c| (src.clone(), c.clone())));
    }
    found
}

fn files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn the_bytecode_linter_agrees_with_the_ast_oracle_on_the_fixtures_and_the_scan_set() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.join("../..");
    let mut fixtures = Vec::new();
    files_under(&crate_dir.join("tests/lint_fixtures"), &mut fixtures);
    // CI's `resin-lint` scan set.
    let corpus = CorpusList::parse(include_str!("../../tests/policy_corpus.txt")).unwrap();
    let mut scanned = Vec::new();
    for dir in &corpus.scans {
        files_under(&repo.join(dir), &mut scanned);
    }
    scanned.retain(|p| !corpus.skips(p));
    scanned.sort();
    let mut codes = BTreeMap::<&str, usize>::new();
    let mut classes = 0;
    let mut reaching = BTreeSet::new();
    for (path, in_scan_set) in fixtures
        .iter()
        .map(|p| (p, false))
        .chain(scanned.iter().map(|p| (p, true)))
    {
        for (src, class) in classes_in(path) {
            classes += 1;
            for d in assert_lint_matches_oracle(&class, &src).diagnostics {
                *codes.entry(d.code).or_default() += 1;
            }
            if in_scan_set && reaches_the_host(&class) {
                reaching.insert(class.name.clone());
            }
        }
    }
    // The fixtures alone fire every code.
    assert!(
        classes >= 40 && codes.len() == 10,
        "{classes} classes, codes fired: {codes:?}"
    );
    // The scan set's checks that reach for the host are the ones written
    // to be refused for it (`tests/check_crossing.rs`).
    assert_eq!(
        reaching,
        BTreeSet::from(["Panicky".to_string(), "Reent".to_string()])
    );
}

// ---- seeded-random policy corpus ----

/// Deterministic generator for small policy classes mixing reads,
/// scratch writes, counters, deep stores, reads and stores through aliases
/// of `this` and of a field's list, helpers, branches, and bounded loops —
/// the shapes a crossing refuses and the ones it runs.
struct PolicyGen {
    rng: proptest::TestRng,
    scratch: u32,
    /// Also draw the shapes each lint code fires on (constant guards,
    /// endless loops, dead code, `this` aliases, constant helpers, ...).
    lint_shapes: bool,
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
            // Read-back counter (refused).
            3 => "this.f0 = this.f0 + 1;".into(),
            // Deep store through an alias (refused).
            4 => "let w = this.l0; w[0] = w[0] + 1;".into(),
            // Push (refused).
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
            // A store through an alias of `this` (refused).
            10 => format!("let t{idx} = [this][0]; t{idx}.f1 = t{idx}.f1 + 1;"),
            // A store through nested lists built from a field (refused).
            _ => format!("let n{idx} = [[this.l0]]; n{idx}[0][0][1] = 9;"),
        }
    }

    /// A guard made of literals alone, which the compiler folds.
    fn const_guard(&mut self) -> &'static str {
        const GUARDS: [&str; 10] = [
            "(true)",
            "(false)",
            "(1 > 2)",
            "(1 < 2)",
            "(\"a\" == \"a\")",
            "(not 0)",
            "(true && false)",
            "(false || true)",
            "(null)",
            "(0 != 0)",
        ];
        GUARDS[self.rng.below(GUARDS.len() as u64) as usize]
    }

    fn const_atom(&mut self) -> &'static str {
        ["true", "false", "1", "0"][self.rng.below(4) as usize]
    }

    /// A statement shaped for a lint code. Its parts go on lines of their
    /// own where a finding's line tells them apart.
    fn lint_stmt(&mut self, idx: u32) -> String {
        match self.rng.below(14) {
            // Whole constant guards, with and without a dead arm.
            0 => format!(
                "if {} {{ let c{idx} = 1; }} else {{\n let e{idx} = 2; }}",
                self.const_guard()
            ),
            1 => format!("if {} {{\n throw \"never{idx}\"; }}", self.const_guard()),
            2 => format!("while {} {{\n let d{idx} = 1; }}", self.const_guard()),
            // Constants inside `&&` / `||`: the guard stays conditional.
            3 => format!(
                "if ({} && {}) {{\n throw \"and{idx}\"; }}",
                self.cond(),
                self.const_atom()
            ),
            4 => format!(
                "if ({} || {}) {{ let o{idx} = 1; }}",
                self.const_atom(),
                self.cond()
            ),
            // `while (true)` with an exit, and without one.
            5 => format!(
                "let i{idx} = 0; while (true) {{\n i{idx} = i{idx} + 1; if (i{idx} > 2) {{ return; }} }}"
            ),
            // (After a loop that exits through its guard.)
            6 => format!(
                "let j{idx} = 0; while (j{idx} < len(this.l0)) {{ j{idx} = j{idx} + 1; }}\n while (true) {{\n let s{idx} = {}; }}",
                self.int_expr(1)
            ),
            // `this` aliases, read through and reassigned.
            7 => format!(
                "let t{idx} = this;\n let a{idx} = t{idx}.f{} + t{idx}.g{};\n t{idx} = [1];",
                self.rng.below(3),
                self.rng.below(2)
            ),
            // Bound on one path only, then on every path.
            8 => format!(
                "if {} {{ m{idx} = 1; }}\n let u{idx} = m{idx} + 1;\n k{idx} = 2; let h{idx} = k{idx};",
                self.cond()
            ),
            // Never assigned.
            9 => format!("let q{idx} = quota{idx} + 1;"),
            // No such method.
            10 => format!("this.nope{idx}();"),
            // A field written only in `init`.
            11 => "let gi = this.g1;".into(),
            // An early allow.
            12 => format!("if {} {{ return; }}", self.cond()),
            _ => format!("let r{idx} = this.f{} + 1;", self.rng.below(3)),
        }
    }

    /// What a crossing refuses: a host builtin, or a definition.
    fn reach_out(&mut self, idx: u32) -> String {
        const HOST: [&str; 8] = [
            "echo(\"x\");",
            "echo(this.f0);",
            "email(\"a@b\", str(this.f1));",
            "file_write(\"/f\", \"x\");",
            "import(\"/g.rsl\");",
            "set_user(\"root\");",
            "http_context(\"k\", 1);",
            "mkdir(\"/d\");",
        ];
        match self.rng.below(10) {
            8 => format!("fn leak{idx}() {{ return 1; }}"),
            9 => format!("class Leak{idx} {{ fn m() {{ return 1; }} }}"),
            i => HOST[i as usize].to_string(),
        }
    }

    fn any_stmt(&mut self, idx: u32) -> String {
        if self.lint_shapes && self.rng.below(2) == 0 {
            self.lint_stmt(idx)
        } else {
            self.stmt(idx)
        }
    }

    /// How the lint-shaped check ends: a deny on a condition, a deny
    /// always, no deny, or a deny with dead code after it.
    fn lint_ending(&mut self, deny: &str) -> String {
        let cond = self.cond();
        match self.rng.below(6) {
            0 => format!("throw {deny};"),
            1 => "return;".into(),
            2 => format!(
                "throw {deny};\n        let dead = 1;\n        while {cond} {{\n dead = dead + 1; }}"
            ),
            3 => format!("if {cond} {{ throw {deny}; }}\n        return;\n        let after = 2;"),
            _ => format!("if {cond} {{ throw {deny}; }}"),
        }
    }

    fn class(&mut self, name: &str) -> String {
        let mut body = String::new();
        let n = 1 + self.rng.below(4);
        for i in 0..n {
            let stmt = self.any_stmt(i as u32);
            body.push_str(&format!("        {stmt}\n"));
        }
        if self.rng.below(4) == 0 {
            // On a branch some crossings take and some do not.
            let reach = self.reach_out(n as u32);
            body.push_str(&format!("        if {} {{ {reach} }}\n", self.cond()));
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
                self.any_stmt(90)
            )
        } else {
            String::new()
        };
        let deny = ["\"deny\"", "this", "[this, this.l0]"][self.rng.below(3) as usize];
        if !self.lint_shapes {
            return format!(
                "class {name} {{\n{helper}    fn export_check(context) {{\n{body}        if {} {{ throw {deny}; }}\n    }}\n}}\n",
                self.cond()
            );
        }
        let mut methods = helper;
        if self.rng.below(2) == 0 {
            // A helper that ignores its parameter and returns a constant.
            let ret = ["\"ok\"", "1 + 2", "[1, \"a\"]", "-1"][self.rng.below(4) as usize];
            methods.push_str(&format!(
                "    fn clean(x) {{\n        return {ret};\n    }}\n"
            ));
            body.push_str("        let cv = this.clean(context[\"k0\"]);\n");
        }
        if self.rng.below(2) == 0 {
            // Fields written only in `init`, which no crossing runs.
            methods
                .push_str("    fn init(a) {\n        this.g1 = a;\n        this.g0 = a;\n    }\n");
        }
        let ending = self.lint_ending(deny);
        format!(
            "class {name} {{\n{methods}    fn export_check(context) {{\n{body}        {ending}\n    }}\n}}\n"
        )
    }
}

/// Seeded classes, half drawn with the lint shapes too. Each is held to
/// the AST oracle's lint, and each that can finish a run is crossed,
/// cached and from scratch, against the tree-walker.
#[test]
fn random_policy_classes_cache_transparently() {
    const CLASSES: u64 = 600;
    let seed = proptest::seed_from_name("random_policy_classes_cache_transparently");
    let (mut crossed, mut reading) = (0usize, 0usize);
    let mut refusals = BTreeMap::<&str, usize>::new();
    let mut codes = BTreeMap::<&str, usize>::new();
    for case in 0..CLASSES {
        let mut g = PolicyGen {
            rng: proptest::TestRng::new(seed ^ (case.wrapping_mul(0xA076_1D64_78BD_642F) | 1)),
            scratch: 0,
            lint_shapes: case >= CLASSES / 2,
        };
        let src = g.class(&format!("Rand{case}"));
        let report = assert_lint_matches_oracle(&class_of(&src), &src);
        for d in &report.diagnostics {
            *codes.entry(d.code).or_default() += 1;
        }
        // (An endless loop would run out the back-jump budget, 10^8.)
        if report.diagnostics.iter().any(|d| d.code == "RL005") {
            continue;
        }
        crossed += 1;
        let (reads_only, verdicts) = assert_cache_transparent(&src);
        reading += reads_only as usize;
        for v in verdicts.iter().filter(|v| v.contains(REFUSED)) {
            let what = if v.contains("definition `") {
                "definition"
            } else if v.contains(STORE_REFUSED) {
                "store"
            } else {
                "builtin"
            };
            *refusals.entry(what).or_default() += 1;
        }
    }
    // All three engines refused the same host builtins, definitions and
    // stores.
    assert!(
        refusals.len() == 3,
        "no refusal of some kind over {CLASSES} classes: {refusals:?}"
    );
    let every_code = (1..=10).all(|n| codes.contains_key(format!("RL{n:03}").as_str()));
    assert!(
        every_code,
        "a lint code never fired over {CLASSES} classes: {codes:?}"
    );
    // The generator must cover both classes that store and classes that
    // only read, enough of each to make the transparency claim meaningful.
    assert!(
        reading * 10 >= crossed && reading * 10 <= crossed * 9,
        "{reading}/{crossed} crossed classes stored nothing; codes fired: {codes:?}"
    );
}
