//! The RSL policy linter.
//!
//! A policy that can never deny, never runs its deny branch, loops
//! forever, or calls code that does not exist defeats the data-flow
//! assertion it implements — and unlike application code, policy code
//! runs inside the gate with no one watching. The linter turns the
//! [`super::cfg`]/[`super::dataflow`] machinery toward those bugs and
//! reports them as coded diagnostics:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | RL001 | warning  | `export_check` can never throw: the policy allows everything |
//! | RL002 | warning  | `export_check` can never complete: the policy denies everything |
//! | RL003 | error    | call to a method the class does not define |
//! | RL004 | error    | a `throw` (deny branch) that can never execute |
//! | RL005 | error    | a loop that provably never exits (back-jump budget exceeded) |
//! | RL006 | warning  | dead statements after `throw`/`return` (bytecode-level, lines from the chunk line table) |
//! | RL007 | error    | read of a variable never assigned in the method (the check evaluator has no globals) |
//! | RL008 | warning  | method ignores all its parameters and returns a constant (label-laundering smell) |
//! | RL009 | warning  | field read by the check but written by no method |
//! | RL010 | warning  | variable may be read before assignment on some path |
//!
//! Error-severity diagnostics fail closed at class-registration and
//! policy-revival time; warnings accumulate on the interpreter's
//! [`LintReport`] list for the application to surface.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ast::{ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::chunk::Op;
use crate::compiler::compile_function;
use crate::parser::parse_program;

use super::cfg::{const_truth, Cfg, Term};
use super::dataflow::{forward, Analysis, DefiniteAssignment};

/// How bad a diagnostic is. Errors fail closed at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal; surfaced, never fatal.
    Warning,
    /// Unsound policy code; registration and revival refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One linter finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code (`RL001`...), for tables and suppression tooling.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The method the finding is in (empty for class-level findings).
    pub method: String,
    /// 1-based source line, when attributable.
    pub line: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        if !self.method.is_empty() {
            write!(f, " in `{}`", self.method)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The linter's verdict on one policy class.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The class the report describes.
    pub class_name: String,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Renders every diagnostic, one per line, prefixed with the class.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}: {}\n", self.class_name, d));
        }
        out
    }
}

/// Lints one policy class. For a class without `export_check` the report
/// is empty (it is not a policy; nothing enforces on it).
pub fn lint_class(class: &ClassDecl) -> LintReport {
    let mut diags = Vec::new();
    if class.method("export_check").is_none() {
        return LintReport {
            class_name: class.name.clone(),
            diagnostics: diags,
        };
    }
    let (missing, reads) = live_calls_and_reads(class);

    // RL003: calls to undefined methods.
    for m in &missing {
        diags.push(Diagnostic {
            code: "RL003",
            severity: Severity::Error,
            method: String::new(),
            line: None,
            message: format!("call to undefined method `{m}`"),
        });
    }

    // RL009: fields the check reads but no method ever writes.
    let written = fields_written_anywhere(class);
    for f in reads.difference(&written) {
        diags.push(Diagnostic {
            code: "RL009",
            severity: Severity::Warning,
            method: String::new(),
            line: None,
            message: format!(
                "field `{f}` is read by the check but written by no method; \
                 instances missing it fail every crossing"
            ),
        });
    }

    // The per-method lints cover every method a call names, live or dead.
    let (reachable, _) = reach(class, |method| {
        let mut calls = Vec::new();
        for stmt in &method.body {
            walk_stmt_tree(stmt, &mut |s| {
                walk_stmt_exprs(s, &mut |e| calls.extend(called(class, e)))
            });
        }
        calls
    });
    let mut any_reachable_throw = false;
    let mut check_completes = false;
    for method in reachable {
        let (throws, completes) = lint_method(&method.name, method, &mut diags);
        any_reachable_throw |= throws;
        check_completes |= completes && method.name == "export_check";
    }

    // RL001 / RL002: the check's outcome is a foregone conclusion.
    if !any_reachable_throw {
        diags.push(Diagnostic {
            code: "RL001",
            severity: Severity::Warning,
            method: "export_check".into(),
            line: None,
            message: "no reachable `throw`: the check allows every crossing".into(),
        });
    } else if !check_completes {
        diags.push(Diagnostic {
            code: "RL002",
            severity: Severity::Warning,
            method: "export_check".into(),
            line: None,
            message: "no path completes without `throw`: the check denies every crossing".into(),
        });
    }

    diags.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.code, d.line));
    LintReport {
        class_name: class.name.clone(),
        diagnostics: diags,
    }
}

/// Lints one method; returns whether it has a reachable `throw` and
/// whether a reachable path completes without one.
fn lint_method(name: &str, method: &FnDecl, diags: &mut Vec<Diagnostic>) -> (bool, bool) {
    let cfg = Cfg::build(&method.body);
    let reach = cfg.reachable();

    // RL004: a deny branch that can never fire — a `throw` in a block
    // unreachable from entry (constant-false guard or code past an
    // unconditional exit).
    let (mut throws, mut completes) = (false, false);
    for (block, reached) in cfg.blocks.iter().zip(&reach) {
        match (&block.term, reached) {
            (Term::Throw { line, .. }, false) => diags.push(Diagnostic {
                code: "RL004",
                severity: Severity::Error,
                method: name.to_string(),
                line: Some(*line),
                message: "`throw` can never execute: this deny branch is unreachable".into(),
            }),
            (Term::Throw { .. }, true) => throws = true,
            (Term::Return { .. } | Term::Exit, true) => completes = true,
            _ => {}
        }
    }

    // RL005: a loop whose guard is constant-true and whose body can
    // neither `return`/`throw` nor call a method that could. Builtin
    // calls cannot raise script exceptions, so the loop can only end in
    // a runtime error or by exhausting the back-jump budget.
    for (id, block) in cfg.blocks.iter().enumerate() {
        if !reach[id] {
            continue;
        }
        let Term::Branch {
            cond,
            line,
            then_to,
            is_loop: true,
            ..
        } = &block.term
        else {
            continue;
        };
        if const_truth(cond) != Some(true) {
            continue;
        }
        let body = cfg.reachable_from(*then_to);
        let mut escapes = false;
        for (bid, b) in cfg.blocks.iter().enumerate() {
            if !body[bid] || bid == id {
                continue;
            }
            let mut has_call = false;
            {
                let mut flag_calls = |e: &Expr| {
                    walk_expr(e, &mut |e| {
                        if matches!(e, Expr::MethodCall { .. } | Expr::New { .. }) {
                            has_call = true;
                        }
                    });
                };
                if let Term::Branch { cond, .. } = &b.term {
                    flag_calls(cond);
                }
                for stmt in &b.stmts {
                    walk_stmt_exprs(stmt, &mut flag_calls);
                }
            }
            if has_call || matches!(b.term, Term::Return { .. } | Term::Throw { .. }) {
                escapes = true;
            }
        }
        if !escapes {
            diags.push(Diagnostic {
                code: "RL005",
                severity: Severity::Error,
                method: name.to_string(),
                line: Some(*line),
                message: "loop guard is constantly true and the body never exits: \
                          the back-jump budget is provably exceeded"
                    .into(),
            });
        }
    }

    // RL007 / RL010: variable reads the check evaluator cannot satisfy.
    lint_variable_reads(&cfg, name, method, diags);

    // RL008: the method ignores every parameter and returns a constant —
    // a sanitizer-shaped helper that launders labels by construction.
    if name != "export_check" && !method.params.is_empty() {
        let mut param_read = false;
        let mut const_return_line = None;
        for stmt in &method.body {
            walk_stmt_tree(stmt, &mut |s| {
                if let StmtKind::Return(Some(e)) = &s.kind {
                    if is_const_expr(e) && const_return_line.is_none() {
                        const_return_line = Some(s.line);
                    }
                }
                walk_stmt_exprs(s, &mut |e| {
                    if let Expr::Var(v) = e {
                        if method.params.iter().any(|p| p == v) {
                            param_read = true;
                        }
                    }
                });
            });
        }
        if !param_read {
            if let Some(line) = const_return_line {
                diags.push(Diagnostic {
                    code: "RL008",
                    severity: Severity::Warning,
                    method: name.to_string(),
                    line: Some(line),
                    message: "returns a constant while ignoring every parameter: \
                              the result carries no label from its inputs"
                        .into(),
                });
            }
        }
    }

    // RL006: dead code at the bytecode level. The compiled chunk's line
    // table attributes each dead instruction to its source line; compiler
    // artifacts (the implicit-return epilogue, rejoin jumps after an arm
    // that returned) are skipped so only source statements report.
    if let Ok(chunk) = compile_function(method, None) {
        let targets: BTreeSet<usize> = chunk
            .code
            .iter()
            .filter_map(|op| op.jump_target())
            .collect();
        let mut live = true;
        let mut reported = BTreeSet::new();
        for (ip, op) in chunk.code.iter().enumerate() {
            if targets.contains(&ip) {
                live = true;
            }
            // (A loop's back-edge is a jump whatever its form.)
            let artifact = match op {
                Op::Jump(_) | Op::Return { .. } => true,
                op => op.jump_target().is_some_and(|t| t <= ip),
            };
            if !live && !artifact {
                if let Some(line) = chunk.line_of(ip) {
                    if reported.insert(line) {
                        diags.push(Diagnostic {
                            code: "RL006",
                            severity: Severity::Warning,
                            method: name.to_string(),
                            line: Some(line),
                            message: "statement is unreachable (dead code after \
                                      `return`/`throw`)"
                                .into(),
                        });
                    }
                }
            }
            if matches!(op, Op::Jump(_) | Op::Return { .. } | Op::Throw { .. }) {
                live = false;
            }
        }
    }
    (throws, completes)
}

/// RL007 (never assigned: guaranteed `undefined variable` error) and
/// RL010 (assigned somewhere, but not on every path reaching a read).
fn lint_variable_reads(cfg: &Cfg<'_>, name: &str, method: &FnDecl, diags: &mut Vec<Diagnostic>) {
    let mut assigned_anywhere: BTreeSet<String> = method.params.iter().cloned().collect();
    for stmt in &method.body {
        walk_stmt_tree(stmt, &mut |s| match &s.kind {
            StmtKind::Let(n, _) | StmtKind::Assign(Target::Var(n), _) => {
                assigned_anywhere.insert(n.clone());
            }
            _ => {}
        });
    }

    let mut analysis = DefiniteAssignment {
        params: method.params.clone(),
    };
    let entry_facts = forward(cfg, &mut analysis);
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    for (id, fact) in entry_facts.iter().enumerate() {
        let Some(fact) = fact else { continue };
        let mut fact = fact.clone();
        let mut check = |e: &Expr, line: u32, fact: &BTreeSet<String>| {
            let mut reads = Vec::new();
            walk_expr(e, &mut |e| {
                if let Expr::Var(v) = e {
                    reads.push(v.clone());
                }
            });
            for v in reads {
                if fact.contains(&v) || !reported.insert((v.clone(), line)) {
                    continue;
                }
                if assigned_anywhere.contains(&v) {
                    diags.push(Diagnostic {
                        code: "RL010",
                        severity: Severity::Warning,
                        method: name.to_string(),
                        line: Some(line),
                        message: format!("`{v}` may be read before it is assigned"),
                    });
                } else {
                    diags.push(Diagnostic {
                        code: "RL007",
                        severity: Severity::Error,
                        method: name.to_string(),
                        line: Some(line),
                        message: format!(
                            "`{v}` is never assigned in this method; the check \
                             evaluator has no globals to fall back to"
                        ),
                    });
                }
            }
        };
        for stmt in &cfg.blocks[id].stmts {
            match &stmt.kind {
                StmtKind::Let(n, e) => {
                    check(e, stmt.line, &fact);
                    fact.insert(n.clone());
                }
                StmtKind::Assign(Target::Var(n), e) => {
                    check(e, stmt.line, &fact);
                    fact.insert(n.clone());
                }
                StmtKind::Assign(Target::Prop(recv, _), e)
                | StmtKind::Assign(Target::Index(recv, _), e) => {
                    check(e, stmt.line, &fact);
                    check(recv, stmt.line, &fact);
                    if let StmtKind::Assign(Target::Index(_, idx), _) = &stmt.kind {
                        check(idx, stmt.line, &fact);
                    }
                }
                StmtKind::Expr(e) => check(e, stmt.line, &fact),
                _ => {}
            }
        }
        match &cfg.blocks[id].term {
            Term::Branch { cond, line, .. } => check(cond, *line, &fact),
            Term::Return {
                value: Some(e),
                line,
            }
            | Term::Throw { value: e, line } => check(e, *line, &fact),
            _ => {}
        }
    }
}

/// What a run of the check can reach, from the CFG-reachable blocks of
/// `export_check` and of every method those blocks call: the methods
/// called that the class does not define, and the fields read off `this`
/// or a local that may hold it.
fn live_calls_and_reads(class: &ClassDecl) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let (_, missing) = reach(class, |method| {
        let mut calls = Vec::new();
        let mut visit = |e: &Expr, aliases: &BTreeSet<String>| {
            walk_expr(e, &mut |e| match e {
                Expr::Prop(recv, f) if holds_this(recv, aliases) => {
                    reads.insert(f.clone());
                }
                _ => calls.extend(called(class, e)),
            })
        };
        let cfg = Cfg::build(&method.body);
        for (block, fact) in cfg.blocks.iter().zip(forward(&cfg, &mut ThisAliases)) {
            let Some(mut aliases) = fact else { continue };
            for stmt in &block.stmts {
                walk_stmt_exprs(stmt, &mut |e| visit(e, &aliases));
                ThisAliases.transfer_stmt(stmt, &mut aliases);
            }
            if let Term::Branch { cond: e, .. }
            | Term::Return { value: Some(e), .. }
            | Term::Throw { value: e, .. } = &block.term
            {
                visit(e, &aliases);
            }
        }
        calls
    });
    (missing, reads)
}

/// The methods reachable from `export_check`, in visit order, following
/// the calls `calls_of` finds in each; and the names called that the class
/// does not define.
fn reach<'c>(
    class: &'c ClassDecl,
    mut calls_of: impl FnMut(&'c FnDecl) -> Vec<String>,
) -> (Vec<&'c Arc<FnDecl>>, BTreeSet<String>) {
    let (mut reached, mut missing) = (Vec::new(), BTreeSet::new());
    let mut seen = BTreeSet::from(["export_check".to_string()]);
    let mut queue = vec!["export_check".to_string()];
    while let Some(name) = queue.pop() {
        let Some(method) = class.method(&name) else {
            missing.insert(name);
            continue;
        };
        reached.push(method);
        let unseen = calls_of(method)
            .into_iter()
            .filter(|m| seen.insert(m.clone()));
        queue.extend(unseen);
    }
    (reached, missing)
}

/// The method `e` calls: `m` for `x.m(...)` (the only objects are `this`
/// and new instances of its class), `init` for `new` of the class itself.
fn called(class: &ClassDecl, e: &Expr) -> Option<String> {
    match e {
        Expr::MethodCall { method, .. } => Some(method.clone()),
        Expr::New { class: c, .. } if *c == class.name => Some("init".into()),
        _ => None,
    }
}

fn holds_this(e: &Expr, aliases: &BTreeSet<String>) -> bool {
    match e {
        Expr::This => true,
        Expr::Var(v) => aliases.contains(v),
        _ => false,
    }
}

/// The locals that may hold `this` (join = union), so that `let t = this;
/// t.f` reads `f`.
struct ThisAliases;

impl<'a> Analysis<'a> for ThisAliases {
    type Fact = BTreeSet<String>;

    fn entry_fact(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        let before = into.len();
        into.extend(other.iter().cloned());
        into.len() != before
    }

    fn transfer_stmt(&mut self, stmt: &'a Stmt, fact: &mut Self::Fact) {
        if let StmtKind::Let(n, e) | StmtKind::Assign(Target::Var(n), e) = &stmt.kind {
            if holds_this(e, fact) {
                fact.insert(n.clone());
            } else {
                fact.remove(n);
            }
        }
    }
}

/// Every field any method of the class assigns via `this.f = ...`.
fn fields_written_anywhere(class: &ClassDecl) -> BTreeSet<String> {
    let mut written = BTreeSet::new();
    for method in &class.methods {
        for stmt in &method.body {
            walk_stmt_tree(stmt, &mut |s| {
                if let StmtKind::Assign(Target::Prop(recv, f), _) = &s.kind {
                    if matches!(recv, Expr::This) {
                        written.insert(f.clone());
                    }
                }
            });
        }
    }
    written
}

// ---- AST walking helpers ----

/// Visits `stmt` and every statement nested inside it.
fn walk_stmt_tree(stmt: &Stmt, f: &mut dyn FnMut(&Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => {
            for s in then_body.iter().chain(else_body) {
                walk_stmt_tree(s, f);
            }
        }
        StmtKind::While { body, .. } => {
            for s in body {
                walk_stmt_tree(s, f);
            }
        }
        _ => {}
    }
}

/// Visits every expression directly inside one statement (not nested
/// statements — pair with [`walk_stmt_tree`] for those).
fn walk_stmt_exprs(stmt: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match &stmt.kind {
        StmtKind::Let(_, e) | StmtKind::Expr(e) | StmtKind::Throw(e) => walk_expr(e, f),
        StmtKind::Assign(target, e) => {
            walk_expr(e, f);
            match target {
                Target::Var(_) => {}
                Target::Prop(recv, _) => walk_expr(recv, f),
                Target::Index(recv, idx) => {
                    walk_expr(recv, f);
                    walk_expr(idx, f);
                }
            }
        }
        StmtKind::If { cond, .. } => walk_expr(cond, f),
        StmtKind::While { cond, .. } => walk_expr(cond, f),
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Return(None) | StmtKind::FnDef(_) | StmtKind::ClassDef(_) => {}
    }
}

/// Visits `e` and every subexpression.
fn walk_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Array(items) => items.iter().for_each(|e| walk_expr(e, f)),
        Expr::Not(e) | Expr::Neg(e) => walk_expr(e, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Call { args, .. } | Expr::New { args, .. } => {
            args.iter().for_each(|e| walk_expr(e, f))
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            args.iter().for_each(|e| walk_expr(e, f));
        }
        Expr::Index(recv, idx) => {
            walk_expr(recv, f);
            walk_expr(idx, f);
        }
        Expr::Prop(recv, _) => walk_expr(recv, f),
        _ => {}
    }
}

/// True for literal constants and pure compositions of them.
fn is_const_expr(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => true,
        Expr::Not(e) | Expr::Neg(e) => is_const_expr(e),
        Expr::Binary { left, right, .. } => is_const_expr(left) && is_const_expr(right),
        Expr::Array(items) => items.iter().all(is_const_expr),
        _ => false,
    }
}

// ---- source-level entry points (shared by `resin-lint` and tests) ----

/// Lints every policy class (any class with `export_check`) found in an
/// RSL source. A parse failure is itself a report with one error.
pub fn lint_source(src: &str) -> Vec<LintReport> {
    let stmts = match parse_program(src) {
        Ok(stmts) => stmts,
        Err(e) => {
            return vec![LintReport {
                class_name: "<parse>".into(),
                diagnostics: vec![Diagnostic {
                    code: "RL000",
                    severity: Severity::Error,
                    method: String::new(),
                    line: None,
                    message: format!("parse error: {e}"),
                }],
            }]
        }
    };
    let mut reports = Vec::new();
    for stmt in &stmts {
        walk_stmt_tree(stmt, &mut |s| {
            if let StmtKind::ClassDef(class) = &s.kind {
                if class.method("export_check").is_some() {
                    reports.push(lint_class(class));
                }
            }
        });
    }
    reports
}

/// Extracts candidate RSL snippets embedded in Rust source as raw string
/// literals (`r#"..."#`) that mention `export_check`. Returns each
/// snippet with the 1-based line its literal starts on; snippets that do
/// not parse as RSL are the caller's to skip (many are fragments).
pub fn extract_embedded_rsl(rust_src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let bytes = rust_src.as_bytes();
    let mut i = 0;
    while let Some(rel) = rust_src[i..].find("r#\"") {
        let start = i + rel + 3;
        let Some(end_rel) = rust_src[start..].find("\"#") else {
            break;
        };
        let end = start + end_rel;
        let snippet = &rust_src[start..end];
        if snippet.contains("export_check") {
            let line = 1 + bytes[..start].iter().filter(|b| **b == b'\n').count() as u32;
            out.push((line, snippet.to_string()));
        }
        i = end + 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports(src: &str) -> Vec<LintReport> {
        lint_source(src)
    }

    fn codes(src: &str) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = reports(src)
            .iter()
            .flat_map(|r| r.diagnostics.iter().map(|d| d.code))
            .collect();
        out.dedup();
        out
    }

    #[test]
    fn clean_policy_has_no_diagnostics() {
        let r = reports(
            r#"class PasswordPolicy {
                 fn init(email) { this.email = email; }
                 fn export_check(context) {
                   if (context["type"] == "email" && context["email"] == this.email) { return; }
                   throw "unauthorized disclosure";
                 }
               }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].diagnostics.is_empty(), "{}", r[0].render());
    }

    #[test]
    fn always_allow_and_always_deny_warn() {
        assert_eq!(
            codes(r#"class Tag { fn export_check(context) { return; } }"#),
            vec!["RL001"]
        );
        assert_eq!(
            codes(r#"class No { fn export_check(context) { throw "never"; } }"#),
            vec!["RL002"]
        );
    }

    #[test]
    fn undefined_method_is_an_error() {
        let r = reports(r#"class M { fn export_check(context) { this.nope(); } }"#);
        assert!(r[0].has_errors());
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL003"));
    }

    #[test]
    fn unreachable_deny_is_an_error_with_line() {
        let r = reports(
            "class U {\n  fn export_check(context) {\n    if (1 > 2) {\n      throw \"never fires\";\n    }\n  }\n}",
        );
        let d = r[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "RL004")
            .expect("RL004");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.line, Some(4));
        // The deny branch being unreachable ALSO makes the check
        // unconditionally allow.
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL001"));
    }

    #[test]
    fn infinite_loop_is_an_error() {
        let r = reports(r#"class L { fn export_check(context) { while (1 < 2) { let x = 1; } } }"#);
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL005"));
        // A loop that can throw its way out is not flagged.
        let r = reports(
            r#"class Ok { fn export_check(context) { while (true) { if (context["stop"]) { throw "deny"; } } } }"#,
        );
        assert!(r[0].diagnostics.iter().all(|d| d.code != "RL005"));
        // Nor is one that calls a method (the callee may throw).
        let r = reports(
            r#"class Call {
                 fn step() { throw "done"; }
                 fn export_check(context) { while (true) { this.step(); } }
               }"#,
        );
        assert!(r[0].diagnostics.iter().all(|d| d.code != "RL005"));
    }

    #[test]
    fn dead_code_lines_come_from_the_chunk_line_table() {
        let r = reports(
            "class D {\n  fn export_check(context) {\n    throw \"deny\";\n    let dead = 1;\n  }\n}",
        );
        let d = r[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "RL006")
            .expect("RL006");
        assert_eq!(d.line, Some(4));
        // Methods that merely end in an explicit return are NOT flagged
        // (the compiler's implicit-return epilogue is an artifact).
        let r = reports(
            r#"class Fine {
                 fn allowed(u) { if (u == "a") { return true; } return false; }
                 fn export_check(context) {
                   if (this.allowed(context["user"])) { return; }
                   throw "no";
                 }
               }"#,
        );
        assert!(
            r[0].diagnostics.iter().all(|d| d.code != "RL006"),
            "{}",
            r[0].render()
        );
    }

    #[test]
    fn undefined_variable_is_an_error_possibly_unassigned_warns() {
        let r = reports(
            r#"class V { fn export_check(context) { if (quota > 1) { return; } throw "no"; } }"#,
        );
        let d = r[0]
            .diagnostics
            .iter()
            .find(|d| d.code == "RL007")
            .expect("RL007");
        assert_eq!(d.severity, Severity::Error);
        let r = reports(
            r#"class W {
                 fn export_check(context) {
                   if (context["a"]) { x = 1; }
                   if (x > 0) { return; }
                   throw "no";
                 }
               }"#,
        );
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL010"));
        assert!(!r[0].has_errors());
    }

    #[test]
    fn constant_return_laundering_warns() {
        let r = reports(
            r#"class S {
                 fn sanitize(input) { return "clean"; }
                 fn export_check(context) {
                   if (this.sanitize(context["body"]) == "clean") { return; }
                   throw "dirty";
                 }
               }"#,
        );
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL008"));
    }

    #[test]
    fn never_written_field_warns() {
        let r = reports(
            r#"class F {
                 fn export_check(context) {
                   if (this.limit > 0) { return; }
                   throw "no";
                 }
               }"#,
        );
        assert!(r[0].diagnostics.iter().any(|d| d.code == "RL009"));
        assert!(!r[0].has_errors());
    }

    #[test]
    fn calls_and_field_reads_come_from_reachable_blocks_and_this_aliases() {
        // A call in a dead block is never made, nor is what it would reach.
        assert_eq!(
            codes(
                r#"class Dead {
                     fn helper() { return this.w + this.nope(); }
                     fn export_check(context) {
                       if (false) { this.nope(); }
                       if (1 > 2) { this.helper(); }
                       if (context["a"]) { throw "no"; }
                     }
                   }"#
            ),
            Vec::<&str>::new()
        );
        // A local holding `this` reads the field it names, and stops
        // doing so once reassigned.
        let r = reports(
            r#"class Alias {
                 fn export_check(context) {
                   let t = this;
                   let n = t.x;
                   t = new Alias();
                   if (context["a"]) { throw "no"; }
                   return t.y;
                 }
               }"#,
        );
        let messages: Vec<String> = r[0].diagnostics.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            messages,
            [
                "RL003 error: call to undefined method `init`",
                "RL009 warning: field `x` is read by the check but written by no method; \
                 instances missing it fail every crossing",
            ]
        );
        // A field of a new instance is not a field of `this`.
        assert_eq!(
            codes(
                r#"class Fresh {
                     fn init(n) { this.n = n; }
                     fn export_check(context) { if (new Fresh(1).y > 0) { throw "no"; } }
                   }"#
            ),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn parse_failure_reports_rl000() {
        let r = lint_source("class {{{");
        assert!(r[0].has_errors());
        assert_eq!(r[0].diagnostics[0].code, "RL000");
    }

    #[test]
    fn embedded_extraction_finds_policies() {
        let rust = "start\nlet x = r#\"class P { fn export_check(c) { return; } }\"#;\nlet y = r#\"no policy here\"#;\n";
        let found = extract_embedded_rsl(rust);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 2);
        assert!(found[0].1.contains("class P"));
    }
}
