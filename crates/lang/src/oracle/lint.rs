//! The policy linter as it ran on method ASTs, kept as the reference
//! the bytecode linter ([`crate::analysis::lint`]) is held to: over the
//! same class both must find the same errors and the same warnings, and
//! RL006's dead lines — which this one takes from a chunk compiled apart
//! and scans linearly — must be a subset of the bytecode linter's.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::analysis::{Diagnostic, LintReport, Severity};
use crate::ast::{ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::chunk::Op;
use crate::compiler::{compile_function, const_truth};

use super::cfg::{Cfg, Term};
use super::dataflow::{forward, Analysis, DefiniteAssignment};

/// Lints one policy class. For a class without `export_check` the report
/// is empty (it is not a policy; nothing enforces on it).
pub(crate) fn lint_class(class: &ClassDecl) -> LintReport {
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
                // (A bare `return;` returns the constant `null`.)
                if let StmtKind::Return(e) = &s.kind {
                    if e.as_ref().is_none_or(is_const_expr) && const_return_line.is_none() {
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
