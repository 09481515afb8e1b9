//! The RSL policy linter.
//!
//! A policy that can never deny, never runs its deny branch, loops
//! forever, or calls code that does not exist defeats the data-flow
//! assertion it implements — and unlike application code, policy code
//! runs inside the gate with no one watching. The linter reads the
//! bytecode a crossing runs — the chunks of the class's check plan
//! ([`crate::check`]), compiled once at registration — through
//! the basic blocks of `analysis::graph`, and reports those bugs as coded
//! diagnostics, each line from the chunk's line table:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | RL001 | warning  | `export_check` can never throw: the policy allows everything |
//! | RL002 | warning  | `export_check` can never complete: the policy denies everything |
//! | RL003 | error    | call to a method the class does not define |
//! | RL004 | error    | a `throw` (deny branch) that can never execute |
//! | RL005 | error    | a loop that provably never exits (back-jump budget exceeded) |
//! | RL006 | warning  | dead statements: after `throw`/`return`, behind a constant guard, after a loop that never exits |
//! | RL007 | error    | read of a variable never assigned in the method (the check evaluator has no globals) |
//! | RL008 | warning  | method ignores all its parameters and returns a constant (label-laundering smell) |
//! | RL009 | warning  | field read by the check but written by no method |
//! | RL010 | warning  | variable may be read before assignment on some path |
//!
//! Error-severity diagnostics fail a class closed at registration, which
//! then registers no reviver for its persisted instances; warnings
//! accumulate on the interpreter's [`LintReport`] list for the
//! application to surface.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ast::{ClassDecl, Stmt, StmtKind};
use crate::check::{plan_for, ClassPlan};
use crate::chunk::{Chunk, Op, Src};
use crate::parser::parse_program;

use super::graph::Graph;

/// How bad a diagnostic is. Errors fail closed at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal; surfaced, never fatal.
    Warning,
    /// Unsound policy code; registration refuses it.
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
    #[cfg(test)]
    pub(crate) fn has_errors(&self) -> bool {
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
pub fn lint_class(class: &Arc<ClassDecl>) -> LintReport {
    let mut diags = Vec::new();
    let Some(entry) = class.methods.iter().position(|m| m.name == "export_check") else {
        return LintReport {
            class_name: class.name.clone(),
            diagnostics: diags,
        };
    };
    let plan = plan_for(class);
    let methods: Vec<Option<Method>> = (0..class.methods.len())
        .map(|i| Method::of(&plan, i))
        .collect();

    // RL003: calls to undefined methods, from what a run can reach.
    let (live, missing) = reach(class, &methods, entry, true);
    for m in &missing {
        diags.push(diag(
            "RL003",
            Severity::Error,
            "",
            None,
            format!("call to undefined method `{m}`"),
        ));
    }

    // RL009: fields the check reads but no method ever writes.
    let reads: BTreeSet<&str> = live.iter().flat_map(|m| m.field_reads()).collect();
    let written: BTreeSet<&str> = methods
        .iter()
        .flatten()
        .flat_map(|m| m.fields_set_on_this())
        .collect();
    for f in reads.difference(&written) {
        diags.push(diag(
            "RL009",
            Severity::Warning,
            "",
            None,
            format!(
                "field `{f}` is read by the check but written by no method; \
                 instances missing it fail every crossing"
            ),
        ));
    }

    // The per-method lints cover every method a call names, live or dead.
    let (reached, _) = reach(class, &methods, entry, false);
    let (mut any_reachable_throw, mut check_completes) = (false, false);
    for method in reached {
        let (throws, completes) = method.lint(&mut diags);
        any_reachable_throw |= throws;
        check_completes |= completes && method.name() == "export_check";
    }

    // RL001 / RL002: the check's outcome is a foregone conclusion.
    if !any_reachable_throw {
        let message = "no reachable `throw`: the check allows every crossing";
        diags.push(diag(
            "RL001",
            Severity::Warning,
            "export_check",
            None,
            message.into(),
        ));
    } else if !check_completes {
        let message = "no path completes without `throw`: the check denies every crossing";
        diags.push(diag(
            "RL002",
            Severity::Warning,
            "export_check",
            None,
            message.into(),
        ));
    }

    diags.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.code, d.line));
    LintReport {
        class_name: class.name.clone(),
        diagnostics: diags,
    }
}

fn diag(
    code: &'static str,
    severity: Severity,
    method: &str,
    line: Option<u32>,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code,
        severity,
        method: method.to_string(),
        line,
        message,
    }
}

/// The methods reachable from `export_check`, in visit order, following
/// the calls of each (only those its entry can reach, when `live`); and
/// the names called that the class does not define.
fn reach<'m>(
    class: &ClassDecl,
    methods: &'m [Option<Method<'m>>],
    entry: usize,
    live: bool,
) -> (Vec<&'m Method<'m>>, BTreeSet<String>) {
    let (mut reached, mut missing) = (Vec::new(), BTreeSet::new());
    let mut seen = BTreeSet::from(["export_check".to_string()]);
    let mut queue = vec![Ok(entry)];
    while let Some(callee) = queue.pop() {
        let index = match callee {
            Ok(index) => index,
            Err(name) => {
                missing.insert(name);
                continue;
            }
        };
        // (A method that does not compile has no code to lint.)
        let Some(method) = &methods[index] else {
            continue;
        };
        reached.push(method);
        let unseen = method.calls(class, live).filter(|callee| {
            let name = match callee {
                Ok(i) => class.methods[*i].name.clone(),
                Err(name) => name.clone(),
            };
            seen.insert(name)
        });
        queue.extend(unseen);
    }
    (reached, missing)
}

/// One method's chunk, from the class's check plan, and its graph.
struct Method<'p> {
    chunk: &'p Chunk,
    graph: Graph,
    /// Per instruction: reachable from the method's entry.
    live: Vec<bool>,
}

impl<'p> Method<'p> {
    fn of(plan: &'p ClassPlan, index: usize) -> Option<Method<'p>> {
        let chunk = &**plan.chunk(index).ok()?;
        let graph = Graph::of(chunk);
        let live = graph.live_ops();
        Some(Method { chunk, graph, live })
    }

    fn name(&self) -> &str {
        &self.chunk.name
    }

    fn line(&self, ip: usize) -> Option<u32> {
        self.chunk.line_of(ip)
    }

    fn named_slots(&self) -> usize {
        self.chunk.slot_names.len()
    }

    /// The method each call instruction names, by index among the class's
    /// methods, or by name when the class has none of that name: `m` for
    /// `x.m(...)` (the only objects are `this` and new instances of its
    /// class), `init` for `new` of the class itself.
    fn calls<'a>(
        &'a self,
        class: &'a ClassDecl,
        live: bool,
    ) -> impl Iterator<Item = Result<usize, String>> + 'a {
        let names = &self.chunk.names;
        self.chunk
            .code
            .iter()
            .zip(&self.live)
            .filter(move |(_, reached)| **reached || !live)
            .filter_map(move |(op, _)| match *op {
                Op::Method { index, name, .. } if index == Op::UNRESOLVED => {
                    Some(Err(names[name as usize].to_string()))
                }
                Op::Method { index, .. } => Some(Ok(index as usize)),
                Op::New { class: c, .. } if *names[c as usize] == *class.name => Some(
                    class
                        .methods
                        .iter()
                        .position(|m| m.name == "init")
                        .ok_or_else(|| "init".to_string()),
                ),
                _ => None,
            })
    }

    /// The fields reachable code reads off `this` or a local that may hold
    /// it (so `let t = this; t.f` reads `f`).
    fn field_reads(&self) -> Vec<&'p str> {
        let named = self.named_slots();
        let holds_this = |src: Src, aliases: &[bool]| match src.decode() {
            Ok(slot) => slot == 0 || (slot < named && aliases[slot]),
            Err(_) => false,
        };
        let step = |op: Op, aliases: &mut Vec<bool>| {
            if let Some(dst) = op.dest().map(usize::from).filter(|&d| d < named) {
                aliases[dst] = matches!(op, Op::Move { src, .. } | Op::Assign { src, .. }
                    if holds_this(src, aliases));
            }
        };
        let facts = self.graph.forward(
            self.chunk,
            vec![false; named],
            |into, from| union(into, from),
            |_, op, aliases| step(op, aliases),
        );
        let mut reads = Vec::new();
        for (block, fact) in self.graph.blocks.iter().zip(facts) {
            let Some(mut aliases) = fact else { continue };
            for &op in &self.chunk.code[block.start..block.end] {
                if let Op::GetProp { obj, name, .. } = op {
                    if holds_this(obj, &aliases) {
                        reads.push(&*self.chunk.names[name as usize]);
                    }
                }
                step(op, &mut aliases);
            }
        }
        reads
    }

    /// Every field the method assigns as `this.f = ...`, live or dead.
    fn fields_set_on_this(&self) -> Vec<&'p str> {
        let chunk = self.chunk;
        chunk
            .code
            .iter()
            .filter_map(|op| match *op {
                Op::SetProp { obj, name, .. } if obj == Src::slot(0) => {
                    Some(&*chunk.names[name as usize])
                }
                _ => None,
            })
            .collect()
    }

    /// Lints the method; returns whether it has a reachable `throw` and
    /// whether a reachable path completes without one.
    fn lint(&self, diags: &mut Vec<Diagnostic>) -> (bool, bool) {
        // RL004: a deny branch that can never fire — a `throw` the entry
        // cannot reach (behind a constant guard, or past an exit).
        let (mut throws, mut completes) = (false, false);
        for (ip, op) in self.chunk.code.iter().enumerate() {
            match (op, self.live[ip]) {
                (Op::Throw { .. }, false) => diags.push(diag(
                    "RL004",
                    Severity::Error,
                    self.name(),
                    self.line(ip),
                    "`throw` can never execute: this deny branch is unreachable".into(),
                )),
                (Op::Throw { .. }, true) => throws = true,
                (Op::Return { .. }, true) => completes = true,
                _ => {}
            }
        }
        self.lint_loops(diags);
        self.lint_variable_reads(diags);
        self.lint_constant_return(diags);
        self.lint_dead_statements(diags);
        (throws, completes)
    }

    /// RL005: a reachable loop that no jump leaves (its guard folded to
    /// nothing: constantly true) and whose body can neither `return`,
    /// `throw` nor call a method that could. Builtin calls cannot raise
    /// script exceptions, so the loop can only end in a runtime error or
    /// by exhausting the back-jump budget.
    fn lint_loops(&self, diags: &mut Vec<Diagnostic>) {
        let code = &self.chunk.code;
        for (back, op) in code.iter().enumerate() {
            let Op::Jump(top) = *op else { continue };
            let top = top as usize;
            let body = top..=back;
            let leaves = |op: &Op| op.jump_target().is_some_and(|t| !body.contains(&t));
            if top > back || code[top..=back].iter().any(leaves) {
                continue;
            }
            let header = self.graph.block_of(top);
            if !self.graph.reachable[header] {
                continue;
            }
            let runs = self.graph.reachable_from(header);
            let escapes = self.graph.blocks.iter().zip(&runs).any(|(block, runs)| {
                *runs
                    && code[block.start..block.end].iter().any(|op| {
                        matches!(
                            op,
                            Op::Return { .. }
                                | Op::Throw { .. }
                                | Op::Method { .. }
                                | Op::New { .. }
                        )
                    })
            });
            if !escapes {
                diags.push(diag(
                    "RL005",
                    Severity::Error,
                    self.name(),
                    self.line(back),
                    "loop guard is constantly true and the body never exits: \
                     the back-jump budget is provably exceeded"
                        .into(),
                ));
            }
        }
    }

    /// RL007 (a read of a name that is no local: the check evaluator has no
    /// globals, so it always fails) and RL010 (a read of a local that is
    /// not bound on every path reaching it).
    fn lint_variable_reads(&self, diags: &mut Vec<Diagnostic>) {
        let named = self.named_slots();
        let bind = |op: Op, bound: &mut Vec<bool>| {
            if let Some(dst) = op.dest().map(usize::from).filter(|&d| d < named) {
                bound[dst] = true;
            }
        };
        let mut entry = vec![false; named];
        entry[..=self.chunk.arity].fill(true);
        let facts = self.graph.forward(
            self.chunk,
            entry,
            |into, from| intersection(into, from),
            |_, op, bound| bind(op, bound),
        );
        let mut reported = BTreeSet::new();
        for (block, fact) in self.graph.blocks.iter().zip(facts) {
            let Some(mut bound) = fact else { continue };
            for ip in block.start..block.end {
                let op = self.chunk.code[ip];
                let line = self.line(ip);
                if let Op::LoadGlobal { name, .. } = op {
                    let v = &self.chunk.names[name as usize];
                    if reported.insert((v.clone(), line)) {
                        diags.push(diag(
                            "RL007",
                            Severity::Error,
                            self.name(),
                            line,
                            format!(
                                "`{v}` is never assigned in this method; the check \
                                 evaluator has no globals to fall back to"
                            ),
                        ));
                    }
                }
                for src in op.sources().into_iter().flatten() {
                    let Ok(slot) = src.decode() else { continue };
                    if slot >= named || bound[slot] {
                        continue;
                    }
                    let v = &self.chunk.slot_names[slot];
                    if reported.insert((v.clone(), line)) {
                        diags.push(diag(
                            "RL010",
                            Severity::Warning,
                            self.name(),
                            line,
                            format!("`{v}` may be read before it is assigned"),
                        ));
                    }
                }
                bind(op, &mut bound);
            }
        }
    }

    /// RL008: the method reads none of its parameters and returns a
    /// constant — a sanitizer-shaped helper that launders labels by
    /// construction.
    fn lint_constant_return(&self, diags: &mut Vec<Diagnostic>) {
        let (chunk, arity) = (self.chunk, self.chunk.arity);
        if self.name() == "export_check" || arity == 0 {
            return;
        }
        let param = |src: Src| matches!(src.decode(), Ok(slot) if (1..=arity).contains(&slot));
        if chunk
            .code
            .iter()
            .any(|op| op.sources().into_iter().flatten().any(param))
        {
            return;
        }
        // (The last instruction is the implicit `return null`.)
        let epilogue = chunk.code.len() - 1;
        let constant = (0..epilogue).find(|&ip| {
            matches!(chunk.code[ip], Op::Return { .. }) && self.computes_from_constants(ip)
        });
        if let Some(ip) = constant {
            diags.push(diag(
                "RL008",
                Severity::Warning,
                self.name(),
                self.line(ip),
                "returns a constant while ignoring every parameter: \
                 the result carries no label from its inputs"
                    .into(),
            ));
        }
    }

    /// True when the statement whose code ends at `end` — it starts at its
    /// line-table entry — only computes from literals: every operand is a
    /// constant or a temporary, and nothing is loaded, called or indexed.
    fn computes_from_constants(&self, end: usize) -> bool {
        let lines = &self.chunk.lines;
        let start = lines[lines.partition_point(|&(at, _)| at as usize <= end) - 1].0 as usize;
        let named = self.named_slots();
        self.chunk.code[start..=end].iter().all(|op| {
            let computes = matches!(
                op,
                Op::Move { .. }
                    | Op::MakeArray { .. }
                    | Op::Not { .. }
                    | Op::Neg { .. }
                    | Op::Add { .. }
                    | Op::Sub { .. }
                    | Op::Mul { .. }
                    | Op::Div { .. }
                    | Op::Mod { .. }
                    | Op::Cmp { .. }
                    | Op::CmpJump { .. }
                    | Op::Jump(_)
                    | Op::JumpIf { .. }
                    | Op::Return { .. }
            );
            let from_constants = |src: Src| src.decode().map_or(true, |slot| slot >= named);
            computes && op.sources().into_iter().flatten().all(from_constants)
        })
    }

    /// RL006: statements the entry cannot reach, one finding per line.
    /// Compiler artifacts — the implicit return, the jump that rejoins
    /// after an arm, a loop's back-edge — are skipped, so that only source
    /// statements report.
    fn lint_dead_statements(&self, diags: &mut Vec<Diagnostic>) {
        let mut reported = BTreeSet::new();
        for (ip, op) in self.chunk.code.iter().enumerate() {
            let artifact = match op {
                Op::Jump(_) | Op::Return { .. } => true,
                op => op.jump_target().is_some_and(|t| t <= ip),
            };
            if self.live[ip] || artifact {
                continue;
            }
            if let Some(line) = self.line(ip).filter(|line| reported.insert(*line)) {
                diags.push(diag(
                    "RL006",
                    Severity::Warning,
                    self.name(),
                    Some(line),
                    "statement is unreachable (dead code after `return`/`throw`, \
                     behind a constant guard or after a loop that never exits)"
                        .into(),
                ));
            }
        }
    }
}

fn union(into: &mut [bool], from: &[bool]) -> bool {
    let mut changed = false;
    for (i, f) in into.iter_mut().zip(from) {
        changed |= !*i && *f;
        *i |= *f;
    }
    changed
}

fn intersection(into: &mut [bool], from: &[bool]) -> bool {
    let mut changed = false;
    for (i, f) in into.iter_mut().zip(from) {
        changed |= *i && !*f;
        *i &= *f;
    }
    changed
}

// ---- source-level entry points (shared by `resin-lint` and tests) ----

/// Lints every policy class (any class with `export_check`) found in an
/// RSL source, nested ones included. A parse failure is itself a report
/// with one error.
pub fn lint_source(src: &str) -> Vec<LintReport> {
    let stmts = match parse_program(src) {
        Ok(stmts) => stmts,
        Err(e) => {
            return vec![LintReport {
                class_name: "<parse>".into(),
                diagnostics: vec![diag(
                    "RL000",
                    Severity::Error,
                    "",
                    None,
                    format!("parse error: {e}"),
                )],
            }]
        }
    };
    let mut classes = Vec::new();
    policy_classes(&stmts, &mut classes);
    classes.into_iter().map(lint_class).collect()
}

/// The policy classes `stmts` define, in source order, including those
/// defined inside a branch, a loop, a function or a method.
pub(crate) fn policy_classes<'s>(stmts: &'s [Stmt], out: &mut Vec<&'s Arc<ClassDecl>>) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::ClassDef(class) => {
                if class.method("export_check").is_some() {
                    out.push(class);
                }
                for method in &class.methods {
                    policy_classes(&method.body, out);
                }
            }
            StmtKind::FnDef(decl) => policy_classes(&decl.body, out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                policy_classes(then_body, out);
                policy_classes(else_body, out);
            }
            StmtKind::While { body, .. } => policy_classes(body, out),
            _ => {}
        }
    }
}

/// The policy corpus's scan list (`crates/lang/tests/policy_corpus.txt`,
/// which CI's `resin-lint` step, `tests/lint.rs` and the differential
/// oracle all read): the directories to sweep, and the path substrings to
/// skip inside them.
#[derive(Debug, Default)]
pub struct CorpusList {
    /// Directories to sweep (in the list file, relative to the
    /// repository root).
    pub scans: Vec<String>,
    /// A path containing one of these is skipped.
    pub excludes: Vec<String>,
}

impl CorpusList {
    /// Reads the list: one `scan DIR` or `exclude SUBSTR` a line; blank
    /// lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<CorpusList, String> {
        let mut list = CorpusList::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once(' ') {
                Some(("scan", dir)) => list.scans.push(dir.trim().to_string()),
                Some(("exclude", pat)) => list.excludes.push(pat.trim().to_string()),
                _ => {
                    return Err(format!(
                        "line {}: not `scan DIR` or `exclude SUBSTR`",
                        n + 1
                    ))
                }
            }
        }
        Ok(list)
    }

    /// Whether the list skips `path`.
    pub fn skips(&self, path: &std::path::Path) -> bool {
        let shown = path.display().to_string();
        self.excludes.iter().any(|pat| shown.contains(pat.as_str()))
    }
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
        // A call in a dead block is never made, nor is what it would reach:
        // the dead arms are dead code, and that is all.
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
            vec!["RL006"]
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
