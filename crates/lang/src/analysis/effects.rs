//! Field-sensitive effects analysis for policy classes.
//!
//! The per-crossing check caches (the materialized `this` object and the
//! `$context` map) are only sound when `export_check` cannot observably
//! mutate them. PR 9's answer was all-or-nothing: any `Prop`/`Index`
//! store anywhere in the reachable methods disqualified the class. This
//! pass answers the finer question the caches actually ask:
//!
//! * **which** fields of `this` are directly written, and which are read
//!   — a write to a field no reachable method ever reads (a scratch /
//!   audit field) cannot be observed on a later crossing, so the cached
//!   object may live on;
//! * **where container values flow** — a provenance lattice tracks, per
//!   local, which fields' (or the context's) containers it may alias, so
//!   a deep store like `let w = this.weights; w[0] = 9;` or
//!   `push(this.log, x)` is charged to the field it reaches;
//! * **escape points** — `this` leaking into a builtin, a store through a
//!   value of unknown provenance, or a nested `fn`/`class` definition
//!   makes the class opaque and disqualifies it outright.
//!
//! The analysis is a forward dataflow over each reachable method's CFG
//! (reachable from `export_check` through `this.m(...)` and `new`), using
//! the shared worklist framework. It is deliberately conservative: every
//! method is analyzed with `this` bound to the real receiver and its
//! parameters bound to unknown provenance, so a helper that mutates its
//! argument poisons the verdict no matter what is passed at a call site.

use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};

use super::cfg::Cfg;
use super::dataflow::{forward, transfer_block, Analysis};

/// Where a local's value may have come from. The lattice is a powerset:
/// join is field-set union plus flag OR; the empty provenance means the
/// value is definitely fresh (built by this run) or an immutable scalar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Prov {
    /// Fields of `this` whose container the value may alias (directly or
    /// through nesting — an element of a field-held list keeps the
    /// field's provenance).
    pub fields: BTreeSet<String>,
    /// May alias the `$context` map (or a container inside it).
    pub ctx: bool,
    /// May be the `this` object itself.
    pub this_obj: bool,
    /// May be anything at all (method-call results).
    pub unknown: bool,
}

impl Prov {
    fn fresh() -> Prov {
        Prov::default()
    }

    fn this_object() -> Prov {
        Prov {
            this_obj: true,
            ..Prov::default()
        }
    }

    fn context() -> Prov {
        Prov {
            ctx: true,
            ..Prov::default()
        }
    }

    fn unknown() -> Prov {
        Prov {
            unknown: true,
            ..Prov::default()
        }
    }

    fn field(name: &str) -> Prov {
        let mut p = Prov::default();
        p.fields.insert(name.to_string());
        p
    }

    fn union(&mut self, other: &Prov) -> bool {
        let before = (self.fields.len(), self.ctx, self.this_obj, self.unknown);
        self.fields.extend(other.fields.iter().cloned());
        self.ctx |= other.ctx;
        self.this_obj |= other.this_obj;
        self.unknown |= other.unknown;
        before != (self.fields.len(), self.ctx, self.this_obj, self.unknown)
    }

    fn is_fresh(&self) -> bool {
        self.fields.is_empty() && !self.ctx && !self.this_obj && !self.unknown
    }
}

/// The merged effects of every method reachable from `export_check`.
#[derive(Debug, Clone, Default)]
pub struct ClassEffects {
    /// Fields of `this` directly written (`this.f = ...`).
    pub field_writes: BTreeSet<String>,
    /// Fields of `this` read anywhere in a reachable method.
    pub field_reads: BTreeSet<String>,
    /// Fields whose container may be mutated in place (index store,
    /// `push`, `pop` through any alias).
    pub deep_writes: BTreeSet<String>,
    /// The `$context` map (or a container inside it) may be mutated.
    pub ctx_mutated: bool,
    /// The analysis gave up: `this` escaped into a builtin, a value of
    /// unknown provenance was mutated, a nested `fn`/`class` definition
    /// could shadow builtins, or `new` targets a foreign class.
    pub opaque: bool,
    /// Methods invoked on `this` (or `new`-reached `init`) that the
    /// class does not define — a guaranteed runtime error if executed,
    /// surfaced by the linter.
    pub missing_methods: BTreeSet<String>,
}

impl ClassEffects {
    /// True when the per-crossing caches may keep the materialized
    /// `this` and the `$context` map across crossings: nothing escapes,
    /// no container reachable from a field or the context is mutated in
    /// place, and every directly-written field is write-only (never read
    /// by any reachable method, so no later crossing can observe the
    /// previous crossing's value).
    pub fn cache_eligible(&self) -> bool {
        !self.opaque
            && !self.ctx_mutated
            && self.deep_writes.is_empty()
            && self.field_writes.is_disjoint(&self.field_reads)
    }
}

/// Computes the merged [`ClassEffects`] of all methods reachable from
/// `export_check`. A class without `export_check` is marked opaque (it
/// is not a policy class; nothing should cache for it).
pub fn class_effects(class: &ClassDecl) -> ClassEffects {
    let mut effects = ClassEffects::default();
    if class.method("export_check").is_none() {
        effects.opaque = true;
        return effects;
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    seen.insert("export_check");
    queue.push_back("export_check");
    while let Some(name) = queue.pop_front() {
        let Some(method) = class.method(name) else {
            continue; // already reported via missing_methods
        };
        let reached = analyze_method(class, method, name == "export_check", &mut effects);
        for m in reached {
            if seen.insert(m) {
                queue.push_back(m);
            }
        }
    }
    effects
}

/// Analyzes one method with the shared dataflow framework, merging its
/// effects into `effects`; returns the method names it may invoke on
/// `this` (including `init` for `new` of the same class).
fn analyze_method<'a>(
    class: &'a ClassDecl,
    method: &'a FnDecl,
    is_entry: bool,
    effects: &mut ClassEffects,
) -> Vec<&'a str> {
    let cfg = Cfg::build(&method.body);
    let mut analysis = EffectsAnalysis {
        class,
        entry_ctx_param: if is_entry {
            method.params.first().cloned()
        } else {
            None
        },
        params: &method.params,
        effects: ClassEffects::default(),
        reached: Vec::new(),
        collect: false,
    };
    let entry_facts = forward(&cfg, &mut analysis);
    // The fixpoint ran with collection off (facts were still growing);
    // replay every reachable block once against its stable entry fact to
    // record effects soundly.
    analysis.collect = true;
    analysis.effects = ClassEffects::default();
    analysis.reached.clear();
    for (id, fact) in entry_facts.into_iter().enumerate() {
        let Some(mut fact) = fact else { continue };
        transfer_block(&cfg, &mut analysis, id, &mut fact);
    }
    merge(effects, analysis.effects);
    analysis.reached
}

fn merge(into: &mut ClassEffects, from: ClassEffects) {
    into.field_writes.extend(from.field_writes);
    into.field_reads.extend(from.field_reads);
    into.deep_writes.extend(from.deep_writes);
    into.ctx_mutated |= from.ctx_mutated;
    into.opaque |= from.opaque;
    into.missing_methods.extend(from.missing_methods);
}

/// Environment fact: provenance per local variable. Absent = fresh.
type Env = BTreeMap<String, Prov>;

struct EffectsAnalysis<'a> {
    class: &'a ClassDecl,
    /// The entry method's context parameter name, if any.
    entry_ctx_param: Option<String>,
    params: &'a [String],
    effects: ClassEffects,
    reached: Vec<&'a str>,
    /// True during the post-fixpoint replay, when recording is sound.
    collect: bool,
}

impl<'a> EffectsAnalysis<'a> {
    fn note_deep_write(&mut self, target: &Prov) {
        if !self.collect {
            return;
        }
        for f in &target.fields {
            self.effects.deep_writes.insert(f.clone());
        }
        if target.ctx {
            self.effects.ctx_mutated = true;
        }
        if target.this_obj || target.unknown {
            // Mutating `this` itself, or something we cannot name, is
            // beyond the field-sensitive story: give up.
            self.effects.opaque = true;
        }
    }

    fn note_read(&mut self, field: &str) {
        if self.collect {
            self.effects.field_reads.insert(field.to_string());
        }
    }

    fn note_write(&mut self, field: &str) {
        if self.collect {
            self.effects.field_writes.insert(field.to_string());
        }
    }

    fn reach(&mut self, method: &'a str) {
        if self.collect {
            if self.class.method(method).is_some() {
                if !self.reached.contains(&method) {
                    self.reached.push(method);
                }
            } else {
                self.effects.missing_methods.insert(method.to_string());
            }
        }
    }

    /// Evaluates an expression's provenance, recording reads, mutations
    /// (`push`/`pop`), reachability, and escapes along the way.
    fn eval(&mut self, expr: &'a Expr, env: &Env) -> Prov {
        match expr {
            Expr::Int(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => Prov::fresh(),
            Expr::Var(name) => {
                if self.entry_ctx_param.as_deref() == Some(name) {
                    Prov::context()
                } else {
                    env.get(name).cloned().unwrap_or_default()
                }
            }
            Expr::This => Prov::this_object(),
            Expr::Array(items) => {
                // A fresh array, but elements keep their provenance: an
                // index chain through the literal reaches them.
                let mut p = Prov::fresh();
                for item in items {
                    let ip = self.eval(item, env);
                    p.union(&ip);
                }
                if p.this_obj && self.collect {
                    // `[this][0]` is `this` again: a container holding
                    // the object launders the alias, so fail closed.
                    self.effects.opaque = true;
                }
                Prov {
                    this_obj: false,
                    ..p
                }
            }
            Expr::Not(e) | Expr::Neg(e) => {
                self.eval(e, env);
                Prov::fresh() // result is a fresh scalar
            }
            Expr::Binary { left, right, .. } => {
                self.eval(left, env);
                self.eval(right, env);
                Prov::fresh() // scalars and fresh strings only
            }
            Expr::Call { name, args } => {
                let mut arg_provs = Vec::with_capacity(args.len());
                for a in args {
                    arg_provs.push(self.eval(a, env));
                }
                if name == "push" || name == "pop" {
                    // The only builtins that mutate a value in place
                    // (the mini-evaluator is a closed world: bare calls
                    // are always builtins).
                    if let Some(target) = arg_provs.first() {
                        self.note_deep_write(&target.clone());
                    }
                } else if self.collect && arg_provs.iter().any(|p| p.this_obj) {
                    // `this` escaping into any other builtin (say
                    // `str(this)`) could observe arbitrary fields.
                    self.effects.opaque = true;
                }
                // Builtin results may alias a container argument (`pop`
                // returns an element), so the union is the safe answer.
                let mut p = Prov::fresh();
                for ap in &arg_provs {
                    p.union(ap);
                }
                Prov {
                    this_obj: false,
                    ..p
                }
            }
            Expr::MethodCall { recv, method, args } => {
                self.eval(recv, env);
                for a in args {
                    self.eval(a, env);
                }
                // The receiver may alias `this` (it is the only object in
                // the mini-evaluator's world besides fresh `new`s of the
                // same class), so the named method joins the reachable
                // set; its body is analyzed separately with unknown
                // parameter provenance.
                self.reach(method);
                Prov::unknown()
            }
            Expr::Prop(recv, field) => {
                let rp = self.eval(recv, env);
                let mut p = Prov::fresh();
                if rp.this_obj {
                    self.note_read(field);
                    p.union(&Prov::field(field));
                }
                if rp.unknown || rp.ctx || !rp.fields.is_empty() {
                    // Reading a property off something that is not
                    // provably `this` or fresh: the result could be
                    // anything those sources hold.
                    let mut carried = rp.clone();
                    carried.this_obj = false;
                    p.union(&carried);
                }
                p
            }
            Expr::Index(recv, idx) => {
                self.eval(idx, env);
                let mut p = self.eval(recv, env);
                // An element of a container keeps the container's
                // provenance (nested lists); `this[i]` errors at runtime
                // so the flag is dropped rather than propagated.
                p.this_obj = false;
                p
            }
            Expr::New { class, args } => {
                let mut p = Prov::fresh();
                for a in args {
                    let ap = self.eval(a, env);
                    p.union(&ap);
                }
                if *class == self.class.name {
                    // `new` of the same class runs `init`; conservatively
                    // analyzed against the real receiver like any other
                    // method (a fresh object's init that writes fields
                    // still disqualifies — matching the prior analysis).
                    self.reach("init");
                } else if self.collect {
                    // A foreign class does not exist in the
                    // mini-evaluator; the linter reports it, the cache
                    // refuses it.
                    self.effects.opaque = true;
                }
                if p.this_obj && self.collect {
                    // `new C(this).f` is `this` again, like an array
                    // element above.
                    self.effects.opaque = true;
                }
                // The object's fields hold the arguments; reading them
                // back yields the arguments' provenance.
                p.this_obj = false;
                p.unknown = true;
                p
            }
        }
    }
}

impl<'a> Analysis<'a> for EffectsAnalysis<'a> {
    type Fact = Env;

    fn entry_fact(&self) -> Env {
        let mut env = Env::new();
        for p in self.params {
            if self.entry_ctx_param.as_deref() == Some(p) {
                env.insert(p.clone(), Prov::context());
            } else {
                env.insert(p.clone(), Prov::unknown());
            }
        }
        env
    }

    fn join(&self, into: &mut Env, other: &Env) -> bool {
        let mut changed = false;
        for (name, prov) in other {
            match into.get_mut(name) {
                Some(existing) => changed |= existing.union(prov),
                None => {
                    into.insert(name.clone(), prov.clone());
                    changed = true;
                }
            }
        }
        changed
    }

    fn transfer_stmt(&mut self, stmt: &'a Stmt, env: &mut Env) {
        match &stmt.kind {
            StmtKind::Let(name, e) => {
                let p = self.eval(e, env);
                env.insert(name.clone(), p);
            }
            StmtKind::Assign(Target::Var(name), e) => {
                let p = self.eval(e, env);
                env.insert(name.clone(), p);
            }
            StmtKind::Assign(Target::Prop(recv, field), e) => {
                self.eval(e, env);
                let rp = self.eval(recv, env);
                if rp.this_obj {
                    self.note_write(field);
                }
                if !rp.fields.is_empty() || rp.ctx || rp.unknown {
                    // A property store through anything that may alias a
                    // field value, the context, or an unknown: fields
                    // hold PValues (never objects), so at runtime this
                    // errors — but statically we refuse to certify it.
                    if self.collect {
                        self.effects.opaque = true;
                    }
                }
            }
            StmtKind::Assign(Target::Index(recv, idx), e) => {
                self.eval(e, env);
                self.eval(idx, env);
                let rp = self.eval(recv, env);
                if !rp.is_fresh() {
                    self.note_deep_write(&rp);
                }
            }
            StmtKind::Expr(e) => {
                self.eval(e, env);
            }
            StmtKind::FnDef(_) | StmtKind::ClassDef(_) => {
                // A nested `fn` could shadow a builtin out from under the
                // closed-world assumption; a nested class is exotic
                // enough to refuse outright.
                if self.collect {
                    self.effects.opaque = true;
                }
            }
            // Structured control flow never appears inside a block.
            StmtKind::If { .. } | StmtKind::While { .. } => unreachable!("lowered to CFG edges"),
            StmtKind::Return(_) | StmtKind::Throw(_) => unreachable!("lowered to terminators"),
        }
    }

    fn transfer_operand(&mut self, operand: &'a Expr, env: &mut Env) {
        let p = self.eval(operand, env);
        if p.this_obj && self.collect {
            // `throw this` / `return this` stringifies the object (a
            // thrown value renders every field): treat as an escape.
            self.effects.opaque = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn class_of(src: &str) -> std::sync::Arc<ClassDecl> {
        parse_program(src)
            .unwrap()
            .into_iter()
            .find_map(|s| match s.kind {
                StmtKind::ClassDef(c) => Some(c),
                _ => None,
            })
            .expect("class decl")
    }

    #[test]
    fn read_only_class_is_eligible() {
        let e = class_effects(&class_of(
            r#"class Quota {
                fn export_check(context) {
                    let w = this.weights;
                    if (w[0] + w[1] > this.limit) { throw "over"; }
                }
            }"#,
        ));
        assert!(e.cache_eligible());
        assert_eq!(
            e.field_reads.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["limit", "weights"]
        );
        assert!(e.field_writes.is_empty());
    }

    #[test]
    fn scratch_field_writer_is_eligible() {
        // Writes a field no reachable method reads: unobservable on the
        // next crossing, so the cached `this` stays sound. The PR 9 BFS
        // rejected this shape outright.
        let e = class_effects(&class_of(
            r#"class Audited {
                fn export_check(context) {
                    let sum = this.a + this.b;
                    this.last_sum = sum;
                    if (sum > this.limit) { throw "over"; }
                }
            }"#,
        ));
        assert!(e.cache_eligible(), "{e:?}");
        assert!(e.field_writes.contains("last_sum"));
        assert!(!e.field_reads.contains("last_sum"));
    }

    #[test]
    fn read_back_counter_is_not_eligible() {
        let e = class_effects(&class_of(
            r#"class Once {
                fn export_check(context) {
                    this.n = this.n + 1;
                    if (this.n > 1) { throw "ran twice"; }
                }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.field_writes.contains("n"));
        assert!(e.field_reads.contains("n"));
    }

    #[test]
    fn alias_store_is_charged_to_the_field() {
        let e = class_effects(&class_of(
            r#"class Alias {
                fn export_check(context) { let w = this.weights; w[0] = 9; }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.deep_writes.contains("weights"));
    }

    #[test]
    fn push_through_helper_is_charged() {
        let e = class_effects(&class_of(
            r#"class Sneaky {
                fn bump() { push(this.log, 1); }
                fn export_check(context) { this.bump(); }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.deep_writes.contains("log"));
    }

    #[test]
    fn context_store_disqualifies() {
        let e = class_effects(&class_of(
            r#"class CtxWriter {
                fn export_check(context) { context["seen"] = true; }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.ctx_mutated);
    }

    #[test]
    fn unreachable_mutator_does_not_poison() {
        let e = class_effects(&class_of(
            r#"class Clean {
                fn init(n) { this.n = n; }
                fn export_check(context) { if (this.n > 0) { return; } throw "no"; }
            }"#,
        ));
        assert!(e.cache_eligible());
        assert!(e.field_writes.is_empty(), "init is unreachable");
    }

    #[test]
    fn nested_container_flow_is_tracked() {
        // The element of a field-held list keeps the field's provenance
        // through an index chain and an array literal.
        let e = class_effects(&class_of(
            r#"class Nested {
                fn export_check(context) {
                    let row = this.grid[0];
                    let wrapped = [row];
                    let again = wrapped[0];
                    push(again, 1);
                }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.deep_writes.contains("grid"));
    }

    #[test]
    fn this_escape_and_missing_method_are_flagged() {
        let e = class_effects(&class_of(
            r#"class Escapes {
                fn export_check(context) { let s = str(this); }
            }"#,
        ));
        assert!(e.opaque);
        let e = class_effects(&class_of(
            r#"class Missing {
                fn export_check(context) { this.helper(); }
            }"#,
        ));
        assert!(e.missing_methods.contains("helper"));
    }

    #[test]
    fn method_mutating_its_param_disqualifies() {
        // `fill` receives unknown provenance, so the store inside it is
        // a store into the unknown: opaque, regardless of call sites.
        let e = class_effects(&class_of(
            r#"class ParamMut {
                fn fill(xs) { xs[0] = 1; }
                fn export_check(context) { this.fill([0]); }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.opaque);
    }

    #[test]
    fn branch_dependent_alias_joins() {
        // `w` aliases `weights` on one arm only; the join must keep the
        // field provenance so the store after the `if` is still charged.
        let e = class_effects(&class_of(
            r#"class Joined {
                fn export_check(context) {
                    let w = [0];
                    if (context["deep"]) { w = this.weights; }
                    w[0] = 1;
                }
            }"#,
        ));
        assert!(!e.cache_eligible());
        assert!(e.deep_writes.contains("weights"));
    }
}
