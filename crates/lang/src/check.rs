//! Script-policy gate crossings: running a class's `export_check`
//! against a channel context, every time data it guards crosses a gate.
//!
//! A policy's fields are frozen once, when its
//! [`ScriptPolicy`](crate::ScriptPolicy) is made: `this` is that
//! read-only [`Instance`], read where it lies, and so is the [`Frozen`]
//! `$context` map. A store into either fails closed as a violation naming
//! it, so no crossing can change what another reads, and a verdict is a
//! function of the class, the snapshot and the context's content. What
//! does not depend on the crossing is resolved once and kept:
//!
//! * a `ClassPlan` per class declaration: each method's chunk, compiled
//!   once, on first use — the chunks the linter ([`crate::analysis`]) read
//!   when the class was registered. A policy resolves its plan once and
//!   holds it, so a crossing, and every `this.m()` inside it, takes no
//!   lock;
//! * the VM's buffers, per thread. A crossing runs on them with its plan
//!   and no script host: no global, function or other class exists, and a
//!   host builtin (output, mail, files, gates, `import`) or a definition
//!   fails closed as a violation naming it, so no check crosses a gate;
//! * per thread, the `$context` map of the last context seen, and the
//!   allows of the current context — a crossing whose (plan, snapshot
//!   identity, context stamp) already allowed is not executed again. A
//!   deny is always executed again.
//!
//! [`set_check_cache`]`(false)` is the from-scratch path — the same
//! evaluator over fresh buffers and a fresh plan that no table holds and
//! no counter sees, a fresh context map, no verdict reused — and debug
//! builds run it after every served crossing and after every reused
//! verdict, and panic when the two verdicts differ.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use resin_core::metrics::{self, Counter};
use resin_core::{Context, CtxValue, PolicyViolation, Reason};

use crate::ast::ClassDecl;
use crate::chunk::Chunk;
use crate::interp::{thrown, Flow, LangError, R};
use crate::value::{Entry, Frozen, Instance, Value};
use crate::vm::Bufs;

// ---- the per-class plan ----

/// What a crossing needs from a class declaration, resolved once.
#[derive(Debug)]
pub(crate) struct ClassPlan {
    /// Key of this plan in each thread's tables.
    id: u64,
    class: Arc<ClassDecl>,
    /// Index of `export_check` among the class's methods.
    export_check: Option<usize>,
    /// One chunk per method, parallel to `class.methods`, compiled on
    /// first use.
    chunks: Vec<OnceLock<Arc<Chunk>>>,
    /// Whether compiling a chunk counts as
    /// [`Counter::PolicyChunksCompiled`] (not for a from-scratch
    /// crossing's plan).
    counted: bool,
}

impl ClassPlan {
    /// The plan of `class`; `counted` unless it is for one from-scratch
    /// crossing.
    fn new(class: &Arc<ClassDecl>, counted: bool) -> ClassPlan {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ClassPlan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            class: class.clone(),
            export_check: class.methods.iter().position(|m| m.name == "export_check"),
            chunks: class.methods.iter().map(|_| OnceLock::new()).collect(),
            counted,
        }
    }

    /// The class this plan was resolved for.
    pub(crate) fn class(&self) -> &Arc<ClassDecl> {
        &self.class
    }

    /// The chunk of the class's `method`-th method.
    pub(crate) fn chunk(&self, method: usize) -> Result<&Arc<Chunk>, LangError> {
        let cell = &self.chunks[method];
        if cell.get().is_none() {
            let decl = &self.class.methods[method];
            let chunk = crate::compiler::compile_function(decl, Some(&self.class))?;
            // Two threads may compile at once; one chunk is kept and counted.
            if cell.set(Arc::new(chunk)).is_ok() && self.counted {
                metrics::inc(Counter::PolicyChunksCompiled);
            }
        }
        Ok(cell.get().expect("set above"))
    }
}

/// Plans the process-wide table keeps before it is cleared. Clearing is
/// always safe: a policy holds the plan it resolved, and a class met again
/// gets a new one.
const PLAN_TABLE_CAP: usize = 1024;

fn plan_table() -> MutexGuard<'static, HashMap<usize, Arc<ClassPlan>>> {
    static PLANS: OnceLock<Mutex<HashMap<usize, Arc<ClassPlan>>>> = OnceLock::new();
    metrics::inc(Counter::PlanTableLocks);
    PLANS
        .get_or_init(Default::default)
        .lock()
        .expect("a panic while the plan table was held")
}

/// Get-or-build the plan of a class declaration. Keyed by the declaration's
/// address; the plan holds the `Arc`, so the address cannot be reused while
/// the entry lives.
pub(crate) fn plan_for(class: &Arc<ClassDecl>) -> Arc<ClassPlan> {
    let key = Arc::as_ptr(class) as usize;
    let mut plans = plan_table();
    if let Some(plan) = plans.get(&key) {
        return plan.clone();
    }
    if plans.len() >= PLAN_TABLE_CAP {
        plans.clear();
    }
    let plan = Arc::new(ClassPlan::new(class, true));
    plans.insert(key, plan.clone());
    plan
}

// ---- per-thread state ----

/// Entries a thread's `LAST_CROSSED` table keeps before it is cleared.
const LAST_CROSSED_CAP: usize = 256;

/// The crossings that allowed under one context stamp.
struct Allowed {
    stamp: u64,
    /// `(plan id, snapshot)`; the held clone keeps the snapshot's address
    /// from being reused while the entry lives.
    entries: Vec<(u64, Arc<Instance>)>,
}

/// Allows a thread keeps for one context before it starts over.
const ALLOWED_CAP: usize = 64;

thread_local! {
    /// Context stamps start at 1, so the initial stamp matches none.
    static ALLOWED: RefCell<Allowed> = RefCell::new(Allowed {
        stamp: 0,
        entries: Vec::with_capacity(ALLOWED_CAP),
    });
    /// Per class plan, the snapshot this thread last executed a crossing
    /// of. Its one job is [`check_cache_stats`]'s count: a crossing of
    /// that same snapshot (the same allocation, or equal content) is a
    /// hit. Each entry pins its class (through the snapshot), which is why
    /// the table is bounded.
    static LAST_CROSSED: RefCell<HashMap<u64, Arc<Instance>>> = RefCell::new(HashMap::new());
    /// Single-slot `$context` map cache keyed by the context's content
    /// stamp (equal stamps guarantee equal content). The map is frozen, so
    /// no check can change what the next one reads.
    static CTX_MAP: RefCell<Option<(u64, Value)>> = const { RefCell::new(None) };
    /// The crossings' VM buffers. A crossing takes them and puts them
    /// back, so a panic loses them.
    static BUFS: Cell<Bufs> = Cell::new(Bufs::default());
    static CHECK_CACHE_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Disables (or re-enables) this thread's policy-check caches — the cached
/// context map, the reused allows, and the check plan and VM buffers a
/// crossing would otherwise share with others. For tests that need the
/// from-scratch crossing as a baseline; production callers leave the
/// caches on.
pub fn set_check_cache(enabled: bool) {
    CHECK_CACHE_ENABLED.with(|c| c.set(enabled));
}

/// This thread's policy-check cache counts `(hits, misses)`, the
/// [`Counter::CheckCacheHits`] and [`Counter::CheckCacheMisses`] of
/// [`metrics::thread`]: a hit means a crossing did not execute at all
/// because it reused an allow of the same snapshot under the same context
/// ([`Counter::VerdictsReused`]), or executed on the snapshot its class
/// plan last executed on this thread; a miss means it executed on another
/// (first crossing, changed fields, or the caches off).
pub fn check_cache_stats() -> (u64, u64) {
    (
        metrics::thread(Counter::CheckCacheHits),
        metrics::thread(Counter::CheckCacheMisses),
    )
}

/// Counts an executed crossing of `this` as a hit or a miss, and makes
/// `this` the plan's last crossed snapshot.
fn count_executed(plan: &ClassPlan, this: &Arc<Instance>) {
    let last = LAST_CROSSED.with(|table| {
        let mut table = table.borrow_mut();
        if table.len() >= LAST_CROSSED_CAP && !table.contains_key(&plan.id) {
            table.clear();
        }
        table.insert(plan.id, this.clone())
    });
    let hit = last.is_some_and(|last| Arc::ptr_eq(&last, this) || last == *this);
    metrics::inc(match hit {
        true => Counter::CheckCacheHits,
        false => Counter::CheckCacheMisses,
    });
}

/// Converts a channel context into the frozen map that
/// `export_check(context)` receives: its entries, and `type` from its kind.
pub(crate) fn context_to_map(context: &Context) -> Value {
    let channel_type = ("type".to_string(), Entry::str(context.channel_type()));
    let map = context
        .iter()
        .map(|(k, v)| {
            let entry = match v {
                CtxValue::Str(s) => Entry::str(s.as_str()),
                CtxValue::Int(i) => Entry::Int(*i),
                CtxValue::Bool(b) => Entry::Bool(*b),
            };
            (k.to_string(), entry)
        })
        .chain([channel_type])
        .collect();
    Value::Frozen(Arc::new(Frozen::Map(map)))
}

/// The `$context` argument map, served from the stamp-keyed cache.
fn context_map(context: &Context) -> Value {
    CTX_MAP.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some((stamp, map)) if *stamp == context.cache_stamp() => map.clone(),
            _ => {
                let map = context_to_map(context);
                *slot = Some((context.cache_stamp(), map.clone()));
                map
            }
        }
    })
}

/// True when this snapshot of the plan's class already allowed under the
/// context stamped `stamp`.
fn allowed_before(plan: &ClassPlan, this: &Arc<Instance>, stamp: u64) -> bool {
    ALLOWED.with(|allowed| {
        let allowed = allowed.borrow();
        allowed.stamp == stamp
            && allowed
                .entries
                .iter()
                .any(|(id, snap)| *id == plan.id && Arc::ptr_eq(snap, this))
    })
}

fn remember_allowed(plan: &ClassPlan, this: &Arc<Instance>, stamp: u64) {
    ALLOWED.with(|allowed| {
        let mut allowed = allowed.borrow_mut();
        if allowed.stamp != stamp || allowed.entries.len() >= ALLOWED_CAP {
            allowed.stamp = stamp;
            allowed.entries.clear();
        }
        allowed.entries.push((plan.id, this.clone()));
    })
}

// ---- the crossing ----

pub(crate) fn verdict(flow: R<Value>, class_name: &str) -> Result<(), PolicyViolation> {
    let reason = match flow {
        Ok(_) => return Ok(()),
        Err(Flow::Throw(v)) => Reason::Threw(thrown(&v)),
        Err(Flow::Error(e)) => Reason::ScriptError(e.message.into()),
    };
    Err(PolicyViolation::new(class_name.to_owned(), reason))
}

/// One crossing: runs the plan's `export_check` on the frozen instance
/// `this` against the channel context — the bridge that lets Rust-side
/// filters invoke script-defined assertion code.
pub(crate) fn cross(
    plan: &ClassPlan,
    this: &Arc<Instance>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    if plan.export_check.is_none() {
        return Ok(());
    }
    if !CHECK_CACHE_ENABLED.with(|c| c.get()) {
        metrics::inc(Counter::CheckCacheMisses);
        metrics::inc(Counter::ScriptCrossings);
        return from_scratch(&plan.class, this, context);
    }
    let stamp = context.cache_stamp();
    if allowed_before(plan, this, stamp) {
        metrics::inc(Counter::CheckCacheHits);
        metrics::inc(Counter::VerdictsReused);
        #[cfg(debug_assertions)]
        compare_from_scratch(&plan.class, this, context, &Ok(()));
        return Ok(());
    }
    count_executed(plan, this);
    metrics::inc(Counter::ScriptCrossings);
    let mut bufs = BUFS.take();
    let served = execute(plan, &mut bufs, this, || context_map(context));
    BUFS.set(bufs);
    #[cfg(debug_assertions)]
    compare_from_scratch(&plan.class, this, context, &served);
    if served.is_ok() {
        remember_allowed(plan, this, stamp);
    }
    served
}

/// Runs the plan's `export_check` on `this`, passing the context map `arg`
/// builds when the method takes a parameter.
fn execute(
    plan: &ClassPlan,
    bufs: &mut Bufs,
    this: &Arc<Instance>,
    arg: impl FnOnce() -> Value,
) -> Result<(), PolicyViolation> {
    let method = plan.export_check.expect("the plan found export_check");
    let arg = (!plan.class.methods[method].params.is_empty()).then(arg);
    let flow = crate::vm::cross(plan, bufs, method, arg, Value::Instance(this.clone()));
    verdict(flow, &plan.class.name)
}

/// A crossing that shares nothing with any other but the frozen instance:
/// fresh buffers, a fresh plan that compiles what it calls, a fresh
/// context map. Touches no counter.
fn from_scratch(
    class: &Arc<ClassDecl>,
    this: &Arc<Instance>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    let plan = ClassPlan::new(class, false);
    execute(&plan, &mut Bufs::default(), this, || {
        context_to_map(context)
    })
}

/// The cache-transparency oracle of debug builds: a crossing the caches
/// served runs again from scratch, and the verdicts must agree.
#[cfg(debug_assertions)]
fn compare_from_scratch(
    class: &Arc<ClassDecl>,
    this: &Arc<Instance>,
    context: &Context,
    served: &Result<(), PolicyViolation>,
) {
    let scratch = from_scratch(class, this, context);
    assert!(
        scratch == *served,
        "the check caches changed the verdict of policy class `{}`: \
         served {served:?}, from scratch {scratch:?}",
        class.name
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::interp::{Builtin, Reach};
    use crate::parser::parse_program;
    use crate::value::PValue;
    use crate::ScriptPolicy;
    use resin_core::{GateKind, Policy};

    fn class(src: &str) -> Arc<ClassDecl> {
        parse_program(src)
            .unwrap()
            .into_iter()
            .find_map(|s| match s.kind {
                StmtKind::ClassDef(c) => Some(c),
                _ => None,
            })
            .expect("class decl")
    }

    fn policy(class: &Arc<ClassDecl>, fields: &[(&str, PValue)]) -> ScriptPolicy {
        let fields = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        ScriptPolicy::new(class.name.clone(), fields, Some(class.clone()))
    }

    fn http() -> Context {
        Context::new(GateKind::Http)
    }

    fn verdicts(policies: &[&ScriptPolicy], ctx: &Context) -> Vec<Result<(), String>> {
        policies
            .iter()
            .map(|p| p.export_check(ctx).map_err(|e| e.to_string()))
            .collect()
    }

    /// Runs the crossings with the caches on, then from scratch, and
    /// returns the verdicts the two runs agree on.
    fn served_and_scratch(policies: &[&ScriptPolicy], ctx: &Context) -> Vec<Result<(), String>> {
        let served = verdicts(policies, ctx);
        set_check_cache(false);
        let scratch = verdicts(policies, ctx);
        set_check_cache(true);
        assert_eq!(served, scratch);
        served
    }

    /// The slot capacity the pooled VM buffers kept, or `None` when a
    /// crossing left anything in them.
    fn pooled_bufs() -> Option<usize> {
        let bufs = BUFS.take();
        let kept = bufs.kept();
        BUFS.set(bufs);
        kept
    }

    fn refusal(what: &str) -> String {
        format!("policy error: {what} is refused inside a policy check")
    }

    /// What a later crossing would see of an earlier one's leftovers:
    /// a function, a global, a class.
    const WITNESS: &str = r#"class Witness {
        fn probe() { return leaked_fn(); }
        fn export_check(context) {
            if (this.mode == 1) { return this.probe(); }
            if (this.mode == 2) { return leaked_global; }
            if (this.mode == 3) { return new Leaked(); }
        }
    }"#;

    #[test]
    fn a_dirty_shape_is_refused_and_the_next_crossing_sees_nothing() {
        let dirty = [
            (
                r#"class DefinesFn { fn export_check(c) { fn leaked_fn() { return 1; } } }"#,
                "function definition `leaked_fn`",
            ),
            (
                r#"class DefinesClass { fn export_check(c) { class Leaked { fn m() { return 1; } } } }"#,
                "class definition `Leaked`",
            ),
            (
                r#"class AssignsGlobal { fn export_check(c) {
                   file_write("/g.rsl", "let leaked_global = 7;"); import("/g.rsl");
               } }"#,
                "builtin `file_write`",
            ),
            (
                r#"class Imports { fn export_check(c) { import("/g.rsl"); } }"#,
                "builtin `import`",
            ),
            (
                r#"class SendsMail { fn export_check(c) { email("a@b", "hello"); } }"#,
                "builtin `email`",
            ),
            (
                r#"class Previews { fn export_check(c) { set_email_preview(true); } }"#,
                "builtin `set_email_preview`",
            ),
            (
                r#"class ReadsVfs { fn export_check(c) { if (file_exists("/leak")) { throw "saw"; } } }"#,
                "builtin `file_exists`",
            ),
            (
                r#"class SetsUser { fn export_check(c) { set_user("root"); } }"#,
                "builtin `set_user`",
            ),
        ];
        let witness = class(WITNESS);
        let witnesses = [0, 1, 2, 3].map(|mode| policy(&witness, &[("mode", PValue::Int(mode))]));
        for (src, what) in dirty {
            let dirty = class(src);
            let dirty = policy(&dirty, &[]);
            let seen = served_and_scratch(
                &[
                    &dirty,
                    &witnesses[0],
                    &dirty,
                    &witnesses[1],
                    &dirty,
                    &witnesses[2],
                    &dirty,
                    &witnesses[3],
                ],
                &http(),
            );
            for refused in [&seen[0], &seen[2], &seen[4], &seen[6]] {
                let e = refused.as_ref().unwrap_err();
                assert!(e.ends_with(&refusal(what)), "{src}: {e}");
            }
            assert_eq!(seen[1], Ok(()), "{src}");
            let undefined = |v: &Result<(), String>, what: &str| {
                let e = v.as_ref().unwrap_err();
                assert!(e.ends_with(&format!("undefined {what}")), "{src}: {e}");
            };
            undefined(&seen[3], "function `leaked_fn`");
            undefined(&seen[5], "variable `leaked_global`");
            undefined(&seen[7], "class `Leaked`");
            assert!(pooled_bufs().is_some(), "{src}");
        }
    }

    #[test]
    fn an_unwound_check_leaves_a_clean_evaluator() {
        // A throw from inside a loop three calls deep, and the depth cap,
        // both abandon frames; the next crossing starts from none.
        let deep = class(
            r#"class Deep {
                fn a() { return this.b(); }
                fn b() { return this.c(); }
                fn c() { let i = 0; while (i < 9) { if (i == 4) { throw "deep"; } i = i + 1; } }
                fn forever(n) { return this.forever(n + 1); }
                fn down(n) { if (n == 0) { return 0; } return this.down(n - 1); }
                fn export_check(context) {
                    if (this.mode == 0) { this.a(); }
                    if (this.mode == 1) { this.forever(0); }
                    if (this.down(40) != 0) { throw "miscounted"; }
                }
            }"#,
        );
        let [throws, recurses, passes] =
            [0, 1, 2].map(|mode| policy(&deep, &[("mode", PValue::Int(mode))]));
        let seen = served_and_scratch(
            &[
                &passes, &throws, &passes, &recurses, &passes, &recurses, &throws,
            ],
            &http(),
        );
        assert_eq!(seen[0], Ok(()));
        assert_eq!(seen[2], Ok(()));
        assert_eq!(seen[4], Ok(()));
        assert!(seen[1].as_ref().unwrap_err().ends_with("deep"), "{seen:?}");
        assert!(
            seen[3]
                .as_ref()
                .unwrap_err()
                .contains("call depth limit exceeded"),
            "{seen:?}"
        );
        assert!(
            pooled_bufs().is_some_and(|slots| slots > 0),
            "the unwound check's buffers are back, empty"
        );
    }

    #[test]
    fn a_crossing_cannot_cross_another_gate() {
        // The body would export data guarded by another instance of its
        // class: `new` and `policy_add` run, and `echo` is refused, so no
        // crossing ever nests inside another.
        let reent = class(
            r#"class Reent {
                fn init(depth, channel) { this.depth = depth; this.channel = channel; }
                fn export_check(context) {
                    if (this.depth > 0) {
                        echo(policy_add("nested", new Reent(this.depth - 1, "http")));
                    }
                    if (context["type"] != this.channel) { throw "outer channel"; }
                }
            }"#,
        );
        let of = |depth: i64, channel: &str| {
            policy(
                &reent,
                &[
                    ("depth", PValue::Int(depth)),
                    ("channel", PValue::Str(channel.into())),
                ],
            )
        };
        let (nests, nests_then_fails, inner_only) = (of(2, "http"), of(1, "email"), of(0, "http"));
        for ctx in [http(), Context::new(GateKind::Email)] {
            let seen = served_and_scratch(&[&nests, &nests_then_fails, &inner_only], &ctx);
            for nested in &seen[..2] {
                let e = nested.as_ref().unwrap_err();
                assert!(e.ends_with(&refusal("builtin `echo`")), "{e}");
            }
            let email = *ctx.kind() == GateKind::Email;
            assert_eq!(seen[2].is_err(), email, "{seen:?}");
        }
        // Every crossing executes once, and makes no second.
        assert_eq!(executed_and_reused(&nests, &http(), 3), (3, 0));
        assert!(pooled_bufs().is_some());
    }

    const OWNER: &str = r#"class Owner {
        fn is_owner(user) { return user == this.owner; }
        fn export_check(context) {
            if (this.is_owner(context["user"])) { return; }
            throw "not the owner";
        }
    }"#;

    const QUOTA: &str = r#"class Quota {
        fn export_check(context) {
            let w = this.weights;
            if (w[0] + w[1] > this.limit) { throw "over " + this.name; }
        }
    }"#;

    #[test]
    fn twin_policies_alternate_on_one_pooled_evaluator() {
        let owner = class(OWNER);
        let fields = [("owner", PValue::Str("alice".into()))];
        let (one, twin) = (policy(&owner, &fields), policy(&owner, &fields));
        for user in ["alice", "mallory", "alice"] {
            let mut ctx = http();
            ctx.set_str("user", user);
            let seen = served_and_scratch(&[&one, &twin, &one, &twin], &ctx);
            assert!(seen.iter().all(|v| *v == seen[0]), "{seen:?}");
            assert_eq!(seen[0].is_ok(), user == "alice");
        }
    }

    #[test]
    fn a_non_ascii_literal_matches_the_context_it_names() {
        let only = class(
            r#"class OnlyJose {
                fn export_check(context) {
                    if (context["user"] == "José") { return; }
                    throw "not José";
                }
            }"#,
        );
        let p = policy(&only, &[]);
        let mut ctx = http();
        ctx.set_str("user", "José");
        assert_eq!(served_and_scratch(&[&p], &ctx), [Ok(())]);
        ctx.set_str("user", "Jose");
        let seen = served_and_scratch(&[&p], &ctx);
        assert!(
            seen[0].as_ref().unwrap_err().ends_with("not José"),
            "{seen:?}"
        );
    }

    #[test]
    fn each_instance_is_judged_by_its_own_fields() {
        let quota = class(QUOTA);
        let of = |w: [i64; 2], limit: i64, name: &str| {
            policy(
                &quota,
                &[
                    ("weights", PValue::List(w.map(PValue::Int).to_vec())),
                    ("limit", PValue::Int(limit)),
                    ("name", PValue::Str(name.into())),
                ],
            )
        };
        let (roomy, tight) = (of([1, 2], 10, "roomy"), of([5, 6], 10, "tight"));
        let seen = served_and_scratch(&[&roomy, &tight, &roomy, &tight, &tight], &http());
        assert_eq!(seen[0], Ok(()));
        assert_eq!(seen[2], Ok(()));
        for i in [1, 3, 4] {
            assert!(seen[i].as_ref().unwrap_err().ends_with("over tight"));
        }
        // Alternating instances miss every time they execute; the same one
        // twice in a row hits. `roomy` executes once under this context (a
        // miss) and then reuses its allow twice (two hits that leave the
        // last crossed snapshot alone), so `tight`'s denies miss once and
        // then find it is `tight` twice.
        let (h0, m0) = check_cache_stats();
        verdicts(&[&roomy, &tight, &roomy, &roomy, &tight, &tight], &http());
        let (h1, m1) = check_cache_stats();
        assert_eq!((h1 - h0, m1 - m0), (4, 2));
        // Equal fields in a separately allocated map are the same snapshot.
        let twin = of([5, 6], 10, "tight");
        let seen = verdicts(&[&tight, &twin, &tight], &http());
        assert!(seen.iter().all(|v| v.is_err()));
        let (h2, m2) = check_cache_stats();
        assert_eq!((h2 - h1, m2 - m1), (3, 0));
    }

    #[test]
    fn a_rebuilt_this_is_the_new_snapshot_whatever_its_shape() {
        // Lists that grow and shrink, fields that appear, vanish and change
        // type: each crossing's `this` is its own policy's snapshot.
        let shape = class(
            r#"class Shape {
                fn export_check(context) {
                    throw str(this.a) + "|" + str(this.b);
                }
            }"#,
        );
        let list = |items: &[&str]| {
            PValue::List(items.iter().map(|s| PValue::Str(s.to_string())).collect())
        };
        let snapshots = [
            vec![("a", list(&["x", "y", "z"])), ("b", PValue::Int(1))],
            vec![("a", list(&["longer-than-before"])), ("b", list(&["p"]))],
            vec![("a", PValue::Null)],
            vec![
                ("a", list(&["x", "y", "z", "w"])),
                ("b", PValue::Str("s".into())),
            ],
            vec![("b", PValue::Bool(true)), ("a", list(&[]))],
        ];
        let policies: Vec<ScriptPolicy> = snapshots.iter().map(|f| policy(&shape, f)).collect();
        let order: Vec<&ScriptPolicy> = [0, 1, 2, 3, 4, 0, 3, 1].map(|i| &policies[i]).to_vec();
        let seen = served_and_scratch(&order, &http());
        assert!(
            seen[0].as_ref().unwrap_err().ends_with("[x, y, z]|1"),
            "{seen:?}"
        );
        assert!(
            seen[2].as_ref().unwrap_err().contains("no field `b`"),
            "{seen:?}"
        );
    }

    #[test]
    fn the_tables_are_bounded_and_an_evicted_class_is_released() {
        let src = r#"class Bounded {
            fn export_check(context) { if (this.n > 0) { return; } throw "no"; }
        }"#;
        let first = class(src);
        policy(&first, &[("n", PValue::Int(1))])
            .export_check(&http())
            .unwrap();
        assert!(Arc::strong_count(&first) > 1, "the tables hold the class");
        for _ in 0..10_000 {
            let decl = class(src);
            policy(&decl, &[("n", PValue::Int(1))])
                .export_check(&http())
                .unwrap();
            assert!(LAST_CROSSED.with(|s| s.borrow().len()) <= LAST_CROSSED_CAP);
        }
        assert!(plan_table().len() <= PLAN_TABLE_CAP);
        assert_eq!(
            Arc::strong_count(&first),
            1,
            "evicted with its plan and its snapshot"
        );
    }

    /// `rsl_page`'s three classes.
    const PAGE_CLASSES: [&str; 3] = [
        r#"class ChannelGate {
            fn export_check(context) {
                if (context["type"] == "http") { return; }
                throw "channel not allowed";
            }
        }"#,
        r#"class ChannelQuota {
            fn export_check(context) {
                let w = this.weights;
                let n = len(w);
                let acc = 0;
                let i = 0;
                while (i < n) { acc = (acc * 33 + w[i]) % 65521; i = i + 1; }
                if (acc > 70000 + this.tag) { throw "quota exceeded"; }
                if (context["type"] == "http") { return; }
                throw "channel not allowed";
            }
        }"#,
        r#"class AllowList {
            fn listed(user) {
                let u = this.users;
                let i = 0;
                while (i < len(u)) { if (u[i] == user) { return true; } i = i + 1; }
                return false;
            }
            fn export_check(context) {
                if (context["type"] != "http") { throw "channel not allowed"; }
                if (this.listed(context["user"])) { return; }
                throw "viewer not on the allow list";
            }
        }"#,
    ];

    fn verdicts_reused() -> u64 {
        metrics::thread(Counter::VerdictsReused)
    }

    /// Crossings of `p` that executed and that reused an allow.
    fn executed_and_reused(p: &ScriptPolicy, ctx: &Context, n: usize) -> (u64, u64) {
        let ((h0, m0), r0) = (check_cache_stats(), verdicts_reused());
        for _ in 0..n {
            let _ = p.export_check(ctx);
        }
        let ((h1, m1), r1) = (check_cache_stats(), verdicts_reused());
        let reused = r1 - r0;
        (h1 - h0 + m1 - m0 - reused, reused)
    }

    /// Every builtin, by name.
    const BUILTINS: [&str; 33] = [
        "echo",
        "http_context",
        "set_email_preview",
        "email",
        "set_user",
        "policy_add",
        "policy_remove",
        "policy_get",
        "len",
        "substr",
        "upper",
        "lower",
        "trim",
        "contains",
        "replace",
        "split",
        "join",
        "str",
        "int",
        "typeof",
        "push",
        "pop",
        "map",
        "keys",
        "mkdir",
        "file_write",
        "file_append",
        "file_read",
        "file_exists",
        "make_executable",
        "require_code_approval",
        "import",
        "assert",
    ];

    /// What a crossing gets for a store into its policy's fields or its
    /// context.
    fn store_refused(what: &str) -> String {
        refusal(&format!("a store into {what}"))
    }

    #[test]
    fn a_crossing_refuses_exactly_the_host_builtins() {
        let ctx = http();
        for name in BUILTINS {
            let id = Builtin::from_name(name).expect("a builtin");
            let src = format!("class Calls {{ fn export_check(c) {{ {name}(); }} }}");
            let seen = served_and_scratch(&[&policy(&class(&src), &[])], &ctx);
            let refused = seen[0]
                .as_ref()
                .is_err_and(|e| e.ends_with(&refusal(&format!("builtin `{name}`"))));
            assert_eq!(refused, id.reach() == Reach::Host, "{name}: {seen:?}");
        }
    }

    #[test]
    fn every_class_reuses_its_allow() {
        // A crossing cannot change what the next one reads, so an allow is
        // reused whatever the class's code could do: the page's classes,
        // every builtin (on a branch not taken), `this` rendered, boxed and
        // thrown, and stores into containers of the run's own.
        let mut ctx = http();
        ctx.set_str("user", "reader7");
        let mut classes: Vec<(String, Vec<(&str, PValue)>)> = PAGE_CLASSES
            .iter()
            .map(|src| {
                let users = PValue::List(vec![PValue::Str("reader7".into())]);
                let weights = PValue::List(vec![PValue::Int(1); 4]);
                let fields = vec![
                    ("users", users),
                    ("weights", weights),
                    ("tag", PValue::Int(0)),
                ];
                (src.to_string(), fields)
            })
            .collect();
        let mode = || vec![("mode", PValue::Int(0))];
        for name in BUILTINS {
            let src = format!(
                "class Calls {{ fn export_check(c) {{ if (this.mode == 1) {{ {name}(); }} }} }}"
            );
            classes.push((src, mode()));
        }
        for body in [
            "let s = str(this); if ([this][0].mode > 0) { throw this; }",
            "let t = this; let m = [t.mode]; m[0] = 1; if (t.mode != 0) { throw 1; }",
            "let a = map(); a[\"k\"] = this; push(keys(a), 2); y = 3;",
            "return new C();",
            "let s = policy_add(\"x\", this); if (policy_get(s)[0] != \"C\") { throw 1; }",
        ] {
            let src = format!("class C {{ fn export_check(c) {{ {body} }} }}");
            classes.push((src, mode()));
        }
        for (src, fields) in &classes {
            let p = policy(&class(src), fields);
            assert_eq!(executed_and_reused(&p, &ctx, 3), (1, 2), "{src}");
            assert_eq!(p.export_check(&ctx), Ok(()), "{src}");
        }
    }

    #[test]
    fn a_class_that_may_reach_outside_its_run_executes_every_time() {
        // Each reaches past its run only when `this.mode` is 1. Then the
        // store or the host builtin fails closed, and a deny executes
        // every time; otherwise its allow is reused.
        let guarded = |body: &str| {
            format!("class Reaches {{ fn export_check(c) {{ if (this.mode == 1) {{ {body} }} }} }}")
        };
        let mut reaching = vec![
            (guarded("this.f = 1;"), store_refused("field `f`")),
            (
                guarded("this.n = this.n + 1; if (this.n > 1) { throw 1; }"),
                store_refused("field `n`"),
            ),
            (
                guarded("let w = this.weights; w[0] = 9;"),
                store_refused("a frozen array"),
            ),
            (
                guarded(r#"let w = [0]; if (c["deep"]) { w = this.weights; } w[0] = 1;"#),
                store_refused("a frozen array"),
            ),
            (
                guarded("let again = [this.grid[0]][0]; push(again, 1);"),
                store_refused("a frozen array by `push`"),
            ),
            (
                guarded("pop(this.weights);"),
                store_refused("a frozen array by `pop`"),
            ),
            (
                guarded(r#"c["seen"] = true;"#),
                store_refused("a frozen map"),
            ),
            (
                "class Reaches { fn bump() { push(this.grid, 1); } \
                 fn export_check(c) { if (this.mode == 1) { this.bump(); } } }"
                    .to_string(),
                store_refused("a frozen array by `push`"),
            ),
            (
                guarded("fn f() { return 1; }"),
                refusal("function definition `f`"),
            ),
            (
                guarded("class Inner { fn m() { return 1; } }"),
                refusal("class definition `Inner`"),
            ),
        ];
        for name in BUILTINS {
            if Builtin::from_name(name).map(Builtin::reach) == Some(Reach::Host) {
                let builtin = refusal(&format!("builtin `{name}`"));
                reaching.push((guarded(&format!("{name}();")), builtin));
            }
        }
        let mut ctx = http();
        ctx.set("deep", true);
        let fields = |mode| {
            let list = |items: Vec<PValue>| PValue::List(items);
            vec![
                ("mode", PValue::Int(mode)),
                ("n", PValue::Int(0)),
                ("weights", list(vec![PValue::Int(1), PValue::Int(2)])),
                ("grid", list(vec![list(vec![PValue::Int(1)])])),
            ]
        };
        for (src, refused) in &reaching {
            let decl = class(src);
            let reaches = policy(&decl, &fields(1));
            let seen = served_and_scratch(&[&reaches], &ctx);
            let e = seen[0].as_ref().unwrap_err();
            assert!(e.ends_with(refused.as_str()), "{src}: {e}");
            assert_eq!(executed_and_reused(&reaches, &ctx, 3), (3, 0), "{src}");
            let stays = policy(&decl, &fields(0));
            assert_eq!(executed_and_reused(&stays, &ctx, 3), (1, 2), "{src}");
        }
    }

    #[test]
    fn a_label_change_inside_a_check_leaves_the_snapshot_alone() {
        // `policy_add` and `policy_remove` change a copy of a field's
        // string: the next crossing reads the field unlabelled.
        let relabels = class(
            r#"class Relabels {
                fn export_check(c) {
                    if (len(policy_get(this.name)) > 0) { throw "labelled"; }
                    if (len(policy_get(this.names[0])) > 0) { throw "labelled item"; }
                    let a = policy_add(this.name, "UntrustedData");
                    let b = policy_remove(policy_add(this.names[0], "UntrustedData"), "UntrustedData");
                    let d = policy_add(this.names[0], "HtmlSanitized");
                    if (len(policy_get(a)) != 1 || len(policy_get(d)) != 1) { throw "unlabelled"; }
                    if (this.name != "alice" || this.names[0] != "bob") { throw "changed"; }
                }
            }"#,
        );
        let p = policy(
            &relabels,
            &[
                ("name", PValue::Str("alice".into())),
                ("names", PValue::List(vec![PValue::Str("bob".into())])),
            ],
        );
        for user in ["a", "b", "c"] {
            // (A new context each time, so each crossing executes.)
            let mut ctx = http();
            ctx.set_str("user", user);
            assert_eq!(served_and_scratch(&[&p, &p], &ctx), [Ok(()), Ok(())]);
        }
        assert_eq!(
            p.serialize_fields(),
            [
                ("name".to_string(), "s:alice".to_string()),
                ("names".to_string(), "l:s:bob".to_string())
            ]
        );
    }

    #[test]
    fn one_policy_crossed_from_two_threads_at_once_gets_the_from_scratch_verdicts() {
        let owner = class(OWNER);
        let p = policy(&owner, &[("owner", PValue::Str("alice".into()))]);
        let users = ["alice", "mallory", "alice", "bob"];
        let crossings = || -> Vec<Result<(), String>> {
            (0..200)
                .map(|i| {
                    let mut ctx = http();
                    ctx.set_str("user", users[i % users.len()]);
                    let served = p.export_check(&ctx).map_err(|e| e.to_string());
                    set_check_cache(false);
                    let scratch = p.export_check(&ctx).map_err(|e| e.to_string());
                    set_check_cache(true);
                    assert_eq!(served, scratch, "crossing {i}");
                    served
                })
                .collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(crossings);
            let b = s.spawn(crossings);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|v| v.is_ok()).count(), 100);
    }

    #[test]
    fn an_allow_is_reused_for_its_snapshot_under_its_stamp_only() {
        let owner = class(OWNER);
        let alice = [("owner", PValue::Str("alice".into()))];
        let (one, twin) = (policy(&owner, &alice), policy(&owner, &alice));
        let mut ctx = http();
        ctx.set_str("user", "alice");
        assert_eq!(executed_and_reused(&one, &ctx, 3), (1, 2));
        // A clone has the context's stamp, so its content.
        assert_eq!(executed_and_reused(&one, &ctx.clone(), 1), (0, 1));
        // An equal snapshot allocated apart is another key.
        assert_eq!(executed_and_reused(&twin, &ctx, 2), (1, 1));
        // Re-stamped with the same content: executed again.
        ctx.set_str("user", "alice");
        assert_eq!(executed_and_reused(&one, &ctx, 2), (1, 1));
        // A deny is never reused, and an earlier allow does not outlive a
        // change of context.
        ctx.set_str("user", "mallory");
        assert_eq!(executed_and_reused(&one, &ctx, 3), (3, 0));
        assert!(one.export_check(&ctx).is_err());
        // The caches off, nothing is reused.
        ctx.set_str("user", "alice");
        set_check_cache(false);
        assert_eq!(executed_and_reused(&one, &ctx, 2), (2, 0));
        set_check_cache(true);
    }

    #[test]
    fn the_allows_are_bounded() {
        let quota = class(QUOTA);
        let ctx = http();
        let capacity = ALLOWED.with(|a| a.borrow().entries.capacity());
        for limit in 0..ALLOWED_CAP as i64 * 3 {
            let p = policy(
                &quota,
                &[
                    (
                        "weights",
                        PValue::List(vec![PValue::Int(0), PValue::Int(0)]),
                    ),
                    ("limit", PValue::Int(limit)),
                    ("name", PValue::Str("q".into())),
                ],
            );
            p.export_check(&ctx).unwrap();
            ALLOWED.with(|a| {
                let a = a.borrow();
                assert!(a.entries.len() <= ALLOWED_CAP);
                assert_eq!(a.entries.capacity(), capacity, "allocated once");
            });
        }
    }
}
