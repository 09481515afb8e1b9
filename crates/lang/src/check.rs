//! Script-policy gate crossings: running a class's `export_check`
//! against a channel context, every time data it guards crosses a gate.
//!
//! A crossing should cost what the policy's bytecode costs, so everything
//! that does not depend on the crossing is resolved once and kept:
//!
//! * a `ClassPlan` per class declaration — the cache-eligibility
//!   verdict, `export_check`'s chunk and the chunk of every other method,
//!   each compiled on first use. A [`ScriptPolicy`](crate::ScriptPolicy)
//!   resolves its plan once (one look in the process-wide table) and holds
//!   it, so a crossing, and every `this.m()` inside it, takes no lock;
//! * a pooled evaluator per thread — the [`Interp`] and its VM buffers are
//!   taken from a thread-local and put back, provided the check left
//!   nothing script-visible behind;
//! * for classes the effects analysis certifies
//!   ([`crate::analysis::effects`]), one materialized `this` per class
//!   declaration and thread, revalidated by the identity of the policy's
//!   field snapshot (equality only when the pointers differ), and the
//!   `$context` map of the last context seen.
//!
//! None of it is a verdict cache: every crossing executes `export_check`.
//! [`set_check_cache`]`(false)` is the from-scratch path — a fresh
//! evaluator, a fresh `this`, a fresh context map, chunks compiled on the
//! spot — and debug builds run it after every served crossing of a
//! cache-eligible class and panic when the two verdicts differ.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use resin_core::{Context, CtxValue, PolicyViolation};

use crate::ast::ClassDecl;
use crate::chunk::Chunk;
use crate::interp::{default_engine, Engine, Flow, Interp, LangError, Tracking, R};
use crate::value::{Obj, PValue, Value};

/// A policy's field snapshot, as [`ScriptPolicy`](crate::ScriptPolicy)
/// shares it with the check caches.
pub(crate) type Fields = BTreeMap<String, PValue>;

// ---- the per-class plan ----

/// What a crossing needs from a class declaration, resolved once.
#[derive(Debug)]
pub(crate) struct ClassPlan {
    /// Key of this plan's `this` slot in each thread's table.
    id: u64,
    class: Arc<ClassDecl>,
    /// The effects analysis' verdict: `this` and the context map may be
    /// reused across crossings.
    cacheable: bool,
    /// Index of `export_check` among the class's methods.
    export_check: Option<usize>,
    /// One chunk per method, parallel to `class.methods`, compiled on
    /// first use.
    chunks: Vec<OnceLock<Arc<Chunk>>>,
}

static POLICY_COMPILES: AtomicU64 = AtomicU64::new(0);
static PLAN_TABLE_LOCKS: AtomicU64 = AtomicU64::new(0);

/// Number of policy-method chunks the class plans have compiled.
///
/// Observable by tests: checking the same policy N times moves this by
/// one; two distinct classes with byte-identical source move it by two
/// (they must not conflate — same rule as `intern_discriminator`).
pub fn compiled_policy_chunks() -> u64 {
    POLICY_COMPILES.load(Ordering::SeqCst)
}

/// Times the process-wide plan table's lock was taken (a count for tests:
/// a warm page of crossings takes it zero times).
#[doc(hidden)]
pub fn plan_table_locks() -> u64 {
    PLAN_TABLE_LOCKS.load(Ordering::Relaxed)
}

impl ClassPlan {
    fn new(class: &Arc<ClassDecl>) -> ClassPlan {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ClassPlan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            class: class.clone(),
            cacheable: check_is_cacheable(class),
            export_check: class.methods.iter().position(|m| m.name == "export_check"),
            chunks: class.methods.iter().map(|_| OnceLock::new()).collect(),
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
            if cell.set(Arc::new(chunk)).is_ok() {
                POLICY_COMPILES.fetch_add(1, Ordering::SeqCst);
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
    PLAN_TABLE_LOCKS.fetch_add(1, Ordering::Relaxed);
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
    if let Some(plan) = plan_table().get(&key) {
        return plan.clone();
    }
    // The analysis runs outside the lock.
    let plan = Arc::new(ClassPlan::new(class));
    let mut plans = plan_table();
    if plans.len() >= PLAN_TABLE_CAP {
        plans.clear();
    }
    plans.entry(key).or_insert(plan).clone()
}

/// True when the field-sensitive effects analysis certifies the class for
/// the per-crossing caches (see [`crate::analysis::effects`]): nothing
/// escapes, no container reachable from a field or the context is mutated
/// in place, and every directly-written field is write-only — never read
/// by any reachable method, so a later crossing cannot observe the
/// previous crossing's value.
pub(crate) fn check_is_cacheable(class: &ClassDecl) -> bool {
    crate::analysis::class_effects(class).cache_eligible()
}

// ---- per-thread state ----

/// A materialized `this` and the snapshot it was built from.
struct ThisSlot {
    snap: Arc<Fields>,
    obj: Rc<RefCell<Obj>>,
}

/// `this` slots a thread keeps before its table is cleared.
const THIS_SLOT_CAP: usize = 256;

thread_local! {
    /// One slot per class plan. Each pins its class (through the object),
    /// which is why the table is bounded.
    static THIS_SLOTS: RefCell<HashMap<u64, ThisSlot>> = RefCell::new(HashMap::new());
    /// Single-slot `$context` map cache keyed by the context's content
    /// stamp (equal stamps guarantee equal content). Only cache-eligible
    /// checks consult or fill it, so the cached map is never mutated.
    static CTX_MAP: RefCell<Option<(u64, Value)>> = const { RefCell::new(None) };
    /// The pooled evaluator. A crossing takes it and puts it back, so a
    /// re-entrant crossing finds the pool empty and a panic loses it.
    static EVALUATOR: Cell<Option<Box<Interp>>> = const { Cell::new(None) };
    static CHECK_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static CHECK_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
    static CHECK_CACHE_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Disables (or re-enables) this thread's policy-check caches — the cached
/// `this`, the cached context map and the pooled evaluator. For tests that
/// need the from-scratch crossing as a baseline; production callers leave
/// the caches on.
pub fn set_check_cache(enabled: bool) {
    CHECK_CACHE_ENABLED.with(|c| c.set(enabled));
}

/// Per-thread policy-check cache counters `(hits, misses)`: a hit means a
/// crossing reused the materialized `this`; a miss means it rebuilt it
/// (first crossing, mutating policy class, or changed fields).
pub fn check_cache_stats() -> (u64, u64) {
    (
        CHECK_CACHE_HITS.with(|c| c.get()),
        CHECK_CACHE_MISSES.with(|c| c.get()),
    )
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

fn materialize(class: &Arc<ClassDecl>, fields: &Fields) -> Rc<RefCell<Obj>> {
    Rc::new(RefCell::new(Obj {
        class: class.clone(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
    }))
}

/// Rebuilds a cached `this` from a new snapshot — in place, keeping the
/// keys and whatever buffers nothing else shares, when this slot holds the
/// only reference (the rule for a cache-eligible class: nothing escapes).
fn rematerialize(obj: &mut Rc<RefCell<Obj>>, class: &Arc<ClassDecl>, fields: &Fields) {
    let Some(cell) = Rc::get_mut(obj) else {
        *obj = materialize(class, fields);
        return;
    };
    let this = cell.get_mut();
    // A certified check may have left write-only scratch fields behind.
    this.fields.retain(|k, _| fields.contains_key(k));
    for (k, v) in fields {
        match this.fields.get_mut(k) {
            Some(slot) => v.store_into(slot),
            None => {
                this.fields.insert(k.clone(), v.to_value());
            }
        }
    }
}

/// The `this` of a crossing: the class's cached object when the check is
/// cache-eligible and the snapshot is the one it was built from.
fn this_for_check(plan: &ClassPlan, fields: &Arc<Fields>) -> Value {
    if !plan.cacheable {
        count(&CHECK_CACHE_MISSES);
        return Value::Object(materialize(&plan.class, fields));
    }
    THIS_SLOTS.with(|slots| {
        let mut slots = slots.borrow_mut();
        if let Some(slot) = slots.get_mut(&plan.id) {
            if Arc::ptr_eq(&slot.snap, fields) || slot.snap == *fields {
                count(&CHECK_CACHE_HITS);
            } else {
                count(&CHECK_CACHE_MISSES);
                rematerialize(&mut slot.obj, &plan.class, fields);
                slot.snap = fields.clone();
            }
            return Value::Object(slot.obj.clone());
        }
        count(&CHECK_CACHE_MISSES);
        if slots.len() >= THIS_SLOT_CAP {
            slots.clear();
        }
        let obj = materialize(&plan.class, fields);
        let slot = ThisSlot {
            snap: fields.clone(),
            obj: obj.clone(),
        };
        slots.insert(plan.id, slot);
        Value::Object(obj)
    })
}

/// Converts a channel context into the script-visible hash table that
/// `export_check(context)` receives (shared by both engines).
fn context_to_map(context: &Context) -> Value {
    let map = context
        .iter()
        .map(|(k, v)| {
            let val = match v {
                CtxValue::Str(s) => Value::str(s.clone()),
                CtxValue::Int(i) => Value::int(*i),
                CtxValue::Bool(b) => Value::Bool(*b),
            };
            (k.to_string(), val)
        })
        .collect();
    Value::Map(Rc::new(RefCell::new(map)))
}

/// The `$context` argument map, served from the stamp-keyed cache when
/// the check is cache-eligible.
fn context_map_for_check(context: &Context, cacheable: bool) -> Value {
    if !cacheable {
        return context_to_map(context);
    }
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

// ---- the crossing ----

fn verdict(flow: R<Value>, class_name: &str) -> Result<(), PolicyViolation> {
    match flow {
        Ok(_) | Err(Flow::Return(_)) => Ok(()),
        Err(Flow::Throw(v)) => Err(PolicyViolation::new(
            class_name,
            v.to_tainted().as_str().to_string(),
        )),
        Err(Flow::Error(e)) => Err(PolicyViolation::new(
            class_name,
            format!("policy error: {}", e.message),
        )),
    }
}

/// One crossing: runs the plan's `export_check` over `fields` against the
/// channel context — the bridge that lets Rust-side filters invoke
/// script-defined assertion code.
pub(crate) fn cross(
    engine: Engine,
    plan: &Arc<ClassPlan>,
    fields: &Arc<Fields>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    let Some(method) = plan.export_check else {
        return Ok(());
    };
    #[cfg(debug_assertions)]
    if oracle::running() {
        return from_scratch(engine, &plan.class, fields, context);
    }
    if !CHECK_CACHE_ENABLED.with(|c| c.get()) {
        count(&CHECK_CACHE_MISSES);
        return from_scratch(engine, &plan.class, fields, context);
    }
    // No VFS or HTTP gate exists unless a policy body touches one, and
    // one that did keeps the evaluator out of the pool.
    let mut interp = EVALUATOR
        .take()
        .unwrap_or_else(|| Box::new(Interp::with_config(Tracking::On, engine)));
    interp.engine = engine;
    // The plan makes the class visible to `new` and its methods callable.
    interp.plan = Some(plan.clone());
    let this = this_for_check(plan, fields);
    let decl = &plan.class.methods[method];
    let arg = (!decl.params.is_empty()).then(|| context_map_for_check(context, plan.cacheable));
    let flow = match engine {
        Engine::Tree => interp.call_decl(decl, arg.into_iter().collect(), Some(this)),
        Engine::Vm => match plan.chunk(method) {
            Ok(chunk) => crate::vm::call_chunk(&mut interp, chunk.clone(), arg, Some(this)),
            Err(e) => Err(Flow::Error(e)),
        },
    };
    let served = verdict(flow, &plan.class.name);
    interp.plan = None;
    if interp.is_pristine() {
        EVALUATOR.set(Some(interp));
    }
    #[cfg(debug_assertions)]
    if plan.cacheable {
        oracle::compare(engine, &plan.class, fields, context, &served);
    }
    served
}

/// A crossing that shares nothing with any other: a fresh evaluator that
/// knows the class by name and compiles what it calls, a fresh `this`, a
/// fresh context map. Touches no counter.
fn from_scratch(
    engine: Engine,
    class: &Arc<ClassDecl>,
    fields: &Fields,
    context: &Context,
) -> Result<(), PolicyViolation> {
    let method = class
        .method("export_check")
        .expect("the plan found export_check");
    let mut interp = Interp::with_config(Tracking::On, engine);
    interp.classes.insert(class.name.clone(), class.clone());
    let this = Value::Object(materialize(class, fields));
    let args = if method.params.is_empty() {
        Vec::new()
    } else {
        vec![context_to_map(context)]
    };
    let flow = match engine {
        Engine::Tree => interp.call_decl(method, args, Some(this)),
        Engine::Vm => crate::vm::call_function(&mut interp, method, args, Some(this)),
    };
    verdict(flow, &class.name)
}

/// The cache-transparency oracle of debug builds: a crossing the caches
/// served runs again from scratch, and the verdicts must agree.
#[cfg(debug_assertions)]
mod oracle {
    use super::*;

    thread_local! {
        static RUNNING: Cell<bool> = const { Cell::new(false) };
    }

    /// True inside an oracle run, whose own crossings (a policy body that
    /// writes to a gate) must stay from scratch and uncounted too.
    pub(super) fn running() -> bool {
        RUNNING.with(|r| r.get())
    }

    struct Running;

    impl Drop for Running {
        fn drop(&mut self) {
            RUNNING.with(|r| r.set(false));
        }
    }

    pub(super) fn compare(
        engine: Engine,
        class: &Arc<ClassDecl>,
        fields: &Fields,
        context: &Context,
        served: &Result<(), PolicyViolation>,
    ) {
        RUNNING.with(|r| r.set(true));
        let scratch = {
            let _running = Running;
            from_scratch(engine, class, fields, context)
        };
        assert!(
            scratch == *served,
            "the check caches changed the verdict of policy class `{}`: \
             served {served:?}, from scratch {scratch:?}",
            class.name
        );
    }
}

/// Evaluates a class's `export_check` over a field snapshot against a
/// channel context, on the process-default engine.
pub fn eval_policy_method(
    class: &Arc<ClassDecl>,
    fields: &BTreeMap<String, PValue>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    eval_policy_method_on(default_engine(), class, fields, context)
}

/// [`eval_policy_method`] pinned to a specific engine.
pub(crate) fn eval_policy_method_on(
    engine: Engine,
    class: &Arc<ClassDecl>,
    fields: &BTreeMap<String, PValue>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    cross(engine, &plan_for(class), &Arc::new(fields.clone()), context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::parser::parse_program;
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

    fn pool_is_empty() -> bool {
        let pooled = EVALUATOR.take();
        let empty = pooled.is_none();
        EVALUATOR.set(pooled);
        empty
    }

    /// What a later crossing would see of an earlier one's leftovers:
    /// a function, a global, a file, the mail preview switch.
    const WITNESS: &str = r#"class Witness {
        fn probe() { return leaked_fn(); }
        fn export_check(context) {
            if (this.mode == 1) { return this.probe(); }
            if (this.mode == 2) { return leaked_global; }
            if (this.mode == 3) { if (file_exists("/leak")) { throw "saw the file"; } }
        }
    }"#;

    #[test]
    fn a_dirty_evaluator_is_dropped_and_the_next_crossing_sees_nothing() {
        let dirty = [
            r#"class DefinesFn { fn export_check(c) { fn leaked_fn() { return 1; } } }"#,
            r#"class DefinesClass { fn export_check(c) { class Leaked { fn m() { return 1; } } } }"#,
            r#"class AssignsGlobal { fn export_check(c) {
                   file_write("/g.rsl", "let leaked_global = 7;"); import("/g.rsl");
               } }"#,
            r#"class Prints { fn export_check(c) { print("seen"); } }"#,
            r#"class SendsMail { fn export_check(c) { email("a@b", "hello"); } }"#,
            r#"class Previews { fn export_check(c) { set_email_preview(true); } }"#,
            r#"class OpensVfs { fn export_check(c) { file_write("/leak", "x"); } }"#,
            r#"class SetsUser { fn export_check(c) { set_user("root"); } }"#,
        ];
        let witness = class(WITNESS);
        let witnesses = [0, 1, 2, 3].map(|mode| policy(&witness, &[("mode", PValue::Int(mode))]));
        for src in dirty {
            let dirty = class(src);
            let dirty = policy(&dirty, &[]);
            // A clean crossing first, so there is an evaluator to dirty.
            witnesses[0].export_check(&http()).unwrap();
            assert!(!pool_is_empty());
            dirty.export_check(&http()).unwrap();
            assert!(pool_is_empty(), "pooled after {src}");
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
            assert_eq!(seen[1], Ok(()), "{src}");
            assert_eq!(seen[7], Ok(()), "{src}");
            let undefined = |v: &Result<(), String>, what: &str| {
                let e = v.as_ref().unwrap_err();
                assert!(e.ends_with(&format!("undefined {what}")), "{src}: {e}");
            };
            undefined(&seen[3], "function `leaked_fn`");
            undefined(&seen[5], "variable `leaked_global`");
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
        for engine in [Engine::Vm, Engine::Tree] {
            let [throws, recurses, passes] = [&throws, &recurses, &passes].map(|p| {
                ScriptPolicy::new("Deep".into(), p.fields().clone(), p.class().cloned())
                    .with_engine(engine)
            });
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
            assert!(!pool_is_empty(), "an unwound evaluator is still clean");
        }
    }

    #[test]
    fn a_reentrant_crossing_builds_its_own_evaluator() {
        // The body exports data guarded by another instance of its class:
        // the inner crossing runs while the outer holds the pooled
        // evaluator.
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
        let (both_pass, outer_fails, inner_only) = (of(2, "http"), of(1, "email"), of(0, "http"));
        let seen = served_and_scratch(&[&both_pass, &outer_fails, &inner_only], &http());
        assert_eq!(seen[0], Ok(()));
        assert!(seen[1].as_ref().unwrap_err().ends_with("outer channel"));
        assert_eq!(seen[2], Ok(()));
        // On an email channel the nested export still goes to http and
        // passes; only the outer verdict follows the outer context.
        let seen = served_and_scratch(&[&both_pass, &outer_fails], &Context::new(GateKind::Email));
        assert!(seen[0].as_ref().unwrap_err().ends_with("outer channel"));
        assert_eq!(seen[1], Ok(()));
    }

    #[test]
    fn engines_alternate_on_one_pooled_evaluator() {
        let owner = class(
            r#"class Owner {
                fn is_owner(user) { return user == this.owner; }
                fn export_check(context) {
                    if (this.is_owner(context["user"])) { return; }
                    throw "not the owner";
                }
            }"#,
        );
        let fields = [("owner", PValue::Str("alice".into()))];
        let vm = policy(&owner, &fields);
        let tree = policy(&owner, &fields).with_engine(Engine::Tree);
        for user in ["alice", "mallory", "alice"] {
            let mut ctx = http();
            ctx.set_str("user", user);
            let seen = served_and_scratch(&[&vm, &tree, &vm, &tree], &ctx);
            assert!(seen.iter().all(|v| *v == seen[0]), "{seen:?}");
            assert_eq!(seen[0].is_ok(), user == "alice");
        }
    }

    #[test]
    fn each_instance_is_judged_by_its_own_fields() {
        let quota = class(
            r#"class Quota {
                fn export_check(context) {
                    let w = this.weights;
                    if (w[0] + w[1] > this.limit) { throw "over " + this.name; }
                }
            }"#,
        );
        assert!(check_is_cacheable(&quota));
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
        // Alternating instances rebuild `this` every time; the same one
        // twice in a row reuses it.
        let (h0, m0) = check_cache_stats();
        verdicts(&[&roomy, &tight, &roomy, &roomy, &tight, &tight], &http());
        let (h1, m1) = check_cache_stats();
        assert_eq!((h1 - h0, m1 - m0), (2, 4));
        // Equal fields in a separately allocated map are the same snapshot.
        let twin = of([5, 6], 10, "tight");
        assert!(!std::ptr::eq(twin.fields(), tight.fields()));
        let seen = verdicts(&[&tight, &twin, &tight], &http());
        assert!(seen.iter().all(|v| v.is_err()));
        let (h2, m2) = check_cache_stats();
        assert_eq!((h2 - h1, m2 - m1), (3, 0));
    }

    #[test]
    fn a_rebuilt_this_is_the_new_snapshot_whatever_its_shape() {
        // The in-place rebuild keeps buffers; lists that grow and shrink,
        // fields that appear, vanish and change type, and a scratch field
        // the check itself wrote must all come out as a fresh `this` would.
        let shape = class(
            r#"class Shape {
                fn export_check(context) {
                    this.scratch = "written";
                    throw str(this.a) + "|" + str(this.b);
                }
            }"#,
        );
        assert!(check_is_cacheable(&shape));
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
            assert!(THIS_SLOTS.with(|s| s.borrow().len()) <= THIS_SLOT_CAP);
        }
        assert!(plan_table().len() <= PLAN_TABLE_CAP);
        assert_eq!(
            Arc::strong_count(&first),
            1,
            "evicted with its plan and its `this`"
        );
    }
}
