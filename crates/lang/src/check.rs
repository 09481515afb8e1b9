//! Script-policy gate crossings: running a class's `export_check`
//! against a channel context, every time data it guards crosses a gate.
//!
//! A crossing should cost what the policy's bytecode costs, so everything
//! that does not depend on the crossing is resolved once and kept:
//!
//! * a `ClassPlan` per class declaration — the certificate (below),
//!   `export_check`'s chunk and the chunk of every other method, each
//!   compiled once, on first use. Registering a policy class lints it, and
//!   the linter ([`crate::analysis`]) reads these chunks, so a registered
//!   class's crossings run the very code that was linted and certified.
//!   A [`ScriptPolicy`](crate::ScriptPolicy)
//!   resolves its plan once (one look in the process-wide table) and holds
//!   it, so a crossing, and every `this.m()` inside it, takes no lock;
//! * the VM's buffers, per thread. A crossing runs on them with its plan
//!   and no script host: no global, function or other class exists, and a
//!   host builtin (output, mail, files, gates, `import`) or a definition
//!   fails closed as a violation naming it, so no check crosses a gate;
//! * for a class a small bytecode checker certifies pure
//!   (`ClassPlan::certify`, the only eligibility rule), per thread: one
//!   materialized `this` per class declaration, revalidated by the identity
//!   of the policy's field snapshot (equality only when the pointers
//!   differ); the `$context` map of the last context seen; and the allows
//!   of the current context — a crossing whose (plan, field-snapshot
//!   identity, context stamp) already allowed is not executed again. A
//!   deny is always executed again.
//!
//! [`set_check_cache`]`(false)` is the from-scratch path — the same
//! evaluator over fresh buffers and a fresh plan that no table holds and
//! no counter sees, a fresh `this`, a fresh context map, no verdict
//! reused — and debug builds run it after every served
//! crossing of a certified class and after every reused verdict, and panic
//! when the two verdicts differ or when a cached `this` is no longer
//! exactly its snapshot.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use resin_core::{Context, CtxValue, PolicyViolation};

use crate::ast::ClassDecl;
use crate::chunk::{Chunk, Op};
use crate::interp::{Flow, LangError, Reach, R};
use crate::value::{Obj, PValue, Value};
use crate::vm::Bufs;

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
    /// Index of `export_check` among the class's methods.
    export_check: Option<usize>,
    /// One chunk per method, parallel to `class.methods`, compiled on
    /// first use.
    chunks: Vec<OnceLock<Arc<Chunk>>>,
    /// [`ClassPlan::certify`]'s verdict: the crossing may reuse `this`,
    /// the context map and an earlier allow.
    pub(crate) certified: bool,
    /// Whether compiling a chunk moves [`compiled_policy_chunks`] (not for
    /// a from-scratch crossing's plan).
    counted: bool,
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
    /// The plan of `class`; `counted` and certified, unless it is for one
    /// from-scratch crossing.
    fn new(class: &Arc<ClassDecl>, counted: bool) -> ClassPlan {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut plan = ClassPlan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            class: class.clone(),
            export_check: class.methods.iter().position(|m| m.name == "export_check"),
            chunks: class.methods.iter().map(|_| OnceLock::new()).collect(),
            certified: false,
            counted,
        };
        plan.certified = counted && plan.certify();
        plan
    }

    /// The certificate: a run of `export_check` is pure, so its verdict is
    /// a function of the class, the field snapshot and the context's
    /// content, and the cached `this` and context map may serve it.
    ///
    /// No instruction of `export_check`, or of a method it reaches by a
    /// resolved `this.m()`, is a `SetProp`, `SetIndex`, `push`/`pop`,
    /// `Assign` (it may fall back to a global), global, `Call`, `New`,
    /// `Define` or a builtin that does more than compute. A crossing runs
    /// without a script host, so no global, function or other class
    /// exists, and an unbound local fails the same way every time. The
    /// only object reachable is `this` (fields and context
    /// hold none). With no store the run cannot change `this`, the context
    /// map or a container inside either, nor build a cycle; with no store,
    /// global or definition it cannot keep a reference to either after it
    /// returns — `[this]`, or a returned or thrown `this`, lives in its
    /// registers only.
    fn certify(&self) -> bool {
        let Some(entry) = self.export_check else {
            return false;
        };
        let mut seen = vec![false; self.chunks.len()];
        seen[entry] = true;
        let mut todo = vec![entry];
        while let Some(method) = todo.pop() {
            let Ok(chunk) = self.chunk(method) else {
                return false;
            };
            for op in &chunk.code {
                match *op {
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
                    | Op::GetProp { .. }
                    | Op::Index { .. }
                    | Op::Return { .. }
                    | Op::Throw { .. } => {}
                    Op::CallBuiltin { id, .. } if id.reach() == Reach::Computes => {}
                    Op::Method { index, .. } if index != Op::UNRESOLVED => {
                        let index = index as usize;
                        if !std::mem::replace(&mut seen[index], true) {
                            todo.push(index);
                        }
                    }
                    // Anything else, an instruction added later included.
                    _ => return false,
                }
            }
        }
        true
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
    // The certificate, which compiles, runs outside the lock.
    let plan = Arc::new(ClassPlan::new(class, true));
    let mut plans = plan_table();
    if plans.len() >= PLAN_TABLE_CAP {
        plans.clear();
    }
    plans.entry(key).or_insert(plan).clone()
}

// ---- per-thread state ----

/// A materialized `this` and the snapshot it was built from.
struct ThisSlot {
    snap: Arc<Fields>,
    obj: Rc<RefCell<Obj>>,
}

/// `this` slots a thread keeps before its table is cleared.
const THIS_SLOT_CAP: usize = 256;

/// The crossings of certified plans that allowed under one context stamp.
struct Allowed {
    stamp: u64,
    /// `(plan id, field snapshot)`; the held clone keeps the snapshot's
    /// address from being reused while the entry lives.
    entries: Vec<(u64, Arc<Fields>)>,
}

/// Allows a thread keeps for one context before it starts over.
const ALLOWED_CAP: usize = 64;

thread_local! {
    /// Context stamps start at 1, so the initial stamp matches none.
    static ALLOWED: RefCell<Allowed> = RefCell::new(Allowed {
        stamp: 0,
        entries: Vec::with_capacity(ALLOWED_CAP),
    });
    static VERDICTS_REUSED: Cell<u64> = const { Cell::new(0) };
    /// One slot per class plan. Each pins its class (through the object),
    /// which is why the table is bounded.
    static THIS_SLOTS: RefCell<HashMap<u64, ThisSlot>> = RefCell::new(HashMap::new());
    /// Single-slot `$context` map cache keyed by the context's content
    /// stamp (equal stamps guarantee equal content). Only certified checks
    /// consult or fill it, so the cached map is never mutated.
    static CTX_MAP: RefCell<Option<(u64, Value)>> = const { RefCell::new(None) };
    /// The crossings' VM buffers. A crossing takes them and puts them
    /// back, so a panic loses them.
    static BUFS: Cell<Bufs> = Cell::new(Bufs::default());
    static CHECK_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static CHECK_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
    static CHECK_CACHE_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Disables (or re-enables) this thread's policy-check caches — the cached
/// `this`, the cached context map, the reused allows, and the check plan
/// and VM buffers a crossing would otherwise share with others. For tests
/// that need the from-scratch crossing as a baseline; production callers
/// leave the caches on.
pub fn set_check_cache(enabled: bool) {
    CHECK_CACHE_ENABLED.with(|c| c.set(enabled));
}

/// Per-thread policy-check cache counters `(hits, misses)`: a hit means a
/// crossing reused the materialized `this`, or did not execute at all
/// because it reused an allow of the same snapshot under the same context
/// ([`verdicts_reused`] counts those); a miss means it rebuilt `this`
/// (first crossing, uncertified class, or changed fields).
pub fn check_cache_stats() -> (u64, u64) {
    (
        CHECK_CACHE_HITS.with(|c| c.get()),
        CHECK_CACHE_MISSES.with(|c| c.get()),
    )
}

/// Crossings on this thread that reused an earlier allow instead of
/// executing `export_check` (a count for tests).
#[doc(hidden)]
pub fn verdicts_reused() -> u64 {
    VERDICTS_REUSED.with(|c| c.get())
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

pub(crate) fn materialize(class: &Arc<ClassDecl>, fields: &Fields) -> Rc<RefCell<Obj>> {
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
/// only reference (a certified run keeps none) and the snapshot has the
/// keys of the last one (a certified run adds none); anew otherwise.
fn rematerialize(obj: &mut Rc<RefCell<Obj>>, class: &Arc<ClassDecl>, fields: &Fields) {
    match Rc::get_mut(obj).map(RefCell::get_mut) {
        Some(this) if this.fields.keys().eq(fields.keys()) => {
            for (slot, v) in this.fields.values_mut().zip(fields.values()) {
                v.store_into(slot);
            }
        }
        _ => *obj = materialize(class, fields),
    }
}

/// The `this` of a crossing: the class's cached object when the check is
/// certified and the snapshot is the one it was built from.
fn this_for_check(plan: &ClassPlan, fields: &Arc<Fields>) -> Value {
    if !plan.certified {
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
/// `export_check(context)` receives.
pub(crate) fn context_to_map(context: &Context) -> Value {
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
/// the check is certified.
fn context_map_for_check(context: &Context, certified: bool) -> Value {
    if !certified {
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

/// True when this snapshot of the plan's class already allowed under the
/// context stamped `stamp`.
fn allowed_before(plan: &ClassPlan, fields: &Arc<Fields>, stamp: u64) -> bool {
    ALLOWED.with(|allowed| {
        let allowed = allowed.borrow();
        allowed.stamp == stamp
            && allowed
                .entries
                .iter()
                .any(|(id, snap)| *id == plan.id && Arc::ptr_eq(snap, fields))
    })
}

fn remember_allowed(plan: &ClassPlan, fields: &Arc<Fields>, stamp: u64) {
    ALLOWED.with(|allowed| {
        let mut allowed = allowed.borrow_mut();
        if allowed.stamp != stamp || allowed.entries.len() >= ALLOWED_CAP {
            allowed.stamp = stamp;
            allowed.entries.clear();
        }
        allowed.entries.push((plan.id, fields.clone()));
    })
}

// ---- the crossing ----

pub(crate) fn verdict(flow: R<Value>, class_name: &str) -> Result<(), PolicyViolation> {
    match flow {
        Ok(_) => Ok(()),
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
    plan: &ClassPlan,
    fields: &Arc<Fields>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    if plan.export_check.is_none() {
        return Ok(());
    }
    if !CHECK_CACHE_ENABLED.with(|c| c.get()) {
        count(&CHECK_CACHE_MISSES);
        return from_scratch(&plan.class, fields, context);
    }
    let stamp = context.cache_stamp();
    if allowed_before(plan, fields, stamp) {
        count(&CHECK_CACHE_HITS);
        count(&VERDICTS_REUSED);
        #[cfg(debug_assertions)]
        oracle::compare(&plan.class, fields, context, &Ok(()));
        return Ok(());
    }
    let this = this_for_check(plan, fields);
    let mut bufs = BUFS.take();
    let served = execute(plan, &mut bufs, this, || {
        context_map_for_check(context, plan.certified)
    });
    BUFS.set(bufs);
    #[cfg(debug_assertions)]
    if plan.certified {
        oracle::compare(&plan.class, fields, context, &served);
        oracle::this_matches_its_snapshot(plan, fields);
    }
    if served.is_ok() && plan.certified {
        remember_allowed(plan, fields, stamp);
    }
    served
}

/// Runs the plan's `export_check` on `this`, passing the context map `arg`
/// builds when the method takes a parameter.
fn execute(
    plan: &ClassPlan,
    bufs: &mut Bufs,
    this: Value,
    arg: impl FnOnce() -> Value,
) -> Result<(), PolicyViolation> {
    let method = plan.export_check.expect("the plan found export_check");
    let arg = (!plan.class.methods[method].params.is_empty()).then(arg);
    let flow = crate::vm::cross(plan, bufs, method, arg, this);
    verdict(flow, &plan.class.name)
}

/// A crossing that shares nothing with any other: fresh buffers, a fresh
/// plan that compiles what it calls, a fresh `this`, a fresh context map.
/// Touches no counter.
fn from_scratch(
    class: &Arc<ClassDecl>,
    fields: &Fields,
    context: &Context,
) -> Result<(), PolicyViolation> {
    let plan = ClassPlan::new(class, false);
    let this = Value::Object(materialize(class, fields));
    execute(&plan, &mut Bufs::default(), this, || {
        context_to_map(context)
    })
}

/// The cache-transparency oracle of debug builds: a crossing the caches
/// served runs again from scratch, and the verdicts must agree.
#[cfg(debug_assertions)]
mod oracle {
    use super::*;

    pub(super) fn compare(
        class: &Arc<ClassDecl>,
        fields: &Fields,
        context: &Context,
        served: &Result<(), PolicyViolation>,
    ) {
        let scratch = from_scratch(class, fields, context);
        assert!(
            scratch == *served,
            "the check caches changed the verdict of policy class `{}`: \
             served {served:?}, from scratch {scratch:?}",
            class.name
        );
    }

    /// After a served crossing of a certified class, the `this` the next
    /// crossing will reuse must still be exactly the snapshot: the same
    /// fields, each converting back to the snapshot's value.
    pub(super) fn this_matches_its_snapshot(plan: &ClassPlan, fields: &Fields) {
        THIS_SLOTS.with(|slots| {
            let slots = slots.borrow();
            let Some(slot) = slots.get(&plan.id) else {
                return;
            };
            let this = slot.obj.borrow();
            let differs = |name: &&String| match (this.fields.get(*name), fields.get(*name)) {
                (Some(value), Some(snap)) => !converts_to(value, snap),
                _ => true,
            };
            if let Some(name) = this.fields.keys().chain(fields.keys()).find(differs) {
                panic!(
                    "the check caches left field `{name}` of policy class `{}` at {:?}, \
                     its snapshot holds {:?}",
                    plan.class.name,
                    this.fields.get(name),
                    fields.get(name)
                );
            }
        })
    }

    /// `PValue::from_value(value) == Some(snap)`, without building the
    /// conversion (a warm crossing allocates nothing, oracle or not).
    pub(super) fn converts_to(value: &Value, snap: &PValue) -> bool {
        match (value, snap) {
            (Value::Null, PValue::Null) => true,
            (Value::Bool(a), PValue::Bool(b)) => a == b,
            (Value::Int(a, _), PValue::Int(b)) => a == b,
            (Value::Str(a), PValue::Str(b)) => a.as_str() == b,
            (Value::Array(a), PValue::List(b)) => {
                let a = a.borrow();
                a.len() == b.len() && a.iter().zip(b).all(|(a, b)| converts_to(a, b))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::interp::Builtin;
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
                r#"class Prints { fn export_check(c) { print("seen"); } }"#,
                "builtin `print`",
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
        assert!(!plan_for(&reent).certified);
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
        assert!(plan_for(&quota).certified);
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
        // Alternating instances rebuild `this` every time they execute; the
        // same one twice in a row reuses it. `roomy` executes once under
        // this context (a miss) and then reuses its allow twice (two hits
        // that leave `this` alone), so `tight`'s denies miss once and then
        // find the slot holding `tight` twice.
        let (h0, m0) = check_cache_stats();
        verdicts(&[&roomy, &tight, &roomy, &roomy, &tight, &tight], &http());
        let (h1, m1) = check_cache_stats();
        assert_eq!((h1 - h0, m1 - m0), (4, 2));
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
        // fields that appear, vanish and change type must all come out as
        // a fresh `this` would.
        let shape = class(
            r#"class Shape {
                fn export_check(context) {
                    throw str(this.a) + "|" + str(this.b);
                }
            }"#,
        );
        assert!(plan_for(&shape).certified);
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

    fn certified(src: &str) -> bool {
        plan_for(&class(src)).certified
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

    /// The builtins the certificate counts pure.
    const COMPUTES: [&str; 13] = [
        "len", "substr", "upper", "lower", "trim", "contains", "replace", "split", "join", "str",
        "int", "typeof", "keys",
    ];

    /// The others: they reach the host, or change a container or a label.
    const REACHES_OUT: [&str; 21] = [
        "print",
        "echo",
        "http_context",
        "set_email_preview",
        "email",
        "set_user",
        "policy_add",
        "policy_remove",
        "policy_get",
        "push",
        "pop",
        "map",
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

    #[test]
    fn a_crossing_refuses_exactly_the_host_builtins() {
        let ctx = http();
        for name in COMPUTES.iter().chain(&REACHES_OUT) {
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
    fn read_only_classes_are_certified() {
        for src in PAGE_CLASSES.iter().chain(&[OWNER, QUOTA]) {
            assert!(certified(src), "{src}");
        }
        // Every builtin that only computes, wherever it sits.
        for name in COMPUTES {
            let reach = Builtin::from_name(name).map(Builtin::reach);
            assert_eq!(reach, Some(Reach::Computes), "{name}");
            let src = format!(
                "class Computes {{ fn export_check(c) {{ if (this.mode == 1) {{ {name}(); }} }} }}"
            );
            assert!(certified(&src), "{name}");
        }
        // `this` rendered, boxed and thrown: it escapes no pure run.
        assert!(certified(
            "class C { fn export_check(c) { let s = str(this); if ([this][0].n > 0) { throw this; } } }"
        ));
        // A field's list read through a local; a store in a method the
        // check never reaches.
        assert!(certified(
            "class C { fn export_check(context) { let w = this.weights; if (w[0] + w[1] > this.limit) { throw 1; } } }"
        ));
        assert!(certified(
            "class C { fn init(n) { this.n = n; } fn export_check(c) { return this.n; } }"
        ));
    }

    #[test]
    fn a_class_that_may_reach_outside_its_run_executes_every_time() {
        // Each reaches out only on a branch the crossings below never take.
        let guarded = |body: &str| {
            format!("class Refused {{ fn export_check(c) {{ if (this.mode == 1) {{ {body} }} }} }}")
        };
        let mut refused = vec![
            (WITNESS.to_string(), "new, a script function, a global"),
            (
                guarded(r#"import("/g.rsl"); return g;"#),
                "a global read via import",
            ),
            (guarded("y = 1;"), "an assignment that may reach a global"),
            (guarded("this.f = 1;"), "a field store"),
            (guarded("let a = [1]; a[0] = 2;"), "an index store"),
            (guarded("return new Refused();"), "new"),
            (guarded("this.missing();"), "an unresolved method"),
            (guarded("fn f() { return 1; }"), "a function definition"),
            (
                guarded("class Inner { fn m() { return 1; } }"),
                "a class definition",
            ),
            (
                guarded("this.n = this.n + 1; if (this.n > 1) { throw 1; }"),
                "a read-back counter",
            ),
            (
                guarded("let w = this.weights; w[0] = 9;"),
                "a store through a local holding a field's list",
            ),
            (
                guarded(r#"let w = [0]; if (c["deep"]) { w = this.weights; } w[0] = 1;"#),
                "a store through a local that holds a field's list on one path",
            ),
            (
                guarded("let again = [this.grid[0]][0]; push(again, 1);"),
                "a push into a container taken out of a list",
            ),
            (guarded(r#"c["seen"] = true;"#), "a context store"),
            (
                "class Refused { fn bump() { push(this.log, 1); } \
                 fn export_check(c) { if (this.mode == 1) { this.bump(); } } }"
                    .to_string(),
                "a push in a helper",
            ),
            (
                "class Refused { fn fill(xs) { xs[0] = 1; } \
                 fn export_check(c) { if (this.mode == 1) { this.fill([0]); } } }"
                    .to_string(),
                "a helper storing into its parameter",
            ),
        ];
        for name in REACHES_OUT {
            let reach = Builtin::from_name(name).map(Builtin::reach);
            assert!(matches!(reach, Some(Reach::Host | Reach::Values)), "{name}");
            refused.push((guarded(&format!("{name}();")), "a builtin that reaches out"));
        }
        let ctx = http();
        for (src, why) in &refused {
            let decl = class(src);
            assert!(!plan_for(&decl).certified, "{why}: {src}");
            let p = policy(&decl, &[("mode", PValue::Int(0))]);
            assert_eq!(p.export_check(&ctx), Ok(()), "{why}: {src}");
            assert_eq!(executed_and_reused(&p, &ctx, 3), (3, 0), "{why}: {src}");
        }
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

    /// A wrong eligibility verdict the verdict oracle cannot see — the
    /// check allows whatever its `this` holds — is caught by comparing the
    /// cached `this` with its snapshot.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "field `log` of policy class `Logger`")]
    fn a_wrongly_eligible_class_is_caught_by_its_snapshot() {
        let logger = class(r#"class Logger { fn export_check(context) { push(this.log, 1); } }"#);
        let mut plan = ClassPlan::new(&logger, true);
        assert!(!plan.certified);
        plan.certified = true;
        let fields = Fields::from([("log".to_string(), PValue::List(Vec::new()))]);
        let _ = cross(&plan, &Arc::new(fields), &http());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_snapshot_comparison_is_the_conversion() {
        let list = |items: Vec<Value>| Value::new_array(items);
        let untrusted: resin_core::PolicyRef = Arc::new(resin_core::UntrustedData::new());
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::int(3),
            Value::Int(3, resin_core::Label::of(&untrusted)),
            Value::str("3"),
            list(vec![]),
            list(vec![Value::int(1), Value::str("x")]),
            list(vec![list(vec![Value::int(1)])]),
            list(vec![Value::new_map()]),
            Value::new_map(),
        ];
        let snaps: Vec<PValue> = values.iter().filter_map(PValue::from_value).collect();
        for value in &values {
            for snap in &snaps {
                assert_eq!(
                    oracle::converts_to(value, snap),
                    PValue::from_value(value).as_ref() == Some(snap),
                    "{value:?} against {snap:?}"
                );
            }
        }
    }
}
