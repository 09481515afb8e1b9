//! What a warm script-policy crossing does, as counts (a time would move
//! with the host): heap allocations on the hit and miss paths, VM
//! instructions dispatched, chunks compiled, and acquisitions of the
//! process-wide plan-table lock.
//!
//! One `#[test]` in its own process: the counting allocator is the
//! process's allocator, and the compile and lock counters are global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use resin::core::{Context, GateKind, Policy, TaintedString};
use resin::lang::ast::{ClassDecl, StmtKind};
use resin::lang::check::plan_table_locks;
use resin::lang::vm::dispatched_ops;
use resin::lang::{
    check_cache_stats, compiled_policy_chunks, parse_program, set_check_cache, PValue, ScriptPolicy,
};
use resin::web::Response;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter with no destructor and no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|n| n.get());
    f();
    ALLOCS.with(|n| n.get()) - before
}

/// `rsl_page`'s three classes: the floor, a 64-iteration loop, a helper
/// call.
const CLASSES: [&str; 3] = [
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

fn load(src: &str) -> Arc<ClassDecl> {
    parse_program(src)
        .expect("policy parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("class decl")
}

fn policy(kind: usize, class: &Arc<ClassDecl>, tag: i64) -> ScriptPolicy {
    let mut f = BTreeMap::new();
    if kind == 2 {
        let users = (0..8).map(|i| PValue::Str(format!("reader{i}"))).collect();
        f.insert("users".to_string(), PValue::List(users));
    } else {
        let weights = (0..64).map(|i| PValue::Int((i * 7 + tag) % 23)).collect();
        f.insert("weights".to_string(), PValue::List(weights));
    }
    f.insert("tag".to_string(), PValue::Int(tag));
    ScriptPolicy::new(class.name.clone(), f, Some(class.clone()))
}

/// Allocations of one served crossing. A debug build runs the
/// cache-transparency oracle after it — a from-scratch crossing, which is
/// what `set_check_cache(false)` runs — so its cost is measured the same
/// way and taken off.
fn crossing_allocations(policy: &ScriptPolicy, ctx: &Context) -> u64 {
    let served = allocations(|| policy.export_check(ctx).expect("http is allowed"));
    if !cfg!(debug_assertions) {
        return served;
    }
    set_check_cache(false);
    let oracle = allocations(|| policy.export_check(ctx).expect("http is allowed"));
    set_check_cache(true);
    served - oracle
}

/// VM instructions one served crossing dispatches — counted by debug
/// builds only, where the oracle's from-scratch run (the same bytecode
/// over the same fields) is measured the same way and taken off.
fn crossing_ops(policy: &ScriptPolicy, ctx: &Context) -> u64 {
    let ops = |f: &dyn Fn()| {
        let before = dispatched_ops();
        f();
        dispatched_ops() - before
    };
    let check = || policy.export_check(ctx).expect("http is allowed");
    let served = ops(&check);
    set_check_cache(false);
    let oracle = ops(&check);
    set_check_cache(true);
    served - oracle
}

#[test]
fn a_warm_crossing_allocates_compiles_and_locks_nothing() {
    let mut ctx = Context::new(GateKind::Http);
    ctx.set_str("user", "reader7");

    // Hit and miss paths, class by class: one instance again and again,
    // then two instances alternating on one declaration.
    for (kind, src) in CLASSES.iter().enumerate() {
        let class = load(src);
        let (a, b) = (policy(kind, &class, 1), policy(kind, &class, 2));
        for p in [&a, &b, &a, &b] {
            p.export_check(&ctx).expect("http is allowed");
        }
        let (h0, m0) = check_cache_stats();
        let miss = crossing_allocations(&a, &ctx);
        let hit = crossing_allocations(&a, &ctx);
        let miss_again = crossing_allocations(&b, &ctx);
        // (The from-scratch runs of a debug build count as misses too.)
        let (h1, m1) = check_cache_stats();
        assert_eq!(h1 - h0, 1, "{}: one of the three reused `this`", class.name);
        assert!(m1 - m0 >= 2, "{}: two of the three rebuilt it", class.name);
        // The evaluator, its buffers, `this`, the context map and every
        // string constant are reused; a rebuilt `this` refills the object,
        // the list and the strings it already owns.
        assert_eq!(hit, 0, "{} hit path", class.name);
        assert_eq!(miss, 0, "{} miss path", class.name);
        assert_eq!(miss_again, 0, "{} miss path", class.name);

        // The crossing's bytecode, instruction by instruction. The floor
        // is 3 (`context["type"]`, compare-and-branch, return).
        // `ChannelQuota` runs 6 before its loop (the guard included), 6
        // after, and 6 per weight — `acc * 33`, `w[i]`, `+`, `%`, `i + 1`,
        // the guard again as the back-edge — where the stack encoding
        // took 9. `AllowList` runs 7 around the call and 2 before the
        // helper's loop; a user that is not the viewer costs 7 (`len(u)`
        // moves its argument, calls, compares; `u[i]`, `==`, `i + 1`, the
        // jump back) and `reader7`, the last of eight, 6.
        if cfg!(debug_assertions) {
            let expected = [3, 6 + 6 * 64 + 6, 7 + 2 + 7 * 7 + 6][kind];
            assert_eq!(crossing_ops(&a, &ctx), expected, "{} ops", class.name);
            assert_eq!(crossing_ops(&b, &ctx), expected, "{} ops", class.name);
        }
    }

    // A page: 32 fragments on one response, half reusing one instance per
    // class (hits), half rotating through field-sets on declarations of
    // their own (misses) — `rsl_page`'s shape.
    let hit_classes: Vec<_> = CLASSES.iter().map(|src| load(src)).collect();
    let miss_classes: Vec<_> = CLASSES.iter().map(|src| load(src)).collect();
    let fragment = |kind: usize, class: &Arc<ClassDecl>, tag: i64| {
        let mut s = TaintedString::from(format!("fragment {kind}/{tag};"));
        s.add_policy(Arc::new(policy(kind, class, tag)));
        s
    };
    let page: Vec<TaintedString> = (0..32)
        .map(|p| match p < 16 {
            true => fragment(p % 3, &hit_classes[p % 3], 0),
            false => fragment(p % 3, &miss_classes[p % 3], p as i64),
        })
        .collect();
    let render = || {
        let mut resp = Response::for_user("reader7");
        for frag in &page {
            resp.echo_ref(frag).expect("policy allows http");
        }
        resp.body()
    };
    let expected: String = page.iter().map(|f| f.as_str()).collect();
    assert_eq!(render(), expected, "warm-up page");

    let (chunks, locks, (h0, m0)) = (
        compiled_policy_chunks(),
        plan_table_locks(),
        check_cache_stats(),
    );
    assert_eq!(render(), expected);
    let (h1, m1) = check_cache_stats();
    assert_eq!(compiled_policy_chunks() - chunks, 0, "chunks compiled");
    assert_eq!(plan_table_locks() - locks, 0, "plan-table lock taken");
    assert_eq!((h1 - h0, m1 - m0), (16, 16), "half hit, half miss");
}
