//! What a warm script-policy crossing does, as counts (a time would move
//! with the host): heap allocations on the hit, miss and reused-allow
//! paths, VM instructions dispatched, verdicts reused, chunks compiled,
//! and acquisitions of the process-wide plan-table lock. Beside it, the
//! allocations of a warm `html_escape` (1 KiB and 1 MiB), of which its
//! marker makes none, of a warm spans codec, both ways, of opening a
//! gate, and of the forum's three prepared statements.
//!
//! In a process of their own: the counting allocator is the process's
//! allocator, and the compile and lock counters are global. Allocations
//! are counted per thread, so the tests do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use resin::core::metrics::{self, Counter};
use resin::core::{
    deserialize_spans, serialize_spans, Acl, Context, Gate, GateKind, HtmlSanitized, Label,
    PagePolicy, PasswordPolicy, Policy, PolicyRef, Right, Runtime, TaintedString, UntrustedData,
};
use resin::lang::ast::{ClassDecl, StmtKind};
use resin::lang::vm::dispatched_ops;
use resin::lang::{check_cache_stats, parse_program, set_check_cache, PValue, ScriptPolicy};
use resin::sql::{GuardMode, ResinDb, Tracking};
use resin::web::request::untrusted;
use resin::web::{html_escape, Response};

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

/// Crossings on this thread that reused an earlier allow.
fn verdicts_reused() -> u64 {
    metrics::thread(Counter::VerdictsReused)
}

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

/// What `f` dispatches.
fn ops(f: impl Fn()) -> u64 {
    let before = dispatched_ops();
    f();
    dispatched_ops() - before
}

/// VM instructions one served crossing dispatches — counted by debug
/// builds only, where the oracle's from-scratch run (the same bytecode
/// over the same fields) is measured the same way and taken off.
fn crossing_ops(policy: &ScriptPolicy, ctx: &Context) -> u64 {
    let check = || policy.export_check(ctx).expect("http is allowed");
    let served = ops(check);
    set_check_cache(false);
    let oracle = ops(check);
    set_check_cache(true);
    served - oracle
}

#[test]
fn a_warm_crossing_allocates_compiles_and_locks_nothing() {
    let mut ctx = Context::new(GateKind::Http);
    ctx.set_str("user", "reader7");

    // Hit and miss paths, class by class: one instance again and again,
    // then two instances alternating on one declaration. An allow is
    // reused for the snapshot it was given under the same context, so a
    // crossing meant to execute gets an equal, separately allocated one
    // (`fresh`), which the `this` slot still recognises by content.
    for (kind, src) in CLASSES.iter().enumerate() {
        let class = load(src);
        let fresh = |tag| policy(kind, &class, tag);
        let (a, b) = (fresh(1), fresh(2));
        for p in [&a, &b, &a, &b] {
            p.export_check(&ctx).expect("http is allowed");
        }
        let ((h0, m0), r0) = (check_cache_stats(), verdicts_reused());
        let miss = crossing_allocations(&fresh(1), &ctx);
        let hit = crossing_allocations(&fresh(1), &ctx);
        let miss_again = crossing_allocations(&fresh(2), &ctx);
        let reused = crossing_allocations(&a, &ctx);
        // (The from-scratch runs of a debug build count as misses too.)
        let ((h1, m1), r1) = (check_cache_stats(), verdicts_reused());
        assert_eq!(
            r1 - r0,
            1,
            "{}: one of the four reused an allow",
            class.name
        );
        assert_eq!(h1 - h0, 2, "{}: it and one more reused `this`", class.name);
        assert!(m1 - m0 >= 2, "{}: two of the four rebuilt it", class.name);
        // The evaluator, its buffers, `this`, the context map and every
        // string constant are reused; a rebuilt `this` refills the object,
        // the list and the strings it already owns; the table of allows
        // was sized when it was made.
        assert_eq!(hit, 0, "{} hit path", class.name);
        assert_eq!(miss, 0, "{} miss path", class.name);
        assert_eq!(miss_again, 0, "{} miss path", class.name);
        assert_eq!(reused, 0, "{} reused allow", class.name);

        // The crossing's bytecode, instruction by instruction. The floor
        // is 3 (`context["type"]`, compare-and-branch, return).
        // `ChannelQuota` runs 6 before its loop (the guard included), 6
        // after, and 6 per weight — `acc * 33`, `w[i]`, `+`, `%`, `i + 1`,
        // the guard again as the back-edge — where the stack encoding
        // took 9. `AllowList` runs 7 around the call and 2 before the
        // helper's loop; a user that is not the viewer costs 7 (`len(u)`
        // moves its argument, calls, compares; `u[i]`, `==`, `i + 1`, the
        // jump back) and `reader7`, the last of eight, 6.
        // An executed hit (the slot holds tag 2), an executed miss, and a
        // reused allow, which executes nothing.
        if cfg!(debug_assertions) {
            let expected = [3, 6 + 6 * 64 + 6, 7 + 2 + 7 * 7 + 6][kind];
            assert_eq!(
                crossing_ops(&fresh(2), &ctx),
                expected,
                "{} ops",
                class.name
            );
            assert_eq!(
                crossing_ops(&fresh(1), &ctx),
                expected,
                "{} ops",
                class.name
            );
            assert_eq!(crossing_ops(&a, &ctx), 0, "{} ops", class.name);
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

    let (chunks, locks, (h0, m0), r0) = (
        metrics::total(Counter::PolicyChunksCompiled),
        metrics::total(Counter::PlanTableLocks),
        check_cache_stats(),
        verdicts_reused(),
    );
    let served = ops(|| assert_eq!(render(), expected));
    let ((h1, m1), r1) = (check_cache_stats(), verdicts_reused());
    let compiled = metrics::total(Counter::PolicyChunksCompiled) - chunks;
    assert_eq!(compiled, 0, "chunks compiled");
    let locked = metrics::total(Counter::PlanTableLocks) - locks;
    assert_eq!(locked, 0, "plan-table lock taken");
    assert_eq!((h1 - h0, m1 - m0), (16, 16), "half hit, half miss");
    // The hit half is three policy instances (equal policies intern to
    // one), so 13 of its 16 crossings reuse the allow of the first.
    assert_eq!(r1 - r0, 13, "verdicts reused");

    // What the page dispatches: every crossing executed (the caches off)
    // is 6 `ChannelGate`s, 5 `ChannelQuota`s and 5 `AllowList`s on the
    // hit half, and 2 711 ops on the miss half; served, the hit half runs
    // one of each. (The oracle of a debug build runs every crossing from
    // scratch, so the caches-off render is also what it adds.)
    if cfg!(debug_assertions) {
        let miss_half = 2711;
        set_check_cache(false);
        let scratch = ops(|| assert_eq!(render(), expected));
        set_check_cache(true);
        assert_eq!(scratch, 6 * 3 + 5 * 396 + 5 * 64 + miss_half);
        assert_eq!(served - scratch, 3 + 396 + 64 + miss_half);
    }
}

#[test]
fn a_warm_escape_allocates_only_its_output() {
    // 1 KiB of prose with an HTML metacharacter every ten bytes or so.
    let prose = "the quick brown fox & jumps <over> the \"lazy\" dog's back; ";
    let text: String = prose.chars().cycle().take(1024).collect();
    let input = untrusted(text, "http_param");
    let marker = || Label::of_static("", HtmlSanitized::new);
    html_escape(&input);

    let n = allocations(|| {
        for _ in 0..1000 {
            std::hint::black_box(marker());
        }
    });
    assert_eq!(n, 0, "the marker, 1 000 warm calls");
    let fresh: PolicyRef = Arc::new(HtmlSanitized::new());
    assert_eq!(marker(), Label::of(&fresh));
    let n = allocations(|| {
        for _ in 0..1000 {
            std::hint::black_box(html_escape(std::hint::black_box(&input)));
        }
    });
    // The output's text, sized up front at half again the input, which
    // this body's entities fit: 1 a call. Its one span (an entity carries
    // the label of the byte it replaces, so the body stays one span) fits
    // the span list's inline slots. Interning the marker afresh cost 3
    // more (the policy, its key's name, the id list).
    assert_eq!(n, 1000, "1 000 warm escapes");
}

#[test]
fn a_warm_megabyte_escape_allocates_only_its_output() {
    // A body of `MAX_BODY_BYTES`, after only a short escape on this
    // thread: the kernel escapes it through the fixed-size block it holds,
    // not a buffer grown to the input, so the escape allocates what a
    // 1 KiB one does, its output's text, once and never grown.
    let prose = "the quick brown fox & jumps <over> the lazy dog; ";
    let text: String = prose.chars().cycle().take(1 << 20).collect();
    let input = untrusted(text, "http_param");
    html_escape(&untrusted("<p>", "http_param"));
    let mut out = None;
    let n = allocations(|| out = Some(html_escape(std::hint::black_box(&input))));
    assert_eq!(n, 1, "one warm 1 MiB escape");
    let out = out.unwrap().into_plain();
    assert_eq!(out.capacity(), input.len() + input.len() / 2);
}

#[test]
fn a_warm_spans_codec_allocates_a_fixed_count() {
    // `forum_read` revives one spans blob a cell, `forum_write` writes one
    // a post: three spans over two policies, one span holding both.
    let form: PolicyRef = Arc::new(UntrustedData::from_source("http_param"));
    let secret: PolicyRef = Arc::new(PasswordPolicy::new("owner@conf.org"));
    let mut data = TaintedString::from("alpha beta gamma");
    data.add_policy_range(0..5, form.clone());
    data.add_policy_range(6..10, form);
    data.add_policy_range(6..10, secret.clone());
    data.add_policy_range(11..16, secret);
    let blob = serialize_spans(&data);
    assert_eq!(
        blob,
        "#UntrustedData{source=http_param},PasswordPolicy{email=owner@conf.org;allow_chair=true}\
         #0..5|0;6..10|0,1;11..16|1"
    );
    assert!(deserialize_spans(data.as_str(), &blob)
        .unwrap()
        .taint_eq(&data));

    let n = allocations(|| {
        for _ in 0..1000 {
            std::hint::black_box(serialize_spans(std::hint::black_box(&data)));
        }
    });
    // The table's two entries and the id list, the spans text as it grows
    // (three times here), the blob sized up front.
    assert_eq!(n, 1000 * 6, "1 000 warm serializations");
    let n = allocations(|| {
        for _ in 0..1000 {
            std::hint::black_box(deserialize_spans(data.as_str(), &blob).unwrap());
        }
    });
    // The text, the table's labels, the span list.
    assert_eq!(n, 1000 * 3, "1 000 warm revivals");
}

#[test]
fn a_warm_gate_open_allocates_its_context_and_chain_only() {
    // Allocations of one open, averaged over 1 000 warm ones.
    fn per_open<T>(open: impl Fn() -> T) -> u64 {
        drop(open());
        allocations(|| {
            for _ in 0..1000 {
                drop(std::hint::black_box(open()));
            }
        }) / 1000
    }
    // A fresh context is its kind and an empty entry map: nothing. A
    // guarded chain is 1 (the filter list; the default filter is
    // zero-sized). While the context stored the kind again as a `type`
    // entry (the map's node, the key and its value), an open cost 3
    // more; when every crate opened its gate through a process-wide
    // registry, looked up by a `String` key, one more again.
    let http = per_open(|| Gate::new(GateKind::Http));
    assert_eq!(http, 1, "Gate::new(Http)");
    let sql = per_open(|| Gate::unguarded(GateKind::Sql));
    assert_eq!(sql, 0, "Gate::unguarded(Sql)");
    let response = per_open(Response::new);
    assert_eq!(response, 1, "Response::new()");
    // The runtime's forward opens the same gates.
    let email = per_open(|| Runtime::global().open(GateKind::Email));
    assert_eq!(email, 1, "Runtime::open(Email)");
    let file = per_open(|| Runtime::global().open(GateKind::File));
    assert_eq!(file, 0, "Runtime::open(File)");
}

#[test]
fn a_warm_prepared_statement_allocates_a_fixed_count() {
    // `ForumApp`'s schema, guard and templates, over 50 posts whose
    // bodies carry the edge's label.
    let db = ResinDb::with_modes(Tracking::On, GuardMode::AutoSanitize);
    db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
        .unwrap();
    let insert = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
    let view = db.prepare("SELECT body FROM posts WHERE id = ?").unwrap();
    let search = db
        .prepare("SELECT body FROM posts WHERE body LIKE ?")
        .unwrap();
    let body = |i: i64| untrusted(format!("post {i} says <b>hi</b>"), "http_param");
    for i in 1..=50 {
        db.exec_prepared(&insert, vec![i.into(), body(i).into()])
            .unwrap();
    }
    // The fewest of 16 warm executions, each counted without building its
    // arguments: an insert now and then also grows the table's rows or
    // splits an index node.
    let fewest = |run: &mut dyn FnMut(i64) -> u64| (0..16).map(run).min().unwrap();
    let view_allocs = fewest(&mut |k| {
        let args = vec![(1 + k % 50).into()];
        allocations(|| assert_eq!(db.exec_prepared(&view, args).unwrap().rows.len(), 1))
    });
    // Five hits: posts 7, 17, 27, 37 and 47.
    let search_allocs = fewest(&mut |_| {
        let args = vec![untrusted("%7 says%", "http_param").into()];
        allocations(|| assert_eq!(db.exec_prepared(&search, args).unwrap().rows.len(), 5))
    });
    let insert_allocs = fewest(&mut |k| {
        let args = vec![(51 + k).into(), body(51 + k).into()];
        allocations(|| assert_eq!(db.exec_prepared(&insert, args).unwrap().affected, 1))
    });
    // An execution borrows its parsed statement. When each one ran a
    // clone of it, the SELECTs cost 6 more (24 and 38) and the insert 4
    // more (29). When each statement was rewritten to reach a shadow
    // column of the schema, they cost 4 more (18 and 32: the shadow names,
    // their list and their positions) and the insert 13 more (25: the
    // column names cloned and shadowed, each row's values cloned with a
    // policy literal beside each, and each literal cloned into the row).
    assert_eq!(
        (view_allocs, search_allocs, insert_allocs),
        (14, 28, 12),
        "(/view, /search, /post)"
    );
}

#[test]
fn a_warm_untainted_echo_allocates_nothing() {
    let row = "<div class=\"row\"><span class=\"value\">plain</span></div>\n";
    let mut resp = Response::new();
    for _ in 0..1000 {
        resp.echo_str(row).unwrap();
    }
    // The body keeps its capacity; the echoes below refill it.
    resp.gate_mut().clear_output();
    let n = allocations(|| {
        for _ in 0..1000 {
            resp.echo_str(std::hint::black_box(row)).unwrap();
        }
    });
    assert_eq!(n, 0, "1 000 warm untainted echoes");
    assert_eq!(resp.body().len(), 1000 * row.len());
}

#[test]
fn a_warm_page_of_gate_writes_allocates_a_fixed_count() {
    // `hotcrp_page`'s 50 gate writes as the tracked site makes them: 46
    // `echo_str`, the title and the abstract under the PC's page policy,
    // and the author list under an ACL the viewer is not on, whose denial
    // output buffering answers with "Anonymous" (§5.5). Then `body()`.
    let viewer = "pc1@conf.org";
    let pc: PolicyRef = Arc::new(PagePolicy::new(Acl::new().grant(viewer, &[Right::Read])));
    let hidden: PolicyRef = Arc::new(PagePolicy::new(
        Acl::new().grant("author@uni.edu", &[Right::Read]),
    ));
    let title = TaintedString::with_policy("Data Flow Assertions at Scale", pc.clone());
    let abstract_ = TaintedString::with_policy("We measure the cost. ".repeat(20), pc);
    let authors = TaintedString::with_policy("A. Author, B. Author", hidden);
    let rows: Vec<String> = (0..40)
        .map(|i| {
            format!(
                "<div class=\"row r{i}\"><span class=\"label\">field {i}</span>\
                 <span class=\"value\">{}</span></div>\n",
                "x".repeat(160)
            )
        })
        .collect();
    let page = |title: TaintedString, abstract_: TaintedString, authors: TaintedString| {
        let mut resp = Response::for_user(viewer);
        resp.echo_str("<html><head><title>Paper</title></head><body>\n")
            .unwrap();
        resp.echo_str("<h1>").unwrap();
        resp.echo(title).unwrap();
        resp.echo_str("</h1>\n<div class=\"abstract\">").unwrap();
        resp.echo(abstract_).unwrap();
        resp.echo_str("</div>\n<div class=\"authors\">Authors: ")
            .unwrap();
        resp.buffered_or(|r| r.echo(authors), "Anonymous").unwrap();
        resp.echo_str("</div>\n").unwrap();
        for row in &rows {
            resp.echo_str(row).unwrap();
        }
        resp.echo_str("</body></html>\n").unwrap();
        resp.body()
    };
    let body = page(title.clone(), abstract_.clone(), authors.clone());
    assert!(body.contains("Authors: Anonymous</div>"));
    assert!(!body.contains("A. Author"));
    let n = allocations(|| drop(std::hint::black_box(page(title, abstract_, authors))));
    // The response's `user` entry (the map's node, the key and its
    // value) and chain (4), the body and the fragment `echo_str` checks
    // as each grows (12), and `body()`'s one copy. The denial is a record
    // of static fields: it allocates nothing. While the context stored a
    // `type` entry too, the page cost 19.
    assert_eq!(n, 17, "one warm page");
}

#[test]
fn a_denied_buffered_echo_allocates_no_more_than_an_allowed_echo_and_its_fallback() {
    // `hotcrp_page`'s one denial a page: the author list under an ACL the
    // viewer is not on, answered with "Anonymous" (§5.5). Refusing the
    // echo may cost what the fallback's own echo costs, and nothing for
    // the violation itself.
    let viewer = "pc1@conf.org";
    let pc: PolicyRef = Arc::new(PagePolicy::new(Acl::new().grant(viewer, &[Right::Read])));
    let hidden: PolicyRef = Arc::new(PagePolicy::new(
        Acl::new().grant("author@uni.edu", &[Right::Read]),
    ));
    let title = TaintedString::with_policy("Data Flow Assertions at Scale", pc);
    let authors = TaintedString::with_policy("A. Author, B. Author", hidden);
    let mut resp = Response::for_user(viewer);
    let round = |resp: &mut Response| {
        let (title, authors) = (title.clone(), authors.clone());
        let allowed = allocations(|| resp.echo(title).unwrap());
        let fallback = allocations(|| resp.echo_str("Anonymous").unwrap());
        let denied = allocations(|| {
            resp.buffered_or(|r| r.echo(authors), "Anonymous").unwrap();
        });
        (allowed, fallback, denied)
    };
    for _ in 0..8 {
        round(&mut resp);
    }
    // The body keeps its capacity; the round below refills it.
    resp.gate_mut().clear_output();
    let (allowed, fallback, denied) = round(&mut resp);
    assert!(
        denied <= allowed + fallback,
        "a denied echo made {denied} allocations, an allowed one {allowed} and the fallback {fallback}"
    );
    assert!(resp.body().ends_with("AnonymousAnonymous"));
    assert_eq!(
        (allowed, fallback, denied),
        (0, 0, 0),
        "(allowed, fallback, denied)"
    );
}
