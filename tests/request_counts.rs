//! What one warm request costs, as counts (a time would move with the
//! host): label-table lock takes, read-index hits and misses, policy
//! decodes, `export_check` calls and script crossings, and the check
//! caches' hits, misses and reused verdicts — each read from
//! `resin_core::metrics` around one served request. The sum of a
//! request's counts is the counters' own cost: one increment each.
//!
//! Every count is read with `metrics::thread`: a request is served on the
//! caller's thread, so tests running beside it in this binary do not move
//! what it reads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use resin::apps::ForumApp;
use resin::core::metrics::{self, Counter};
use resin::core::TaintedString;
use resin::lang::ast::{ClassDecl, StmtKind};
use resin::lang::{check_cache_stats, parse_program, PValue, ScriptPolicy};
use resin::net::{build_request, parse_head};
use resin::web::{serve_request, Request, Response, SessionStore};

/// The counters `f` moved on this thread, and by how much, in
/// [`Counter::ALL`] order; a counter it left alone is not listed.
fn counts(f: impl FnOnce()) -> Vec<(Counter, u64)> {
    let before = Counter::ALL.map(metrics::thread);
    f();
    (Counter::ALL.iter().zip(before))
        .map(|(&c, b)| (c, metrics::thread(c) - b))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// A request as it arrives off a socket, through the network edge: its
/// parameters and cookies carry the production `http_param` labels.
fn from_wire(method: &str, target: &str, sid: &str, body: &str) -> Request {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: forum.example.org\r\nCookie: sid={sid}\r\n\
         Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let body = (!body.is_empty()).then_some(body.as_bytes());
    build_request(&parse_head(head.as_bytes()).expect("head parses"), body)
}

struct Forum {
    app: ForumApp,
    sid: String,
    dir: PathBuf,
}

impl Forum {
    /// A durable forum, fsync off, with `alice` logged in.
    fn open(tag: &str) -> Forum {
        let dir =
            std::env::temp_dir().join(format!("resin-request-counts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum");
        app.db().set_wal_sync(false);
        let sid = serve_request(&app, &Request::post("/login").with_param("user", "alice")).body;
        Forum { app, sid, dir }
    }

    fn serve(&self, req: &Request) -> String {
        let page = serve_request(&self.app, req);
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        page.body
    }

    /// Posts `body` off the wire, returning the post's id.
    fn post(&self, body: &str) -> String {
        let req = from_wire("POST", "/post", &self.sid, &format!("body={body}"));
        let page = self.serve(&req);
        page.strip_prefix("posted ").expect("posted").to_string()
    }

    /// What serving `req` counts, once it is warm: the same counts every
    /// time.
    fn warm_counts(&self, req: &Request) -> Vec<(Counter, u64)> {
        self.serve(req);
        let first = counts(|| {
            self.serve(req);
        });
        let again = counts(|| {
            self.serve(req);
        });
        assert_eq!(first, again, "a warm request counts the same each time");
        first
    }
}

impl Drop for Forum {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `rsl_page`'s three classes (as `check_allocs.rs` has them): the
/// floor, a 64-iteration loop, a helper call.
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

/// A fragment guarded by a `kind` policy of `class` with field-set `tag`.
fn fragment(kind: usize, class: &Arc<ClassDecl>, tag: i64) -> TaintedString {
    let mut f = BTreeMap::new();
    if kind == 2 {
        let users = (0..8).map(|i| PValue::Str(format!("reader{i}"))).collect();
        f.insert("users".to_string(), PValue::List(users));
    } else {
        let weights = (0..64).map(|i| PValue::Int((i * 7 + tag) % 23)).collect();
        f.insert("weights".to_string(), PValue::List(weights));
    }
    f.insert("tag".to_string(), PValue::Int(tag));
    let policy = ScriptPolicy::new(class.name.clone(), f, Some(class.clone()));
    let mut s = TaintedString::from(format!("fragment {kind}/{tag};"));
    s.add_policy(Arc::new(policy));
    s
}

/// `rsl_page`'s shape: 32 fragments on one response, half reusing one
/// instance per class (hits), half rotating through field-sets on
/// declarations of their own (misses).
fn rsl_page() -> Vec<TaintedString> {
    let hit_classes: Vec<_> = CLASSES.iter().map(|src| load(src)).collect();
    let miss_classes: Vec<_> = CLASSES.iter().map(|src| load(src)).collect();
    (0..32)
        .map(|p| match p < 16 {
            true => fragment(p % 3, &hit_classes[p % 3], 0),
            false => fragment(p % 3, &miss_classes[p % 3], p as i64),
        })
        .collect()
}

fn render(page: &[TaintedString]) -> String {
    let mut resp = Response::for_user("reader7");
    for frag in page {
        resp.echo_ref(frag).expect("policy allows http");
    }
    resp.body()
}

/// The number of increments a request's counts cost the counters.
fn increments(counts: &[(Counter, u64)]) -> u64 {
    counts.iter().map(|&(_, n)| n).sum()
}

#[test]
fn warm_forum_requests_cost_these_counts() {
    use Counter::*;
    let forum = Forum::open("forum");
    let id = forum.post("hello+%3Cb%3Eworld%3C%2Fb%3E");
    for i in 0..4 {
        forum.post(&format!("needle+{i}"));
    }

    // `/view`: two label read-lock takes, each a keyed lookup: the set
    // the id parameter's label merges to for `to_int`, and the union memo
    // probe in `html_escape`. The wire hit reviving the body's policy
    // column reads the class registry's index, not the label table. The
    // marker looks and the gate's default filter resolve labels in place,
    // with no lock; the filter checks the page's two policies natively.
    // No write lock, no decode.
    let view = from_wire("GET", &format!("/view?id={id}"), &forum.sid, "");
    let cost = forum.warm_counts(&view);
    assert_eq!(
        cost,
        [(LabelReadLocks, 2), (WireHits, 1), (NativeChecks, 2)],
        "/view"
    );
    assert_eq!(increments(&cost), 5, "/view increments");

    // `/post`: the body's spans are serialised twice, for the WAL record
    // and for the policy column, each reading the label's ids and the
    // write index in place: no lock and no other counted event. Every
    // post is a new row, so none repeats; two warm ones count the same.
    let post = || from_wire("POST", "/post", &forum.sid, "body=another+haystack");
    forum.serve(&post());
    let (first, again) = (post(), post());
    let cost = counts(|| {
        forum.serve(&first);
    });
    assert_eq!(cost, [], "/post");
    assert_eq!(
        counts(|| {
            forum.serve(&again);
        }),
        cost,
        "/post again"
    );
    assert_eq!(increments(&cost), 0, "/post increments");

    // `/search`: nothing per request, and per result row what `/view`
    // spends on its body: a wire hit, one label read-lock take (the
    // escape's union memo probe) and the gate's check of two policies.
    let search = from_wire("GET", "/search?q=needle", &forum.sid, "");
    for rows in [4, 5] {
        let cost = forum.warm_counts(&search);
        assert_eq!(
            cost,
            [
                (LabelReadLocks, rows),
                (WireHits, rows),
                (NativeChecks, 2 * rows)
            ],
            "/search, {rows} rows"
        );
        assert_eq!(increments(&cost), 4 * rows, "/search increments");
        forum.post("needle+more");
    }
}

#[test]
fn a_warm_page_of_script_crossings_costs_these_counts() {
    use Counter::*;
    let page = rsl_page();
    let expected: String = page.iter().map(|f| f.as_str()).collect();
    assert_eq!(render(&page), expected, "warm-up page");

    // Each fragment's one policy is resolved by the gate, in place with no
    // lock, and checked natively, which crosses into the script. The hit
    // half is three policy instances, so 13 of its 16 crossings reuse the
    // allow of the first and execute nothing: 32 - 13 executed.
    let cost = counts(|| assert_eq!(render(&page), expected));
    assert_eq!(
        cost,
        [
            (CheckCacheHits, 16),
            (CheckCacheMisses, 16),
            (VerdictsReused, 13),
            (NativeChecks, 32),
            (ScriptCrossings, 19)
        ],
        "rsl page"
    );
    assert_eq!(increments(&cost), 96, "rsl page increments");
}

#[test]
fn the_kept_getters_read_what_they_forward() {
    let forum = Forum::open("forwards");
    let db = forum.app.db();
    db.set_wal_sync(true);
    let id = forum.post("synced");
    db.set_wal_sync(false);
    forum.post("unsynced");
    forum.serve(&from_wire("GET", &format!("/view?id={id}"), &forum.sid, ""));
    render(&rsl_page());

    let (hits, misses) = check_cache_stats();
    assert!(hits > 0 && misses > 0, "a mixed run");
    assert_eq!(
        (hits, misses),
        (
            metrics::thread(Counter::CheckCacheHits),
            metrics::thread(Counter::CheckCacheMisses)
        )
    );
    let store = db.store().expect("a durable forum").stats();
    assert!(store.syncs > 0 && store.seq > 0, "{store:?}");
    assert_eq!(forum.app.store_stats(), Some(store));
    assert_eq!(db.wal_sync_count(), store.syncs);
}
