//! Label-lifecycle GC through the product path: [`ForumApp::gc_labels`]
//! sweeps the process-wide label table between request bursts, and the
//! assertions keep firing afterwards because durable policy columns
//! re-intern on read.
//!
//! This file holds a single test on purpose: it sweeps the **global**
//! label table, which would race the label handles of unrelated tests
//! sharing the process. As its own integration-test binary it gets its
//! own process and its own table.

use std::sync::Arc;

use resin_apps::ForumApp;
use resin_core::LabelTable;
use resin_web::{serve_request, Request, SessionStore, WebApp};

fn login(app: &dyn WebApp, user: &str) -> String {
    let page = serve_request(app, &Request::post("/login").with_param("user", user));
    assert!(page.outcome.is_ok(), "{:?}", page.outcome);
    page.body
}

#[test]
fn label_table_plateaus_under_request_churn_with_gc() {
    let dir = std::env::temp_dir().join(format!("resin-label-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap();
    app.db().set_wal_sync(false);
    let sid = login(&app, "alice");

    let evil_id = serve_request(
        &app,
        &Request::post("/post")
            .with_cookie("sid", &sid)
            .with_param("body", "<script>steal()</script>"),
    )
    .body
    .strip_prefix("posted ")
    .unwrap()
    .to_string();

    let mut plateau = Vec::new();
    for round in 0..6 {
        // A burst of tainted traffic: every request interns labels for
        // its parse-boundary taint and its query results.
        for i in 0..20 {
            let page = serve_request(
                &app,
                &Request::post("/post")
                    .with_cookie("sid", &sid)
                    .with_param("body", &format!("round {round} post {i}")),
            );
            assert!(page.outcome.is_ok(), "{:?}", page.outcome);
            let page = serve_request(&app, &Request::get("/search").with_param("q", "post"));
            assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        }
        let report = app.gc_labels().unwrap();
        plateau.push(LabelTable::global().label_count());
        if round > 0 {
            assert!(
                report.labels_swept > 0,
                "steady-state bursts must free labels: {report:?}"
            );
        }
    }
    // The table plateaus: later rounds hold no more live labels than the
    // first post-GC measurement (slack for allocator reuse ordering).
    let first = plateau[0];
    for &count in &plateau[1..] {
        assert!(
            count <= first + 4,
            "label table must plateau under churn: {plateau:?}"
        );
    }

    // Policies survive the sweeps: the stored payload still fails closed
    // and a benign read still renders — labels re-intern from the
    // serialized policy columns on demand.
    let page = serve_request(&app, &Request::get("/view_raw").with_param("id", &evil_id));
    assert!(
        page.blocked(),
        "XSS must fail closed after GC: {:?}",
        page.outcome
    );
    let page = serve_request(&app, &Request::get("/view").with_param("id", &evil_id));
    assert!(page.outcome.is_ok(), "{:?}", page.outcome);
    assert!(page.body.contains("&lt;script&gt;"));

    let _ = std::fs::remove_dir_all(&dir);
}
