//! The paper applications served concurrently: forum and wiki as
//! [`WebApp`]s, dispatched by `resin_web::serve_request` from any number
//! of threads (the TCP edge's worker pool in `resin-net`).
//!
//! This is the serving topology of §6 — many users hitting one
//! application over shared state — rebuilt on the concurrent substrate:
//!
//! * [`ForumApp`]: a phpBB-style forum whose posts live in a
//!   [`ResinDb`] (policy columns persist taint across storage, the
//!   injection guard rides the sql gate) and whose logins live in a
//!   shared [`SessionStore`]. Every serving thread sees the same state;
//!   every request gets its own `Response`/`Context`.
//! * `WikiApp` (built by tests only): the MoinMoin core behind an `RwLock` — concurrent
//!   readers render pages in parallel, editors serialize on the lock,
//!   and the VFS read/write ACL assertions fire exactly as they do
//!   single-threaded.
//!
//! Both apps keep their wired-in vulnerable endpoints (`/view_raw`,
//! `/raw`, `/redirect`) so the attack suite can verify that XSS, SQL
//! injection, and response splitting **fail closed** when served
//! concurrently.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use resin_core::{FlowError, TaintedString};
use resin_sql::{Follower, GuardMode, Prepared, Recovery, ResinDb, Tracking};
use resin_web::server::WebApp;
use resin_web::{check_html_markers, html_escape, Request, Response, SessionStore};

/// Surfaces a torn-log recovery on stderr instead of recovering
/// silently: the store is consistent, but acknowledged writes from the
/// crashed process were discarded with the torn tail.
pub(crate) fn warn_if_torn(app: &str, dir: &std::path::Path, recovery: Recovery) {
    if recovery != Recovery::Clean {
        eprintln!("resin-apps: {app} at {} {recovery}", dir.display());
    }
}

/// Writes `html` to the response after the XSS marker assertion (§5.3).
fn emit_html(html: TaintedString, resp: &mut Response) -> Result<(), FlowError> {
    check_html_markers(&html)?;
    resp.echo(html)
}

/// The shared `/login` route: param `user` → session + `Set-Cookie`.
fn login_route(
    sessions: &SessionStore,
    req: &Request,
    resp: &mut Response,
) -> Result<(), FlowError> {
    let user = req.param_or_empty("user");
    if user.is_empty() {
        resp.set_status(400);
        return resp.echo_str("missing user");
    }
    let sid = sessions.login(user.as_str());
    // The sid is server-generated (trusted); the splitting guard on
    // set_header sees no untrusted bytes in it.
    resp.set_header("Set-Cookie", TaintedString::from(format!("sid={sid}")))?;
    resp.echo_str(&sid)
}

/// Resolves the request's session cookie to a user, annotating the
/// response context. Returns `None` (and a 403 page) for missing or
/// unknown sids — including the forged/guessed sids the predictable
/// generator used to allow.
fn authenticate(
    sessions: &SessionStore,
    req: &Request,
    resp: &mut Response,
) -> Result<Option<String>, FlowError> {
    let Some(user) = req.cookie("sid").and_then(|sid| sessions.user_for(sid)) else {
        resp.set_status(403);
        resp.echo_str("not logged in")?;
        return Ok(None);
    };
    resp.gate_mut().context_mut().set_str("user", user.as_str());
    Ok(Some(user))
}

/// The forum, served from shared storage.
///
/// Routes: `/login` (param `user`), `/post` (param `body`, cookie `sid`),
/// `/view` + `/view_raw` (param `id`), `/search` (param `q`),
/// `/redirect` (param `to`). The `_raw` and `redirect` endpoints carry
/// the wired-in bugs; the assertions block them.
///
/// All data-path queries run as prepared statements: request parameters
/// enter as bound values, never as query text, so injection payloads are
/// inert data rather than something the sql guard has to sanitize. The
/// post id is the table's PRIMARY KEY, so `/view` lookups probe the
/// auto-created ordered index instead of scanning — with the bound id's
/// taint still riding the value into the probe.
pub struct ForumApp {
    db: ResinDb,
    sessions: Arc<SessionStore>,
    next_id: AtomicI64,
    /// `Some` when this forum serves reads from a shipped replica store;
    /// write routes are rejected so the replica cannot silently diverge.
    replica: Option<Mutex<Follower>>,
    ins_post: Prepared,
    sel_body: Prepared,
    sel_search: Prepared,
}

impl ForumApp {
    /// A forum over a fresh shared database, auto-sanitize guarded.
    pub fn new(sessions: Arc<SessionStore>) -> Self {
        let db = ResinDb::with_modes(Tracking::On, GuardMode::AutoSanitize);
        db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
            .expect("posts schema");
        Self::assemble(db, sessions).expect("fresh forum")
    }

    /// Parses templates once and caches them for the app's lifetime;
    /// every request binds values into these. The next post id follows
    /// the highest stored one.
    fn assemble(db: ResinDb, sessions: Arc<SessionStore>) -> Result<Self, resin_sql::SqlError> {
        // The pk index turns this into an ordered-iteration sort-skip
        // rather than a full sort of a recovered table.
        let r = db.query_str("SELECT id FROM posts ORDER BY id DESC LIMIT 1")?;
        let next = r
            .rows
            .first()
            .and_then(|row| row.first())
            .and_then(|c| c.as_int())
            .map(|t| *t.value() + 1)
            .unwrap_or(1);
        let ins_post = db
            .prepare("INSERT INTO posts VALUES (?, ?)")
            .expect("insert template");
        let sel_body = db
            .prepare("SELECT body FROM posts WHERE id = ?")
            .expect("view template");
        let sel_search = db
            .prepare("SELECT body FROM posts WHERE body LIKE ?")
            .expect("search template");
        Ok(ForumApp {
            db,
            sessions,
            next_id: AtomicI64::new(next),
            replica: None,
            ins_post,
            sel_body,
            sel_search,
        })
    }

    /// Opens (creating if needed) a durable forum rooted at `dir`: posts
    /// and their policy columns are recovered from the last snapshot plus
    /// the WAL, so a stored XSS payload is still blocked — and a stolen
    /// password still fails closed — after a restart or crash.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        sessions: Arc<SessionStore>,
    ) -> Result<Self, resin_sql::SqlError> {
        let dir = dir.as_ref();
        let db = ResinDb::open_with_modes(dir, Tracking::On, GuardMode::AutoSanitize)?;
        warn_if_torn("forum", dir, db.recovery());
        // Only a genuinely fresh store runs (and WAL-logs) the CREATE —
        // an unconditional IF NOT EXISTS would append one no-op record
        // per restart until a checkpoint.
        if !db.table_names().iter().any(|n| n == "posts") {
            db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")?;
        }
        Self::assemble(db, sessions)
    }

    /// Opens a **read replica** over a shipped copy of a forum store:
    /// posts and their policy columns are rebuilt by replaying the
    /// shipped WAL through the same pipeline as primary recovery, so
    /// reads are byte- and label-identical to the primary — a stored XSS
    /// payload still fails closed at `/view_raw` here. Write routes
    /// (`/post`) are rejected with 403: local writes would silently
    /// diverge from the primary's history.
    ///
    /// Call [`replica_refresh`](ForumApp::replica_refresh) after new
    /// segments are shipped to advance the replica's watermark.
    pub fn open_replica(
        dir: impl AsRef<std::path::Path>,
        sessions: Arc<SessionStore>,
    ) -> Result<Self, resin_sql::SqlError> {
        let follower =
            Follower::open_with_modes(dir.as_ref(), Tracking::On, GuardMode::AutoSanitize)?;
        let mut app = Self::assemble(follower.db().clone(), sessions)?;
        app.replica = Some(Mutex::new(follower));
        Ok(app)
    }

    /// True when this forum serves from a shipped replica (reads only).
    #[cfg(test)]
    pub(crate) fn is_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// Applies newly shipped WAL records, returning how many were
    /// applied. No-op `Ok(0)` on a primary.
    pub fn replica_refresh(&self) -> Result<u64, resin_sql::SqlError> {
        match &self.replica {
            Some(f) => resin_core::sync::mlock(f).catch_up(),
            None => Ok(0),
        }
    }

    /// The replica's applied-watermark (highest shipped WAL sequence
    /// replayed); `None` on a primary.
    #[cfg(test)]
    pub(crate) fn replica_applied_seq(&self) -> Option<u64> {
        self.replica
            .as_ref()
            .map(|f| resin_core::sync::mlock(f).applied_seq())
    }

    /// How [`open`](ForumApp::open) found the forum's log (`Clean`
    /// in memory and on a replica): after a torn tail the forum is
    /// consistent, but acknowledged posts from the crashed process may be
    /// gone.
    pub fn recovery(&self) -> Recovery {
        self.db.recovery()
    }

    /// The forum's store counters when it is durable; `None` in-memory
    /// or on a replica (whose progress is
    /// `replica_applied_seq`).
    pub fn store_stats(&self) -> Option<resin_sql::StoreStats> {
        self.db.store().map(|store| store.stats())
    }

    /// Folds the WAL into a fresh snapshot.
    pub fn checkpoint(&self) -> Result<(), resin_sql::SqlError> {
        self.db.checkpoint()
    }

    /// The shared database handle (benches seed and trim through this).
    pub fn db(&self) -> &ResinDb {
        &self.db
    }

    /// The shared session store.
    pub fn sessions(&self) -> &Arc<SessionStore> {
        &self.sessions
    }

    /// Stores a post body (server-side path used by tests/benches to seed
    /// content without a request).
    pub fn seed_post(&self, body: &TaintedString) -> i64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.db
            .exec_prepared(&self.ins_post, vec![id.into(), body.into()])
            .expect("seed post");
        id
    }

    /// Looks a post up by its (index-probed) primary key. A non-numeric
    /// id — including `1 OR 1=1` — fails the parse and reads as "no such
    /// post": with bind parameters there is no query text for an attacker
    /// to reach, so numeric-position injection degrades to a 404 instead
    /// of a guard violation. The parsed id keeps the request parameter's
    /// taint, so the index probe runs on labeled data.
    fn fetch_body(&self, id: &TaintedString) -> Result<Option<TaintedString>, FlowError> {
        let Ok(id) = id.to_int() else {
            return Ok(None);
        };
        let r = self
            .db
            .exec_prepared(&self.sel_body, vec![id.into()])
            .map_err(sql_flow_error)?;
        Ok(r.cell(0, "body")
            .and_then(|c| c.as_text())
            .map(|t| t.to_owned()))
    }
}

/// Maps a SQL-layer error onto the flow-error taxonomy the web layer
/// reports (guard violations pass through unchanged).
fn sql_flow_error(e: resin_sql::SqlError) -> FlowError {
    match e {
        resin_sql::SqlError::Policy(flow) => flow,
        other => FlowError::runtime(other.to_string()),
    }
}

impl WebApp for ForumApp {
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
        match req.path() {
            "/login" => login_route(&self.sessions, req, resp),
            "/logout" => {
                if let Some(sid) = req.cookie("sid") {
                    self.sessions.logout(sid.as_str());
                }
                resp.echo_str("bye")
            }
            "/post" => {
                if self.replica.is_some() {
                    // A local write would never reach the primary's WAL
                    // and the next catch_up could not undo it — refuse.
                    resp.set_status(403);
                    return resp.echo_str("read-only replica");
                }
                if authenticate(&self.sessions, req, resp)?.is_none() {
                    return Ok(());
                }
                let body = req.param_or_empty("body");
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                // The body is a bound value: hostile quotes are stored
                // verbatim as data, and its taint persists via the policy
                // column exactly as it did on the string-built path.
                self.db
                    .exec_prepared(&self.ins_post, vec![id.into(), body.into()])
                    .map_err(sql_flow_error)?;
                resp.echo_str(&format!("posted {id}"))
            }
            "/view" => {
                // The *correct* render path: escape, then the XSS marker
                // assertion double-checks at the output gate.
                let Some(body) = self.fetch_body(&req.param_or_empty("id"))? else {
                    resp.set_status(404);
                    return resp.echo_str("no such post");
                };
                let mut html = TaintedString::from("<div class=\"post\">");
                html.push_tainted(&html_escape(&body));
                html.push_str("</div>");
                emit_html(html, resp)
            }
            "/view_raw" => {
                // BUG (wired in): no html_escape — the XSS assertion is
                // the only thing standing between a stored script and the
                // victim's browser.
                let Some(body) = self.fetch_body(&req.param_or_empty("id"))? else {
                    resp.set_status(404);
                    return resp.echo_str("no such post");
                };
                let mut html = TaintedString::from("<div class=\"post\">");
                html.push_tainted(&body);
                html.push_str("</div>");
                emit_html(html, resp)
            }
            "/search" => {
                // The whole pattern is one bound value; a quote in `q` is
                // just a byte to match, not syntax.
                let mut pat = TaintedString::from("%");
                pat.push_tainted(&req.param_or_empty("q"));
                pat.push_str("%");
                let r = self
                    .db
                    .exec_prepared(&self.sel_search, vec![pat.into()])
                    .map_err(sql_flow_error)?;
                resp.echo_str(&format!("{} hits:", r.rows.len()))?;
                for i in 0..r.rows.len() {
                    let Some(body) = r.cell(i, "body").and_then(|c| c.as_text()) else {
                        continue;
                    };
                    let mut html = TaintedString::from("<div class=\"hit\">");
                    html.push_tainted(&html_escape(body));
                    html.push_str("</div>");
                    emit_html(html, resp)?;
                }
                Ok(())
            }
            "/redirect" => {
                // BUG (wired in): the target lands in a header verbatim;
                // the splitting guard is the only defense.
                let to = req.param_or_empty("to");
                resp.set_status(302);
                resp.set_header("Location", to)?;
                resp.echo_str("redirecting")
            }
            _ => {
                resp.set_status(404);
                resp.echo_str("no such route")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moinwiki::MoinWiki;
    use resin_core::{Acl, Right};
    use resin_web::serve_request;
    use std::sync::RwLock;

    /// The wiki, shared across workers behind one `RwLock`.
    ///
    /// Routes: `/login` (param `user`), `/view` + `/raw` (param `page`),
    /// `/edit` (params `page`, `body`, cookie `sid`). `/raw` is the wired-in
    /// ACL-bypass endpoint; the persistent `PagePolicy` blocks it.
    struct WikiApp {
        wiki: RwLock<MoinWiki>,
        sessions: Arc<SessionStore>,
    }

    impl WikiApp {
        /// Wraps a prepared wiki for serving.
        fn new(wiki: MoinWiki, sessions: Arc<SessionStore>) -> Self {
            WikiApp {
                wiki: RwLock::new(wiki),
                sessions,
            }
        }

        // A panicking request is answered 500 by the dispatcher and must not
        // wedge the wiki for everyone else; the VFS state is consistent at
        // every panic point (writes go file-at-a-time through the gates), so
        // the poison-recovering accessors apply.
        fn read(&self) -> std::sync::RwLockReadGuard<'_, MoinWiki> {
            resin_core::sync::rlock(&self.wiki)
        }

        fn write(&self) -> std::sync::RwLockWriteGuard<'_, MoinWiki> {
            resin_core::sync::wlock(&self.wiki)
        }
    }

    /// Maps VFS errors onto flow errors for the dispatcher's outcome slot.
    fn vfs_flow_error(e: resin_vfs::VfsError) -> FlowError {
        match e {
            resin_vfs::VfsError::Policy(flow) => flow,
            other => FlowError::runtime(other.to_string()),
        }
    }

    impl WebApp for WikiApp {
        fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
            match req.path() {
                "/login" => login_route(&self.sessions, req, resp),
                "/view" => {
                    let Some(user) = authenticate(&self.sessions, req, resp)? else {
                        return Ok(());
                    };
                    let page = req.param_or_empty("page");
                    self.read()
                        .view_page(page.as_str(), resp, &user)
                        .map_err(vfs_flow_error)
                }
                "/raw" => {
                    // BUG (wired in): no application ACL check; only the
                    // persistent PagePolicy stands.
                    let Some(user) = authenticate(&self.sessions, req, resp)? else {
                        return Ok(());
                    };
                    let page = req.param_or_empty("page");
                    self.read()
                        .view_page_raw(page.as_str(), resp, &user)
                        .map_err(vfs_flow_error)
                }
                "/edit" => {
                    let Some(user) = authenticate(&self.sessions, req, resp)? else {
                        return Ok(());
                    };
                    let page = req.param_or_empty("page");
                    let body = req.param_or_empty("body");
                    self.write()
                        .edit_page(page.as_str(), body.as_str(), &user)
                        .map_err(vfs_flow_error)?;
                    resp.echo_str("saved")
                }
                _ => {
                    resp.set_status(404);
                    resp.echo_str("no such route")
                }
            }
        }
    }

    fn forum_app() -> (ForumApp, Arc<SessionStore>) {
        let sessions = Arc::new(SessionStore::new());
        (ForumApp::new(Arc::clone(&sessions)), sessions)
    }

    fn login(app: &dyn WebApp, user: &str) -> String {
        let page = serve_request(app, &Request::post("/login").with_param("user", user));
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        page.body
    }

    #[test]
    fn forum_end_to_end_login_post_render() {
        let (app, sessions) = forum_app();
        let sid = login(&app, "alice");
        assert!(sid.starts_with("sid-"));
        assert_eq!(sessions.len(), 1);

        let page = serve_request(
            &app,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "hello concurrent world"),
        );
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        let id = page.body.strip_prefix("posted ").unwrap().to_string();

        let page = serve_request(&app, &Request::get("/view").with_param("id", &id));
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert!(page.body.contains("hello concurrent world"));
    }

    #[test]
    fn forum_post_requires_session() {
        let (app, _) = forum_app();
        let page = serve_request(
            &app,
            &Request::post("/post")
                .with_cookie("sid", "sid-totally-guessed")
                .with_param("body", "spam"),
        );
        assert_eq!(page.status, 403, "forged sids bounce");
    }

    #[test]
    fn stored_xss_fails_closed_through_dispatcher() {
        let (app, _) = forum_app();
        let sid = login(&app, "mallory");
        let page = serve_request(
            &app,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "<script>steal(document.cookie)</script>"),
        );
        let id = page.body.strip_prefix("posted ").unwrap().to_string();

        // The buggy raw endpoint: the XSS assertion blocks the render.
        let page = serve_request(&app, &Request::get("/view_raw").with_param("id", &id));
        assert!(page.blocked(), "XSS must fail closed: {:?}", page.outcome);
        assert!(!page.body.contains("<script>"));

        // The correct endpoint still shows the (escaped) post.
        let page = serve_request(&app, &Request::get("/view").with_param("id", &id));
        assert!(page.outcome.is_ok());
        assert!(page.body.contains("&lt;script&gt;"));
    }

    #[test]
    fn sql_injection_fails_closed_through_dispatcher() {
        let (app, _) = forum_app();
        let sid = login(&app, "alice");
        serve_request(
            &app,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "precious data"),
        )
        .outcome
        .unwrap();

        // Numeric-position injection never reaches query text: the id
        // fails to parse as a number and the lookup is a plain 404.
        let page = serve_request(&app, &Request::get("/view").with_param("id", "1 OR 1=1"));
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert_eq!(page.status, 404, "SQLi degrades to a missing post");
        assert!(!page.body.contains("precious"), "{}", page.body);

        // Literal-position injection is bound as data: matches nothing.
        let page = serve_request(
            &app,
            &Request::get("/search").with_param("q", "x' OR '1'='1"),
        );
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert!(page.body.starts_with("0 hits"), "{}", page.body);

        // Benign usage still works.
        let page = serve_request(&app, &Request::get("/search").with_param("q", "precious"));
        assert!(page.body.starts_with("1 hits"), "{}", page.body);
    }

    #[test]
    fn search_pattern_from_the_client_cannot_blow_up_the_scan() {
        // `q` becomes the LIKE pattern, `%`s and all. The recursive
        // matcher took ~n^5 steps on this one (7.5 s at n = 200): one
        // request was a denial of service. It must simply not match.
        let (app, _) = forum_app();
        let sid = login(&app, "alice");
        serve_request(
            &app,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "a".repeat(4096)),
        )
        .outcome
        .unwrap();
        let page = serve_request(
            &app,
            &Request::get("/search").with_param("q", "a%a%a%a%a%b"),
        );
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert_eq!(page.body, "0 hits:");
        let page = serve_request(
            &app,
            &Request::get("/search").with_param("q", "a%a%a%a%a%A"),
        );
        assert!(page.body.starts_with("1 hits:"), "{}", &page.body[..16]);
    }

    #[test]
    fn response_splitting_fails_closed_through_dispatcher() {
        let (app, _) = forum_app();
        for evil in [
            "/evil\r\n\r\n<script>x()</script>",
            "/evil\n\nHTTP/1.1 200 OK", // the LF-only bypass
            "/evil\r\n\npayload",
        ] {
            let page = serve_request(&app, &Request::get("/redirect").with_param("to", evil));
            assert!(
                page.blocked(),
                "splitting must fail closed for {evil:?}: {:?}",
                page.outcome
            );
            assert!(page.headers.is_empty(), "no header may be set");
        }
        // A benign target sets the header.
        let page = serve_request(&app, &Request::get("/redirect").with_param("to", "/home"));
        assert!(page.outcome.is_ok());
        assert_eq!(page.headers.len(), 1, "Location present");
        assert_eq!(page.headers[0].0, "Location");
    }

    #[test]
    fn concurrent_posts_and_views_keep_assertions() {
        // Hammer one shared app from many serving threads: benign and
        // hostile requests interleaved; every hostile one must be blocked,
        // every benign one served.
        let (app, _) = forum_app();
        let sid = login(&app, "alice");
        let evil_id = {
            let page = serve_request(
                &app,
                &Request::post("/post")
                    .with_cookie("sid", &sid)
                    .with_param("body", "<script>evil()</script>"),
            );
            page.body.strip_prefix("posted ").unwrap().to_string()
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let (app, sid, evil_id) = (&app, &sid, &evil_id);
                s.spawn(move || {
                    for i in t * 12..(t + 1) * 12 {
                        let req = match i % 4 {
                            0 => Request::post("/post")
                                .with_cookie("sid", sid)
                                .with_param("body", format!("benign post {i}")),
                            1 => Request::get("/view_raw").with_param("id", evil_id),
                            2 => Request::get("/view").with_param("id", "1 OR 1=1"),
                            _ => Request::get("/search").with_param("q", "benign"),
                        };
                        let page = serve_request(app, &req);
                        match i % 4 {
                            0 => assert!(page.outcome.is_ok(), "post: {:?}", page.outcome),
                            1 => assert!(page.blocked(), "raw view of script must block"),
                            2 => assert_eq!(page.status, 404, "numeric SQLi reads as no such post"),
                            _ => assert!(page.outcome.is_ok(), "search: {:?}", page.outcome),
                        }
                    }
                });
            }
        });
    }

    fn replica_dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base =
            std::env::temp_dir().join(format!("resin-forum-replica-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("primary"), base.join("replica"))
    }

    #[test]
    fn replica_serves_identical_reads_and_fails_closed() {
        let (primary_dir, replica_dir) = replica_dirs("attacks");
        let sessions = Arc::new(SessionStore::new());
        let primary = Arc::new(ForumApp::open(&primary_dir, Arc::clone(&sessions)).unwrap());
        primary.db().set_wal_sync(false);
        let sid = login(&*primary, "alice");
        let benign_id = serve_request(
            &*primary,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "hello from the primary"),
        )
        .body
        .strip_prefix("posted ")
        .unwrap()
        .to_string();
        let evil_id = serve_request(
            &*primary,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "<script>steal()</script>"),
        )
        .body
        .strip_prefix("posted ")
        .unwrap()
        .to_string();

        resin_sql::ship(&primary_dir, &replica_dir).unwrap();
        let replica =
            Arc::new(ForumApp::open_replica(&replica_dir, Arc::new(SessionStore::new())).unwrap());
        assert!(replica.is_replica() && !primary.is_replica());

        // Reads are byte-identical to the primary.
        let want = serve_request(
            &*primary,
            &Request::get("/view").with_param("id", &benign_id),
        );
        let got = serve_request(
            &*replica,
            &Request::get("/view").with_param("id", &benign_id),
        );
        assert!(got.outcome.is_ok(), "{:?}", got.outcome);
        assert_eq!(got.body, want.body);

        // The stored-XSS payload fails closed on the replica too: its
        // UntrustedData label rode the shipped WAL into the replayed row.
        let page = serve_request(
            &*replica,
            &Request::get("/view_raw").with_param("id", &evil_id),
        );
        assert!(page.blocked(), "replica must block XSS: {:?}", page.outcome);
        assert!(!page.body.contains("<script>"));

        // Writes are refused before authentication even runs.
        let rsid = login(&*replica, "bob");
        let page = serve_request(
            &*replica,
            &Request::post("/post")
                .with_cookie("sid", &rsid)
                .with_param("body", "divergent"),
        );
        assert_eq!(page.status, 403);
        assert!(page.body.contains("read-only replica"));

        // New primary writes become visible after ship + refresh.
        let new_id = serve_request(
            &*primary,
            &Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "second wave"),
        )
        .body
        .strip_prefix("posted ")
        .unwrap()
        .to_string();
        resin_sql::ship(&primary_dir, &replica_dir).unwrap();
        assert!(replica.replica_refresh().unwrap() >= 1);
        let page = serve_request(&*replica, &Request::get("/view").with_param("id", &new_id));
        assert!(page.body.contains("second wave"), "{}", page.body);
        assert!(replica.replica_applied_seq().unwrap() > 0);
        assert!(primary.store_stats().is_some());
    }

    #[test]
    fn a_recovered_utf8_post_renders_and_its_script_still_fails_closed() {
        // A bound post is logged as SQL text and recovered through the
        // lexer. Its bytes must come back as the same UTF-8, or the body
        // outgrows its spans and `/view_raw` cuts it off a character
        // boundary: a panic, served as a 500.
        let (dir, _) = replica_dirs("utf8-recovery");
        let body = format!("{}<script>steal()</script>", "é".repeat(30));
        let id = {
            let forum = ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap();
            forum.db().set_wal_sync(false);
            let sid = login(&forum, "mallory");
            let page = serve_request(
                &forum,
                &Request::post("/post")
                    .with_cookie("sid", &sid)
                    .with_param("body", &body),
            );
            page.body.strip_prefix("posted ").unwrap().to_string()
        };
        let forum = ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap();
        let page = serve_request(&forum, &Request::get("/view_raw").with_param("id", &id));
        assert!(page.blocked(), "{} {:?}", page.status, page.outcome);
        assert!(!page.body.contains("<script>"));
        let page = serve_request(&forum, &Request::get("/view").with_param("id", &id));
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert!(page.body.contains(&"é".repeat(30)), "{}", page.body);
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    fn wiki_app() -> WikiApp {
        let mut wiki = MoinWiki::new(true);
        wiki.create_page(
            "Public",
            Acl::new()
                .grant("*", &[Right::Read])
                .grant("alice", &[Right::Write]),
            "welcome all",
            "alice",
        );
        wiki.create_page(
            "Secret",
            Acl::new().grant("alice", &[Right::Read, Right::Write]),
            "the secret plans",
            "alice",
        );
        let sessions = Arc::new(SessionStore::new());
        WikiApp::new(wiki, sessions)
    }

    #[test]
    fn wiki_end_to_end_view_edit() {
        let app = wiki_app();
        let alice = login(&app, "alice");
        let page = serve_request(
            &app,
            &Request::get("/view")
                .with_cookie("sid", &alice)
                .with_param("page", "Secret"),
        );
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        assert!(page.body.contains("secret plans"));

        let page = serve_request(
            &app,
            &Request::post("/edit")
                .with_cookie("sid", &alice)
                .with_param("page", "Public")
                .with_param("body", "v2 by alice"),
        );
        assert!(page.outcome.is_ok(), "{:?}", page.outcome);

        let mallory = login(&app, "mallory");
        let page = serve_request(
            &app,
            &Request::get("/view")
                .with_cookie("sid", &mallory)
                .with_param("page", "Public"),
        );
        assert!(page.body.contains("v2 by alice"));
    }

    #[test]
    fn wiki_acl_bypass_fails_closed_through_dispatcher() {
        let app = wiki_app();
        let mallory = login(&app, "mallory");
        // The app's own check 403s the normal path...
        let page = serve_request(
            &app,
            &Request::get("/view")
                .with_cookie("sid", &mallory)
                .with_param("page", "Secret"),
        );
        assert_eq!(page.status, 403);
        // ...and the persistent PagePolicy blocks the raw endpoint.
        let page = serve_request(
            &app,
            &Request::get("/raw")
                .with_cookie("sid", &mallory)
                .with_param("page", "Secret"),
        );
        assert!(page.blocked(), "ACL bypass must fail closed");
        assert!(!page.body.contains("secret plans"));
        // Vandalism through the dispatcher hits the write-ACL filter.
        let page = serve_request(
            &app,
            &Request::post("/edit")
                .with_cookie("sid", &mallory)
                .with_param("page", "Secret")
                .with_param("body", "defaced"),
        );
        assert!(page.blocked(), "write ACL must fail closed");
    }

    #[test]
    fn wiki_concurrent_readers_and_editor() {
        let app = wiki_app();
        let alice = login(&app, "alice");
        let mallory = login(&app, "mallory");
        std::thread::scope(|s| {
            for t in 0..4 {
                let (app, alice, mallory) = (&app, &alice, &mallory);
                s.spawn(move || {
                    for i in t * 8..(t + 1) * 8 {
                        let req = match i % 3 {
                            0 => Request::get("/view")
                                .with_cookie("sid", alice)
                                .with_param("page", "Public"),
                            1 => Request::post("/edit")
                                .with_cookie("sid", alice)
                                .with_param("page", "Public")
                                .with_param("body", format!("rev {i}")),
                            _ => Request::get("/raw")
                                .with_cookie("sid", mallory)
                                .with_param("page", "Secret"),
                        };
                        let page = serve_request(app, &req);
                        match i % 3 {
                            0 | 1 => assert!(page.outcome.is_ok(), "{:?}", page.outcome),
                            _ => assert!(page.blocked(), "raw secret read must stay blocked"),
                        }
                    }
                });
            }
        });
    }
}
