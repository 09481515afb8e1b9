//! End-to-end: the attack suite over a **real TCP connection** against a
//! durable forum, asserting byte-off-the-socket requests fail closed
//! exactly as in-process dispatch does.
//!
//! The server is a [`NetServer`] fronting [`ForumApp::open`] on a
//! snapshot+WAL store with fsync on — the full stack of the paper's
//! deployment story: network parse boundary → taint → gates → durable
//! policy columns. Beside the attack suite: concurrent keep-alive traffic
//! with synced writes, and a read replica served over its own
//! socket.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use resin_apps::ForumApp;
use resin_core::UntrustedData;
use resin_net::{NetConfig, NetServer};
use resin_sql::Recovery;
use resin_web::{serve_request, Request, SessionStore, WebApp};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resin-net-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A keep-alive test client. The read buffer persists across
/// responses: with pipelined requests the server's replies arrive
/// back-to-back and one socket read can span several of them, so bytes
/// past the current response must seed the next parse.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        Client {
            stream: TcpStream::connect(addr).expect("connect"),
            buf: Vec::new(),
        }
    }

    fn send(&mut self, request: &str) {
        self.stream.write_all(request.as_bytes()).expect("write");
    }

    /// Consumes exactly one `Content-Length`-delimited response;
    /// returns `(status, body)`.
    fn read_response(&mut self) -> (u16, String) {
        let mut chunk = [0u8; 4096];
        loop {
            let text = String::from_utf8_lossy(&self.buf).into_owned();
            if let Some(head_end) = text.find("\r\n\r\n") {
                let cl = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                if self.buf.len() >= head_end + 4 + cl {
                    let status = text
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse::<u16>().ok())
                        .expect("status line");
                    let body = text[head_end + 4..head_end + 4 + cl].to_string();
                    self.buf.drain(..head_end + 4 + cl);
                    return (status, body);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("server closed mid-response; got {:?}", text),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    fn roundtrip(&mut self, request: &str) -> (u16, String) {
        self.send(request);
        self.read_response()
    }

    /// Logs `user` in; the response body is the session id.
    fn login(&mut self, user: &str) -> String {
        let (status, sid) = self.roundtrip(&post("/login", None, &format!("user={user}")));
        assert_eq!(status, 200, "login {user}: {sid}");
        sid
    }

    /// Stores one post; returns the id out of the `posted N` answer.
    fn post_body(&mut self, sid: &str, body: &str) -> i64 {
        let (status, answer) = self.roundtrip(&post("/post", Some(sid), &format!("body={body}")));
        assert_eq!(status, 200, "{answer}");
        answer
            .strip_prefix("posted ")
            .and_then(|id| id.parse().ok())
            .unwrap_or_else(|| panic!("unexpected /post answer {answer:?}"))
    }
}

fn get(path_query: &str, cookie: Option<&str>) -> String {
    match cookie {
        Some(c) => format!("GET {path_query} HTTP/1.1\r\nCookie: sid={c}\r\n\r\n"),
        None => format!("GET {path_query} HTTP/1.1\r\n\r\n"),
    }
}

fn post(path: &str, cookie: Option<&str>, body: &str) -> String {
    let cookie_line = cookie
        .map(|c| format!("Cookie: sid={c}\r\n"))
        .unwrap_or_default();
    format!(
        "POST {path} HTTP/1.1\r\n{cookie_line}Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// The in-process twin of one wire request: same route, params, cookie
/// — dispatched through [`serve_request`] directly. Returns
/// `(effective_status, blocked)` where `effective_status` folds the
/// blocked→403 mapping the wire applies, so the two paths compare
/// directly.
fn in_process(app: &dyn WebApp, req: Request) -> (u16, bool) {
    let page = serve_request(app, &req);
    let status = if page.blocked() && page.status < 400 {
        403
    } else {
        page.status
    };
    (status, page.blocked())
}

#[test]
fn attack_suite_over_tcp_matches_in_process_dispatch() {
    let dir = tmp_dir("attacks");
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum"));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&app) as Arc<dyn WebApp>,
        NetConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr());

    // Login over the wire; the response body is the session id.
    let sid = client.login("alice");
    assert!(!sid.is_empty());

    // A benign post (keep-alive request #2 on the same socket).
    client.post_body(&sid, "hello+forum");

    // Attack 1 — SQL injection through /search. The pattern is a bound
    // parameter: the quote is data, 200, zero rows dumped, same as
    // in-process.
    let sqli = "/search?q=%27%20OR%20%271%27%3D%271";
    let (tcp_status, tcp_body) = client.roundtrip(&get(sqli, None));
    let (ip_status, ip_blocked) = in_process(
        app.as_ref(),
        Request::get("/search").with_param("q", "' OR '1'='1"),
    );
    assert_eq!(tcp_status, ip_status, "SQLi status must match in-process");
    assert!(!ip_blocked);
    assert!(
        !tcp_body.contains("hello forum"),
        "sanitized query must not dump the table: {tcp_body}"
    );

    // Attack 2 — stored XSS. The payload is stored fine (the guard
    // sanitizes the INSERT but the body taint persists); /view escapes
    // and renders, /view_raw trips the marker assertion.
    let id = client
        .post_body(&sid, "%3Cscript%3Ealert(1)%3C%2Fscript%3E")
        .to_string();

    let (tcp_status, tcp_body) = client.roundtrip(&get(&format!("/view?id={id}"), None));
    let (ip_status, _) = in_process(app.as_ref(), Request::get("/view").with_param("id", &id));
    assert_eq!(tcp_status, 200);
    assert_eq!(tcp_status, ip_status);
    assert!(
        !tcp_body.contains("<script>"),
        "escaped render must not ship markup: {tcp_body}"
    );

    let (tcp_status, tcp_body) = client.roundtrip(&get(&format!("/view_raw?id={id}"), None));
    let (ip_status, ip_blocked) = in_process(
        app.as_ref(),
        Request::get("/view_raw").with_param("id", &id),
    );
    assert!(ip_blocked, "in-process XSS must be blocked");
    assert_eq!(tcp_status, 403, "wire XSS must fail closed: {tcp_body}");
    assert_eq!(tcp_status, ip_status);
    assert!(!tcp_body.contains("<script>"), "{tcp_body}");

    // Attack 3 — header splitting through /redirect. The smuggled
    // header block never reaches the wire: 403, no Location.
    let split = "/redirect?to=%2Fevil%0D%0A%0D%0A%3Chtml%3Eowned%3C%2Fhtml%3E";
    let (tcp_status, tcp_body) = client.roundtrip(&get(split, None));
    let (ip_status, ip_blocked) = in_process(
        app.as_ref(),
        Request::get("/redirect").with_param("to", "/evil\r\n\r\n<html>owned</html>"),
    );
    assert!(ip_blocked, "in-process splitting must be blocked");
    assert_eq!(tcp_status, 403, "{tcp_body}");
    assert_eq!(tcp_status, ip_status);
    assert!(!tcp_body.contains("owned"), "{tcp_body}");

    // A benign redirect passes both paths identically.
    let (tcp_status, _) = client.roundtrip(&get("/redirect?to=%2Fhome", None));
    let (ip_status, ip_blocked) = in_process(
        app.as_ref(),
        Request::get("/redirect").with_param("to", "/home"),
    );
    assert!(!ip_blocked);
    assert_eq!(tcp_status, 302);
    assert_eq!(tcp_status, ip_status);

    // The connection survived every blocked request: keep-alive serves
    // a normal page on the same socket.
    let (status, body) = client.roundtrip(&get("/view?id=1", None));
    assert_eq!(status, 200);
    assert!(body.contains("hello forum"), "{body}");

    drop(client);
    server.shutdown();
    assert!(server.served() >= 9);
    assert_eq!(server.rejected(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_keep_alive_requests_answered_in_order() {
    let dir = tmp_dir("pipeline");
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum"));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&app) as Arc<dyn WebApp>,
        NetConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr());

    // Three requests in one TCP segment; three responses in order.
    let batch = [
        get("/search?q=first", None),
        get("/search?q=second", None),
        get("/nope", None),
    ]
    .concat();
    client.send(&batch);
    let (s1, b1) = client.read_response();
    let (s2, b2) = client.read_response();
    let (s3, _) = client.read_response();
    assert_eq!((s1, s2, s3), (200, 200, 404));
    assert!(b1.contains("hits"), "{b1}");
    assert!(b2.contains("hits"), "{b2}");

    drop(client);
    server.shutdown();
    assert_eq!(server.served(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smuggling_shapes_rejected_at_the_durable_edge() {
    let dir = tmp_dir("smuggle");
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum"));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&app) as Arc<dyn WebApp>,
        NetConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    for (raw, label) in [
        (
            "POST /post HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nbody=owned!",
            "conflicting Content-Length",
        ),
        (
            "POST /post HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            "Transfer-Encoding",
        ),
        ("GET /view HTTP/1.1\nHost: x\n\n", "bare LF"),
    ] {
        let mut client = Client::connect(addr);
        let (status, body) = client.roundtrip(raw);
        assert_eq!(status, 400, "{label}: {body}");
        // The server closes after a parse rejection.
        let mut rest = Vec::new();
        let n = client.stream.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "{label}: connection must close after 400");
    }

    server.shutdown();
    assert_eq!(server.served(), 0, "no smuggled request may reach the app");
    assert_eq!(server.rejected(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn posts_over_tcp_survive_restart_and_torn_tail_is_surfaced() {
    let dir = tmp_dir("durable");

    // Generation 1: post over the wire, fsync on (the default).
    {
        let app =
            Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum"));
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&app) as Arc<dyn WebApp>,
            NetConfig::default(),
        )
        .expect("bind");
        let mut client = Client::connect(server.local_addr());
        let sid = client.login("alice");
        client.post_body(&sid, "%3Cscript%3Epersist()%3C%2Fscript%3E");
        drop(client);
        server.shutdown();
    }

    // Generation 2: clean reopen — the stored payload's taint came back
    // from disk, so the raw view is still blocked.
    {
        let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("reopen forum");
        assert_eq!(app.recovery(), Recovery::Clean, "clean shutdown");
        let (status, blocked) = in_process(&app, Request::get("/view_raw").with_param("id", "1"));
        assert!(blocked, "persisted taint must still block raw render");
        assert_eq!(status, 403);
    }

    // Generation 3: tear the WAL tail mid-record — the app open
    // surfaces it.
    let wal = resin_sql::segment::list_segments(&dir)
        .expect("list segments")
        .pop()
        .expect("wal exists")
        .1;
    let bytes = std::fs::read(&wal).expect("wal exists");
    assert!(bytes.len() > 7, "need a tail to tear");
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).expect("tear");
    {
        let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open torn forum");
        assert_eq!(
            app.recovery(),
            Recovery::TornTail,
            "torn tail must be observable at app startup"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request on a fresh connection.
fn once(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    Client::connect(addr).roundtrip(request)
}

#[test]
fn concurrent_keep_alive_reads_and_synced_writes_all_succeed_and_survive_reopen() {
    const CONNS: usize = 4;
    const REQUESTS: usize = 40;
    const WRITE_EVERY: usize = 4;

    let dir = tmp_dir("concurrent");
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open forum"));
    app.db().set_wal_sync(true);
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&app) as Arc<dyn WebApp>,
        NetConfig {
            workers: CONNS,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The post every reader views is acknowledged before any worker
    // starts, so no read can race the write that makes it visible.
    let mut seeder = Client::connect(addr);
    let sid = seeder.login("seeder");
    let seed = seeder.post_body(&sid, "seed+post");
    drop(seeder);

    // Each connection makes a fixed number of requests, every
    // `WRITE_EVERY`-th a write, and returns each acknowledged id with the
    // body it was given.
    let mut posted: BTreeMap<i64, String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|conn| {
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let sid = client.login(&format!("load{conn}"));
                    let view = get(&format!("/view?id={seed}"), None);
                    let mut acked = Vec::new();
                    for n in 1..=REQUESTS {
                        if n % WRITE_EVERY == 0 {
                            let body = format!("hello+from+load{conn}+req{n}");
                            acked.push((client.post_body(&sid, &body), body.replace('+', " ")));
                        } else {
                            let (status, body) = client.roundtrip(&view);
                            assert_eq!(status, 200, "conn {conn} request {n}: {body}");
                        }
                    }
                    acked
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(
        posted.len(),
        CONNS * REQUESTS / WRITE_EVERY,
        "ids are distinct"
    );
    posted.insert(seed, "seed post".to_string());

    server.shutdown();
    assert_eq!(server.served() as usize, 2 + CONNS * (1 + REQUESTS));
    assert_eq!(server.rejected(), 0);
    drop(server);
    drop(app);

    // Every acknowledged write is on disk, tainted as it arrived.
    let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("reopen forum");
    assert_eq!(app.recovery(), Recovery::Clean, "clean shutdown");
    for (id, want) in &posted {
        let page = serve_request(
            &app,
            &Request::get("/view").with_param("id", id.to_string()),
        );
        assert_eq!(page.status, 200, "post {id}: {}", page.body);
        assert!(
            page.body.contains(want.as_str()),
            "post {id}: {}",
            page.body
        );
        let row = app
            .db()
            .query_str(&format!("SELECT body FROM posts WHERE id = {id}"))
            .expect("select");
        let body = row.cell(0, "body").and_then(|c| c.as_text()).expect("body");
        assert_eq!(body.as_str(), want);
        assert!(
            body.all_bytes_have::<UntrustedData>(),
            "post {id} lost its request taint"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_over_tcp_serves_identical_reads_fails_closed_and_catches_up() {
    let dir = tmp_dir("primary");
    let replica_dir = tmp_dir("replica");
    // One session store for both: the replica refuses a write from a
    // logged-in user, not merely an anonymous one.
    let sessions = Arc::new(SessionStore::new());
    let primary = Arc::new(ForumApp::open(&dir, Arc::clone(&sessions)).expect("open forum"));
    let mut primary_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&primary) as Arc<dyn WebApp>,
        NetConfig::default(),
    )
    .expect("bind primary");
    let primary_addr = primary_server.local_addr();

    // A benign post to compare, and a stored-XSS payload for the replica
    // to fail closed on.
    let mut client = Client::connect(primary_addr);
    let sid = client.login("replicator");
    let benign = client.post_body(&sid, "replica+comparison+post");
    let evil = client.post_body(&sid, "%3Cscript%3Esteal()%3C/script%3E");

    resin_sql::ship(&dir, &replica_dir).expect("ship");
    let replica = Arc::new(ForumApp::open_replica(&replica_dir, sessions).expect("open replica"));
    let mut replica_server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&replica) as Arc<dyn WebApp>,
        NetConfig::default(),
    )
    .expect("bind replica");
    let replica_addr = replica_server.local_addr();

    // Reads are byte-identical to the primary's.
    let view = get(&format!("/view?id={benign}"), None);
    let want = once(primary_addr, &view);
    assert_eq!(want.0, 200, "{}", want.1);
    assert!(want.1.contains("replica comparison post"), "{}", want.1);
    assert_eq!(once(replica_addr, &view), want);

    // The stored script fails closed on the replica.
    let (status, body) = once(replica_addr, &get(&format!("/view_raw?id={evil}"), None));
    assert_ne!(status, 200, "{body}");
    assert!(!body.contains("<script>"), "{body}");

    // Writes are refused.
    let (status, body) = once(replica_addr, &post("/post", Some(&sid), "body=diverge"));
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("read-only"), "{body}");

    // A second ship catches the replica up.
    let late = client.post_body(&sid, "post+after+first+ship");
    resin_sql::ship(&dir, &replica_dir).expect("re-ship");
    let applied = replica.replica_refresh().expect("catch up");
    assert!(applied >= 1, "catch-up applied {applied} records");
    let (status, body) = once(replica_addr, &get(&format!("/view?id={late}"), None));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("after first ship"), "{body}");

    drop(client);
    replica_server.shutdown();
    primary_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn every_request_field_crosses_the_boundary_tainted() {
    // Taint-completeness at the *wire* level: parse a raw byte string
    // and check every field of the resulting Request carries the
    // untrusted label. (Unit tests in resin_net::http cover the same
    // through the builder; this exercises the public crate surface.)
    let head = resin_net::parse_head(
        b"POST /post?q=probe HTTP/1.1\r\nHost: evil.example\r\nCookie: sid=stolen; theme=dark\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 9\r\n\r\n",
    )
    .expect("head");
    let req = resin_net::build_request(&head, Some(b"body=punt"));

    assert!(req.raw_path().unwrap().all_bytes_have::<UntrustedData>());
    assert!(req.body().unwrap().all_bytes_have::<UntrustedData>());
    for (name, value) in req.headers() {
        assert!(
            value.all_bytes_have::<UntrustedData>(),
            "header {name} must be tainted"
        );
    }
    for (name, value) in req.params() {
        assert!(
            value.all_bytes_have::<UntrustedData>(),
            "param {name} must be tainted"
        );
    }
    for (name, value) in req.cookies() {
        assert!(
            value.all_bytes_have::<UntrustedData>(),
            "cookie {name} must be tainted"
        );
    }
    assert_eq!(req.headers().count(), 4);
    assert_eq!(req.cookies().count(), 2);
    assert_eq!(req.params().count(), 2);
}
