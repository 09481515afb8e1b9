//! The three TCP workloads: a durable `ForumApp` behind `NetServer` on
//! loopback, driven by keep-alive clients over generated request bytes.
//!
//! `forum_read`   uniform `GET /view?id=U` over 20 000 stored posts,
//! `forum_write`  authenticated `POST /post`, WAL on, fsync off,
//! `forum_search` `GET /search?q=T` — a full scan and a many-fragment page.

use std::collections::HashMap;
use std::io::{Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use resin_apps::ForumApp;
use resin_core::sync::mlock;
use resin_core::{FlowError, LabelTable, TaintedString, UntrustedData};
use resin_net::{build_request, parse_head, serve_connection, Limits, NetConfig, NetServer};
use resin_sql::Prepared;
use resin_web::{
    check_html_markers, html_escape, serve_request, Request, Response, SeededSource, ServedPage,
    SessionStore, WebApp,
};

use crate::check::{judge, judge_sampled, posted_id, Expect, Leak, Tally, Verdict};
use crate::client::{parse_response_head, run_pass, Conn, Pass, RequestStream};
use crate::gen::{
    body_text, escape_html, fnv1a, form_decode, form_encode, push_get, push_post, Rng, FNV_OFFSET,
};
use crate::host;
use crate::refop::{scale_of, RefOp, RUNS_PER_BLOCK};
use crate::report::WorkloadResult;
use crate::stats::{median, median_u64, Summary};
use crate::trace::{micro, span_overhead_ns, Tracer};
use crate::workload::{timed_setups, workdir, Config, Trial, Trials};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Search,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "forum_read",
            Kind::Write => "forum_write",
            Kind::Search => "forum_search",
        }
    }
}

/// Sizes frozen for `--seconds 10`. They are the benchmark: changing one
/// starts a new baseline.
struct Plan {
    /// Posts stored before the first request.
    posts: usize,
    /// Operations per trial.
    ops: usize,
    body_min: usize,
    body_max: usize,
}

fn plan(kind: Kind, cfg: &Config) -> Plan {
    match kind {
        // U is uniform: there is no row cache for a skewed key to hit.
        Kind::Read => Plan {
            posts: cfg.rows(20_000),
            ops: cfg.ops(32_000),
            body_min: 64,
            body_max: 4096,
        },
        Kind::Write => Plan {
            posts: 0,
            ops: cfg.ops(20_000),
            body_min: 64,
            body_max: 2048,
        },
        // 400 rows scanned per search; ≥ 1000 searches a trial so the p99
        // has its ten samples beyond.
        Kind::Search => Plan {
            posts: cfg.rows(400),
            ops: cfg.ops(1_000),
            body_min: 64,
            body_max: 4096,
        },
    }
}

/// One request in 64 is a canary that must fail closed.
const CANARY_EVERY: usize = 64;
/// Readings of the server's speed per trial.
const BLOCKS_PER_TRIAL: usize = 16;
const SEARCH_TERMS: usize = 8;
/// Each search term is planted in this share of the posts (~20 hits).
const TERM_SHARE_PERCENT: usize = 5;
const SCRIPT_POSTS: usize = 8;
const INJECTION_TERM: &str = "x' OR '1'='1";

/// Everything stored before the first request, made from the seed alone.
struct Content {
    /// Bodies of the posts seeded at set-up; post `i` gets id `i + 1`.
    posts: Vec<String>,
    /// Stored `<script>` posts for the `/view_raw` canary; ids follow.
    scripts: Vec<String>,
    terms: Vec<String>,
}

fn view_page(body: &str) -> String {
    format!("<div class=\"post\">{}</div>", escape_html(body))
}

/// The page `/search?q=term` must return over `bodies` in insertion order.
fn search_page<'a>(bodies: impl Iterator<Item = &'a String>, term: &str) -> String {
    let hits: Vec<&String> = bodies.filter(|b| b.contains(term)).collect();
    let mut page = format!("{} hits:", hits.len());
    for b in hits {
        page.push_str("<div class=\"hit\">");
        page.push_str(&escape_html(b));
        page.push_str("</div>");
    }
    page
}

fn content(kind: Kind, plan: &Plan, rng: &mut Rng) -> Content {
    // Terms carry digits; bodies never do, so a term matches only where
    // it was planted.
    let terms: Vec<String> = (0..SEARCH_TERMS)
        .map(|i| format!("q{i}z{:05}", rng.below(100_000)))
        .collect();
    let mut posts: Vec<String> = rng
        .stratified_sizes(plan.posts, plan.body_min, plan.body_max)
        .into_iter()
        .map(|len| body_text(rng, len))
        .collect();
    if kind == Kind::Search {
        // Each term goes into exactly TERM_SHARE_PERCENT of the posts, one
        // per stratum of the posts ordered by size: every term, under every
        // seed, hits the same number of posts of the same sizes.
        let mut by_size: Vec<usize> = (0..posts.len()).collect();
        by_size.sort_by_key(|&i| (posts[i].len(), i));
        let hits = (posts.len() * TERM_SHARE_PERCENT / 100).max(1);
        let stratum = (posts.len() / hits).max(1);
        for term in &terms {
            for h in 0..hits {
                let pick = h * stratum + rng.below(stratum as u64) as usize;
                let body = &mut posts[by_size[pick.min(by_size.len() - 1)]];
                let at = rng.below((body.len() - term.len()) as u64) as usize;
                body.replace_range(at..at + term.len(), term);
            }
        }
    }
    let scripts = (0..SCRIPT_POSTS)
        .map(|_| {
            format!(
                "{}<script>steal(document.cookie)</script>{}",
                body_text(rng, 40),
                body_text(rng, 40)
            )
        })
        .collect();
    Content {
        posts,
        scripts,
        terms,
    }
}

/// The request stream of a whole run: warm-up, then every trial.
struct Traffic {
    stream: RequestStream,
    /// `forum_write`: length and FNV of the body each request posted
    /// (`(0, _)` for canaries); the bytes themselves stay in the stream.
    posted: Vec<(u32, u64)>,
    /// `forum_search`: the expected page per term.
    term_pages: Vec<String>,
}

fn traffic(
    kind: Kind,
    plan: &Plan,
    total: usize,
    c: &Content,
    sid: &str,
    rng: &mut Rng,
) -> Traffic {
    let mut stream = RequestStream::default();
    let mut posted = Vec::new();
    let mut term_pages = Vec::new();
    match kind {
        Kind::Read => {
            let expects: Vec<Expect> = c
                .posts
                .iter()
                .enumerate()
                .map(|(i, b)| Expect::page(&view_page(b), i as u32))
                .collect();
            for i in 0..total {
                if i % CANARY_EVERY == CANARY_EVERY - 1 {
                    let id = c.posts.len() + 1 + rng.below(c.scripts.len() as u64) as usize;
                    stream.push(Expect::ScriptBlocked, |out| {
                        push_get(out, &format!("/view_raw?id={id}"), sid)
                    });
                } else {
                    let post = rng.below(c.posts.len() as u64) as usize;
                    stream.push(expects[post].clone(), |out| {
                        push_get(out, &format!("/view?id={}", post + 1), sid)
                    });
                }
            }
        }
        Kind::Write => {
            let forged = format!("sid-{:032x}", rng.next() as u128);
            // The same multiset of body sizes in every thousand requests.
            let sizes: Vec<usize> = (0..total.div_ceil(1000))
                .flat_map(|_| rng.stratified_sizes(1000, plan.body_min, plan.body_max))
                .collect();
            for (i, &size) in sizes.iter().enumerate().take(total) {
                let body = body_text(rng, size);
                let form = format!("body={}", form_encode(&body));
                if i % CANARY_EVERY == CANARY_EVERY - 1 {
                    stream.push(Expect::ForgedSid, |out| {
                        push_post(out, "/post", &forged, &form)
                    });
                    posted.push((0, 0));
                } else {
                    stream.push(Expect::Posted, |out| push_post(out, "/post", sid, &form));
                    posted.push((body.len() as u32, fnv1a(FNV_OFFSET, body.as_bytes())));
                }
            }
        }
        Kind::Search => {
            let stored = || c.posts.iter().chain(c.scripts.iter());
            term_pages = c.terms.iter().map(|t| search_page(stored(), t)).collect();
            let expects: Vec<Expect> = term_pages
                .iter()
                .enumerate()
                .map(|(i, p)| Expect::page(p, i as u32))
                .collect();
            for i in 0..total {
                if i % CANARY_EVERY == CANARY_EVERY - 1 {
                    stream.push(Expect::InjectionNoHits, |out| {
                        push_get(
                            out,
                            &format!("/search?q={}", form_encode(INJECTION_TERM)),
                            sid,
                        )
                    });
                } else {
                    let t = rng.below(c.terms.len() as u64) as usize;
                    stream.push(expects[t].clone(), |out| {
                        push_get(out, &format!("/search?q={}", c.terms[t]), sid)
                    });
                }
            }
        }
    }
    Traffic {
        stream,
        posted,
        term_pages,
    }
}

/// Splits generated request bytes into head and (possibly empty) body.
fn split_request(raw: &[u8]) -> (&[u8], Option<&[u8]>) {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("generated request has a head terminator")
        + 4;
    let body = &raw[end..];
    (&raw[..end], (!body.is_empty()).then_some(body))
}

/// The production path minus the socket: parse, taint, dispatch.
fn serve_raw(app: &dyn WebApp, raw: &[u8]) -> ServedPage {
    let (head, body) = split_request(raw);
    let head = parse_head(head).expect("generated head parses");
    serve_request(app, &build_request(&head, body))
}

/// What the server serves: the forum, plus one harness route that runs
/// the reference operation *on the server's worker thread* and times it
/// there. The host's speed moves independently per core, so the speed
/// that scales a block's times must be read where the block's work runs.
struct Served {
    forum: Arc<ForumApp>,
    refop: RefOp,
    ref_ns: Mutex<Vec<u64>>,
}

const REF_ROUTE: &str = "/__ref";

impl WebApp for Served {
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
        if req.path() == REF_ROUTE {
            let ns = self.refop.timed();
            mlock(&self.ref_ns).push(ns);
            return resp.echo_str("ref");
        }
        self.forum.handle(req, resp)
    }
}

impl Served {
    fn new(forum: Arc<ForumApp>) -> Arc<Served> {
        Arc::new(Served {
            forum,
            refop: RefOp::new(),
            ref_ns: Mutex::new(Vec::new()),
        })
    }

    /// The scale from the reference runs since the last call.
    fn take_scale(&self) -> f64 {
        scale_of(&mut std::mem::take(&mut *mlock(&self.ref_ns)))
    }
}

/// Everything made from the seed, before any set-up is timed: `setup_s`
/// is the program's time, not the generator's.
struct Inputs {
    content: Content,
    /// `POST /post` for every stored post, in id order.
    seeding: RequestStream,
    traffic: Traffic,
    /// `RUNS_PER_BLOCK` requests for the reference route.
    reference: RequestStream,
    /// The session id the seeded source will hand out at the first login.
    sid: String,
    warm: usize,
}

fn inputs(kind: Kind, cfg: &Config, plan: &Plan) -> Inputs {
    let mut rng = Rng::new(cfg.seed ^ 0x666f_7275_6d00 ^ kind as u64);
    let content = content(kind, plan, &mut rng);
    let sid = SessionStore::with_source(Box::new(SeededSource::new(cfg.seed))).login("bench");
    let mut seeding = RequestStream::default();
    for body in content.posts.iter().chain(content.scripts.iter()) {
        let form = format!("body={}", form_encode(body));
        seeding.push(Expect::Posted, |out| push_post(out, "/post", &sid, &form));
    }
    let warm = plan.ops / 10;
    let total = warm + plan.ops * cfg.trials();
    let traffic = traffic(kind, plan, total, &content, &sid, &mut rng);
    let mut reference = RequestStream::default();
    for _ in 0..RUNS_PER_BLOCK {
        reference.push(Expect::page("ref", 0), |out| push_get(out, REF_ROUTE, &sid));
    }
    Inputs {
        content,
        seeding,
        traffic,
        reference,
        sid,
        warm,
    }
}

/// A served forum and everything needed to drive and check it.
struct Live<'a> {
    dir: PathBuf,
    sessions: Arc<SessionStore>,
    app: Arc<ForumApp>,
    /// Declared before `serving`: fields drop in this order, and a worker
    /// only leaves its connection when the client's end closes.
    conns: Vec<Conn>,
    /// `None` once `forum_write` has re-opened the forum: nothing is served
    /// over TCP after that.
    serving: Option<(NetServer, Arc<Served>)>,
    inputs: &'a Inputs,
}

/// Rebuilds the page an `Expect::Page` stands for, for the sampled full
/// comparison.
fn full_body(kind: Kind, inputs: &Inputs) -> impl Fn(u32) -> String + Sync + '_ {
    move |source| match kind {
        Kind::Search => inputs.traffic.term_pages[source as usize].clone(),
        _ => view_page(&inputs.content.posts[source as usize]),
    }
}

impl Live<'_> {
    /// Drives `range` of the run's traffic over the connections.
    fn pass(&mut self, kind: Kind, range: std::ops::Range<usize>) -> Result<Pass, Leak> {
        let stream = &self.inputs.traffic.stream;
        run_pass(
            &mut self.conns,
            stream,
            range,
            &full_body(kind, self.inputs),
        )
    }

    /// Has the server's worker run the reference operation, and returns
    /// the scale for the block that follows.
    fn server_scale(&mut self) -> Result<f64, Leak> {
        let reference = &self.inputs.reference;
        run_pass(&mut self.conns, reference, 0..reference.len(), &|_| {
            "ref".to_string()
        })?;
        let (_, served) = self.serving.as_ref().expect("trials run while serving");
        Ok(served.take_scale())
    }

    /// One trial (or the warm-up): `range` in blocks, each behind a reading
    /// of the server's speed.
    fn trial(
        &mut self,
        kind: Kind,
        range: std::ops::Range<usize>,
        acks: &mut Vec<(u32, i64)>,
    ) -> Result<Trial, Leak> {
        let block = (range.len() / BLOCKS_PER_TRIAL).max(1);
        let mut trial = Trial::default();
        for start in range.clone().step_by(block) {
            let scale = self.server_scale()?;
            let pass = self.pass(kind, start..(start + block).min(range.end))?;
            trial.block(
                scale,
                &pass.latencies_ns,
                pass.wall_ns,
                pass.server_cpu_ns,
                pass.tally,
            );
            acks.extend(pass.acks);
        }
        Ok(trial)
    }

    fn teardown(mut self) {
        self.conns.clear();
        drop(self.serving.take());
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn open_forum(dir: &Path, sessions: &Arc<SessionStore>) -> Arc<ForumApp> {
    let app = ForumApp::open(dir, Arc::clone(sessions)).expect("open durable forum");
    // fsync off for timing: on this sandbox fsync time swings by 2x between
    // back-to-back runs of identical code and would bury every CPU-side
    // change. Durable-commit cost stays visible as exact counts.
    app.db().set_wal_sync(false);
    Arc::new(app)
}

/// Open → login → store posts → bind → connect → warm up: all of
/// `setup_s`.
fn setup<'a>(kind: Kind, inputs: &'a Inputs, seed: u64, rep: usize) -> Result<Live<'a>, Leak> {
    let dir = workdir().join(format!("data-{}-{}-{rep}", kind.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let sessions = Arc::new(SessionStore::with_source(Box::new(SeededSource::new(seed))));
    let app = open_forum(&dir, &sessions);

    let mut login = Vec::new();
    push_post(&mut login, "/login", "none", "user=bench");
    let sid = serve_raw(app.as_ref(), &login).body;
    assert_eq!(sid, inputs.sid, "the seeded session source must repeat");

    // Posts go in through build_request → serve_request, so what is stored
    // carries the production `http_param` labels.
    for i in 0..inputs.seeding.len() {
        let page = serve_raw(app.as_ref(), inputs.seeding.bytes(i));
        assert_eq!(page.body, format!("posted {}", i + 1), "seeding post {i}");
    }

    let clients = host::clients();
    let served = Served::new(app.clone());
    let server = NetServer::bind(
        "127.0.0.1:0",
        served.clone(),
        NetConfig {
            workers: clients,
            // Checkpoints and bookkeeping sit between trials; the
            // connections must outlive them.
            keep_alive: Duration::from_secs(120),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let conns: Vec<Conn> = (0..clients)
        .map(|_| Conn::connect(server.local_addr()).expect("connect to own server"))
        .collect();
    let mut live = Live {
        dir,
        sessions,
        app,
        conns,
        serving: Some((server, served)),
        inputs,
    };
    live.trial(kind, 0..inputs.warm, &mut Vec::new())?;
    Ok(live)
}

/// Bytes on disk in WAL segments and checkpoint parts.
fn stored_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    (name.starts_with("wal.") && name != "wal.lock") || name.starts_with("part.")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What `forum_write` learns between and after its trials.
#[derive(Default)]
struct WriteFacts {
    checkpoint_ms: Vec<f64>,
    segments: f64,
    wal_bytes_per_user_byte: f64,
    stored_bytes_per_user_byte: f64,
    recover_ms: f64,
}

/// The body a generated `POST /post` carried, decoded by the harness.
fn posted_body(raw: &[u8]) -> String {
    let (_, body) = split_request(raw);
    let form = body
        .and_then(|b| b.strip_prefix(b"body="))
        .unwrap_or_default();
    form_decode(form)
}

/// Checks every acknowledged post of the re-opened forum: the body byte
/// for byte (length and FNV on all, the decoded request bytes on 1 in
/// 100), an `UntrustedData` label on all of it, and — for 1 in 64 — that
/// `/view_raw` is still refused.
fn verify_reopened(
    app: &ForumApp,
    traffic: &Traffic,
    acks: &[(u32, i64)],
    tally: &mut Tally,
) -> Result<(), Leak> {
    let by_id: HashMap<i64, u32> = acks.iter().map(|&(req, id)| (id, req)).collect();
    let mut seen = 0usize;
    let max_id = acks.iter().map(|&(_, id)| id).max().unwrap_or(0);
    // In id ranges, so the check never holds a second copy of the table.
    const CHUNK: i64 = 8192;
    let mut from = 1;
    while from <= max_id {
        let rows = app
            .db()
            .query_str(&format!(
                "SELECT id, body FROM posts WHERE id >= {from} AND id < {}",
                from + CHUNK
            ))
            .expect("read re-opened posts");
        for row in &rows.rows {
            let (Some(id), Some(got)) = (row[0].as_int(), row[1].as_text()) else {
                continue;
            };
            let Some(&req) = by_id.get(id.value()) else {
                continue;
            };
            seen += 1;
            let (len, fnv) = traffic.posted[req as usize];
            let same = got.len() == len as usize
                && fnv1a(FNV_OFFSET, got.as_str().as_bytes()) == fnv
                && (!seen.is_multiple_of(100)
                    || posted_body(traffic.stream.bytes(req as usize)) == got.as_str());
            let verdict = if !same {
                Verdict::Wrong
            } else if got.all_bytes_have::<UntrustedData>() {
                Verdict::Ok
            } else {
                Verdict::Leak("a post lost its label across the re-open")
            };
            tally.record(verdict)?;
            if seen.is_multiple_of(CANARY_EVERY) {
                let raw = Request::get("/view_raw").with_param("id", &id.value().to_string());
                let page = serve_request(app, &raw);
                let status = if page.blocked() { 403 } else { page.status };
                tally.record(judge(&Expect::ScriptBlocked, status, page.body.as_bytes()))?;
            }
        }
        from += CHUNK;
    }
    // An acknowledged post the re-opened forum does not have is a failure.
    for _ in seen..acks.len() {
        tally.record(Verdict::Wrong)?;
    }
    Ok(())
}

pub fn run(kind: Kind, cfg: &Config) -> Result<WorkloadResult, Leak> {
    let plan = plan(kind, cfg);
    let generated = Instant::now();
    let inputs = inputs(kind, cfg, &plan);
    let generate_s = generated.elapsed().as_secs_f64();
    let traffic = &inputs.traffic;

    let (mut live, setup_s) = timed_setups(
        cfg,
        |rep| setup(kind, &inputs, cfg.seed, rep),
        Live::teardown,
    )?;

    let mut trials = Trials::default();
    let mut acks: Vec<(u32, i64)> = Vec::new();
    let mut facts = WriteFacts::default();
    let user_bytes =
        |range: std::ops::Range<usize>| -> u64 { range.map(|i| traffic.posted[i].0 as u64).sum() };
    for t in 0..cfg.trials() {
        let range = inputs.warm + t * plan.ops..inputs.warm + (t + 1) * plan.ops;
        trials.push(live.trial(kind, range, &mut acks)?);
        if kind == Kind::Write && t + 1 < cfg.trials() {
            let c = Instant::now();
            live.app.checkpoint().expect("checkpoint between trials");
            facts.checkpoint_ms.push(c.elapsed().as_secs_f64() * 1e3);
        }
    }

    let hash = traffic.stream.hash();
    // What one request costs the server end to end, as the clock read it:
    // with two requests in flight the server is never idle, so that is the
    // inverse of the rate per connection, taken back from the reference
    // speed to this host's.
    let e2e_service_ns = host::clients() as f64 * 1e9 / median(&trials.ops_per_s).max(1.0)
        * median(&trials.speed_ratio);
    let growth = trials.label_growth_per_kop(plan.ops);
    let mut verified = Tally::default();

    if kind == Kind::Write {
        let stats = live.app.store_stats().expect("durable forum has a store");
        facts.segments = stats.segments as f64;
        // After the last checkpoint only the last trial's posts are in the
        // WAL: its bytes over theirs is the WAL's expansion factor.
        let end = inputs.warm + cfg.trials() * plan.ops;
        let wal_from = if cfg.trials() > 1 { end - plan.ops } else { 0 };
        facts.wal_bytes_per_user_byte =
            stats.live_wal_bytes as f64 / user_bytes(wal_from..end).max(1) as f64;
        // Every post of the run, warm-up included, is on disk.
        facts.stored_bytes_per_user_byte =
            stored_bytes(&live.dir) as f64 / user_bytes(0..end).max(1) as f64;

        // Drop the served app and recover from disk alone. The store's
        // directory lock admits one opener, so the old app goes first.
        live.conns.clear();
        drop(live.serving.take());
        let Live {
            dir, sessions, app, ..
        } = live;
        drop(app);
        let t = Instant::now();
        let app = open_forum(&dir, &sessions);
        facts.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        verify_reopened(&app, traffic, &acks, &mut verified)?;
        live = Live {
            dir,
            sessions,
            app,
            conns: Vec::new(),
            serving: None,
            inputs: &inputs,
        };
    }

    let mut result = trials.into_result(kind.name(), hash, plan.ops, &setup_s);
    result.tally.add(verified);
    if let Some(fail) = result.metrics.iter_mut().find(|(n, _)| *n == "fail_ratio") {
        fail.1 = Summary::single(result.tally.fail_ratio());
    }
    result.notes.push(format!(
        "inputs generated in {generate_s:.2} s, before set-up is timed"
    ));
    if kind == Kind::Write {
        result.metrics.push((
            "stored_bytes_per_user_byte",
            Summary::single(facts.stored_bytes_per_user_byte),
        ));
        result.notes.push(format!(
            "fsync off for timing; re-open verified {} acknowledged posts; checkpoints between trials {:?} ms; recover {:.1} ms",
            acks.len(),
            facts.checkpoint_ms.iter().map(|v| v.round()).collect::<Vec<_>>(),
            facts.recover_ms
        ));
    }

    if cfg.trace {
        let layers = trace(
            kind,
            cfg,
            &live,
            &facts,
            e2e_service_ns,
            growth,
            &mut result.tally,
        )?;
        result.layers.extend(layers);
    }
    live.teardown();
    Ok(result)
}

// ---- the traced replay ----

/// Reads from a request, collects the response.
struct Duplex<'a> {
    input: Cursor<&'a [u8]>,
    output: Vec<u8>,
}

impl Read for Duplex<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Status and body of a serialized HTTP response.
fn split_response(raw: &[u8]) -> (u16, &[u8]) {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    let status = parse_response_head(&raw[..end]).map_or(0, |(status, _)| status);
    (status, &raw[end..])
}

/// The harness's own prepared twins of the forum's three templates.
struct Twins {
    ins_post: Prepared,
    sel_body: Prepared,
    sel_search: Prepared,
}

/// Stage spans that make up `serve_request`'s work (everything the mirror
/// records except the net stages).
fn is_web_stage(name: &str) -> bool {
    !name.starts_with("net.")
}

/// Walks one request through the public functions the handler uses,
/// recording a span per call. Returns `(status, body)` as the handler
/// would produce them.
fn mirror(
    kind: Kind,
    t: &mut Tracer,
    live: &Live<'_>,
    twins: &Twins,
    raw: &[u8],
    mirror_id: i64,
) -> (u16, String) {
    let db = live.app.db();
    let (head_bytes, body_bytes) = split_request(raw);
    let head = t
        .stage("net.parse_head", head_bytes.len(), || {
            parse_head(head_bytes)
        })
        .expect("generated head parses");
    t.stage("net.body_length", 0, || head.body_length())
        .expect("generated head has a sane length");
    let req = t.stage("net.build_request", raw.len(), || {
        build_request(&head, body_bytes)
    });

    let mut resp;
    match kind {
        Kind::Read => {
            let id = t.stage("web.param", 0, || req.param_or_empty("id"));
            let body = t.stage("sql.point", 0, || {
                let id = id.to_int().ok()?;
                let r = db
                    .exec_prepared(&twins.sel_body, vec![id.into()])
                    .expect("point query");
                r.cell(0, "body")
                    .and_then(|c| c.as_text())
                    .map(|b| b.to_owned())
            });
            resp = t.stage("web.response_new", 0, Response::new);
            let body = body.expect("generated ids exist");
            let escaped = t.stage("web.html_escape", body.len(), || html_escape(&body));
            let html = t.stage("core.concat", escaped.len(), || {
                let mut html = TaintedString::from("<div class=\"post\">");
                html.push_tainted(&escaped);
                html.push_str("</div>");
                html
            });
            t.stage("web.check_markers", html.len(), || {
                check_html_markers(&html)
            })
            .expect("escaped page passes the marker check");
            let len = html.len();
            t.stage("web.echo", len, || resp.echo(html))
                .expect("page crosses the gate");
        }
        Kind::Write => {
            let user = t.stage("web.session_lookup", 0, || {
                req.cookie("sid")
                    .and_then(|sid| live.sessions.user_for(sid))
            });
            resp = t.stage("web.response_new", 0, Response::new);
            let user = user.expect("generated sid is logged in");
            resp.gate_mut().context_mut().set_str("user", user.as_str());
            let body = t.stage("web.param", 0, || req.param_or_empty("body"));
            let len = body.len();
            t.stage("sql.insert", len, || {
                db.exec_prepared(&twins.ins_post, vec![mirror_id.into(), body.into()])
            })
            .expect("insert");
            t.stage("web.echo", 0, || {
                resp.echo_str(&format!("posted {mirror_id}"))
            })
            .expect("acknowledgement crosses the gate");
        }
        Kind::Search => {
            let q = t.stage("web.param", 0, || req.param_or_empty("q"));
            let pat = t.stage("core.concat", q.len(), || {
                let mut pat = TaintedString::from("%");
                pat.push_tainted(&q);
                pat.push_str("%");
                pat
            });
            let r = t
                .stage("sql.scan", 0, || {
                    db.exec_prepared(&twins.sel_search, vec![pat.into()])
                })
                .expect("scan");
            resp = t.stage("web.response_new", 0, Response::new);
            t.stage("web.echo", 0, || {
                resp.echo_str(&format!("{} hits:", r.rows.len()))
            })
            .expect("count crosses the gate");
            for i in 0..r.rows.len() {
                let Some(body) = r.cell(i, "body").and_then(|c| c.as_text()) else {
                    continue;
                };
                let escaped = t.stage("web.html_escape", body.len(), || html_escape(body));
                let html = t.stage("core.concat", escaped.len(), || {
                    let mut html = TaintedString::from("<div class=\"hit\">");
                    html.push_tainted(&escaped);
                    html.push_str("</div>");
                    html
                });
                t.stage("web.check_markers", html.len(), || {
                    check_html_markers(&html)
                })
                .expect("escaped hit passes the marker check");
                let len = html.len();
                t.stage("web.echo", len, || resp.echo(html))
                    .expect("hit crosses the gate");
            }
        }
    }
    let body = t.stage("web.body", 0, || resp.body());
    (resp.status(), body)
}

/// Layer functions timed on the workload's own stored data.
pub fn core_micro(samples: &[TaintedString]) -> Vec<(&'static str, f64)> {
    use resin_core::{deserialize_spans, serialize_spans, Gate, GateKind};
    let kib: f64 = samples.iter().map(|s| s.len() as f64).sum::<f64>() / 1024.0;
    let n = samples.len().max(1) as f64;
    let concat = micro(|| {
        let mut page = TaintedString::from("<div>");
        for s in samples {
            page.push_tainted(s);
        }
        page
    });
    let mut gate = Gate::new(GateKind::Http);
    let gate_write = micro(|| {
        for s in samples {
            let _ = gate.write(s.clone());
        }
        gate.clear_output();
    });
    let labels: Vec<_> = samples.iter().map(|s| s.label()).collect();
    let union = micro(|| {
        let mut acc = labels[0];
        for l in &labels {
            acc = acc.union(*l);
        }
        acc
    });
    let serialize = micro(|| {
        samples
            .iter()
            .map(|s| serialize_spans(s).len())
            .sum::<usize>()
    });
    let serialized: Vec<String> = samples.iter().map(serialize_spans).collect();
    let deserialize = micro(|| {
        samples
            .iter()
            .zip(&serialized)
            .map(|(s, spans)| deserialize_spans(s.as_str(), spans).map_or(0, |t| t.len()))
            .sum::<usize>()
    });
    vec![
        ("core.concat_ns_per_kb", concat / kib.max(1e-9)),
        ("core.gate_write_ns_per_kb", gate_write / kib.max(1e-9)),
        ("core.label_union_ns", union / n),
        ("core.serialize_spans_ns", serialize / n),
        ("core.deserialize_spans_ns", deserialize / n),
    ]
}

fn trace(
    kind: Kind,
    cfg: &Config,
    live: &Live<'_>,
    facts: &WriteFacts,
    e2e_service_ns: f64,
    label_growth: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, Leak> {
    let app: &ForumApp = live.app.as_ref();
    let db = app.db();
    let twins = Twins {
        ins_post: db
            .prepare("INSERT INTO posts VALUES (?, ?)")
            .expect("insert twin"),
        sel_body: db
            .prepare("SELECT body FROM posts WHERE id = ?")
            .expect("view twin"),
        sel_search: db
            .prepare("SELECT body FROM posts WHERE body LIKE ?")
            .expect("search twin"),
    };
    let stream = &live.inputs.traffic.stream;
    // Half a trial at most: a search costs milliseconds, and the replay
    // makes three passes.
    let plan = plan(kind, cfg);
    let n = cfg.traced_requests().min(plan.ops / 2).min(stream.len());
    let full_body = full_body(kind, live.inputs);
    let rows_scanned = live.inputs.seeding.len() as f64;

    // Reads first go through once untimed, so that the three passes below
    // all find the rows they touch equally warm; otherwise whichever pass
    // runs first pays the cache misses for the others.
    if kind != Kind::Write {
        for i in 0..n {
            serve_raw(app, stream.bytes(i));
        }
    }

    // Each request goes three ways: through the mirror (traced), through
    // serve_request, and through serve_connection over an in-memory duplex
    // (both untraced). The three run back to back, because the host's
    // speed drifts by tens of percent within seconds and sums taken minutes
    // apart do not compare; and they take turns going first, so none of
    // them always pays the cache misses for the other two. Canaries skip
    // the mirror.
    let mut tracer = Tracer::new();
    let mut serve_ns = Vec::with_capacity(n);
    let mut conn_ns = Vec::with_capacity(n);
    let (mut serve_total_mirrored, mut conn_total_mirrored) = (0u64, 0u64);
    let mut mirrored_count = 0usize;
    for i in 0..n {
        let raw = stream.bytes(i);
        let expect = stream.expect(i);
        let mirrors = matches!(expect, Expect::Page { .. } | Expect::Posted);
        let mut mirror_out = None;
        let mut page = None;
        for turn in 0..3 {
            match (turn + i) % 3 {
                0 if mirrors => {
                    tracer.begin_request(i as u32);
                    // The mirror's own ids sit far above any the app hands out.
                    let id = (1 << 40) + i as i64;
                    mirror_out = Some(mirror(kind, &mut tracer, live, &twins, raw, id));
                    tracer.end_request();
                }
                0 => {}
                1 => {
                    let (head, body) = split_request(raw);
                    let req =
                        build_request(&parse_head(head).expect("generated head parses"), body);
                    let t = Instant::now();
                    let served = serve_request(app, &req);
                    let ns = t.elapsed().as_nanos() as u64;
                    serve_ns.push(ns);
                    if mirrors {
                        serve_total_mirrored += ns;
                    }
                    let status = if served.blocked() && served.status < 400 {
                        403
                    } else {
                        served.status
                    };
                    tally.record(judge(expect, status, served.body.as_bytes()))?;
                    page = Some(served);
                }
                _ => {
                    let mut duplex = Duplex {
                        input: Cursor::new(raw),
                        output: Vec::with_capacity(8 * 1024),
                    };
                    let t = Instant::now();
                    serve_connection(&mut duplex, app, Limits::default())
                        .expect("duplex never fails");
                    let ns = t.elapsed().as_nanos() as u64;
                    conn_ns.push(ns);
                    if mirrors {
                        conn_total_mirrored += ns;
                    }
                    let (status, body) = split_response(&duplex.output);
                    tally.record(judge_sampled(i, expect, status, body, &full_body))?;
                }
            }
        }
        if let (Some((m_status, m_body)), Some(page)) = (mirror_out, page) {
            mirrored_count += 1;
            let same = match (
                posted_id(m_body.as_bytes()),
                posted_id(page.body.as_bytes()),
            ) {
                // Ids differ by construction; the acknowledgement's shape must not.
                (Some(_), Some(_)) => m_status == page.status,
                _ => m_status == page.status && m_body == page.body,
            };
            assert!(
                same,
                "request {i}: the mirror's output differs from serve_request's: the mirror has drifted from the handler"
            );
        }
    }

    let stage_total = tracer.children_ns(is_web_stage);
    let web_stage_spans = tracer
        .spans()
        .iter()
        .filter(|s| s.parent >= 0 && is_web_stage(s.name))
        .count() as f64;
    let coverage = stage_total as f64 / serve_total_mirrored.max(1) as f64;
    let request_total = tracer.total_ns(crate::trace::REQUEST);
    let mirrored_count = mirrored_count.max(1) as f64;
    let serve_median = median_u64(&mut serve_ns) as f64;
    let conn_median = median_u64(&mut conn_ns) as f64;

    tracer.save(kind.name());
    assert!(
        (0.85..=1.15).contains(&coverage),
        "trace.coverage_ratio {coverage:.3} outside 0.85..1.15: the mirror has drifted from the handler"
    );

    // Layer functions on this workload's own stored rows.
    let sample_rows = db
        .query_str("SELECT body FROM posts WHERE id <= 64")
        .expect("sample stored posts");
    let mut samples: Vec<TaintedString> = sample_rows
        .rows
        .iter()
        .filter_map(|r| r[0].as_text().cloned())
        .collect();
    if samples.is_empty() {
        samples.push(TaintedString::from("empty forum"));
    }

    let mut layers = vec![
        ("net.parse_head_ns", tracer.median_ns("net.parse_head")),
        (
            "net.build_request_ns",
            tracer.median_ns("net.build_request"),
        ),
        ("net.conn_ns", conn_median),
        ("net.self_ns", conn_median - serve_median),
        // The kernel's share of a request, sockets and loopback: what the
        // server spends per request over TCP beyond what it spends on an
        // in-memory stream. No change to this repository can move it.
        ("net.tcp_ns", e2e_service_ns - conn_median),
        ("web.serve_request_ns", serve_median),
        (
            "web.html_escape_ns_per_kb",
            tracer.ns_per_kb("web.html_escape"),
        ),
        (
            "web.check_markers_ns_per_kb",
            tracer.ns_per_kb("web.check_markers"),
        ),
        ("web.echo_ns", tracer.median_ns("web.echo")),
        ("web.body_ns", tracer.median_ns("web.body")),
        (
            "web.session_lookup_ns",
            tracer.median_ns("web.session_lookup"),
        ),
        ("sql.point_ns", tracer.median_ns("sql.point")),
        ("sql.insert_ns", tracer.median_ns("sql.insert")),
        (
            "sql.scan_ns_per_row",
            tracer.median_ns("sql.scan") / rows_scanned.max(1.0),
        ),
        ("core.label_growth_per_kop", label_growth),
        (
            "core.union_cache_entries",
            LabelTable::global().stats().union_cache as f64,
        ),
        // Glue that belongs to no layer: serve_request minus its child
        // spans, net of what recording those spans cost.
        (
            "apps.handler_self_ns",
            (serve_total_mirrored as f64 - stage_total as f64
                + web_stage_spans * span_overhead_ns())
                / mirrored_count,
        ),
        ("trace.coverage_ratio", coverage),
        (
            "trace.overhead_ratio",
            request_total as f64 / conn_total_mirrored.max(1) as f64,
        ),
        ("trace.requests", n as f64),
        ("trace.spans", tracer.spans().len() as f64),
    ];
    layers.extend(core_micro(&samples));
    if kind == Kind::Write {
        layers.extend(store_layers(cfg, live, facts, serve_median));
    }
    Ok(layers)
}

/// `forum_write` only: the store's share, as exact counts where it can be.
fn store_layers(
    cfg: &Config,
    live: &Live<'_>,
    facts: &WriteFacts,
    sync_off_request_ns: f64,
) -> Vec<(&'static str, f64)> {
    // store.append_ns: the harness's own store, payloads the size of the
    // workload's bodies, fsync off.
    let dir = workdir().join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = resin_store::Store::open(&dir).expect("open scratch store");
    store.set_sync(false);
    let stream = &live.inputs.traffic.stream;
    let payloads: Vec<String> = (0..stream.len())
        .filter(|&i| *stream.expect(i) == Expect::Posted)
        .take(256)
        .map(|i| posted_body(stream.bytes(i)))
        .collect();
    let mut next = 0usize;
    let append_ns = micro(|| {
        next = (next + 1) % payloads.len();
        store.append(payloads[next].as_bytes()).expect("append")
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // A sync-on segment on the forum itself: fsyncs per write is an exact
    // count; the time is this sandbox's disk and only informational.
    let writes = if cfg.quick { 50 } else { 1000 };
    let db = live.app.db();
    db.set_wal_sync(true);
    let syncs_before = db.wal_sync_count();
    let mut sync_on_ns = Vec::with_capacity(writes);
    let start = live.inputs.warm.min(stream.len());
    let posts = (start..stream.len())
        .filter(|&i| *stream.expect(i) == Expect::Posted)
        .take(writes);
    for i in posts {
        let (head, body) = split_request(stream.bytes(i));
        let req = build_request(&parse_head(head).expect("generated head parses"), body);
        let t = Instant::now();
        let page = serve_request(live.app.as_ref(), &req);
        sync_on_ns.push(t.elapsed().as_nanos() as u64);
        assert!(
            page.body.starts_with("posted "),
            "sync-on write failed: {}",
            page.body
        );
    }
    let done = sync_on_ns.len().max(1) as f64;
    let fsyncs = (db.wal_sync_count() - syncs_before) as f64;
    db.set_wal_sync(false);
    vec![
        ("store.append_ns", append_ns),
        (
            "store.wal_bytes_per_user_byte",
            facts.wal_bytes_per_user_byte,
        ),
        ("store.fsyncs_per_write", fsyncs / done),
        (
            "store.fsync_ns",
            median_u64(&mut sync_on_ns) as f64 - sync_off_request_ns,
        ),
        ("store.checkpoint_ms", median(&facts.checkpoint_ms)),
        ("store.segments", facts.segments),
        ("store.recover_ms", facts.recover_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Config {
        Config {
            seed,
            seconds: 10,
            quick: true,
            trace: false,
        }
    }

    fn hash_of(kind: Kind, seed: u64) -> u64 {
        let cfg = quick(seed);
        let plan = plan(kind, &cfg);
        let mut rng = Rng::new(cfg.seed ^ 0x666f_7275_6d00 ^ kind as u64);
        let c = content(kind, &plan, &mut rng);
        traffic(kind, &plan, 200, &c, "sid-00", &mut rng)
            .stream
            .hash()
    }

    #[test]
    fn same_seed_same_hash_other_seed_other_hash() {
        for kind in [Kind::Read, Kind::Write, Kind::Search] {
            assert_eq!(hash_of(kind, 1), hash_of(kind, 1), "{kind:?}");
            assert_ne!(hash_of(kind, 1), hash_of(kind, 2), "{kind:?}");
        }
        assert_ne!(hash_of(Kind::Read, 1), hash_of(Kind::Search, 1));
    }

    #[test]
    fn one_request_in_sixty_four_is_a_canary() {
        let cfg = quick(1);
        let p = plan(Kind::Read, &cfg);
        let mut rng = Rng::new(1);
        let c = content(Kind::Read, &p, &mut rng);
        let t = traffic(Kind::Read, &p, 640, &c, "sid-00", &mut rng);
        let canaries = (0..640)
            .filter(|&i| *t.stream.expect(i) == Expect::ScriptBlocked)
            .count();
        assert_eq!(canaries, 10);
        assert!(c.scripts.iter().all(|s| s.contains("<script>")));
    }

    #[test]
    fn search_terms_hit_only_where_planted() {
        let cfg = Config {
            quick: false,
            ..quick(3)
        };
        let p = plan(Kind::Search, &cfg);
        let mut rng = Rng::new(3);
        let c = content(Kind::Search, &p, &mut rng);
        for term in &c.terms {
            let hits = c.posts.iter().filter(|b| b.contains(term.as_str())).count();
            assert!((5..45).contains(&hits), "{term}: {hits}");
        }
        let page = search_page(c.posts.iter(), &c.terms[0]);
        assert!(page.contains(" hits:<div class=\"hit\">"));
        assert!(!c.posts.iter().any(|b| b.contains(INJECTION_TERM)));
    }

    #[test]
    fn expected_pages_are_built_by_the_harness_escaper() {
        assert_eq!(view_page("a<b"), "<div class=\"post\">a&lt;b</div>");
        let bodies = ["x q1 y".to_string(), "none".to_string(), "<q1>".to_string()];
        assert_eq!(
            search_page(bodies.iter(), "q1"),
            "2 hits:<div class=\"hit\">x q1 y</div><div class=\"hit\">&lt;q1&gt;</div>"
        );
    }

    #[test]
    fn responses_and_requests_split_at_the_blank_line() {
        assert_eq!(
            split_response(b"HTTP/1.1 403 Forbidden\r\nContent-Length: 2\r\n\r\nno"),
            (403, &b"no"[..])
        );
        let mut raw = Vec::new();
        push_post(&mut raw, "/post", "sid-1", "body=x");
        let (head, body) = split_request(&raw);
        assert!(head.ends_with(b"\r\n\r\n"));
        assert_eq!(body, Some(&b"body=x"[..]));
    }
}
