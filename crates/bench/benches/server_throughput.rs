//! Macrobenchmark: requests/sec through the worker-pool dispatcher at
//! 1, 4, and 8 workers, over a shared forum (ResinDb + SessionStore).
//!
//! Two request mixes:
//!
//! * **read_heavy** — 7/8 rendered views (SELECT by id + escape + XSS
//!   assertion + gated write), 1/8 posts;
//! * **write_heavy** — 1/2 posts (INSERT through the injection guard and
//!   policy-column rewrite), 1/2 views.
//!
//! Every request also pays a simulated downstream I/O wait
//! ([`SIMULATED_IO`]) — the stand-in for the network/disk latency a real
//! app server overlaps by running workers concurrently. That is what the
//! pool is *for*: added workers overlap the I/O waits and (on multi-core
//! hosts) the CPU work, so requests/sec must scale with the worker count.
//! Note that with the sleep dominating per-request cost, *both* mixes
//! scale here — the `posts` write lock is held only for the row insert,
//! far shorter than the simulated wait, so write-lock contention does not
//! become the ceiling at these worker counts. Shrink `SIMULATED_IO` (or
//! grow the batch) to surface the same-table write serialization.
//!
//! Reported as throughput (`Elements` = requests): higher is better, and
//! the `workers/4` row must be ≥ 2× the `workers/1` row for read_heavy.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resin_apps::ForumApp;
use resin_web::server::Server;
use resin_web::{Request, Response, SessionStore, WebApp};

/// Simulated per-request downstream latency (database round-trip, origin
/// fetch, disk). Chosen small enough that dispatch overhead still matters
/// and large enough to dominate noise.
const SIMULATED_IO: Duration = Duration::from_micros(200);

/// Requests per measured batch.
const BATCH: usize = 64;

/// Seeded posts (views select among these).
const SEED_POSTS: usize = 32;

/// A ~1KB mildly hostile post body: enough text that escaping and span
/// tracking do real work per view.
fn post_body(i: usize) -> String {
    format!("post {i}: <b>bold claims</b> & \"quotes\" 'n ticks ").repeat(20)
}

/// The forum app plus the simulated I/O wait.
struct TimedApp {
    forum: ForumApp,
}

impl WebApp for TimedApp {
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), resin_core::FlowError> {
        std::thread::sleep(SIMULATED_IO);
        self.forum.handle(req, resp)
    }
}

struct Rig {
    server: Server,
    sid: String,
    forum_db: resin_sql::ResinDb,
}

fn rig(workers: usize) -> Rig {
    let sessions = Arc::new(SessionStore::new());
    let forum = ForumApp::new(Arc::clone(&sessions));
    for i in 0..SEED_POSTS {
        // Seed bodies arrive as user input arrives: untrusted — the
        // auto-sanitizer neutralizes their quotes, and every later view
        // revives the taint from the policy column.
        forum.seed_post(&resin_core::TaintedString::with_policy(
            post_body(i),
            Arc::new(resin_core::UntrustedData::from_source("bench_seed")),
        ));
    }
    let forum_db = forum.db().clone();
    let server = Server::start(Arc::new(TimedApp { forum }), workers);
    let sid = {
        let page = server.serve(Request::post("/login").with_param("user", "bencher"));
        assert!(page.outcome.is_ok());
        page.body
    };
    Rig {
        server,
        sid,
        forum_db,
    }
}

impl Rig {
    /// Fires one batch: submit everything, then drain the tickets.
    fn run_batch(&self, write_every: usize) {
        let tickets: Vec<_> = (0..BATCH)
            .map(|i| {
                let req = if i % write_every == 0 {
                    Request::post("/post")
                        .with_cookie("sid", &self.sid)
                        .with_param("body", "a benign new post, nothing to see")
                } else {
                    Request::get("/view").with_param("id", &format!("{}", (i % SEED_POSTS) + 1))
                };
                self.server.submit(req)
            })
            .collect();
        for t in tickets {
            let page = t.wait();
            assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        }
    }

    /// Drops the rows the write requests added, keeping table size (and
    /// therefore per-view scan cost) constant across samples.
    fn trim(&self) {
        self.forum_db
            .query_str(&format!("DELETE FROM posts WHERE id > {SEED_POSTS}"))
            .expect("trim");
    }
}

fn bench_mix(c: &mut Criterion, name: &str, write_every: usize) {
    let mut g = c.benchmark_group(format!("server_throughput/{name}"));
    g.throughput(Throughput::Elements(BATCH as u64));
    for workers in [1usize, 4, 8] {
        let rig = rig(workers);
        g.bench_function(BenchmarkId::new("workers", workers), |bench| {
            bench.iter(|| {
                rig.run_batch(write_every);
                rig.trim();
            });
        });
    }
    g.finish();
}

fn server_throughput(c: &mut Criterion) {
    bench_mix(c, "read_heavy", 8);
    bench_mix(c, "write_heavy", 2);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    targets = server_throughput
}
criterion_main!(benches);
