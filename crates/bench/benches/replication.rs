//! WAL shipping and follower catch-up cost.
//!
//! Three shapes:
//!
//! * **ship_idle** — polling with nothing new to copy: the manifest
//!   compare plus per-segment length checks. This is the steady-state
//!   cost a replication daemon pays between commits, so it must stay
//!   far below a commit.
//! * **catch_up_idle** — the follower's no-op poll: tail the shipped
//!   log past the watermark and find nothing.
//! * **replicate_one** — one committed row end to end: primary append,
//!   ship the segment tail, follower replays it. The primary
//!   checkpoints every 256 iterations so segment scans stay bounded,
//!   just as a real deployment compacts between ships.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use resin_sql::{ship, Follower, ResinDb};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("resin-bench-repl-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn replication(c: &mut Criterion) {
    let primary_dir = tmp_dir("primary");
    let replica_dir = tmp_dir("replica");
    let db = ResinDb::open(&primary_dir).unwrap();
    db.set_wal_sync(false);
    db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
        .unwrap();
    let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
    for i in 0..1_000i64 {
        db.exec_prepared(&ins, vec![i.into(), "seed post".into()])
            .unwrap();
    }
    db.checkpoint().unwrap();
    ship(&primary_dir, &replica_dir).unwrap();
    let mut follower = Follower::open(&replica_dir).unwrap();
    follower.catch_up().unwrap();

    let mut g = c.benchmark_group("replication");
    g.bench_function("ship_idle", |b| {
        b.iter(|| ship(&primary_dir, &replica_dir).unwrap())
    });
    g.bench_function("catch_up_idle", |b| b.iter(|| follower.catch_up().unwrap()));
    let mut i = 1_000i64;
    g.bench_function("replicate_one", |b| {
        b.iter(|| {
            i += 1;
            db.exec_prepared(&ins, vec![i.into(), "replicated post".into()])
                .unwrap();
            if i % 256 == 0 {
                db.checkpoint().unwrap();
            }
            ship(&primary_dir, &replica_dir).unwrap();
            follower.catch_up().unwrap()
        });
    });
    g.finish();

    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

criterion_group!(benches, replication);
criterion_main!(benches);
