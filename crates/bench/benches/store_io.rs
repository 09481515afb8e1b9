//! Durability-layer benchmarks: WAL append, checkpoint, and recovery.
//!
//! These put numbers on the overhead the paper's persistence story costs
//! at serving time:
//!
//! * `wal_append` — the per-statement price of durability on the write
//!   path (fsynced vs not), against the in-memory insert baseline;
//! * `checkpoint` — re-encoding a written 512-row table into a fresh
//!   checkpoint part;
//! * `recover` — a cold open replaying a WAL onto a checkpoint, the restart
//!   cost the crash-recovery guarantee is paid for with.
//!
//! Everything runs in a temp directory; each measured routine cleans up
//! after itself so reruns are stable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resin_core::prelude::*;
use resin_sql::{GuardMode, ResinDb, Tracking};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "resin-bench-store-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tainted_insert(i: i64) -> TaintedString {
    let mut q = TaintedString::from(format!("INSERT INTO posts VALUES ({i}, '"));
    q.push_tainted(&TaintedString::with_policy(
        "user-supplied body text, sixty-four bytes of payload padding!!",
        Arc::new(UntrustedData::from_source("http_param")),
    ));
    q.push_str("')");
    q
}

fn durable_db(dir: &PathBuf, sync: bool) -> ResinDb {
    let db = ResinDb::open_with_modes(dir, Tracking::On, GuardMode::Off).unwrap();
    db.set_wal_sync(sync);
    db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
        .unwrap();
    db
}

fn wal_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_io/wal_append");

    // Baseline: the same insert with no store attached.
    let mem = ResinDb::new();
    mem.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
        .unwrap();
    let mut i = 0i64;
    g.bench_function("insert_memory", |b| {
        b.iter(|| {
            i += 1;
            mem.query(&tainted_insert(i)).unwrap()
        });
    });

    for (name, sync) in [("insert_wal_nosync", false), ("insert_wal_fsync", true)] {
        let dir = tmp_dir(name);
        let db = durable_db(&dir, sync);
        let mut i = 0i64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                db.query(&tainted_insert(i)).unwrap()
            });
        });
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    g.finish();
}

const ROWS: usize = 512;

fn checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_io/checkpoint");
    g.throughput(Throughput::Elements(ROWS as u64));
    let dir = tmp_dir("checkpoint");
    let db = durable_db(&dir, false);
    for i in 0..ROWS {
        db.query(&tainted_insert(i as i64)).unwrap();
    }
    g.bench_function(BenchmarkId::new("rows", ROWS), |b| {
        b.iter(|| {
            // A logged write that matches no row: the table is dirty, so
            // the checkpoint re-encodes it (a clean one writes nothing).
            db.query_str("DELETE FROM posts WHERE id = -1").unwrap();
            db.checkpoint().unwrap()
        });
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

fn recover(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_io/recover");
    g.throughput(Throughput::Elements(ROWS as u64));

    // Cold open replaying a pure WAL (no snapshot): the worst case.
    let wal_dir = tmp_dir("recover-wal");
    {
        let db = durable_db(&wal_dir, false);
        for i in 0..ROWS {
            db.query(&tainted_insert(i as i64)).unwrap();
        }
        // No checkpoint: recovery must replay all ROWS statements.
    }
    g.bench_function(BenchmarkId::new("wal_replay", ROWS), |b| {
        b.iter(|| ResinDb::open(&wal_dir).unwrap());
    });
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Cold open from a snapshot alone: the post-checkpoint fast path.
    let snap_dir = tmp_dir("recover-snap");
    {
        let db = durable_db(&snap_dir, false);
        for i in 0..ROWS {
            db.query(&tainted_insert(i as i64)).unwrap();
        }
        db.checkpoint().unwrap();
    }
    g.bench_function(BenchmarkId::new("snapshot_load", ROWS), |b| {
        b.iter(|| ResinDb::open(&snap_dir).unwrap());
    });
    let _ = std::fs::remove_dir_all(&snap_dir);
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = wal_append, checkpoint, recover
}
criterion_main!(benches);
