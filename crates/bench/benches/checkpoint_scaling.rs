//! Incremental vs full checkpoint cost as the database grows.
//!
//! The scale-out claim: a checkpoint taken after touching one small
//! table must not pay for the whole database. `checkpoint()` consults
//! the dirty-table set and writes only changed table images against the
//! manifest. The "full" arm dirties every table first, so its checkpoint
//! rewrites them all — which is what the store did before incremental
//! checkpoints. The PR 9 acceptance bar lives here: at 100k cold rows
//! with a single dirty table, the incremental checkpoint must beat the
//! full one by ≥ 10×.
//!
//! Each iteration updates one row of the one-row `hot` table (so table
//! sizes stay constant across iterations) and then checkpoints, so both
//! sides measure "small write + checkpoint" and the only variable is
//! whether the checkpoint rewrites the cold `big` table. The full arm
//! dirties `big` with an UPDATE that matches no row, found through the
//! index on `id` rather than a 100k-row scan.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use resin_sql::ResinDb;

fn sizes() -> &'static [(i64, &'static str)] {
    let quick = std::env::var("RESIN_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    if quick {
        &[(1_000, "1k")]
    } else {
        &[(1_000, "1k"), (100_000, "100k")]
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("resin-bench-ckpt-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A database with `n` cold rows in `big` and one hot row in `hot`,
/// checkpointed so `big`'s image is settled on disk before timing starts.
fn build(dir: &Path, n: i64) -> ResinDb {
    let db = ResinDb::open(dir).unwrap();
    db.set_wal_sync(false);
    db.query_str("CREATE TABLE big (id INTEGER, body TEXT)")
        .unwrap();
    db.query_str("CREATE TABLE hot (id INTEGER, note TEXT)")
        .unwrap();
    db.query_str("CREATE INDEX ix_big_id ON big (id) USING HASH")
        .unwrap();
    let ins = db.prepare("INSERT INTO big VALUES (?, ?)").unwrap();
    for i in 0..n {
        db.exec_prepared(&ins, vec![i.into(), "cold row that never changes".into()])
            .unwrap();
    }
    db.query_str("INSERT INTO hot VALUES (1, 'seed')").unwrap();
    db.checkpoint().unwrap();
    db
}

fn checkpoint_scaling(c: &mut Criterion) {
    for &(n, tag) in sizes() {
        let mut g = c.benchmark_group(format!("checkpoint/one_dirty_{tag}"));
        for (label, full) in [("incremental", false), ("full", true)] {
            let dir = tmp_dir(&format!("{tag}-{label}"));
            let db = build(&dir, n);
            let touch = db.prepare("UPDATE hot SET note = ? WHERE id = 1").unwrap();
            let dirty_big = db.prepare("UPDATE big SET body = ? WHERE id = -1").unwrap();
            let mut i = 0i64;
            g.bench_function(label, |b| {
                b.iter(|| {
                    i += 1;
                    db.exec_prepared(&touch, vec![format!("touch {i}").into()])
                        .unwrap();
                    if full {
                        db.exec_prepared(&dirty_big, vec!["never stored".into()])
                            .unwrap();
                    }
                    db.checkpoint().unwrap();
                });
            });
            std::fs::remove_dir_all(&dir).ok();
        }
        g.finish();
    }
}

criterion_group!(benches, checkpoint_scaling);
criterion_main!(benches);
