//! How query cost scales with table size, indexed vs scanned.
//!
//! Three shapes at 1k / 100k / 1M rows (quick mode trims to 1k / 10k so
//! the CI smoke run stays fast):
//!
//! * **point** — `WHERE id = ?` by prepared statement: O(1) hash-probe
//!   against O(n) scan. The PR 8 acceptance bar lives here: the indexed
//!   lookup must beat the scan by ≥ 50× at 100k rows and ≥ 100× at 1M.
//! * **range** — a 100-id window, ordered-index range against scan.
//! * **top10** — `ORDER BY id DESC LIMIT 10`: ordered iteration
//!   sort-skip against sort-the-world.
//!
//! Both sides run the same taint-tracking `ResinDb` pipeline; the only
//! variable is whether indexes exist, which is exactly the differential
//! the equivalence suite proves bit-identical.

use criterion::{criterion_group, criterion_main, Criterion};
use resin_sql::ResinDb;

fn sizes() -> &'static [(i64, &'static str)] {
    let quick = std::env::var("RESIN_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    if quick {
        &[(1_000, "1k"), (10_000, "10k")]
    } else {
        &[(1_000, "1k"), (100_000, "100k"), (1_000_000, "1m")]
    }
}

fn build(n: i64, indexed: bool) -> ResinDb {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
        .unwrap();
    if indexed {
        db.query_str("CREATE INDEX ix_point ON posts (id) USING HASH")
            .unwrap();
        db.query_str("CREATE INDEX ix_range ON posts (id) USING BTREE")
            .unwrap();
    }
    let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
    for i in 0..n {
        db.exec_prepared(&ins, vec![i.into(), "post body".into()])
            .unwrap();
    }
    db
}

fn sql_scaling(c: &mut Criterion) {
    for &(n, tag) in sizes() {
        let mut g = c.benchmark_group(format!("sql_scaling/point_{tag}"));
        for (label, indexed) in [("indexed", true), ("scan", false)] {
            let db = build(n, indexed);
            let sel = db.prepare("SELECT body FROM posts WHERE id = ?").unwrap();
            let mut i = 0i64;
            g.bench_function(label, |b| {
                b.iter(|| {
                    i = (i + 7919) % n; // stride across the table
                    db.exec_prepared(&sel, vec![i.into()]).unwrap()
                });
            });
        }
        g.finish();

        let mut g = c.benchmark_group(format!("sql_scaling/range_{tag}"));
        for (label, indexed) in [("indexed", true), ("scan", false)] {
            let db = build(n, indexed);
            let sel = db
                .prepare("SELECT id FROM posts WHERE id >= ? AND id < ?")
                .unwrap();
            let mut i = 0i64;
            g.bench_function(label, |b| {
                b.iter(|| {
                    i = (i + 7919) % (n - 100).max(1);
                    db.exec_prepared(&sel, vec![i.into(), (i + 100).into()])
                        .unwrap()
                });
            });
        }
        g.finish();

        let mut g = c.benchmark_group(format!("sql_scaling/top10_{tag}"));
        for (label, indexed) in [("indexed", true), ("scan", false)] {
            let db = build(n, indexed);
            g.bench_function(label, |b| {
                b.iter(|| {
                    db.query_str("SELECT id FROM posts ORDER BY id DESC LIMIT 10")
                        .unwrap()
                });
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sql_scaling
}
criterion_main!(benches);
