//! Multi-threaded stress tests for the shared-state layers: the label
//! laws must hold *across* threads (handles are process-global), and the
//! sharded database must keep transaction rollback semantics under
//! concurrent readers and writers.

use std::sync::{Arc, Barrier};
use std::thread;

use resin::core::prelude::*;
use resin::sql::ResinDb;

const THREADS: usize = 8;
const ROUNDS: usize = 200;

fn policy(i: usize) -> PolicyRef {
    Arc::new(UntrustedData::from_source(format!("stress-src-{i}"))) as PolicyRef
}

/// N threads interning the same policy sets must agree on the handles:
/// `eq` ⇔ set-eq holds across threads because the table is process-global
/// and canonical.
#[test]
fn interning_agrees_across_threads() {
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait(); // maximize racing on first-time interning
                let mut labels = Vec::with_capacity(ROUNDS);
                for i in 0..ROUNDS {
                    // Every thread builds the same set for round `i`,
                    // each from freshly allocated policy objects.
                    let l = Label::from_policies([&policy(i), &policy(i / 2), &policy(i / 3)]);
                    labels.push(l);
                }
                labels
            })
        })
        .collect();
    let per_thread: Vec<Vec<Label>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let reference = &per_thread[0];
    for other in &per_thread[1..] {
        assert_eq!(
            reference, other,
            "structurally equal sets must intern to identical handles on every thread"
        );
    }
}

/// Threads racing the memoized pairwise-union cache must all observe the
/// same result handle, and the union laws must survive the race.
#[test]
fn union_cache_race_is_coherent() {
    // Pre-intern the operands so the race is purely on the union cache.
    let pairs: Vec<(Label, Label)> = (0..ROUNDS)
        .map(|i| {
            (
                Label::from_policies([&policy(1000 + i)]),
                Label::from_policies([&policy(2000 + i), &policy(1000 + i / 2)]),
            )
        })
        .collect();
    let pairs = Arc::new(pairs);
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pairs = Arc::clone(&pairs);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        // Alternate operand order per thread: commutativity
                        // must hold even while the cache is being filled.
                        if t % 2 == 0 {
                            a.union(b)
                        } else {
                            b.union(a)
                        }
                    })
                    .collect::<Vec<Label>>()
            })
        })
        .collect();
    let per_thread: Vec<Vec<Label>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let expected = a.union(b);
        for (t, results) in per_thread.iter().enumerate() {
            assert_eq!(
                results[i], expected,
                "thread {t} observed a different union handle for pair {i}"
            );
        }
        // Laws, post-race: idempotent and still equal to the memo.
        assert_eq!(expected.union(a), expected);
        assert_eq!(expected.union(b), expected);
    }
}

/// Labels resolved on one thread and shipped to another (they are `Copy`
/// integers) must resolve to the same policy sets everywhere.
#[test]
fn labels_ship_across_threads() {
    let l = Label::from_policies([&policy(9000), &policy(9001)]);
    let got = thread::spawn(move || {
        assert!(l.has::<UntrustedData>());
        l.ids().len()
    })
    .join()
    .unwrap();
    assert_eq!(got, 2);
}

/// Concurrent readers and writers on *other* tables must neither block
/// nor corrupt a transaction's rollback: the transaction's table is
/// restored exactly, the concurrent writes all survive.
#[test]
fn shared_db_rollback_survives_concurrent_traffic() {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE accounts (id INTEGER, balance INTEGER)")
        .unwrap();
    db.query_str("INSERT INTO accounts VALUES (1, 100), (2, 250)")
        .unwrap();
    db.query_str("CREATE TABLE audit (entry TEXT)").unwrap();

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..50 {
                    db.query_str(&format!("INSERT INTO audit VALUES ('w{t}-{i}')"))
                        .unwrap();
                    let r = db
                        .query_str("SELECT balance FROM accounts WHERE id = 1")
                        .unwrap();
                    assert_eq!(r.rows.len(), 1, "reader always sees the row");
                }
            })
        })
        .collect();

    barrier.wait();
    // A transaction on `accounts` races all that `audit` traffic, then
    // fails its integrity check: only `accounts` must roll back.
    let mut txn = db.begin();
    txn.add_check(Box::new(|db: &ResinDb| {
        let r = db
            .query_str("SELECT COUNT(*) FROM accounts WHERE balance < 0")
            .map_err(|e| PolicyViolation::new("NoOverdraft", e.to_string()))?;
        if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
            Ok(())
        } else {
            Err(PolicyViolation::new("NoOverdraft", "negative balance"))
        }
    }));
    txn.query_str("UPDATE accounts SET balance = -500 WHERE id = 1")
        .unwrap();
    assert_eq!(txn.snapshotted_tables(), vec!["accounts"]);
    assert!(txn.commit().is_err(), "overdraft check fires");

    for w in writers {
        w.join().unwrap();
    }

    let r = db
        .query_str("SELECT balance FROM accounts ORDER BY id")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int().unwrap().value(), &100, "rolled back");
    assert_eq!(r.rows[1][0].as_int().unwrap().value(), &250);
    let r = db.query_str("SELECT COUNT(*) FROM audit").unwrap();
    assert_eq!(
        r.rows[0][0].as_int().unwrap().value(),
        &(THREADS as i64 * 50),
        "concurrent writes to the other table all survive the rollback"
    );
}

/// Readers of one table proceed while another table is being written:
/// per-table sharding means cross-table traffic cannot lose updates, and
/// same-table writers serialize without corruption.
#[test]
fn shared_db_cross_table_and_same_table_writers() {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE counters (id INTEGER, n INTEGER)")
        .unwrap();
    db.query_str("INSERT INTO counters VALUES (0, 0)").unwrap();
    db.query_str("CREATE TABLE log (entry TEXT)").unwrap();

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..40 {
                    if t % 2 == 0 {
                        db.query_str(&format!("INSERT INTO log VALUES ('t{t}-{i}')"))
                            .unwrap();
                    } else {
                        db.query_str(&format!(
                            "INSERT INTO counters VALUES ({}, {i})",
                            t * 1000 + i
                        ))
                        .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let writers = THREADS / 2;
    let r = db.query_str("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(
        r.rows[0][0].as_int().unwrap().value(),
        &(writers as i64 * 40)
    );
    let r = db.query_str("SELECT COUNT(*) FROM counters").unwrap();
    assert_eq!(
        r.rows[0][0].as_int().unwrap().value(),
        &(writers as i64 * 40 + 1),
        "no insert lost under same-table contention"
    );
}

/// Policy persistence round-trips under concurrency: taint attached on
/// one thread survives storage and revives on another.
#[test]
fn taint_roundtrip_across_threads() {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE notes (id INTEGER, body TEXT)")
        .unwrap();
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                let mut q =
                    resin::core::TaintedString::from(format!("INSERT INTO notes VALUES ({t}, '"));
                q.push_tainted(&resin::core::TaintedString::with_policy(
                    format!("note-{t}"),
                    Arc::new(UntrustedData::from_source(format!("thread-{t}"))),
                ));
                q.push_str("')");
                db.query(&q).unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                let r = db
                    .query_str(&format!("SELECT body FROM notes WHERE id = {t}"))
                    .unwrap();
                let cell = r.cell(0, "body").unwrap().as_text().unwrap().clone();
                assert_eq!(cell.as_str(), format!("note-{t}"));
                assert!(cell.has_policy::<UntrustedData>(), "taint revived");
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
}
