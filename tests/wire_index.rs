//! The policy class registry's read index, through the product path:
//! `ResinDb` writes policies into policy columns as text and revives
//! them on every read, and each distinct text is to be decoded once per
//! registration of its class — not once per cell — without outliving a
//! class registration.
//!
//! The tests count deserializer runs and decodes, re-register classes and
//! read the **global** label table's sizes, so they take turns
//! ([`turn`]); as its own integration-test binary the file shares its
//! process with nothing else.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use resin::core::prelude::*;
use resin::core::{register_policy_class, LabelTable};
use resin::sql::ResinDb;
use resin::web::Response;

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A policy whose class counts its decodes. `rev` says which registration
/// built the object; it is behaviour outside the fields, so it goes into
/// the intern discriminator, as a script policy's class body does.
#[derive(Debug)]
struct Counted {
    class: &'static str,
    owner: String,
    rev: u64,
}

impl Policy for Counted {
    fn name(&self) -> &str {
        self.class
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        vec![("owner".to_string(), self.owner.clone())]
    }

    fn intern_discriminator(&self) -> u64 {
        self.rev
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Registers `class` so that each decode bumps `runs` and builds
/// revision `rev`.
fn register_counted(class: &'static str, rev: u64, runs: &'static AtomicUsize) {
    register_policy_class(class, move |fields| {
        runs.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(Counted {
            class,
            owner: fields.get("owner").cloned().unwrap_or_default(),
            rev,
        }) as PolicyRef)
    });
}

/// A table of `rows` rows whose `body` cells alternate between the
/// policies of two owners of `class`.
fn db_over_two_policies(class: &'static str, rows: usize) -> ResinDb {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE notes (id INTEGER, body TEXT)")
        .unwrap();
    for id in 0..rows {
        let owner = ["alice", "bob"][id % 2];
        let mut q = TaintedString::from(format!("INSERT INTO notes VALUES ({id}, '"));
        q.push_tainted(&TaintedString::with_policy(
            format!("note {id}"),
            Arc::new(Counted {
                class,
                owner: owner.to_string(),
                rev: 0,
            }),
        ));
        q.push_str("')");
        db.query(&q).unwrap();
    }
    db
}

/// The revisions of the policies on every `body` cell of the table.
fn revisions(db: &ResinDb) -> Vec<u64> {
    let r = db.query_str("SELECT body FROM notes").unwrap();
    r.rows
        .iter()
        .map(|row| {
            let policies = row[0].as_text().unwrap().label().policies();
            assert_eq!(policies.len(), 1);
            downcast_policy::<Counted>(&policies[0]).unwrap().rev
        })
        .collect()
}

#[test]
fn a_select_decodes_each_distinct_policy_once() {
    let _turn = turn();
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    register_counted("WireCountedA", 1, &RUNS);
    let db = db_over_two_policies("WireCountedA", 100);
    assert_eq!(RUNS.load(Ordering::SeqCst), 0, "writing decodes nothing");

    assert_eq!(revisions(&db), vec![1; 100]);
    assert_eq!(RUNS.load(Ordering::SeqCst), 2, "100 cells, 2 policies");
    assert_eq!(revisions(&db), vec![1; 100]);
    assert_eq!(
        RUNS.load(Ordering::SeqCst),
        2,
        "the second read decodes nothing"
    );

    // (b) The class evolves: the same stored text now revives to what
    // the new deserializer builds, decoded once per policy again.
    register_counted("WireCountedA", 2, &RUNS);
    assert_eq!(revisions(&db), vec![2; 100]);
    assert_eq!(RUNS.load(Ordering::SeqCst), 4);
    assert_eq!(revisions(&db), vec![2; 100]);
    assert_eq!(RUNS.load(Ordering::SeqCst), 4);

    // Registering another class leaves this one's texts indexed: a site
    // that loads a policy script per request keeps the rest warm.
    static OTHER: AtomicUsize = AtomicUsize::new(0);
    register_counted("WireCountedUnrelated", 1, &OTHER);
    assert_eq!(revisions(&db), vec![2; 100]);
    assert_eq!(RUNS.load(Ordering::SeqCst), 4);
}

#[test]
fn revived_labels_survive_a_checkpoint_and_the_table_does_not_grow() {
    let _turn = turn();
    let dir = std::env::temp_dir().join(format!("resin-wire-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ResinDb::open(&dir).unwrap();
    db.set_wal_sync(false);
    db.query_str("CREATE TABLE pages (id INTEGER, body TEXT)")
        .unwrap();
    let acl = Acl::new().grant("alice", &[Right::Read]);

    let mut labels_after_cycle = Vec::new();
    for cycle in 0..3 {
        for i in 0..4 {
            let mut q =
                TaintedString::from(format!("INSERT INTO pages VALUES ({}, '", cycle * 4 + i));
            let policy: PolicyRef = if i % 2 == 0 {
                Arc::new(PagePolicy::new(acl.clone()))
            } else {
                Arc::new(UntrustedData::new())
            };
            q.push_tainted(&TaintedString::with_policy("secret page", policy));
            q.push_str("')");
            db.query(&q).unwrap();
        }
        db.checkpoint().unwrap();

        let r = db.query_str("SELECT body FROM pages").unwrap();
        labels_after_cycle.push(LabelTable::global().stats().labels);
        assert_eq!(r.rows.len(), (cycle + 1) * 4);
        for (i, row) in r.rows.iter().enumerate() {
            let cell = row[0].as_text().unwrap();
            if i % 2 == 0 {
                assert!(cell.has_policy::<PagePolicy>());
                Response::for_user("alice").echo(cell.clone()).unwrap();
                let err = Response::for_user("mallory")
                    .echo(cell.clone())
                    .unwrap_err();
                assert!(err.is_violation(), "{err:?}");
            } else {
                assert!(cell.has_policy::<UntrustedData>());
            }
        }
    }
    assert_eq!(
        labels_after_cycle,
        vec![labels_after_cycle[0]; 3],
        "each cycle re-interns the same two labels"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readers_racing_a_registration_never_keep_a_stale_entry() {
    let _turn = turn();
    const READERS: usize = 8;
    const REGISTRATIONS: u64 = 200;
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    register_counted("WireCountedRace", 1, &RUNS);
    let db = db_over_two_policies("WireCountedRace", 10);

    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                start.wait();
                // At least one read after the last registration.
                let mut last_round = false;
                loop {
                    let revs = revisions(&db);
                    assert!(revs.iter().all(|r| (1..=REGISTRATIONS).contains(r)));
                    if last_round {
                        break;
                    }
                    last_round = done.load(Ordering::SeqCst);
                }
            });
        }
        s.spawn(|| {
            start.wait();
            for rev in 2..=REGISTRATIONS {
                register_counted("WireCountedRace", rev, &RUNS);
            }
            done.store(true, Ordering::SeqCst);
        });
    });
    // Whatever the interleaving was, no decode by an earlier deserializer
    // is still indexed: the text resolves to the last registration.
    assert_eq!(revisions(&db), vec![REGISTRATIONS; 10]);
}

#[test]
fn readers_racing_squatters_never_read_another_policy() {
    let _turn = turn();
    const READERS: usize = 8;
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    register_counted("WireCountedSquat", 1, &RUNS);
    let db = db_over_two_policies("WireCountedSquat", 10);
    // Every cell of one read carries its own row's policy.
    let own_cells = |db: &ResinDb| {
        let r = db.query_str("SELECT id, body FROM notes").unwrap();
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            let id = *row[0].as_int().unwrap().value() as usize;
            let policies = row[1].as_text().unwrap().label().policies();
            assert_eq!(policies.len(), 1);
            let p = downcast_policy::<Counted>(&policies[0]).expect("a Counted policy");
            assert_eq!(p.owner, ["alice", "bob"][id % 2], "row {id}");
        }
    };

    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                start.wait();
                // At least one read after the last squatter.
                let mut last_round = false;
                loop {
                    own_cells(&db);
                    if last_round {
                        break;
                    }
                    last_round = done.load(Ordering::SeqCst);
                }
            });
        }
        s.spawn(|| {
            start.wait();
            for n in 0..300 {
                // A policy of the same class, and a set holding it, interned
                // beside the readers' revivals.
                let squatter = Label::of(
                    &(Arc::new(Counted {
                        class: "WireCountedSquat",
                        owner: format!("squatter {n}"),
                        rev: 1,
                    }) as PolicyRef),
                );
                squatter.union(Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)));
            }
            done.store(true, Ordering::SeqCst);
        });
    });
    own_cells(&db);
}
