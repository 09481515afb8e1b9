//! Crash-recovery and restart-survival tests for the durable store.
//!
//! The paper's §3.4/§6.1 claim is that policies follow data into durable
//! storage and revive on read — which only means something if storage
//! survives the process. These tests cross a real process-boundary stand-in
//! (drop every in-memory handle, reopen from disk) and a real crash stand-in
//! (truncate the WAL mid-record) and check that the attack suite still
//! fails closed on the other side.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use resin::core::prelude::*;
use resin::sql::{GuardMode, ResinDb, Tracking};
use resin::store::wal::{encode_record, scan, RECORD_HEADER};
use resin::store::Store;
use resin::web::Response;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("resin-recovery-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- WAL truncation properties ----

proptest! {
    /// A WAL truncated at *any* byte boundary scans to exactly the longest
    /// prefix of complete records — never a partial record, never a lost
    /// complete one.
    #[test]
    fn truncated_wal_recovers_longest_valid_prefix(
        payloads in prop::collection::vec("[ -~]{0,40}", 1..8),
        cut_seed in 0usize..10_000,
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, p.as_bytes()));
            boundaries.push(bytes.len());
        }
        let cut = cut_seed % (bytes.len() + 1);
        let s = scan(&bytes[..cut]).unwrap();
        // Expected: every record whose frame ends at or before the cut.
        let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(s.records.len(), expect);
        prop_assert_eq!(s.valid_len, boundaries[expect]);
        for (i, r) in s.records.iter().enumerate() {
            prop_assert_eq!(&r.payload, payloads[i].as_bytes());
        }
        prop_assert_eq!(s.torn, cut != boundaries[expect]);
    }

    /// The same property through a real file: truncate `wal.bin` at an
    /// arbitrary byte, reopen the store, and the recovered records are the
    /// longest valid prefix — and the repaired log accepts new appends.
    #[test]
    fn truncated_wal_file_reopens_to_consistent_state(
        n_records in 1usize..6,
        cut_seed in 0usize..10_000,
    ) {
        let dir = tmp_dir("prop-file");
        let payloads: Vec<Vec<u8>> =
            (0..n_records).map(|i| vec![b'a' + i as u8; i * 7 + 1]).collect();
        {
            let (store, _) = Store::open(&dir).unwrap();
            store.set_sync(false);
            for p in &payloads {
                store.append(p).unwrap();
            }
        }
        let wal = resin::store::segment::segment_path(&dir, 1);
        let bytes = std::fs::read(&wal).unwrap();
        let cut = cut_seed % (bytes.len() + 1);
        std::fs::write(&wal, &bytes[..cut]).unwrap();

        let (store, recovered) = Store::open(&dir).unwrap();
        let mut complete = 0usize;
        let mut end = 0usize;
        for p in &payloads {
            end += RECORD_HEADER + p.len();
            if end <= cut {
                complete += 1;
            }
        }
        prop_assert_eq!(recovered.records.len(), complete);
        for (r, p) in recovered.records.iter().zip(&payloads) {
            prop_assert_eq!(r, p);
        }
        // The tear is repaired: appending and reopening stays consistent.
        store.append(b"post-repair").unwrap();
        drop(store);
        let (_, again) = Store::open(&dir).unwrap();
        prop_assert_eq!(again.records.len(), complete + 1);
        prop_assert_eq!(again.records.last().unwrap().as_slice(), b"post-repair");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The segmented log: cut an arbitrary segment at an arbitrary byte.
    /// Recovery keeps every record of earlier segments plus the longest
    /// valid prefix of the cut segment. A mid-frame tear discards every
    /// later segment and is reported as a cross-segment tear; a cut that
    /// lands exactly on a frame boundary is indistinguishable from fewer
    /// appends, so the later segments still replay cleanly.
    #[test]
    fn truncated_segment_recovers_prefix_and_reports_cross_segment_tear(
        n_records in 6usize..12,
        cut_seed in 0usize..100_000,
    ) {
        let dir = tmp_dir("prop-seg");
        let payloads: Vec<Vec<u8>> = (0..n_records)
            .map(|i| vec![b'a' + i as u8; 20 + i % 7])
            .collect();
        {
            let (store, _) = Store::open(&dir).unwrap();
            store.set_sync(false);
            // A tiny cap so the log rolls over every couple of records.
            store.set_segment_max_bytes(64);
            for p in &payloads {
                store.append(p).unwrap();
            }
        }
        let segments = resin::store::segment::list_segments(&dir).unwrap();
        prop_assert!(segments.len() >= 2, "64-byte cap must rotate: {:?}", segments);

        // Per-segment payloads and frame boundaries, from the bytes
        // actually on disk (rotation decides the grouping, not us).
        let mut per_seg: Vec<(Vec<Vec<u8>>, Vec<usize>)> = Vec::new();
        let mut seg_bytes: Vec<Vec<u8>> = Vec::new();
        for (_, path) in &segments {
            let bytes = std::fs::read(path).unwrap();
            let s = scan(&bytes).unwrap();
            assert!(!s.torn, "pre-cut log must be clean");
            let mut bounds = vec![0usize];
            for r in &s.records {
                bounds.push(bounds.last().unwrap() + RECORD_HEADER + r.payload.len());
            }
            per_seg.push((s.records.into_iter().map(|r| r.payload).collect(), bounds));
            seg_bytes.push(bytes);
        }

        let k = cut_seed % segments.len();
        let cut = (cut_seed / segments.len()) % (seg_bytes[k].len() + 1);
        std::fs::write(&segments[k].1, &seg_bytes[k][..cut]).unwrap();

        let (store, recovered) = Store::open(&dir).unwrap();
        let (seg_payloads, bounds) = &per_seg[k];
        let complete = bounds.iter().filter(|&&b| b > 0 && b <= cut).count();
        let torn = cut != bounds[complete];

        let mut expect: Vec<Vec<u8>> = per_seg[..k]
            .iter()
            .flat_map(|(p, _)| p.iter().cloned())
            .collect();
        expect.extend(seg_payloads[..complete].iter().cloned());
        if !torn {
            // Frame-boundary cut: later segments are a valid continuation.
            for (p, _) in &per_seg[k + 1..] {
                expect.extend(p.iter().cloned());
            }
        }
        prop_assert_eq!(&recovered.records, &expect);
        prop_assert_eq!(recovered.torn_tail, torn);
        prop_assert_eq!(recovered.torn_cross_segment, torn);

        // The repair holds: the store accepts appends and reopens clean.
        store.append(b"post-repair").unwrap();
        drop(store);
        let (_, again) = Store::open(&dir).unwrap();
        prop_assert!(!again.torn_tail);
        prop_assert_eq!(again.records.len(), expect.len() + 1);
        prop_assert_eq!(again.records.last().unwrap().as_slice(), b"post-repair");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- restart-survival attacks: SQL ----

fn insert_password(db: &ResinDb, user: &str, pw: &str) {
    let mut q = TaintedString::from(format!("INSERT INTO userdb VALUES ('{user}', '"));
    q.push_tainted(&TaintedString::with_policy(
        pw,
        Arc::new(PasswordPolicy::new(format!("{user}@foo.com"))),
    ));
    q.push_str("')");
    db.query(&q).unwrap();
}

fn assert_password_fails_closed(db: &ResinDb, user: &str, pw: &str) {
    let r = db
        .query_str(&format!(
            "SELECT password FROM userdb WHERE user = '{user}'"
        ))
        .unwrap();
    let stolen = r.cell(0, "password").unwrap().as_text().unwrap().clone();
    assert_eq!(stolen.as_str(), pw);
    assert!(
        stolen.has_policy::<PasswordPolicy>(),
        "policy must survive the restart"
    );
    // The §5.3 scenario: the adversary's page is the export gate that fails.
    let mut browser = Response::for_user("adversary");
    let err = browser.echo(stolen).unwrap_err();
    assert!(err.is_violation(), "exfiltration must fail closed: {err:?}");
    assert!(!browser.body().contains(pw));
}

#[test]
fn stolen_password_fails_closed_after_restart_wal_only() {
    let dir = tmp_dir("sql-wal");
    {
        let db = ResinDb::open(&dir).unwrap();
        db.query_str("CREATE TABLE userdb (user TEXT, password TEXT)")
            .unwrap();
        insert_password(&db, "victim", "hunter2");
        // Dropped with no checkpoint: recovery is WAL replay alone.
    }
    let db = ResinDb::open(&dir).unwrap();
    assert!(!db.recovered_from_torn_wal(), "clean shutdown, clean open");
    assert_password_fails_closed(&db, "victim", "hunter2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stolen_password_fails_closed_after_checkpointed_restart() {
    let dir = tmp_dir("sql-ckpt");
    {
        let db = ResinDb::open(&dir).unwrap();
        db.query_str("CREATE TABLE userdb (user TEXT, password TEXT)")
            .unwrap();
        insert_password(&db, "victim", "hunter2");
        db.checkpoint().unwrap();
    }
    // Second generation: snapshot + fresh WAL entries together.
    {
        let db = ResinDb::open(&dir).unwrap();
        insert_password(&db, "other", "s3cret");
    }
    let db = ResinDb::open(&dir).unwrap();
    assert_password_fails_closed(&db, "victim", "hunter2");
    assert_password_fails_closed(&db, "other", "s3cret");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_keeps_committed_passwords_guarded() {
    let dir = tmp_dir("sql-torn");
    {
        let db = ResinDb::open(&dir).unwrap();
        db.query_str("CREATE TABLE userdb (user TEXT, password TEXT)")
            .unwrap();
        insert_password(&db, "victim", "hunter2");
        insert_password(&db, "casualty", "lost-in-the-crash");
    }
    // The crash: the last append is torn mid-record.
    let wal = resin::store::segment::segment_path(&dir, 1);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let db = ResinDb::open(&dir).unwrap();
    assert!(
        db.recovered_from_torn_wal(),
        "the tear must be observable to the application"
    );
    let r = db.query_str("SELECT COUNT(*) FROM userdb").unwrap();
    assert_eq!(
        r.rows[0][0].as_int().unwrap().value(),
        &1,
        "torn insert discarded, committed insert kept"
    );
    assert_password_fails_closed(&db, "victim", "hunter2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_order_injection_still_blocked_after_restart() {
    // Stored untrusted data keeps UntrustedData across the restart, so a
    // naive query built from recovered data still trips the guard.
    let dir = tmp_dir("sql-second");
    {
        let db = ResinDb::open_with_modes(&dir, Tracking::On, GuardMode::AutoSanitize).unwrap();
        db.query_str("CREATE TABLE posts (body TEXT)").unwrap();
        let mut q = TaintedString::from("INSERT INTO posts VALUES ('");
        q.push_tainted(&TaintedString::with_policy(
            "evil' OR '1'='1",
            Arc::new(UntrustedData::new()),
        ));
        q.push_str("')");
        db.query(&q).unwrap();
    }
    let db = ResinDb::open_with_modes(&dir, Tracking::On, GuardMode::StructureCheck).unwrap();
    let r = db.query_str("SELECT body FROM posts").unwrap();
    let stored = r.cell(0, "body").unwrap().as_text().unwrap().clone();
    assert_eq!(stored.as_str(), "evil' OR '1'='1");
    assert!(
        stored.has_policy::<UntrustedData>(),
        "taint survives restart"
    );
    let mut q2 = TaintedString::from("SELECT body FROM posts WHERE body = '");
    q2.push_tainted(&stored);
    q2.push_str("'");
    assert!(
        db.query(&q2).unwrap_err().is_violation(),
        "recovered taint still feeds the injection guard"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_db_recovers_and_txn_rollback_never_replays() {
    let dir = tmp_dir("sql-shared");
    {
        let db = ResinDb::open(&dir).unwrap();
        db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
            .unwrap();
        db.query_str("INSERT INTO posts VALUES (1, 'kept')")
            .unwrap();
        // A rolled-back transaction must not resurrect after restart.
        let mut txn = db.begin();
        txn.query_str("INSERT INTO posts VALUES (2, 'rolled back')")
            .unwrap();
        txn.rollback();
        // A committed transaction must.
        let mut txn = db.begin();
        txn.query_str("INSERT INTO posts VALUES (3, 'committed')")
            .unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
    }
    let db = ResinDb::open(&dir).unwrap();
    let r = db.query_str("SELECT id FROM posts ORDER BY id").unwrap();
    let ids: Vec<i64> = (0..r.rows.len())
        .map(|i| *r.cell(i, "id").unwrap().as_int().unwrap().value())
        .collect();
    assert_eq!(ids, vec![1, 3], "rollback gone, commit recovered");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- restart-survival attacks: wiki / vfs ----

use resin::apps::moinwiki::MoinWiki;

fn seeded_wiki(dir: &PathBuf) -> MoinWiki {
    let mut w = MoinWiki::open(dir).unwrap();
    w.create_page(
        "Public",
        Acl::new()
            .grant("*", &[Right::Read])
            .grant("alice", &[Right::Write]),
        "welcome all",
        "alice",
    );
    w.create_page(
        "Secret",
        Acl::new().grant("alice", &[Right::Read, Right::Write]),
        "the secret plans",
        "alice",
    );
    w
}

#[test]
fn wiki_acl_attacks_fail_closed_after_restart() {
    let dir = tmp_dir("wiki-restart");
    {
        let _w = seeded_wiki(&dir);
        // Dropped with no checkpoint: WAL-only recovery.
    }
    let mut w = MoinWiki::open(&dir).unwrap();
    assert!(w.has_page("Secret"), "pages recovered");

    // The raw endpoint (no app ACL check): the revived PagePolicy blocks.
    let mut r = Response::for_user("mallory");
    let err = w.view_page_raw("Secret", &mut r, "mallory").unwrap_err();
    assert!(err.is_violation(), "read ACL survives restart");
    assert!(!r.body().contains("secret plans"));

    // Vandalism: the persistent AclWriteFilter (a filter xattr) survives.
    let err = w.edit_page("Secret", "defaced", "mallory").unwrap_err();
    assert!(err.is_violation(), "write ACL survives restart");

    // Authorized flows keep working.
    let mut r = Response::for_user("alice");
    w.view_page("Secret", &mut r, "alice").unwrap();
    assert!(r.body().contains("secret plans"));
    w.edit_page("Secret", "v2 plans", "alice").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wiki_acl_attacks_fail_closed_after_checkpoint_and_torn_tail() {
    let dir = tmp_dir("wiki-torn");
    {
        let mut w = seeded_wiki(&dir);
        w.checkpoint().unwrap();
        // Post-checkpoint edit whose WAL record the crash will tear.
        w.edit_page("Public", "edit lost to the crash", "alice")
            .unwrap();
    }
    // Checkpoint compaction rotated the log: tear the active (last)
    // segment, wherever rotation left it.
    let wal = resin::store::segment::list_segments(&dir)
        .unwrap()
        .pop()
        .unwrap()
        .1;
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let mut w = MoinWiki::open(&dir).unwrap();
    assert!(
        w.vfs.recovered_from_torn_wal(),
        "tear observable on the vfs"
    );
    // The torn edit is gone; the checkpointed state is intact.
    let mut r = Response::for_user("anyone");
    w.view_page("Public", &mut r, "anyone").unwrap();
    assert!(r.body().contains("welcome all"), "checkpoint state intact");
    assert!(!r.body().contains("lost to the crash"));
    // And the attacks still fail closed.
    let mut r = Response::for_user("mallory");
    let err = w.view_page_raw("Secret", &mut r, "mallory").unwrap_err();
    assert!(err.is_violation());
    assert!(w.edit_page("Secret", "defaced", "mallory").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

// ---- restart-survival attacks: the served forum ----

use resin::apps::webapp::ForumApp;
use resin::web::server::WebApp;
use resin::web::{Request, SessionStore};

#[test]
fn forum_stored_xss_still_blocked_after_reopen() {
    let dir = tmp_dir("forum-reopen");
    let post_id;
    {
        let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap();
        post_id = app.seed_post(&TaintedString::with_policy(
            "<script>steal(document.cookie)</script>",
            Arc::new(UntrustedData::from_source("http_param")),
        ));
        // Dropped with no checkpoint.
    }
    let app = ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap();

    // The buggy raw endpoint: recovered taint must still trip the XSS
    // assertion.
    let req = Request::get("/view_raw").with_param("id", &post_id.to_string());
    let mut resp = Response::for_user("guest");
    let err = app.handle(&req, &mut resp).unwrap_err();
    assert!(err.is_violation(), "stored XSS fails closed after restart");
    assert!(!resp.body().contains("<script>"));

    // The correct endpoint renders it escaped.
    let req = Request::get("/view").with_param("id", &post_id.to_string());
    let mut resp = Response::for_user("guest");
    app.handle(&req, &mut resp).unwrap();
    assert!(resp.body().contains("&lt;script&gt;"));

    // New posts continue above the recovered id space.
    let fresh = app.seed_post(&TaintedString::from("fresh post"));
    assert!(fresh > post_id, "next_id recovered past persisted rows");
    std::fs::remove_dir_all(&dir).ok();
}
