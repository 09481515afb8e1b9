//! A store written through the single-threaded `ResinDb` front that
//! existed before the SQL fronts were merged must open byte- and
//! label-identically under the one front there is now.
//!
//! `tests/fixtures/parent_front_store/` holds such a store — one checkpoint
//! plus a WAL tail — written at commit a3c50d6 by the `workload` below (its
//! README says how), together with a dump of what that front held when it
//! finished. The tests reopen a copy and compare cell by cell, then write
//! the same workload afresh and compare the files byte for byte: the
//! on-disk format did not move.
//!
//! `tests/fixtures/parent_vfs_store/` is the vfs twin: a wiki store written
//! at commit 0c3effa by `vfs_workload` below through `Vfs::open_disk` and
//! `MoinWiki`, before the vfs lost its durability `Backend`, with the
//! `vfs_dump` of what it held.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use resin::apps::MoinWiki;
use resin::core::prelude::*;
use resin::sql::{GuardMode, Recovery, ResinDb, TCell, Tracking, Value};
use resin::vfs::{Vfs, VfsError, XATTR_FILTER, XATTR_POLICY};

fn untrusted(s: &str) -> TaintedString {
    TaintedString::with_policy(s, Arc::new(UntrustedData::from_source("http_param")))
}

fn password(s: &str, owner: &str) -> TaintedString {
    TaintedString::with_policy(s, Arc::new(PasswordPolicy::new(owner)))
}

fn splice(parts: &[&dyn Fn(&mut TaintedString)]) -> TaintedString {
    let mut q = TaintedString::new();
    for p in parts {
        p(&mut q);
    }
    q
}

fn workload(db: &ResinDb) {
    db.query_str("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, pw TEXT)")
        .unwrap();
    db.query_str("CREATE TABLE notes (id INTEGER, body TEXT)")
        .unwrap();
    db.query_str("CREATE INDEX ix_notes_id ON notes (id) USING HASH")
        .unwrap();
    // A password under its owner's policy, beside an untainted name.
    let q = splice(&[
        &|q| q.push_str("INSERT INTO users VALUES (1, 'ada', '"),
        &|q| q.push_tainted(&password("s3cret", "ada@example.com")),
        &|q| q.push_str("')"),
    ]);
    db.query(&q).unwrap();
    // A hostile name the AutoSanitize guard rewrites before it is logged,
    // and a tainted integer.
    let q = splice(&[
        &|q| q.push_str("INSERT INTO users VALUES ("),
        &|q| q.push_tainted(&untrusted("2")),
        &|q| q.push_str(", '"),
        &|q| q.push_tainted(&untrusted("o'hara' OR '1'='1")),
        &|q| q.push_str("', '"),
        &|q| q.push_tainted(&password("hunter2", "ohara@example.com")),
        &|q| q.push_str("')"),
    ]);
    db.query(&q).unwrap();
    // Bound values: labels ride the values, quotes are re-escaped in the WAL.
    let ins = db.prepare("INSERT INTO notes VALUES (?, ?)").unwrap();
    let mut half = TaintedString::from("plain then ");
    half.push_tainted(&untrusted("it's ''tainted''"));
    db.exec_prepared(&ins, vec![1i64.into(), half.into()])
        .unwrap();
    let mut n = Tainted::new(2i64);
    n.add_policy(Arc::new(UntrustedData::from_source("cookie")));
    db.exec_prepared(&ins, vec![n.into(), resin::sql::BindValue::Null])
        .unwrap();
    // A committed transaction (one atomic WAL record) and a rolled-back one.
    {
        let mut txn = db.begin();
        txn.query_str("INSERT INTO notes VALUES (3, 'in txn')")
            .unwrap();
        let q = splice(&[
            &|q| q.push_str("UPDATE users SET name = '"),
            &|q| q.push_tainted(&untrusted("Ada L.")),
            &|q| q.push_str("' WHERE id = 1"),
        ]);
        txn.query(&q).unwrap();
        txn.commit().unwrap();
    }
    {
        let mut txn = db.begin();
        txn.query_str("DELETE FROM users").unwrap();
        txn.rollback();
    }

    db.checkpoint().unwrap();

    // The WAL tail after the checkpoint.
    let q = splice(&[
        &|q| q.push_str("UPDATE users SET pw = '"),
        &|q| q.push_tainted(&password("n3w-pw", "ada@example.com")),
        &|q| q.push_str("' WHERE id = 1"),
    ]);
    db.query(&q).unwrap();
    let mut both = untrusted("tail ");
    both.push_tainted(&password("secret tail", "ada@example.com"));
    db.exec_prepared(&ins, vec![4i64.into(), both.into()])
        .unwrap();
    db.query_str("DELETE FROM notes WHERE id = 3").unwrap();
    // Logged, then fails execution: replays as the same no-op.
    assert!(db.query_str("INSERT INTO missing VALUES (1)").is_err());
    db.query_str("CREATE TABLE late (k TEXT)").unwrap();
    let q = splice(&[
        &|q| q.push_str("INSERT INTO late VALUES ('"),
        &|q| q.push_tainted(&untrusted("after the checkpoint")),
        &|q| q.push_str("')"),
    ]);
    db.query(&q).unwrap();
}

/// Every table as the engine stores it (policy columns included) and as
/// a `SELECT *` revives it, one cell per line.
fn dump(db: &ResinDb) -> String {
    let mut out = String::new();
    for name in db.table_names() {
        let t = db.snapshot_table(&name).unwrap();
        let cols: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
        writeln!(out, "table {name} columns {cols:?}").unwrap();
        for ix in t.indexes() {
            writeln!(
                out,
                "  index {} on {} {:?}",
                ix.name(),
                ix.column(),
                ix.kind()
            )
            .unwrap();
        }
        for (r, row) in t.rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                let v = match v {
                    Value::Null => "NULL".to_string(),
                    Value::Int(i) => format!("int {i}"),
                    Value::Text(s) => format!("text {s:?}"),
                };
                writeln!(out, "  raw {r}.{} = {v}", cols[c]).unwrap();
            }
        }
        let res = db.query_str(&format!("SELECT * FROM {name}")).unwrap();
        for (r, row) in res.rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                let v = match cell {
                    TCell::Null => "NULL".to_string(),
                    TCell::Int(i) => {
                        format!("int {} label {:?}", i.value(), serialize_label(i.label()))
                    }
                    TCell::Text(t) => {
                        format!("text {:?} spans {:?}", t.as_str(), serialize_spans(t))
                    }
                };
                writeln!(out, "  cell {r}.{} = {v}", res.columns[c]).unwrap();
            }
        }
    }
    out
}

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/parent_front_store"
);

/// The store's own files: everything in the fixture but its notes.
fn store_files() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(FIXTURE)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "expected.txt" && n != "README.md")
        .collect();
    names.sort();
    names
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("resin-fixture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &std::path::Path) -> ResinDb {
    ResinDb::open_with_modes(dir, Tracking::On, GuardMode::AutoSanitize).unwrap()
}

#[test]
fn store_written_by_the_single_threaded_front_reopens_identically() {
    let dir = tmp_dir("reopen");
    for name in store_files() {
        std::fs::copy(format!("{FIXTURE}/{name}"), dir.join(&name)).unwrap();
    }
    let db = open(&dir);
    assert_eq!(db.recovery(), Recovery::Clean);
    let expected = std::fs::read_to_string(format!("{FIXTURE}/expected.txt")).unwrap();
    let got = dump(&db);
    for (line, (want, got)) in expected.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "expected.txt line {}", line + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
    // Revived policies still guard: the recovered password cannot leave
    // through an HTTP gate.
    let r = db.query_str("SELECT pw FROM users WHERE id = 2").unwrap();
    let pw = r.cell(0, "pw").unwrap().as_text().unwrap().clone();
    assert!(Gate::new(GateKind::Http)
        .write(pw)
        .unwrap_err()
        .is_violation());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_same_workload_writes_the_same_bytes() {
    let dir = tmp_dir("rewrite");
    {
        let db = open(&dir);
        workload(&db);
    }
    for name in store_files() {
        assert_eq!(
            std::fs::read(dir.join(&name)).unwrap(),
            std::fs::read(format!("{FIXTURE}/{name}")).unwrap(),
            "{name} differs from the parent's"
        );
    }
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, store_files(), "no file more, no file less");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the vfs twin ----

fn wiki_acl() -> Acl {
    Acl::new()
        .grant("*", &[Right::Read])
        .grant("alice", &[Right::Write])
}

fn secret_acl() -> Acl {
    Acl::new().grant("alice", &[Right::Read, Right::Write])
}

/// Writes the vfs fixture's store into `dir`: a checkpoint, then a WAL
/// tail, each holding page versions under `PagePolicy`, persistent write
/// filters, raw xattrs and writes that failed before they were logged.
pub fn vfs_workload(dir: &Path) -> MoinWiki {
    let anon = Vfs::anonymous_ctx();
    let mut wiki = MoinWiki::open(dir).unwrap();
    wiki.create_page("Front", wiki_acl(), "welcome all", "alice");
    wiki.create_page("Secret", secret_acl(), "the secret plans", "alice");
    // Denied by the page directory's `AclWriteFilter`: never logged.
    assert!(wiki
        .edit_page("Secret", "defaced", "mallory")
        .unwrap_err()
        .is_violation());
    let fs = &mut wiki.vfs;
    fs.mkdir_p("/notes", &anon).unwrap();
    let mut mixed = TaintedString::from("public part, secret part");
    mixed.add_policy_range(13..24, Arc::new(PagePolicy::new(secret_acl())));
    fs.write_file("/notes/mixed", &mixed, &anon).unwrap();
    fs.set_xattr("/notes", "user.comment", "a raw xattr, stored as written")
        .unwrap();
    wiki.checkpoint().unwrap();

    // The WAL tail after the checkpoint.
    wiki.edit_page("Front", "welcome, second edition", "alice")
        .unwrap();
    assert!(wiki
        .edit_page("Front", "vandalised", "bob")
        .unwrap_err()
        .is_violation());
    let fs = &mut wiki.vfs;
    let mut draft = TaintedString::from("draft: ");
    draft.push_tainted(&untrusted("from a form"));
    fs.write_file("/notes/draft", &draft, &anon).unwrap();
    fs.rename("/notes/draft", "/notes/final", &anon).unwrap();
    fs.write_file("/notes/scratch", &TaintedString::from("short-lived"), &anon)
        .unwrap();
    fs.unlink("/notes/scratch", &anon).unwrap();
    fs.set_xattr("/pages/Secret", "user.comment", "set after the checkpoint")
        .unwrap();
    // A directory in the way: fails before anything is logged.
    assert!(matches!(
        fs.write_file("/notes", &TaintedString::from("x"), &anon),
        Err(VfsError::IsADirectory(_))
    ));
    wiki
}

/// Every path of the tree with its xattrs, and every file's raw content
/// and the spans a read as `alice` revives, one fact per line.
pub fn vfs_dump(fs: &Vfs) -> String {
    fn walk(fs: &Vfs, path: &str, out: &mut String) {
        for key in [XATTR_POLICY, XATTR_FILTER, "user.moin.acl", "user.comment"] {
            if let Some(v) = fs.get_xattr(path, key).unwrap() {
                writeln!(out, "{path} xattr {key} = {v:?}").unwrap();
            }
        }
        if fs.is_dir(path) {
            writeln!(out, "{path} dir").unwrap();
            for (name, _) in fs.list_dir(path).unwrap() {
                let child = format!("{}/{name}", path.trim_end_matches('/'));
                walk(fs, &child, out);
            }
        } else {
            let raw = fs.read_raw(path).unwrap();
            let back = fs.read_file(path, &Vfs::user_ctx("alice")).unwrap();
            assert_eq!(back.as_str(), raw);
            writeln!(
                out,
                "{path} file {raw:?} spans {:?}",
                serialize_spans(&back)
            )
            .unwrap();
        }
    }
    let mut out = String::new();
    walk(fs, "/", &mut out);
    out
}

const VFS_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/parent_vfs_store"
);

fn vfs_store_files() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(VFS_FIXTURE)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "expected.txt" && n != "README.md")
        .collect();
    names.sort();
    names
}

#[test]
fn vfs_store_written_before_the_backend_went_reopens_identically() {
    let dir = tmp_dir("vfs-reopen");
    for name in vfs_store_files() {
        std::fs::copy(format!("{VFS_FIXTURE}/{name}"), dir.join(&name)).unwrap();
    }
    let mut fs = Vfs::open_disk(&dir).unwrap();
    assert_eq!(fs.recovery(), Recovery::Clean);
    let expected = std::fs::read_to_string(format!("{VFS_FIXTURE}/expected.txt")).unwrap();
    let got = vfs_dump(&fs);
    for (line, (want, got)) in expected.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "expected.txt line {}", line + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
    // The persisted write filter still guards its page.
    let err = fs
        .write_file(
            "/pages/Secret/v1",
            &TaintedString::from("defaced"),
            &Vfs::user_ctx("mallory"),
        )
        .unwrap_err();
    assert!(err.is_violation());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_same_vfs_workload_writes_the_same_bytes() {
    let dir = tmp_dir("vfs-rewrite");
    drop(vfs_workload(&dir));
    for name in vfs_store_files() {
        assert_eq!(
            std::fs::read(dir.join(&name)).unwrap(),
            std::fs::read(format!("{VFS_FIXTURE}/{name}")).unwrap(),
            "{name} differs from the parent's"
        );
    }
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, vfs_store_files(), "no file more, no file less");
    std::fs::remove_dir_all(&dir).ok();
}
