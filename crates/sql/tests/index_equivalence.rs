//! Index probes must be invisible: every query answered through an index
//! returns bit-identical results — values AND per-byte labels — to the
//! same query answered by a full scan, and a probe can never launder
//! taint past a checking gate.
//!
//! The differential harness runs randomized workloads (inserts with
//! mixed taint, updates, deletes, then a bag of query shapes) against
//! two databases that differ only in their indexes, and compares every
//! outcome — including errors, which must agree byte for byte. Policy
//! objects are shared `Arc`s, so equal taint interns to equal labels
//! and the comparison can use label identity, not just policy names.

use std::sync::Arc;

use proptest::TestRng;
use resin_core::{Gate, GateKind, Label, PasswordPolicy, Tainted, TaintedString, UntrustedData};
use resin_sql::{ResinDb, TCell, TaintedResult};

/// One shared policy instance per flavor: both databases label with the
/// same `Arc`, so identical taint means identical interned labels.
struct Policies {
    untrusted: Arc<UntrustedData>,
    password: Arc<PasswordPolicy>,
}

impl Policies {
    fn new() -> Self {
        Policies {
            untrusted: Arc::new(UntrustedData::new()),
            password: Arc::new(PasswordPolicy::new("victim@example.com")),
        }
    }
}

const NAME_POOL: &[&str] = &["alice", "bob", "carol", "dave", "erin", "frank"];

/// A randomly labeled name: untainted, fully tainted, or tainted only on
/// a suffix (so the per-byte comparison has real spans to disagree on).
fn rand_name(rng: &mut TestRng, p: &Policies) -> TaintedString {
    let base = NAME_POOL[rng.below(NAME_POOL.len() as u64) as usize];
    match rng.below(4) {
        0 => TaintedString::from(base),
        1 => {
            let mut t = TaintedString::from(base);
            t.add_policy(p.untrusted.clone());
            t
        }
        2 => {
            let mut t = TaintedString::from(base);
            t.add_policy(p.password.clone());
            t
        }
        _ => {
            let mut t = TaintedString::from("u-");
            let mut tail = TaintedString::from(base);
            tail.add_policy(p.untrusted.clone());
            t.push_tainted(&tail);
            t
        }
    }
}

/// Builds the same random table in both databases via prepared inserts
/// (bound values carry the labels), then applies the same mutations.
fn populate(rng: &mut TestRng, p: &Policies, dbs: &[&ResinDb; 2]) {
    let rows = 10 + rng.below(30);
    for _ in 0..rows {
        let id = rng.below(20) as i64;
        let name = rand_name(rng, p);
        let age: Option<i64> = if rng.below(8) == 0 {
            None
        } else {
            Some(rng.below(50) as i64)
        };
        let tainted_id = rng.below(5) == 0;
        for db in dbs {
            let ins = db.prepare("INSERT INTO t VALUES (?, ?, ?)").unwrap();
            let id_bind = if tainted_id {
                let mut t = Tainted::new(id);
                t.add_policy(p.untrusted.clone());
                t.into()
            } else {
                id.into()
            };
            let age_bind = match age {
                Some(a) => a.into(),
                None => resin_sql::BindValue::Null,
            };
            db.exec_prepared(&ins, vec![id_bind, (&name).into(), age_bind])
                .unwrap();
        }
    }
    for _ in 0..rng.below(6) {
        let stmt = match rng.below(3) {
            0 => format!(
                "UPDATE t SET age = {} WHERE id = {}",
                rng.below(50),
                rng.below(20)
            ),
            1 => format!(
                "UPDATE t SET name = '{}' WHERE age > {}",
                NAME_POOL[rng.below(NAME_POOL.len() as u64) as usize],
                rng.below(50)
            ),
            _ => format!("DELETE FROM t WHERE id = {}", rng.below(20)),
        };
        for db in dbs {
            db.query_str(&stmt).unwrap();
        }
    }
}

/// A random query from the shapes the planner cares about. Some order by
/// the nullable column, so the NULL-key error path must also agree.
fn rand_query(rng: &mut TestRng) -> String {
    match rng.below(7) {
        0 => format!("SELECT id, name, age FROM t WHERE id = {}", rng.below(20)),
        1 => format!(
            "SELECT name FROM t WHERE name = '{}'",
            NAME_POOL[rng.below(NAME_POOL.len() as u64) as usize]
        ),
        2 => {
            let a = rng.below(15);
            format!(
                "SELECT id, name FROM t WHERE id >= {a} AND id < {} ORDER BY id",
                a + rng.below(10)
            )
        }
        3 => format!(
            "SELECT id, age FROM t WHERE age > {} ORDER BY id DESC LIMIT {}",
            rng.below(50),
            1 + rng.below(5)
        ),
        4 => format!(
            "SELECT name FROM t WHERE id IN ({}, {}, {})",
            rng.below(20),
            rng.below(20),
            rng.below(20)
        ),
        5 => format!(
            "SELECT id, name FROM t WHERE name LIKE '%{}%'",
            &NAME_POOL[rng.below(NAME_POOL.len() as u64) as usize][..2]
        ),
        _ => "SELECT id, name, age FROM t ORDER BY age LIMIT 4".to_string(),
    }
}

fn label_eq(a: Label, b: Label) -> bool {
    a == b
}

fn assert_cell_eq(a: &TCell, b: &TCell, ctx: &str) {
    match (a, b) {
        (TCell::Null, TCell::Null) => {}
        (TCell::Int(x), TCell::Int(y)) => {
            assert_eq!(x.value(), y.value(), "{ctx}: int value");
            assert!(label_eq(x.label(), y.label()), "{ctx}: int label");
        }
        (TCell::Text(x), TCell::Text(y)) => {
            assert_eq!(x.as_str(), y.as_str(), "{ctx}: text");
            for i in 0..x.len() {
                assert!(
                    label_eq(x.label_at(i), y.label_at(i)),
                    "{ctx}: label at byte {i} of {:?}",
                    x.as_str()
                );
            }
        }
        _ => panic!("{ctx}: cell kinds differ: {a:?} vs {b:?}"),
    }
}

fn assert_same_outcome(
    a: Result<TaintedResult, resin_sql::SqlError>,
    b: Result<TaintedResult, resin_sql::SqlError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.columns, b.columns, "{ctx}: columns");
            assert_eq!(a.rows.len(), b.rows.len(), "{ctx}: row count");
            for (i, (ra, rb)) in a.rows.iter().zip(b.rows.iter()).enumerate() {
                assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} width");
                for (j, (ca, cb)) in ra.iter().zip(rb.iter()).enumerate() {
                    assert_cell_eq(ca, cb, &format!("{ctx}: row {i} col {j}"));
                }
            }
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{ctx}: error text");
        }
        (a, b) => panic!("{ctx}: outcomes differ:\n indexed={a:?}\n scanned={b:?}"),
    }
}

#[test]
fn probe_and_scan_agree_on_values_and_labels() {
    let p = Policies::new();
    let seed = proptest::seed_from_name("probe_and_scan_agree_on_values_and_labels");
    let mut probes_planned = 0usize;
    for case in 0..48u64 {
        let mut rng = TestRng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let indexed = ResinDb::new();
        let scanned = ResinDb::new();
        for db in [&indexed, &scanned] {
            db.query_str("CREATE TABLE t (id INTEGER, name TEXT, age INTEGER)")
                .unwrap();
        }
        // A random non-empty subset of indexes, random kinds.
        let mut any = false;
        for (col, flip) in [("id", 1u64), ("name", 2), ("age", 4)] {
            if rng.below(8) & flip != 0 {
                let kind = if rng.below(2) == 0 { "HASH" } else { "BTREE" };
                indexed
                    .query_str(&format!("CREATE INDEX ix_{col} ON t ({col}) USING {kind}"))
                    .unwrap();
                any = true;
            }
        }
        if !any {
            indexed
                .query_str("CREATE INDEX ix_id ON t (id) USING BTREE")
                .unwrap();
        }
        populate(&mut rng, &p, &[&indexed, &scanned]);
        for q in 0..8 {
            let sql = rand_query(&mut rng);
            if let Ok(plan) = indexed.explain(&sql) {
                if plan.contains("probe") {
                    probes_planned += 1;
                }
            }
            let ctx = format!("case {case} query {q}: {sql}");
            assert_same_outcome(indexed.query_str(&sql), scanned.query_str(&sql), &ctx);
        }
    }
    // The generator must actually exercise the probe paths, not just
    // degenerate to scans on both sides.
    assert!(
        probes_planned > 50,
        "only {probes_planned} probes planned across all cases"
    );
}

#[test]
fn index_probe_cannot_launder_taint_past_a_checking_gate() {
    // The adversarial read path: an attacker-controlled (tainted) key
    // drives an index probe for a password-labeled secret. The probe
    // touches index keys built from raw values — if labels didn't travel
    // with the stored cells, this exact path would launder the password
    // policy. The HTTP gate must still refuse the export.
    let db = ResinDb::new();
    db.query_str("CREATE TABLE secrets (id INTEGER PRIMARY KEY, pw TEXT)")
        .unwrap();
    let ins = db.prepare("INSERT INTO secrets VALUES (?, ?)").unwrap();
    let mut pw = TaintedString::from("hunter2");
    pw.add_policy(Arc::new(PasswordPolicy::new("victim@example.com")));
    db.exec_prepared(&ins, vec![1i64.into(), pw.into()])
        .unwrap();

    // Prove the lookup is really an index probe, not a scan.
    let plan = db.explain("SELECT pw FROM secrets WHERE id = 1").unwrap();
    assert!(plan.contains("probe"), "expected an index probe: {plan}");

    let sel = db.prepare("SELECT pw FROM secrets WHERE id = ?").unwrap();
    let mut key = Tainted::new(1i64);
    key.add_policy(Arc::new(UntrustedData::new()));
    let r = db.exec_prepared(&sel, vec![key.into()]).unwrap();
    let got = r.cell(0, "pw").unwrap().as_text().unwrap().to_owned();
    assert_eq!(got.as_str(), "hunter2");
    assert!(
        got.has_policy::<PasswordPolicy>(),
        "probe result keeps the stored label"
    );

    let mut gate = Gate::new(GateKind::Http);
    let err = gate.write(got).unwrap_err();
    assert!(err.is_violation(), "gate must refuse: {err}");
    assert_eq!(gate.output_text(), "", "denied write leaked nothing");
}
