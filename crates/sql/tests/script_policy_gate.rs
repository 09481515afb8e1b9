//! Script policies riding through the SQL layer and enforced on export.
//!
//! The sql gate is a *storage* surface (Figure 3): labeled data flows
//! into the database freely, the policy is serialized into a policy
//! column (§3.4.1 — class name + fields), and a SELECT revives it. The
//! check fires at a *checking* surface — here an HTTP gate — where the
//! revived policy's RSL `export_check` runs on the compiled-chunk VM
//! path; `pinned_engines_agree_before_and_after_persistence` re-runs the
//! crossing against the tree-walking oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use resin_core::{Gate, GateKind, TaintedStrBuilder, TaintedString};
use resin_lang::ast::StmtKind;
use resin_lang::{parse_program, Engine, Interp, PValue, ScriptPolicy};
use resin_sql::ResinDb;

/// Confines labeled data to one channel type (`"sql"`, `"http"`, ...).
const CHANNEL_ONLY_SRC: &str = r#"
class ChannelOnly {
    fn init(channel) { this.channel = channel; }
    fn export_check(context) {
        if (context["type"] == this.channel) { return; }
        throw "confined to " + this.channel;
    }
}
"#;

/// A `ChannelOnly(channel)` policy pinned to `engine`. Defining the
/// class through the interpreter (as an application would) registers it
/// with the process policy registry, so the sql layer can persist
/// instances into policy columns and revive them on read.
fn channel_only(channel: &str, engine: Engine) -> Arc<ScriptPolicy> {
    Interp::with_engine(engine)
        .run(CHANNEL_ONLY_SRC)
        .expect("policy class defines");
    let class = parse_program(CHANNEL_ONLY_SRC)
        .expect("policy parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("class decl");
    let mut fields = BTreeMap::new();
    fields.insert("channel".to_string(), PValue::Str(channel.to_string()));
    Arc::new(ScriptPolicy::new(class.name.clone(), fields, Some(class)).with_engine(engine))
}

fn insert_labeled(db: &ResinDb, id: i64, name: &str, policy: Arc<ScriptPolicy>) {
    let mut value = TaintedString::from(name);
    value.add_policy(policy);
    let mut q = TaintedStrBuilder::new();
    q.push_str(&format!("INSERT INTO users (id, name) VALUES ({id}, '"));
    q.push_tainted(&value);
    q.push_str("')");
    db.query(&q.build()).expect("labeled insert persists");
}

fn select_name(db: &ResinDb, id: i64) -> TaintedString {
    let rows = db
        .query_str(&format!("SELECT name FROM users WHERE id = {id}"))
        .unwrap();
    rows.cell(0, "name").unwrap().to_tainted_string()
}

#[test]
fn script_policy_survives_sql_and_enforces_at_http_gate() {
    let db = ResinDb::new();
    db.query_str("CREATE TABLE users (id INTEGER, name TEXT)")
        .unwrap();

    // Storage is not an export: both inserts succeed, policies and all.
    insert_labeled(&db, 1, "carol", channel_only("http", Engine::Vm));
    insert_labeled(&db, 2, "dave", channel_only("email", Engine::Vm));

    // The revived policy still guards the data at the checking surface:
    // the http-confined row crosses an HTTP gate, the email-confined one
    // is denied by its RSL export_check with the policy's own message.
    let mut http = Gate::new(GateKind::Http);
    http.write(select_name(&db, 1))
        .expect("http-confined data crosses the http gate");
    assert_eq!(http.output_text(), "carol");

    let err = http.write(select_name(&db, 2)).unwrap_err();
    assert!(err.is_violation(), "expected violation: {err}");
    assert!(
        err.to_string().contains("confined to email"),
        "policy's own message surfaces: {err}"
    );
    assert_eq!(http.output_text(), "carol", "denied write leaked nothing");
}

#[test]
fn pinned_engines_agree_before_and_after_persistence() {
    // Head-to-head: the same labeled value, pinned to each engine,
    // must get the same verdict at an HTTP gate both when exported
    // directly and when exported after a round trip through the db.
    for engine in [Engine::Tree, Engine::Vm] {
        let mut direct = TaintedString::from("dave");
        direct.add_policy(channel_only("email", engine));
        let mut http = Gate::new(GateKind::Http);
        let err = http.write(direct).unwrap_err();
        assert!(err.is_violation(), "direct export on {engine:?}: {err}");

        let db = ResinDb::new();
        db.query_str("CREATE TABLE users (id INTEGER, name TEXT)")
            .unwrap();
        insert_labeled(&db, 2, "dave", channel_only("email", engine));
        let err = http.write(select_name(&db, 2)).unwrap_err();
        assert!(err.is_violation(), "revived export on {engine:?}: {err}");
    }
}
