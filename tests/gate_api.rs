//! Integration suite for the `Gate` API: composition, deny vs strip
//! rules, filter-chain ordering, each surface's default gate, and
//! interned labels flowing through gate boundaries.

use std::sync::{Arc, Mutex};

use resin::prelude::*;

fn password(email: &str) -> TaintedString {
    TaintedString::with_policy("s3cret", Arc::new(PasswordPolicy::new(email)))
}

// ---- composition ----

#[test]
fn gate_composes_kind_context_rules_and_filters() {
    let mut gate = Gate::internal("audit")
        .deny::<UntrustedData>()
        .strip::<PasswordPolicy>();
    gate.add_filter(Box::new(DefaultFilter));
    gate.add_filter(Box::new(FnFilter::on_write(|d, _, _| {
        Ok(d.replace_str("\r\n", " "))
    })));
    gate.context_mut()
        .set("user", "alice")
        .set("retries", 2i64)
        .set("admin", false);

    assert_eq!(gate.kind(), &GateKind::Custom("audit"));
    assert_eq!(gate.name(), Some("audit"));
    assert_eq!(gate.context().get_str("user"), Some("alice"));
    assert_eq!(gate.context().get_int("retries"), Some(2));
    assert!(!gate.context().get_flag("admin"));
    assert_eq!(gate.context().channel_type(), "audit");
    assert_eq!(gate.context().len(), 3, "the entries set, and no `type`");
    assert_eq!(gate.rule_count(), 2);
    assert_eq!(gate.filter_count(), 2, "default filter + explicit filter");

    gate.write_str("a\r\nb").unwrap();
    assert_eq!(gate.output_text(), "a b");
}

#[test]
fn unguarded_builder_has_no_default_filter() {
    let gate = Gate::unguarded(GateKind::Http);
    assert_eq!(gate.filter_count(), 0);
    // A password flows out unchecked: the "unmodified PHP" baseline.
    assert!(gate.export(password("u@x")).is_ok());
}

// ---- deny vs strip ----

#[test]
fn deny_rule_refuses_labeled_data() {
    let gate = Gate::internal("auth").deny::<PasswordPolicy>();
    let err = gate.export(password("u@x")).unwrap_err();
    assert!(err.is_violation());
    let v = err.as_violation().unwrap();
    assert_eq!(v.policy, "auth", "violation names the gate: {v}");
    assert_eq!(
        v.reason,
        Reason::DenyRule(std::any::type_name::<PasswordPolicy>())
    );
    assert!(gate.export(TaintedString::from("public")).is_ok());
}

#[test]
fn strip_rule_declassifies_and_allows() {
    let gate = Gate::internal("auth.hash").strip::<PasswordPolicy>();
    let out = gate.export(password("u@x")).unwrap();
    assert_eq!(out.as_str(), "s3cret");
    assert!(!out.has_policy::<PasswordPolicy>());
}

#[test]
fn deny_and_strip_compose_on_one_gate() {
    let gate = Gate::internal("m")
        .deny::<UntrustedData>()
        .strip::<PasswordPolicy>();
    // Password: stripped, allowed.
    assert!(gate.export(password("u@x")).unwrap().label().is_empty());
    // Untrusted: denied even though another rule would strip.
    let evil = TaintedString::with_policy("x", Arc::new(UntrustedData::new()));
    assert!(gate.export(evil).is_err());
}

#[test]
fn strip_runs_before_default_filter_check() {
    // On a guarded gate, strip declassifies before export_check would fire.
    let mut gate = Gate::new(GateKind::Http).strip::<PasswordPolicy>();
    gate.write(password("u@x")).unwrap();
    assert_eq!(gate.output_text(), "s3cret");
}

#[test]
fn deny_applies_to_any_labeled_byte() {
    let gate = Gate::internal("auth").deny::<PasswordPolicy>();
    let mut msg = TaintedString::from("prefix ");
    msg.push_tainted(&password("u@x"));
    assert!(gate.export(msg).is_err(), "any labeled byte is enough");
}

// ---- filter-chain ordering ----

#[test]
fn filters_run_in_insertion_order_on_write() {
    let mut gate = Gate::unguarded(GateKind::Custom("order"));
    for n in 1..=3 {
        gate.add_filter(Box::new(FnFilter::on_write(move |d, _, _| {
            Ok(TaintedString::from(format!("{}{n}", d.as_str()).as_str()))
        })));
    }
    assert_eq!(
        gate.export(TaintedString::from("x")).unwrap().as_str(),
        "x123"
    );
}

#[test]
fn filters_run_in_insertion_order_on_read() {
    let mut gate = Gate::unguarded(GateKind::Socket);
    gate.add_filter(Box::new(FnFilter::on_read(|d, _, _| {
        Ok(TaintedString::from(format!("{}a", d.as_str()).as_str()))
    })));
    gate.add_filter(Box::new(FnFilter::on_read(|d, _, _| {
        Ok(TaintedString::from(format!("{}b", d.as_str()).as_str()))
    })));
    assert_eq!(
        gate.read(TaintedString::from("in")).unwrap().as_str(),
        "inab"
    );
}

#[test]
fn added_filter_runs_after_default_filter() {
    // add_filter appends: a password is rejected by the default filter
    // before the appended filter ever sees it.
    let hits = Arc::new(Mutex::new(0usize));
    let hits2 = Arc::clone(&hits);
    let mut gate = Gate::new(GateKind::Http);
    gate.add_filter(Box::new(FnFilter::on_write(move |d, _, _| {
        *hits2.lock().unwrap() += 1;
        Ok(d)
    })));
    assert!(gate.write(password("u@x")).is_err());
    assert_eq!(*hits.lock().unwrap(), 0, "default filter fired first");
    gate.write_str("ok").unwrap();
    assert_eq!(*hits.lock().unwrap(), 1);
}

#[test]
fn failed_write_leaves_no_output_and_offset_untouched() {
    let mut gate = Gate::new(GateKind::Http);
    assert!(gate.write(password("u@x")).is_err());
    assert_eq!(gate.output_mark(), 0);
    assert_eq!(gate.write_offset(), 0);
    gate.write_str("ok").unwrap();
    assert_eq!(gate.write_offset(), 2);
}

// ---- function-call boundaries ----

#[test]
fn call_runs_args_outbound_and_return_inbound() {
    let mut gate = Gate::unguarded(GateKind::Custom("hash")).strip::<PasswordPolicy>();
    gate.add_filter(Box::new(FnFilter::on_read(|mut d, _, _| {
        d.add_policy(Arc::new(AuthenticData::new()) as PolicyRef);
        Ok(d)
    })));
    let out = gate
        .call(vec![password("u@x")], |args| {
            assert!(!args[0].has_policy::<PasswordPolicy>(), "arg declassified");
            Ok(TaintedString::from("digest"))
        })
        .unwrap();
    assert!(out.has_policy::<AuthenticData>(), "return value labeled");
}

// ---- each surface's default gate ----

#[test]
fn registry_serves_figure2_scenario_end_to_end() {
    let rt = Runtime::global();
    let mut body = TaintedString::from("Your password is: ");
    body.push_tainted(&password("u@foo.com"));

    let mut http = rt.open(GateKind::Http);
    assert!(http.write(body.clone()).unwrap_err().is_violation());
    assert_eq!(http.output_text(), "");

    let mut mail = rt.open(GateKind::Email);
    mail.context_mut().set_str("email", "u@foo.com");
    mail.write(body.clone()).unwrap();
    assert!(mail.output_text().contains("s3cret"));

    let mut wrong = rt.open(GateKind::Email);
    wrong.context_mut().set_str("email", "evil@foo.com");
    assert!(wrong.write(body).is_err());
}

#[test]
fn registry_defaults_guard_checking_surfaces_only() {
    let rt = Runtime::global();
    for kind in [
        GateKind::Http,
        GateKind::Email,
        GateKind::Socket,
        GateKind::Pipe,
        GateKind::CodeImport,
    ] {
        assert_eq!(rt.open(kind.clone()).filter_count(), 1, "{kind} guarded");
    }
    // Persistence surfaces: vfs/sql mount their own filters.
    assert_eq!(rt.open(GateKind::File).filter_count(), 0);
    assert_eq!(rt.open(GateKind::Sql).filter_count(), 0);
}

#[test]
fn registry_open_returns_fresh_gates() {
    let rt = Runtime::global();
    let mut a = rt.open(GateKind::Http);
    a.write_str("state").unwrap();
    let b = rt.open(GateKind::Http);
    assert_eq!(b.output_mark(), 0, "no shared state between opens");
}

#[test]
fn unregistered_custom_surface_falls_back_guarded() {
    let mut gate = Runtime::global().open(GateKind::Custom("unknown-surface"));
    assert_eq!(gate.filter_count(), 1, "fallback gets the default filter");
    assert!(gate.write(password("u@x")).is_err());
}

// ---- interned labels across gates ----

#[test]
fn labels_survive_gate_transit_with_same_handle() {
    // A label is a canonical handle: the data that crosses a gate carries
    // the *same* interned label out the other side.
    let mut body = TaintedString::from("pfx ");
    body.push_tainted(&password("u@x"));
    let label = body.label();

    let mut mail = Gate::new(GateKind::Email);
    mail.context_mut().set("email", "u@x");
    mail.write(body).unwrap();
    assert_eq!(mail.output().label(), label, "same handle after transit");
}

#[test]
fn strip_rule_rewrites_labels() {
    let gate = Gate::internal("auth.hash").strip::<PasswordPolicy>();
    let mut data = password("u@x");
    data.add_policy(Arc::new(UntrustedData::new()));
    let out = gate.export(data).unwrap();
    let label = out.label();
    assert!(!label.has::<PasswordPolicy>(), "stripped");
    assert!(label.has::<UntrustedData>(), "unrelated policy kept");
    assert_eq!(
        label,
        Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
        "canonical single-policy label"
    );
}

#[test]
fn policy_set_compat_view_mirrors_labels() {
    // A label is the policy set: equal sets built apart are one handle.
    let data = password("u@x");
    let label = data.label();
    assert!(label.has::<PasswordPolicy>());
    assert_eq!(label.policies().len(), 1);
    assert_eq!(label, password("u@x").label());
}
