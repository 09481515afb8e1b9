//! End-to-end integration tests spanning the full workspace: the paper's
//! scenarios exercised through the public API of the meta-crate.

use std::sync::Arc;

use resin::core::prelude::*;
use resin::lang::Interp;
use resin::web::{Request, Response};

#[test]
fn table4_attack_matrix_holds() {
    // The central claim of the security evaluation: every exploit works
    // without its assertion and is prevented with it.
    let outcomes = resin::apps::run_all();
    assert!(outcomes.len() >= 24, "full attack suite present");
    for o in &outcomes {
        assert!(o.reproduced(), "{} / {}", o.app, o.attack);
    }
}

#[test]
fn request_inputs_are_untrusted_end_to_end() {
    // A request parameter flows through app logic into HTML; the XSS
    // marker guard fires unless the data passed the sanitizer.
    let req = Request::get("/comment").with_param("text", "<script>evil()</script>");
    let text = req.param("text").unwrap().clone();

    let mut page = TaintedString::from("<p>");
    page.push_tainted(&text);
    page.push_str("</p>");
    assert!(resin::web::check_html_markers(&page).is_err());

    let mut safe = TaintedString::from("<p>");
    safe.push_tainted(&resin::web::html_escape(&text));
    safe.push_str("</p>");
    assert!(resin::web::check_html_markers(&safe).is_ok());
}

#[test]
fn rsl_script_uses_rust_policies_and_channels() {
    // Script-defined policy classes and Rust-side stock policies enforce
    // on the same channels.
    let mut interp = Interp::new();
    let err = interp
        .run(
            r#"
        class ReviewPolicy {
            fn init(reviewer) { this.reviewer = reviewer; }
            fn export_check(context) {
                if (context["user"] == this.reviewer) { return; }
                throw "only the reviewer may see this";
            }
        }
        http_context("user", "someone_else");
        let review = policy_add("Strong accept", new ReviewPolicy("pc@conf.org"));
        echo(review);
    "#,
        )
        .unwrap_err();
    assert!(err.violation);
    assert_eq!(interp.http_output(), "");

    let mut ok = Interp::new();
    ok.run(
        r#"
        class ReviewPolicy {
            fn init(reviewer) { this.reviewer = reviewer; }
            fn export_check(context) {
                if (context["user"] == this.reviewer) { return; }
                throw "only the reviewer may see this";
            }
        }
        http_context("user", "pc@conf.org");
        let review = policy_add("Strong accept", new ReviewPolicy("pc@conf.org"));
        echo(review);
    "#,
    )
    .unwrap();
    assert_eq!(ok.http_output(), "Strong accept");
}

#[test]
fn tracking_off_interpreter_is_vulnerable() {
    // The same script leaks under the unmodified interpreter.
    let mut interp = Interp::with_tracking(Tracking::Off);
    interp
        .run(
            r#"
        let pw = policy_add("s3cret", "UntrustedData");
        echo("password: " + pw);
    "#,
        )
        .unwrap();
    assert!(interp.http_output().contains("s3cret"));
}

#[test]
fn output_buffering_yields_consistent_page() {
    // §5.5: a try block that partially emitted output must not leave the
    // page broken when the assertion raises mid-block.
    let mut r = Response::for_user("pc@conf.org");
    let secret = TaintedString::with_policy("alice", Arc::new(PasswordPolicy::new("x@y")));
    r.echo_str("<body>").unwrap();
    r.buffered_or(
        |r| {
            r.echo_str("<div>authors: ")?;
            r.echo(secret)?;
            r.echo_str("</div>")
        },
        "<div>Anonymous</div>",
    )
    .unwrap();
    r.echo_str("</body>").unwrap();
    assert_eq!(r.body(), "<body><div>Anonymous</div></body>");
}

#[test]
fn merge_policies_on_checksum() {
    // §3.4.2's motivating case: summing character values merges policies.
    let tainted = TaintedString::with_policy("AB", Arc::new(UntrustedData::new()));
    let a = tainted.slice(0..1).to_int().err(); // Not numeric; use bytes.
    assert!(a.is_some(), "'A' is not an integer literal");
    // Convert through explicit digit strings instead.
    let d1 = TaintedString::with_policy("65", Arc::new(UntrustedData::new()));
    let d2 = TaintedString::from("66");
    let checksum = d1.to_int().unwrap().try_add(&d2.to_int().unwrap()).unwrap();
    assert_eq!(*checksum.value(), 131);
    assert!(checksum.has_policy::<UntrustedData>(), "union strategy");
}

#[test]
fn implicit_flows_not_tracked_documented() {
    // §3.4: RESIN deliberately does not track control-flow channels. This
    // test documents the limitation (it is expected behaviour, not a bug).
    let secret = TaintedString::with_policy("x", Arc::new(UntrustedData::new()));
    let leaked = if secret.as_str() == "x" {
        TaintedString::from("was x")
    } else {
        TaintedString::from("was not x")
    };
    assert!(leaked.is_untainted(), "control-flow copy carries no policy");
}

#[test]
fn json_guard_composes_with_request_inputs() {
    use std::collections::BTreeMap;
    let req = Request::post("/api").with_param("name", "x\",\"admin\":true");
    let mut fields = BTreeMap::new();
    fields.insert("name".to_string(), req.param("name").unwrap().clone());
    let json = resin::web::encode_object(&fields);
    assert!(resin::web::check_json_structure(&json).is_ok());
    assert!(!json.as_str().contains("\"admin\":true"), "escaped");
}
