//! Failure injection: corrupted persistent state must fail *closed* with
//! descriptive errors, never silently drop policies.

use std::sync::Arc;

use resin::core::prelude::*;
use resin::vfs::{Vfs, VfsError, XATTR_FILTER, XATTR_POLICY};

fn tainted_file() -> Vfs {
    let mut fs = Vfs::new();
    let ctx = Vfs::anonymous_ctx();
    fs.mkdir_p("/d", &ctx).unwrap();
    let mut data = TaintedString::from("secret-data");
    data.add_policy(Arc::new(PasswordPolicy::new("u@x")));
    fs.write_file("/d/f", &data, &ctx).unwrap();
    fs
}

#[test]
fn corrupted_policy_xattr_fails_read() {
    let mut fs = tainted_file();
    fs.set_xattr("/d/f", XATTR_POLICY, "garbage!!").unwrap();
    let err = fs.read_file("/d/f", &Vfs::anonymous_ctx()).unwrap_err();
    assert!(matches!(err, VfsError::Policy(_)), "fails closed: {err}");
    // Opening also validates.
    assert!(fs.open("/d/f").is_err());
}

#[test]
fn unknown_policy_class_in_xattr_fails_read() {
    let mut fs = tainted_file();
    fs.set_xattr("/d/f", XATTR_POLICY, "#MysteryPolicy{}#0..4|0")
        .unwrap();
    let err = fs.read_file("/d/f", &Vfs::anonymous_ctx()).unwrap_err();
    let VfsError::Policy(FlowError::Serialize(se)) = &err else {
        panic!("wrong error: {err}");
    };
    assert!(se.to_string().contains("MysteryPolicy"));
}

#[test]
fn corrupted_filter_xattr_fails_write() {
    let mut fs = tainted_file();
    fs.set_xattr("/d", XATTR_FILTER, "NotAFilter{").unwrap();
    let err = fs
        .write_file("/d/g", &TaintedString::from("x"), &Vfs::anonymous_ctx())
        .unwrap_err();
    assert!(matches!(err, VfsError::Policy(_)));
}

#[test]
fn an_out_of_range_span_fails_read_closed() {
    // A span past EOF is refused, not clamped to the bytes there are:
    // clamped, a span wholly past the end dropped its policy. The read
    // and the open fail closed without panicking, and the file reads
    // back whole once its xattr is.
    let mut fs = tainted_file();
    let stored = fs.get_xattr("/d/f", XATTR_POLICY).unwrap().unwrap();
    fs.set_xattr("/d/f", XATTR_POLICY, "#UntrustedData{}#0..9999|0")
        .unwrap();
    let err = fs.read_file("/d/f", &Vfs::anonymous_ctx()).unwrap_err();
    assert!(
        matches!(err, VfsError::Policy(FlowError::Serialize(_))),
        "fails closed: {err}"
    );
    assert!(fs.open("/d/f").is_err());
    fs.set_xattr("/d/f", XATTR_POLICY, &stored).unwrap();
    let data = fs.read_file("/d/f", &Vfs::anonymous_ctx()).unwrap();
    assert!(data.all_bytes_have::<PasswordPolicy>());
}

#[test]
fn policy_violation_does_not_poison_gate() {
    // After a blocked write, the gate keeps working for clean data.
    let mut ch = Runtime::global().open(GateKind::Http);
    let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
    assert!(ch.write(secret).is_err());
    ch.write_str("still alive").unwrap();
    assert_eq!(ch.output_text(), "still alive");
}

#[test]
fn interp_violation_then_recovery() {
    // The interpreter survives a violation and continues executing new
    // top-level code.
    let mut i = resin::lang::Interp::new();
    let err = i
        .run(
            r#"echo(policy_add("x", "UntrustedData") + "");
                 let never = 1;"#,
        )
        .err();
    assert!(err.is_none(), "UntrustedData exports fine (marker policy)");
    let mut i = resin::lang::Interp::new();
    i.run(
        r#"class NoExport { fn export_check(context) { throw "no"; } }
           let s = policy_add("x", new NoExport());"#,
    )
    .unwrap();
    assert!(i.run("echo(s);").is_err());
    i.run("let recovered = 42;").unwrap();
}

#[test]
fn malformed_rsl_uploads_cannot_break_host() {
    // Importing a syntactically broken upload is an error, not a panic,
    // and does not execute partially.
    let mut i = resin::lang::Interp::new();
    i.run(r#"mkdir("/u"); file_write("/u/bad.rsl", "let x = ;;;");"#)
        .unwrap();
    let err = i.run(r#"import("/u/bad.rsl");"#).unwrap_err();
    assert!(err.message.contains("parse") || err.message.contains("import"));
}
