//! Quickstart: the three RESIN mechanisms in 60 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use resin::prelude::*;

fn main() {
    // 1. POLICY OBJECTS — annotate sensitive data (Table 3: policy_add).
    let password = policy_add(
        TaintedString::from("s3cret"),
        Arc::new(PasswordPolicy::new("u@foo.com")),
    );

    // 2. DATA TRACKING — policies travel with the data, byte by byte.
    let mut email_body = TaintedString::from("Dear user,\nYour password is: ");
    email_body.push_tainted(&password);
    email_body.push_str("\nregards, the app\n");
    println!("composed email body ({} bytes)", email_body.len());
    println!("  policies anywhere: {:?}", policy_get(&email_body));
    println!(
        "  byte 0 label: {:?} (the greeting is not sensitive)",
        email_body.label_at(0)
    );

    // 3. GATES — boundaries check assertions on export. A checking
    // surface's gate starts with the default filter (Figure 3).
    // An HTTP response to some browser? Denied.
    let mut http = Gate::new(GateKind::Http);
    match http.write(email_body.clone()) {
        Err(e) => println!("HTTP export: BLOCKED — {e}"),
        Ok(()) => unreachable!("the password policy must fire"),
    }

    // Email to the account holder? Allowed.
    let mut email = Gate::new(GateKind::Email);
    email.context_mut().set_str("email", "u@foo.com");
    email.write(email_body.clone()).expect("owner may receive");
    println!(
        "email to u@foo.com: ALLOWED ({} bytes sent)",
        email.output_text().len()
    );

    // Email to anyone else? Denied.
    let mut other = Gate::new(GateKind::Email);
    other.context_mut().set_str("email", "adversary@evil.com");
    match other.write(email_body) {
        Err(e) => println!("email to adversary: BLOCKED — {e}"),
        Ok(()) => unreachable!(),
    }

    // Slicing back out the non-sensitive prefix drops the policy.
    let greeting = policy_add(
        TaintedString::from("hello "),
        Arc::new(UntrustedData::new()),
    );
    let combined = greeting.concat(&TaintedString::from("world"));
    let world = combined.slice(6..11);
    assert!(world.label().is_empty());
    println!("byte-level tracking: slice of clean bytes is clean");
}
