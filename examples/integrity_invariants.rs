//! The paper's §8 extensions in action: transactions with commit-time
//! integrity assertions, and internal data flow boundaries.
//!
//! ```text
//! cargo run --example integrity_invariants
//! ```

use std::sync::Arc;

use resin::core::prelude::*;
use resin::sql::ResinDb;

fn main() {
    // --- Transactions: write private copies, assert invariants, then
    // install the copies ---
    let db = ResinDb::new();
    db.query_str("CREATE TABLE accounts (owner TEXT, balance INTEGER)")
        .unwrap();
    db.query_str("INSERT INTO accounts VALUES ('alice', 70), ('bob', 30)")
        .unwrap();

    // Invariant: no account may go negative.
    let no_overdraft = || -> resin::sql::IntegrityCheck<'static> {
        Box::new(|db| {
            let r = db.query_str("SELECT COUNT(*) FROM accounts WHERE balance < 0")?;
            match r.rows[0][0].as_int().map(|v| *v.value()) {
                Some(0) => Ok(()),
                _ => Err(
                    PolicyViolation::new("NoOverdraft", Reason::Refused("negative balance")).into(),
                ),
            }
        })
    };

    // A buggy transfer that overdraws: both legs land in the transaction's
    // own copy of `accounts`, the check reads that copy, and the refused
    // commit installs neither leg. No other handle ever saw them.
    let mut txn = db.begin();
    txn.add_check(no_overdraft());
    txn.query_str("UPDATE accounts SET balance = 130 WHERE owner = 'bob'")
        .unwrap();
    txn.query_str("UPDATE accounts SET balance = -30 WHERE owner = 'alice'")
        .unwrap();
    match txn.commit() {
        Err(e) => println!("transfer rejected at commit: {e}"),
        Ok(()) => unreachable!(),
    }
    let r = db
        .query_str("SELECT balance FROM accounts ORDER BY owner")
        .unwrap();
    println!(
        "balances after rollback: alice={} bob={}",
        r.rows[0][0].as_int().unwrap().value(),
        r.rows[1][0].as_int().unwrap().value()
    );

    // A correct transfer commits: its copy replaces the live table.
    let mut txn = db.begin();
    txn.add_check(no_overdraft());
    txn.query_str("UPDATE accounts SET balance = 50 WHERE owner = 'alice'")
        .unwrap();
    txn.query_str("UPDATE accounts SET balance = 50 WHERE owner = 'bob'")
        .unwrap();
    txn.commit().unwrap();
    println!("valid transfer committed");

    // --- Internal boundaries: the auth module cannot leak passwords ---
    let auth_exit = Gate::internal("auth").deny::<PasswordPolicy>();
    let hash_exit = Gate::internal("auth.hash").strip::<PasswordPolicy>();

    let mut pw = TaintedString::from("s3cret");
    pw.add_policy(Arc::new(PasswordPolicy::new("u@x")));

    match auth_exit.export(pw.clone()) {
        Err(e) => println!("auth module exit: {e}"),
        Ok(_) => unreachable!(),
    }
    // The hash function is the sanctioned declassification point.
    let digest_input = hash_exit.export(pw).unwrap();
    println!(
        "hash boundary declassified: {} policies remain",
        digest_input.label().len()
    );
}
