//! The MIT EECS graduate-admissions system (§6.2).
//!
//! The original programmers "were careful to avoid most SQL injection
//! vulnerabilities", but the generic RESIN SQL-injection assertion
//! revealed **three previously-unknown** injectable paths in the admission
//! committee's internal UI. This module reproduces that shape: public
//! paths sanitize correctly; three internal-UI paths interpolate raw
//! input.
//!
//! The assertion (9 lines in the paper) is §5.3 strategy 1: inputs arrive
//! as `UntrustedData`; the sanitizer attaches `SqlSanitized`; the SQL
//! filter rejects queries containing unsanitized untrusted bytes.

use std::sync::Arc;

use resin_core::{SqlSanitized, TaintedString};
use resin_sql::{GuardMode, ResinDb, SqlError, TaintedResult, Tracking};

/// Lines of the SQL-injection assertion.
pub const ASSERTION_LOC: usize = 9;

/// The admissions application.
pub struct GradApp {
    db: ResinDb,
}

impl GradApp {
    /// Creates the system with sample applicants. `resin` arms the SQL
    /// guard.
    pub fn new(resin: bool) -> Self {
        let guard = if resin {
            GuardMode::MarkerCheck
        } else {
            GuardMode::Off
        };
        let tracking = if resin { Tracking::On } else { Tracking::Off };
        let db = ResinDb::with_modes(tracking, guard);
        db.query_str(
            "CREATE TABLE applicants (id INTEGER, name TEXT, gre INTEGER, decision TEXT, ssn TEXT)",
        )
        .expect("schema");
        db.query_str(
            "INSERT INTO applicants VALUES \
             (1, 'Ada', 168, 'admit', '000-11-2222'), \
             (2, 'Bob', 150, 'reject', '000-33-4444'), \
             (3, 'Cyd', 160, 'waitlist', '000-55-6666')",
        )
        .expect("seed");
        GradApp { db }
    }

    /// The sanitizer: escapes quotes and attaches the evidence marker.
    fn sanitize(input: &TaintedString) -> TaintedString {
        let mut out = input.replace_str("'", "''");
        out.add_policy(Arc::new(SqlSanitized::new()));
        out
    }

    /// A *correct* public path: looks an applicant up by name, sanitized.
    pub fn public_status(&mut self, name: &TaintedString) -> Result<TaintedResult, SqlError> {
        let mut q = TaintedString::from("SELECT name, decision FROM applicants WHERE name = '");
        q.push_tainted(&Self::sanitize(name));
        q.push_str("'");
        self.db.query(&q)
    }

    /// Internal-UI path #1 (vulnerable): filter by decision, raw.
    pub fn committee_filter_by_decision(
        &mut self,
        decision: &TaintedString,
    ) -> Result<TaintedResult, SqlError> {
        let mut q = TaintedString::from("SELECT name, gre, ssn FROM applicants WHERE decision = '");
        q.push_tainted(decision); // BUG: no sanitize.
        q.push_str("'");
        self.db.query(&q)
    }

    /// Internal-UI path #2 (vulnerable): free-form name search, raw.
    pub fn committee_search(&mut self, needle: &TaintedString) -> Result<TaintedResult, SqlError> {
        let mut q = TaintedString::from("SELECT name, gre FROM applicants WHERE name LIKE '");
        q.push_tainted(needle); // BUG: no sanitize.
        q.push_str("%'");
        self.db.query(&q)
    }

    /// Internal-UI path #3 (vulnerable): update a decision, raw.
    pub fn committee_set_decision(
        &mut self,
        id: &TaintedString,
        decision: &TaintedString,
    ) -> Result<TaintedResult, SqlError> {
        let mut q = TaintedString::from("UPDATE applicants SET decision = '");
        q.push_tainted(decision); // BUG: no sanitize.
        q.push_str("' WHERE id = ");
        q.push_tainted(id); // BUG: numeric context, no validation.
        self.db.query(&q)
    }

    /// Direct engine access for tests.
    pub fn db(&self) -> &ResinDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::UntrustedData;

    fn input(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::from_source("http_param")))
    }

    #[test]
    fn public_path_is_safe_and_functional() {
        let mut g = GradApp::new(true);
        let r = g.public_status(&input("Ada")).unwrap();
        assert_eq!(r.rows.len(), 1);
        // Hostile input is neutralized by the sanitizer, and allowed.
        let r = g.public_status(&input("x' OR '1'='1")).unwrap();
        assert_eq!(r.rows.len(), 0);
    }

    #[test]
    fn injection_path1_blocked_with_resin() {
        let mut g = GradApp::new(true);
        let err = g
            .committee_filter_by_decision(&input("admit' OR '1'='1"))
            .unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn injection_path1_dumps_ssns_without_resin() {
        let mut g = GradApp::new(false);
        let r = g
            .committee_filter_by_decision(&input("admit' OR '1'='1"))
            .unwrap();
        assert_eq!(r.rows.len(), 3, "every applicant's SSN dumped");
    }

    #[test]
    fn injection_path2_blocked_with_resin() {
        let mut g = GradApp::new(true);
        let err = g
            .committee_search(&input("%' OR gre > 0 OR name LIKE '"))
            .unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn injection_path3_blocked_with_resin() {
        let mut g = GradApp::new(true);
        let err = g
            .committee_set_decision(&input("1"), &input("admit' WHERE id = 2 OR '1'='1"))
            .unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn injection_path3_rewrites_all_without_resin() {
        let mut g = GradApp::new(false);
        g.committee_set_decision(&input("1 OR 1=1"), &input("admit"))
            .unwrap();
        let r = g
            .db()
            .query_str("SELECT COUNT(*) FROM applicants WHERE decision = 'admit'")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &3, "mass admit");
    }

    #[test]
    fn benign_internal_use_still_works_with_resin() {
        // The guard only fires on *unsanitized* input reaching the query;
        // the committee's normal flows keep working once input passes the
        // sanitizer.
        let g = GradApp::new(true);
        let clean = GradApp::sanitize(&input("admit"));
        let mut q = TaintedString::from("SELECT name FROM applicants WHERE decision = '");
        q.push_tainted(&clean);
        q.push_str("'");
        let r = g.db().query(&q).unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
