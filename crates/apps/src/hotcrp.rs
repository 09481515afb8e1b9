//! A functional core of HotCRP, the conference manager (§2, §3.1, §5.5,
//! §7.1), with its two password-disclosure features and its paper/author
//! access rules.
//!
//! Wired-in vulnerabilities (all real HotCRP behaviours from the paper):
//!
//! * **Password disclosure** — the password-reminder email composed for
//!   user *u* is *displayed in the requester's browser* when the site is in
//!   email preview mode (§2). One RESIN assertion — `PasswordPolicy`
//!   attached at registration — closes every disclosure path.
//! * **Missing access checks for papers** — a JSON-export path dumps paper
//!   title/abstract without checking PC membership.
//! * **Missing access checks for author lists** — the same path ignores
//!   anonymity; the paper page itself uses the §5.5 exception style
//!   (always try, buffer output, show "Anonymous" when the policy raises).

use std::sync::Arc;

use resin_core::{Acl, PagePolicy, PasswordPolicy, Right, TaintedString};
use resin_sql::{ResinDb, SqlError, Tracking};
use resin_web::{Mailer, Response};

/// Lines of the password assertion (policy definition + attach points).
pub(crate) const PASSWORD_ASSERTION_LOC: usize = 23;
/// Lines of the paper access assertion.
pub(crate) const PAPER_ASSERTION_LOC: usize = 30;
/// Lines of the author-list access assertion.
pub(crate) const AUTHOR_ASSERTION_LOC: usize = 32;

/// The HotCRP application.
pub struct HotCrp {
    db: ResinDb,
    /// The mail transport (preview mode is the admin feature the exploit
    /// combines with the reminder).
    pub mailer: Mailer,
    resin: bool,
    pc_members: Vec<String>,
    chair: String,
}

impl HotCrp {
    /// Creates the site. `resin` enables the data flow assertions;
    /// disabling them models the original vulnerable application.
    pub fn new(resin: bool) -> Self {
        let tracking = if resin { Tracking::On } else { Tracking::Off };
        let db = ResinDb::with_modes(tracking, resin_sql::GuardMode::Off);
        db.query_str("CREATE TABLE users (email TEXT, password TEXT, chair INTEGER)")
            .expect("schema");
        db.query_str(
            "CREATE TABLE papers (id INTEGER, title TEXT, abstract TEXT, authors TEXT, anonymous INTEGER)",
        )
        .expect("schema");
        db.query_str("CREATE TABLE reviews (paper INTEGER, reviewer TEXT, body TEXT)")
            .expect("schema");
        HotCrp {
            db,
            mailer: Mailer::new(),
            resin,
            pc_members: Vec::new(),
            chair: String::new(),
        }
    }

    /// Registers a user. With RESIN, the password is annotated with a
    /// [`PasswordPolicy`] *here, at the single point where passwords enter
    /// the system* — the policy column persists it through the database.
    pub fn register_user(&mut self, email: &str, password: &str, chair: bool) {
        if chair {
            self.chair = email.to_string();
        }
        let mut pw = TaintedString::from(password);
        if self.resin {
            pw.add_policy(Arc::new(PasswordPolicy::new(email)));
        }
        let mut q = TaintedString::from(format!(
            "INSERT INTO users VALUES ('{}', '",
            sql_escape(email)
        ));
        q.push_tainted(&pw);
        q.push_str(&format!("', {})", chair as i64));
        self.db.query(&q).expect("insert user");
    }

    /// Adds a PC member (affects paper-visibility ACLs for later papers).
    pub fn add_pc_member(&mut self, email: &str) {
        self.pc_members.push(email.to_string());
    }

    /// Submits a paper. With RESIN, title/abstract get a read ACL of
    /// {PC, authors}, and the author list gets {authors} (plus the chair)
    /// when the submission is anonymous.
    pub fn submit_paper(
        &mut self,
        id: i64,
        title: &str,
        abstract_: &str,
        authors: &[&str],
        anonymous: bool,
    ) {
        let mut content_acl = Acl::new();
        let mut author_acl = Acl::new();
        for pc in &self.pc_members {
            content_acl.add(pc, &[Right::Read]);
            if !anonymous {
                author_acl.add(pc, &[Right::Read]);
            }
        }
        if !self.chair.is_empty() {
            content_acl.add(&self.chair, &[Right::Read]);
            author_acl.add(&self.chair, &[Right::Read]);
        }
        for a in authors {
            content_acl.add(*a, &[Right::Read]);
            author_acl.add(*a, &[Right::Read]);
        }

        let mut title_t = TaintedString::from(sql_escape(title));
        let mut abstract_t = TaintedString::from(sql_escape(abstract_));
        let mut authors_t = TaintedString::from(sql_escape(&authors.join(", ")));
        if self.resin {
            let content_policy = Arc::new(PagePolicy::new(content_acl));
            title_t.add_policy(content_policy.clone());
            abstract_t.add_policy(content_policy);
            authors_t.add_policy(Arc::new(PagePolicy::new(author_acl)));
        }
        let mut q = TaintedString::from(format!("INSERT INTO papers VALUES ({id}, '"));
        q.push_tainted(&title_t);
        q.push_str("', '");
        q.push_tainted(&abstract_t);
        q.push_str("', '");
        q.push_tainted(&authors_t);
        q.push_str(&format!("', {})", anonymous as i64));
        self.db.query(&q).expect("insert paper");
    }

    /// Files a review.
    pub fn add_review(&mut self, paper: i64, reviewer: &str, body: &str) {
        let mut body_t = TaintedString::from(sql_escape(body));
        if self.resin {
            // Reviews are readable by PC members and the chair only (the
            // paper's "who may read a paper's reviews" rule).
            let mut acl = Acl::new();
            for pc in &self.pc_members {
                acl.add(pc, &[Right::Read]);
            }
            if !self.chair.is_empty() {
                acl.add(&self.chair, &[Right::Read]);
            }
            body_t.add_policy(Arc::new(PagePolicy::new(acl)));
        }
        let mut q = TaintedString::from(format!(
            "INSERT INTO reviews VALUES ({paper}, '{}', '",
            sql_escape(reviewer)
        ));
        q.push_tainted(&body_t);
        q.push_str("')");
        self.db.query(&q).expect("insert review");
    }

    fn fetch_user_password(&mut self, email: &str) -> Result<Option<TaintedString>, SqlError> {
        let r = self.db.query_str(&format!(
            "SELECT password FROM users WHERE email = '{}'",
            sql_escape(email)
        ))?;
        Ok(r.rows.first().and_then(|row| row[0].as_text().cloned()))
    }

    /// The password-reminder feature (§2). Composes the reminder email for
    /// `account` and sends it — or, in preview mode, displays it in
    /// `requester_page`'s browser. The vulnerable combination is exactly
    /// the paper's: *any* user may request a reminder for *any* account.
    pub fn password_reminder(
        &mut self,
        account: &str,
        requester_page: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let pw = self
            .fetch_user_password(account)
            .map_err(|e| resin_core::FlowError::runtime(e.to_string()))?
            .ok_or_else(|| resin_core::FlowError::runtime("no such account"))?;
        let mut body = TaintedString::from(format!("Dear {account},\n\nYour password is: "));
        body.push_tainted(&pw);
        body.push_str("\n\n- HotCRP\n");
        self.mailer
            .send(account, "Password reminder", body, requester_page)
    }

    /// Renders the paper page (the §7.1 benchmark page): title, abstract,
    /// and author list, using the §5.5 exception style — the code *always*
    /// tries to print the authors and lets the data flow assertion decide.
    pub fn paper_page(
        &mut self,
        paper: i64,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let r = self
            .db
            .query_str(&format!(
                "SELECT title, abstract, authors FROM papers WHERE id = {paper}"
            ))
            .map_err(|e| resin_core::FlowError::runtime(e.to_string()))?;
        let Some(row) = r.rows.first() else {
            response.set_status(404);
            return response.echo_str("No such paper");
        };
        let title = row[0].to_tainted_string();
        let abstract_ = row[1].to_tainted_string();
        let authors = row[2].to_tainted_string();

        response.echo_str("<html><head><title>Paper</title></head><body>\n")?;
        response.echo_str("<h1>")?;
        response.echo(title)?;
        response.echo_str("</h1>\n<div class=\"abstract\">")?;
        response.echo(abstract_)?;
        response.echo_str("</div>\n<div class=\"authors\">Authors: ")?;
        // §5.5: no explicit access check — try to print, buffer, fall back.
        response.buffered_or(|r| r.echo(authors), "Anonymous")?;
        response.echo_str("</div>\n")?;
        // Filler structure to approximate the paper's 8.5 KB page.
        for i in 0..40 {
            response.echo_str(&format!(
                "<div class=\"row r{i}\"><span class=\"label\">field {i}</span>\
                 <span class=\"value\">{}</span></div>\n",
                "x".repeat(160)
            ))?;
        }
        response.echo_str("</body></html>\n")
    }

    /// The *vulnerable* JSON export path: a third-party-plugin-style dump
    /// of paper metadata with **no access checks at all**.
    pub(crate) fn export_paper_json(
        &mut self,
        paper: i64,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let r = self
            .db
            .query_str(&format!(
                "SELECT title, abstract, authors FROM papers WHERE id = {paper}"
            ))
            .map_err(|e| resin_core::FlowError::runtime(e.to_string()))?;
        let Some(row) = r.rows.first() else {
            return response.echo_str("{}");
        };
        response.echo_str("{\"title\":\"")?;
        response.echo(row[0].to_tainted_string())?;
        response.echo_str("\",\"abstract\":\"")?;
        response.echo(row[1].to_tainted_string())?;
        response.echo_str("\",\"authors\":\"")?;
        response.echo(row[2].to_tainted_string())?;
        response.echo_str("\"}")
    }

    /// The *vulnerable* review listing: shows a paper's reviews without
    /// checking that the viewer is on the PC.
    #[cfg(test)]
    pub(crate) fn list_reviews(
        &mut self,
        paper: i64,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let r = self
            .db
            .query_str(&format!(
                "SELECT reviewer, body FROM reviews WHERE paper = {paper}"
            ))
            .map_err(|e| resin_core::FlowError::runtime(e.to_string()))?;
        for row in &r.rows {
            response.echo_str("<div class=\"review\">")?;
            response.echo(row[1].to_tainted_string())?;
            response.echo_str("</div>")?;
        }
        Ok(())
    }
}

fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(resin: bool) -> HotCrp {
        let mut h = HotCrp::new(resin);
        h.register_user("chair@conf.org", "chairpw", true);
        h.register_user("victim@foo.com", "s3cret", false);
        h.register_user("adversary@evil.com", "evilpw", false);
        h.add_pc_member("pc@conf.org");
        h.register_user("pc@conf.org", "pcpw", false);
        h.submit_paper(1, "Deep Taint", "We track bytes.", &["alice@u.edu"], true);
        h.add_review(1, "pc@conf.org", "Strong accept, novel tracking.");
        h
    }

    #[test]
    fn reminder_delivers_to_owner() {
        let mut h = site(true);
        let mut page = Response::for_user("victim@foo.com");
        h.password_reminder("victim@foo.com", &mut page).unwrap();
        assert_eq!(h.mailer.sent().len(), 1);
        assert!(h.mailer.sent()[0].body.contains("s3cret"));
    }

    #[test]
    fn preview_exploit_blocked_with_resin() {
        let mut h = site(true);
        h.mailer.set_preview_mode(true);
        let mut adversary_page = Response::for_user("adversary@evil.com");
        let err = h
            .password_reminder("victim@foo.com", &mut adversary_page)
            .unwrap_err();
        assert!(err.is_violation());
        assert!(!adversary_page.body().contains("s3cret"));
    }

    #[test]
    fn preview_exploit_succeeds_without_resin() {
        let mut h = site(false);
        h.mailer.set_preview_mode(true);
        let mut adversary_page = Response::for_user("adversary@evil.com");
        h.password_reminder("victim@foo.com", &mut adversary_page)
            .unwrap();
        assert!(adversary_page.body().contains("s3cret"), "the CVE");
    }

    #[test]
    fn chair_may_preview() {
        let mut h = site(true);
        h.mailer.set_preview_mode(true);
        let mut chair_page = Response::for_user("chair@conf.org");
        chair_page.set_priv_chair(true);
        h.password_reminder("victim@foo.com", &mut chair_page)
            .unwrap();
        assert!(chair_page.body().contains("s3cret"));
    }

    #[test]
    fn paper_page_anonymizes_for_pc() {
        let mut h = site(true);
        let mut page = Response::for_user("pc@conf.org");
        h.paper_page(1, &mut page).unwrap();
        let body = page.body();
        assert!(body.contains("Deep Taint"), "PC sees title");
        assert!(body.contains("We track bytes."), "PC sees abstract");
        assert!(body.contains("Anonymous"), "author list replaced");
        assert!(!body.contains("alice@u.edu"));
        assert!(body.len() > 7000, "realistic page size, got {}", body.len());
    }

    #[test]
    fn paper_page_shows_authors_to_author() {
        let mut h = site(true);
        let mut page = Response::for_user("alice@u.edu");
        h.paper_page(1, &mut page).unwrap();
        assert!(page.body().contains("alice@u.edu"));
    }

    #[test]
    fn outsider_cannot_read_paper_even_via_vulnerable_export() {
        let mut h = site(true);
        let mut page = Response::for_user("adversary@evil.com");
        let err = h.export_paper_json(1, &mut page).unwrap_err();
        assert!(err.is_violation());
        assert!(!page.body().contains("Deep Taint"));
    }

    #[test]
    fn vulnerable_export_leaks_without_resin() {
        let mut h = site(false);
        let mut page = Response::for_user("adversary@evil.com");
        h.export_paper_json(1, &mut page).unwrap();
        assert!(page.body().contains("alice@u.edu"), "anonymity broken");
    }

    #[test]
    fn reviews_protected_from_authors() {
        // Authors must not read reviews pre-decision; the vulnerable
        // listing forgets the check, the assertion does not.
        let mut h = site(true);
        let mut page = Response::for_user("alice@u.edu");
        let err = h.list_reviews(1, &mut page).unwrap_err();
        assert!(err.is_violation());
        let mut pc_page = Response::for_user("pc@conf.org");
        h.list_reviews(1, &mut pc_page).unwrap();
        assert!(pc_page.body().contains("Strong accept"));
    }

    #[test]
    fn author_name_cannot_add_readers_at_rest() {
        // Author strings go into the paper's ACL verbatim, and the ACL
        // crosses the policy column as `principal:codes,…`: an author
        // named like two entries must still be one principal when the
        // policy is read back.
        let mut h = site(true);
        h.register_user("eve@evil.org", "evepw", false);
        h.submit_paper(
            2,
            "Hidden Title",
            "Hidden abstract.",
            &["a@x.org:r,eve@evil.org"],
            true,
        );
        let mut page = Response::for_user("eve@evil.org");
        let err = h.paper_page(2, &mut page).unwrap_err();
        assert!(err.is_violation(), "{err:?}");
        assert!(!page.body().contains("Hidden Title"));
        assert!(!page.body().contains("Hidden abstract."));
        let mut page = Response::for_user("eve@evil.org");
        assert!(h
            .export_paper_json(2, &mut page)
            .unwrap_err()
            .is_violation());
        // The odd author is still on their own paper's ACL, as are the PC.
        for reader in ["a@x.org:r,eve@evil.org", "pc@conf.org"] {
            let mut page = Response::for_user(reader);
            h.paper_page(2, &mut page).unwrap();
            assert!(page.body().contains("Hidden Title"), "{reader}");
        }
    }

    #[test]
    fn missing_paper_404() {
        let mut h = site(true);
        let mut page = Response::for_user("pc@conf.org");
        h.paper_page(99, &mut page).unwrap();
        assert_eq!(page.status(), 404);
    }
}
