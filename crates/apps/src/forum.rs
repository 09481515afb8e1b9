//! A functional core of phpBB, the forum (§6.2, §6.3).
//!
//! Wired-in vulnerabilities, all taken from the paper:
//!
//! * **Cross-site scripting, form path** — posting unsanitized input that
//!   is echoed back (the common case).
//! * **Cross-site scripting, whois path** — the unusual data path of §6.3:
//!   the forum's whois feature incorporates an external server's response
//!   into HTML unsanitized; the adversary plants JavaScript in the record.
//! * **Missing read access checks** — the reply-quotation bug of §6.3
//!   (replying to a message quotes it without checking read permission)
//!   plus plugin-style endpoints that skip the forum permission check.
//!
//! Two assertions close them: the XSS marker assertion (§5.3) on the HTTP
//! output, and a read-ACL [`PagePolicy`] attached to each message body.

use std::sync::Arc;

use resin_core::{Acl, PagePolicy, Right, TaintedString};
use resin_web::{check_html_markers, html_escape, Response, WhoisServer};

/// Lines of the forum read-access assertion.
pub(crate) const ACCESS_ASSERTION_LOC: usize = 23;
/// Lines of the XSS assertion.
pub(crate) const XSS_ASSERTION_LOC: usize = 22;

/// A forum message.
struct Message {
    id: u64,
    forum: String,
    body: TaintedString,
}

/// The forum application.
pub struct Forum {
    resin: bool,
    forums: Vec<(String, Acl)>,
    messages: Vec<Message>,
    next_id: u64,
    /// The external whois service (adversary-writable).
    pub whois: WhoisServer,
}

impl Forum {
    /// Creates the forum; `resin` enables both assertions.
    pub fn new(resin: bool) -> Self {
        Forum {
            resin,
            forums: Vec::new(),
            messages: Vec::new(),
            next_id: 1,
            whois: WhoisServer::new(),
        }
    }

    /// Creates a sub-forum with a read/write ACL.
    pub fn create_forum(&mut self, name: &str, acl: Acl) {
        self.forums.push((name.to_string(), acl));
    }

    fn forum_acl(&self, name: &str) -> Acl {
        self.forums
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| a.clone())
            .unwrap_or_default()
    }

    /// Posts a message. The body arrives as untrusted user input; with
    /// RESIN it additionally gets the forum's read-ACL policy.
    pub fn post(&mut self, forum: &str, body: &TaintedString) -> u64 {
        let mut stored = body.clone();
        if self.resin {
            stored.add_policy(Arc::new(PagePolicy::new(self.forum_acl(forum))));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.messages.push(Message {
            id,
            forum: forum.to_string(),
            body: stored,
        });
        id
    }

    fn message(&self, id: u64) -> Option<&Message> {
        self.messages.iter().find(|m| m.id == id)
    }

    /// Writes `html` to the response, applying the XSS assertion first
    /// when RESIN is enabled.
    fn emit(
        &self,
        html: TaintedString,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        if self.resin {
            check_html_markers(&html)?;
        }
        response.echo(html)
    }

    /// Renders a message — the *correct* path with phpBB's permission
    /// check and sanitization.
    #[cfg(test)]
    pub(crate) fn view_message(
        &self,
        id: u64,
        viewer: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let Some(m) = self.message(id) else {
            return response.echo_str("no such message");
        };
        if !self.forum_acl(&m.forum).may(viewer, Right::Read) {
            response.set_status(403);
            return response.echo_str("forbidden");
        }
        let mut html = TaintedString::from("<div class=\"post\">");
        html.push_tainted(&html_escape(&m.body));
        html.push_str("</div>");
        self.emit(html, response)
    }

    /// The *vulnerable* XSS path: echoes the message body without
    /// sanitizing (a plugin forgot the escaping call).
    pub(crate) fn view_message_unsanitized(
        &self,
        id: u64,
        viewer: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let Some(m) = self.message(id) else {
            return response.echo_str("no such message");
        };
        if !self.forum_acl(&m.forum).may(viewer, Right::Read) {
            response.set_status(403);
            return response.echo_str("forbidden");
        }
        let mut html = TaintedString::from("<div class=\"post\">");
        html.push_tainted(&m.body); // BUG: no html_escape.
        html.push_str("</div>");
        self.emit(html, response)
    }

    /// The whois feature (§6.3's surprising XSS path): fetches a record
    /// from the external service and embeds it in HTML *unsanitized*.
    pub fn whois_lookup(
        &self,
        domain: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let record = self.whois.lookup(domain);
        let mut html = TaintedString::from("<pre class=\"whois\">");
        html.push_tainted(&record); // BUG: no html_escape on external data.
        html.push_str("</pre>");
        self.emit(html, response)
    }

    /// Sanitized whois (what the fix looks like — same assertion passes).
    pub fn whois_lookup_sanitized(
        &self,
        domain: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let record = self.whois.lookup(domain);
        let mut html = TaintedString::from("<pre class=\"whois\">");
        html.push_tainted(&html_escape(&record));
        html.push_str("</pre>");
        self.emit(html, response)
    }

    /// The reply-quotation bug (§6.3): builds a reply template quoting the
    /// original message **without checking read permission** on it.
    pub(crate) fn reply_template(
        &self,
        id: u64,
        replier: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let Some(m) = self.message(id) else {
            return response.echo_str("no such message");
        };
        // BUG: phpBB checked *post* permission on the target forum but not
        // *read* permission on the quoted message.
        let _ = replier;
        let mut html = TaintedString::from("<textarea>[quote]");
        html.push_tainted(&html_escape(&m.body));
        html.push_str("[/quote]</textarea>");
        self.emit(html, response)
    }

    /// A plugin-style search endpoint that returns message bodies with no
    /// permission checks (third-party plugin bug class from §6.2).
    pub(crate) fn plugin_search(
        &self,
        needle: &str,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        for m in &self.messages {
            if m.body.contains(needle) {
                let mut html = TaintedString::from("<div class=\"hit\">");
                html.push_tainted(&html_escape(&m.body));
                html.push_str("</div>");
                self.emit(html, response)?;
            }
        }
        Ok(())
    }

    /// The known CVE-style export endpoint: dumps a message by id with no
    /// permission check at all.
    pub(crate) fn export_message(
        &self,
        id: u64,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let Some(m) = self.message(id) else {
            return response.echo_str("no such message");
        };
        self.emit(html_escape(&m.body), response) // BUG: no ACL check.
    }

    /// A plugin "recent posts" widget that lists the newest messages from
    /// *every* forum, ignoring per-forum permissions.
    pub(crate) fn plugin_recent_posts(
        &self,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        for m in self.messages.iter().rev().take(5) {
            let mut html = TaintedString::from("<li>");
            html.push_tainted(&html_escape(&m.body));
            html.push_str("</li>");
            self.emit(html, response)?; // BUG: no ACL check.
        }
        Ok(())
    }

    /// A user-profile signature renderer that forgot to sanitize (second
    /// known XSS path).
    pub(crate) fn show_signature(
        &self,
        signature: &TaintedString,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let mut html = TaintedString::from("<div class=\"sig\">");
        html.push_tainted(signature); // BUG: no html_escape.
        html.push_str("</div>");
        self.emit(html, response)
    }

    /// Search-result highlighting that splices the raw needle back into
    /// the page (third known XSS path).
    pub(crate) fn search_highlight(
        &self,
        needle: &TaintedString,
        response: &mut Response,
    ) -> Result<(), resin_core::FlowError> {
        let mut html = TaintedString::from("<p>Results for <b>");
        html.push_tainted(needle); // BUG: no html_escape.
        html.push_str("</b>:</p>");
        self.emit(html, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::UntrustedData;

    fn user_input(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::from_source("http_param")))
    }

    fn forum(resin: bool) -> (Forum, u64, u64) {
        let mut f = Forum::new(resin);
        f.create_forum(
            "public",
            Acl::new().grant("*", &[Right::Read, Right::Write]),
        );
        f.create_forum(
            "staff",
            Acl::new().grant("mod", &[Right::Read, Right::Write]),
        );
        let pub_id = f.post("public", &user_input("hello world"));
        let staff_id = f.post("staff", &user_input("secret moderator notes"));
        (f, pub_id, staff_id)
    }

    #[test]
    fn sanitized_view_works() {
        let (f, pub_id, _) = forum(true);
        let mut r = Response::for_user("guest");
        f.view_message(pub_id, "guest", &mut r).unwrap();
        assert!(r.body().contains("hello world"));
    }

    #[test]
    fn xss_post_blocked_with_resin() {
        let (mut f, _, _) = forum(true);
        let id = f.post(
            "public",
            &user_input("<script>steal(document.cookie)</script>"),
        );
        let mut r = Response::for_user("guest");
        let err = f.view_message_unsanitized(id, "guest", &mut r).unwrap_err();
        assert!(err.is_violation());
        assert!(!r.body().contains("<script>"));
        // The sanitized path still renders it (escaped).
        let mut r2 = Response::for_user("guest");
        f.view_message(id, "guest", &mut r2).unwrap();
        assert!(r2.body().contains("&lt;script&gt;"));
    }

    #[test]
    fn xss_post_fires_without_resin() {
        let (mut f, _, _) = forum(false);
        let id = f.post("public", &user_input("<script>steal()</script>"));
        let mut r = Response::for_user("guest");
        f.view_message_unsanitized(id, "guest", &mut r).unwrap();
        assert!(r.body().contains("<script>steal()</script>"), "XSS fires");
    }

    #[test]
    fn whois_xss_blocked_with_resin() {
        // §6.3: the unusual path — same assertion, different channel.
        let (mut f, _, _) = forum(true);
        f.whois.set_record(
            "evil.com",
            "<script>document.location='http://evil'</script>",
        );
        let mut r = Response::for_user("guest");
        let err = f.whois_lookup("evil.com", &mut r).unwrap_err();
        assert!(err.is_violation());
        // The sanitized variant is fine.
        let mut r2 = Response::for_user("guest");
        f.whois_lookup_sanitized("evil.com", &mut r2).unwrap();
        assert!(r2.body().contains("&lt;script&gt;"));
    }

    #[test]
    fn whois_xss_fires_without_resin() {
        let (mut f, _, _) = forum(false);
        f.whois.set_record("evil.com", "<script>x()</script>");
        let mut r = Response::for_user("guest");
        f.whois_lookup("evil.com", &mut r).unwrap();
        assert!(r.body().contains("<script>x()</script>"));
    }

    #[test]
    fn reply_quote_leak_blocked_with_resin() {
        let (f, _, staff_id) = forum(true);
        let mut r = Response::for_user("guest");
        let err = f.reply_template(staff_id, "guest", &mut r).unwrap_err();
        assert!(err.is_violation());
        assert!(!r.body().contains("secret moderator notes"));
        // A moderator may quote it.
        let mut r2 = Response::for_user("mod");
        f.reply_template(staff_id, "mod", &mut r2).unwrap();
        assert!(r2.body().contains("secret moderator notes"));
    }

    #[test]
    fn reply_quote_leaks_without_resin() {
        let (f, _, staff_id) = forum(false);
        let mut r = Response::for_user("guest");
        f.reply_template(staff_id, "guest", &mut r).unwrap();
        assert!(r.body().contains("secret moderator notes"));
    }

    #[test]
    fn plugin_search_leak_blocked_with_resin() {
        let (f, _, _) = forum(true);
        let mut r = Response::for_user("guest");
        let err = f.plugin_search("moderator", &mut r).unwrap_err();
        assert!(err.is_violation());
        let mut r2 = Response::for_user("mod");
        f.plugin_search("moderator", &mut r2).unwrap();
        assert!(r2.body().contains("secret moderator notes"));
    }

    #[test]
    fn correct_path_forbids_outsiders_regardless() {
        let (f, _, staff_id) = forum(true);
        let mut r = Response::for_user("guest");
        f.view_message(staff_id, "guest", &mut r).unwrap();
        assert_eq!(r.status(), 403);
    }
}
