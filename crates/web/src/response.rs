//! HTTP responses: the outbound HTTP channel plus output buffering (§5.5).

use resin_core::{FlowError, Gate, GateKind, Result, TaintedString};

use crate::splitting::check_header_splitting;

/// An HTTP response under construction.
///
/// The body is written through a guarded HTTP [`Gate`], so every `echo`
/// crosses the default filter and any policy's `export_check` runs with
/// the response's context (current user, `priv_chair`, ...). Headers are
/// guarded against response splitting (§5.4).
pub struct Response {
    status: u16,
    headers: Vec<(String, TaintedString)>,
    gate: Gate,
}

impl Default for Response {
    fn default() -> Self {
        Response::new()
    }
}

impl Response {
    /// An anonymous 200 response.
    pub fn new() -> Self {
        Response {
            status: 200,
            headers: Vec::new(),
            gate: Gate::new(GateKind::Http),
        }
    }

    /// A response whose channel context carries the authenticated user.
    pub fn for_user(user: &str) -> Self {
        let mut r = Response::new();
        r.gate.context_mut().set_str("user", user);
        r
    }

    /// Marks the channel as belonging to the program chair (HotCRP's
    /// `$Me->privChair`, used by [`resin_core::PasswordPolicy`]).
    pub fn set_priv_chair(&mut self, is_chair: bool) -> &mut Self {
        self.gate.context_mut().set("priv_chair", is_chair);
        self
    }

    /// Sets the status code.
    pub fn set_status(&mut self, status: u16) -> &mut Self {
        self.status = status;
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response's HTTP gate (to add filters or annotate context).
    pub fn gate_mut(&mut self) -> &mut Gate {
        &mut self.gate
    }

    /// Adds a header after checking for user-supplied CR-LF-CR-LF
    /// sequences (HTTP response splitting, §5.4).
    pub fn set_header(&mut self, name: &str, value: TaintedString) -> Result<()> {
        check_header_splitting(&value)?;
        self.headers.push((name.to_string(), value));
        Ok(())
    }

    /// The collected headers.
    pub fn headers(&self) -> &[(String, TaintedString)] {
        &self.headers
    }

    /// Writes body data through the HTTP boundary.
    ///
    /// A policy violation aborts the write: nothing becomes visible.
    pub fn echo(&mut self, data: TaintedString) -> Result<()> {
        self.gate.write(data)
    }

    /// Writes body data by reference, for fragments the caller keeps
    /// (shared templates, repeated chrome). The filter chain borrows the
    /// data, and the append to the body is its one copy; see
    /// [`resin_core::Gate::write_ref`].
    pub fn echo_ref(&mut self, data: &TaintedString) -> Result<()> {
        self.gate.write_ref(data)
    }

    /// Writes untainted text.
    pub fn echo_str(&mut self, s: &str) -> Result<()> {
        self.gate.write_str(s)
    }

    /// The body text that actually crossed the boundary, copied once.
    pub fn body(&self) -> String {
        self.gate.output_text().to_owned()
    }

    /// Runs `f` with output buffering (§5.5): output produced inside `f` is
    /// released only if `f` succeeds. On failure the body is cut back, text
    /// and labels, to its length when `f` began, and `fallback` runs in its
    /// place (e.g. printing `"Anonymous"` when the author-list policy
    /// raises).
    ///
    /// Returns the error from `f` (after applying the fallback) so callers
    /// can distinguish the two outcomes.
    pub(crate) fn buffered<F, G>(&mut self, f: F, fallback: G) -> Result<(), FlowError>
    where
        F: FnOnce(&mut Response) -> Result<()>,
        G: FnOnce(&mut Response) -> Result<()>,
    {
        let mark = self.gate.output_mark();
        match f(self) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.gate.truncate_output(mark);
                fallback(self)?;
                Err(e)
            }
        }
    }

    /// Like `Response::buffered`, but swallows the error after the
    /// fallback ran — the common "catch the exception, show alternate
    /// output, keep rendering" pattern of §5.5.
    pub fn buffered_or<F>(&mut self, f: F, fallback_text: &str) -> Result<()>
    where
        F: FnOnce(&mut Response) -> Result<()>,
    {
        match self.buffered(f, |r| r.echo_str(fallback_text)) {
            Ok(()) | Err(_) => Ok(()),
        }
    }
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("headers", &self.headers.len())
            .field("body_len", &self.gate.output().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PasswordPolicy, UntrustedData};
    use std::sync::Arc;

    #[test]
    fn echo_and_body() {
        let mut r = Response::new();
        r.echo_str("hello ").unwrap();
        r.echo_str("world").unwrap();
        assert_eq!(r.body(), "hello world");
        assert_eq!(r.status(), 200);
        r.set_status(404);
        assert_eq!(r.status(), 404);
    }

    #[test]
    fn password_blocked_from_body() {
        let mut r = Response::new();
        let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
        assert!(r.echo(secret.clone()).is_err());
        assert_eq!(r.body(), "");
        // ...but the chair may see it.
        let mut chair = Response::for_user("chair");
        chair.set_priv_chair(true);
        chair.echo(secret).unwrap();
        assert_eq!(chair.body(), "pw");
    }

    #[test]
    fn echo_ref_shares_the_template() {
        let mut r = Response::new();
        let chrome = TaintedString::from("<nav>menu</nav>");
        r.echo_ref(&chrome).unwrap();
        r.echo_ref(&chrome).unwrap();
        assert_eq!(r.body(), "<nav>menu</nav><nav>menu</nav>");

        let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
        assert!(r.echo_ref(&secret).is_err());
        assert!(!r.body().contains("pw"));
    }

    #[test]
    fn header_splitting_rejected() {
        let mut r = Response::new();
        let evil = TaintedString::with_policy(
            "x\r\n\r\n<script>alert(1)</script>",
            Arc::new(UntrustedData::new()),
        );
        assert!(r.set_header("Location", evil).is_err());
        assert!(r.headers().is_empty());
        // Server-generated CRLF is fine.
        r.set_header("X-Plain", TaintedString::from("a\r\n\r\nb"))
            .unwrap();
        assert_eq!(r.headers().len(), 1);
    }

    #[test]
    fn buffered_discards_on_violation() {
        let mut r = Response::for_user("pc_member");
        r.echo_str("<h1>Paper</h1>").unwrap();
        let secret = TaintedString::with_policy("Alice, Bob", Arc::new(PasswordPolicy::new("x@y")));
        r.buffered_or(
            |r| {
                r.echo_str("<p>Authors: ")?;
                r.echo(secret)?;
                r.echo_str("</p>")
            },
            "Anonymous",
        )
        .unwrap();
        assert_eq!(r.body(), "<h1>Paper</h1>Anonymous");
    }

    #[test]
    fn buffered_leaves_no_label_of_the_dropped_bytes() {
        // A tainted echo, then a denial: the fallback lands where the
        // tainted bytes were, and carries none of their label.
        let mut r = Response::for_user("pc_member");
        r.echo_str("<p>").unwrap();
        let form = TaintedString::with_policy("<b>typed</b>", Arc::new(UntrustedData::new()));
        let secret = TaintedString::with_policy("Alice, Bob", Arc::new(PasswordPolicy::new("x@y")));
        r.buffered_or(
            |r| {
                r.echo(form)?;
                r.echo(secret)
            },
            "Anonymous",
        )
        .unwrap();
        let out = r.gate.output();
        assert_eq!(out.as_str(), "<p>Anonymous");
        assert!(out.is_untainted(), "{:?}", out.spans().collect::<Vec<_>>());
    }

    #[test]
    fn buffered_releases_on_success() {
        let mut r = Response::new();
        r.buffered_or(|r| r.echo_str("ok"), "fallback").unwrap();
        assert_eq!(r.body(), "ok");
    }

    #[test]
    fn buffered_reports_error() {
        let mut r = Response::new();
        let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
        let err = r
            .buffered(|r| r.echo(secret), |r| r.echo_str("-"))
            .unwrap_err();
        assert!(err.is_violation());
        assert_eq!(r.body(), "-");
    }
}
