//! Outgoing email: the sendmail pipe with its recipient-annotated context,
//! plus HotCRP's email *preview mode* — the second half of the password
//! disclosure vulnerability of §2.
//!
//! RESIN annotates each outgoing-email filter object with the message's
//! recipient (§3.2.1), which is what lets the `export_check` of
//! [`resin_core::PasswordPolicy`] decide whether the flow is the
//! legitimate reminder (to the account holder) or a leak.

use resin_core::{Gate, GateKind, Result, TaintedString};

use crate::response::Response;

/// A message that crossed the email boundary.
#[derive(Debug, Clone)]
pub struct SentEmail {
    /// Recipient address.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body text as it left the system.
    pub body: String,
}

/// The mail transport.
///
/// In preview mode (a HotCRP admin feature), messages are *displayed in
/// the requesting browser* instead of being sent — the exact behaviour the
/// password-reminder exploit abuses.
#[derive(Debug, Default)]
pub struct Mailer {
    preview_mode: bool,
    sent: Vec<SentEmail>,
}

impl Mailer {
    /// A mailer that actually delivers messages.
    pub fn new() -> Self {
        Mailer::default()
    }

    /// Enables or disables email preview mode.
    pub fn set_preview_mode(&mut self, on: bool) {
        self.preview_mode = on;
    }

    /// Sends (or previews) an email.
    ///
    /// * Delivery: the body crosses an email channel whose context carries
    ///   the recipient; password policies allow the flow only if the
    ///   recipient matches.
    /// * Preview: the body is echoed to the HTTP response instead — an
    ///   *HTTP* boundary, where the password policy rejects it unless the
    ///   viewer is the program chair.
    pub fn send(
        &mut self,
        to: &str,
        subject: &str,
        body: TaintedString,
        http: &mut Response,
    ) -> Result<()> {
        if self.preview_mode {
            http.echo_str(&format!("<pre>To: {to}\nSubject: {subject}\n\n"))?;
            http.echo(body)?;
            http.echo_str("</pre>")?;
            return Ok(());
        }
        let mut gate = Gate::new(GateKind::Email);
        gate.context_mut().set_str("email", to);
        // The message leaves as the gate exports it: no buffer, no copy.
        let body = gate.export(body)?.into_plain();
        self.sent.push(SentEmail {
            to: to.to_string(),
            subject: subject.to_string(),
            body,
        });
        Ok(())
    }

    /// Messages that were actually delivered.
    pub fn sent(&self) -> &[SentEmail] {
        &self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::PasswordPolicy;
    use std::sync::Arc;

    fn reminder_body(email: &str) -> TaintedString {
        let mut body = TaintedString::from("Your password is: ");
        body.push_tainted(&TaintedString::with_policy(
            "s3cret",
            Arc::new(PasswordPolicy::new(email)),
        ));
        body
    }

    #[test]
    fn delivery_to_owner_allowed() {
        let mut m = Mailer::new();
        let mut http = Response::new();
        m.send(
            "u@foo.com",
            "reminder",
            reminder_body("u@foo.com"),
            &mut http,
        )
        .unwrap();
        assert_eq!(m.sent().len(), 1);
        assert!(m.sent()[0].body.contains("s3cret"));
        assert_eq!(http.body(), "", "nothing leaked to the browser");
    }

    #[test]
    fn delivery_to_other_address_blocked() {
        let mut m = Mailer::new();
        let mut http = Response::new();
        let err = m
            .send(
                "evil@foo.com",
                "reminder",
                reminder_body("u@foo.com"),
                &mut http,
            )
            .unwrap_err();
        assert!(err.is_violation());
        assert!(m.sent().is_empty());
    }

    #[test]
    fn preview_mode_blocks_password_to_adversary() {
        // The HotCRP exploit: preview mode redirects the reminder into the
        // adversary's browser — the HTTP boundary catches it.
        let mut m = Mailer::new();
        m.set_preview_mode(true);
        let mut http = Response::for_user("adversary");
        let err = m
            .send(
                "victim@foo.com",
                "reminder",
                reminder_body("victim@foo.com"),
                &mut http,
            )
            .unwrap_err();
        assert!(err.is_violation());
        assert!(!http.body().contains("s3cret"));
    }

    #[test]
    fn preview_mode_allows_chair() {
        let mut m = Mailer::new();
        m.set_preview_mode(true);
        let mut http = Response::for_user("chair");
        http.set_priv_chair(true);
        m.send(
            "victim@foo.com",
            "reminder",
            reminder_body("victim@foo.com"),
            &mut http,
        )
        .unwrap();
        assert!(http.body().contains("s3cret"));
    }

    #[test]
    fn preview_of_plain_mail_is_fine() {
        let mut m = Mailer::new();
        m.set_preview_mode(true);
        let mut http = Response::new();
        m.send("x@y", "hi", TaintedString::from("no secrets"), &mut http)
            .unwrap();
        assert!(http.body().contains("no secrets"));
    }
}
