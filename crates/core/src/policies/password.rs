//! The password-disclosure policy of Figure 2.

use std::any::Any;

use crate::context::Context;
use crate::error::{PolicyViolation, Reason};
use crate::policy::Policy;

/// Data Flow Assertion 5: *user `u`'s password may leave the system only via
/// email to `u`'s email address, or to the program chair.*
///
/// The policy stores the account holder's email address. `export_check`
/// allows the flow when the boundary is an email channel whose recipient
/// matches, or an HTTP channel whose context carries the `priv_chair` flag
/// (the paper reuses HotCRP's `$Me->privChair`). Everything else — an HTTP
/// response to a regular user, a socket, a stray file fetch — is an
/// unauthorized disclosure.
///
/// The myPHPscripts variant of the assertion (§6.3) is the same policy with
/// the chair exception disabled ([`PasswordPolicy::strict`]).
#[derive(Debug, Clone)]
pub struct PasswordPolicy {
    email: String,
    allow_chair: bool,
}

impl PasswordPolicy {
    /// Password policy for the account with address `email`, with the
    /// HotCRP program-chair exception enabled.
    pub fn new(email: impl Into<String>) -> Self {
        PasswordPolicy {
            email: email.into(),
            allow_chair: true,
        }
    }

    /// Variant without the program-chair exception (myPHPscripts login).
    pub fn strict(email: impl Into<String>) -> Self {
        PasswordPolicy {
            email: email.into(),
            allow_chair: false,
        }
    }

    /// The account holder's email address.
    pub fn email(&self) -> &str {
        &self.email
    }

    /// Whether disclosure to the program chair over HTTP is allowed.
    #[cfg(test)]
    pub(crate) fn allows_chair(&self) -> bool {
        self.allow_chair
    }
}

impl Policy for PasswordPolicy {
    fn name(&self) -> &str {
        "PasswordPolicy"
    }

    fn export_check(&self, context: &Context) -> Result<(), PolicyViolation> {
        match context.channel_type() {
            "email" if context.get_str("email") == Some(self.email.as_str()) => {
                return Ok(());
            }
            "http" if self.allow_chair && context.get_flag("priv_chair") => {
                return Ok(());
            }
            _ => {}
        }
        Err(PolicyViolation::new(
            "PasswordPolicy",
            Reason::Refused("unauthorized disclosure of a password"),
        ))
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        vec![
            ("email".to_string(), self.email.clone()),
            ("allow_chair".to_string(), self.allow_chair.to_string()),
        ]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn email_ctx(to: &str) -> Context {
        let mut c = Context::new(GateKind::Email);
        c.set_str("email", to);
        c
    }

    #[test]
    fn allows_own_email_only() {
        let p = PasswordPolicy::new("u@foo.com");
        assert!(p.export_check(&email_ctx("u@foo.com")).is_ok());
        assert!(p.export_check(&email_ctx("evil@foo.com")).is_err());
    }

    #[test]
    fn allows_chair_over_http() {
        let p = PasswordPolicy::new("u@foo.com");
        let mut http = Context::new(GateKind::Http);
        assert!(p.export_check(&http).is_err(), "regular user blocked");
        http.set("priv_chair", true);
        assert!(p.export_check(&http).is_ok(), "chair allowed");
    }

    #[test]
    fn strict_blocks_chair() {
        let p = PasswordPolicy::strict("u@foo.com");
        let mut http = Context::new(GateKind::Http);
        http.set("priv_chair", true);
        assert!(p.export_check(&http).is_err());
        assert!(!p.allows_chair());
    }

    #[test]
    fn blocks_other_channels() {
        let p = PasswordPolicy::new("u@foo.com");
        assert!(p.export_check(&Context::new(GateKind::Socket)).is_err());
        assert!(p.export_check(&Context::new(GateKind::Pipe)).is_err());
    }

    #[test]
    fn serializes_fields() {
        let p = PasswordPolicy::new("u@foo.com");
        let fields = p.serialize_fields();
        assert!(fields.contains(&("email".to_string(), "u@foo.com".to_string())));
    }
}
