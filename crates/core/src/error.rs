//! Error types shared by the RESIN runtime.
//!
//! The surface centres on one taxonomy, [`FlowError`]: every way a data
//! flow can fail to cross a gate is one of its variants.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

use crate::gate::GateKind;

/// A data flow assertion failure.
///
/// Raised by a policy object's `export_check` (or a filter object) when
/// data is about to cross a data flow boundary in violation of an
/// assertion. This corresponds to the exception thrown by `export_check`
/// in the paper (Figure 2): the runtime converts the exception into an
/// aborted write, so the faulty flow never becomes visible outside the
/// boundary.
///
/// A violation is a record, not prose, and no field can hold the refused
/// data: a denial logged or shown never replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyViolation {
    /// Class name of the policy (or filter/gate) that rejected the flow:
    /// a literal at a native site, so a denial allocates nothing.
    pub policy: Cow<'static, str>,
    /// Why the flow was refused.
    pub reason: Reason,
    /// Where in the checked data the refused bytes are, when a guard
    /// scanned it.
    pub at: Option<Range<usize>>,
    /// The kind of gate on which the violation occurred, if known.
    pub channel: Option<GateKind>,
}

/// Why a flow was refused: the closed set the runtime raises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The channel carries no authenticated user.
    NoUser,
    /// The channel's user lacks the right the ACL requires.
    NotOnAcl,
    /// A gate deny rule refused data labelled with this policy class.
    DenyRule(&'static str),
    /// Untrusted bytes without the sanitizer's marker.
    Unsanitized,
    /// Untrusted bytes in the output's structure (markup, JSON, SQL).
    InStructure,
    /// A user-supplied header/body delimiter in a header value.
    HeaderDelimiter,
    /// A script policy threw.
    Threw(Thrown),
    /// A script policy's check failed: the interpreter's own error text.
    ScriptError(Box<str>),
    /// A fixed reason: an application invariant, a merge veto, a policy
    /// whose only answer is no.
    Refused(&'static str),
}

/// A thrown value as an error may show it. `resin_lang` decides which
/// (`interp::thrown`): a short text that carries no policy is kept, since
/// `throw "not the owner"` is the reason; anything else only by length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Thrown {
    /// A short, unlabelled text, as thrown.
    Text(Box<str>),
    /// A labelled or long value's length in bytes.
    Withheld(usize),
}

impl PolicyViolation {
    /// A violation raised by `policy` for `reason`.
    pub fn new(policy: impl Into<Cow<'static, str>>, reason: Reason) -> Self {
        PolicyViolation {
            policy: policy.into(),
            reason,
            at: None,
            channel: None,
        }
    }

    /// A violation raised by a guard that found the refused bytes `at`.
    pub fn at(policy: &'static str, reason: Reason, at: Range<usize>) -> Self {
        let mut v = PolicyViolation::new(policy, reason);
        v.at = Some(at);
        v
    }

    /// Attaches the gate kind on which the violation occurred.
    pub fn on_channel(mut self, kind: GateKind) -> Self {
        self.channel = Some(kind);
        self
    }
}

impl fmt::Display for Thrown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Thrown::Text(text) => f.write_str(text),
            Thrown::Withheld(len) => write!(f, "a thrown value of {len} bytes, withheld"),
        }
    }
}

impl fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy violation [{}]: ", self.policy)?;
        match &self.reason {
            Reason::NoUser => f.write_str("no authenticated user on channel"),
            Reason::NotOnAcl => f.write_str("user not on the ACL"),
            Reason::DenyRule(class) => write!(f, "`{class}`-labeled data may not leave the gate"),
            Reason::Unsanitized => f.write_str("unsanitized untrusted data"),
            Reason::InStructure => f.write_str("untrusted data in structure"),
            Reason::HeaderDelimiter => f.write_str("user-supplied header delimiter"),
            Reason::Threw(thrown) => write!(f, "{thrown}"),
            Reason::ScriptError(message) => write!(f, "policy error: {message}"),
            Reason::Refused(why) => f.write_str(why),
        }?;
        if let Some(at) = &self.at {
            write!(f, " at bytes {}..{}", at.start, at.end)?;
        }
        if let Some(ch) = &self.channel {
            write!(f, " (channel: {ch})")?;
        }
        Ok(())
    }
}

impl std::error::Error for PolicyViolation {}

/// Errors produced by policy (de)serialization (persistent policies, §3.4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The serialized form referenced a policy class that is not registered.
    UnknownClass(String),
    /// The serialized form was syntactically malformed.
    Malformed(String),
    /// A required field was missing when reconstructing a policy.
    MissingField {
        /// Policy class being reconstructed.
        class: String,
        /// Name of the missing field.
        field: String,
    },
    /// A field value could not be parsed into the expected type.
    BadField {
        /// Policy class being reconstructed.
        class: String,
        /// Name of the offending field.
        field: String,
        /// Description of the parse failure.
        reason: String,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::UnknownClass(c) => write!(f, "unknown policy class `{c}`"),
            SerializeError::Malformed(m) => write!(f, "malformed serialized policy: {m}"),
            SerializeError::MissingField { class, field } => {
                write!(f, "policy `{class}` missing field `{field}`")
            }
            SerializeError::BadField {
                class,
                field,
                reason,
            } => write!(f, "policy `{class}` field `{field}`: {reason}"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Every way a data flow can fail to cross a gate.
///
/// The taxonomy, in decreasing order of "the assertion worked":
///
/// * [`Denied`](FlowError::Denied) — a policy's `export_check` or a gate
///   deny rule rejected the flow (the paper's assertion failure);
/// * [`MergeDenied`](FlowError::MergeDenied) — two policies refused to
///   merge when data was combined (§3.4.2);
/// * [`Rejected`](FlowError::Rejected) — a filter rejected in-transit data
///   for a non-policy reason (e.g. a query the SQL guard cannot lex);
/// * [`Serialize`](FlowError::Serialize) — persistent policy
///   (de)serialization failed (§3.4.1);
/// * [`Runtime`](FlowError::Runtime) — infrastructure failure on a
///   simulated channel (I/O, missing account, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A data flow assertion rejected the flow.
    Denied(PolicyViolation),
    /// Two policies could not be merged (a `merge` method vetoed, §3.4.2).
    MergeDenied(PolicyViolation),
    /// A filter rejected in-transit data for a non-policy reason.
    Rejected(String),
    /// Persistent policy serialization failed.
    Serialize(SerializeError),
    /// Generic runtime error (I/O on a simulated channel, etc.).
    Runtime(String),
}

impl FlowError {
    /// Convenience constructor for [`FlowError::Rejected`].
    pub fn rejected(msg: impl Into<String>) -> Self {
        FlowError::Rejected(msg.into())
    }

    /// Convenience constructor for [`FlowError::Runtime`].
    pub fn runtime(msg: impl Into<String>) -> Self {
        FlowError::Runtime(msg.into())
    }

    /// Returns the inner violation, if this error is one.
    pub fn as_violation(&self) -> Option<&PolicyViolation> {
        match self {
            FlowError::Denied(v) | FlowError::MergeDenied(v) => Some(v),
            _ => None,
        }
    }

    /// True if the error is a policy violation or merge denial.
    pub fn is_violation(&self) -> bool {
        self.as_violation().is_some()
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Denied(v) => write!(f, "{v}"),
            FlowError::MergeDenied(v) => write!(f, "merge denied: {v}"),
            FlowError::Rejected(m) => write!(f, "filter rejected data: {m}"),
            FlowError::Serialize(e) => write!(f, "serialize error: {e}"),
            FlowError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PolicyViolation> for FlowError {
    fn from(v: PolicyViolation) -> Self {
        FlowError::Denied(v)
    }
}

impl From<SerializeError> for FlowError {
    fn from(e: SerializeError) -> Self {
        FlowError::Serialize(e)
    }
}

/// Result alias used throughout the runtime.
pub type Result<T, E = FlowError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_includes_policy_and_channel() {
        let v = PolicyViolation::new("PasswordPolicy", Reason::Refused("unauthorized disclosure"))
            .on_channel(GateKind::Http);
        assert_eq!(
            v.to_string(),
            "policy violation [PasswordPolicy]: unauthorized disclosure (channel: http)"
        );
        let v = PolicyViolation::at("XssGuard", Reason::Unsanitized, 3..9);
        assert_eq!(
            v.to_string(),
            "policy violation [XssGuard]: unsanitized untrusted data at bytes 3..9"
        );
    }

    #[test]
    fn flow_error_violation_roundtrip() {
        let v = PolicyViolation::new("P", Reason::NotOnAcl);
        let e: FlowError = v.clone().into();
        assert!(e.is_violation());
        assert_eq!(e.as_violation(), Some(&v));
    }

    #[test]
    fn serialize_error_display() {
        let e = SerializeError::MissingField {
            class: "PagePolicy".into(),
            field: "acl".into(),
        };
        assert!(e.to_string().contains("PagePolicy"));
        assert!(e.to_string().contains("acl"));
        let e2 = SerializeError::UnknownClass("Nope".into());
        assert!(e2.to_string().contains("Nope"));
    }

    #[test]
    fn runtime_and_rejected_not_violations() {
        assert!(!FlowError::runtime("x").is_violation());
        assert!(!FlowError::rejected("y").is_violation());
        assert!(FlowError::from(PolicyViolation::new("P", Reason::NoUser)).is_violation());
    }
}
