//! Gates: the single data-flow boundary abstraction of the runtime.
//!
//! RESIN's power comes from one idea applied uniformly: every data flow
//! that crosses a boundary runs the same policy checks (§3.2). A [`Gate`]
//! is that one boundary. It subsumes what earlier revisions of this
//! codebase spread across three APIs:
//!
//! * the I/O **channel** (sockets, pipes, files, HTTP output, email, SQL,
//!   code import, §3.2.1) — a gate has a [`Context`], whose kind is the
//!   gate's kind, an ordered filter chain, and an output buffer standing
//!   in for "the outside world"; inbound data is handed to
//!   [`Gate::read`], which returns what the read filters let in;
//! * the **internal module boundary** (§8) — a gate carries deny/strip
//!   rules over policy classes, so a module can refuse to let clear-text
//!   passwords escape, or declassify on the way out;
//! * the **function-call boundary** (Table 3's `filter_func`) — a gate can
//!   guard a function call, running its outbound path over the arguments
//!   and its read filters over the return value.
//!
//! A gate is built where it is used: [`Gate::new`] for a checking surface,
//! [`Gate::unguarded`] for a persistence surface whose crate mounts its own
//! filters, [`Gate::internal`] for a module boundary. The methods
//! [`Gate::add_filter`], [`Gate::deny`], [`Gate::strip`] and
//! [`Gate::context_mut`] configure it afterwards.
//!
//! On the outbound path a gate applies, in order:
//!
//! 1. **deny rules** — any matching rule aborts the flow;
//! 2. **strip rules** — declassification points remove their policy class;
//! 3. the **filter chain** — each [`Filter::filter_write`] in insertion
//!    order (a guarded gate starts with [`DefaultFilter`], which runs every
//!    policy's `export_check`);
//! 4. the **output** — whatever survives becomes visible output.

use std::borrow::Cow;
use std::fmt;

use crate::context::Context;
use crate::error::{FlowError, PolicyViolation, Reason, Result};
use crate::filter::{DefaultFilter, Filter};
use crate::policy::Policy;
use crate::taint::TaintedString;

/// The kind of I/O surface a gate guards.
///
/// The kind is the channel's `type` (the paper's `$context['type']`), so
/// policy `export_check` methods can distinguish (say) email from HTTP, as
/// in the HotCRP password policy of Figure 2. A gate keeps it in its
/// [`Context`] and nowhere else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// HTTP response body sent to a browser.
    Http,
    /// Outgoing email (e.g. a sendmail pipe). Context carries the recipient.
    Email,
    /// A network socket.
    Socket,
    /// An OS pipe.
    Pipe,
    /// A file in the (virtual) filesystem.
    File,
    /// A SQL query channel to the database.
    Sql,
    /// Script code flowing into the interpreter (§3.2.2).
    CodeImport,
    /// An application-defined boundary (e.g. a module or function gate).
    Custom(&'static str),
}

impl GateKind {
    /// The channel type a policy sees: [`Context::channel_type`] in Rust,
    /// `context["type"]` in RSL.
    pub fn type_name(&self) -> &'static str {
        match self {
            GateKind::Http => "http",
            GateKind::Email => "email",
            GateKind::Socket => "socket",
            GateKind::Pipe => "pipe",
            GateKind::File => "file",
            GateKind::Sql => "sql",
            GateKind::CodeImport => "code",
            GateKind::Custom(name) => name,
        }
    }

    /// The seven paper-defined I/O surfaces (everything but `Custom`).
    #[cfg(test)]
    pub(crate) const IO_SURFACES: [GateKind; 7] = [
        GateKind::Http,
        GateKind::Email,
        GateKind::Socket,
        GateKind::Pipe,
        GateKind::File,
        GateKind::Sql,
        GateKind::CodeImport,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_name())
    }
}

/// What a gate rule does when it sees a guarded policy class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleAction {
    /// Refuse the export.
    Deny,
    /// Allow the export but remove the policy (declassification point).
    Strip,
}

/// Tests whether a rule applies to in-transit data.
type RulePredicate = Box<dyn Fn(&TaintedString) -> bool + Send + Sync>;

/// Removes a rule's policy class from in-transit data.
type RuleStripper = Box<dyn Fn(&mut TaintedString) + Send + Sync>;

/// A deny/strip rule over in-transit data.
struct Rule {
    matches: RulePredicate,
    strip: Option<RuleStripper>,
    action: RuleAction,
    class: &'static str,
}

impl Rule {
    /// A rule refusing any data labeled with `T`.
    fn deny<T: Policy>() -> Self {
        Rule {
            matches: Box::new(|d: &TaintedString| d.has_policy::<T>()),
            strip: None,
            action: RuleAction::Deny,
            class: std::any::type_name::<T>(),
        }
    }

    /// A rule removing all `T` policies on the way out.
    fn strip<T: Policy>() -> Self {
        Rule {
            matches: Box::new(|d: &TaintedString| d.has_policy::<T>()),
            strip: Some(Box::new(|d: &mut TaintedString| {
                d.remove_policy_type::<T>()
            })),
            action: RuleAction::Strip,
            class: std::any::type_name::<T>(),
        }
    }
}

/// A guarded data-flow boundary.
///
/// Writing through the gate runs the deny/strip rules, then every filter's
/// `filter_write` in order, on the fragment written; what survives is
/// appended to the gate's output, one [`TaintedString`] that keeps each
/// byte's label. Output buffering (§5.5) cuts that string back to a byte
/// length ([`Gate::output_mark`], [`Gate::truncate_output`]). Reading
/// ([`Gate::read`]) runs `filter_read` in order over data that arrived.
/// The gate owns its [`Context`], which holds its kind and which
/// applications annotate with boundary-specific key–value pairs
/// (`sock.__filter.context['user'] = req.user` in the paper's MoinMoin
/// example, Figure 5).
///
/// # Example: the Figure 2 password policy, end to end
///
/// The paper's flagship scenario — a password annotated with
/// [`PasswordPolicy`](crate::policies::PasswordPolicy) may not flow to an
/// HTTP response, but may be emailed to its owner — runs through the
/// default gates of those two surfaces:
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// // Annotate the password with a policy object (Figure 2).
/// let mut password = TaintedString::from("s3cret");
/// password.add_policy(Arc::new(PasswordPolicy::new("u@foo.com")));
///
/// // The password propagates into an email body...
/// let mut body = TaintedString::from("Your password is: ");
/// body.push_tainted(&password);
///
/// // ...and the default gates enforce the assertion. HTTP: denied.
/// let mut http = Gate::new(GateKind::Http);
/// let err = http.write(body.clone()).unwrap_err();
/// assert!(err.is_violation());
/// assert_eq!(http.output_text(), "", "nothing leaked");
///
/// // Email to the owner's address: allowed.
/// let mut email = Gate::new(GateKind::Email);
/// email.context_mut().set_str("email", "u@foo.com");
/// email.write(body).unwrap();
/// assert_eq!(email.output_text(), "Your password is: s3cret");
/// ```
pub struct Gate {
    name: Option<&'static str>,
    context: Context,
    rules: Vec<Rule>,
    filters: Vec<Box<dyn Filter>>,
    /// Data that crossed the boundary outward (visible to "the world").
    out: TaintedString,
    /// The fragment `write_str` checks, kept for its capacity.
    plain: TaintedString,
    write_offset: u64,
    read_offset: u64,
}

impl Gate {
    /// A gate of `kind` guarded by the default filter (Figure 3).
    pub fn new(kind: GateKind) -> Self {
        let mut gate = Gate::unguarded(kind);
        gate.filters = vec![Box::new(DefaultFilter)];
        gate
    }

    /// A gate with no filters at all (an *unguarded* boundary).
    ///
    /// The sql and file surfaces start here and mount their own filters;
    /// it also models the "unmodified PHP" baseline.
    pub fn unguarded(kind: GateKind) -> Self {
        Gate {
            context: Context::new(kind),
            name: None,
            rules: Vec::new(),
            filters: Vec::new(),
            out: TaintedString::new(),
            plain: TaintedString::new(),
            write_offset: 0,
            read_offset: 0,
        }
    }

    /// An unguarded gate around a software module (an internal boundary,
    /// §8): add deny/strip rules with [`Gate::deny`] and [`Gate::strip`].
    pub fn internal(name: &'static str) -> Self {
        let mut gate = Gate::unguarded(GateKind::Custom(name));
        gate.name = Some(name);
        gate
    }

    /// The gate's kind: its context's.
    pub fn kind(&self) -> &GateKind {
        self.context.kind()
    }

    /// The gate's name, when it labels a module or function boundary.
    pub fn name(&self) -> Option<&'static str> {
        self.name
    }

    /// Immutable access to the gate context.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Mutable access to the gate context, for application annotations.
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.context
    }

    /// Pushes an additional filter object onto the gate.
    ///
    /// Filters run in insertion order on write and on read.
    pub fn add_filter(&mut self, filter: Box<dyn Filter>) {
        self.filters.push(filter);
    }

    /// Number of filters guarding the gate.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Number of deny/strip rules on the gate.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Adds a rule: data carrying a `T` policy may not cross outward.
    pub fn deny<T: Policy>(mut self) -> Self {
        self.rules.push(Rule::deny::<T>());
        self
    }

    /// Adds a rule: crossing outward removes all `T` policies (a
    /// declassification point, like the encryption-function filter of §3.2).
    pub fn strip<T: Policy>(mut self) -> Self {
        self.rules.push(Rule::strip::<T>());
        self
    }

    /// Runs the outbound path — deny rules, strip rules, write filters —
    /// and returns the (possibly altered) data without capturing it.
    ///
    /// This is the module-boundary export of §8: the auth module wraps its
    /// public return values in `export`, and the gate rejects (or strips)
    /// configured policy classes, so sensitive data cannot escape the
    /// module even through code paths the module author forgot about.
    pub fn export(&self, data: TaintedString) -> Result<TaintedString> {
        self.export_cow(Cow::Owned(data)).map(Cow::into_owned)
    }

    /// Copy-on-write form of [`Gate::export`], and the one place the
    /// outbound chain is written: the outbound path over a [`Cow`].
    ///
    /// Deny rules and check-only filters inspect the data without taking
    /// ownership, so a `Cow::Borrowed` input crosses the whole chain
    /// without a single clone unless a strip rule or a rewriting filter
    /// actually modifies it — the zero-copy write path for callers that
    /// keep their data (see [`Gate::write_ref`]).
    pub fn export_cow<'a>(&self, data: Cow<'a, TaintedString>) -> Result<Cow<'a, TaintedString>> {
        self.check_deny(&data)?;
        let mut buf = data;
        for rule in &self.rules {
            if let Some(strip) = &rule.strip {
                // Only take ownership when the rule's class is present:
                // stripping an absent policy is a no-op and must not
                // force a copy.
                if (rule.matches)(&buf) {
                    strip(buf.to_mut());
                }
            }
        }
        for f in &self.filters {
            buf = f.filter_write(buf, self.write_offset, &self.context)?;
        }
        Ok(buf)
    }

    /// Runs the deny rules against in-transit data.
    fn check_deny(&self, data: &TaintedString) -> Result<()> {
        for rule in &self.rules {
            if rule.action == RuleAction::Deny && (rule.matches)(data) {
                return Err(FlowError::Denied(
                    PolicyViolation::new(self.name.unwrap_or("Gate"), Reason::DenyRule(rule.class))
                        .on_channel(self.kind().clone()),
                ));
            }
        }
        Ok(())
    }

    /// Writes `data` across the boundary.
    ///
    /// Each filter may check or alter the in-transit data; a policy
    /// violation aborts the write and nothing becomes visible in
    /// [`Gate::output`].
    pub fn write(&mut self, data: TaintedString) -> Result<()> {
        self.append(Cow::Owned(data))
    }

    /// Writes `data` across the boundary *by reference* — the zero-copy
    /// hot path for callers that keep their buffer (templates, retries,
    /// fan-out to several gates).
    ///
    /// When the filter chain passes the data through unmodified (the
    /// common case for the default chain), nothing is cloned on the way:
    /// the one copy is the append to the output.
    pub fn write_ref(&mut self, data: &TaintedString) -> Result<()> {
        self.append(Cow::Borrowed(data))
    }

    /// Writes a plain (policy-free) string across the boundary. The chain
    /// sees it in a fragment the gate keeps, so a warm write allocates
    /// nothing.
    pub fn write_str(&mut self, data: &str) -> Result<()> {
        let mut plain = std::mem::take(&mut self.plain);
        plain.truncate(0);
        plain.push_str(data);
        let written = self.append(Cow::Borrowed(&plain));
        self.plain = plain;
        written
    }

    /// The one write: the outbound path over `data`, then an append of
    /// what survives, text and spans, to the output.
    fn append(&mut self, data: Cow<'_, TaintedString>) -> Result<()> {
        let buf = self.export_cow(data)?;
        self.write_offset += buf.len() as u64;
        self.out.push_tainted(&buf);
        Ok(())
    }

    /// Reads `data`, which arrived from outside, through the read filters.
    ///
    /// Filters may assign initial policies (e.g. deserialize persistent
    /// policies) or reject the data (e.g. the code-import filter of
    /// Figure 6).
    pub fn read(&mut self, data: TaintedString) -> Result<TaintedString> {
        let buf = self.filter_read(data, self.read_offset)?;
        self.read_offset += buf.len() as u64;
        Ok(buf)
    }

    /// The one inbound path: every filter's `filter_read`, in order.
    fn filter_read(&self, mut data: TaintedString, offset: u64) -> Result<TaintedString> {
        for f in &self.filters {
            data = f.filter_read(data, offset, &self.context)?;
        }
        Ok(data)
    }

    /// Calls `func` with arguments run through the outbound path and a
    /// return value run through the read filters (Table 3's `filter_func`).
    ///
    /// An encryption function is the canonical example: a strip rule on its
    /// gate makes it a declassification point for confidentiality policies
    /// (§3.2).
    pub fn call<F>(&self, args: Vec<TaintedString>, func: F) -> Result<TaintedString>
    where
        F: FnOnce(Vec<TaintedString>) -> Result<TaintedString>,
    {
        let mut filtered = Vec::with_capacity(args.len());
        for a in args {
            filtered.push(self.export(a)?);
        }
        self.filter_read(func(filtered)?, 0)
    }

    /// Everything that successfully crossed the boundary outward, with
    /// each byte's label.
    pub fn output(&self) -> &TaintedString {
        &self.out
    }

    /// The text of [`Gate::output`].
    pub fn output_text(&self) -> &str {
        self.out.as_str()
    }

    /// Discards all captured output, keeping its capacity.
    pub fn clear_output(&mut self) {
        self.out.truncate(0);
    }

    /// Cuts the output, text and spans, back to `mark` bytes, a length
    /// [`Gate::output_mark`] returned (a cut inside a character panics).
    ///
    /// Building block for the output-buffering mechanism (§5.5): the web
    /// layer records a mark at `try`-block entry and truncates back to it
    /// when the block raises.
    pub fn truncate_output(&mut self, mark: usize) {
        self.out.truncate(mark);
    }

    /// The output's length in bytes (the "mark" for buffering).
    pub fn output_mark(&self) -> usize {
        self.out.len()
    }

    /// Running byte offset of outbound writes.
    pub fn write_offset(&self) -> u64 {
        self.write_offset
    }
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", self.kind())
            .field("name", &self.name)
            .field("rules", &self.rules.len())
            .field("filters", &self.filters.len())
            .field("output_len", &self.out.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FnFilter;
    use crate::label::Label;
    use crate::policies::{Acl, HtmlSanitized, PagePolicy, PasswordPolicy, Right, UntrustedData};
    use crate::policy::PolicyRef;
    use proptest::TestRng;
    use std::sync::Arc;

    fn pw(email: &str) -> PolicyRef {
        Arc::new(PasswordPolicy::new(email))
    }

    #[test]
    fn kind_type_names() {
        assert_eq!(GateKind::Http.type_name(), "http");
        assert_eq!(GateKind::Email.type_name(), "email");
        assert_eq!(GateKind::Custom("enc").type_name(), "enc");
        assert_eq!(GateKind::CodeImport.to_string(), "code");
        assert_eq!(GateKind::IO_SURFACES.len(), 7);
    }

    #[test]
    fn guarded_gate_enforces_password_policy() {
        let mut http = Gate::new(GateKind::Http);
        let mut secret = TaintedString::from("s3cret");
        secret.add_policy(pw("u@foo.com"));
        let err = http.write(secret.clone()).unwrap_err();
        assert!(err.is_violation());
        assert_eq!(http.output_text(), "", "nothing visible after violation");

        let mut mail = Gate::new(GateKind::Email);
        mail.context_mut().set("email", "u@foo.com");
        mail.write(secret).unwrap();
        assert_eq!(mail.output_text(), "s3cret");
    }

    #[test]
    fn unguarded_gate_leaks() {
        let mut g = Gate::unguarded(GateKind::Http);
        let mut secret = TaintedString::from("pw");
        secret.add_policy(pw("u@foo.com"));
        g.write(secret).unwrap();
        assert_eq!(g.output_text(), "pw", "no filters, no protection");
    }

    #[test]
    fn deny_rule_blocks_labeled_data() {
        let auth = Gate::internal("auth").deny::<PasswordPolicy>();
        let secret = TaintedString::with_policy("s3cret", pw("u@x"));
        let err = auth.export(secret).unwrap_err();
        assert!(err.is_violation());
        assert!(auth.export(TaintedString::from("public")).is_ok());
    }

    #[test]
    fn strip_rule_declassifies_before_default_filter() {
        // A guarded gate with a strip rule: the strip runs before the
        // default filter's export_check, so the declassified data passes
        // even where the policy would deny.
        let mut g = Gate::new(GateKind::Http).strip::<PasswordPolicy>();
        let secret = TaintedString::with_policy("s3cret", pw("u@x"));
        g.write(secret).unwrap();
        assert_eq!(g.output_text(), "s3cret");
        assert!(!g.output().has_policy::<PasswordPolicy>());
    }

    #[test]
    fn rules_compose() {
        let g = Gate::internal("m")
            .deny::<UntrustedData>()
            .strip::<PasswordPolicy>();
        assert_eq!(g.rule_count(), 2);
        let secret = TaintedString::with_policy("s", pw("u@x"));
        assert!(g.export(secret).unwrap().label().is_empty());
        let mixed = TaintedString::with_policy("x", Arc::new(UntrustedData::new()));
        assert!(g.export(mixed).is_err());
    }

    #[test]
    fn filter_chain_runs_in_insertion_order() {
        let mut g = Gate::unguarded(GateKind::Custom("order"));
        g.add_filter(Box::new(FnFilter::on_write(|d, _, _| {
            Ok(TaintedString::from(format!("{}a", d.as_str()).as_str()))
        })));
        g.add_filter(Box::new(FnFilter::on_write(|d, _, _| {
            Ok(TaintedString::from(format!("{}b", d.as_str()).as_str()))
        })));
        let out = g.export(TaintedString::from("x")).unwrap();
        assert_eq!(out.as_str(), "xab");
    }

    #[test]
    fn call_guards_function_boundary() {
        // An encryption function is a natural boundary: strip passwords.
        let enc = Gate::internal("encrypt").strip::<PasswordPolicy>();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(pw("u@x"));
        let out = enc
            .call(vec![secret], |args| {
                let s: String = args[0].as_str().chars().rev().collect();
                Ok(TaintedString::from(s.as_str()))
            })
            .unwrap();
        assert_eq!(out.as_str(), "wp");
        assert!(!out.has_policy::<PasswordPolicy>());
    }

    #[test]
    fn write_ref_is_equivalent_to_write() {
        let mut g = Gate::new(GateKind::Http);
        let body = TaintedString::from("shared template body");
        g.write_ref(&body).unwrap();
        g.write_ref(&body).unwrap();
        assert_eq!(g.output_text(), "shared template bodyshared template body");
        assert_eq!(g.write_offset(), 40);

        // A violation through the borrowed path leaves nothing visible.
        let mut secret = TaintedString::from("pw");
        secret.add_policy(pw("u@x"));
        assert!(g.write_ref(&secret).is_err());
        assert_eq!(g.output_mark(), 40);
    }

    #[test]
    fn write_ref_strip_rule_copies_only_on_match() {
        // Strip rules must not force a copy when their class is absent,
        // and must still declassify (on a private copy) when present.
        let mut g = Gate::new(GateKind::Http).strip::<PasswordPolicy>();
        let plain = TaintedString::from("no password here");
        g.write_ref(&plain).unwrap();

        let secret = TaintedString::with_policy("s3cret", pw("u@x"));
        g.write_ref(&secret).unwrap();
        assert!(
            secret.has_policy::<PasswordPolicy>(),
            "caller's copy untouched"
        );
        assert!(
            !g.output().has_policy::<PasswordPolicy>(),
            "output stripped"
        );
    }

    #[test]
    fn export_cow_borrows_through_checking_chain() {
        use std::borrow::Cow;
        let g = Gate::new(GateKind::Http);
        let data = TaintedString::from("plain");
        let out = g.export_cow(Cow::Borrowed(&data)).unwrap();
        assert!(
            matches!(out, Cow::Borrowed(_)),
            "check-only chain must not clone"
        );

        // A rewriting filter takes ownership.
        let mut g2 = Gate::new(GateKind::Http);
        g2.add_filter(Box::new(FnFilter::on_write(|d, _, _| {
            Ok(d.replace_str("a", "b"))
        })));
        let out2 = g2.export_cow(Cow::Borrowed(&data)).unwrap();
        assert!(matches!(out2, Cow::Owned(_)));
        assert_eq!(out2.as_str(), "plbin");
    }

    #[test]
    fn read_pulls_through_filters() {
        let mut g = Gate::new(GateKind::Socket);
        let offsets = Arc::new(std::sync::Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let offsets = Arc::clone(&offsets);
            g.add_filter(Box::new(FnFilter::on_read(move |d, offset, ctx| {
                assert_eq!(ctx.channel_type(), "socket");
                offsets.lock().unwrap().push(offset);
                Ok(TaintedString::from(format!("{}{tag}", d.as_str()).as_str()))
            })));
        }
        assert_eq!(g.read(TaintedString::from("in")).unwrap().as_str(), "inab");
        assert_eq!(g.read(TaintedString::from("x")).unwrap().as_str(), "xab");
        // Each read sees the running inbound offset, once per filter.
        assert_eq!(*offsets.lock().unwrap(), [0, 0, 4, 4]);
        assert_eq!(g.output_text(), "", "reading writes nothing");
    }

    #[test]
    fn truncate_output_supports_buffering() {
        let mut g = Gate::new(GateKind::Http);
        g.write_str("keep").unwrap();
        let mark = g.output_mark();
        g.write_str("discard1").unwrap();
        g.write_str("discard2").unwrap();
        g.truncate_output(mark);
        assert_eq!(mark, 4);
        assert_eq!(g.output_text(), "keep");
    }

    #[test]
    fn builder_composition() {
        let mut g = Gate::internal("composite").deny::<UntrustedData>();
        g.add_filter(Box::new(DefaultFilter));
        g.add_filter(Box::new(FnFilter::on_write(|d, _, _| Ok(d))));
        g.context_mut()
            .set("user", "alice")
            .set("attempts", 3i64)
            .set("admin", true);
        assert_eq!(g.name(), Some("composite"));
        assert_eq!(g.context().get_str("user"), Some("alice"));
        assert_eq!(g.context().get_int("attempts"), Some(3));
        assert!(g.context().get_flag("admin"));
        assert_eq!(g.filter_count(), 2, "default filter + explicit filter");
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn debug_format_names_gate() {
        let g = Gate::internal("auth").deny::<PasswordPolicy>();
        let s = format!("{g:?}");
        assert!(s.contains("auth"));
    }

    /// A fragment of up to 11 characters, some of them two bytes, with up
    /// to two ranges labeled from `policies`.
    fn fragment(rng: &mut TestRng, policies: &[PolicyRef]) -> TaintedString {
        const CHARS: [&str; 5] = ["a", "<", " ", "é", "\n"];
        let mut t = TaintedString::new();
        for _ in 0..rng.below(12) {
            t.push_str(CHARS[rng.below(5) as usize]);
        }
        for _ in 0..rng.below(3) {
            let (a, b) = (rng.below(t.len() as u64 + 1), rng.below(t.len() as u64 + 1));
            let policy = policies[rng.below(policies.len() as u64) as usize].clone();
            t.add_policy_range(a.min(b) as usize..a.max(b) as usize, policy);
        }
        t
    }

    /// Each byte's label, in order.
    fn byte_labels<'a>(parts: impl IntoIterator<Item = &'a TaintedString>) -> Vec<Label> {
        parts
            .into_iter()
            .flat_map(|t| (0..t.len()).map(move |i| t.label_at(i)))
            .collect()
    }

    #[test]
    fn output_buffer_matches_the_fragment_model() {
        // The reference keeps the output as it once was kept: a fragment
        // per write, a mark counting fragments, a truncate dropping the
        // fragments past it. Text and every byte's label must agree with
        // the one buffer after every op.
        let alice = PagePolicy::new(Acl::new().grant("alice", &[Right::Read]));
        let passing: [PolicyRef; 4] = [
            Arc::new(UntrustedData::from_source("a")),
            Arc::new(UntrustedData::from_source("b")),
            Arc::new(HtmlSanitized::new()),
            Arc::new(alice),
        ];
        let secret = TaintedString::with_policy("pw", pw("u@x"));
        for seed in 0..64 {
            let mut rng = TestRng::new(seed);
            let mut g = Gate::new(GateKind::Http).strip::<HtmlSanitized>();
            g.context_mut().set_str("user", "alice");
            let mut model: Vec<TaintedString> = Vec::new();
            // (fragments, bytes) at each open mark, oldest first.
            let mut marks: Vec<(usize, usize)> = Vec::new();
            for step in 0..200 {
                let mut data = fragment(&mut rng, &passing);
                let op = rng.below(9);
                match op {
                    // A denied write: a secret byte in the fragment.
                    3 => data.push_tainted(&secret),
                    // A strip-rule write: the rule's class on every byte.
                    4 => data.add_policy(passing[2].clone()),
                    2 => data = TaintedString::from(data.as_str()),
                    _ => {}
                }
                let expected = g.export(data.clone());
                let wrote = match op {
                    0 | 3 | 4 => g.write(data),
                    1 => g.write_ref(&data),
                    2 => g.write_str(data.as_str()),
                    5 => {
                        marks.push((model.len(), g.output_mark()));
                        continue;
                    }
                    6 | 7 if !marks.is_empty() => {
                        let (fragments, bytes) = marks[rng.below(marks.len() as u64) as usize];
                        marks.retain(|&(f, _)| f < fragments);
                        model.truncate(fragments);
                        g.truncate_output(bytes);
                        Ok(())
                    }
                    8 => {
                        model.clear();
                        marks.clear();
                        g.clear_output();
                        Ok(())
                    }
                    _ => continue,
                };
                if op <= 4 {
                    assert_eq!(wrote.is_ok(), expected.is_ok(), "seed {seed} step {step}");
                    assert_eq!(op == 3, wrote.is_err(), "seed {seed} step {step}");
                    model.extend(expected);
                }
                let out = g.output();
                let text: String = model.iter().map(TaintedString::as_str).collect();
                assert_eq!(out.as_str(), text, "seed {seed} step {step}");
                assert_eq!(
                    byte_labels([out]),
                    byte_labels(&model),
                    "seed {seed} step {step}"
                );
                assert!(
                    out.spans().all(|(r, _)| r.end <= out.len()),
                    "seed {seed} step {step}: a span past the text"
                );
                assert!(!out.has_policy::<HtmlSanitized>() && !out.has_policy::<PasswordPolicy>());
            }
        }
    }
}
