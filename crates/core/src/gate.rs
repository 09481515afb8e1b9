//! Gates: the single data-flow boundary abstraction of the runtime.
//!
//! RESIN's power comes from one idea applied uniformly: every data flow
//! that crosses a boundary runs the same policy checks (§3.2). A [`Gate`]
//! is that one boundary. It subsumes what earlier revisions of this
//! codebase spread across three APIs:
//!
//! * the I/O **channel** (sockets, pipes, files, HTTP output, email, SQL,
//!   code import, §3.2.1) — a gate has a kind, a [`Context`], an ordered
//!   filter chain, inbound/outbound queues, and a capture sink standing in
//!   for "the outside world";
//! * the **internal module boundary** (§8) — a gate carries deny/strip
//!   rules over policy classes, so a module can refuse to let clear-text
//!   passwords escape, or declassify on the way out;
//! * the **function-call boundary** (Table 3's `filter_func`) — a gate can
//!   guard a function call, running its outbound path over the arguments
//!   and its read filters over the return value.
//!
//! Gates are built with the fluent [`GateBuilder`] and are usually resolved
//! from the [`Runtime`](crate::runtime::Runtime)'s
//! [`GateRegistry`](crate::runtime::GateRegistry), which owns the default
//! gate for each of the paper's I/O surfaces.
//!
//! On the outbound path a gate applies, in order:
//!
//! 1. **deny rules** — any matching rule aborts the flow;
//! 2. **strip rules** — declassification points remove their policy class;
//! 3. the **filter chain** — each [`Filter::filter_write`] in insertion
//!    order (a guarded gate starts with [`DefaultFilter`], which runs every
//!    policy's `export_check`);
//! 4. the **capture sink** — whatever survives becomes visible output.

use std::borrow::Cow;
use std::fmt;

use crate::context::{Context, CtxValue};
use crate::error::{FlowError, PolicyViolation, Result};
use crate::filter::{DefaultFilter, Filter};
use crate::policy::Policy;
use crate::taint::TaintedString;

/// The kind of I/O surface a gate guards.
///
/// The kind doubles as the `type` entry of the gate's default context, so
/// policy `export_check` methods can distinguish (say) email from HTTP, as
/// in the HotCRP password policy of Figure 2.
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
    /// The string used for the `type` key in a gate context.
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
    pub const IO_SURFACES: [GateKind; 7] = [
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

/// Where output that survives the outbound path goes.
type Sink = Box<dyn Fn(&TaintedString) + Send + Sync>;

/// A guarded data-flow boundary.
///
/// Writing through the gate runs the deny/strip rules, then every filter's
/// `filter_write` in order; reading runs `filter_read` in order. The gate
/// owns its [`Context`], which applications annotate with boundary-specific
/// key–value pairs (`sock.__filter.context['user'] = req.user` in the
/// paper's MoinMoin example, Figure 5).
///
/// # Example: the Figure 2 password policy, end to end
///
/// The paper's flagship scenario — a password annotated with
/// [`PasswordPolicy`](crate::policies::PasswordPolicy) may not flow to an
/// HTTP response, but may be emailed to its owner — runs through gates
/// resolved from the [`Runtime`](crate::runtime::Runtime)'s registry:
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let rt = Runtime::new();
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
/// let mut http = rt.open(GateKind::Http);
/// let err = http.write(body.clone()).unwrap_err();
/// assert!(err.is_violation());
/// assert_eq!(http.output_text(), "", "nothing leaked");
///
/// // Email to the owner's address: allowed.
/// let mut email = rt.open(GateKind::Email);
/// email.context_mut().set_str("email", "u@foo.com");
/// email.write(body).unwrap();
/// assert_eq!(email.output_text(), "Your password is: s3cret");
/// ```
pub struct Gate {
    kind: GateKind,
    name: Option<&'static str>,
    context: Context,
    rules: Vec<Rule>,
    filters: Vec<Box<dyn Filter>>,
    capture: bool,
    sink: Option<Sink>,
    /// Data that crossed the boundary outward (visible to "the world").
    written: Vec<TaintedString>,
    /// Queued data the next `read` will pull through the inbound filters.
    inbound: Vec<TaintedString>,
    write_offset: u64,
    read_offset: u64,
}

impl Gate {
    /// A gate of `kind` guarded by the default filter (Figure 3).
    pub fn new(kind: GateKind) -> Self {
        GateBuilder::new(kind).build()
    }

    /// A gate with no filters at all (an *unguarded* boundary).
    ///
    /// Used to model the "unmodified PHP" baseline and for tests that need
    /// to observe raw flows.
    pub fn unguarded(kind: GateKind) -> Self {
        GateBuilder::new(kind).unguarded().build()
    }

    /// An unguarded gate around a software module (an internal boundary,
    /// §8): add deny/strip rules with [`Gate::deny`] and [`Gate::strip`].
    pub fn internal(name: &'static str) -> Self {
        GateBuilder::new(GateKind::Custom(name))
            .name(name)
            .unguarded()
            .build()
    }

    /// Starts building a gate of `kind`.
    pub fn builder(kind: GateKind) -> GateBuilder {
        GateBuilder::new(kind)
    }

    /// The gate's kind.
    pub fn kind(&self) -> &GateKind {
        &self.kind
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

    /// Consumes the gate, keeping only its context.
    ///
    /// Handy when a component needs the registry-configured context of a
    /// surface (say, the file channel) without holding a whole gate.
    pub fn into_context(self) -> Context {
        self.context
    }

    /// Pushes an additional filter object onto the gate.
    ///
    /// Filters run in insertion order on write and on read.
    pub fn add_filter(&mut self, filter: Box<dyn Filter>) {
        self.filters.push(filter);
    }

    /// Replaces all filters (used e.g. to override the interpreter's import
    /// filter from a global configuration, §5.2).
    pub fn set_filters(&mut self, filters: Vec<Box<dyn Filter>>) {
        self.filters = filters;
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
        self.add_deny_rule::<T>();
        self
    }

    /// Adds a rule: crossing outward removes all `T` policies (a
    /// declassification point, like the encryption-function filter of §3.2).
    pub fn strip<T: Policy>(mut self) -> Self {
        self.add_strip_rule::<T>();
        self
    }

    /// Non-consuming form of [`Gate::deny`].
    pub fn add_deny_rule<T: Policy>(&mut self) {
        self.rules.push(Rule::deny::<T>());
    }

    /// Non-consuming form of [`Gate::strip`].
    pub fn add_strip_rule<T: Policy>(&mut self) {
        self.rules.push(Rule::strip::<T>());
    }

    /// The label violations carry: the gate's name when it has one, else
    /// `"Gate"`.
    fn violation_source(&self) -> &'static str {
        self.name.unwrap_or("Gate")
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
            buf = f.filter_write_cow(buf, self.write_offset, &self.context)?;
        }
        Ok(buf)
    }

    /// Runs the deny rules against in-transit data.
    fn check_deny(&self, data: &TaintedString) -> Result<()> {
        for rule in &self.rules {
            if rule.action == RuleAction::Deny && (rule.matches)(data) {
                return Err(FlowError::Denied(
                    PolicyViolation::new(
                        self.violation_source(),
                        format!(
                            "`{}`-labeled data may not leave gate `{}`",
                            rule.class,
                            self.name.unwrap_or(self.kind.type_name()),
                        ),
                    )
                    .on_channel(self.kind.clone()),
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
        let buf = self.export(data)?;
        self.write_offset += buf.len() as u64;
        if let Some(sink) = &self.sink {
            sink(&buf);
        }
        if self.capture {
            self.written.push(buf);
        }
        Ok(())
    }

    /// Writes `data` across the boundary *by reference* — the zero-copy
    /// hot path for callers that keep their buffer (templates, retries,
    /// fan-out to several gates).
    ///
    /// When the filter chain passes the data through unmodified (the
    /// common case for the default chain), nothing is cloned on the way:
    /// a sink observes the borrow, and only a capturing gate copies once
    /// at the very end to retain the output.
    pub fn write_ref(&mut self, data: &TaintedString) -> Result<()> {
        let buf = self.export_cow(Cow::Borrowed(data))?;
        self.write_offset += buf.len() as u64;
        if let Some(sink) = &self.sink {
            sink(&buf);
        }
        if self.capture {
            // Clones only if the chain left the data borrowed.
            self.written.push(buf.into_owned());
        }
        Ok(())
    }

    /// Writes a plain (policy-free) string across the boundary.
    pub fn write_str(&mut self, data: &str) -> Result<()> {
        self.write(TaintedString::from(data))
    }

    /// Queues data on the inbound side, as if it arrived from outside.
    pub fn feed(&mut self, data: TaintedString) {
        self.inbound.push(data);
    }

    /// Reads the next queued inbound datum through the read filters.
    ///
    /// Returns `Ok(None)` when no data is queued. Filters may assign
    /// initial policies (e.g. deserialize persistent policies) or reject
    /// the data (e.g. the code-import filter of Figure 6).
    pub fn read(&mut self) -> Result<Option<TaintedString>> {
        if self.inbound.is_empty() {
            return Ok(None);
        }
        let mut buf = self.inbound.remove(0);
        let offset = self.read_offset;
        for f in &self.filters {
            buf = f.filter_read(buf, offset, &self.context)?;
        }
        self.read_offset += buf.len() as u64;
        Ok(Some(buf))
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
        let mut ret = func(filtered)?;
        for f in &self.filters {
            ret = f.filter_read(ret, 0, &self.context)?;
        }
        Ok(ret)
    }

    /// Everything that successfully crossed the boundary outward.
    pub fn output(&self) -> &[TaintedString] {
        &self.written
    }

    /// The outbound data concatenated into one plain string.
    pub fn output_text(&self) -> String {
        self.written.iter().map(|t| t.as_str()).collect()
    }

    /// Discards all captured output (used by output buffering, §5.5).
    pub fn clear_output(&mut self) {
        self.written.clear();
    }

    /// Removes and returns captured output produced after `mark` writes.
    ///
    /// Building block for the output-buffering mechanism: the web layer
    /// records a mark at `try`-block entry and truncates back to it when
    /// the block raises.
    pub fn truncate_output(&mut self, mark: usize) -> Vec<TaintedString> {
        self.written.split_off(mark.min(self.written.len()))
    }

    /// Number of successful outbound writes (the "mark" for buffering).
    pub fn output_mark(&self) -> usize {
        self.written.len()
    }

    /// Running byte offset of outbound writes.
    pub fn write_offset(&self) -> u64 {
        self.write_offset
    }

    /// Running byte offset of inbound reads.
    pub fn read_offset(&self) -> u64 {
        self.read_offset
    }
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("rules", &self.rules.len())
            .field("filters", &self.filters.len())
            .field("written", &self.written.len())
            .finish()
    }
}

/// Fluent constructor for [`Gate`]s.
///
/// A builder starts *guarded*: the built gate's filter chain begins with
/// [`DefaultFilter`] (Figure 3), followed by any filters added with
/// [`GateBuilder::filter`] in insertion order. Call
/// [`GateBuilder::unguarded`] for a gate with no default filter.
///
/// ```
/// use resin_core::prelude::*;
///
/// let gate = Gate::builder(GateKind::Email)
///     .context("email", "u@foo.com")
///     .build();
/// assert_eq!(gate.context().get_str("email"), Some("u@foo.com"));
/// assert_eq!(gate.filter_count(), 1); // the default filter
/// ```
pub struct GateBuilder {
    kind: GateKind,
    name: Option<&'static str>,
    context: Context,
    rules: Vec<Rule>,
    filters: Vec<Box<dyn Filter>>,
    guarded: bool,
    capture: bool,
    sink: Option<Sink>,
}

impl GateBuilder {
    /// Starts a guarded builder for a gate of `kind`.
    pub fn new(kind: GateKind) -> Self {
        let context = Context::new(kind.clone());
        GateBuilder {
            kind,
            name: None,
            context,
            rules: Vec::new(),
            filters: Vec::new(),
            guarded: true,
            capture: true,
            sink: None,
        }
    }

    /// Names the gate (module and function boundaries).
    pub fn name(mut self, name: &'static str) -> Self {
        self.name = Some(name);
        self
    }

    /// Adds a typed context entry (string, integer, or boolean).
    pub fn context(mut self, key: impl Into<String>, value: impl Into<CtxValue>) -> Self {
        self.context.set(key, value);
        self
    }

    /// Appends a filter to the chain.
    pub fn filter<F: Filter + 'static>(self, filter: F) -> Self {
        self.filter_boxed(Box::new(filter))
    }

    /// Appends an already-boxed filter to the chain.
    pub fn filter_boxed(mut self, filter: Box<dyn Filter>) -> Self {
        self.filters.push(filter);
        self
    }

    /// Drops the default filter: the gate runs only explicit filters.
    pub fn unguarded(mut self) -> Self {
        self.guarded = false;
        self
    }

    /// Data carrying a `T` policy may not cross outward.
    pub fn deny<T: Policy>(mut self) -> Self {
        self.rules.push(Rule::deny::<T>());
        self
    }

    /// Crossing outward removes all `T` policies (declassification).
    pub fn strip<T: Policy>(mut self) -> Self {
        self.rules.push(Rule::strip::<T>());
        self
    }

    /// Enables or disables the capture buffer (default: enabled).
    ///
    /// Disable it on hot paths where output only flows to a [`sink`]
    /// (or nowhere), so the gate does not accumulate memory.
    ///
    /// [`sink`]: GateBuilder::sink
    pub fn capture(mut self, on: bool) -> Self {
        self.capture = on;
        self
    }

    /// Installs a callback observing everything that crosses outward.
    ///
    /// The sink runs before the capture buffer (if any) records the datum —
    /// the instrumentation point the ROADMAP's batching/caching work hangs
    /// off.
    pub fn sink<F>(mut self, sink: F) -> Self
    where
        F: Fn(&TaintedString) + Send + Sync + 'static,
    {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Builds the gate.
    pub fn build(self) -> Gate {
        let mut filters: Vec<Box<dyn Filter>> =
            Vec::with_capacity(self.filters.len() + usize::from(self.guarded));
        if self.guarded {
            filters.push(Box::new(DefaultFilter));
        }
        filters.extend(self.filters);
        Gate {
            kind: self.kind,
            name: self.name,
            context: self.context,
            rules: self.rules,
            filters,
            capture: self.capture,
            sink: self.sink,
            written: Vec::new(),
            inbound: Vec::new(),
            write_offset: 0,
            read_offset: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FnFilter;
    use crate::policies::{PasswordPolicy, UntrustedData};
    use crate::policy::PolicyRef;
    use std::sync::{Arc, Mutex};

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

        let mut mail = Gate::builder(GateKind::Email)
            .context("email", "u@foo.com")
            .build();
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
        let mut g = Gate::builder(GateKind::Http)
            .strip::<PasswordPolicy>()
            .build();
        let secret = TaintedString::with_policy("s3cret", pw("u@x"));
        g.write(secret).unwrap();
        assert_eq!(g.output_text(), "s3cret");
        assert!(!g.output()[0].has_policy::<PasswordPolicy>());
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
        let g = Gate::builder(GateKind::Custom("order"))
            .unguarded()
            .filter(FnFilter::on_write(|d, _, _| {
                Ok(TaintedString::from(format!("{}a", d.as_str()).as_str()))
            }))
            .filter(FnFilter::on_write(|d, _, _| {
                Ok(TaintedString::from(format!("{}b", d.as_str()).as_str()))
            }))
            .build();
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
        assert_eq!(g.output_mark(), 2);
    }

    #[test]
    fn write_ref_strip_rule_copies_only_on_match() {
        // Strip rules must not force a copy when their class is absent,
        // and must still declassify (on a private copy) when present.
        let mut g = Gate::builder(GateKind::Http)
            .strip::<PasswordPolicy>()
            .build();
        let plain = TaintedString::from("no password here");
        g.write_ref(&plain).unwrap();

        let secret = TaintedString::with_policy("s3cret", pw("u@x"));
        g.write_ref(&secret).unwrap();
        assert!(
            secret.has_policy::<PasswordPolicy>(),
            "caller's copy untouched"
        );
        assert!(
            !g.output()[1].has_policy::<PasswordPolicy>(),
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
        let g2 = Gate::builder(GateKind::Http)
            .filter(FnFilter::on_write(|d, _, _| Ok(d.replace_str("a", "b"))))
            .build();
        let out2 = g2.export_cow(Cow::Borrowed(&data)).unwrap();
        assert!(matches!(out2, Cow::Owned(_)));
        assert_eq!(out2.as_str(), "plbin");
    }

    #[test]
    fn read_pulls_through_filters() {
        let mut g = Gate::new(GateKind::Socket);
        assert!(g.read().unwrap().is_none());
        g.feed(TaintedString::from("in"));
        assert_eq!(g.read().unwrap().unwrap().as_str(), "in");
        assert!(g.read().unwrap().is_none());
    }

    #[test]
    fn capture_off_discards_but_offsets_advance() {
        let mut g = Gate::builder(GateKind::Http).capture(false).build();
        g.write_str("abc").unwrap();
        g.write_str("de").unwrap();
        assert!(g.output().is_empty());
        assert_eq!(g.write_offset(), 5);
    }

    #[test]
    fn sink_observes_surviving_writes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut g = Gate::builder(GateKind::Http)
            .sink(move |d| seen2.lock().unwrap().push(d.as_str().to_string()))
            .build();
        g.write_str("ok").unwrap();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(pw("u@x"));
        let _ = g.write(secret);
        assert_eq!(*seen.lock().unwrap(), vec!["ok".to_string()]);
    }

    #[test]
    fn truncate_output_supports_buffering() {
        let mut g = Gate::new(GateKind::Http);
        g.write_str("keep").unwrap();
        let mark = g.output_mark();
        g.write_str("discard1").unwrap();
        g.write_str("discard2").unwrap();
        let dropped = g.truncate_output(mark);
        assert_eq!(dropped.len(), 2);
        assert_eq!(g.output_text(), "keep");
    }

    #[test]
    fn builder_composition() {
        let g = Gate::builder(GateKind::Custom("composite"))
            .name("composite")
            .context("user", "alice")
            .context("attempts", 3i64)
            .context("admin", true)
            .deny::<UntrustedData>()
            .filter(FnFilter::on_write(|d, _, _| Ok(d)))
            .build();
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
}
