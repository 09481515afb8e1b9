//! The RSL interpreter: its state, and the semantics of every operation.
//!
//! [`Interp`] holds what a script can see — globals, functions, classes,
//! the VFS, the HTTP gate — and runs code on the register VM
//! (`compiler` → [`crate::vm`]). The operation helpers and the
//! builtins below are the one definition of what each operation does; the
//! VM's general paths call them, and so does the test-only differential
//! oracle, which walks the AST instead of compiling it.
//!
//! Policy tracking is woven into every operation handler, the way the
//! paper's prototype modifies PHP's opcode handlers (§4):
//!
//! * string concatenation carries byte-range policy spans;
//! * integer arithmetic merges the operands' policy sets (§3.4.2);
//! * `echo` writes through the HTTP channel's default filter;
//! * `email` writes through a recipient-annotated email channel;
//! * `import` pulls code through the interpreter's code-import boundary
//!   (§3.2.2, Figure 6);
//! * file builtins go through the policy-persisting VFS (§3.4.1).
//!
//! [`Tracking::Off`] reproduces the *unmodified* interpreter: operations
//! take fast paths that skip policy propagation entirely, channels are
//! unguarded, and file policies are dropped — the baseline column of
//! Table 5.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use resin_core::sync::mlock;
use resin_core::{
    merge_many, merge_sets, register_policy_class, AuthenticData, CodeApproval, Context,
    EmptyPolicy, FlowError, Gate, GateKind, HtmlSanitized, Label, PolicyRef, PolicyViolation,
    Reason, SqlSanitized, TaintedString, Thrown, Tracking, UntrustedData,
};
use resin_vfs::Vfs;

use crate::ast::{BinOp, ClassDecl, FnDecl, Stmt};
use crate::chunk::Chunk;
use crate::parser::parse_program;
use crate::value::{Entry, Frozen, Key, ScriptPolicy, Value};

/// A runtime error (including policy violations surfacing in script).
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// Human-readable message.
    pub message: String,
    /// True when the error is a data flow assertion failure.
    pub violation: bool,
    /// 1-based source line of the statement that failed, when known.
    pub line: Option<u32>,
}

impl LangError {
    /// A plain (non-violation) runtime error.
    pub fn new(msg: impl Into<String>) -> Self {
        LangError {
            message: msg.into(),
            violation: false,
            line: None,
        }
    }

    pub(crate) fn flagged(message: String, violation: bool) -> Self {
        LangError {
            message,
            violation,
            line: None,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        Ok(())
    }
}

impl std::error::Error for LangError {}

/// What unwinds a run: an error or a `throw`.
pub(crate) enum Flow {
    Error(LangError),
    Throw(Value),
}

pub(crate) type R<T> = Result<T, Flow>;

pub(crate) fn rt(msg: impl Into<String>) -> Flow {
    Flow::Error(LangError::new(msg))
}

/// A delivered email (for inspection by tests and harnesses).
#[derive(Debug, Clone)]
pub struct SentMail {
    /// Recipient.
    pub to: String,
    /// Body as it left the system.
    pub body: String,
}

/// How deep script calls may recurse.
///
/// A script that recurses without end fails here with an ordinary error
/// instead of growing the VM's frame stack and slot array until memory
/// runs out: a policy check runs inside every gate crossing it guards, so
/// a runaway one has to fail fast and closed.
pub(crate) const MAX_CALL_DEPTH: usize = 64;

/// Declares [`Builtin`] and its one table: each builtin's name, through
/// which the compiler resolves a call once, and its [`Reach`], which the
/// refusal inside a gate crossing reads.
macro_rules! builtins {
    ($($variant:ident = $name:literal: $reach:ident,)*) => {
        /// A builtin function, by id.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // each variant is the builtin of that name
        pub(crate) enum Builtin {
            $($variant,)*
        }

        impl Builtin {
            /// The builtin called `name`, if there is one.
            pub(crate) fn from_name(name: &str) -> Option<Builtin> {
                match name {
                    $($name => Some(Builtin::$variant),)*
                    _ => None,
                }
            }

            /// The name scripts call it by.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Builtin::$variant => $name,)*
                }
            }

            /// What it reaches beyond its arguments.
            pub(crate) fn reach(self) -> Reach {
                match self {
                    $(Builtin::$variant => Reach::$reach,)*
                }
            }
        }
    };
}

/// What a builtin reaches beyond its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// The script host: output, mail, files, the gates, the current user,
    /// code import. A gate crossing has no host and refuses it.
    Host,
    /// Its arguments alone (a store into a frozen one fails closed).
    Values,
}

builtins! {
    Echo = "echo": Host,
    HttpContext = "http_context": Host,
    SetEmailPreview = "set_email_preview": Host,
    Email = "email": Host,
    SetUser = "set_user": Host,
    PolicyAdd = "policy_add": Values,
    PolicyRemove = "policy_remove": Values,
    PolicyGet = "policy_get": Values,
    Len = "len": Values,
    Substr = "substr": Values,
    Upper = "upper": Values,
    Lower = "lower": Values,
    Trim = "trim": Values,
    Contains = "contains": Values,
    Replace = "replace": Values,
    Split = "split": Values,
    Join = "join": Values,
    Str = "str": Values,
    Int = "int": Values,
    Typeof = "typeof": Values,
    Push = "push": Values,
    Pop = "pop": Values,
    Map = "map": Values,
    Keys = "keys": Values,
    Mkdir = "mkdir": Host,
    FileWrite = "file_write": Host,
    FileAppend = "file_append": Host,
    FileRead = "file_read": Host,
    FileExists = "file_exists": Host,
    MakeExecutable = "make_executable": Host,
    RequireCodeApproval = "require_code_approval": Host,
    Import = "import": Host,
    Assert = "assert": Values,
}

/// What a gate crossing's run gets for reaching past its policy's fields
/// and context — a host builtin, a definition: a violation naming it.
pub(crate) fn refused(what: String) -> Flow {
    let message = format!("{what} is refused inside a policy check");
    Flow::Error(LangError::flagged(message, true))
}

/// The interpreter.
pub struct Interp {
    pub(crate) tracking: Tracking,
    pub(crate) globals: HashMap<String, Value>,
    pub(crate) fns: HashMap<String, Arc<FnDecl>>,
    pub(crate) classes: HashMap<String, Arc<ClassDecl>>,
    /// The virtual filesystem, built on first file operation (policy
    /// checks through the VM never pay for one).
    vfs: Option<Vfs>,
    /// The HTTP output gate (`echo` writes here), built on first use.
    http: Option<Gate>,
    /// Emails actually delivered.
    pub emails: Vec<SentMail>,
    email_preview: bool,
    require_code_approval: bool,
    current_user: Option<String>,
    /// Per-interpreter chunk cache for script functions, keyed by the
    /// `FnDecl` allocation (the `Arc` is held so the address stays valid).
    pub(crate) chunks: HashMap<usize, (Arc<FnDecl>, Arc<Chunk>)>,
    /// The VM's buffers between runs (their capacity is worth keeping).
    pub(crate) vm_bufs: crate::vm::Bufs,
    /// Warning-level lint reports accumulated as policy classes were
    /// registered (error-level findings fail registration instead).
    lint_reports: Vec<crate::analysis::LintReport>,
}

impl Interp {
    /// A RESIN interpreter (tracking on).
    pub fn new() -> Self {
        Interp::with_tracking(Tracking::On)
    }

    /// An interpreter with the given tracking mode.
    pub fn with_tracking(tracking: Tracking) -> Self {
        Interp {
            tracking,
            globals: HashMap::new(),
            fns: HashMap::new(),
            classes: HashMap::new(),
            vfs: None,
            http: None,
            emails: Vec::new(),
            email_preview: false,
            require_code_approval: false,
            current_user: None,
            chunks: HashMap::new(),
            vm_bufs: Default::default(),
            lint_reports: Vec::new(),
        }
    }

    /// Lint reports (warnings only) collected while registering policy
    /// classes; one report per class, newest registration wins.
    pub fn lint_reports(&self) -> &[crate::analysis::LintReport] {
        &self.lint_reports
    }

    /// Drains the accumulated lint reports (for apps that surface them
    /// once on stderr and do not want repeats).
    pub fn take_lint_reports(&mut self) -> Vec<crate::analysis::LintReport> {
        std::mem::take(&mut self.lint_reports)
    }

    /// Runs the policy linter over a registered class by name.
    pub fn lint_class(&self, name: &str) -> Option<crate::analysis::LintReport> {
        self.classes.get(name).map(crate::analysis::lint_class)
    }

    /// The tracking mode.
    pub fn tracking(&self) -> Tracking {
        self.tracking
    }

    /// The virtual filesystem (created on first use).
    pub fn vfs(&mut self) -> &mut Vfs {
        let tracking = self.tracking;
        self.vfs.get_or_insert_with(|| Vfs::with_mode(tracking))
    }

    /// The HTTP output gate (created on first use).
    pub fn http(&mut self) -> &mut Gate {
        let tracking = self.tracking;
        self.http.get_or_insert_with(|| match tracking {
            Tracking::On => Gate::new(GateKind::Http),
            Tracking::Off => Gate::unguarded(GateKind::Http),
        })
    }

    /// The HTTP body produced so far.
    pub fn http_output(&self) -> &str {
        self.http.as_ref().map_or("", Gate::output_text)
    }

    /// A script-visible global, if defined (used by harnesses and the
    /// differential oracle).
    pub fn global(&self, name: &str) -> Option<Value> {
        self.globals.get(name).cloned()
    }

    /// Parses and runs a program in the global scope.
    pub fn run(&mut self, src: &str) -> Result<Value, LangError> {
        let program = parse_program(src).map_err(|e| LangError {
            message: e.to_string(),
            violation: false,
            line: Some(e.line),
        })?;
        self.exec_program(&program)
    }

    /// Runs a pre-parsed program (used by the benchmarks to exclude parse
    /// time, as the paper's microbenchmarks do).
    pub fn exec_program(&mut self, program: &[Stmt]) -> Result<Value, LangError> {
        let chunk = self.compile(program)?;
        self.exec_chunk(&chunk)
    }

    /// Compiles a pre-parsed program to a chunk (top-level scope), which
    /// benchmarks compile once and run repeatedly.
    pub fn compile(&mut self, program: &[Stmt]) -> Result<Arc<Chunk>, LangError> {
        crate::compiler::compile_program(program).map(Arc::new)
    }

    /// Runs a compiled top-level chunk on the VM.
    pub fn exec_chunk(&mut self, chunk: &Arc<Chunk>) -> Result<Value, LangError> {
        let flow = crate::vm::run_chunk(self, chunk.clone());
        finish(flow)
    }

    /// Calls a script-defined function by name.
    pub fn call_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, LangError> {
        let decl = self
            .fns
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::new(format!("undefined function `{name}`")))?;
        finish(crate::vm::call_function(self, &decl, args, None))
    }

    /// Registers a class definition. Classes with an `export_check` method
    /// are policy classes: they are statically analyzed first —
    /// error-severity lint findings fail the definition closed (an unsound
    /// policy never guards traffic), warnings accumulate on
    /// [`Interp::lint_reports`] — then registered with the process-wide
    /// policy registry so persisted instances can be revived (§3.4.1 —
    /// only class name and fields are stored). The linter reads the
    /// class's check plan, so each method compiles once, here, into the
    /// chunk its crossings run.
    ///
    /// A policy class is known by its code: a declaration equal to the one
    /// registered under its name (any earlier run's, in this process)
    /// adopts that one's `Arc`, so its objects, policies, `PolicyId`s and
    /// check plan are the earlier run's, and registers nothing. A changed
    /// declaration is a new version: it is registered, and stored texts of
    /// its class revive through it from then on. (Only declarations an
    /// `Interp` registered are compared: a class that Rust code registers
    /// under the same name is replaced by the next script that declares
    /// it differently, not by one that repeats an earlier declaration.)
    pub(crate) fn register_class(&mut self, decl: &Arc<ClassDecl>) -> R<()> {
        if decl.method("export_check").is_none() {
            self.classes.insert(decl.name.clone(), decl.clone());
            return Ok(());
        }
        /// The policy classes registered so far, by name: held across the
        /// compare and the registration, so the two agree.
        static DECLARED: Mutex<BTreeMap<String, Arc<ClassDecl>>> = Mutex::new(BTreeMap::new());
        let mut declared = mlock(&DECLARED);
        let known = (declared.get(&decl.name)).filter(|known| **known == *decl);
        let decl = known.unwrap_or(decl).clone();
        let new = known.is_none();
        let report = crate::analysis::lint_class(&decl);
        if let Some(err) = report.errors().next() {
            return Err(rt(format!(
                "policy class `{}` rejected by lint: {err}",
                decl.name
            )));
        }
        if !report.diagnostics.is_empty() {
            self.lint_reports
                .retain(|r| r.class_name != report.class_name);
            self.lint_reports.push(report);
        }
        self.classes.insert(decl.name.clone(), decl.clone());
        if new {
            let class = decl.clone();
            register_policy_class(decl.name.clone(), move |fields| {
                let field = |(k, v): (&String, &String)| {
                    let bad = || resin_core::SerializeError::BadField {
                        class: class.name.clone(),
                        field: k.clone(),
                        reason: "undecodable field".into(),
                    };
                    Ok((k.clone(), Entry::decode(v).ok_or_else(bad)?))
                };
                let fields = fields.iter().map(field).collect::<Result<_, _>>()?;
                Ok(Arc::new(ScriptPolicy::of(class.clone(), fields)) as PolicyRef)
            });
            // Recorded once registered: a panic in between leaves the map
            // naming an older version, and an equal declaration registers
            // again.
            declared.insert(decl.name.clone(), decl);
        }
        Ok(())
    }

    // ---- operation semantics (the VM's general paths call these) ----

    /// `a[i] = v` (array by int, map by string).
    pub(crate) fn index_assign(a: &Value, i: &Value, v: Value) -> R<()> {
        match (a, i) {
            (Value::Array(a), Value::Int(n, _)) => {
                let mut a = a.borrow_mut();
                let n = *n as usize;
                if n >= a.len() {
                    return Err(rt("array index out of range"));
                }
                a[n] = v;
                Ok(())
            }
            (Value::Map(m), Value::Str(k)) => {
                let mut m = m.borrow_mut();
                let key = match m.remove_entry(k.as_str()) {
                    Some((old, _)) => old.union(k),
                    None => Key(k.clone()),
                };
                m.insert(key, v);
                Ok(())
            }
            (Value::Frozen(_) | Value::Instance(_), _) => {
                Err(refused(format!("a store into a frozen {}", a.type_name())))
            }
            _ => Err(cannot_index(a, i)),
        }
    }

    /// `a[i]` (array by int, map by string, string by int).
    pub(crate) fn index_value(a: &Value, i: &Value) -> R<Value> {
        let out_of_range = || rt("array index out of range");
        match (a, i) {
            (Value::Array(a), Value::Int(n, _)) => {
                let a = a.borrow();
                a.get(*n as usize).cloned().ok_or_else(out_of_range)
            }
            (Value::Map(m), Value::Str(k)) => {
                Ok(m.borrow().get(k.as_str()).cloned().unwrap_or(Value::Null))
            }
            (Value::Str(s), Value::Int(n, _)) => Interp::str_slice(s, *n as usize, 1),
            (Value::Frozen(f), _) => match (&**f, i) {
                (Frozen::List(items), Value::Int(n, _)) => {
                    let item = items.get(*n as usize);
                    item.map(Entry::to_value).ok_or_else(out_of_range)
                }
                (Frozen::Map(m), Value::Str(k)) => {
                    Ok(m.get(k.as_str()).map_or(Value::Null, Entry::to_value))
                }
                _ => Err(cannot_index(a, i)),
            },
            _ => Err(cannot_index(a, i)),
        }
    }

    /// The `len` bytes of `s` from byte `start`, clamped to the string
    /// like PHP's `substr` (out of range is `""`); an end inside a
    /// multi-byte character is an error — `TaintedString::slice` would
    /// panic there.
    pub(crate) fn str_slice(s: &TaintedString, start: usize, len: usize) -> R<Value> {
        let start = start.min(s.len());
        let end = start.saturating_add(len).min(s.len());
        if !(s.as_str().is_char_boundary(start) && s.as_str().is_char_boundary(end)) {
            return Err(rt("string index not on a character boundary"));
        }
        Ok(Value::from(s.slice(start..end)))
    }

    /// `obj.field` read.
    pub(crate) fn prop_value(o: &Value, field: &str) -> R<Value> {
        let v = match o {
            Value::Object(o) => o.borrow().fields.get(field).cloned(),
            Value::Instance(i) => i.fields.get(field).map(Entry::to_value),
            _ => return Err(rt(format!("cannot read field of {}", o.type_name()))),
        };
        v.ok_or_else(|| rt(format!("no field `{field}`")))
    }

    /// `obj.field = v` write.
    pub(crate) fn prop_assign(o: &Value, field: &str, v: Value) -> R<()> {
        match o {
            Value::Object(o) => {
                o.borrow_mut().fields.insert(field.to_string(), v);
                Ok(())
            }
            Value::Frozen(_) | Value::Instance(_) => {
                Err(refused(format!("a store into field `{field}`")))
            }
            _ => Err(rt(format!("cannot set field on {}", o.type_name()))),
        }
    }

    /// Unary minus (`-i64::MIN` is an error, like `/` and `%` overflow).
    pub(crate) fn neg_value(v: Value) -> R<Value> {
        match v {
            Value::Int(n, p) => match n.checked_neg() {
                Some(n) => Ok(Value::Int(n, p)),
                None => Err(rt("integer overflow")),
            },
            other => Err(rt(format!("cannot negate {}", other.type_name()))),
        }
    }

    /// The integer result of `- * / %`: `-` and `*` wrap (as `+` does);
    /// `/` and `%` fail on a zero divisor and on the one quotient that does
    /// not fit (`i64::MIN / -1`), which Rust would panic on.
    pub(crate) fn int_arith(op: BinOp, a: i64, b: i64) -> R<i64> {
        let n = match op {
            BinOp::Sub => Some(a.wrapping_sub(b)),
            BinOp::Mul => Some(a.wrapping_mul(b)),
            BinOp::Div | BinOp::Mod if b == 0 => return Err(rt("division by zero")),
            BinOp::Div => a.checked_div(b),
            BinOp::Mod => a.checked_rem(b),
            _ => unreachable!("int_arith only handles -, *, /, %"),
        };
        n.ok_or_else(|| rt("integer overflow"))
    }

    /// `-`/`*`/`/`/`%` on ints, merging the operands' labels.
    pub(crate) fn arith_values(tracking: Tracking, op: BinOp, l: Value, r: Value) -> R<Value> {
        let (Value::Int(a, pa), Value::Int(b, pb)) = (&l, &r) else {
            return Err(rt(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            )));
        };
        let n = Interp::int_arith(op, *a, *b)?;
        let pol = Interp::merge_int_policies(tracking, *pa, *pb)?;
        Ok(Value::Int(n, pol))
    }

    /// `<`/`<=`/`>`/`>=` on ints or strings; results are untainted bools.
    pub(crate) fn compare_values(op: BinOp, l: &Value, r: &Value) -> R<Value> {
        let ord = match (l, r) {
            (Value::Int(a, _), Value::Int(b, _)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
            _ => {
                return Err(rt(format!(
                    "cannot compare {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            }
        };
        let b = match op {
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => unreachable!("compare_values only handles <, <=, >, >="),
        };
        Ok(Value::Bool(b))
    }

    /// `+`: integer addition (merging policies) or string concatenation
    /// (carrying byte-range spans). These are the first two opcode handlers
    /// Table 5 measures.
    pub(crate) fn add_values(tracking: Tracking, l: Value, r: Value) -> R<Value> {
        match (&l, &r) {
            (Value::Int(a, pa), Value::Int(b, pb)) => {
                let pol = Interp::merge_int_policies(tracking, *pa, *pb)?;
                Ok(Value::Int(a.wrapping_add(*b), pol))
            }
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                let a = l.to_tainted();
                let b = r.to_tainted();
                if tracking == Tracking::Off {
                    // Unmodified runtime: plain text concatenation.
                    let mut s = String::with_capacity(a.len() + b.len());
                    s.push_str(a.as_str());
                    s.push_str(b.as_str());
                    Ok(Value::from(TaintedString::from(s)))
                } else {
                    // The Table 5 concat opcode: a pre-sized builder append
                    // inside `concat`, spans carried with a seam coalesce.
                    Ok(Value::from(a.concat(&b)))
                }
            }
            _ => Err(rt(format!(
                "cannot add {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    }

    pub(crate) fn merge_int_policies(tracking: Tracking, pa: Label, pb: Label) -> R<Label> {
        if tracking == Tracking::Off {
            return Ok(Label::EMPTY);
        }
        merge_sets(pa, pb).map_err(flow_err)
    }

    // ---- builtins ----

    /// Runs host builtin `id` (its [`Reach`] is `Host`).
    fn host_builtin(&mut self, id: Builtin, args: &mut [Value]) -> R<Value> {
        let name = id.name();
        match id {
            // ---- output, mail and the current user ----
            Builtin::Echo => {
                arity(id, args, 1)?;
                let data = args[0].to_tainted();
                self.http().write(data).map_err(flow_err)?;
                Ok(Value::Null)
            }
            Builtin::HttpContext => {
                arity(id, args, 2)?;
                let key = want_str(&args[0], name)?;
                if key.as_str() == "type" {
                    let refused = Reason::Refused("`type` is the channel's kind, not an entry");
                    return Err(flow_err(FlowError::Denied(
                        PolicyViolation::new(name, refused).on_channel(GateKind::Http),
                    )));
                }
                let ctx = self.http().context_mut();
                match &args[1] {
                    Value::Str(s) => ctx.set_str(key.as_str(), s.as_str()),
                    Value::Int(n, _) => ctx.set(key.as_str(), *n),
                    Value::Bool(b) => ctx.set(key.as_str(), *b),
                    other => {
                        return Err(rt(format!("http_context: bad value {}", other.type_name())))
                    }
                };
                Ok(Value::Null)
            }
            Builtin::SetEmailPreview => {
                arity(id, args, 1)?;
                self.email_preview = args[0].truthy();
                Ok(Value::Null)
            }
            Builtin::Email => {
                arity(id, args, 2)?;
                let to = want_str(&args[0], name)?;
                let body = args[1].to_tainted();
                if self.email_preview {
                    // Preview mode: the message goes to the browser — the
                    // HotCRP vulnerability path (§2). The HTTP boundary
                    // decides whether that is allowed.
                    self.http().write(body).map_err(flow_err)?;
                    return Ok(Value::Null);
                }
                let mut ch = match self.tracking {
                    Tracking::On => Gate::new(GateKind::Email),
                    Tracking::Off => Gate::unguarded(GateKind::Email),
                };
                ch.context_mut().set_str("email", to.as_str());
                let body = ch.export(body).map_err(flow_err)?.into_plain();
                self.emails.push(SentMail {
                    to: to.as_str().to_string(),
                    body,
                });
                Ok(Value::Null)
            }
            Builtin::SetUser => {
                arity(id, args, 1)?;
                let u = want_str(&args[0], name)?;
                self.current_user = Some(u.as_str().to_string());
                self.http().context_mut().set_str("user", u.as_str());
                Ok(Value::Null)
            }
            // ---- files (through the policy-persisting VFS) ----
            Builtin::Mkdir => {
                arity(id, args, 1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                self.vfs().mkdir_p(p.as_str(), &ctx).map_err(vfs_err)?;
                Ok(Value::Null)
            }
            Builtin::FileWrite => {
                arity(id, args, 2)?;
                let p = want_str(&args[0], name)?;
                let data = args[1].to_tainted();
                let ctx = self.file_ctx();
                self.vfs()
                    .write_file(p.as_str(), &data, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            Builtin::FileAppend => {
                arity(id, args, 2)?;
                let p = want_str(&args[0], name)?;
                let data = args[1].to_tainted();
                let ctx = self.file_ctx();
                self.vfs()
                    .append_file(p.as_str(), &data, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            Builtin::FileRead => {
                arity(id, args, 1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                let data = self.vfs().read_file(p.as_str(), &ctx).map_err(vfs_err)?;
                Ok(Value::from(data))
            }
            Builtin::FileExists => {
                arity(id, args, 1)?;
                let p = want_str(&args[0], name)?;
                Ok(Value::Bool(self.vfs().exists(p.as_str())))
            }
            // ---- code import (§3.2.2, Figure 6) ----
            Builtin::MakeExecutable => {
                arity(id, args, 1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                let mut code = self.vfs().read_file(p.as_str(), &ctx).map_err(vfs_err)?;
                code.add_policy(Arc::new(CodeApproval::new()));
                self.vfs()
                    .write_file(p.as_str(), &code, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            Builtin::RequireCodeApproval => {
                arity(id, args, 0)?;
                self.require_code_approval = true;
                Ok(Value::Null)
            }
            Builtin::Import => {
                arity(id, args, 1)?;
                let p = want_str(&args[0], name)?;
                self.import(p.as_str())
            }
            _ => unreachable!("`{name}` is a value builtin"),
        }
    }

    fn file_ctx(&self) -> Context {
        match &self.current_user {
            Some(u) => Vfs::user_ctx(u),
            None => Vfs::anonymous_ctx(),
        }
    }

    /// The interpreter's code-import boundary: reads the file (reviving
    /// persistent policies) and applies the import filter before executing.
    ///
    /// Imported code runs at global scope wherever `import` is called
    /// from: its `let`s define globals even when the call sits inside a
    /// function body.
    fn import(&mut self, path: &str) -> R<Value> {
        let ctx = self.file_ctx();
        let code = self.vfs().read_file(path, &ctx).map_err(vfs_err)?;
        if self.tracking == Tracking::On && self.require_code_approval {
            // Figure 6: every character must carry CodeApproval.
            if !code.all_bytes_have::<CodeApproval>() {
                return Err(Flow::Error(LangError::flagged(
                    format!("not executable: `{path}` lacks CodeApproval"),
                    true,
                )));
            }
        }
        let program =
            parse_program(code.as_str()).map_err(|e| rt(format!("import `{path}`: {e}")))?;
        let chunk = self.compile(&program).map_err(Flow::Error)?;
        crate::vm::run_chunk(self, chunk)
    }
}

/// Runs builtin `id` on `host`, or with none: inside a gate crossing a
/// value builtin runs with tracking on, and a host builtin is refused.
pub(crate) fn run_builtin(host: Option<&mut Interp>, id: Builtin, args: &mut [Value]) -> R<Value> {
    match (host, id.reach()) {
        (Some(host), Reach::Host) => host.host_builtin(id, args),
        (None, Reach::Host) => Err(refused(format!("builtin `{}`", id.name()))),
        (host, _) => value_builtin(id, args, host.map_or(Tracking::On, |h| h.tracking)),
    }
}

fn arity(id: Builtin, args: &[Value], n: usize) -> R<()> {
    match args.len() {
        argc if argc == n => Ok(()),
        argc => Err(rt(format!(
            "{}: expected {n} arguments, got {argc}",
            id.name()
        ))),
    }
}

fn want_str<'a>(v: &'a Value, what: &str) -> R<&'a TaintedString> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(rt(format!(
            "{what}: expected string, got {}",
            other.type_name()
        ))),
    }
}

/// The array `push` or `pop` changes; a frozen one fails closed.
fn want_array<'a>(v: &'a Value, what: &str) -> R<&'a std::cell::RefCell<Vec<Value>>> {
    match v {
        Value::Array(a) => Ok(a),
        Value::Frozen(_) | Value::Instance(_) => Err(refused(format!(
            "a store into a frozen {} by `{what}`",
            v.type_name()
        ))),
        _ => Err(rt(format!("{what}: expected array"))),
    }
}

fn cannot_index(a: &Value, i: &Value) -> Flow {
    rt(format!(
        "cannot index {} with {}",
        a.type_name(),
        i.type_name()
    ))
}

fn want_int(v: &Value, what: &str) -> R<i64> {
    match v {
        Value::Int(n, _) => Ok(*n),
        other => Err(rt(format!(
            "{what}: expected int, got {}",
            other.type_name()
        ))),
    }
}

/// The builtins that need no host: their arguments and the tracking mode
/// are all they see.
fn value_builtin(id: Builtin, args: &mut [Value], tracking: Tracking) -> R<Value> {
    let name = id.name();
    match id {
        // ---- policy API (Table 3) ----
        Builtin::PolicyAdd => {
            arity(id, args, 2)?;
            let policy = policy_from_value(&args[1])?;
            match std::mem::replace(&mut args[0], Value::Null) {
                Value::Str(mut s) => {
                    Arc::make_mut(&mut s).add_policy(policy);
                    Ok(Value::Str(s))
                }
                Value::Int(n, p) => Ok(Value::Int(n, p.union(Label::of(&policy)))),
                other => Err(rt(format!(
                    "policy_add: cannot label {}",
                    other.type_name()
                ))),
            }
        }
        Builtin::PolicyRemove => {
            arity(id, args, 2)?;
            let target = std::mem::replace(&mut args[0], Value::Null);
            let cname = want_str(&args[1], name)?;
            match target {
                Value::Str(mut s) => {
                    let to_remove: Vec<PolicyRef> = s
                        .label()
                        .policies()
                        .iter()
                        .filter(|p| p.name() == cname.as_str())
                        .cloned()
                        .collect();
                    let text = Arc::make_mut(&mut s);
                    for p in &to_remove {
                        text.remove_policy(p);
                    }
                    Ok(Value::Str(s))
                }
                Value::Int(n, p) => {
                    let kept = p.retain(|q| q.name() != cname.as_str());
                    Ok(Value::Int(n, kept))
                }
                other => Err(rt(format!(
                    "policy_remove: cannot unlabel {}",
                    other.type_name()
                ))),
            }
        }
        Builtin::PolicyGet => {
            arity(id, args, 1)?;
            let label = match &args[0] {
                Value::Str(s) => s.label(),
                Value::Int(_, p) => *p,
                _ => Label::EMPTY,
            };
            Ok(Value::new_array(
                label
                    .policies()
                    .iter()
                    .map(|p| Value::str(p.name().to_string()))
                    .collect(),
            ))
        }
        // ---- strings ----
        Builtin::Len => {
            arity(id, args, 1)?;
            let n = match &args[0] {
                // A string's length keeps its policies, merged as `int(s)`
                // merges them (§3.4.2).
                Value::Str(s) => {
                    let label = match tracking {
                        Tracking::On => merge_many(s.spans().map(|(_, l)| l)).map_err(flow_err)?,
                        Tracking::Off => Label::EMPTY,
                    };
                    return Ok(Value::Int(s.len() as i64, label));
                }
                Value::Array(a) => a.borrow().len(),
                Value::Map(m) => m.borrow().len(),
                Value::Frozen(f) => match &**f {
                    Frozen::List(items) => items.len(),
                    Frozen::Map(entries) => entries.len(),
                },
                other => return Err(rt(format!("len: unsupported {}", other.type_name()))),
            };
            Ok(Value::int(n as i64))
        }
        Builtin::Substr => {
            arity(id, args, 3)?;
            let s = want_str(&args[0], name)?;
            let off = want_int(&args[1], name)?.max(0) as usize;
            let n = want_int(&args[2], name)?.max(0) as usize;
            Interp::str_slice(s, off, n)
        }
        Builtin::Upper => {
            arity(id, args, 1)?;
            Ok(Value::from(want_str(&args[0], name)?.to_ascii_uppercase()))
        }
        Builtin::Lower => {
            arity(id, args, 1)?;
            Ok(Value::from(want_str(&args[0], name)?.to_ascii_lowercase()))
        }
        Builtin::Trim => {
            arity(id, args, 1)?;
            Ok(Value::from(want_str(&args[0], name)?.trim()))
        }
        Builtin::Contains => {
            arity(id, args, 2)?;
            let s = want_str(&args[0], name)?;
            let sub = want_str(&args[1], name)?;
            Ok(Value::Bool(s.contains(sub.as_str())))
        }
        Builtin::Replace => {
            arity(id, args, 3)?;
            let s = want_str(&args[0], name)?;
            let from = want_str(&args[1], name)?;
            let to = want_str(&args[2], name)?;
            if from.is_empty() {
                return Err(rt("replace: empty pattern"));
            }
            Ok(Value::from(s.replace(from.as_str(), to)))
        }
        Builtin::Split => {
            arity(id, args, 2)?;
            let s = want_str(&args[0], name)?;
            let sep = want_str(&args[1], name)?;
            if sep.is_empty() {
                return Err(rt("split: empty separator"));
            }
            Ok(Value::new_array(
                s.split(sep.as_str()).into_iter().map(Value::from).collect(),
            ))
        }
        Builtin::Join => {
            arity(id, args, 2)?;
            let sep = want_str(&args[0], name)?;
            let parts: Vec<TaintedString> = match &args[1] {
                Value::Array(a) => a.borrow().iter().map(Value::to_tainted).collect(),
                Value::Frozen(f) => match &**f {
                    Frozen::List(items) => {
                        items.iter().map(|e| e.to_value().to_tainted()).collect()
                    }
                    _ => return Err(rt("join: expected array")),
                },
                _ => return Err(rt("join: expected array")),
            };
            Ok(Value::from(TaintedString::join(sep.as_str(), parts.iter())))
        }
        Builtin::Str => {
            arity(id, args, 1)?;
            Ok(Value::from(args[0].to_tainted()))
        }
        Builtin::Int => {
            arity(id, args, 1)?;
            match &args[0] {
                Value::Int(n, p) => Ok(Value::Int(*n, *p)),
                Value::Str(s) => {
                    if tracking == Tracking::Off {
                        let n: i64 = s
                            .as_str()
                            .trim()
                            .parse()
                            .map_err(|_| rt(format!("int: not a number `{}`", s.as_str())))?;
                        return Ok(Value::int(n));
                    }
                    // Conversion merges the string's policies (§3.4.2).
                    let t = s.to_int().map_err(flow_err)?;
                    Ok(Value::Int(*t.value(), t.label()))
                }
                Value::Bool(b) => Ok(Value::int(*b as i64)),
                other => Err(rt(format!("int: unsupported {}", other.type_name()))),
            }
        }
        Builtin::Typeof => {
            arity(id, args, 1)?;
            Ok(Value::str(args[0].type_name()))
        }
        // ---- arrays & maps ----
        Builtin::Push => {
            arity(id, args, 2)?;
            let a = want_array(&args[0], name)?;
            a.borrow_mut().push(args[1].clone());
            Ok(Value::Null)
        }
        Builtin::Pop => {
            arity(id, args, 1)?;
            let a = want_array(&args[0], name)?;
            let v = a.borrow_mut().pop();
            Ok(v.unwrap_or(Value::Null))
        }
        Builtin::Map => {
            arity(id, args, 0)?;
            Ok(Value::new_map())
        }
        Builtin::Keys => {
            arity(id, args, 1)?;
            let keys = match &args[0] {
                Value::Map(m) => m.borrow().keys().map(|k| Value::Str(k.0.clone())).collect(),
                Value::Frozen(f) => match &**f {
                    Frozen::Map(m) => m.keys().map(|k| Value::str(k.clone())).collect(),
                    _ => return Err(rt("keys: expected map")),
                },
                _ => return Err(rt("keys: expected map")),
            };
            Ok(Value::new_array(keys))
        }
        Builtin::Assert => {
            arity(id, args, 1)?;
            if args[0].truthy() {
                Ok(Value::Null)
            } else {
                Err(rt("assertion failed"))
            }
        }
        _ => unreachable!("`{name}` needs the host"),
    }
}

/// Converts a script value into a policy object.
///
/// Strings name stock policies; objects of classes with an
/// `export_check` method become [`ScriptPolicy`] snapshots.
fn policy_from_value(v: &Value) -> R<PolicyRef> {
    match v {
        Value::Str(s) => match s.as_str() {
            "UntrustedData" => Ok(Arc::new(UntrustedData::new())),
            "SqlSanitized" => Ok(Arc::new(SqlSanitized::new())),
            "HtmlSanitized" => Ok(Arc::new(HtmlSanitized::new())),
            "CodeApproval" => Ok(Arc::new(CodeApproval::new())),
            "AuthenticData" => Ok(Arc::new(AuthenticData::new())),
            "EmptyPolicy" => Ok(Arc::new(EmptyPolicy::new())),
            other => Err(rt(format!("unknown stock policy `{other}`"))),
        },
        Value::Object(o) => {
            let o = o.borrow();
            let mut fields = BTreeMap::new();
            for (k, fv) in &o.fields {
                let entry = Entry::freeze(fv)
                    .ok_or_else(|| rt(format!("policy field `{k}` is not a persistable scalar")))?;
                fields.insert(k.clone(), entry);
            }
            Ok(Arc::new(ScriptPolicy::of(o.class.clone(), fields)))
        }
        Value::Instance(i) => Ok(Arc::new(ScriptPolicy::frozen(i.clone()))),
        other => Err(rt(format!("not a policy: {}", other.type_name()))),
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

fn vfs_err(e: resin_vfs::VfsError) -> Flow {
    Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
}

fn flow_err(e: FlowError) -> Flow {
    Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
}

/// How a thrown value is shown, in a policy's violation and an uncaught
/// `throw` alike: its text when unlabelled and at most 64 bytes (`throw
/// "not the owner"`), else only its length. A labelled value is never
/// quoted.
pub(crate) fn thrown(v: &Value) -> Thrown {
    const SHOWN_MAX: usize = 64;
    let text = v.to_tainted();
    if text.is_untainted() && text.len() <= SHOWN_MAX {
        Thrown::Text(text.as_str().into())
    } else {
        Thrown::Withheld(text.len())
    }
}

/// Maps terminal control flow to the public result type: an uncaught
/// `throw` becomes a non-violation error.
pub(crate) fn finish(flow: R<Value>) -> Result<Value, LangError> {
    match flow {
        Ok(v) => Ok(v),
        Err(Flow::Throw(v)) => Err(LangError::new(format!(
            "uncaught exception: {}",
            thrown(&v)
        ))),
        Err(Flow::Error(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::check::{check_cache_stats, set_check_cache};
    use crate::value::PValue;
    use resin_core::metrics::{self, Counter};
    use resin_core::{Context, PasswordPolicy, Policy, PolicyViolation};

    /// One crossing of `class`'s `export_check` over a snapshot of `fields`.
    fn eval_policy_method(
        class: &Arc<ClassDecl>,
        fields: &BTreeMap<String, PValue>,
        context: &Context,
    ) -> Result<(), PolicyViolation> {
        let policy = ScriptPolicy::new(class.name.clone(), fields.clone(), Some(class.clone()));
        policy.export_check(context)
    }

    fn run(src: &str) -> Interp {
        let mut i = Interp::new();
        i.run(src).unwrap();
        i
    }

    fn run_value(src: &str) -> Value {
        let mut i = Interp::new();
        i.run(src).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert!(run_value("1 + 2 * 3;").loose_eq(&Value::int(7)));
        assert!(run_value("(1 + 2) * 3;").loose_eq(&Value::int(9)));
        assert!(run_value("10 % 3;").loose_eq(&Value::int(1)));
        assert!(run_value("-4 / 2;").loose_eq(&Value::int(-2)));
    }

    #[test]
    fn string_concat_and_compare() {
        assert!(run_value(r#""a" + "b" + 1;"#).loose_eq(&Value::str("ab1")));
        assert!(run_value(r#""a" < "b";"#).loose_eq(&Value::Bool(true)));
    }

    #[test]
    fn control_flow() {
        let v = run_value(
            "let total = 0; let i = 0;
             while (i < 5) { if (i % 2 == 0) { total = total + i; } i = i + 1; }
             total;",
        );
        assert!(v.loose_eq(&Value::int(6)));
    }

    #[test]
    fn functions_and_recursion() {
        let v = run_value(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fib(10);",
        );
        assert!(v.loose_eq(&Value::int(55)));
    }

    #[test]
    fn classes_and_methods() {
        let v = run_value(
            "class Counter {
               fn init(start) { this.n = start; }
               fn bump() { this.n = this.n + 1; return this.n; }
             }
             let c = new Counter(10);
             c.bump(); c.bump();",
        );
        assert!(v.loose_eq(&Value::int(12)));
    }

    #[test]
    fn arrays_and_maps() {
        let v = run_value("let a = [1, 2]; push(a, 3); a[2] + len(a);");
        assert!(v.loose_eq(&Value::int(6)));
        let v = run_value(r#"let m = map(); m["k"] = 7; m["k"];"#);
        assert!(v.loose_eq(&Value::int(7)));
        let v = run_value(r#"let m = map(); m["absent"];"#);
        assert!(v.loose_eq(&Value::Null));
    }

    #[test]
    fn taint_propagates_through_concat() {
        let i = run(r#"let pw = policy_add("s3cret", "UntrustedData");
               let msg = "password: " + pw;
               let names = policy_get(msg);"#);
        let names = i.globals.get("names").unwrap();
        let Value::Array(a) = names else { panic!() };
        assert_eq!(a.borrow().len(), 1);
        // And byte-level: the prefix is clean.
        let Value::Str(msg) = i.globals.get("msg").unwrap() else {
            panic!()
        };
        assert!(msg.label_at(0).is_empty());
        assert!(msg.label_at(11).has::<UntrustedData>());
    }

    #[test]
    fn int_conversion_merges() {
        let i = run(r#"let s = policy_add("42", "UntrustedData");
               let n = int(s);
               let names = policy_get(n);"#);
        let Value::Array(a) = i.globals.get("names").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 1);
    }

    #[test]
    fn len_keeps_its_strings_policies() {
        // A string's length is as secret as the string, as `int(s)` is; a
        // container's length is not labelled.
        let src = r#"class Secret { fn export_check(c) { throw "never exported"; } }
               let pw = policy_add("s3cret", new Secret());
               let names = policy_get(len(pw));
               let listed = policy_get(len([pw]));"#;
        let mut i = Interp::new();
        i.run(src).unwrap();
        let count = |i: &Interp, name: &str| match i.global(name) {
            Some(Value::Array(a)) => a.borrow().len(),
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!((count(&i, "names"), count(&i, "listed")), (1, 0));
        assert!(i.run("echo(str(len(pw)));").unwrap_err().violation);
        assert_eq!(i.http_output(), "");
        // The unmodified interpreter drops it.
        let mut off = Interp::with_tracking(Tracking::Off);
        off.run(src).unwrap();
        assert_eq!(count(&off, "names"), 0);
        off.run("echo(str(len(pw)));").unwrap();
        assert_eq!(off.http_output(), "6");
    }

    #[test]
    fn script_password_policy_blocks_echo() {
        // The Figure 2 flow, written in RSL.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class PasswordPolicy {
                     fn init(email) { this.email = email; }
                     fn export_check(context) {
                       if (context["type"] == "email" && context["email"] == this.email) {
                         return;
                       }
                       if (context["type"] == "http" && context["priv_chair"]) {
                         return;
                       }
                       throw "unauthorized disclosure";
                     }
                   }
                   let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
                   echo("Your password is: " + pw);"#,
            )
            .unwrap_err();
        assert!(err.violation, "{err}");
        assert_eq!(i.http_output(), "", "nothing leaked");
    }

    #[test]
    fn same_named_script_policies_keep_their_own_behaviour() {
        // Two interpreters define a class with the same name and the same
        // fields but opposite export_check bodies. The global interner
        // must not canonicalize the second policy to the first class's
        // code (the class Arc is the intern discriminator).
        let mut permissive = Interp::new();
        permissive
            .run(
                r#"class Gatekeeper {
                     fn init(tag) { this.tag = tag; }
                     fn export_check(context) { return; }
                   }
                   echo(policy_add("ok", new Gatekeeper("t")));"#,
            )
            .unwrap();
        assert_eq!(permissive.http_output(), "ok");

        let mut strict = Interp::new();
        let err = strict
            .run(
                r#"class Gatekeeper {
                     fn init(tag) { this.tag = tag; }
                     fn export_check(context) { throw "never"; }
                   }
                   echo(policy_add("no", new Gatekeeper("t")));"#,
            )
            .unwrap_err();
        assert!(err.violation, "strict class must enforce its own code");
        assert_eq!(strict.http_output(), "", "nothing leaked");
    }

    #[test]
    fn script_password_policy_allows_owner_email() {
        let mut i = Interp::new();
        i.run(
            r#"class PasswordPolicy {
                 fn init(email) { this.email = email; }
                 fn export_check(context) {
                   if (context["type"] == "email" && context["email"] == this.email) {
                     return;
                   }
                   throw "unauthorized disclosure";
                 }
               }
               let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
               email("u@foo.com", "Your password is: " + pw);"#,
        )
        .unwrap();
        assert_eq!(i.emails.len(), 1);
        assert!(i.emails[0].body.contains("s3cret"));
    }

    #[test]
    fn email_preview_mode_reproduces_hotcrp_bug() {
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class PasswordPolicy {
                     fn init(email) { this.email = email; }
                     fn export_check(context) {
                       if (context["type"] == "email" && context["email"] == this.email) { return; }
                       throw "unauthorized disclosure";
                     }
                   }
                   set_email_preview(true);
                   let pw = policy_add("s3cret", new PasswordPolicy("victim@foo.com"));
                   email("victim@foo.com", "reminder: " + pw);"#,
            )
            .unwrap_err();
        assert!(err.violation);
        assert_eq!(i.http_output(), "");
    }

    #[test]
    fn chair_exception_via_http_context() {
        let mut i = Interp::new();
        i.run(
            r#"class PasswordPolicy {
                 fn init(email) { this.email = email; }
                 fn export_check(context) {
                   if (context["type"] == "http" && context["priv_chair"]) { return; }
                   throw "unauthorized";
                 }
               }
               http_context("priv_chair", true);
               let pw = policy_add("x", new PasswordPolicy("u@x"));
               echo(pw);"#,
        )
        .unwrap();
        assert_eq!(i.http_output(), "x");
    }

    #[test]
    fn stock_password_policy_via_rust() {
        // Rust-attached policies work identically inside the interpreter.
        let mut i = Interp::new();
        i.run("fn show(x) { echo(x); }").unwrap();
        let mut s = TaintedString::from("pw");
        s.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        let err = i.call_function("show", vec![Value::from(s)]).unwrap_err();
        assert!(err.violation);
    }

    #[test]
    fn persistent_policies_through_files() {
        let mut i = Interp::new();
        i.run(
            r#"mkdir("/data");
               let secret = policy_add("token", "UntrustedData");
               file_write("/data/t", secret);
               let back = policy_get(file_read("/data/t"));"#,
        )
        .unwrap();
        let Value::Array(a) = i.globals.get("back").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 1, "policy revived from xattr");
    }

    #[test]
    fn script_policy_persists_and_revives() {
        // Define a policy class, persist labeled data to a file, read it
        // back: the revived ScriptPolicy still enforces export_check.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class SecretPolicy {
                     fn init() { this.owner = "alice"; }
                     fn export_check(context) { throw "no export ever"; }
                   }
                   mkdir("/d");
                   let s = policy_add("data", new SecretPolicy());
                   file_write("/d/f", s);
                   echo(file_read("/d/f"));"#,
            )
            .unwrap_err();
        assert!(err.violation, "revived script policy enforced: {err}");
    }

    #[test]
    fn a_policy_field_holding_itself_is_refused_not_aborted() {
        let class = r#"class P {
            fn init(f) { this.f = f; }
            fn export_check(c) { if (c["type"] == "email") { return; } throw "no"; }
        }"#;
        let mut i = Interp::new();
        i.run(class).unwrap();
        let err = i
            .run(r#"let a = [1]; push(a, a); policy_add("x", new P(a));"#)
            .unwrap_err();
        assert_eq!(err.message, "policy field `f` is not a persistable scalar");
        assert!(!err.violation);
        // Deep, but not inside itself: a snapshot like any other.
        i.run(r#"let s = [1]; let t = policy_add("y", new P([s, [s]]));"#)
            .unwrap();
        // (`a[1] = 0` breaks the cycle, which would never be freed.)
        i.run(r#"a[1] = 0; echo(t);"#).unwrap_err();
        assert_eq!(i.http_output(), "");
    }

    /// `f`'s panic message, or `None` when it returned.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        err.downcast_ref::<String>().cloned()
    }

    #[test]
    fn a_script_policy_is_made_only_of_its_named_class() {
        let class = run("class Named { fn export_check(c) { } }")
            .classes
            .get("Named")
            .unwrap()
            .clone();
        let (fields, refused) = (BTreeMap::new, "a script policy of its named class");
        let named = panic_of(|| drop(ScriptPolicy::new("Named".into(), fields(), None)));
        assert!(named.unwrap().contains(refused));
        let other = Some(class.clone());
        let misnamed = panic_of(|| drop(ScriptPolicy::new("Other".into(), fields(), other)));
        assert!(misnamed.unwrap().contains(refused));
        assert!(
            panic_of(|| drop(ScriptPolicy::new("Named".into(), fields(), Some(class)))).is_none()
        );
    }

    #[test]
    fn a_revived_policy_is_the_one_new_freezes() {
        let i = run("class FieldShapes { fn export_check(c) { } }");
        let class = i.classes.get("FieldShapes").unwrap().clone();
        let fields = BTreeMap::from([
            ("a".to_string(), PValue::Null),
            ("b".to_string(), PValue::Bool(false)),
            ("i".to_string(), PValue::Int(i64::MIN)),
            ("s".to_string(), PValue::Str("{;=%\u{1c}é}".into())),
            (
                "l".to_string(),
                PValue::List(vec![PValue::List(vec![]), PValue::Str("%".into())]),
            ),
        ]);
        let built = Arc::new(ScriptPolicy::new(class.name.clone(), fields, Some(class)));
        let text = resin_core::serialize_policy(&(built.clone() as PolicyRef));
        let revived = resin_core::deserialize_policy(&text).unwrap();
        assert_eq!(resin_core::serialize_policy(&revived), text);
        let revived = revived.as_any().downcast_ref::<ScriptPolicy>().unwrap();
        assert!(
            !Arc::ptr_eq(&revived.this, &built.this),
            "decoded, not found"
        );
        assert_eq!(*revived.this, *built.this);
    }

    #[test]
    fn a_policy_of_an_object_and_of_its_frozen_this_name_one_class() {
        let twin = "class Twin { fn init(n) { this.n = [n]; } fn export_check(c) { } }";
        let i = run(&format!("{twin} let t = new Twin(1);"));
        let of_object = policy_from_value(i.globals.get("t").unwrap()).ok().unwrap();
        let frozen = of_object.as_any().downcast_ref::<ScriptPolicy>().unwrap();
        let of_this = policy_from_value(&Value::Instance(frozen.this.clone()));
        let of_this = of_this.ok().unwrap();
        assert_eq!((of_object.name(), of_this.name()), ("Twin", "Twin"));
        assert_eq!(
            of_object.intern_discriminator(),
            of_this.intern_discriminator()
        );
        assert_eq!(of_object.serialize_fields(), of_this.serialize_fields());
    }

    #[test]
    fn legacy_engine_pin_fails_closed() {
        // An engine pin once rode in the wire format as a reserved field.
        // Nothing writes one now, and revival refuses a blob that carries
        // one, whatever it names: the field is not a decodable value.
        let mut i = Interp::new();
        i.run(
            r#"class PinnedPolicy {
                 fn init(owner) { this.owner = owner; }
                 fn export_check(context) { throw "nope"; }
               }"#,
        )
        .unwrap();
        let class = i.classes.get("PinnedPolicy").unwrap().clone();
        let mut fields = BTreeMap::new();
        fields.insert("owner".to_string(), PValue::Str("alice".to_string()));
        let p = ScriptPolicy::new("PinnedPolicy".into(), fields, Some(class));
        let wire = resin_core::serialize_policy(&(Arc::new(p) as PolicyRef));
        assert!(!wire.contains("__rp_engine"), "{wire}");
        assert!(resin_core::deserialize_policy(&wire).is_ok(), "{wire}");
        for pin in ["vm", "tree", "quantum"] {
            let legacy = format!("PinnedPolicy{{owner=s%3Aalice;__rp_engine={pin}}}");
            assert!(
                matches!(
                    resin_core::deserialize_policy(&legacy),
                    Err(resin_core::SerializeError::BadField { .. })
                ),
                "{legacy}"
            );
        }
    }

    #[test]
    fn import_filter_blocks_unapproved_code() {
        let mut i = Interp::new();
        // Install approved code and adversary code.
        i.run(
            r#"mkdir("/app");
               file_write("/app/lib.rsl", "let lib_loaded = 1;");
               make_executable("/app/lib.rsl");
               file_write("/app/evil.rsl", "let owned = 1;");
               require_code_approval();
               import("/app/lib.rsl");"#,
        )
        .unwrap();
        assert!(i.globals.contains_key("lib_loaded"));
        let err = i.run(r#"import("/app/evil.rsl");"#).unwrap_err();
        assert!(err.violation);
        assert!(!i.globals.contains_key("owned"));
    }

    #[test]
    fn import_without_filter_is_vulnerable() {
        let mut i = Interp::new();
        i.run(
            r#"mkdir("/app");
               file_write("/app/evil.rsl", "let owned = 1;");
               import("/app/evil.rsl");"#,
        )
        .unwrap();
        assert!(i.globals.contains_key("owned"), "no filter, no protection");
    }

    #[test]
    fn import_inside_a_function_defines_globals() {
        let mut i = Interp::new();
        i.run(
            r#"mkdir("/lib");
               file_write("/lib/conf.rsl", "let conf = 7;");
               fn load() { import("/lib/conf.rsl"); return 0; }
               load();
               let seen = conf + 1;"#,
        )
        .unwrap();
        assert!(i.global("conf").unwrap().loose_eq(&Value::int(7)));
        assert!(i.global("seen").unwrap().loose_eq(&Value::int(8)));
    }

    #[test]
    fn tracking_off_drops_taint() {
        let mut i = Interp::with_tracking(Tracking::Off);
        i.run(
            r#"let pw = policy_add("s3cret", "UntrustedData");
               let msg = "x" + pw;
               let names = policy_get(msg);"#,
        )
        .unwrap();
        let Value::Array(a) = i.globals.get("names").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 0, "unmodified runtime loses taint");
        assert_eq!(i.tracking(), Tracking::Off);
    }

    #[test]
    fn string_builtins() {
        assert!(run_value(r#"upper("abc");"#).loose_eq(&Value::str("ABC")));
        assert!(run_value(r#"substr("abcdef", 2, 3);"#).loose_eq(&Value::str("cde")));
        assert!(run_value(r#"trim("  x ");"#).loose_eq(&Value::str("x")));
        assert!(run_value(r#"contains("hello", "ell");"#).loose_eq(&Value::Bool(true)));
        assert!(run_value(r#"replace("a-b", "-", "+");"#).loose_eq(&Value::str("a+b")));
        assert!(run_value(r#"join(",", split("a,b,c", ","));"#).loose_eq(&Value::str("a,b,c")));
        assert!(run_value(r#"len("abcd");"#).loose_eq(&Value::int(4)));
    }

    #[test]
    fn a_secret_has_no_output_channel_past_the_gate() {
        // A script's one output channel is `echo`, through the HTTP gate:
        // no builtin hands the secret back past it.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class Secret {
                     fn init(owner) { this.owner = owner; }
                     fn export_check(context) { throw "never exported"; }
                   }
                   let pw = policy_add("s3cret", new Secret("u@x"));
                   print(pw);"#,
            )
            .unwrap_err();
        assert!(!err.to_string().contains("s3cret"), "{err}");
        assert!(i.run("echo(pw);").unwrap_err().violation);
        assert_eq!(i.http_output(), "");
        assert!(i.emails.is_empty());
    }

    #[test]
    fn runtime_errors() {
        let mut i = Interp::new();
        assert!(i.run("undefined_var;").is_err());
        assert!(i.run("nosuchfn();").is_err());
        assert!(i.run("1 / 0;").is_err());
        assert!(i.run(r#""a" - 1;"#).is_err());
        assert!(i.run("let a = [1]; a[5];").is_err());
        assert!(i.run("fn f(x) { return x; } f();").is_err());
        assert!(i.run("fn loop_(n) { return loop_(n); } loop_(1);").is_err());
        assert!(i.run(r#"throw "boom";"#).is_err());
    }

    #[test]
    fn this_outside_method_errors() {
        let mut i = Interp::new();
        assert!(i.run("this;").is_err());
    }

    #[test]
    fn call_function_from_rust() {
        let mut i = Interp::new();
        i.run("fn double(x) { return x * 2; }").unwrap();
        let v = i.call_function("double", vec![Value::int(21)]).unwrap();
        assert!(v.loose_eq(&Value::int(42)));
        assert!(i.call_function("nope", vec![]).is_err());
    }

    #[test]
    fn call_depth_is_capped() {
        // A self-recursive policy must fail with a lang error, not run
        // until memory is gone.
        let e = Interp::new()
            .run("fn loop_(n) { return loop_(n); } loop_(1);")
            .unwrap_err();
        assert!(e.message.contains("call depth limit exceeded"), "{e}");
        assert!(!e.violation);
    }

    #[test]
    fn runtime_errors_carry_lines() {
        let e = Interp::new()
            .run("let a = 1;\nlet b = 2;\na / (b - 2);")
            .unwrap_err();
        assert_eq!(e.message, "division by zero");
        assert_eq!(e.line, Some(3));
        assert!(e.to_string().contains("(line 3)"), "{e}");
    }

    #[test]
    fn error_lines_point_into_the_callee() {
        let e = Interp::new()
            .run("fn f() {\n  return missing_var;\n}\nf();")
            .unwrap_err();
        assert_eq!(e.message, "undefined variable `missing_var`");
        assert_eq!(e.line, Some(2), "innermost frame wins");
    }

    #[test]
    fn vm_compile_once_run_many() {
        // The exec_chunk API lets callers pay compilation once.
        let mut i = Interp::new();
        let program = parse_program("let n = 0; n = n + 1; n;").unwrap();
        let chunk = i.compile(&program).unwrap();
        for _ in 0..3 {
            let v = i.exec_chunk(&chunk).unwrap();
            assert!(v.loose_eq(&Value::int(1)));
        }
    }

    #[test]
    fn function_chunks_cached_per_interp() {
        let mut i = Interp::new();
        i.run("fn f() { return 1; }").unwrap();
        assert_eq!(i.chunks.len(), 0, "compilation is lazy");
        i.call_function("f", vec![]).unwrap();
        i.call_function("f", vec![]).unwrap();
        assert_eq!(i.chunks.len(), 1, "same decl compiles once");
    }

    // ---- per-crossing check caches ----

    fn policy_class(src: &str) -> Arc<ClassDecl> {
        parse_program(src)
            .unwrap()
            .into_iter()
            .find_map(|s| match s.kind {
                StmtKind::ClassDef(c) => Some(c),
                _ => None,
            })
            .expect("class decl")
    }

    #[test]
    fn read_only_check_reuses_cached_this() {
        let class = policy_class(
            r#"class Quota {
                fn export_check(context) {
                    let w = this.weights;
                    if (w[0] + w[1] > this.limit) { throw "over"; }
                    if (context["type"] != "http") { throw "channel"; }
                }
            }"#,
        );
        let mut fields = BTreeMap::new();
        fields.insert(
            "weights".to_string(),
            PValue::List(vec![PValue::Int(1), PValue::Int(2)]),
        );
        fields.insert("limit".to_string(), PValue::Int(10));
        let ctx = Context::new(GateKind::Http);
        let (h0, m0) = check_cache_stats();
        for _ in 0..4 {
            eval_policy_method(&class, &fields, &ctx).unwrap();
        }
        let (h1, m1) = check_cache_stats();
        assert_eq!(m1 - m0, 1, "the snapshot's first crossing");
        assert_eq!(h1 - h0, 3, "then the same snapshot on every crossing");
        // Changed fields invalidate the snapshot; the verdict follows the
        // new values, never the cached ones.
        fields.insert("limit".to_string(), PValue::Int(0));
        let err = eval_policy_method(&class, &fields, &ctx).unwrap_err();
        assert!(err.to_string().contains("over"));
        let (h2, m2) = check_cache_stats();
        assert_eq!((h2 - h1, m2 - m1), (0, 1));
    }

    /// A check that counts its own runs, attached to `"x"`.
    const ONCE: &str = r#"class Once {
        fn init() { this.n = 0; }
        fn export_check(c) {
            this.n = this.n + 1;
            if (this.n > 1) { throw "twice"; }
        }
    }
    let x = policy_add("x", new Once());"#;

    #[test]
    fn a_stateful_check_fails_closed() {
        // `this` is the policy's frozen snapshot: the store is refused, so
        // no crossing passes, and none sees another's run.
        let refused = "a store into field `n` is refused inside a policy check";
        let mut i = Interp::new();
        i.run(ONCE).unwrap();
        for _ in 0..3 {
            let err = i.run("echo(x);").unwrap_err();
            assert!(err.violation, "{err}");
            assert!(err.message.contains(refused), "{err}");
        }
        assert_eq!(i.http_output(), "");
        // The same through a bare gate.
        let Some(Value::Str(x)) = i.global("x") else {
            panic!("x is a string")
        };
        let mut gate = Gate::new(GateKind::Http);
        for _ in 0..3 {
            let err = gate.write(TaintedString::clone(&x)).unwrap_err();
            let reason = err.as_violation().map(|v| &v.reason);
            assert!(
                matches!(reason, Some(Reason::ScriptError(m)) if m.ends_with(refused)),
                "{err}"
            );
        }
        assert_eq!(gate.output_text(), "");
    }

    #[test]
    fn a_script_cannot_rename_its_http_channel() {
        // Figure 2's password may leave by email to its owner. A script
        // that sets its HTTP channel's `type` to `email` must not turn
        // `echo` into that email.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class Pw { fn init(e) { this.e = e; }
                     fn export_check(c) {
                       if (c["type"] == "email" && c["email"] == this.e) { return; }
                       throw "no";
                     } }
                   let pw = policy_add("s3cret", new Pw("u@foo.com"));
                   http_context("type", "email"); http_context("email", "u@foo.com"); echo(pw);"#,
            )
            .unwrap_err();
        assert!(err.violation, "{err}");
        assert!(err.message.contains("`type`"), "names the key: {err}");
        assert!(!err.message.contains("email"), "not the value: {err}");
        assert!(
            i.run(r#"http_context("email", "u@foo.com"); echo(pw);"#)
                .unwrap_err()
                .violation
        );
        assert_eq!(i.http_output(), "");
    }

    #[test]
    fn every_view_of_a_channel_type_agrees() {
        /// A native policy that allows only a channel of type `0`.
        #[derive(Debug)]
        struct OnlyOn(&'static str);
        impl Policy for OnlyOn {
            fn name(&self) -> &str {
                "OnlyOn"
            }
            fn export_check(&self, c: &Context) -> Result<(), PolicyViolation> {
                if c.channel_type() == self.0 {
                    return Ok(());
                }
                Err(PolicyViolation::new(
                    "OnlyOn",
                    Reason::Refused("another channel"),
                ))
            }
            fn serialize_fields(&self) -> Vec<(String, String)> {
                vec![("type".to_string(), self.0.to_string())]
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let says_type =
            policy_class(r#"class SaysType { fn export_check(c) { throw c["type"]; } }"#);
        let kinds = [
            GateKind::Http,
            GateKind::Email,
            GateKind::Socket,
            GateKind::Pipe,
            GateKind::File,
            GateKind::Sql,
            GateKind::CodeImport,
            GateKind::Custom("audit"),
        ];
        for kind in kinds {
            let name = kind.type_name();
            let mut gate = Gate::new(kind.clone());
            assert_eq!(gate.context().channel_type(), name);
            // Native: the policy for this type passes, another refuses.
            let other = if name == "http" { "email" } else { "http" };
            let native = |t| TaintedString::with_policy("x", Arc::new(OnlyOn(t)));
            gate.write(native(name)).unwrap();
            assert!(
                gate.write(native(other)).unwrap_err().is_violation(),
                "{kind}"
            );
            // RSL: `context["type"]`, thrown back as the reason.
            let script =
                ScriptPolicy::new("SaysType".into(), BTreeMap::new(), Some(says_type.clone()));
            let err = gate
                .write(TaintedString::with_policy("x", Arc::new(script)))
                .unwrap_err();
            let thrown = Reason::Threw(Thrown::Text(name.into()));
            assert_eq!(
                err.as_violation().map(|v| &v.reason),
                Some(&thrown),
                "{kind}"
            );
        }
    }

    #[test]
    fn context_mutation_refreshes_cached_map() {
        let class = policy_class(
            r#"class ForUser {
                fn export_check(context) {
                    if (context["user"] != "alice") { throw "wrong user"; }
                }
            }"#,
        );
        let fields = BTreeMap::new();
        let mut ctx = Context::new(GateKind::Http);
        ctx.set_str("user", "alice");
        eval_policy_method(&class, &fields, &ctx).unwrap();
        // Mutating the context refreshes its stamp, so the cached map
        // cannot be served stale.
        ctx.set_str("user", "mallory");
        let err = eval_policy_method(&class, &fields, &ctx).unwrap_err();
        assert!(err.to_string().contains("wrong user"));
        ctx.set_str("user", "alice");
        eval_policy_method(&class, &fields, &ctx).unwrap();
    }

    #[test]
    fn read_only_analysis_walks_reachable_methods() {
        // A helper that pushes into a list reached through `this` is
        // refused even though export_check itself is clean, as is an index
        // store through a local alias: each crossing executes and fails
        // closed. An unreachable mutating method refuses nothing, so the
        // clean policy's allow is reused.
        let ctx = Context::new(GateKind::Http);
        let log = BTreeMap::from([("log".to_string(), PValue::List(vec![PValue::Int(0)]))]);
        let n = BTreeMap::from([("n".to_string(), PValue::Int(1))]);
        let reused = || metrics::thread(Counter::VerdictsReused);
        for (src, fields, refused) in [
            (
                "class Sneaky { fn bump() { push(this.log, 1); } fn export_check(c) { this.bump(); } }",
                &log,
                Some("a store into a frozen array by `push`"),
            ),
            (
                "class Alias { fn export_check(c) { let w = this.log; w[0] = 9; } }",
                &log,
                Some("a store into a frozen array"),
            ),
            (
                "class Clean { fn init(n) { this.n = n; } fn export_check(c) { return this.n; } }",
                &n,
                None,
            ),
        ] {
            let class = policy_class(src);
            let policy = ScriptPolicy::new(class.name.clone(), fields.clone(), Some(class));
            let (crossed, r0) = (metrics::thread(Counter::ScriptCrossings), reused());
            for _ in 0..3 {
                let verdict = policy.export_check(&ctx);
                match refused {
                    Some(what) => {
                        let err = verdict.unwrap_err().to_string();
                        assert!(err.contains(what), "{src}: {err}");
                    }
                    None => verdict.unwrap(),
                }
            }
            let crossed = metrics::thread(Counter::ScriptCrossings) - crossed;
            let expected = if refused.is_some() { (3, 0) } else { (1, 2) };
            assert_eq!((crossed, reused() - r0), expected, "{src}");
        }
    }

    #[test]
    fn a_scratch_field_writer_executes_every_crossing_verdict_unchanged() {
        // Writes an audit field no method reads. `this` is frozen, so the
        // store is refused: every crossing is the same deny, a deny is
        // never reused, and the write never feeds back into the snapshot.
        let class = policy_class(
            r#"class Audited {
                fn export_check(context) {
                    let sum = this.a + this.b;
                    this.last_sum = sum;
                    if (sum > this.limit) { throw "over"; }
                }
            }"#,
        );
        let mut fields = BTreeMap::new();
        fields.insert("a".to_string(), PValue::Int(3));
        fields.insert("b".to_string(), PValue::Int(4));
        fields.insert("limit".to_string(), PValue::Int(10));
        let ctx = Context::new(GateKind::Http);
        let reused = || metrics::thread(Counter::VerdictsReused);
        let (crossed, r0) = (metrics::thread(Counter::ScriptCrossings), reused());
        for _ in 0..4 {
            let err = eval_policy_method(&class, &fields, &ctx).unwrap_err();
            assert!(err.to_string().contains("a store into field `last_sum`"));
        }
        let crossed = metrics::thread(Counter::ScriptCrossings) - crossed;
        assert_eq!((crossed, reused() - r0), (4, 0), "every crossing executes");
        fields.insert("limit".to_string(), PValue::Int(5));
        let served = eval_policy_method(&class, &fields, &ctx).unwrap_err();
        set_check_cache(false);
        let scratch = eval_policy_method(&class, &fields, &ctx).unwrap_err();
        set_check_cache(true);
        assert_eq!(served.to_string(), scratch.to_string());
        assert!(!fields.contains_key("last_sum"), "snapshot stays pristine");
    }

    #[test]
    fn unsound_policy_class_fails_registration_closed() {
        // Error-severity lint findings refuse the class definition.
        let err = Interp::new()
            .run(r#"class BadCall { fn export_check(context) { this.nope(); } }"#)
            .unwrap_err();
        assert!(err.to_string().contains("rejected by lint"), "{err}");
        assert!(err.to_string().contains("RL003"), "{err}");
        // Warnings do not block registration; they accumulate on the
        // interpreter for the application to surface.
        let mut i = Interp::new();
        i.run(r#"class AllowAll { fn export_check(context) { return; } }"#)
            .unwrap();
        assert_eq!(i.lint_reports().len(), 1);
        assert_eq!(i.lint_reports()[0].diagnostics[0].code, "RL001");
        assert!(i.lint_class("AllowAll").is_some());
        assert_eq!(i.take_lint_reports().len(), 1);
        assert!(i.lint_reports().is_empty());
    }

    #[test]
    fn review_probe_array_smuggled_this_mutation() {
        // `this` smuggled through an array literal, mutated via the alias.
        let class = policy_class(
            r#"class Smuggle {
                fn export_check(context) {
                    let a = [this];
                    let t = a[0];
                    t.n = t.n + 1;
                    if (t.n > 1) { throw "ran twice"; }
                }
            }"#,
        );
        let mut fields = BTreeMap::new();
        fields.insert("n".to_string(), PValue::Int(0));
        let ctx = Context::new(GateKind::Http);
        for i in 0..3 {
            let err = eval_policy_method(&class, &fields, &ctx).unwrap_err();
            let refused = "a store into field `n` is refused inside a policy check";
            assert!(err.to_string().ends_with(refused), "crossing {i}: {err}");
        }
    }
}
