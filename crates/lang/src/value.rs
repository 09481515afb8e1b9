//! Runtime values and script-defined policy objects.
//!
//! The key reproduction detail from §4: the runtime's internal
//! representation of a datum carries a pointer to a set of policy objects.
//! In RSL, `Value::Str` carries byte-range policies via
//! [`TaintedString`], and `Value::Int` carries a whole-datum interned
//! [`Label`] (integers cannot do byte-level tracking — the paper's
//! integer-addition microbenchmark measures exactly this path). A label is
//! a 4-byte `Copy` handle, so integer propagation costs nothing.
//!
//! # Layout
//!
//! A [`Value`] is 16 bytes (asserted at compile time), so a stack push, a
//! pop and a slot store each move two words. Inline: the tag, `Bool`, and
//! `Int`'s `i64` plus its 4-byte [`Label`]. Shared: `Str` is an
//! `Arc<TaintedString>` — text and spans live once on the heap, cloning a
//! string value (reading `context["user"]`, loading a string constant out
//! of a [`Chunk`](crate::chunk::Chunk), which is `Send + Sync` and so needs
//! the atomic count) bumps a count, and the operations that change a string
//! in place (`policy_add`, `policy_remove`) copy it first only when it is
//! shared. `Array`, `Map` and `Object` are `Rc<RefCell<..>>` with reference
//! semantics, as before.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use resin_core::{Context, Label, PolicyViolation, TaintedStrBuilder, TaintedString};

use crate::ast::{ClassDecl, FnDecl};
use crate::check::ClassPlan;

/// An RSL runtime value.
#[derive(Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer with its interned policy label.
    Int(i64, Label),
    /// String with byte-range policies (shared; see the module's layout
    /// notes). Build one with [`Value::str`] or `Value::from`.
    Str(Arc<TaintedString>),
    /// Mutable array (reference semantics).
    Array(Rc<RefCell<Vec<Value>>>),
    /// Mutable string-keyed map (reference semantics).
    Map(Rc<RefCell<BTreeMap<String, Value>>>),
    /// Class instance (reference semantics).
    Object(Rc<RefCell<Obj>>),
}

const _: () = assert!(std::mem::size_of::<Value>() <= 16);

impl From<TaintedString> for Value {
    fn from(s: TaintedString) -> Value {
        Value::Str(Arc::new(s))
    }
}

/// A class instance: its class plus dynamic fields.
pub struct Obj {
    /// The instance's class.
    pub class: Arc<ClassDecl>,
    /// Fields (spring into existence on assignment).
    pub fields: BTreeMap<String, Value>,
}

impl Value {
    /// Integer without policies.
    pub fn int(n: i64) -> Value {
        Value::Int(n, Label::EMPTY)
    }

    /// String from plain text.
    pub fn str(s: impl Into<String>) -> Value {
        Value::from(TaintedString::from(s.into()))
    }

    /// Fresh empty array.
    pub fn new_array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Fresh empty map.
    pub fn new_map() -> Value {
        Value::Map(Rc::new(RefCell::new(BTreeMap::new())))
    }

    /// PHP-style truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(n, _) => *n != 0,
            Value::Str(s) => !s.is_empty(),
            Value::Array(a) => !a.borrow().is_empty(),
            Value::Map(m) => !m.borrow().is_empty(),
            Value::Object(_) => true,
        }
    }

    /// The value's type name (for error messages and `typeof`).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(..) => "int",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
            Value::Object(_) => "object",
        }
    }

    /// Equality: value equality for scalars (ignoring policies, like PHP),
    /// reference equality for containers.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a, _), Value::Int(b, _)) => a == b,
            (Value::Str(a), Value::Str(b)) => a.as_str() == b.as_str(),
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Map(a), Value::Map(b)) => Rc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Renders the value as a tainted string (policies carried: an int's
    /// set applies to all its digits).
    pub fn to_tainted(&self) -> TaintedString {
        match self {
            Value::Null => TaintedString::new(),
            Value::Bool(b) => TaintedString::from(if *b { "true" } else { "false" }),
            Value::Int(n, pol) => {
                let mut s = TaintedString::from(n.to_string());
                s.add_label(*pol);
                s
            }
            Value::Str(s) => TaintedString::clone(s),
            Value::Array(a) => {
                let mut out = TaintedStrBuilder::new();
                out.push_char('[');
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_tainted(&v.to_tainted());
                }
                out.push_char(']');
                out.build()
            }
            Value::Map(m) => {
                let mut out = TaintedStrBuilder::new();
                out.push_char('{');
                for (i, (k, v)) in m.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(k);
                    out.push_str(": ");
                    out.push_tainted(&v.to_tainted());
                }
                out.push_char('}');
                out.build()
            }
            Value::Object(o) => TaintedString::from(format!("<{}>", o.borrow().class.name)),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_tainted().as_str())
    }
}

// ---- script-defined policies ----

/// A persistable scalar snapshot of a script value (policy fields).
///
/// Policy objects persist as *class name + data fields* (§3.4.1), so a
/// script policy's fields are snapshotted into this `Send + Sync` form
/// when the policy is attached to data.
#[derive(Debug, Clone, PartialEq)]
pub enum PValue {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// String (text only; field policies are not persisted).
    Str(String),
    /// List of scalars.
    List(Vec<PValue>),
}

impl PValue {
    /// Snapshots a runtime value; containers of scalars are supported,
    /// nested objects are not (matching the flat-fields persistence model).
    pub fn from_value(v: &Value) -> Option<PValue> {
        Some(match v {
            Value::Null => PValue::Null,
            Value::Bool(b) => PValue::Bool(*b),
            Value::Int(n, _) => PValue::Int(*n),
            Value::Str(s) => PValue::Str(s.as_str().to_string()),
            Value::Array(a) => PValue::List(
                a.borrow()
                    .iter()
                    .map(PValue::from_value)
                    .collect::<Option<Vec<_>>>()?,
            ),
            Value::Map(_) | Value::Object(_) => return None,
        })
    }

    /// Rebuilds a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            PValue::Null => Value::Null,
            PValue::Bool(b) => Value::Bool(*b),
            PValue::Int(n) => Value::int(*n),
            PValue::Str(s) => Value::str(s.clone()),
            PValue::List(items) => Value::new_array(items.iter().map(PValue::to_value).collect()),
        }
    }

    /// Overwrites `slot` with this snapshot's value, reusing what `slot`
    /// already owns alone: a list's buffer, a string's text. The result is
    /// indistinguishable from [`PValue::to_value`].
    pub(crate) fn store_into(&self, slot: &mut Value) {
        match (self, &mut *slot) {
            (PValue::Str(s), Value::Str(text)) => {
                if let Some(text) = Arc::get_mut(text) {
                    text.truncate(0);
                    text.push_str(s);
                    return;
                }
            }
            (PValue::List(items), Value::Array(array)) => {
                if let Some(array) = Rc::get_mut(array) {
                    let array = array.get_mut();
                    array.truncate(items.len());
                    for (item, v) in items.iter().zip(array.iter_mut()) {
                        match item {
                            // What lists mostly hold, without the call
                            // (this function recurses, so it is not inlined).
                            PValue::Int(n) => *v = Value::int(*n),
                            _ => item.store_into(v),
                        }
                    }
                    let kept = array.len();
                    array.extend(items[kept..].iter().map(PValue::to_value));
                    return;
                }
            }
            _ => {}
        }
        *slot = self.to_value();
    }

    /// Compact text encoding for persistence.
    pub fn encode(&self) -> String {
        match self {
            PValue::Null => "n:".to_string(),
            PValue::Bool(b) => format!("b:{b}"),
            PValue::Int(n) => format!("i:{n}"),
            PValue::Str(s) => format!("s:{s}"),
            PValue::List(items) => {
                let inner: Vec<String> = items
                    .iter()
                    .map(|i| {
                        // Nested separators are escaped with %1C.
                        i.encode().replace('%', "%25").replace('\u{1c}', "%1C")
                    })
                    .collect();
                format!("l:{}", inner.join("\u{1c}"))
            }
        }
    }

    /// Decodes [`PValue::encode`] output.
    pub fn decode(s: &str) -> Option<PValue> {
        let (tag, body) = s.split_once(':')?;
        Some(match tag {
            "n" => PValue::Null,
            "b" => PValue::Bool(body == "true"),
            "i" => PValue::Int(body.parse().ok()?),
            "s" => PValue::Str(body.to_string()),
            "l" => {
                if body.is_empty() {
                    PValue::List(Vec::new())
                } else {
                    PValue::List(
                        body.split('\u{1c}')
                            .map(|p| {
                                PValue::decode(&p.replace("%1C", "\u{1c}").replace("%25", "%"))
                            })
                            .collect::<Option<Vec<_>>>()?,
                    )
                }
            }
            _ => return None,
        })
    }
}

/// A policy object defined by script code (§3.3 — "programmers write
/// policy objects in the same language that the rest of the application is
/// written in").
///
/// Carries the class name, a scalar snapshot of the instance's fields, and
/// the class declaration. When a Rust-side filter invokes `export_check`,
/// [`crate::check`] runs the method with `this` bound to the fields and
/// `context` bound to the channel context.
#[derive(Debug)]
pub struct ScriptPolicy {
    class_name: String,
    /// Shared so the check caches can recognise this snapshot by identity.
    fields: Arc<BTreeMap<String, PValue>>,
    class: Option<Arc<ClassDecl>>,
    /// When set, checks run on this engine instead of the process default
    /// (the interpreter-vs-VM benchmarks pin one policy to each engine).
    engine: Option<crate::interp::Engine>,
    /// The class's check plan, resolved by the first crossing.
    plan: OnceLock<Arc<ClassPlan>>,
}

impl ScriptPolicy {
    /// Builds a script policy from an instance snapshot. The whole class
    /// declaration is captured so `export_check` can call the class's
    /// other methods (the paper's point about reusing application code).
    pub fn new(
        class_name: String,
        fields: BTreeMap<String, PValue>,
        class: Option<Arc<ClassDecl>>,
    ) -> Self {
        ScriptPolicy {
            class_name,
            fields: Arc::new(fields),
            class,
            engine: None,
            plan: OnceLock::new(),
        }
    }

    /// Reserved serialized-field name carrying the engine pin. The `__rp_`
    /// prefix keeps it out of the script-visible field namespace (RSL
    /// identifiers never start with it in practice, and the revival path
    /// strips it before decoding instance fields).
    pub const ENGINE_FIELD: &'static str = "__rp_engine";

    /// Pins `export_check` to a specific engine (default: the process
    /// engine). Used by benchmarks and the differential tests. The pin
    /// persists: serialization emits it as the reserved
    /// [`ENGINE_FIELD`](Self::ENGINE_FIELD) and revival re-applies it, so
    /// a policy written to storage under one engine keeps checking on that
    /// engine after a restart even if the process default changed.
    pub fn with_engine(mut self, engine: crate::interp::Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The engine pin, if any.
    pub fn engine(&self) -> Option<crate::interp::Engine> {
        self.engine
    }

    /// The snapshotted fields.
    pub fn fields(&self) -> &BTreeMap<String, PValue> {
        &self.fields
    }

    /// The captured class declaration, if any.
    pub fn class(&self) -> Option<&Arc<ClassDecl>> {
        self.class.as_ref()
    }

    /// The captured `export_check` method, if the class defined one.
    pub fn method(&self) -> Option<&Arc<FnDecl>> {
        self.class.as_ref().and_then(|c| c.method("export_check"))
    }
}

impl resin_core::Policy for ScriptPolicy {
    fn name(&self) -> &str {
        &self.class_name
    }

    fn export_check(&self, context: &Context) -> Result<(), PolicyViolation> {
        let Some(class) = &self.class else {
            return Ok(());
        };
        let plan = self.plan.get_or_init(|| crate::check::plan_for(class));
        let engine = self.engine.unwrap_or_else(crate::interp::default_engine);
        crate::check::cross(engine, plan, &self.fields, context)
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.encode()))
            .collect();
        if let Some(engine) = self.engine {
            out.push((Self::ENGINE_FIELD.to_string(), engine.name().to_string()));
        }
        out
    }

    /// A script policy's behaviour lives in the captured class AST, not in
    /// its fields, so two same-named, same-field policies from *different*
    /// class declarations (two scripts, two interpreter instances) must not
    /// intern to one id. The class `Arc` address is a sound discriminator:
    /// the interner keeps the policy — and hence the `Arc` — alive for the
    /// process lifetime, so the address is never reused.
    fn intern_discriminator(&self) -> u64 {
        self.class.as_ref().map_or(0, |c| Arc::as_ptr(c) as u64)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::int(0).truthy());
        assert!(Value::int(-1).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::new_array(vec![]).truthy());
        assert!(Value::new_array(vec![Value::int(1)]).truthy());
    }

    #[test]
    fn loose_equality() {
        assert!(Value::int(3).loose_eq(&Value::int(3)));
        assert!(Value::str("a").loose_eq(&Value::str("a")));
        assert!(!Value::int(1).loose_eq(&Value::str("1")));
        let a = Value::new_array(vec![]);
        assert!(a.loose_eq(&a.clone()), "reference equality");
        assert!(!a.loose_eq(&Value::new_array(vec![])));
    }

    #[test]
    fn to_tainted_renders() {
        assert_eq!(Value::Null.to_tainted().as_str(), "");
        assert_eq!(Value::Bool(true).to_tainted().as_str(), "true");
        assert_eq!(Value::int(-5).to_tainted().as_str(), "-5");
        let arr = Value::new_array(vec![Value::int(1), Value::str("x")]);
        assert_eq!(arr.to_tainted().as_str(), "[1, x]");
    }

    #[test]
    fn pvalue_roundtrip() {
        let cases = vec![
            PValue::Null,
            PValue::Bool(true),
            PValue::Int(-42),
            PValue::Str("a:b,c;d".into()),
            PValue::List(vec![PValue::Int(1), PValue::Str("x".into())]),
            PValue::List(vec![]),
        ];
        for c in cases {
            assert_eq!(PValue::decode(&c.encode()), Some(c));
        }
        assert!(PValue::decode("junk").is_none());
        assert!(PValue::decode("z:1").is_none());
    }

    #[test]
    fn pvalue_snapshot_limits() {
        assert!(PValue::from_value(&Value::new_map()).is_none());
        let arr = Value::new_array(vec![Value::int(1)]);
        assert_eq!(
            PValue::from_value(&arr),
            Some(PValue::List(vec![PValue::Int(1)]))
        );
    }
}
