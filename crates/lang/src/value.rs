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
//! semantics, as before; a map's [`Key`] shares its string's `Arc`, labels
//! and all. `Frozen` and `Instance` are `Arc`s of read-only values that
//! threads share — a list in a script policy's fields or a check's
//! `$context`, and the policy's instance — and a store into one fails
//! closed.
//!
//! # Policy fields
//!
//! A script policy's fields take one form from its `new` to rest and back:
//! [`Entry`]. A script's `policy_add(x, new P(..))` freezes each field
//! value into one (`Entry::freeze`), a stored text decodes into one
//! ([`Entry::decode`]), and the policy's `serialize_fields` writes each
//! with [`Entry::encode`]; every check reads them where they lie.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use resin_core::serialize::{escape_into, unescape};
use resin_core::{Context, Label, PolicyViolation, TaintedString};

use crate::ast::ClassDecl;
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
    Map(Rc<RefCell<BTreeMap<Key, Value>>>),
    /// Class instance (reference semantics).
    Object(Rc<RefCell<Obj>>),
    /// A read-only array or map (see [`Frozen`]).
    Frozen(Arc<Frozen>),
    /// A script policy's instance (see [`Instance`]).
    Instance(Arc<Instance>),
}

const _: () = assert!(std::mem::size_of::<Value>() <= 16);

impl From<TaintedString> for Value {
    fn from(s: TaintedString) -> Value {
        Value::Str(Arc::new(s))
    }
}

/// A map key: its text finds and orders it, and its labels travel with
/// it into `keys()` and `str(map)`.
#[derive(Debug, Clone)]
pub struct Key(pub(crate) Arc<TaintedString>);

impl Key {
    /// The key stored under this one's text: `new`'s text and labels, and
    /// this key's labels unioned in byte by byte.
    pub(crate) fn union(self, new: &Arc<TaintedString>) -> Key {
        let mut key = new.clone();
        for (range, label) in self.0.spans() {
            Arc::make_mut(&mut key).add_label_range(range, label);
        }
        Key(key)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.0.as_str() == other.0.as_str()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.0.as_str().cmp(other.0.as_str())
    }
}

impl std::borrow::Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.0.as_str()
    }
}

/// A read-only container that threads share: a list in a script policy's
/// fields, or the `$context` map a check receives. A check reads it where
/// it lies; a store into it — an element, `push`, `pop` — fails closed,
/// so no crossing can change what another reads.
#[derive(Debug, PartialEq)]
pub enum Frozen {
    /// An array.
    List(Vec<Entry>),
    /// A string-keyed map.
    Map(BTreeMap<String, Entry>),
}

/// A script policy's instance: its class and its fields, frozen once when
/// its [`ScriptPolicy`] is made. A check reads it where it lies, and a
/// store into a field fails closed, as one into a [`Frozen`] does.
#[derive(Debug, PartialEq)]
pub struct Instance {
    pub(crate) class: Arc<ClassDecl>,
    pub(crate) fields: BTreeMap<String, Entry>,
}

/// A policy field, and what a [`Frozen`] value holds: the one form a
/// field takes from a script's `new` to rest and back (see the module's
/// notes). Reading one out is an int copy or an `Arc` bump.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (unlabelled).
    Int(i64),
    /// String (unlabelled).
    Str(Arc<TaintedString>),
    /// A frozen array.
    List(Arc<Frozen>),
}

impl Entry {
    /// A string entry.
    pub(crate) fn str(s: impl Into<String>) -> Entry {
        Entry::Str(Arc::new(TaintedString::from(s.into())))
    }

    /// The runtime value.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Entry::Null => Value::Null,
            Entry::Bool(b) => Value::Bool(*b),
            Entry::Int(n) => Value::int(*n),
            Entry::Str(s) => Value::Str(s.clone()),
            Entry::List(l) => Value::Frozen(l.clone()),
        }
    }

    /// Freezes a script value as a policy field. A map, an object and a
    /// list met again inside itself have no field form (fields persist
    /// flat, §3.4.1), and a string's labels are not kept (ROADMAP item 23).
    pub(crate) fn freeze(v: &Value) -> Option<Entry> {
        // `path` holds the arrays being frozen, outermost first.
        fn on(v: &Value, path: &mut Vec<*const RefCell<Vec<Value>>>) -> Option<Entry> {
            Some(match v {
                Value::Null => Entry::Null,
                Value::Bool(b) => Entry::Bool(*b),
                Value::Int(n, _) => Entry::Int(*n),
                Value::Str(s) => Entry::str(s.as_str().to_string()),
                Value::Array(a) if !path.contains(&Rc::as_ptr(a)) => {
                    path.push(Rc::as_ptr(a));
                    let items: Option<_> = a.borrow().iter().map(|v| on(v, path)).collect();
                    path.pop();
                    Entry::List(Arc::new(Frozen::List(items?)))
                }
                Value::Frozen(f) if matches!(**f, Frozen::List(_)) => Entry::List(f.clone()),
                _ => return None,
            })
        }
        on(v, &mut Vec::new())
    }

    /// The field's stored text: `n:`, `b:true`, `i:-42`, `s:` and the
    /// text, or `l:` and the items' texts joined by `\x1c`, an item's `%`
    /// and separator escaped (`%25`, `%1C`).
    pub fn encode(&self) -> String {
        match self {
            Entry::Null => "n:".to_string(),
            Entry::Bool(b) => format!("b:{b}"),
            Entry::Int(n) => format!("i:{n}"),
            Entry::Str(s) => format!("s:{}", s.as_str()),
            Entry::List(list) => {
                let Frozen::List(items) = &**list else {
                    unreachable!("an entry's list is an array");
                };
                let mut out = String::from("l:");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push('\u{1c}');
                    }
                    escape_into(&mut out, &item.encode(), b"%\x1c");
                }
                out
            }
        }
    }

    /// Decodes [`Entry::encode`] output, and only that: a text that reads
    /// as some field but is not what `encode` writes for it (`b:TRUE`,
    /// `i:05`, a stray `%XX` in a list item) is `None`.
    pub fn decode(s: &str) -> Option<Entry> {
        Self::read(s).filter(|v| v.encode() == s)
    }

    /// Reads a text in `encode`'s shape without checking that it is the
    /// canonical one; [`Entry::decode`] checks the whole field once.
    fn read(s: &str) -> Option<Entry> {
        let (tag, body) = s.split_once(':')?;
        Some(match tag {
            "n" => Entry::Null,
            "b" => Entry::Bool(body == "true"),
            "i" => Entry::Int(body.parse().ok()?),
            "s" => Entry::str(body),
            "l" if body.is_empty() => Entry::List(Arc::new(Frozen::List(Vec::new()))),
            "l" => {
                let items = body
                    .split('\u{1c}')
                    .map(|p| Entry::read(&unescape(p).ok()?));
                Entry::List(Arc::new(Frozen::List(items.collect::<Option<_>>()?)))
            }
            _ => return None,
        })
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
    pub(crate) fn new_array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Fresh empty map.
    pub(crate) fn new_map() -> Value {
        Value::Map(Rc::new(RefCell::new(BTreeMap::new())))
    }

    /// `f` of the class of an object, frozen or not.
    pub(crate) fn with_class<T>(&self, f: impl FnOnce(&Arc<ClassDecl>) -> T) -> Option<T> {
        match self {
            Value::Object(o) => Some(f(&o.borrow().class)),
            Value::Instance(i) => Some(f(&i.class)),
            _ => None,
        }
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
            Value::Object(_) | Value::Instance(_) => true,
            Value::Frozen(f) => match &**f {
                Frozen::List(items) => !items.is_empty(),
                Frozen::Map(entries) => !entries.is_empty(),
            },
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
            Value::Object(_) | Value::Instance(_) => "object",
            Value::Frozen(f) => match **f {
                Frozen::List(_) => "array",
                Frozen::Map(_) => "map",
            },
        }
    }

    /// Equality: value equality for scalars (ignoring policies, like PHP),
    /// reference equality for containers.
    pub(crate) fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a, _), Value::Int(b, _)) => a == b,
            (Value::Str(a), Value::Str(b)) => a.as_str() == b.as_str(),
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Map(a), Value::Map(b)) => Rc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Frozen(a), Value::Frozen(b)) => Arc::ptr_eq(a, b),
            (Value::Instance(a), Value::Instance(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Renders the value as a tainted string (policies carried: an int's
    /// set applies to all its digits). Arrays and maps render without
    /// native recursion, and one met again inside itself renders as `[...]`
    /// or `{...}` (PHP's `*RECURSION*`), so any value renders.
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
            Value::Object(o) => TaintedString::from(format!("<{}>", o.borrow().class.name)),
            Value::Instance(i) => TaintedString::from(format!("<{}>", i.class.name)),
            Value::Array(_) | Value::Map(_) | Value::Frozen(_) => render_containers(self),
        }
    }
}

/// A container being rendered: its address, its closing bracket, and the
/// entries (a map's with their keys, labels and all) it has left.
struct Open {
    addr: usize,
    close: char,
    rest: std::vec::IntoIter<(Option<TaintedString>, Value)>,
    first: bool,
}

impl Open {
    /// A container's address and brackets; `None` for anything else.
    fn brackets(v: &Value) -> Option<(usize, char, char)> {
        match v {
            Value::Array(a) => Some((Rc::as_ptr(a) as usize, '[', ']')),
            Value::Map(m) => Some((Rc::as_ptr(m) as usize, '{', '}')),
            Value::Frozen(f) => match &**f {
                Frozen::List(_) => Some((Arc::as_ptr(f) as usize, '[', ']')),
                Frozen::Map(_) => Some((Arc::as_ptr(f) as usize, '{', '}')),
            },
            _ => None,
        }
    }

    fn entries(v: &Value) -> Vec<(Option<TaintedString>, Value)> {
        match v {
            Value::Array(a) => a.borrow().iter().map(|v| (None, v.clone())).collect(),
            Value::Map(m) => m
                .borrow()
                .iter()
                .map(|(k, v)| (Some(TaintedString::clone(&k.0)), v.clone()))
                .collect(),
            Value::Frozen(f) => match &**f {
                Frozen::List(items) => items.iter().map(|e| (None, e.to_value())).collect(),
                Frozen::Map(entries) => entries
                    .iter()
                    .map(|(k, e)| (Some(TaintedString::from(k.as_str())), e.to_value()))
                    .collect(),
            },
            _ => Vec::new(),
        }
    }
}

/// Renders an array or a map. `path` holds the containers being rendered,
/// outermost first; one already on it is not entered again.
fn render_containers(root: &Value) -> TaintedString {
    let mut out = TaintedString::new();
    let mut path: Vec<Open> = Vec::new();
    let mut on_path = HashSet::new();
    let mut next = Some(root.clone());
    loop {
        if let Some(v) = next.take() {
            match Open::brackets(&v) {
                None => out.push_tainted(&v.to_tainted()),
                Some((addr, open, close)) => {
                    out.push(open);
                    if on_path.insert(addr) {
                        let rest = Open::entries(&v).into_iter();
                        path.push(Open {
                            addr,
                            close,
                            rest,
                            first: true,
                        });
                    } else {
                        out.push_str("...");
                        out.push(close);
                    }
                }
            }
        }
        let Some(top) = path.last_mut() else {
            return out;
        };
        match top.rest.next() {
            Some((key, v)) => {
                if !std::mem::take(&mut top.first) {
                    out.push_str(", ");
                }
                if let Some(key) = key {
                    out.push_tainted(&key);
                    out.push_str(": ");
                }
                next = Some(v);
            }
            None => {
                out.push(top.close);
                on_path.remove(&top.addr);
                path.pop();
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_tainted().as_str())
    }
}

// ---- script-defined policies ----

/// A policy's fields as a caller outside the crate spells them for
/// [`ScriptPolicy::new`]: the five shapes of an [`Entry`], with plain
/// strings and lists.
#[derive(Debug, Clone, PartialEq)]
pub enum PValue {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// String.
    Str(String),
    /// List.
    List(Vec<PValue>),
}

impl PValue {
    /// The field's one form.
    fn freeze(self) -> Entry {
        match self {
            PValue::Null => Entry::Null,
            PValue::Bool(b) => Entry::Bool(b),
            PValue::Int(n) => Entry::Int(n),
            PValue::Str(s) => Entry::str(s),
            PValue::List(items) => {
                let items = items.into_iter().map(PValue::freeze).collect();
                Entry::List(Arc::new(Frozen::List(items)))
            }
        }
    }
}

/// A policy object defined by script code (§3.3 — "programmers write
/// policy objects in the same language that the rest of the application is
/// written in").
///
/// It is its frozen [`Instance`] — the class declaration and the fields —
/// plus the class's check plan. Its name and its intern discriminator are
/// its class's. When a Rust-side filter invokes `export_check`,
/// [`crate::check`] runs the method with `this` bound to that instance,
/// read in place, and `context` bound to the channel context.
#[derive(Debug)]
pub struct ScriptPolicy {
    /// Shared so the check caches can recognise it by identity.
    pub(crate) this: Arc<Instance>,
    /// The class's check plan, resolved by the first crossing.
    plan: OnceLock<Arc<ClassPlan>>,
}

impl ScriptPolicy {
    /// Builds a script policy of `class` over `fields`. The whole class
    /// declaration is captured so `export_check` can call the class's
    /// other methods (the paper's point about reusing application code).
    ///
    /// # Panics
    ///
    /// When `class` is `None` or is not named `class_name`: a script
    /// policy is an object of its class.
    pub fn new(
        class_name: String,
        fields: BTreeMap<String, PValue>,
        class: Option<Arc<ClassDecl>>,
    ) -> Self {
        let class = class.filter(|c| c.name == class_name);
        let fields = fields.into_iter().map(|(k, v)| (k, v.freeze())).collect();
        ScriptPolicy::of(class.expect("a script policy of its named class"), fields)
    }

    /// The policy of `class` over fields frozen already.
    pub(crate) fn of(class: Arc<ClassDecl>, fields: BTreeMap<String, Entry>) -> Self {
        ScriptPolicy::frozen(Arc::new(Instance { class, fields }))
    }

    /// The policy of an instance frozen already (a check's `this`).
    pub(crate) fn frozen(this: Arc<Instance>) -> Self {
        ScriptPolicy {
            this,
            plan: OnceLock::new(),
        }
    }
}

impl resin_core::Policy for ScriptPolicy {
    fn name(&self) -> &str {
        &self.this.class.name
    }

    fn export_check(&self, context: &Context) -> Result<(), PolicyViolation> {
        let plan = self
            .plan
            .get_or_init(|| crate::check::plan_for(&self.this.class));
        crate::check::cross(plan, &self.this, context)
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        let fields = self.this.fields.iter();
        fields.map(|(k, v)| (k.clone(), v.encode())).collect()
    }

    /// A script policy's behaviour lives in the captured class AST, not in
    /// its fields, so two same-named, same-field policies from *different*
    /// class declarations (two scripts, two interpreter instances) must not
    /// intern to one id. The class `Arc` address is a sound discriminator:
    /// the interner keeps the policy — and hence the `Arc` — alive for the
    /// process lifetime, so the address is never reused.
    fn intern_discriminator(&self) -> u64 {
        Arc::as_ptr(&self.this.class) as u64
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
    fn a_container_inside_itself_renders_once() {
        let a = Value::new_array(vec![Value::int(1)]);
        let Value::Array(items) = &a else {
            unreachable!()
        };
        items.borrow_mut().push(a.clone());
        assert_eq!(a.to_tainted().as_str(), "[1, [...]]");
        assert_eq!(format!("{a:?}"), "[1, [...]]");
        let m = Value::new_map();
        let Value::Map(entries) = &m else {
            unreachable!()
        };
        let key = |k: &str| Key(Arc::new(TaintedString::from(k)));
        entries.borrow_mut().insert(key("n"), Value::int(2));
        entries.borrow_mut().insert(key("self"), m.clone());
        entries.borrow_mut().insert(key("list"), a.clone());
        assert_eq!(
            m.to_tainted().as_str(),
            "{list: [1, [...]], n: 2, self: {...}}"
        );
        // One container twice side by side is not a cycle.
        let shared = Value::new_array(vec![Value::int(7)]);
        let twice = Value::new_array(vec![shared.clone(), shared]);
        assert_eq!(twice.to_tainted().as_str(), "[[7], [7]]");
        // (Cycles are never freed; break these two.)
        items.borrow_mut().clear();
        entries.borrow_mut().clear();
    }

    fn list(items: Vec<Entry>) -> Entry {
        Entry::List(Arc::new(Frozen::List(items)))
    }

    #[test]
    fn entry_roundtrip() {
        let cases = vec![
            Entry::Null,
            Entry::Bool(true),
            Entry::Int(-42),
            Entry::str("a:b,c;d"),
            list(vec![Entry::Int(1), Entry::str("x")]),
            list(vec![]),
        ];
        for c in cases {
            assert_eq!(Entry::decode(&c.encode()), Some(c));
        }
        assert!(Entry::decode("junk").is_none());
        assert!(Entry::decode("z:1").is_none());
        // Texts that read as a value but are not what `encode` writes
        // for it fail closed instead of reviving as something else.
        for loose in [
            "b:TRUE", "b:", "b:yes", "n:x", "i:+5", "i:05", "i:-0", "l:s:a%41", "l:b:TRUE",
        ] {
            assert!(Entry::decode(loose).is_none(), "{loose}");
        }
    }

    #[test]
    fn a_field_freezes_only_flat_values() {
        assert!(Entry::freeze(&Value::new_map()).is_none());
        let arr = Value::new_array(vec![Value::int(1)]);
        let one = list(vec![Entry::Int(1)]);
        assert_eq!(Entry::freeze(&arr), Some(one.clone()));
        // One list twice side by side is not a cycle; a list inside
        // itself has no field form.
        let twice = Value::new_array(vec![arr.clone(), arr.clone()]);
        assert_eq!(Entry::freeze(&twice), Some(list(vec![one.clone(), one])));
        let Value::Array(items) = &arr else {
            unreachable!()
        };
        items.borrow_mut().push(Value::new_array(vec![arr.clone()]));
        assert_eq!(Entry::freeze(&arr), None);
        assert_eq!(Entry::freeze(&twice), None);
        items.borrow_mut().clear();
    }
}
