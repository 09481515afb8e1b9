//! Persistent policies: serializing policy objects to storage (§3.4.1).
//!
//! RESIN serializes only the *class name and data fields* of a policy
//! object, so programmers can evolve a policy class's code without
//! migrating persisted policies. Deserialization looks the class name up in
//! a registry and rebuilds the object from its fields.
//!
//! The wire format is a compact text encoding:
//!
//! ```text
//! policy  :=  Name{key=value;key=value}
//! set     :=  policy,policy,...
//! spans   :=  #table#span;span;...        (interned format)
//! table   :=  policy,policy,...           (deduplicated, indexed from 0)
//! span    :=  start..end|idx,idx,...      (indexes into the table)
//! ```
//!
//! Metacharacters inside names/keys/values are `%XX`-escaped. The spans
//! format persists the **deduplicated policy table once** and has each
//! span reference table indexes — the serialized twin of the in-memory
//! [`Label`] interning: a string with a thousand spans over two distinct
//! policies stores two policy bodies, not a thousand. It is the only spans
//! format: a blob without the leading `#` is malformed, and reads fail
//! closed on it.
//!
//! # One reader and one writer
//!
//! Nothing else splits, parses or formats this grammar. `resin_sql` keeps
//! blobs in its policy columns and its WAL; `resin_store`'s checkpoint
//! images move them into table texts and span refs and back, undecoded
//! and byte for byte ([`read_spans`], [`read_texts`], [`SpansWriter`],
//! [`write_texts`]); `resin_vfs` keeps spans blobs in an xattr, and its
//! persistent filters (§3.2.3) as objects ([`write_object`],
//! [`read_object`]).
//!
//! # Each policy is decoded once
//!
//! A site stores thousands of cells under a few hundred distinct
//! policies, so the codecs here work in policy *texts*, not policy
//! objects:
//!
//! * reading, each policy text of a blob is looked up in the policy class
//!   registry's **read index** first. A hit is one read lock of the
//!   registry and one hash, and yields the single-policy [`Label`] the
//!   text was decoded to; only a miss parses the fields, runs the class's
//!   deserializer and interns the object — and then, *because the decode
//!   succeeded*, records the text. The index is decode-only on purpose: a
//!   text must resolve to what the registry builds from it today, and
//!   that is not always the policy that once serialised to it (script
//!   policies of two declarations of one class share their text). A
//!   failed decode (unknown class, a class its linter rejects, a bad
//!   field) records nothing and fails again the next time;
//! * writing, a policy's text is rendered the first time it is
//!   serialised and kept in its label-table slot (the **write index**,
//!   [`crate::label`]); a blob's table is deduplicated by id and joined
//!   from those texts.
//!
//! The read index lives under the registry's own lock, beside the
//! constructors it answers for. [`register_policy_class`] swaps the
//! class's constructor and drops that class's texts in one write section,
//! so re-registering a class re-decodes every stored text of that class
//! with the new deserializer, and the other classes stay warm. A decode
//! runs with no lock held and records its text only if the constructor
//! it ran is still the one registered for its class (no entry standing
//! for a stock class), checked in the write section that records it: a
//! decode that raced a registration records nothing.
//!
//! One lock at a time: nothing here takes a lock while it holds another.
//! A hit reads the registry, a miss reads it for the constructor, runs
//! the deserializer, interns through the label table and writes the
//! registry, each step after the last one's lock is released. Their
//! caller may hold a storage lock — `resin_sql` revives cells under the
//! SQL table's read lock — so a deserializer must not query the store it
//! is being revived from.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::{Arc, LazyLock, RwLock, RwLockReadGuard};

use crate::error::SerializeError;
use crate::label::{Label, LabelTable, PolicyId};
use crate::metrics::{self, Counter};
use crate::policies::Acl;
use crate::policies::{
    AuthenticData, CodeApproval, EmptyPolicy, HtmlSanitized, PagePolicy, PasswordPolicy,
    SqlSanitized, UntrustedData,
};
use crate::policy::PolicyRef;
use crate::taint::TaintedString;

/// The fields of a serialized policy.
pub type FieldMap = BTreeMap<String, String>;

// ---- class registries ----

/// Rebuilds an object of one class from its fields.
pub type Constructor<T> = Arc<dyn Fn(&FieldMap) -> Result<T, SerializeError> + Send + Sync>;

/// A class a registry starts with: its name and its constructor.
pub type Stock<T> = (&'static str, fn(&FieldMap) -> Result<T, SerializeError>);

/// A registry of persisted classes, name → constructor. An object is
/// stored as its class name and fields ([`write_object`]) and revived by
/// the constructor its name has when it is read, so a class's code can
/// change without migrating what was stored. Policy classes are one
/// registry, which also keeps the read index of the texts it decoded;
/// the vfs's persistent filters are another.
pub struct ClassRegistry<T: 'static> {
    stock: &'static [Stock<T>],
    classes: LazyLock<RwLock<Classes<T>>>,
}

/// What a registry's one lock guards.
struct Classes<T> {
    /// The classes registered in place of a stock class or of none.
    registered: BTreeMap<String, Constructor<T>>,
    /// The read index: each text a decode revived through the constructor
    /// its class has now, with that class's name and the single-policy
    /// label of what it built. Only policy texts are indexed.
    decoded: HashMap<Box<str>, (String, Label)>,
}

impl<T> Classes<T> {
    /// True if `ran`, the constructor a revival of `class` ran (`None`
    /// for the stock one), is the one registered for it now.
    fn current(&self, class: &str, ran: Option<&Constructor<T>>) -> bool {
        match (self.registered.get(class), ran) {
            (None, None) => true,
            (Some(now), Some(ran)) => Arc::ptr_eq(now, ran),
            _ => false,
        }
    }
}

impl<T> ClassRegistry<T> {
    /// A registry of the `stock` classes.
    pub const fn new(stock: &'static [Stock<T>]) -> Self {
        ClassRegistry {
            stock,
            classes: LazyLock::new(|| {
                let (registered, decoded) = (BTreeMap::new(), HashMap::new());
                RwLock::new(Classes {
                    registered,
                    decoded,
                })
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Classes<T>> {
        crate::sync::rlock(&self.classes)
    }

    /// Registers the class `name`, in place of any stock or earlier class
    /// of that name, and drops the texts decoded through the class it
    /// replaces: one write section, so no revival meets the new
    /// constructor while a text the old one decoded is still indexed.
    pub fn register(&self, name: String, constructor: Constructor<T>) {
        let mut classes = crate::sync::wlock(&self.classes);
        classes.decoded.retain(|_, (class, _)| *class != name);
        classes.registered.insert(name, constructor);
    }

    /// Revives the object `text` stores ([`read_object`]) with its class's
    /// constructor, which runs after the registry is released.
    pub fn revive(&self, text: &str) -> Result<T, SerializeError> {
        self.revive_as(text).map(|(object, ..)| object)
    }

    /// [`revive`](Self::revive), with the object's class and the
    /// constructor that built it (`None` for a stock class).
    fn revive_as(&self, text: &str) -> Result<(T, String, Option<Constructor<T>>), SerializeError> {
        let (name, fields) = read_object(text)?;
        let registered = self.read().registered.get(&name).cloned();
        let object = match (&registered, self.stock.iter().find(|(s, _)| *s == name)) {
            (Some(constructor), _) => constructor(&fields)?,
            (None, Some((_, stock))) => stock(&fields)?,
            (None, None) => return Err(SerializeError::UnknownClass(name)),
        };
        Ok((object, name, registered))
    }
}

impl ClassRegistry<PolicyRef> {
    /// The label of the policy `text` was decoded to, if the read index
    /// holds it: one read lock, one hash of the text, no allocation.
    fn indexed(&self, text: &str) -> Option<Label> {
        let classes = self.read();
        let Some(&(ref _class, label)) = classes.decoded.get(text) else {
            metrics::inc(Counter::WireMisses);
            return None;
        };
        metrics::inc(Counter::WireHits);
        #[cfg(test)]
        let now = (_class.clone(), classes.registered.get(_class).cloned());
        drop(classes);
        #[cfg(test)]
        tests::index_oracle(self, text, now, label);
        Some(label)
    }

    /// Decodes `text` and interns the policy it names, then records the
    /// text — the decode having succeeded — unless a registration
    /// replaced the constructor that ran.
    fn decode(&self, text: &str) -> Result<Label, SerializeError> {
        metrics::inc(Counter::PolicyDecodes);
        let (policy, class, ran) = self.revive_as(text)?;
        let label = Label::of(&policy);
        let mut classes = crate::sync::wlock(&self.classes);
        if classes.current(&class, ran.as_ref()) {
            classes.decoded.insert(text.into(), (class, label));
        }
        Ok(label)
    }
}

/// The policy classes persisted policies revive through.
static POLICY_CLASSES: ClassRegistry<PolicyRef> = ClassRegistry::new(STOCK_POLICIES);

/// Registers a policy class for deserialization.
///
/// Applications call this once (e.g. at startup) for each custom policy
/// class they persist; the stock policies are pre-registered. Registering
/// (or replacing) a class drops that class's texts from the read index:
/// each is decoded again, by the deserializer registered now. Texts of
/// other classes stay, so a site that loads a policy script per request
/// keeps its other policies warm. (A deserializer that decodes *other*
/// classes' texts for nested policies is not tracked: register it again
/// when they change.)
pub fn register_policy_class(
    name: impl Into<String>,
    deserializer: impl Fn(&FieldMap) -> Result<PolicyRef, SerializeError> + Send + Sync + 'static,
) {
    POLICY_CLASSES.register(name.into(), Arc::new(deserializer));
}

/// The field `key` of a `class` object's `fields`, or the error naming
/// what is missing: for constructors.
pub fn field(fields: &FieldMap, class: &str, key: &str) -> Result<String, SerializeError> {
    fields
        .get(key)
        .cloned()
        .ok_or_else(|| SerializeError::MissingField {
            class: class.to_string(),
            field: key.to_string(),
        })
}

/// The `acl` field of a `class` object's `fields`, decoded.
pub fn acl_field(fields: &FieldMap, class: &str) -> Result<Acl, SerializeError> {
    let enc = field(fields, class, "acl")?;
    Acl::decode(&enc).ok_or_else(|| SerializeError::BadField {
        class: class.to_string(),
        field: "acl".into(),
        reason: format!("unparsable ACL `{enc}`"),
    })
}

/// The stock policy classes.
const STOCK_POLICIES: &[Stock<PolicyRef>] = &[
    ("PasswordPolicy", |f| {
        let email = field(f, "PasswordPolicy", "email")?;
        let chair = f.get("allow_chair").map(|v| v == "true").unwrap_or(true);
        let p = if chair {
            PasswordPolicy::new(email)
        } else {
            PasswordPolicy::strict(email)
        };
        Ok(Arc::new(p))
    }),
    ("UntrustedData", |f| {
        let p = match f.get("source") {
            Some(s) => UntrustedData::from_source(s.clone()),
            None => UntrustedData::new(),
        };
        Ok(Arc::new(p))
    }),
    ("SqlSanitized", |_| Ok(Arc::new(SqlSanitized::new()))),
    ("HtmlSanitized", |_| Ok(Arc::new(HtmlSanitized::new()))),
    ("CodeApproval", |_| Ok(Arc::new(CodeApproval::new()))),
    ("AuthenticData", |_| Ok(Arc::new(AuthenticData::new()))),
    ("EmptyPolicy", |_| Ok(Arc::new(EmptyPolicy::new()))),
    ("PagePolicy", |f| {
        Ok(Arc::new(PagePolicy::new(acl_field(f, "PagePolicy")?)))
    }),
];

// ---- escaping ----

/// Appends `s` to `out` with every byte of `meta` written `%XX` (upper
/// case hex): the one `%XX` escaper of every wire text — objects, policy
/// texts, `Acl` and `PValue`. Every metacharacter is ASCII, so the
/// stretches between them are copied as they are, whatever they hold.
pub fn escape_into(out: &mut String, s: &str, meta: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if meta.contains(&b) {
            out.push_str(&s[copied..i]);
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 15)] as char);
            copied = i + 1;
        }
    }
    out.push_str(&s[copied..]);
}

/// `s` with every `%XX` read back as the byte it names: [`escape_into`]'s
/// inverse. It reads any hex case and any escaped byte, so a decoder that
/// must be canonical checks that its value escapes back to its text.
pub fn unescape(s: &str) -> Result<String, SerializeError> {
    if !s.contains('%') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| SerializeError::Malformed("truncated escape".into()))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| SerializeError::Malformed(format!("bad escape `%{hex}`")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| SerializeError::Malformed("invalid UTF-8".into()))
}

// ---- objects: `Name{key=value;…}` ----

/// Writes one object, `name{key=value;…}`: the one writer of the grammar,
/// for policies and for the vfs's persistent filters. `%`, the braces,
/// `;` and `=` are escaped in the name, keys and values: what the grammar
/// and the list scanner need. [`read_object`] reads it back.
pub fn write_object(name: &str, fields: &[(String, String)]) -> String {
    const META: &[u8] = b"%{};=";
    let mut out = String::with_capacity(name.len() + 16);
    escape_into(&mut out, name, META);
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        escape_into(&mut out, k, META);
        out.push('=');
        escape_into(&mut out, v, META);
    }
    out.push('}');
    out
}

/// Reads one object text — a policy's or one [`write_object`] wrote —
/// into its class name and fields, unescaped. The only parser of the
/// `Name{key=value;…}` grammar.
pub fn read_object(text: &str) -> Result<(String, FieldMap), SerializeError> {
    let open = text
        .find('{')
        .ok_or_else(|| SerializeError::Malformed(format!("no `{{` in `{text}`")))?;
    if !text.ends_with('}') {
        return Err(SerializeError::Malformed(format!(
            "no trailing `}}` in `{text}`"
        )));
    }
    let name = unescape(&text[..open])?;
    let body = &text[open + 1..text.len() - 1];
    let mut fields = FieldMap::new();
    if !body.is_empty() {
        for pair in body.split(';') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| SerializeError::Malformed(format!("bad field `{pair}`")))?;
            fields.insert(unescape(k)?, unescape(v)?);
        }
    }
    Ok((name, fields))
}

// ---- policy / set serialization ----

/// Serializes one policy: class name plus data fields.
pub fn serialize_policy(policy: &PolicyRef) -> String {
    // A policy text escapes the list separators too, as every stored one
    // does (a stored text is matched by its bytes). In an object they can
    // only stand in a name or value, so one more pass escapes just those.
    let object = write_object(policy.name(), &policy.serialize_fields());
    let mut out = String::with_capacity(object.len() + 8);
    escape_into(&mut out, &object, b",|#");
    out
}

/// Deserializes one policy via the class registry.
///
/// A text the read index holds yields the canonical interned object it
/// decoded to; any other is decoded (and, having no label to join,
/// neither interned nor indexed).
pub fn deserialize_policy(s: &str) -> Result<PolicyRef, SerializeError> {
    match POLICY_CLASSES.indexed(s) {
        Some(label) => Ok(label.policies()[0].clone()),
        None => {
            metrics::inc(Counter::PolicyDecodes);
            POLICY_CLASSES.revive(s)
        }
    }
}

/// Serializes an interned label (comma-joined policies). The empty label
/// serializes to the empty string.
pub fn serialize_label(label: Label) -> String {
    if label.is_empty() {
        return String::new();
    }
    let table = LabelTable::global();
    write_texts(label.ids().iter().map(|&id| table.wire_text(id)))
}

/// Deserializes a label, interning each revived policy.
///
/// The round-trip is canonical: structurally equal policies intern to the
/// same [`PolicyId`], so
/// `deserialize_label(&serialize_label(l)) == l` for any `l`.
pub fn deserialize_label(s: &str) -> Result<Label, SerializeError> {
    if s.is_empty() {
        return Ok(Label::EMPTY);
    }
    let mut ids = Vec::new();
    for part in read_texts(s) {
        let label = match POLICY_CLASSES.indexed(part) {
            Some(label) => label,
            None => POLICY_CLASSES.decode(part)?,
        };
        ids.push(label.ids()[0]);
    }
    Ok(LabelTable::global().intern_ids(ids))
}

/// Version of the textual policy wire format.
///
/// Version 1 was a per-span inline-set encoding (`start..end|set;...`);
/// version 2 is the interned `#table#spans` encoding that persists the
/// deduplicated policy table once. Only version 2 is written or parsed:
/// no store has held a version-1 blob since version 2 came in, and one
/// now reads as malformed. Durable storage (`resin_store`) embeds this
/// number in its snapshot header so a future format change is detected
/// at open time instead of surfacing as garbled policies.
pub const WIRE_VERSION: u32 = 2;

// ---- lists and spans blobs ----

/// The one scanner of the wire format's lists: walks `src` and hands out
/// each stretch between separators at brace depth zero, with the separator
/// that ended it. Over bytes (every separator and brace is ASCII, and
/// escaped inside names and values), for several separators at once, and
/// with no vector of parts.
struct TopLevel<'a, const N: usize> {
    src: &'a str,
    /// Where the next part starts; past the end once the last is out.
    pos: usize,
    seps: [u8; N],
}

impl<'a, const N: usize> TopLevel<'a, N> {
    fn new(src: &'a str, seps: [u8; N]) -> Self {
        TopLevel { src, pos: 0, seps }
    }

    /// The next part and the separator after it (`None` for the last).
    fn next_part(&mut self) -> Option<(&'a str, Option<u8>)> {
        let tail = self.src.get(self.pos..)?;
        let mut depth = 0usize;
        for (i, b) in tail.bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                _ if depth == 0 && self.seps.contains(&b) => {
                    self.pos += i + 1;
                    return Some((&tail[..i], Some(b)));
                }
                _ => {}
            }
        }
        self.pos = self.src.len() + 1;
        Some((tail, None))
    }

    /// What no part has covered yet.
    fn rest(&self) -> &'a str {
        self.src.get(self.pos..).unwrap_or("")
    }
}

/// True if `text` comes back whole from any list or spans table it is
/// written into: not empty, with no `,` or `#` at brace depth zero, and
/// its braces closed by its end, so [`read_texts`] and [`read_spans`]
/// split it out as it went in (the list scanner's rule, once per text).
pub fn is_whole_text(text: &str) -> bool {
    let mut depth = 0usize;
    for b in text.bytes() {
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b',' | b'#' if depth == 0 => return false,
            _ => {}
        }
    }
    depth == 0 && !text.is_empty()
}

/// The policy texts of a comma-joined list: a label blob, or the table of
/// a spans blob. The empty list holds none.
pub fn read_texts(list: &str) -> impl Iterator<Item = &str> {
    let mut parts = TopLevel::new(list, *b",");
    std::iter::from_fn(move || match list {
        "" => None,
        _ => parts.next_part().map(|(part, _)| part),
    })
}

/// Appends `texts` to `out` as a comma-joined list.
fn push_texts<T: AsRef<str>>(out: &mut String, texts: impl IntoIterator<Item = T>) {
    for (i, text) in texts.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(text.as_ref());
    }
}

/// Writes policy texts as a comma-joined list, [`read_texts`]'s inverse.
pub fn write_texts<T: AsRef<str>>(texts: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    push_texts(&mut out, texts);
    out
}

/// True if `blob` is a spans blob rather than a label list (a policy text
/// escapes `#`).
pub fn is_spans_blob(blob: &str) -> bool {
    blob.starts_with('#')
}

/// The one reader of `#table#spans` blobs. `text` is handed each policy
/// text of the table as the one scan over it meets them, so before the
/// blob is known to be well formed: what must not happen for a malformed
/// blob (a decode) waits until this returns the spans, each a byte range
/// and the table indexes it names. A blob that is not a `#`, the table, a
/// `#` and the spans is malformed, and so is, when its turn comes, a span
/// that is not `start..end|` and one index or more, or whose range is
/// reversed: read as "no bytes" it would turn a corrupt blob into
/// untainted text.
#[allow(clippy::type_complexity)]
pub fn read_spans<'a>(
    blob: &'a str,
    text: &mut dyn FnMut(&'a str),
) -> Result<
    impl Iterator<Item = Result<(Range<u64>, impl Iterator<Item = usize> + 'a), SerializeError>>,
    SerializeError,
> {
    let not_two_parts =
        || SerializeError::Malformed(format!("expected `#table#spans`, got `{blob}`"));
    let mut parts = TopLevel::new(blob.strip_prefix('#').ok_or_else(not_two_parts)?, *b",#");
    let mut first = true;
    loop {
        let Some((part, Some(sep))) = parts.next_part() else {
            return Err(not_two_parts());
        };
        // `##…` is the empty table, not a table of one empty text.
        if !(first && sep == b'#' && part.is_empty()) {
            text(part);
        }
        if sep == b'#' {
            break;
        }
        first = false;
    }
    let spans = parts.rest();
    if let Some((_, Some(_))) = TopLevel::new(spans, *b"#").next_part() {
        return Err(not_two_parts());
    }
    Ok(spans
        .split(';')
        .filter(move |_| !spans.is_empty())
        .map(read_span))
}

/// One span of a spans blob: its range and the table indexes it names,
/// each a decimal as the writer writes it.
fn read_span(span: &str) -> Result<(Range<u64>, impl Iterator<Item = usize> + '_), SerializeError> {
    let malformed = || SerializeError::Malformed(format!("bad span `{span}`"));
    let (range, indexes) = span.split_once('|').ok_or_else(malformed)?;
    // Two one-byte splits: a `".."` pattern is a substring search.
    let (a, b) = range.split_once('.').ok_or_else(malformed)?;
    let b = b.strip_prefix('.').ok_or_else(malformed)?;
    let (Some(start), Some(end)) = (decimal::<u64>(a), decimal::<u64>(b)) else {
        return Err(malformed());
    };
    let mut indexes = indexes.split(',');
    if start > end || indexes.clone().any(|i| decimal::<usize>(i).is_none()) {
        return Err(malformed());
    }
    Ok((
        start..end,
        std::iter::from_fn(move || decimal(indexes.next()?)),
    ))
}

/// `s` read as a number if it is one as `{}` writes it: digits only, and
/// no leading zero but in `0` itself.
fn decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
    match s.as_bytes() {
        [b'0'] => s.parse().ok(),
        [b'1'..=b'9', rest @ ..] if rest.iter().all(u8::is_ascii_digit) => s.parse().ok(),
        _ => None,
    }
}

/// The one writer of `#table#spans` blobs. Spans go in as they are met,
/// each as its byte range and the table indexes of its policies;
/// [`finish`](Self::finish) puts the table's policy texts before them.
#[derive(Debug, Default)]
pub struct SpansWriter {
    spans: String,
}

impl SpansWriter {
    /// Appends one span: `range`, naming the table's policies at `indexes`.
    pub fn span(&mut self, range: Range<u64>, indexes: impl IntoIterator<Item = usize>) {
        if !self.spans.is_empty() {
            self.spans.push(';');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(self.spans, "{}..{}|", range.start, range.end);
        for (i, idx) in indexes.into_iter().enumerate() {
            let _ = write!(self.spans, "{}{idx}", if i > 0 { "," } else { "" });
        }
    }

    /// The blob: `texts`, the policy table the spans index, then the spans.
    pub fn finish<T: AsRef<str>>(self, texts: &[T]) -> String {
        let bodies: usize = texts.iter().map(|t| t.as_ref().len() + 1).sum();
        let mut out = String::with_capacity(bodies + self.spans.len() + 2);
        out.push('#');
        push_texts(&mut out, texts);
        out.push('#');
        out.push_str(&self.spans);
        out
    }
}

/// The policy table of one spans blob as it is written: each distinct
/// wire text once, in order of first use.
#[derive(Default)]
struct WireTable {
    texts: Vec<&'static str>,
    /// Table index of each policy id met so far. A string carries a
    /// handful of distinct policies, so both lookups are short walks.
    by_id: Vec<(PolicyId, usize)>,
}

impl WireTable {
    /// The table index of one member of a label, entering its text on
    /// first sight. Two ids can share a text (script policies of two
    /// class declarations): they share the entry, as they always did.
    fn index_of(&mut self, id: PolicyId) -> usize {
        if let Some(&(_, i)) = self.by_id.iter().find(|(seen, _)| *seen == id) {
            return i;
        }
        let text = LabelTable::global().wire_text(id);
        let i = match self.texts.iter().position(|&t| t == text) {
            Some(i) => i,
            None => {
                self.texts.push(text);
                self.texts.len() - 1
            }
        };
        self.by_id.push((id, i));
        i
    }
}

/// Serializes the byte-range policy spans of a tainted string.
///
/// This is what the file filter stores in an extended attribute: policies
/// are tracked for file data at byte granularity, as for strings (§3.4.1).
///
/// The output is the interned format: `#table#spans`, where the table
/// lists each distinct policy once and spans reference table indexes —
/// mirroring the in-memory [`Label`] interning, so heavily-spanned data
/// pays for each distinct policy body once.
pub fn serialize_spans(data: &TaintedString) -> String {
    if data.is_untainted() {
        return String::new();
    }
    let mut table = WireTable::default();
    let mut out = SpansWriter::default();
    for (r, label) in data.spans() {
        out.span(
            r.start as u64..r.end as u64,
            label.ids().iter().map(|&id| table.index_of(id)),
        );
    }
    out.finish(&table.texts)
}

/// `range` as byte bounds of `text`, if it is a span the writer could
/// have written over it after a span that ended at `after`: not empty,
/// within the text, past the span before it, and on character
/// boundaries. Clipped to the text instead, a span past its end would
/// drop its policy.
fn span_bounds(text: &str, range: &Range<u64>, after: u64) -> Result<Range<usize>, SerializeError> {
    let why = if range.start >= range.end {
        "is empty"
    } else if range.start < after {
        "starts before the span before it ends"
    } else if range.end > text.len() as u64 {
        "runs past the text"
    } else if !(text.is_char_boundary(range.start as usize)
        && text.is_char_boundary(range.end as usize))
    {
        "splits a character"
    } else {
        return Ok(range.start as usize..range.end as usize);
    };
    Err(SerializeError::Malformed(format!("span `{range:?}` {why}")))
}

/// Re-attaches serialized spans to `text`, producing a tainted string.
///
/// Accepts the interned `#table#spans` format as the writer writes it. A
/// blob that is not exactly that is an error, never a less tainted
/// string: that includes a blob without the leading `#`, a span whose
/// range is reversed, empty or past the end of `text`, spans out of order
/// or overlapping, a span that names no policy, a span that starts or
/// ends inside a UTF-8 character of `text`, and a table entry that no
/// span names. The writer numbers the table in order of first use, so
/// an index a span names first is the next table entry, never a later
/// one.
pub fn deserialize_spans(text: &str, spans: &str) -> Result<TaintedString, SerializeError> {
    let mut out = TaintedString::from(text);
    if spans.is_empty() {
        return Ok(out);
    }
    // The table's texts resolve through the read index as they go by; a
    // miss is decoded once the blob is known to have its two parts.
    let mut labels: Vec<Label> = Vec::new();
    let mut misses: Vec<(usize, &str)> = Vec::new();
    let spans = read_spans(spans, &mut |part| {
        labels.push(POLICY_CLASSES.indexed(part).unwrap_or_else(|| {
            misses.push((labels.len(), part));
            Label::EMPTY
        }))
    })?;
    for (i, part) in misses {
        labels[i] = POLICY_CLASSES.decode(part)?;
    }
    // Table entries named so far, and where the last span ended.
    let (mut named, mut after) = (0, 0);
    for span in spans {
        let (range, indexes) = span?;
        let bounds = span_bounds(text, &range, after)?;
        after = range.end;
        let mut label = Label::EMPTY;
        for i in indexes {
            let l = labels.get(i).filter(|_| i <= named).ok_or_else(|| {
                SerializeError::Malformed(format!("index `{i}` is not table entry 0..={named}"))
            })?;
            named = named.max(i + 1);
            label = label.union(*l);
        }
        out.add_label_range(bounds, label);
    }
    if named < labels.len() {
        return Err(SerializeError::Malformed(format!(
            "table entry `{named}` is named by no span"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Acl, Right};
    use crate::policy::downcast_policy;

    /// The read index's oracle, run after a hit: unless a registration
    /// has replaced `now`, the constructor `class` had at the hit, the
    /// text decodes to the policy the hit returned.
    pub(super) fn index_oracle(
        registry: &ClassRegistry<PolicyRef>,
        text: &str,
        (class, now): (String, Option<Constructor<PolicyRef>>),
        label: Label,
    ) {
        let decoded = registry.revive(text);
        if !registry.read().current(&class, now.as_ref()) {
            return;
        }
        let decoded = decoded.unwrap_or_else(|e| panic!("indexed `{text}` fails to decode: {e:?}"));
        assert!(
            PolicyId::intern(&decoded) == label.ids()[0],
            "the read index resolves `{text}` to a {} it does not decode to",
            decoded.name()
        );
    }

    #[test]
    fn password_policy_roundtrip() {
        let p: PolicyRef = Arc::new(PasswordPolicy::new("u@foo.com"));
        let s = serialize_policy(&p);
        assert_eq!(s, "PasswordPolicy{email=u@foo.com;allow_chair=true}");
        let q = deserialize_policy(&s).unwrap();
        let q = downcast_policy::<PasswordPolicy>(&q).unwrap();
        assert_eq!(q.email(), "u@foo.com");
        assert!(q.allows_chair());
    }

    #[test]
    fn strict_password_roundtrip() {
        let p: PolicyRef = Arc::new(PasswordPolicy::strict("a@b"));
        let q = deserialize_policy(&serialize_policy(&p)).unwrap();
        assert!(!downcast_policy::<PasswordPolicy>(&q)
            .unwrap()
            .allows_chair());
    }

    #[test]
    fn page_policy_roundtrip() {
        let acl = Acl::new().grant("alice", &[Right::Read, Right::Write]);
        let p: PolicyRef = Arc::new(PagePolicy::new(acl.clone()));
        let q = deserialize_policy(&serialize_policy(&p)).unwrap();
        assert_eq!(downcast_policy::<PagePolicy>(&q).unwrap().acl(), &acl);
    }

    #[test]
    fn escaping_metacharacters() {
        let p: PolicyRef = Arc::new(UntrustedData::from_source("a=b;{c}|d,e%f"));
        let s = serialize_policy(&p);
        let q = deserialize_policy(&s).unwrap();
        assert_eq!(
            downcast_policy::<UntrustedData>(&q).unwrap().source(),
            Some("a=b;{c}|d,e%f")
        );
    }

    #[test]
    fn label_roundtrip_is_canonical() {
        let label = Label::from_policies([
            &(Arc::new(UntrustedData::new()) as PolicyRef),
            &(Arc::new(SqlSanitized::new()) as PolicyRef),
        ]);
        let s = serialize_label(label);
        let back = deserialize_label(&s).unwrap();
        assert_eq!(back, label, "round-trip returns the same handle");
        assert_eq!(serialize_label(Label::EMPTY), "");
        assert_eq!(deserialize_label("").unwrap(), Label::EMPTY);
    }

    #[test]
    fn spans_roundtrip() {
        let mut data = TaintedString::from("hello world");
        data.add_policy_range(0..5, Arc::new(UntrustedData::new()));
        data.add_policy_range(6..11, Arc::new(HtmlSanitized::new()));
        let spans = serialize_spans(&data);
        let back = deserialize_spans("hello world", &spans).unwrap();
        assert!(back.taint_eq(&data));
    }

    #[test]
    fn spans_format_dedups_policy_table() {
        // Two disjoint spans with the same policy: the table stores the
        // policy body once; both spans reference index 0.
        let mut data = TaintedString::from("abcdefgh");
        data.add_policy_range(0..2, Arc::new(UntrustedData::new()));
        data.add_policy_range(4..6, Arc::new(UntrustedData::new()));
        let spans = serialize_spans(&data);
        assert_eq!(spans, "#UntrustedData{}#0..2|0;4..6|0");
        assert_eq!(
            spans.matches("UntrustedData").count(),
            1,
            "policy body persisted once"
        );
        assert!(deserialize_spans("abcdefgh", &spans)
            .unwrap()
            .taint_eq(&data));
        assert_eq!(serialize_spans(&TaintedString::from("plain")), "");
    }

    #[test]
    fn inline_set_span_format_is_rejected() {
        // The per-span inline-set form that version 1 wrote: well-formed
        // in its day, malformed now, and never untainted text.
        let inline = "0..5|UntrustedData{};6..11|HtmlSanitized{}";
        for got in [
            deserialize_spans("hello world", inline),
            oracle::deserialize_spans("hello world", inline),
        ] {
            assert!(matches!(got, Err(SerializeError::Malformed(_))), "{got:?}");
        }
    }

    #[test]
    fn interned_spans_malformed_inputs_are_errors() {
        assert!(deserialize_spans("x", "#only-one-part").is_err());
        assert!(deserialize_spans("x", "#a#b#c").is_err());
        assert!(deserialize_spans("x", "#UntrustedData{}#0..1|7").is_err());
        assert!(deserialize_spans("x", "#UntrustedData{}#0..1|z").is_err());
        assert!(deserialize_spans("x", "#Mystery{}#0..1|0").is_err());
        assert!(deserialize_spans("x", "#UntrustedData{}#junk").is_err());
    }

    #[test]
    fn a_corrupt_blob_is_an_error_never_untainted_text() {
        // Each of these used to come back `Ok` and untainted: the reversed
        // range was an edit of no bytes, the empty index list a union of
        // nothing. The oracle takes the same view.
        for blob in [
            "#UntrustedData{}#7..2|0",
            "#UntrustedData{}#0..5|",
            "#UntrustedData{}#0..5|,",
            "#UntrustedData{}#0..5|3",
            "##0..5|",
            "7..2|UntrustedData{}",
            "0..5|",
        ] {
            for got in [
                deserialize_spans("hello world", blob),
                oracle::deserialize_spans("hello world", blob),
            ] {
                assert!(
                    matches!(got, Err(SerializeError::Malformed(_))),
                    "{blob}: {got:?}"
                );
            }
        }
        // An empty span, and spans that run past the text: the writer
        // writes none of them. These used to read back, the empty one as
        // no bytes and the rest clipped, so a span wholly past the end
        // dropped its policy.
        for blob in [
            "#UntrustedData{}#2..2|0;3..99|0",
            "#UntrustedData{}#2..2|0",
            "#UntrustedData{}#3..99|0",
            "#UntrustedData{}#5..9|0",
            "#UntrustedData{}#0..6|0",
        ] {
            for got in [
                deserialize_spans("hello", blob),
                oracle::deserialize_spans("hello", blob),
            ] {
                assert!(
                    matches!(got, Err(SerializeError::Malformed(_))),
                    "{blob}: {got:?}"
                );
            }
        }
        let t = deserialize_spans("hello", "#UntrustedData{}#3..5|0").unwrap();
        assert_eq!(t.spans().collect::<Vec<_>>().len(), 1);
        assert!(t.label_at(4).has::<UntrustedData>() && t.label_at(2).is_empty());
    }

    #[test]
    fn a_blob_reads_back_only_as_the_writer_writes_it() {
        // A table entry no span names was dropped on read; spans out of
        // order or overlapping, and an index that skips the next unnamed
        // entry, the writer never writes.
        for blob in [
            "#PasswordPolicy{email=u@x}#",
            "#PasswordPolicy{email=u@x},UntrustedData{}#0..2|1",
            "#PasswordPolicy{email=u@x},UntrustedData{}#0..2|0",
            "#PasswordPolicy{email=u@x},UntrustedData{}#0..1|1;1..2|0",
            "#UntrustedData{}#3..5|0;0..2|0",
            "#UntrustedData{}#0..3|0;2..5|0",
            "#UntrustedData{}#0..2|0;0..2|0",
        ] {
            for got in [
                deserialize_spans("hello", blob),
                oracle::deserialize_spans("hello", blob),
            ] {
                assert!(
                    matches!(got, Err(SerializeError::Malformed(_))),
                    "{blob}: {got:?}"
                );
            }
        }
        // What the writer does write: an index again inside one span (two
        // ids that share a text), an earlier index in a later span, and
        // spans that touch.
        for blob in [
            "#UntrustedData{}#0..2|0,0",
            "#PasswordPolicy{email=u@x},UntrustedData{}#0..2|0;2..3|1,0;4..5|0",
            "##",
        ] {
            let fast = deserialize_spans("hello", blob).unwrap();
            let slow = oracle::deserialize_spans("hello", blob).unwrap();
            assert!(same_spans(&fast, &slow), "{blob}");
        }
    }

    #[test]
    fn a_spans_blob_number_has_one_spelling() {
        // A sign, a leading zero or an empty index reads as the number the
        // writer writes another way: the blob is not the writer's.
        for bad in [
            "00..5|0", "0..05|0", "+0..5|0", "0..5|00", "0..5|+0", "0..5|0,", "0..5|,0",
        ] {
            let blob = format!("#UntrustedData{{}}#{bad}");
            for got in [
                deserialize_spans("hello", &blob),
                oracle::deserialize_spans("hello", &blob),
            ] {
                assert!(
                    matches!(got, Err(SerializeError::Malformed(_))),
                    "{blob}: {got:?}"
                );
            }
        }
        // The writer's own: `0`, and an index again inside one span.
        let t = deserialize_spans("hello", "#UntrustedData{}#0..5|0,0").unwrap();
        assert!(t.label_at(0).has::<UntrustedData>());
    }

    #[test]
    fn a_whole_text_comes_back_whole_from_any_table() {
        let texts = ["A{}", "A{b=,#}", "}A", "", "A,B{}", "A#", "A{", "A{}}{"];
        for text in texts {
            // Alone, and after and before another text.
            let whole = [vec![text], vec!["B{}", text], vec![text, "B{}"]]
                .iter()
                .all(|table| {
                    let mut back = Vec::new();
                    let blob = format!("#{}#0..1|0", write_texts(table));
                    read_spans(&blob, &mut |t| back.push(t)).is_ok() && back == *table
                });
            assert_eq!(is_whole_text(text), whole, "{text:?}");
        }
    }

    #[test]
    fn a_span_that_splits_a_character_is_an_error() {
        // `é` is two bytes: a span from or to the middle of it would panic
        // the first `slice` that cut there.
        for blob in [
            "#UntrustedData{}#1..2|0",
            "#UntrustedData{}#0..1|0",
            "#UntrustedData{}#1..1|0",
            "#UntrustedData{}#0..9|0",
        ] {
            let got = deserialize_spans("é", blob);
            assert!(
                matches!(got, Err(SerializeError::Malformed(_))),
                "{blob}: {got:?}"
            );
        }
        // A span over the whole character reads back.
        let t = deserialize_spans("é", "#UntrustedData{}#0..2|0").unwrap();
        assert!(t.label_at(1).has::<UntrustedData>());
    }

    #[test]
    fn a_range_that_splits_a_character_is_widened_and_stored_blobs_read_back() {
        // No such span is ever written: the range grows to the characters
        // it touches, so it taints more, never less.
        let mut data = TaintedString::from("aéb");
        data.add_policy_range(2..3, Arc::new(UntrustedData::new()));
        assert_eq!(data.ranges_with::<UntrustedData>(), vec![1..3]);
        data.add_policy_range(0..2, Arc::new(HtmlSanitized::new()));
        assert!((0..3).all(|i| data.label_at(i).has::<HtmlSanitized>()));
        let blob = serialize_spans(&data);
        assert!(deserialize_spans("aéb", &blob).unwrap().taint_eq(&data));
    }

    #[test]
    fn an_object_escapes_what_its_grammar_needs_and_reads_back() {
        let fields = [("acl", "owner:rw,x;acl=mallory:w"), ("k{=}", "100%|#")]
            .map(|(k, v)| (k.to_string(), v.to_string()));
        let text = write_object("Filter", &fields);
        assert_eq!(
            text,
            "Filter{acl=owner:rw,x%3Bacl%3Dmallory:w;k%7B%3D%7D=100%25|#}"
        );
        let (name, back) = read_object(&text).unwrap();
        assert_eq!(name, "Filter");
        assert_eq!(back, fields.into_iter().collect());
        // A policy text is an object too, with the separators escaped.
        let p: PolicyRef = Arc::new(UntrustedData::from_source("a,b"));
        let (name, back) = read_object(&serialize_policy(&p)).unwrap();
        assert_eq!(
            (name.as_str(), back["source"].as_str()),
            ("UntrustedData", "a,b")
        );
        assert_eq!(
            write_object("Plain", &[("acl".into(), "*:r,alice:w".into())]),
            "Plain{acl=*:r,alice:w}"
        );
        for bad in ["NoBraces", "X{", "X{k}", "X{k=%G0}"] {
            assert!(read_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_class_is_error() {
        let err = deserialize_policy("Mystery{}").unwrap_err();
        assert!(matches!(err, SerializeError::UnknownClass(_)));
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(deserialize_policy("NoBraces").is_err());
        assert!(deserialize_policy("X{").is_err());
        assert!(deserialize_policy("PasswordPolicy{email}").is_err());
        assert!(deserialize_spans("x", "bad").is_err());
        assert!(deserialize_spans("x", "0..1").is_err());
        assert!(deserialize_spans("x", "a..1|").is_err());
    }

    #[test]
    fn missing_field_is_error() {
        let err = deserialize_policy("PasswordPolicy{}").unwrap_err();
        assert!(matches!(err, SerializeError::MissingField { .. }));
    }

    #[test]
    fn custom_class_registration() {
        #[derive(Debug)]
        struct Custom(String);
        impl crate::policy::Policy for Custom {
            fn name(&self) -> &str {
                "CustomTestPolicy"
            }
            fn serialize_fields(&self) -> Vec<(String, String)> {
                vec![("v".into(), self.0.clone())]
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        register_policy_class("CustomTestPolicy", |f| {
            Ok(Arc::new(Custom(f.get("v").cloned().unwrap_or_default())) as PolicyRef)
        });
        let p: PolicyRef = Arc::new(Custom("hi".into()));
        let q = deserialize_policy(&serialize_policy(&p)).unwrap();
        assert_eq!(downcast_policy::<Custom>(&q).unwrap().0, "hi");
    }

    #[test]
    fn code_evolution_reuses_fields() {
        // §3.4.1: persisted policies survive code changes — only class name
        // and fields are stored, so re-registering a class with different
        // behaviour reinterprets old persisted data. Use a dedicated class
        // name so the stock registry is untouched (tests run concurrently).
        #[derive(Debug)]
        struct Evolving(bool);
        impl crate::policy::Policy for Evolving {
            fn name(&self) -> &str {
                "EvolvingPolicy"
            }
            fn serialize_fields(&self) -> Vec<(String, String)> {
                vec![("marker".into(), "1".into())]
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        register_policy_class("EvolvingPolicy", |_| {
            Ok(Arc::new(Evolving(false)) as PolicyRef)
        });
        let s = serialize_policy(&(Arc::new(Evolving(false)) as PolicyRef));
        // "Evolve" the class: same persisted bytes, new behaviour.
        register_policy_class("EvolvingPolicy", |_| {
            Ok(Arc::new(Evolving(true)) as PolicyRef)
        });
        let q = deserialize_policy(&s).unwrap();
        assert!(downcast_policy::<Evolving>(&q).unwrap().0);
    }

    /// A registry of its own beside the global one: its stock classes,
    /// and whatever a test registers.
    type Registry = ClassRegistry<PolicyRef>;

    fn stock_password(fields: &FieldMap) -> Result<PolicyRef, SerializeError> {
        (STOCK_POLICIES[0].1)(fields)
    }

    #[test]
    fn the_read_index_holds_what_a_decode_built() {
        static CLASSES: Registry = ClassRegistry::new(STOCK_POLICIES);
        let keep = Label::of(&(Arc::new(PasswordPolicy::new("wire-keep@x")) as PolicyRef));
        let text = "PasswordPolicy{email=wire-keep@x;allow_chair=true}";
        let spelling = "PasswordPolicy{email=wire-keep@x}";
        // The index knows only what a decode told it, and two spellings
        // of one policy resolve to its one label.
        assert_eq!(CLASSES.indexed(text), None);
        assert_eq!(CLASSES.decode(text).unwrap(), keep);
        assert_eq!(CLASSES.decode(spelling).unwrap(), keep);
        assert_eq!(CLASSES.indexed(text), Some(keep));
        assert_eq!(CLASSES.indexed(spelling), Some(keep));
        // A failed decode records nothing.
        for bad in ["PasswordPolicy{}", "Mystery{}", "PasswordPolicy"] {
            assert!(CLASSES.decode(bad).is_err(), "{bad}");
            assert_eq!(CLASSES.indexed(bad), None, "{bad}");
        }
        assert_eq!(CLASSES.read().decoded.len(), 2);
        // Registering another class keeps these; registering theirs drops
        // both spellings, and the texts decode through it again.
        CLASSES.register("UntrustedData".into(), Arc::new(STOCK_POLICIES[1].1));
        assert_eq!(CLASSES.indexed(spelling), Some(keep));
        CLASSES.register("PasswordPolicy".into(), Arc::new(stock_password));
        assert!(CLASSES.read().decoded.is_empty());
        assert_eq!(CLASSES.decode(text).unwrap(), keep);
        assert_eq!(CLASSES.indexed(text), Some(keep));
    }

    #[test]
    fn a_decode_that_raced_a_registration_is_not_indexed() {
        static CLASSES: Registry = ClassRegistry::new(STOCK_POLICIES);
        let text = "PasswordPolicy{email=wire-race@x;allow_chair=true}";
        let label = CLASSES.decode(text).unwrap();
        // A constructor replaced while it runs, as a registration racing
        // a decode would: the decode still returns what it built, and
        // records nothing.
        CLASSES.register(
            "PasswordPolicy".into(),
            Arc::new(|fields: &FieldMap| {
                CLASSES.register("PasswordPolicy".into(), Arc::new(stock_password));
                stock_password(fields)
            }),
        );
        assert_eq!(CLASSES.indexed(text), None, "the registration dropped it");
        assert_eq!(CLASSES.decode(text).unwrap(), label);
        assert_eq!(
            CLASSES.indexed(text),
            None,
            "decoded by a replaced constructor"
        );
        // A decode by the constructor registered now records.
        assert_eq!(CLASSES.decode(text).unwrap(), label);
        assert_eq!(CLASSES.indexed(text), Some(label));
    }

    #[test]
    fn escape_copies_what_is_not_a_metacharacter() {
        // The `,` sends both strings through the escaping loop, which used
        // to re-encode each byte of `ë` as a character of its own.
        let acl = Acl::new()
            .grant("zoë@conf.org", &[Right::Read])
            .grant("bob@conf.org", &[Right::Read]);
        let p: PolicyRef = Arc::new(PagePolicy::new(acl.clone()));
        let q = deserialize_policy(&serialize_policy(&p)).unwrap();
        assert_eq!(downcast_policy::<PagePolicy>(&q).unwrap().acl(), &acl);
        let p: PolicyRef = Arc::new(PasswordPolicy::new("josé=x@conf.org"));
        let q = deserialize_policy(&serialize_policy(&p)).unwrap();
        assert_eq!(
            downcast_policy::<PasswordPolicy>(&q).unwrap().email(),
            "josé=x@conf.org"
        );
        let p: PolicyRef = Arc::new(UntrustedData::from_source("é,€"));
        assert_eq!(serialize_policy(&p), "UntrustedData{source=é%2C€}");
    }

    /// The codecs as they stood before the interner learnt wire texts:
    /// every policy rendered per span and decoded per blob, through
    /// vectors of parts. Kept as the slow half of a differential (with
    /// the two fail-closed checks, which are about the format, not the
    /// method).
    mod oracle {
        use super::*;
        use std::collections::HashMap;

        fn parse_range(range: &str) -> Result<(usize, usize), SerializeError> {
            let (a, b) = range
                .split_once("..")
                .ok_or_else(|| SerializeError::Malformed(format!("bad range `{range}`")))?;
            let start: usize = canonical(a)?;
            let end: usize = canonical(b)?;
            if start > end {
                return Err(SerializeError::Malformed(format!(
                    "reversed range `{range}`"
                )));
            }
            Ok((start, end))
        }

        /// `s` as a number, if printing the number gives `s` back.
        fn canonical<T: std::str::FromStr + ToString>(s: &str) -> Result<T, SerializeError> {
            s.parse::<T>()
                .ok()
                .filter(|n| n.to_string() == s)
                .ok_or_else(|| SerializeError::Malformed(format!("bad number `{s}`")))
        }

        fn names_no_policy(span: &str) -> SerializeError {
            SerializeError::Malformed(format!("span `{span}` names no policy"))
        }

        /// The splitter the codecs used, one `char` at a time into a
        /// vector; `split_serialized` runs the byte scanner.
        pub(crate) fn split_top_level(s: &str, sep: char) -> Vec<&str> {
            let mut out = Vec::new();
            let mut depth = 0usize;
            let mut start = 0usize;
            for (i, c) in s.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => depth = depth.saturating_sub(1),
                    c if c == sep && depth == 0 => {
                        out.push(&s[start..i]);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            out.push(&s[start..]);
            out
        }

        pub(crate) fn serialize_label(label: Label) -> String {
            if label.is_empty() {
                return String::new();
            }
            label
                .policies()
                .iter()
                .map(serialize_policy)
                .collect::<Vec<_>>()
                .join(",")
        }

        pub(crate) fn deserialize_label(s: &str) -> Result<Label, SerializeError> {
            if s.is_empty() {
                return Ok(Label::EMPTY);
            }
            let mut policies = Vec::new();
            for part in split_top_level(s, ',') {
                policies.push(POLICY_CLASSES.revive(part)?);
            }
            Ok(Label::from_policies(policies.iter()))
        }

        pub(crate) fn serialize_spans(data: &TaintedString) -> String {
            if data.is_untainted() {
                return String::new();
            }
            // Local dedup table: serialized policy body -> index.
            let mut table: Vec<String> = Vec::new();
            let mut index: HashMap<String, usize> = HashMap::new();
            let mut spans: Vec<String> = Vec::new();
            for (r, label) in data.spans() {
                let idxs: Vec<String> = label
                    .policies()
                    .iter()
                    .map(|p| {
                        let body = serialize_policy(p);
                        let i = *index.entry(body.clone()).or_insert_with(|| {
                            table.push(body);
                            table.len() - 1
                        });
                        i.to_string()
                    })
                    .collect();
                spans.push(format!("{}..{}|{}", r.start, r.end, idxs.join(",")));
            }
            format!("#{}#{}", table.join(","), spans.join(";"))
        }

        pub(crate) fn deserialize_spans(
            text: &str,
            spans: &str,
        ) -> Result<TaintedString, SerializeError> {
            let mut out = TaintedString::from(text);
            if spans.is_empty() {
                return Ok(out);
            }
            let malformed =
                || SerializeError::Malformed(format!("expected `#table#spans`, got `{spans}`"));
            let rest = spans.strip_prefix('#').ok_or_else(malformed)?;
            let parts = split_top_level(rest, '#');
            let [table_src, spans_src] = parts.as_slice() else {
                return Err(malformed());
            };
            let mut labels: Vec<Label> = Vec::new();
            if !table_src.is_empty() {
                for part in split_top_level(table_src, ',') {
                    let policy = POLICY_CLASSES.revive(part)?;
                    labels.push(Label::of(&policy));
                }
            }
            let (mut named, mut after) = (0, 0);
            for part in split_top_level(spans_src, ';')
                .into_iter()
                .filter(|_| !spans_src.is_empty())
            {
                let (range, idxs) = part
                    .split_once('|')
                    .ok_or_else(|| SerializeError::Malformed(format!("bad span `{part}`")))?;
                let (start, end) = parse_range(range)?;
                let mut label = Label::EMPTY;
                for idx in idxs.split(',') {
                    let i: usize = canonical(idx)?;
                    let l = labels.get(i).ok_or_else(|| {
                        SerializeError::Malformed(format!("index `{i}` outside the policy table"))
                    })?;
                    if i > named {
                        return Err(SerializeError::Malformed(format!(
                            "index `{i}` skips table entry `{named}`"
                        )));
                    }
                    named = named.max(i + 1);
                    label = label.union(*l);
                }
                if label.is_empty() {
                    return Err(names_no_policy(part));
                }
                if start == end || start < after || end > text.len() {
                    return Err(SerializeError::Malformed(format!(
                        "span `{part}` is empty, overlaps the one before or runs past the text"
                    )));
                }
                after = end;
                // One edit per span, not an append.
                out.spans_mut().edit(start..end, |cur| cur.union(label));
            }
            if named < labels.len() {
                return Err(SerializeError::Malformed(format!(
                    "table entry `{named}` is named by no span"
                )));
            }
            Ok(out)
        }
    }

    /// Splits `s` on `sep` at brace depth zero, through the byte scanner
    /// every reader of lists runs.
    fn split_serialized(s: &str, sep: char) -> Vec<&str> {
        let mut parts = TopLevel::new(s, [sep as u8]);
        std::iter::from_fn(|| parts.next_part().map(|(part, _)| part)).collect()
    }

    /// A policy made from generated strings: hostile names, emails and
    /// principals, metacharacters, `%` and non-ASCII included.
    fn generated_policy(kind: usize, a: &str, b: &str) -> PolicyRef {
        match kind % 5 {
            0 => Arc::new(UntrustedData::new()),
            1 => Arc::new(UntrustedData::from_source(a)),
            2 => Arc::new(PasswordPolicy::new(a)),
            3 => Arc::new(PasswordPolicy::strict(b)),
            _ => Arc::new(PagePolicy::new(
                Acl::new()
                    .grant(a, &[Right::Read])
                    .grant(b, &[Right::Read, Right::Write])
                    .grant("pc@conf.org", &[Right::Read]),
            )),
        }
    }

    fn same_spans(a: &TaintedString, b: &TaintedString) -> bool {
        a.as_str() == b.as_str() && a.spans().eq(b.spans())
    }

    /// What a decode came to, in a form two decoders can be compared by:
    /// the spans, or the error's variant.
    fn outcome(
        r: Result<TaintedString, SerializeError>,
    ) -> Result<Vec<(std::ops::Range<usize>, Label)>, std::mem::Discriminant<SerializeError>> {
        r.map(|t| t.spans().collect())
            .map_err(|e| std::mem::discriminant(&e))
    }

    proptest::proptest! {
        /// Satellite of the read and write indexes: a policy's text is a
        /// canonical name for it. Whatever the strings hold, the text
        /// decodes to an object that interns to the same id.
        #[test]
        fn policy_text_round_trips_to_the_same_id(
            kind in 0usize..5,
            a in "[a-cé€ß%:,=;{}|#@. ]{0,10}",
            b in "[x-zøλ%:,=;{}|#*'\"]{0,10}",
        ) {
            let p = generated_policy(kind, &a, &b);
            let text = serialize_policy(&p);
            let q = deserialize_policy(&text).unwrap();
            proptest::prop_assert_eq!(PolicyId::intern(&q), PolicyId::intern(&p));
            proptest::prop_assert_eq!(serialize_policy(&q), text.clone());
            // Through the label codec the text is indexed, and the second
            // read is a hit: same label both times.
            let label = Label::of(&p);
            proptest::prop_assert_eq!(deserialize_label(&text).unwrap(), label);
            proptest::prop_assert_eq!(deserialize_label(&text).unwrap(), label);
        }

        /// The codecs against the ones they replaced, on strings of up to
        /// eight spans over single and multi-policy labels: same bytes
        /// out, same spans back from the interned blob, and the same
        /// rejection of the same spans in the inline-set form.
        #[test]
        fn codecs_agree_with_the_oracles(
            text in "[a-zé ]{1,48}",
            pieces in proptest::prop::collection::vec(((0usize..48, 0usize..24), (0usize..5, 0usize..5)), 0..8),
            a in "[a-cé%:,=;{}|#@]{0,8}",
            b in "[x-zλ%:,=;{}|#]{0,8}",
        ) {
            let mut data = TaintedString::from(text.as_str());
            // Byte ranges that need not respect characters: one that
            // splits a character is widened to it, tainting every byte it
            // named and leaving no span a stored blob would refuse.
            for ((start, len), (k1, k2)) in pieces {
                let label = Label::of(&generated_policy(k1, &a, &b))
                    .union(Label::of(&generated_policy(k2, &b, &a)));
                data.add_label_range(start..start + len, label);
                for i in start..(start + len).min(text.len()) {
                    proptest::prop_assert_eq!(data.label_at(i).union(label), data.label_at(i));
                }
            }
            for (r, _) in data.spans() {
                proptest::prop_assert!(text.is_char_boundary(r.start) && text.is_char_boundary(r.end));
            }
            let blob = serialize_spans(&data);
            proptest::prop_assert_eq!(&blob, &oracle::serialize_spans(&data));
            let label = data.label();
            proptest::prop_assert_eq!(serialize_label(label), oracle::serialize_label(label));
            proptest::prop_assert_eq!(
                deserialize_label(&serialize_label(label)),
                oracle::deserialize_label(&serialize_label(label))
            );

            let fast = deserialize_spans(&text, &blob).unwrap();
            let slow = oracle::deserialize_spans(&text, &blob).unwrap();
            proptest::prop_assert!(same_spans(&fast, &slow) && same_spans(&fast, &data));
            // Read against a shorter text, a span past it is refused
            // alike; one within it reads back alike.
            let short = &text[..text.char_indices().nth(text.chars().count() / 2).unwrap().0];
            match (deserialize_spans(short, &blob), oracle::deserialize_spans(short, &blob)) {
                (Ok(fast), Ok(slow)) => proptest::prop_assert!(same_spans(&fast, &slow)),
                (fast, slow) => {
                    proptest::prop_assert_eq!(outcome(fast), outcome(slow));
                    proptest::prop_assert!(data.spans().any(|(r, _)| r.end > short.len()));
                }
            }

            let inline = data
                .spans()
                .map(|(r, l)| format!("{}..{}|{}", r.start, r.end, serialize_label(l)))
                .collect::<Vec<_>>()
                .join(";");
            if !inline.is_empty() {
                let fast = outcome(deserialize_spans(&text, &inline));
                proptest::prop_assert_eq!(&fast, &outcome(oracle::deserialize_spans(&text, &inline)));
                proptest::prop_assert_eq!(
                    fast,
                    Err(std::mem::discriminant(&SerializeError::Malformed(String::new())))
                );
            }
        }

        /// Whatever the name, keys and values hold, the object reads back
        /// as written, and any policy text read as an object is the
        /// policy's class and fields.
        #[test]
        fn an_object_round_trips(
            name in "[a-c%{};,=|#é]{0,6}",
            fields in proptest::prop::collection::vec(("[a-c%{};,=|#:]{0,6}", "[x-z%{};,=|#:λ]{0,8}"), 0..4),
            kind in 0usize..5,
        ) {
            let want: FieldMap = fields.iter().cloned().collect();
            let text = write_object(&name, &want.clone().into_iter().collect::<Vec<_>>());
            proptest::prop_assert_eq!(read_object(&text).unwrap(), (name.clone(), want));
            let p = generated_policy(kind, &name, "b;c");
            let want: FieldMap = p.serialize_fields().into_iter().collect();
            proptest::prop_assert_eq!(
                read_object(&serialize_policy(&p)).unwrap(),
                (p.name().to_string(), want)
            );
        }

        /// The byte scanner cuts where the `char` splitter did, on any
        /// nesting, balanced or not, around any text.
        #[test]
        fn one_scanner_splits_as_the_splitter_did(src in "[a-bé€{},;#%|=]{0,24}") {
            for sep in [',', ';', '#'] {
                proptest::prop_assert_eq!(
                    split_serialized(&src, sep),
                    oracle::split_top_level(&src, sep)
                );
            }
        }

        /// On damaged blobs the two decoders fail alike — the same error
        /// variant — or, where the damage still parses, revive the same
        /// spans: one byte of a good blob overwritten, a stretch cut out,
        /// or spans in an order and overlap nothing writes.
        #[test]
        fn damaged_blobs_fail_alike(
            k in (0usize..5, 0usize..5),
            cuts in (0usize..400, 0usize..6),
            damage in "[0-9#{}|;,.=%+Mx]{1}",
            at in 0usize..400,
        ) {
            let text = "0123456789abcdefghij";
            let mut data = TaintedString::from(text);
            data.add_label_range(2..9, Label::of(&generated_policy(k.0, "a,b", "c%")));
            data.add_label_range(5..14, Label::of(&generated_policy(k.1, "d=e", "f#")));
            let blob = serialize_spans(&data);
            let at = at % blob.len();
            let mut damaged = blob.clone().into_bytes();
            damaged[at] = damage.as_bytes()[0];
            let (cut, len) = (cuts.0 % blob.len(), cuts.1);
            let mut cut_out = blob.clone().into_bytes();
            cut_out.drain(cut..(cut + len).min(blob.len()));
            let table = &blob[..blob.rfind('#').unwrap()];
            for bad in [
                String::from_utf8(damaged).unwrap(),
                String::from_utf8(cut_out).unwrap(),
                format!("{table}#9..14|0;2..9|0,0;5..30|0"),
                format!("{table}#+2..+9|+0"),
                format!("{table}#2..9|0#"),
                format!("#Mystery{{}},{}", &blob[1..]),
                "#Mystery{}#0..1|0#".to_string(),
            ] {
                proptest::prop_assert_eq!(
                    outcome(deserialize_spans(text, &bad)),
                    outcome(oracle::deserialize_spans(text, &bad))
                );
            }
        }
    }
}
