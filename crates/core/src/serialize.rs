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
//! # Each policy is decoded once
//!
//! A site stores thousands of cells under a few hundred distinct
//! policies, so the codecs here work in policy *texts*, not policy
//! objects, through the two wire-text indexes the policy interner keeps
//! (see [`crate::label`]):
//!
//! * reading, each policy text of a blob is looked up in the interner's
//!   **read index** first. A hit is one lock and one hash, and yields the
//!   interned id; only a miss parses the fields, runs the class's
//!   deserializer and interns the object — and then, *because the decode
//!   succeeded*, records the text. The index is decode-only on purpose: a
//!   text must resolve to what the registry builds from it today, and
//!   that is not always the policy that once serialised to it (script
//!   policies of two declarations of one class share their text). A
//!   failed decode (unknown class, a class its linter rejects, a bad
//!   field) records nothing and fails again the next time;
//! * writing, a policy's text is rendered the first time it is
//!   serialised and kept in the **write index**; a blob's table is
//!   deduplicated by id and joined from those texts.
//!
//! A label sweep drops the swept policies' entries from both indexes;
//! [`register_policy_class`] drops the class's texts from the read index,
//! so re-registering a class re-decodes every stored text of that class
//! with the new deserializer, and starts a new index *generation*: a
//! decode in flight across a registration records nothing.
//!
//! Lock order: the decoders here take the label table's lock (a hit
//! reads, a miss writes), and a miss runs a registered deserializer
//! (fetched under the class registry's lock, run after it is released),
//! while their caller may hold a storage lock — `resin_sql` revives cells
//! under the SQL table's read lock. So it is storage lock → label table,
//! never the reverse, and a deserializer must not query the store it is
//! being revived from. Nothing in the label table calls out while locked.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

use crate::error::SerializeError;
use crate::label::{Label, LabelTable, PolicyId, WireMiss};
use crate::policies::Acl;
use crate::policies::{
    AuthenticData, CodeApproval, EmptyPolicy, HtmlSanitized, PagePolicy, PasswordPolicy,
    SqlSanitized, UntrustedData,
};
use crate::policy::PolicyRef;
use crate::taint::TaintedString;

/// The fields of a serialized policy.
pub type FieldMap = BTreeMap<String, String>;

/// A function that reconstructs a policy object from its fields.
pub type Deserializer = Arc<dyn Fn(&FieldMap) -> Result<PolicyRef, SerializeError> + Send + Sync>;

fn registry() -> &'static RwLock<HashMap<String, Deserializer>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Deserializer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map: HashMap<String, Deserializer> = HashMap::new();
        install_defaults(&mut map);
        RwLock::new(map)
    })
}

/// Registers a policy class for deserialization.
///
/// Applications call this once (e.g. at startup) for each custom policy
/// class they persist; the stock policies are pre-registered. Registering
/// (or replacing) a class drops that class's texts from the interner's
/// read index: each is decoded again, by the deserializer registered now.
/// Texts of other classes stay, so a site that loads a policy script per
/// request keeps its other policies warm. (A deserializer that decodes
/// *other* classes' texts for nested policies is not tracked: register it
/// again when they change.)
pub fn register_policy_class(
    name: impl Into<String>,
    deserializer: impl Fn(&FieldMap) -> Result<PolicyRef, SerializeError> + Send + Sync + 'static,
) {
    let name = name.into();
    crate::sync::wlock(registry()).insert(name.clone(), Arc::new(deserializer));
    // After the registry changed, never before: a decode that fetched the
    // old deserializer holds a miss of the old generation.
    LabelTable::global().forget_wire_index(|text| wire_class(text).as_deref() == Some(&name));
}

/// True if `name` is a registered policy class.
pub fn is_registered(name: &str) -> bool {
    crate::sync::rlock(registry()).contains_key(name)
}

fn field(fields: &FieldMap, class: &str, key: &str) -> Result<String, SerializeError> {
    fields
        .get(key)
        .cloned()
        .ok_or_else(|| SerializeError::MissingField {
            class: class.to_string(),
            field: key.to_string(),
        })
}

fn install_defaults(map: &mut HashMap<String, Deserializer>) {
    map.insert(
        "PasswordPolicy".into(),
        Arc::new(|f: &FieldMap| {
            let email = field(f, "PasswordPolicy", "email")?;
            let chair = f.get("allow_chair").map(|v| v == "true").unwrap_or(true);
            let p = if chair {
                PasswordPolicy::new(email)
            } else {
                PasswordPolicy::strict(email)
            };
            Ok(Arc::new(p) as PolicyRef)
        }),
    );
    map.insert(
        "UntrustedData".into(),
        Arc::new(|f: &FieldMap| {
            let p = match f.get("source") {
                Some(s) => UntrustedData::from_source(s.clone()),
                None => UntrustedData::new(),
            };
            Ok(Arc::new(p) as PolicyRef)
        }),
    );
    map.insert(
        "SqlSanitized".into(),
        Arc::new(|_f: &FieldMap| Ok(Arc::new(SqlSanitized::new()) as PolicyRef)),
    );
    map.insert(
        "HtmlSanitized".into(),
        Arc::new(|_f: &FieldMap| Ok(Arc::new(HtmlSanitized::new()) as PolicyRef)),
    );
    map.insert(
        "CodeApproval".into(),
        Arc::new(|_f: &FieldMap| Ok(Arc::new(CodeApproval::new()) as PolicyRef)),
    );
    map.insert(
        "AuthenticData".into(),
        Arc::new(|_f: &FieldMap| Ok(Arc::new(AuthenticData::new()) as PolicyRef)),
    );
    map.insert(
        "EmptyPolicy".into(),
        Arc::new(|_f: &FieldMap| Ok(Arc::new(EmptyPolicy::new()) as PolicyRef)),
    );
    map.insert(
        "PagePolicy".into(),
        Arc::new(|f: &FieldMap| {
            let enc = field(f, "PagePolicy", "acl")?;
            let acl = Acl::decode(&enc).ok_or_else(|| SerializeError::BadField {
                class: "PagePolicy".into(),
                field: "acl".into(),
                reason: format!("unparsable ACL `{enc}`"),
            })?;
            Ok(Arc::new(PagePolicy::new(acl)) as PolicyRef)
        }),
    );
}

// ---- escaping ----

const META: &[u8] = b"%{};,=|#";

/// `s` with every metacharacter written `%XX`. Every metacharacter is
/// ASCII, so the stretches between them are copied as they are, whatever
/// they hold.
fn escape(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut out = String::with_capacity(s.len() + 4);
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if META.contains(&b) {
            out.push_str(&s[copied..i]);
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 15)] as char);
            copied = i + 1;
        }
    }
    out.push_str(&s[copied..]);
    out
}

/// `s` with every `%XX` read back as the byte it names ([`escape`]'s
/// inverse, and `Acl::decode`'s for principals).
pub(crate) fn unescape(s: &str) -> Result<String, SerializeError> {
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

// ---- policy / set serialization ----

/// Serializes one policy: class name plus data fields.
pub fn serialize_policy(policy: &PolicyRef) -> String {
    let mut out = escape(policy.name());
    out.push('{');
    for (i, (k, v)) in policy.serialize_fields().iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&escape(k));
        out.push('=');
        out.push_str(&escape(v));
    }
    out.push('}');
    out
}

/// Deserializes one policy via the class registry.
///
/// A text the interner's read index holds yields the canonical interned
/// object it decoded to; any other is decoded (and, having no label to
/// join, neither interned nor indexed).
pub fn deserialize_policy(s: &str) -> Result<PolicyRef, SerializeError> {
    match LabelTable::global().wire_policy(s) {
        Some(policy) => Ok(policy),
        None => decode_policy(s),
    }
}

/// The class a policy text names: what stands before its `{`, unescaped.
fn wire_class(text: &str) -> Option<String> {
    unescape(text.split_once('{')?.0).ok()
}

/// Rebuilds a policy object from its wire text: parses the fields and runs
/// the class's registered deserializer. The slow path behind the read
/// index, and the only one that knows the `Name{key=value;…}` grammar.
fn decode_policy(s: &str) -> Result<PolicyRef, SerializeError> {
    let open = s
        .find('{')
        .ok_or_else(|| SerializeError::Malformed(format!("no `{{` in `{s}`")))?;
    if !s.ends_with('}') {
        return Err(SerializeError::Malformed(format!(
            "no trailing `}}` in `{s}`"
        )));
    }
    let name = unescape(&s[..open])?;
    let body = &s[open + 1..s.len() - 1];
    let mut fields = FieldMap::new();
    if !body.is_empty() {
        for pair in body.split(';') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| SerializeError::Malformed(format!("bad field `{pair}`")))?;
            fields.insert(unescape(k)?, unescape(v)?);
        }
    }
    let deser = crate::sync::rlock(registry())
        .get(&name)
        .cloned()
        .ok_or(SerializeError::UnknownClass(name))?;
    deser(&fields)
}

/// The read-index miss path: decodes `text`, then interns what it built
/// and — the decode having succeeded — records the text under that id,
/// in one step (a label sweep must not come between the two).
fn decode_and_index(text: &str, miss: WireMiss) -> Result<PolicyId, SerializeError> {
    let policy = decode_policy(text)?;
    Ok(LabelTable::global().intern_decoded(text, &policy, miss))
}

/// The wire text of one member of a label: `id`'s, from the interner's
/// write index. A swept label keeps no ids; its tombstone policy is
/// written by name, uncached, and fails the read back closed (no such
/// class).
fn member_text(id: Option<PolicyId>, policy: &PolicyRef) -> Arc<str> {
    match id {
        Some(id) => LabelTable::global().wire_text(id, policy),
        None => serialize_policy(policy).into(),
    }
}

/// Serializes an interned label (comma-joined policies). The empty label
/// serializes to the empty string.
pub fn serialize_label(label: Label) -> String {
    let mut out = String::new();
    if label.is_empty() {
        return out;
    }
    let (ids, policies) = label.members();
    for (i, policy) in policies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&member_text(ids.get(i).copied(), policy));
    }
    out
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
    let table = LabelTable::global();
    let mut ids = Vec::new();
    let mut parts = TopLevel::new(s, *b",");
    while let Some((part, _)) = parts.next_part() {
        ids.push(match table.wire_id(part) {
            Ok(id) => id,
            Err(miss) => decode_and_index(part, miss)?,
        });
    }
    Ok(table.intern_ids(ids))
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

/// Splits `s` on `sep` at brace depth zero — the tokenizer for every
/// comma/semicolon/hash-joined list in the wire format.
///
/// Metacharacters inside policy names and field values are `%XX`-escaped
/// by [`serialize_policy`], so brace depth is reliable: a separator inside
/// `{...}` belongs to a field, not the list. Public so storage layers
/// (e.g. `resin_store`'s snapshot encoder) can re-tokenize persisted
/// blobs without deserializing policy objects.
///
/// # Panics
/// Panics if `sep` is not ASCII: every separator of the format is.
pub fn split_serialized(s: &str, sep: char) -> Vec<&str> {
    assert!(sep.is_ascii(), "wire separators are ASCII, not `{sep}`");
    let mut parts = TopLevel::new(s, [sep as u8]);
    std::iter::from_fn(|| parts.next_part().map(|(part, _)| part)).collect()
}

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

/// The policy table of one spans blob as it is written: each distinct
/// wire text once, in order of first use.
#[derive(Default)]
struct WireTable {
    texts: Vec<Arc<str>>,
    /// Table index of each policy id met so far. A string carries a
    /// handful of distinct policies, so both lookups are short walks.
    by_id: Vec<(PolicyId, usize)>,
}

impl WireTable {
    /// The table index of one member of a label, entering its text on
    /// first sight. Two ids can share a text (script policies of two
    /// class declarations): they share the entry, as they always did.
    fn index_of(&mut self, id: Option<PolicyId>, policy: &PolicyRef) -> usize {
        if let Some(&(_, i)) = self.by_id.iter().find(|(seen, _)| Some(*seen) == id) {
            return i;
        }
        let text = member_text(id, policy);
        let i = match self.texts.iter().position(|t| **t == *text) {
            Some(i) => i,
            None => {
                self.texts.push(text);
                self.texts.len() - 1
            }
        };
        if let Some(id) = id {
            self.by_id.push((id, i));
        }
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
    let mut spans = String::new();
    for (r, label) in data.spans() {
        if !spans.is_empty() {
            spans.push(';');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(spans, "{}..{}|", r.start, r.end);
        let (ids, policies) = label.members();
        for (i, policy) in policies.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let _ = write!(spans, "{}", table.index_of(ids.get(i).copied(), policy));
        }
    }
    let bodies: usize = table.texts.iter().map(|t| t.len() + 1).sum();
    let mut out = String::with_capacity(bodies + spans.len() + 2);
    out.push('#');
    for (i, text) in table.texts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(text);
    }
    out.push('#');
    out.push_str(&spans);
    out
}

fn parse_range(range: &str) -> Result<(usize, usize), SerializeError> {
    let (a, b) = range
        .split_once("..")
        .ok_or_else(|| SerializeError::Malformed(format!("bad range `{range}`")))?;
    let start: usize = a
        .parse()
        .map_err(|_| SerializeError::Malformed(format!("bad start `{a}`")))?;
    let end: usize = b
        .parse()
        .map_err(|_| SerializeError::Malformed(format!("bad end `{b}`")))?;
    // Nothing writes a reversed range; read as "no bytes" it would turn a
    // corrupt blob into untainted text.
    if start > end {
        return Err(SerializeError::Malformed(format!(
            "reversed range `{range}`"
        )));
    }
    Ok((start, end))
}

fn names_no_policy(span: &str) -> SerializeError {
    SerializeError::Malformed(format!("span `{span}` names no policy"))
}

/// Re-attaches serialized spans to `text`, producing a tainted string.
///
/// Accepts the interned `#table#spans` format. A blob that is not exactly
/// that is an error, never a less tainted string: that includes a blob
/// without the leading `#` and a span whose range is reversed or that
/// names no policy. (A span reaching past `text` is clipped to it.)
pub fn deserialize_spans(text: &str, spans: &str) -> Result<TaintedString, SerializeError> {
    let mut out = TaintedString::from(text);
    if spans.is_empty() {
        return Ok(out);
    }
    // One walk over the blob: the table's texts resolve through the read
    // index as they go by, and nothing is decoded until the blob is known
    // to have its two parts.
    let not_two_parts =
        || SerializeError::Malformed(format!("expected `#table#spans`, got `{spans}`"));
    let rest = spans.strip_prefix('#').ok_or_else(not_two_parts)?;
    let table = LabelTable::global();
    let mut labels: Vec<Label> = Vec::new();
    let mut misses: Vec<(usize, &str, WireMiss)> = Vec::new();
    let mut parts = TopLevel::new(rest, *b",#");
    loop {
        let (part, Some(sep)) = parts.next_part().ok_or_else(not_two_parts)? else {
            return Err(not_two_parts());
        };
        // `##…` is the empty table, not a table of one empty text.
        if !(sep == b'#' && part.is_empty() && labels.is_empty()) {
            match table.wire_label(part) {
                Ok(label) => labels.push(label),
                Err(miss) => {
                    misses.push((labels.len(), part, miss));
                    labels.push(Label::EMPTY);
                }
            }
        }
        if sep == b'#' {
            break;
        }
    }
    let spans_src = parts.rest();
    if let Some((_, Some(_))) = TopLevel::new(spans_src, *b"#").next_part() {
        return Err(not_two_parts());
    }
    for (i, part, miss) in misses {
        labels[i] = Label::from_id(decode_and_index(part, miss)?);
    }

    if spans_src.is_empty() {
        return Ok(out);
    }
    for part in spans_src.split(';') {
        let (range, idxs) = part
            .split_once('|')
            .ok_or_else(|| SerializeError::Malformed(format!("bad span `{part}`")))?;
        let (start, end) = parse_range(range)?;
        let mut label = Label::EMPTY;
        for idx in idxs.split(',').filter(|s| !s.is_empty()) {
            let i: usize = idx
                .parse()
                .map_err(|_| SerializeError::Malformed(format!("bad index `{idx}`")))?;
            let l = labels.get(i).ok_or_else(|| {
                SerializeError::Malformed(format!("index `{i}` outside the policy table"))
            })?;
            label = label.union(*l);
        }
        if label.is_empty() {
            return Err(names_no_policy(part));
        }
        out.add_label_range(start..end, label);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Acl, Right};
    use crate::policy::downcast_policy;

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
        // Still fine: an empty range, and one clipped to the text.
        let t = deserialize_spans("hello", "#UntrustedData{}#2..2|0;3..99|0").unwrap();
        assert_eq!(t.spans().collect::<Vec<_>>().len(), 1);
        assert!(t.label_at(4).has::<UntrustedData>() && t.label_at(2).is_empty());
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
        assert!(is_registered("CustomTestPolicy"));
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
        assert_eq!(escape("é,€"), "é%2C€");
    }

    /// The codecs as they stood before the interner learnt wire texts:
    /// every policy rendered per span and decoded per blob, through
    /// vectors of parts. Kept as the slow half of a differential (with
    /// the two fail-closed checks, which are about the format, not the
    /// method).
    mod oracle {
        use super::*;

        /// The splitter the codecs used, one `char` at a time into a
        /// vector; [`split_serialized`] now runs the byte scanner.
        pub fn split_top_level(s: &str, sep: char) -> Vec<&str> {
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

        pub fn serialize_label(label: Label) -> String {
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

        pub fn deserialize_label(s: &str) -> Result<Label, SerializeError> {
            if s.is_empty() {
                return Ok(Label::EMPTY);
            }
            let mut policies = Vec::new();
            for part in split_top_level(s, ',') {
                policies.push(decode_policy(part)?);
            }
            Ok(Label::from_policies(policies.iter()))
        }

        pub fn serialize_spans(data: &TaintedString) -> String {
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

        pub fn deserialize_spans(text: &str, spans: &str) -> Result<TaintedString, SerializeError> {
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
                    let policy = decode_policy(part)?;
                    labels.push(Label::of(&policy));
                }
            }
            if spans_src.is_empty() {
                return Ok(out);
            }
            for part in split_top_level(spans_src, ';') {
                let (range, idxs) = part
                    .split_once('|')
                    .ok_or_else(|| SerializeError::Malformed(format!("bad span `{part}`")))?;
                let (start, end) = parse_range(range)?;
                let mut label = Label::EMPTY;
                for idx in idxs.split(',').filter(|s| !s.is_empty()) {
                    let i: usize = idx
                        .parse()
                        .map_err(|_| SerializeError::Malformed(format!("bad index `{idx}`")))?;
                    let l = labels.get(i).ok_or_else(|| {
                        SerializeError::Malformed(format!("index `{i}` outside the policy table"))
                    })?;
                    label = label.union(*l);
                }
                if label.is_empty() {
                    return Err(names_no_policy(part));
                }
                // One edit per span, not an append.
                out.spans_mut()
                    .edit(start.min(text.len())..end.min(text.len()), |cur| {
                        cur.union(label)
                    });
            }
            Ok(out)
        }
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
        /// Satellite of the wire-text indexes: a policy's text is a
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
            for ((start, len), (k1, k2)) in pieces {
                // Byte ranges, as stored: they need not respect characters.
                let label = Label::of(&generated_policy(k1, &a, &b))
                    .union(Label::of(&generated_policy(k2, &b, &a)));
                data.add_label_range(start..start + len, label);
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
            // Read against a shorter text, spans clip alike.
            let short = &text[..text.char_indices().nth(text.chars().count() / 2).unwrap().0];
            proptest::prop_assert!(same_spans(
                &deserialize_spans(short, &blob).unwrap(),
                &oracle::deserialize_spans(short, &blob).unwrap()
            ));

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
