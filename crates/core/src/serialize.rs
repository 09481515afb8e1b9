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
//! policies stores two policy bodies, not a thousand. The legacy format
//! (`start..end|set;...`, inline sets per span) is still parsed on read.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::error::SerializeError;
use crate::label::Label;
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
/// class they persist; the stock policies are pre-registered.
pub fn register_policy_class(
    name: impl Into<String>,
    deserializer: impl Fn(&FieldMap) -> Result<PolicyRef, SerializeError> + Send + Sync + 'static,
) {
    crate::sync::wlock(registry()).insert(name.into(), Arc::new(deserializer));
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

const META: &[char] = &['%', '{', '}', ';', ',', '=', '|', '#'];

fn escape(s: &str) -> String {
    if !s.contains(META) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for b in s.bytes() {
        let c = b as char;
        if META.contains(&c) {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        } else {
            out.push(c);
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, SerializeError> {
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
    let fields = policy
        .serialize_fields()
        .into_iter()
        .map(|(k, v)| format!("{}={}", escape(&k), escape(&v)))
        .collect::<Vec<_>>()
        .join(";");
    format!("{}{{{}}}", escape(policy.name()), fields)
}

/// Deserializes one policy via the class registry.
pub fn deserialize_policy(s: &str) -> Result<PolicyRef, SerializeError> {
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

/// Serializes an interned label (comma-joined policies). The empty label
/// serializes to the empty string.
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

/// Deserializes a label, interning each revived policy.
///
/// The round-trip is canonical: structurally equal policies intern to the
/// same [`PolicyId`](crate::label::PolicyId), so
/// `deserialize_label(&serialize_label(l)) == l` for any `l`.
pub fn deserialize_label(s: &str) -> Result<Label, SerializeError> {
    if s.is_empty() {
        return Ok(Label::EMPTY);
    }
    let mut policies = Vec::new();
    for part in split_top_level(s, ',') {
        policies.push(deserialize_policy(part)?);
    }
    Ok(Label::from_policies(policies.iter()))
}

/// Version of the textual policy wire format.
///
/// Version 1 was the legacy per-span inline-set encoding
/// (`start..end|set;...`); version 2 is the interned `#table#spans`
/// encoding that persists the deduplicated policy table once. Both are
/// still *parsed*; new data is always written as version 2. Durable
/// storage (`resin_store`) embeds this number in its snapshot header so a
/// future format change is detected at open time instead of surfacing as
/// garbled policies.
pub const WIRE_VERSION: u32 = 2;

/// Splits `s` on `sep` at brace depth zero — the tokenizer for every
/// comma/semicolon/hash-joined list in the wire format.
///
/// Metacharacters inside policy names and field values are `%XX`-escaped
/// by [`serialize_policy`], so brace depth is reliable: a separator inside
/// `{...}` belongs to a field, not the list. Public so storage layers
/// (e.g. `resin_store`'s snapshot encoder) can re-tokenize persisted
/// blobs without deserializing policy objects.
pub fn split_serialized(s: &str, sep: char) -> Vec<&str> {
    split_top_level(s, sep)
}

/// Splits on `sep`, but only outside `{...}` (metacharacters inside names
/// and values are escaped, so brace depth is reliable).
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
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
    Ok((start, end))
}

/// Re-attaches serialized spans to `text`, producing a tainted string.
///
/// Accepts both the interned `#table#spans` format and the legacy
/// per-span-inline-set format (`start..end|set;...`).
pub fn deserialize_spans(text: &str, spans: &str) -> Result<TaintedString, SerializeError> {
    let mut out = TaintedString::from(text);
    if spans.is_empty() {
        return Ok(out);
    }
    if let Some(rest) = spans.strip_prefix('#') {
        // Interned format: `#table#spans`.
        let parts = split_top_level(rest, '#');
        let [table_src, spans_src] = parts.as_slice() else {
            return Err(SerializeError::Malformed(format!(
                "expected `#table#spans`, got `{spans}`"
            )));
        };
        let mut labels: Vec<Label> = Vec::new();
        if !table_src.is_empty() {
            for part in split_top_level(table_src, ',') {
                let policy = deserialize_policy(part)?;
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
            out.add_label_range(start..end, label);
        }
        return Ok(out);
    }
    // Legacy format: inline policy sets per span.
    for part in split_top_level(spans, ';') {
        let (range, set) = part
            .split_once('|')
            .ok_or_else(|| SerializeError::Malformed(format!("bad span `{part}`")))?;
        let (start, end) = parse_range(range)?;
        let label = deserialize_label(set)?;
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
    fn legacy_span_format_still_parses() {
        let legacy = "0..5|UntrustedData{};6..11|HtmlSanitized{}";
        let back = deserialize_spans("hello world", legacy).unwrap();
        assert!(back.label_at(0).has::<UntrustedData>());
        assert!(back.label_at(6).has::<HtmlSanitized>());
        assert!(back.label_at(5).is_empty());
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
}
