//! HTTP requests.
//!
//! All request-supplied values (path, query/form parameters, headers,
//! cookies, body) arrive through the runtime's input boundary, so each
//! carries [`UntrustedData`] — this is RESIN's default input filter
//! behaviour that the SQL-injection and XSS assertions of §5.3 build on.
//!
//! **Layout.** A request owns its bytes once, in one buffer: the wire
//! bytes it arrived as (head, then body), followed by any name or value
//! that needed percent-decoding. Params, cookies and headers are one
//! index of [`Field`]s — (kind, name range, value range) into that
//! buffer — sorted by kind and name, one entry per name. The routing
//! path, the raw path and the body are ranges of the same buffer. A value
//! becomes a [`TaintedString`] the first time it is read, and the request
//! keeps it, so a field no handler reads is never tainted and a second
//! read allocates nothing. The network edge moves the buffer it read in
//! ([`Request::from_wire`]); the `with_*` builders append to the same
//! buffer and index.
//!
//! [`untrusted`] is the one tainter: every field is tainted through it,
//! with its source tag, whichever way the request was built.

use std::ops::Range;
use std::sync::OnceLock;

use resin_core::{Label, TaintedString, UntrustedData};

/// `value` with [`UntrustedData`] from `source` on every byte.
///
/// The label of each source is interned once per thread, not once per
/// value ([`Label::of_static`]).
///
/// ```
/// use resin_core::UntrustedData;
/// use resin_web::request::untrusted;
///
/// let q = untrusted("x' OR 1=1", "http_param");
/// assert!(q.all_bytes_have::<UntrustedData>());
/// assert_eq!(q.label(), untrusted("other", "http_param").label());
/// ```
pub fn untrusted(value: impl Into<String>, source: &'static str) -> TaintedString {
    let label = Label::of_static(source, || UntrustedData::from_source(source));
    TaintedString::with_label(value, label)
}

/// HTTP method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
}

/// Which of a request's name → value maps a [`Field`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldKind {
    /// A query or form parameter, tainted as `http_param`.
    Param,
    /// A cookie, tainted as `http_cookie`.
    Cookie,
    /// A header, tainted as `http_header`. Its name is stored lowercased.
    Header,
}

impl FieldKind {
    fn source(self) -> &'static str {
        match self {
            FieldKind::Param => "http_param",
            FieldKind::Cookie => "http_cookie",
            FieldKind::Header => "http_header",
        }
    }
}

/// A value in a request's buffer, tainted on first read.
#[derive(Debug, Clone)]
struct Value {
    at: Range<usize>,
    tainted: OnceLock<TaintedString>,
}

impl Value {
    fn new(at: Range<usize>) -> Value {
        Value {
            at,
            tainted: OnceLock::new(),
        }
    }

    fn read<'a>(&'a self, text: &str, source: &'static str) -> &'a TaintedString {
        self.tainted
            .get_or_init(|| untrusted(&text[self.at.clone()], source))
    }
}

/// One entry of a request's field index: a name and a value, each a byte
/// range of the buffer the request is built over.
#[derive(Debug, Clone)]
pub struct Field {
    kind: FieldKind,
    name: Range<usize>,
    value: Value,
}

impl Field {
    /// A `kind` field named by the bytes at `name`, with the value at
    /// `value`.
    pub fn new(kind: FieldKind, name: Range<usize>, value: Range<usize>) -> Field {
        Field {
            kind,
            name,
            value: Value::new(value),
        }
    }

    fn name<'t>(&self, text: &'t str) -> &'t str {
        &text[self.name.clone()]
    }

    fn key<'t>(&self, text: &'t str) -> (FieldKind, &'t str) {
        (self.kind, self.name(text))
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    method: Method,
    /// Every byte the request holds; each range below lies in it.
    text: String,
    /// The routing key: server-controlled, never tainted.
    path: Range<usize>,
    /// The path as received off the wire. `None` for requests built
    /// in-process (the path is then server-controlled).
    raw_path: Option<Value>,
    /// Sorted by (kind, name), one entry per name.
    fields: Vec<Field>,
    /// The raw request body, when one was transmitted.
    body: Option<Value>,
}

impl Request {
    /// Builds a GET request for `path`.
    pub fn get(path: impl Into<String>) -> Self {
        let text = path.into();
        Request {
            method: Method::Get,
            path: 0..text.len(),
            text,
            raw_path: None,
            fields: Vec::new(),
            body: None,
        }
    }

    /// Builds a POST request for `path`.
    pub fn post(path: impl Into<String>) -> Self {
        Request {
            method: Method::Post,
            ..Request::get(path)
        }
    }

    /// The request over `text`, the bytes it arrived as, which it keeps:
    /// `path` is the routing key's range of `text`, `raw_path` the wire
    /// target's and `body` the body's, and every field's ranges lie in
    /// `text` too. Each header's name is lowercased in place, and where a
    /// name repeats within a kind the last field given wins.
    ///
    /// # Panics
    ///
    /// When a range runs past `text` or splits a character.
    pub fn from_wire(
        method: Method,
        mut text: String,
        path: Range<usize>,
        raw_path: Range<usize>,
        body: Option<Range<usize>>,
        mut fields: Vec<Field>,
    ) -> Request {
        for at in fields
            .iter()
            .flat_map(|f| [&f.name, &f.value.at])
            .chain([&path, &raw_path])
            .chain(&body)
        {
            assert!(text.get(at.clone()).is_some(), "{at:?} is not text");
        }
        for f in fields.iter().filter(|f| f.kind == FieldKind::Header) {
            text[f.name.clone()].make_ascii_lowercase();
        }
        // Reversed, the stable sort puts a name's last field first, which
        // `dedup_by` keeps.
        fields.reverse();
        fields.sort_by(|a, b| a.key(&text).cmp(&b.key(&text)));
        fields.dedup_by(|later, kept| later.key(&text) == kept.key(&text));
        Request {
            method,
            path,
            raw_path: Some(Value::new(raw_path)),
            body: body.map(Value::new),
            fields,
            text,
        }
    }

    /// Appends `s` to the buffer, returning its range.
    fn append(&mut self, s: &str) -> Range<usize> {
        let start = self.text.len();
        self.text.push_str(s);
        start..self.text.len()
    }

    /// Where the `kind` field named `name` is in the index, or where it
    /// would go. Header names compare case-insensitively.
    fn find(&self, kind: FieldKind, name: &str) -> Result<usize, usize> {
        self.fields.binary_search_by(|f| {
            f.kind.cmp(&kind).then_with(|| {
                let have = f.name(&self.text);
                if kind == FieldKind::Header {
                    let folded = name.bytes().map(|b| b.to_ascii_lowercase());
                    have.bytes().cmp(folded)
                } else {
                    have.cmp(name)
                }
            })
        })
    }

    fn with_field(mut self, kind: FieldKind, name: &str, value: &str) -> Self {
        let name_at = self.append(name);
        if kind == FieldKind::Header {
            self.text[name_at.clone()].make_ascii_lowercase();
        }
        let field = Field::new(kind, name_at, self.append(value));
        match self.find(kind, name) {
            Ok(i) => self.fields[i] = field,
            Err(i) => self.fields.insert(i, field),
        }
        self
    }

    fn lookup(&self, kind: FieldKind, name: &str) -> Option<&TaintedString> {
        let field = &self.fields[self.find(kind, name).ok()?];
        Some(field.value.read(&self.text, kind.source()))
    }

    /// The `kind` fields, sorted by name.
    fn all(&self, kind: FieldKind) -> impl Iterator<Item = (&str, &TaintedString)> {
        let from = self.fields.partition_point(|f| f.kind < kind);
        let to = self.fields.partition_point(|f| f.kind <= kind);
        self.fields[from..to]
            .iter()
            .map(move |f| (f.name(&self.text), f.value.read(&self.text, kind.source())))
    }

    /// Adds a query/form parameter; the value is marked untrusted.
    pub fn with_param(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.with_field(FieldKind::Param, &key.into(), &value.into())
    }

    /// Adds a cookie; the value is marked untrusted.
    pub fn with_cookie(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.with_field(FieldKind::Cookie, &key.into(), &value.into())
    }

    /// Adds a request header; the value is marked untrusted. Names are
    /// lowercased (HTTP header names are case-insensitive).
    pub fn with_header(self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.with_field(FieldKind::Header, &name.into(), &value.into())
    }

    /// Sets the raw request body; marked untrusted.
    pub fn with_body(mut self, body: impl Into<String>) -> Self {
        let at = self.append(&body.into());
        self.body = Some(Value::new(at));
        self
    }

    /// Records the wire-form path with its taint intact (the routing
    /// [`path`](Request::path) stays a plain server-side key).
    pub fn with_raw_path(mut self, raw: TaintedString) -> Self {
        let at = self.append(raw.as_str());
        self.raw_path = Some(Value {
            at,
            tainted: OnceLock::from(raw),
        });
        self
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The request path (server-controlled routing key).
    pub fn path(&self) -> &str {
        &self.text[self.path.clone()]
    }

    /// A parameter value, if present (tainted).
    pub fn param(&self, key: &str) -> Option<&TaintedString> {
        self.lookup(FieldKind::Param, key)
    }

    /// A parameter's text, defaulting to empty (still tainted when present).
    pub fn param_or_empty(&self, key: &str) -> TaintedString {
        self.param(key).cloned().unwrap_or_default()
    }

    /// A cookie value, if present.
    pub fn cookie(&self, key: &str) -> Option<&TaintedString> {
        self.lookup(FieldKind::Cookie, key)
    }

    /// A header value by (case-insensitive) name, if present.
    pub fn header(&self, name: &str) -> Option<&TaintedString> {
        self.lookup(FieldKind::Header, name)
    }

    /// The raw request body, if one was transmitted.
    pub fn body(&self) -> Option<&TaintedString> {
        let body = self.body.as_ref()?;
        Some(body.read(&self.text, "http_body"))
    }

    /// The wire-form path with taint, when this request came off a
    /// socket.
    pub fn raw_path(&self) -> Option<&TaintedString> {
        let raw = self.raw_path.as_ref()?;
        Some(raw.read(&self.text, "http_path"))
    }

    /// Iterates parameters, sorted by name.
    pub fn params(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.all(FieldKind::Param)
    }

    /// Iterates headers (names lowercased), sorted by name.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.all(FieldKind::Header)
    }

    /// Iterates cookies, sorted by name.
    pub fn cookies(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.all(FieldKind::Cookie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use resin_core::PolicyRef;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn params_are_untrusted() {
        let r = Request::get("/login").with_param("user", "alice");
        let v = r.param("user").unwrap();
        assert_eq!(v.as_str(), "alice");
        assert!(v.all_bytes_have::<UntrustedData>());
        assert!(r.param("missing").is_none());
        assert_eq!(r.param_or_empty("missing").len(), 0);
    }

    #[test]
    fn cookies_untrusted() {
        let r = Request::post("/up").with_cookie("sid", "abc");
        assert!(r.cookie("sid").unwrap().has_policy::<UntrustedData>());
        assert_eq!(r.method(), Method::Post);
        assert_eq!(r.path(), "/up");
    }

    #[test]
    fn a_cached_source_label_is_the_one_the_table_interns() {
        for source in [
            "http_path",
            "http_param",
            "http_header",
            "http_cookie",
            "http_body",
        ] {
            let policy: PolicyRef = Arc::new(UntrustedData::from_source(source));
            let want = TaintedString::with_policy("v", policy);
            for _ in 0..2 {
                assert!(untrusted("v", source).taint_eq(&want), "{source}");
            }
        }
        assert!(
            untrusted("", "http_param").is_untainted(),
            "no bytes, no label"
        );
    }

    #[test]
    fn headers_body_and_raw_path_untrusted() {
        let raw = untrusted("/x?a=1", "http_path");
        let r = Request::post("/x")
            .with_header("X-Forwarded-For", "198.51.100.7")
            .with_body("a=1&b=2")
            .with_raw_path(raw);
        let h = r.header("x-forwarded-for").unwrap();
        assert!(h.all_bytes_have::<UntrustedData>());
        assert!(r.header("X-FORWARDED-FOR").is_some(), "case-insensitive");
        assert!(r.body().unwrap().all_bytes_have::<UntrustedData>());
        assert!(r.raw_path().unwrap().all_bytes_have::<UntrustedData>());
        assert_eq!(r.headers().count(), 1);
        assert!(Request::get("/plain").body().is_none());
        assert!(Request::get("/plain").raw_path().is_none());
    }

    #[test]
    fn source_recorded() {
        let r = Request::get("/").with_param("q", "x");
        let pol = r.param("q").unwrap().label().policies();
        let u = pol
            .iter()
            .find_map(|p| p.as_any().downcast_ref::<UntrustedData>())
            .unwrap();
        assert_eq!(u.source(), Some("http_param"));
    }

    #[test]
    fn a_field_is_tainted_once_and_a_wire_request_keeps_the_last_duplicate() {
        // "GET /a?b=1&b=2" with two spellings of one header, laid out as
        // the edge lays it out: wire bytes first, then a decoded value.
        let text = "/a?b=1&b=2\r\nHost: x\r\nHOST: y\r\nCookie: k=v%21\r\nv!".to_string();
        let at = |s: &str| {
            let start = text.find(s).unwrap();
            start..start + s.len()
        };
        let fields = vec![
            Field::new(FieldKind::Param, 3..4, 5..6),
            Field::new(FieldKind::Param, 7..8, 9..10),
            Field::new(FieldKind::Header, at("Host"), at("x")),
            Field::new(FieldKind::Header, at("HOST"), at("y")),
            Field::new(
                FieldKind::Cookie,
                at("k=").start..at("k=").start + 1,
                at("v!"),
            ),
        ];
        let r = Request::from_wire(Method::Get, text.clone(), 0..2, 0..10, None, fields);
        assert_eq!(r.path(), "/a");
        assert_eq!(r.raw_path().unwrap().as_str(), "/a?b=1&b=2");
        assert_eq!(r.param("b").unwrap().as_str(), "2", "the last duplicate");
        assert_eq!(r.header("Host").unwrap().as_str(), "y");
        assert_eq!(r.headers().map(|(n, _)| n).collect::<Vec<_>>(), ["host"]);
        assert_eq!(r.cookie("k").unwrap().as_str(), "v!");
        assert!(r.body().is_none());
        let first = r.param("b").unwrap() as *const TaintedString;
        assert_eq!(r.param("b").unwrap() as *const _, first, "read once");
        assert!(r
            .clone()
            .param("b")
            .unwrap()
            .taint_eq(r.param("b").unwrap()));
    }

    #[test]
    #[should_panic(expected = "is not text")]
    fn a_range_past_the_buffer_is_refused() {
        let fields = vec![Field::new(FieldKind::Param, 0..1, 1..9)];
        Request::from_wire(Method::Get, "/a".into(), 0..2, 0..2, None, fields);
    }

    /// The builders as they were: one ordered map per kind, header names
    /// lowercased.
    #[derive(Default)]
    struct Model {
        params: BTreeMap<String, String>,
        cookies: BTreeMap<String, String>,
        headers: BTreeMap<String, String>,
    }

    const NAMES: [&str; 8] = ["a", "b", "ab", "", "X-Id", "x-id", "X-ID", "\u{e9}"];
    const VALUES: [&str; 5] = ["", "1", "2", " sp ", "\u{e9}t\u{e9}"];

    fn texts<'a>(it: impl Iterator<Item = (&'a str, &'a TaintedString)>) -> Vec<(String, String)> {
        it.map(|(k, v)| {
            assert!(v.all_bytes_have::<UntrustedData>() || v.is_empty(), "{k}");
            (k.to_string(), v.as_str().to_string())
        })
        .collect()
    }

    fn pairs(map: &BTreeMap<String, String>) -> Vec<(String, String)> {
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    proptest! {
        #[test]
        fn the_builders_answer_as_ordered_maps_answer(
            ops in prop::collection::vec(
                (0usize..3, (0usize..NAMES.len(), 0usize..VALUES.len())),
                0..24,
            ),
        ) {
            let mut req = Request::get("/p");
            let mut model = Model::default();
            for (kind, (name, value)) in ops {
                let (name, value) = (NAMES[name], VALUES[value]);
                req = match kind {
                    0 => {
                        model.params.insert(name.into(), value.into());
                        req.with_param(name, value)
                    }
                    1 => {
                        model.cookies.insert(name.into(), value.into());
                        req.with_cookie(name, value)
                    }
                    _ => {
                        model.headers.insert(name.to_ascii_lowercase(), value.into());
                        req.with_header(name, value)
                    }
                };
            }
            for name in NAMES {
                let text = |v: Option<&TaintedString>| v.map(|v| v.as_str().to_string());
                prop_assert_eq!(text(req.param(name)), model.params.get(name).cloned());
                let or_empty = req.param_or_empty(name);
                prop_assert_eq!(
                    or_empty.as_str(),
                    model.params.get(name).map_or("", String::as_str)
                );
                prop_assert_eq!(text(req.cookie(name)), model.cookies.get(name).cloned());
                let lower = name.to_ascii_lowercase();
                prop_assert_eq!(text(req.header(name)), model.headers.get(&lower).cloned());
            }
            prop_assert_eq!(texts(req.params()), pairs(&model.params));
            prop_assert_eq!(texts(req.cookies()), pairs(&model.cookies));
            prop_assert_eq!(texts(req.headers()), pairs(&model.headers));
            prop_assert_eq!(req.path(), "/p");
        }
    }
}
