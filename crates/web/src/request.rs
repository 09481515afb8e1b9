//! HTTP requests.
//!
//! All request-supplied values (query/form parameters, cookies, uploaded
//! file bodies) arrive through the runtime's input boundary, so the request
//! builder attaches [`UntrustedData`] to each of them — this is RESIN's
//! default input filter behaviour that the SQL-injection and XSS assertions
//! of §5.3 build on.
//!
//! [`untrusted`] is the one tainter: the builder's `with_*` methods and
//! the network edge (`resin_net::build_request`) both go through it.

use std::collections::BTreeMap;

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

/// An uploaded file: name plus (untrusted) content.
#[derive(Debug, Clone)]
pub struct Upload {
    /// The client-chosen file name (untrusted).
    pub filename: TaintedString,
    /// The file content (untrusted).
    pub content: TaintedString,
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    method: Method,
    path: String,
    /// The path as received off the wire, taint intact. `None` for
    /// requests built in-process (the path is then server-controlled).
    raw_path: Option<TaintedString>,
    params: BTreeMap<String, TaintedString>,
    cookies: BTreeMap<String, TaintedString>,
    /// Header names are lowercased at the parse boundary; values keep
    /// their taint.
    headers: BTreeMap<String, TaintedString>,
    /// The raw request body, when one was transmitted (tainted).
    body: Option<TaintedString>,
    uploads: Vec<Upload>,
}

impl Request {
    /// Builds a GET request for `path`.
    pub fn get(path: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            raw_path: None,
            params: BTreeMap::new(),
            cookies: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: None,
            uploads: Vec::new(),
        }
    }

    /// Builds a POST request for `path`.
    pub fn post(path: impl Into<String>) -> Self {
        Request {
            method: Method::Post,
            ..Request::get(path)
        }
    }

    /// Adds a query/form parameter; the value is marked untrusted.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params
            .insert(key.into(), untrusted(value, "http_param"));
        self
    }

    /// Adds a cookie; the value is marked untrusted.
    pub fn with_cookie(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.cookies
            .insert(key.into(), untrusted(value, "http_cookie"));
        self
    }

    /// Adds a request header; the value is marked untrusted. Names are
    /// lowercased (HTTP header names are case-insensitive).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let mut name = name.into();
        name.make_ascii_lowercase();
        self.headers.insert(name, untrusted(value, "http_header"));
        self
    }

    /// Sets the raw request body; marked untrusted.
    pub fn with_body(mut self, body: impl Into<String>) -> Self {
        self.body = Some(untrusted(body, "http_body"));
        self
    }

    /// Records the wire-form path with its taint intact (the routing
    /// [`path`](Request::path) stays a plain server-side key).
    pub fn with_raw_path(mut self, raw: TaintedString) -> Self {
        self.raw_path = Some(raw);
        self
    }

    /// Adds an uploaded file; name and content are marked untrusted.
    pub fn with_upload(mut self, filename: &str, content: &str) -> Self {
        self.uploads.push(Upload {
            filename: untrusted(filename, "upload"),
            content: untrusted(content, "upload"),
        });
        self
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The request path (server-controlled routing key).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// A parameter value, if present (tainted).
    pub fn param(&self, key: &str) -> Option<&TaintedString> {
        self.params.get(key)
    }

    /// A parameter's text, defaulting to empty (still tainted when present).
    pub fn param_or_empty(&self, key: &str) -> TaintedString {
        self.params.get(key).cloned().unwrap_or_default()
    }

    /// A cookie value, if present.
    pub fn cookie(&self, key: &str) -> Option<&TaintedString> {
        self.cookies.get(key)
    }

    /// A header value by (case-insensitive) name, if present.
    pub fn header(&self, name: &str) -> Option<&TaintedString> {
        self.headers.get(&name.to_ascii_lowercase())
    }

    /// The raw request body, if one was transmitted.
    pub fn body(&self) -> Option<&TaintedString> {
        self.body.as_ref()
    }

    /// The wire-form path with taint, when this request came off a
    /// socket.
    pub fn raw_path(&self) -> Option<&TaintedString> {
        self.raw_path.as_ref()
    }

    /// The uploaded files.
    pub fn uploads(&self) -> &[Upload] {
        &self.uploads
    }

    /// Iterates parameters.
    pub fn params(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates headers (names lowercased).
    pub fn headers(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.headers.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates cookies.
    pub fn cookies(&self) -> impl Iterator<Item = (&str, &TaintedString)> {
        self.cookies.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::PolicyRef;
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
    fn cookies_and_uploads_untrusted() {
        let r = Request::post("/up")
            .with_cookie("sid", "abc")
            .with_upload("x.php", "<?php evil();");
        assert!(r.cookie("sid").unwrap().has_policy::<UntrustedData>());
        assert_eq!(r.uploads().len(), 1);
        assert!(r.uploads()[0].content.all_bytes_have::<UntrustedData>());
        assert_eq!(r.method(), Method::Post);
        assert_eq!(r.path(), "/up");
    }

    #[test]
    fn a_cached_source_label_is_the_one_the_table_interns() {
        for source in ["http_path", "http_param", "http_header", "upload"] {
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
}
