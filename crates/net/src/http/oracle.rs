//! The differential oracle: the request parser and builder as they were
//! before [`Head`](super::Head) borrowed the head bytes, percent-decoding
//! scanned runs and the tainter cached its source labels — compiled into
//! test builds only.
//!
//! The tests below hold the edge to it: a head one rejects, the other
//! rejects with the same error; a head both accept yields the same method,
//! routing path, framing and keep-alive answers, and a [`Request`] whose
//! raw path, params, headers, cookies and body have the same text and the
//! same spans. Each of those fields must also carry exactly the label that
//! interning its `UntrustedData` source afresh gives.

use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use resin_core::{Label, PolicyRef, TaintedString, UntrustedData};
use resin_web::{Method, Request};

use super::HttpError;

/// The head as the parser used to build it: owned, names lowercased.
struct Head {
    /// GET or POST.
    method: Method,
    /// The raw request-target (path + optional query), undecoded.
    target: String,
    /// `(lowercased-name, value)` in arrival order.
    headers: Vec<(String, String)>,
    /// True for HTTP/1.1, false for HTTP/1.0 (affects keep-alive default).
    http11: bool,
}

impl Head {
    /// All values of one (case-insensitive) header, in order.
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.headers
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length: `None` when no body is transmitted.
    fn body_length(&self) -> Result<Option<usize>, HttpError> {
        if self.all("transfer-encoding").next().is_some() {
            return Err(HttpError::TransferEncoding);
        }
        // Collect every value, splitting comma lists: `Content-Length:
        // 5, 5` is the same smuggling shape as two headers.
        let mut values = Vec::new();
        for v in self.all("content-length") {
            for part in v.split(',') {
                values.push(part.trim());
            }
        }
        let Some(&first) = values.first() else {
            return Ok(None);
        };
        if values.len() > 1 {
            return if values.iter().all(|v| *v == first) {
                Err(HttpError::DuplicateContentLength)
            } else {
                Err(HttpError::ConflictingContentLength)
            };
        }
        if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed(format!(
                "non-numeric Content-Length {first:?}"
            )));
        }
        first
            .parse::<usize>()
            .map(Some)
            .map_err(|_| HttpError::Malformed("Content-Length overflow".into()))
    }

    /// Whether the connection stays open after this exchange.
    fn keep_alive(&self) -> bool {
        let conn = self
            .all("connection")
            .last()
            .map(str::to_ascii_lowercase)
            .unwrap_or_default();
        if self.http11 {
            conn != "close"
        } else {
            conn == "keep-alive"
        }
    }
}

/// Parses and validates one head block (request line through the blank
/// line, terminators included).
///
/// Line discipline: every line must end with exactly `\r\n`; a bare LF
/// is rejected ([`HttpError::BareLf`]) and so is any CR not immediately
/// followed by LF ([`HttpError::BareCr`]) — both are smuggling vectors
/// through parser disagreement.
fn parse_head(head: &[u8]) -> Result<Head, HttpError> {
    let mut lines = Vec::new();
    let mut rest = head;
    loop {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            if rest.is_empty() {
                break;
            }
            return Err(HttpError::Malformed("head does not end in a line".into()));
        };
        if nl == 0 || rest[nl - 1] != b'\r' {
            return Err(HttpError::BareLf);
        }
        let line = &rest[..nl - 1];
        if line.contains(&b'\r') {
            return Err(HttpError::BareCr);
        }
        rest = &rest[nl + 1..];
        if line.is_empty() {
            if !rest.is_empty() {
                return Err(HttpError::Malformed("bytes after the blank line".into()));
            }
            break;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?;
        lines.push(line);
    }
    let Some((request_line, header_lines)) = lines.split_first() else {
        return Err(HttpError::Malformed("empty request".into()));
    };

    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "request line {request_line:?}"
        )));
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if other.chars().all(|c| c.is_ascii_uppercase()) && !other.is_empty() => {
            return Err(HttpError::UnsupportedMethod(other.to_string()));
        }
        other => {
            return Err(HttpError::Malformed(format!("method {other:?}")));
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    };
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpError::Malformed(format!("target {target:?}")));
    }

    let mut headers = Vec::with_capacity(header_lines.len());
    for line in header_lines {
        if line.starts_with(' ') || line.starts_with('\t') {
            // Obs-fold: continuation lines make header values ambiguous
            // across parsers.
            return Err(HttpError::Malformed("folded header line".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("header line {line:?}")));
        };
        if name.is_empty()
            || name
                .bytes()
                .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
        {
            // `Content-Length : 5` style names are parsed as distinct
            // headers by distinct implementations — reject.
            return Err(HttpError::Malformed(format!("header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Head {
        method,
        target: target.to_string(),
        headers,
        http11,
    })
}

fn taint(value: &str, source: &str) -> TaintedString {
    TaintedString::with_policy(value, Arc::new(UntrustedData::from_source(source)))
}

/// Percent-decodes `raw` (plus `+` → space when `form` is set), lossily
/// UTF-8. Invalid escapes pass through verbatim — the value is tainted
/// either way.
fn percent_decode(raw: &str, form: bool) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Two ASCII hex digits: `from_str_radix` alone would take
                // a sign too.
                let hex = bytes.get(i + 1..i + 3);
                let hex = hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if form => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query/form string into decoded pairs.
fn form_pairs(s: &str) -> impl Iterator<Item = (String, String)> + '_ {
    s.split('&').filter(|p| !p.is_empty()).map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (percent_decode(k, true), percent_decode(v, true))
    })
}

/// Builds the application-level [`Request`] from a validated head and
/// optional body, attaching taint to **every** network-derived value:
///
/// | field            | source tag     |
/// |------------------|----------------|
/// | raw path         | `http_path`    |
/// | query/form param | `http_param`   |
/// | header value     | `http_header`  |
/// | cookie value     | `http_cookie`  |
/// | body             | `http_body`    |
///
/// The routing key ([`Request::path`]) is the decoded path *component*
/// only — the query never reaches route matching.
fn build_request(head: &Head, body: Option<&[u8]>) -> Request {
    let (path_part, query) = match head.target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (head.target.as_str(), None),
    };
    let mut req = match head.method {
        Method::Get => Request::get(percent_decode(path_part, false)),
        Method::Post => Request::post(percent_decode(path_part, false)),
    };
    req = req.with_raw_path(taint(&head.target, "http_path"));
    if let Some(q) = query {
        for (k, v) in form_pairs(q) {
            req = req.with_param(k, &v);
        }
    }
    for (name, value) in &head.headers {
        req = req.with_header(name.clone(), value);
        if name == "cookie" {
            for pair in value.split(';') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                req = req.with_cookie(k.trim(), v.trim());
            }
        }
    }
    if let Some(body) = body {
        let text = String::from_utf8_lossy(body);
        req = req.with_body(&*text);
        let is_form = head
            .all("content-type")
            .last()
            .map(|ct| ct.starts_with("application/x-www-form-urlencoded"))
            // No declared type: treat a POSTed body as a form, the
            // common simple-client behavior.
            .unwrap_or(head.method == Method::Post);
        if is_form {
            for (k, v) in form_pairs(&text) {
                req = req.with_param(k, &v);
            }
        }
    }
    req
}

// ---- the differential ----

/// One field of a request: where it sits, its text and its spans.
type Field = (&'static str, String, String, Vec<(Range<usize>, Label)>);

/// Every tainted field of `req`, tagged with its `UntrustedData` source.
fn fields(req: &Request) -> Vec<Field> {
    let field = |source, key: &str, value: &TaintedString| {
        let spans = value.spans().collect();
        (source, key.to_string(), value.as_str().to_string(), spans)
    };
    let mut out = Vec::new();
    out.extend(req.raw_path().map(|v| field("http_path", "", v)));
    out.extend(req.params().map(|(k, v)| field("http_param", k, v)));
    out.extend(req.headers().map(|(k, v)| field("http_header", k, v)));
    out.extend(req.cookies().map(|(k, v)| field("http_cookie", k, v)));
    out.extend(req.body().map(|v| field("http_body", "", v)));
    out
}

/// How the edge's answer for `raw` (and `body`) differs from the
/// oracle's, if it does.
fn differ(raw: &[u8], body: Option<&[u8]>) -> Option<String> {
    let (old, new) = match (parse_head(raw), super::parse_head(raw)) {
        (Err(a), Err(b)) => return (a != b).then(|| format!("errors {a:?} vs {b:?}")),
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return Some(format!("{:?} vs {:?}", a.err(), b.err())),
    };
    let lowered: Vec<(String, String)> = new
        .headers
        .iter()
        .map(|(n, v)| (n.to_ascii_lowercase(), v.to_string()))
        .collect();
    let head = (old.method, &*old.target, old.http11, &old.headers);
    if head != (new.method, new.target, new.http11, &lowered) {
        return Some(format!("heads {head:?} vs {:?}", new.headers));
    }
    let framing = (old.body_length(), old.keep_alive());
    if framing != (new.body_length(), new.keep_alive()) {
        return Some(format!("framing {framing:?}"));
    }
    let (old, new) = (build_request(&old, body), super::build_request(&new, body));
    if (old.method(), old.path()) != (new.method(), new.path()) {
        return Some(format!("routing {:?} vs {:?}", old.path(), new.path()));
    }
    let new_fields = fields(&new);
    if fields(&old) != new_fields {
        return Some(format!("fields {:?} vs {new_fields:?}", fields(&old)));
    }
    // The label a source has when nothing is cached.
    for (source, key, text, spans) in new_fields {
        let fresh: PolicyRef = Arc::new(UntrustedData::from_source(source));
        let want: Vec<_> = (!text.is_empty())
            .then(|| (0..text.len(), Label::of(&fresh)))
            .into_iter()
            .collect();
        if spans != want {
            return Some(format!("{source} {key:?}: {spans:?}, not {want:?}"));
        }
    }
    None
}

#[test]
fn the_listed_shapes_build_as_the_oracle_builds_them() {
    let form = "Content-Type: application/x-www-form-urlencoded";
    for (head, body) in [
        ("GET /% HTTP/1.1\r\n\r\n".to_string(), None),
        ("GET /a%2?q=%2&r=% HTTP/1.1\r\n\r\n".into(), None),
        ("GET /%zz?%zz=%zz HTTP/1.1\r\n\r\n".into(), None),
        ("GET /%C3%A9?q=%C3%A9 HTTP/1.1\r\n\r\n".into(), None),
        ("GET /%FF?q=%FF&r=%C3 HTTP/1.1\r\n\r\n".into(), None),
        // `+` is a space in the query only.
        ("GET /a+b?c+d=e+f%2B HTTP/1.1\r\n\r\n".into(), None),
        ("GET /?a=b=c&&b&a=1&a=2&=v&k= HTTP/1.1\r\n\r\n".into(), None),
        (
            "GET / HTTP/1.1\r\nCookie: sid = abc ;  theme=dark\r\nCOOKIE:  a=b=c ;; x ;\r\n\r\n"
                .into(),
            None,
        ),
        (
            "GET / HTTP/1.1\r\nX-Mixed-Case: 1\r\nx-MIXED-case:2\r\nHOST: h\r\nhost: \r\n\r\n"
                .into(),
            None,
        ),
        (
            format!("POST /p HTTP/1.1\r\n{}\r\n\r\n", form.to_uppercase()),
            Some(&b"a=%C3%A9&b=%FF&c=+&&d=e=f&a=dup"[..]),
        ),
        (
            format!("POST /p HTTP/1.1\r\n{form}\r\n\r\n"),
            Some(b"q=\xff%41+x"),
        ),
        ("POST /p HTTP/1.1\r\n\r\n".into(), Some(b"untyped=form")),
        (
            "POST /p HTTP/1.1\r\nContent-Type: text/plain\r\n\r\n".into(),
            Some(b"a=b"),
        ),
        ("GET /p?x=1 HTTP/1.0\r\n\r\n".into(), Some(b"a=b")),
    ] {
        assert!(super::parse_head(head.as_bytes()).is_ok(), "{head:?}");
        assert_eq!(differ(head.as_bytes(), body), None, "{head:?}");
    }
}

const PATHS: [&str; 10] = [
    "/",
    "/view",
    "/a%2Fb",
    "/%",
    "/%2",
    "/%zz",
    "/%C3%A9",
    "/%FF",
    "/a+b",
    "/caf\u{e9}",
];
const QUERY: [&str; 16] = [
    "a", "b", "=", "&", "&&", "%", "%2", "%zz", "%C3%A9", "%FF", "+", "%2B", "%20", "a=b=c",
    "id=1", "\u{e9}",
];
const NAMES: [&str; 12] = [
    "Host",
    "host",
    "HOST",
    "Cookie",
    "COOKIE",
    "cookie",
    "Content-Type",
    "content-TYPE",
    "X-Mixed-Case",
    "x-mixed-case",
    "Connection",
    "CONTENT-LENGTH",
];
const VALUES: [&str; 16] = [
    "sid=abc",
    " ",
    ";",
    "; ",
    "=",
    "a",
    "%41",
    "theme=dark",
    "x=y=z",
    "application/x-www-form-urlencoded",
    "text/plain",
    "close",
    "keep-alive",
    "5",
    "\u{e9}",
    "+",
];
const BODY: [&[u8]; 13] = [
    b"a", b"=", b"&", b"%", b"%2", b"%zz", b"%C3%A9", b"%FF", b"+", b"body=hi", b"\xff", b"\xc3",
    b"a=b=c",
];
/// Lines that break the head, each in its own way.
const BAD_LINES: [&[u8]; 8] = [
    b" folded: x\r\n",
    b"no colon\r\n",
    b"Bad Name: x\r\n",
    b"X: a\rb\r\n",
    b"X: bare lf\n",
    b"X: \xff\r\n",
    b"\r\n",
    b"TRANSFER-encoding: chunked\r\n",
];
const REQUEST_LINES: [&str; 7] = [
    "GET / HTTP/1.1",
    "POST /p?q HTTP/1.0",
    "get / HTTP/1.1",
    "PUT / HTTP/1.1",
    "GET  / HTTP/1.1",
    "GET x HTTP/1.1",
    "GET / HTTP/2",
];

/// A head from generated choices: the request line, then each header as
/// `name: value tokens` (or without the space when the value is empty).
fn head_of(line: &str, headers: &[(usize, Vec<usize>)]) -> Vec<u8> {
    let mut raw = format!("{line}\r\n").into_bytes();
    for (name, value) in headers {
        let value: String = value.iter().map(|&v| VALUES[v]).collect();
        raw.extend_from_slice(format!("{}: {value}\r\n", NAMES[*name]).as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    raw
}

proptest! {
    #[test]
    fn generated_requests_build_as_the_oracle_builds_them(
        target in (0usize..PATHS.len(), prop::collection::vec(0usize..QUERY.len(), 0..8)),
        post in any::<bool>(),
        headers in prop::collection::vec(
            (0usize..NAMES.len(), prop::collection::vec(0usize..VALUES.len(), 0..4)),
            0..7,
        ),
        body in prop::collection::vec(0usize..BODY.len(), 0..8),
    ) {
        let (path, query) = target;
        let mut line = format!("{} {}", if post { "POST" } else { "GET" }, PATHS[path]);
        if !query.is_empty() {
            line.push('?');
            line.extend(query.iter().map(|&q| QUERY[q]));
        }
        line.push_str(" HTTP/1.1");
        let raw = head_of(&line, &headers);
        let body: Vec<u8> = body.iter().flat_map(|&b| BODY[b].iter().copied()).collect();
        let body = (!body.is_empty()).then_some(&body[..]);
        prop_assert!(super::parse_head(&raw).is_ok());
        let why = differ(&raw, body);
        prop_assert!(why.is_none(), "{}", why.unwrap_or_default());
    }

    #[test]
    fn broken_heads_fail_as_the_oracle_fails_them(
        line in 0usize..REQUEST_LINES.len(),
        headers in prop::collection::vec(
            (0usize..NAMES.len(), prop::collection::vec(0usize..VALUES.len(), 0..3)),
            0..4,
        ),
        bad in prop::collection::vec((0usize..BAD_LINES.len(), 0usize..5), 0..3),
    ) {
        let mut raw = head_of(REQUEST_LINES[line], &headers);
        let blank = raw.len() - 2;
        // Each bad line goes in at a line boundary before the blank line.
        let starts: Vec<usize> = (0..blank)
            .filter(|&i| i == 0 || raw[i - 1] == b'\n')
            .collect();
        let mut inserts: Vec<(usize, usize)> =
            bad.into_iter().map(|(which, at)| (starts[at % starts.len()], which)).collect();
        inserts.sort_unstable();
        for (at, which) in inserts.into_iter().rev() {
            raw.splice(at..at, BAD_LINES[which].iter().copied());
        }
        let why = differ(&raw, None);
        prop_assert!(why.is_none(), "{}", why.unwrap_or_default());
    }
}
