//! HTTP/1.1 request parsing with the RESIN taint boundary.
//!
//! This is the edge where bytes stop being "the network" and become
//! application data, so two things happen here and nowhere else:
//!
//! 1. **Strictness.** The grammar is deliberately narrow — exactly-CRLF
//!    line endings, single well-formed `Content-Length`, no
//!    `Transfer-Encoding`, no obs-fold — because every piece of parser
//!    leniency is a request-smuggling vector: two parsers that disagree
//!    about where a request ends let an attacker hide a second request
//!    inside the first. We fail closed on each ambiguous form.
//! 2. **Taint.** Every network-derived byte lands in the
//!    [`resin_web::Request`] as a policy-labeled value: path, query
//!    params, headers, cookies, and body each carry
//!    [`UntrustedData`](resin_core::UntrustedData) with a
//!    source-specific tag. Downstream, the SQL/XSS/splitting assertions
//!    key off these labels — identical to requests built in-process,
//!    because both are tainted by [`untrusted`].

use std::borrow::Cow;
use std::fmt;

use resin_web::request::untrusted;
use resin_web::{Method, Request};

#[cfg(test)]
mod oracle;

/// Why a request was rejected at the parse boundary, mapped to the
/// status code the connection answers before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Not valid HTTP at all (bad request line, bad header shape...).
    Malformed(String),
    /// A line ended with a bare LF (no CR) — lenient parsers disagree
    /// with strict ones about such line boundaries, the classic
    /// smuggling split.
    BareLf,
    /// A CR appeared anywhere but immediately before LF.
    BareCr,
    /// More than one `Content-Length` header with the same value. Even
    /// in agreement, duplicates mean some upstream already disagreed
    /// about framing — reject.
    DuplicateContentLength,
    /// `Content-Length` headers (or list members) that disagree.
    ConflictingContentLength,
    /// `Transfer-Encoding` present: chunked framing is unsupported, and
    /// TE+CL is *the* smuggling primitive. Fail closed.
    TransferEncoding,
    /// The header block exceeded the configured limit.
    HeadTooLarge,
    /// The declared body exceeded the configured limit.
    BodyTooLarge,
    /// The connection ended mid-request.
    Truncated,
    /// A syntactically valid method this server does not implement.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
}

impl HttpError {
    /// The response status this rejection is answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedMethod(_) => 501,
            HttpError::UnsupportedVersion(_) => 505,
            _ => 400,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::BareLf => write!(f, "bare LF line ending"),
            HttpError::BareCr => write!(f, "bare CR in header block"),
            HttpError::DuplicateContentLength => write!(f, "duplicate Content-Length"),
            HttpError::ConflictingContentLength => write!(f, "conflicting Content-Length"),
            HttpError::TransferEncoding => write!(f, "Transfer-Encoding unsupported"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A validated request head: line + headers, still untainted *text*
/// borrowed from the head bytes — [`build_request`] attaches the labels.
#[derive(Debug)]
pub struct Head<'a> {
    /// GET or POST.
    pub method: Method,
    /// The raw request-target (path + optional query), undecoded.
    pub target: &'a str,
    /// `(name, value)` in arrival order, names as sent (compare them
    /// case-insensitively), values trimmed.
    pub headers: Vec<(&'a str, &'a str)>,
    /// True for HTTP/1.1, false for HTTP/1.0 (affects keep-alive default).
    pub http11: bool,
}

impl<'a> Head<'a> {
    /// All values of one (case-insensitive) header, in order.
    fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.headers
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, v)| v)
    }

    /// The declared body length: `None` when no body is transmitted.
    pub fn body_length(&self) -> Result<Option<usize>, HttpError> {
        if self.all("transfer-encoding").next().is_some() {
            return Err(HttpError::TransferEncoding);
        }
        // Every value counts, comma lists split: `Content-Length: 5, 5`
        // is the same smuggling shape as two headers.
        let mut values = self
            .all("content-length")
            .flat_map(|v| v.split(','))
            .map(str::trim);
        let Some(first) = values.next() else {
            return Ok(None);
        };
        let mut duplicated = false;
        for v in values {
            if v != first {
                return Err(HttpError::ConflictingContentLength);
            }
            duplicated = true;
        }
        if duplicated {
            return Err(HttpError::DuplicateContentLength);
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
    pub fn keep_alive(&self) -> bool {
        let conn = self.all("connection").last();
        if self.http11 {
            !conn.is_some_and(|c| c.eq_ignore_ascii_case("close"))
        } else {
            conn.is_some_and(|c| c.eq_ignore_ascii_case("keep-alive"))
        }
    }
}

/// Parses and validates one head block (request line through the blank
/// line, terminators included). The [`Head`] borrows `head`.
///
/// Line discipline: every line must end with exactly `\r\n`; a bare LF
/// is rejected ([`HttpError::BareLf`]) and so is any CR not immediately
/// followed by LF ([`HttpError::BareCr`]) — both are smuggling vectors
/// through parser disagreement. The whole block's line discipline is
/// checked before the request line, and the request line before any
/// header line.
pub fn parse_head(head: &[u8]) -> Result<Head<'_>, HttpError> {
    let mut request_line = None;
    // One allocation: at most one header per line past the request line
    // and the blank one.
    let lines = head.iter().filter(|&&b| b == b'\n').count();
    let mut headers = Vec::with_capacity(lines.saturating_sub(2));
    let mut bad_header = None;
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
        if request_line.is_none() {
            request_line = Some(line);
        } else if bad_header.is_none() {
            match header_line(line) {
                Ok(header) => headers.push(header),
                Err(e) => bad_header = Some(e),
            }
        }
    }
    let Some(request_line) = request_line else {
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
    if let Some(e) = bad_header {
        return Err(e);
    }
    Ok(Head {
        method,
        target,
        headers,
        http11,
    })
}

/// One header line as `(name, trimmed value)`.
fn header_line(line: &str) -> Result<(&str, &str), HttpError> {
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
    Ok((name, value.trim()))
}

/// Percent-decodes `raw` (plus `+` → space when `form` is set), lossily
/// UTF-8. Invalid escapes pass through verbatim — the value is tainted
/// either way. A value with nothing to decode is borrowed; otherwise the
/// runs between escapes are copied whole.
fn percent_decode(raw: &str, form: bool) -> Cow<'_, str> {
    let bytes = raw.as_bytes();
    let special = |b: &u8| *b == b'%' || (form && *b == b'+');
    let Some(mut i) = bytes.iter().position(special) else {
        return Cow::Borrowed(raw);
    };
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(&bytes[..i]);
    while i < bytes.len() {
        // `bytes[i]` is a `%` or a form-mode `+`.
        if bytes[i] == b'+' {
            out.push(b' ');
            i += 1;
        } else {
            let hex = bytes.get(i + 1..i + 3);
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
        let run = bytes[i..]
            .iter()
            .position(special)
            .map_or(bytes.len(), |n| i + n);
        out.extend_from_slice(&bytes[i..run]);
        i = run;
    }
    Cow::Owned(match String::from_utf8(out) {
        Ok(text) => text,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    })
}

/// Splits a query/form string into decoded pairs.
fn form_pairs(s: &str) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
    s.split('&').filter(|p| !p.is_empty()).map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (percent_decode(k, true), percent_decode(v, true))
    })
}

/// Builds the application-level [`Request`] from a validated head and
/// optional body, attaching taint to **every** network-derived value
/// through [`untrusted`], the tainter in-process requests share:
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
pub fn build_request(head: &Head<'_>, body: Option<&[u8]>) -> Request {
    let (path_part, query) = match head.target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (head.target, None),
    };
    let mut req = match head.method {
        Method::Get => Request::get(percent_decode(path_part, false)),
        Method::Post => Request::post(percent_decode(path_part, false)),
    };
    req = req.with_raw_path(untrusted(head.target, "http_path"));
    if let Some(q) = query {
        for (k, v) in form_pairs(q) {
            req = req.with_param(k, v);
        }
    }
    for &(name, value) in &head.headers {
        req = req.with_header(name, value);
        if name.eq_ignore_ascii_case("cookie") {
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
        let is_form = head
            .all("content-type")
            .last()
            .map(|ct| ct.starts_with("application/x-www-form-urlencoded"))
            // No declared type: treat a POSTed body as a form, the
            // common simple-client behavior.
            .unwrap_or(head.method == Method::Post);
        if is_form {
            for (k, v) in form_pairs(&text) {
                req = req.with_param(k, v);
            }
        }
        req = req.with_body(text);
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::UntrustedData;

    fn head_of(raw: &str) -> Head<'_> {
        parse_head(raw.as_bytes()).unwrap()
    }

    #[test]
    fn minimal_get_parses() {
        let h = head_of("GET /view?id=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(h.method, Method::Get);
        assert_eq!(h.target, "/view?id=1");
        assert!(h.http11);
        assert_eq!(h.headers, vec![("Host", "x")], "names as sent");
        assert_eq!(h.body_length().unwrap(), None);
        assert!(h.keep_alive());
    }

    #[test]
    fn bare_lf_lines_rejected() {
        for raw in [
            "GET / HTTP/1.1\nHost: x\r\n\r\n",
            "GET / HTTP/1.1\r\nHost: x\n\r\n",
            "GET / HTTP/1.1\r\nHost: x\r\n\n",
        ] {
            assert_eq!(
                parse_head(raw.as_bytes()).unwrap_err(),
                HttpError::BareLf,
                "{raw:?}"
            );
        }
    }

    #[test]
    fn bare_cr_in_line_rejected() {
        let raw = b"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n";
        assert_eq!(parse_head(raw).unwrap_err(), HttpError::BareCr);
    }

    #[test]
    fn duplicate_content_length_rejected() {
        let h = head_of("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n");
        assert_eq!(
            h.body_length().unwrap_err(),
            HttpError::DuplicateContentLength
        );
        let h = head_of("POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n");
        assert_eq!(
            h.body_length().unwrap_err(),
            HttpError::DuplicateContentLength
        );
    }

    #[test]
    fn conflicting_content_length_rejected() {
        let h = head_of("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n");
        assert_eq!(
            h.body_length().unwrap_err(),
            HttpError::ConflictingContentLength
        );
        let h = head_of("POST / HTTP/1.1\r\nContent-Length: 5, 99\r\n\r\n");
        assert_eq!(
            h.body_length().unwrap_err(),
            HttpError::ConflictingContentLength
        );
    }

    #[test]
    fn transfer_encoding_rejected() {
        let h = head_of("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(h.body_length().unwrap_err(), HttpError::TransferEncoding);
        // TE + CL together — the smuggling primitive — also dies.
        let h =
            head_of("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n");
        assert_eq!(h.body_length().unwrap_err(), HttpError::TransferEncoding);
    }

    #[test]
    fn framing_headers_are_matched_in_any_case() {
        // `Head` keeps names as sent, so each framing rule compares them
        // case-insensitively: no spelling slips a header past one.
        for (raw, want) in [
            (
                "TRANSFER-ENCODING: chunked\r\nContent-Length: 4",
                Err(HttpError::TransferEncoding),
            ),
            (
                "transfer-Encoding: chunked",
                Err(HttpError::TransferEncoding),
            ),
            (
                "content-length: 5\r\nContent-LENGTH: 5",
                Err(HttpError::DuplicateContentLength),
            ),
            (
                "CONTENT-LENGTH: 5\r\ncontent-length: 6",
                Err(HttpError::ConflictingContentLength),
            ),
            ("Content-LENGTH: 7", Ok(Some(7))),
        ] {
            let head = format!("POST / HTTP/1.1\r\n{raw}\r\n\r\n");
            assert_eq!(head_of(&head).body_length(), want, "{raw:?}");
        }
        assert!(!head_of("GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n").keep_alive());
        assert!(head_of("GET / HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn non_numeric_content_length_rejected() {
        for bad in ["abc", "5x", "-1", "+5", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length:{bad}\r\n\r\n");
            let h = head_of(&raw);
            assert!(
                matches!(h.body_length(), Err(HttpError::Malformed(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn malformed_request_lines_rejected() {
        for raw in [
            "GET /\r\n\r\n",                // no version
            "GET  / HTTP/1.1\r\n\r\n",      // double space → empty part
            "GET / HTTP/1.1 extra\r\n\r\n", // 4 parts
            "get / HTTP/1.1\r\n\r\n",       // lowercase method
            "GET nopath HTTP/1.1\r\n\r\n",  // target without /
            "\r\n\r\n",                     // empty request line
        ] {
            assert!(
                matches!(parse_head(raw.as_bytes()), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn unknown_method_and_version_rejected_with_status() {
        let e = parse_head(b"DELETE /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(e, HttpError::UnsupportedMethod("DELETE".into()));
        assert_eq!(e.status(), 501);
        let e = parse_head(b"GET /x HTTP/2\r\n\r\n").unwrap_err();
        assert_eq!(e, HttpError::UnsupportedVersion("HTTP/2".into()));
        assert_eq!(e.status(), 505);
    }

    #[test]
    fn folded_and_spaced_headers_rejected() {
        let raw = b"GET / HTTP/1.1\r\nX: a\r\n b\r\n\r\n";
        assert!(matches!(parse_head(raw), Err(HttpError::Malformed(_))));
        let raw = b"GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\n";
        assert!(matches!(parse_head(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn keep_alive_defaults_per_version() {
        assert!(head_of("GET / HTTP/1.1\r\n\r\n").keep_alive());
        assert!(!head_of("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        let h = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!h.keep_alive());
        let h = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(h.keep_alive());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("%2Fa%20b", false), "/a b");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("bad%2", false), "bad%2");
        assert_eq!(percent_decode("bad%zz", false), "bad%zz");
    }

    #[test]
    fn build_request_taints_every_field() {
        let h = head_of(
            "POST /post?q=x%27%20OR HTTP/1.1\r\nHost: h\r\nCookie: sid=abc; theme=dark\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\n",
        );
        let req = build_request(&h, Some(b"body=hello+world&n=2"));
        assert_eq!(req.path(), "/post");
        // Every network-derived field carries the untrusted label.
        assert!(req.raw_path().unwrap().all_bytes_have::<UntrustedData>());
        assert!(req.param("q").unwrap().all_bytes_have::<UntrustedData>());
        assert_eq!(req.param("q").unwrap().as_str(), "x' OR");
        assert!(req.param("body").unwrap().all_bytes_have::<UntrustedData>());
        assert_eq!(req.param("body").unwrap().as_str(), "hello world");
        assert!(req.cookie("sid").unwrap().all_bytes_have::<UntrustedData>());
        assert!(req
            .cookie("theme")
            .unwrap()
            .all_bytes_have::<UntrustedData>());
        assert!(req
            .header("host")
            .unwrap()
            .all_bytes_have::<UntrustedData>());
        assert!(req
            .header("cookie")
            .unwrap()
            .all_bytes_have::<UntrustedData>());
        assert!(req.body().unwrap().all_bytes_have::<UntrustedData>());
    }

    #[test]
    fn query_never_reaches_routing() {
        let h = head_of("GET /view%2Fsub?id=1 HTTP/1.1\r\n\r\n");
        let req = build_request(&h, None);
        assert_eq!(req.path(), "/view/sub", "path decoded for routing");
        assert_eq!(req.raw_path().unwrap().as_str(), "/view%2Fsub?id=1");
    }
}
