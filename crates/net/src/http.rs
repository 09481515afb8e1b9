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
//!    source-specific tag from the moment a handler reads them.
//!    Downstream, the SQL/XSS/splitting assertions key off these labels —
//!    identical to requests built in-process, because both are tainted
//!    by [`untrusted`].
//!
//! [`untrusted`]: resin_web::request::untrusted

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

use resin_web::request::{Field, FieldKind};
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

/// The byte an escape's two characters spell when both are ASCII hex
/// digits.
fn unhex(h: &[u8]) -> Option<u8> {
    let digit = |c: u8| char::from(c).to_digit(16).map(|d| d as u8);
    match *h {
        [hi, lo] => Some(digit(hi)? << 4 | digit(lo)?),
        _ => None,
    }
}

/// Percent-decodes `raw` (plus `+` → space when `form` is set), lossily
/// UTF-8. Invalid escapes pass through verbatim — the value is tainted
/// either way. A value with nothing to decode is borrowed.
fn percent_decode(raw: &str, form: bool) -> Cow<'_, str> {
    let bytes = raw.as_bytes();
    let Some(start) = bytes.iter().position(|&b| b == b'%' || (form && b == b'+')) else {
        return Cow::Borrowed(raw);
    };
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(&bytes[..start]);
    let mut i = start;
    while let Some(&b) = bytes.get(i) {
        let (byte, len) = match b {
            b'%' => match bytes.get(i + 1..i + 3).and_then(unhex) {
                Some(decoded) => (decoded, 3),
                None => (b'%', 1),
            },
            b'+' if form => (b' ', 1),
            b => (b, 1),
        };
        out.push(byte);
        i += len;
    }
    Cow::Owned(match String::from_utf8(out) {
        Ok(text) => text,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    })
}

/// `raw` percent-decoded in form mode or not: `raw` itself when nothing
/// needed decoding, or else the decoded text, appended to `text`.
fn decoded(text: &mut String, raw: Range<usize>, form: bool) -> Range<usize> {
    let owned = match percent_decode(&text[raw.clone()], form) {
        Cow::Borrowed(_) => return raw,
        Cow::Owned(owned) => owned,
    };
    let start = text.len();
    text.push_str(&owned);
    start..text.len()
}

/// Indexes each `name=value` pair of the form-encoded text at `form`,
/// decoded. Empty pairs are skipped, and a pair without `=` has an empty
/// value.
fn index_form(text: &mut String, form: Range<usize>, fields: &mut Vec<Field>) {
    let mut start = form.start;
    while start < form.end {
        let end = text[start..form.end]
            .find('&')
            .map_or(form.end, |n| start + n);
        if end > start {
            let (name, value) = match text[start..end].find('=') {
                Some(n) => (start..start + n, start + n + 1..end),
                None => (start..end, end..end),
            };
            let name = decoded(text, name, true);
            let value = decoded(text, value, true);
            fields.push(Field::new(FieldKind::Param, name, value));
        }
        start = end + 1;
    }
}

/// Where `part` starts in `whole`, of which it is a slice.
fn offset(whole: &[u8], part: &str) -> usize {
    let at = (part.as_ptr() as usize).wrapping_sub(whole.as_ptr() as usize);
    assert!(
        at <= whole.len() && part.len() <= whole.len() - at,
        "a slice of the head lies in the bytes it was parsed from"
    );
    at
}

/// A head's fields, indexed into the buffer its [`Request`] will own: the
/// target, and the headers and cookies, which are never decoded. The rest
/// waits for [`HeadIndex::finish`], when the buffer is the request's and a
/// decoded name or value can be appended to it.
pub(crate) struct HeadIndex {
    method: Method,
    target: Range<usize>,
    /// Whether a body is a form.
    form: bool,
    fields: Vec<Field>,
}

impl HeadIndex {
    /// Indexes `head` in `buf`, the bytes it was parsed from.
    pub(crate) fn of(head: &Head<'_>, buf: &[u8]) -> HeadIndex {
        HeadIndex::new(head, |s| {
            let at = offset(buf, s);
            at..at + s.len()
        })
    }

    /// Indexes `head`, each of whose slices `locate` places in the
    /// request's buffer: the target, then each header's name and value.
    fn new(head: &Head<'_>, mut locate: impl FnMut(&str) -> Range<usize>) -> HeadIndex {
        let target = locate(head.target);
        // One allocation: room for every header, cookie and query pair.
        let pieces = |s: &str, sep: u8| s.bytes().filter(|&b| b == sep).count() + 1;
        let query = head
            .target
            .split_once('?')
            .map_or(0, |(_, q)| pieces(q, b'&'));
        let cookies: usize = head.all("cookie").map(|v| pieces(v, b';')).sum();
        let mut fields = Vec::with_capacity(head.headers.len() + cookies + query);
        for &(name, value) in &head.headers {
            let name_at = locate(name);
            let value_at = locate(value);
            if name.eq_ignore_ascii_case("cookie") {
                let at = |part: &str| {
                    let start = value_at.start + offset(value.as_bytes(), part);
                    start..start + part.len()
                };
                for pair in value.split(';') {
                    let pair = pair.trim();
                    if pair.is_empty() {
                        continue;
                    }
                    let (k, v) = pair.split_once('=').unwrap_or((pair, &pair[pair.len()..]));
                    fields.push(Field::new(FieldKind::Cookie, at(k.trim()), at(v.trim())));
                }
            }
            fields.push(Field::new(FieldKind::Header, name_at, value_at));
        }
        let form = head
            .all("content-type")
            .last()
            .map(|ct| ct.starts_with("application/x-www-form-urlencoded"))
            // No declared type: treat a POSTed body as a form, the
            // common simple-client behavior.
            .unwrap_or(head.method == Method::Post);
        HeadIndex {
            method: head.method,
            target,
            form,
            fields,
        }
    }

    /// The request over `bytes`, the buffer the head was indexed in, with
    /// the body, if one was sent, behind the head's `head_len` bytes.
    pub(crate) fn finish_in(self, bytes: Vec<u8>, head_len: usize) -> Request {
        // The head is UTF-8 (`parse_head` checked every line), so only a
        // body can be taken lossily, as `build_request` takes it.
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        let body = (text.len() > head_len).then_some(head_len..text.len());
        self.finish(text, body)
    }

    /// The request over `text`, which holds the located head and, at
    /// `body`, the body.
    fn finish(mut self, mut text: String, body: Option<Range<usize>>) -> Request {
        let target = self.target.clone();
        let (path, query) = match text[target.clone()].find('?') {
            Some(q) => (
                target.start..target.start + q,
                Some(target.start + q + 1..target.end),
            ),
            None => (target.clone(), None),
        };
        let path = decoded(&mut text, path, false);
        if let Some(query) = query {
            index_form(&mut text, query, &mut self.fields);
        }
        if let Some(body) = body.clone().filter(|_| self.form) {
            index_form(&mut text, body, &mut self.fields);
        }
        Request::from_wire(self.method, text, path, target, body, self.fields)
    }
}

/// Builds the application-level [`Request`] from a validated head and
/// optional body. Every network-derived value is tainted through
/// [`untrusted`](resin_web::request::untrusted), the tainter in-process
/// requests share, when a handler first reads it:
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
///
/// This copies the head's text and the body once, into the one buffer a
/// [`Request`] owns. [`serve_connection`](crate::serve_connection) copies
/// nothing: it indexes the head in the buffer it read it into, reads the
/// body behind it, and moves that buffer into the request.
pub fn build_request(head: &Head<'_>, body: Option<&[u8]>) -> Request {
    // Validation alone is far quicker than a lossy copy's scan.
    let body = body.map(|b| match std::str::from_utf8(b) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(b),
    });
    let body_len = body.as_deref().map_or(0, str::len);
    let head_len: usize = head.headers.iter().map(|(n, v)| n.len() + v.len()).sum();
    // Room for a decoded path, query and form body too: percent-decoding
    // never lengthens a value.
    let mut text = String::with_capacity(head_len + 2 * (head.target.len() + body_len));
    let index = HeadIndex::new(head, |s| {
        let start = text.len();
        text.push_str(s);
        start..text.len()
    });
    let body = body.map(|b| {
        let start = text.len();
        text.push_str(&b);
        start..text.len()
    });
    index.finish(text, body)
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
        assert_eq!(percent_decode("%+a%+", true), "% a% ");
        assert_eq!(percent_decode("a%C3%A9%FF", false), "a\u{e9}\u{fffd}");
    }

    #[test]
    fn an_escape_reads_as_from_str_radix_reads_it() {
        // Two ASCII hex digits, and nothing else: no sign, no other digit.
        for h in (0..=u16::MAX).map(u16::to_be_bytes) {
            let want = std::str::from_utf8(&h)
                .ok()
                .filter(|_| h.iter().all(u8::is_ascii_hexdigit))
                .and_then(|s| u8::from_str_radix(s, 16).ok());
            assert_eq!(unhex(&h), want, "{h:?}");
        }
    }

    #[test]
    fn a_signed_escape_passes_through_verbatim() {
        // `u8::from_str_radix` reads `+a` as 10: a newline, were `%+a` an
        // escape.
        assert_eq!(percent_decode("%+a", false), "%+a");
        assert_eq!(percent_decode("%-a%+0", false), "%-a%+0");
        let req = build_request(&head_of("GET /?q=%+a HTTP/1.1\r\n\r\n"), None);
        assert_eq!(req.param("q").unwrap().as_str(), "% a");
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
