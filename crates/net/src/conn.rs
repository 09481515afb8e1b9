//! One connection's request/response loop.
//!
//! [`serve_connection`] is generic over `Read + Write` so the whole
//! state machine — incremental head scanning, length-delimited body
//! reads, keep-alive with leftover-byte pipelining, and fail-closed
//! error responses — is testable over in-memory streams; the TCP server
//! in [`crate::NetServer`] hands it real sockets.

use std::fmt::Write as _;
use std::io::{self, IoSlice, Read, Write};

use resin_web::{serve_request, ServedPage, WebApp};

use crate::http::{self, HeadIndex, HttpError};

/// Largest request head (line + headers) a connection takes; beyond
/// it the connection answers 431 and closes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest declared body a connection takes; beyond it the connection
/// answers 413 *before* reading the body, and closes.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// The `limits` argument of [`serve_connection`]. It sets nothing: the
/// parse caps are fixed at 16 KiB of head and 1 MiB of body.
#[derive(Debug, Default, Clone, Copy)]
pub struct Limits(());

/// What one connection did, for logs and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests fully served (including ones a gate blocked with 403).
    pub served: u64,
    /// Requests rejected at the parse boundary.
    pub rejected: u64,
}

/// Finds the end of the head: the index one past the first blank line.
///
/// The scan looks for `\n\n` or `\n\r\n` rather than only `\r\n\r\n`,
/// so heads with *bare-LF* line endings still terminate and can be
/// rejected with 400 by the strict parser instead of hanging the read
/// loop until the idle timeout.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        302 => "Found",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Writes the head, then the body slice behind it, as one vectored write
/// where the stream takes it: the body is never copied behind the head,
/// and the head is written into one buffer, sized once.
fn write_response(
    stream: &mut impl Write,
    status: u16,
    headers: &[(String, String)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = reason(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let digits = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let size = "HTTP/1.1 ".len()
        + digits(status.into())
        + 1
        + reason.len()
        + 2
        + headers
            .iter()
            .map(|(name, value)| name.len() + 2 + value.len() + 2)
            .sum::<usize>()
        + "Content-Length: ".len()
        + digits(body.len())
        + "\r\nConnection: ".len()
        + connection.len()
        + 4;
    let mut head = String::with_capacity(size);
    let fits = "a String takes every write";
    write!(head, "HTTP/1.1 {status} {reason}\r\n").expect(fits);
    for (name, value) in headers {
        // Gate-approved headers only; the splitting guard already ran.
        write!(head, "{name}: {value}\r\n").expect(fits);
    }
    let length = body.len();
    write!(
        head,
        "Content-Length: {length}\r\nConnection: {connection}\r\n\r\n"
    )
    .expect(fits);
    debug_assert_eq!(head.len(), size, "{head:?}");
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
    let mut parts = &mut parts[..];
    // Advancing drops each slice written in full, an empty body with the
    // head's last byte.
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn write_error(stream: &mut impl Write, err: &HttpError) -> io::Result<()> {
    let status = err.status();
    write_response(stream, status, &[], &format!("{err}\n"), false)
}

/// Sends the dispatched page. A request a gate blocked mid-response
/// must not ship its partial body with a success status: it goes out as
/// a 403 with the violation named, exactly mirroring in-process
/// [`ServedPage::blocked`] semantics.
fn write_page(stream: &mut impl Write, page: &ServedPage, keep_alive: bool) -> io::Result<()> {
    if page.blocked() && page.status < 400 {
        // Deliberately generic: the violation quotes no data, but which
        // policy refused, at which bytes, is for the operator
        // (`ServedPage::outcome`), not for a client probing the guards.
        let why = "blocked by data flow assertion\n";
        return write_response(stream, 403, &[], why, keep_alive);
    }
    write_response(stream, page.status, &page.headers, &page.body, keep_alive)
}

/// Reads at least one more byte into `buf`, distinguishing the three
/// idle outcomes: `Ok(true)` got data, `Ok(false)` clean EOF /
/// idle-timeout, `Err` a real transport failure.
fn fill(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(false),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Ok(false)
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
        Err(e) => Err(e),
    }
}

/// Serves requests off one stream until the peer closes, an error form
/// forces a close, or the idle timeout fires (surfaced by the transport
/// as `WouldBlock`/`TimedOut` on a socket with a read timeout).
///
/// Bytes past the end of one request stay buffered and seed the next
/// iteration, so pipelined requests are served in order without a
/// wasted read.
pub fn serve_connection<S: Read + Write>(
    stream: &mut S,
    app: &dyn WebApp,
    _limits: Limits,
) -> io::Result<ConnStats> {
    let mut stats = ConnStats::default();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Phase 1: accumulate a full head.
        let end = loop {
            if let Some(end) = head_end(&buf) {
                break end;
            }
            if buf.len() > MAX_HEAD_BYTES {
                stats.rejected += 1;
                write_error(stream, &HttpError::HeadTooLarge)?;
                return Ok(stats);
            }
            if !fill(stream, &mut buf)? {
                if buf.is_empty() {
                    // Clean close between requests (or idle timeout).
                    return Ok(stats);
                }
                stats.rejected += 1;
                write_error(stream, &HttpError::Truncated)?;
                return Ok(stats);
            }
        };
        if end > MAX_HEAD_BYTES {
            stats.rejected += 1;
            write_error(stream, &HttpError::HeadTooLarge)?;
            return Ok(stats);
        }

        // Phase 2: validate the head and index it where it lies.
        let parsed = http::parse_head(&buf[..end]).and_then(|head| {
            let len = head.body_length()?.unwrap_or(0);
            Ok((HeadIndex::of(&head, &buf[..end]), len, head.keep_alive()))
        });
        let (index, body_len, keep_alive) = match parsed {
            Ok(ok) => ok,
            Err(e) => {
                stats.rejected += 1;
                write_error(stream, &e)?;
                return Ok(stats);
            }
        };
        if body_len > MAX_BODY_BYTES {
            stats.rejected += 1;
            write_error(stream, &HttpError::BodyTooLarge)?;
            return Ok(stats);
        }

        // Phase 3: read the declared body behind the head, into the same
        // buffer, and move head and body into the request together. Bytes
        // of the next request, if any, stay behind.
        let len = end + body_len;
        while buf.len() < len {
            if !fill(stream, &mut buf)? {
                stats.rejected += 1;
                write_error(stream, &HttpError::Truncated)?;
                return Ok(stats);
            }
        }
        let rest = buf.split_off(len);
        let req = index.finish_in(std::mem::replace(&mut buf, rest), end);

        // Phase 4: dispatch; the request's fields are tainted as read.
        let page = serve_request(app, &req);
        stats.served += 1;
        write_page(stream, &page, keep_alive)?;
        stream.flush()?;
        if !keep_alive {
            return Ok(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{FlowError, TaintedString};
    use resin_web::{Request, Response};
    use std::io::Cursor;
    use std::sync::Mutex;

    /// An in-memory duplex: reads from `input`, writes into `output`.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Duplex {
        fn new(input: &[u8]) -> Self {
            Duplex {
                input: Cursor::new(input.to_vec()),
                output: Vec::new(),
            }
        }

        fn response_text(&self) -> String {
            String::from_utf8_lossy(&self.output).into_owned()
        }
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Echoes the `q` parameter (escaped) at `/echo`; 404 otherwise.
    struct EchoApp;

    impl WebApp for EchoApp {
        fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
            if req.path() == "/echo" {
                let q = req.param_or_empty("q");
                resp.echo(resin_web::html_escape(&q))?;
            } else {
                resp.set_status(404);
                resp.echo_str("nope")?;
            }
            Ok(())
        }
    }

    /// Takes at most `k` bytes per call, across slices, and records the
    /// address of every slice it was offered.
    struct ShortWriter {
        k: usize,
        out: Vec<u8>,
        offered: Vec<usize>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.k;
            for b in bufs {
                self.offered.push(b.as_ptr() as usize);
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.k - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The response bytes as one buffer: head, then body.
    fn expected_bytes(
        status: u16,
        headers: &[(String, String)],
        body: &str,
        keep_alive: bool,
    ) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", status, reason(status));
        for (name, value) in headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
        let conn = if keep_alive { "keep-alive" } else { "close" };
        out.push_str(&format!("Connection: {conn}\r\n\r\n{body}"));
        out.into_bytes()
    }

    #[test]
    fn short_writes_send_identical_bytes_and_never_copy_the_body() {
        let headers = [
            ("Content-Type".to_string(), "text/html".to_string()),
            ("Set-Cookie".to_string(), "sid=abc".to_string()),
        ];
        let long = "<p>row</p>".repeat(700);
        let cases = [
            (200, &headers[..], "<p>hello</p>", true),
            (404, &headers[..0], "nope", false),
            (302, &headers[1..], "", true),
            (200, &headers[..0], long.as_str(), true),
        ];
        for (status, headers, body, keep_alive) in cases {
            let want = expected_bytes(status, headers, body, keep_alive);
            let head_len = want.len() - body.len();
            for k in [1, 7, head_len, want.len()] {
                let mut w = ShortWriter {
                    k,
                    out: Vec::new(),
                    offered: Vec::new(),
                };
                write_response(&mut w, status, headers, body, keep_alive).unwrap();
                assert!(w.out == want, "status {status}, k {k}");
                if !body.is_empty() {
                    // The body went out from the caller's own buffer.
                    assert!(
                        w.offered.contains(&(body.as_ptr() as usize)),
                        "status {status}, k {k}: body copied"
                    );
                }
            }
        }
    }

    /// Every field of `req`: its name, text and spans.
    fn dump(req: &Request) -> String {
        let mut out = format!("{:?} {:?}\n", req.method(), req.path());
        let mut field = |kind: &str, name: &str, value: &TaintedString| {
            let spans: Vec<_> = value.spans().collect();
            writeln!(out, "{kind} {name:?} {:?} {spans:?}", value.as_str()).unwrap();
        };
        if let Some(v) = req.raw_path() {
            field("path", "", v);
        }
        req.params().for_each(|(k, v)| field("param", k, v));
        req.headers().for_each(|(k, v)| field("header", k, v));
        req.cookies().for_each(|(k, v)| field("cookie", k, v));
        if let Some(v) = req.body() {
            field("body", "", v);
        }
        out
    }

    /// Records every request it serves.
    struct Recorder(Mutex<Vec<String>>);

    impl WebApp for Recorder {
        fn handle(&self, req: &Request, _: &mut Response) -> Result<(), FlowError> {
            self.0.lock().unwrap().push(dump(req));
            Ok(())
        }
    }

    #[test]
    fn a_connection_builds_what_build_request_builds() {
        // One keep-alive stream, so each request but the last is read
        // with the next one's bytes behind it.
        let requests: [(&str, &[u8]); 8] = [
            ("GET /a%2Fb?q=%C3%A9&q=2&&x HTTP/1.1\r\nHost: h\r\nHOST: H2\r\n", b""),
            (
                "GET / HTTP/1.1\r\nCookie: sid = abc ;  theme=dark\r\nCOOKIE:  a=b=c ;; x ;\r\n",
                b"",
            ),
            (
                "POST /p?a=query&b=1 HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\n",
                b"a=form&c=%2B+d",
            ),
            ("POST /p HTTP/1.1\r\nContent-Type: text/plain\r\n", b"a=b"),
            ("POST /p HTTP/1.1\r\nCONTENT-TYPE: TEXT/PLAIN\r\n", b"a=b"),
            ("POST /p HTTP/1.1\r\nX-Empty:\r\n", b"q=\xff%41+x&k="),
            ("GET /p?x=1 HTTP/1.1\r\n", b"a=b\xc3"),
            ("GET /caf\u{e9}?n=%FF HTTP/1.1\r\n", b""),
        ];
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for (head, body) in requests {
            let mut head = head.to_string();
            if !body.is_empty() {
                head.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            head.push_str("\r\n");
            let parsed = http::parse_head(head.as_bytes()).unwrap();
            let body = (!body.is_empty()).then_some(body);
            want.push(dump(&http::build_request(&parsed, body)));
            stream.extend_from_slice(head.as_bytes());
            stream.extend_from_slice(body.unwrap_or_default());
        }
        let app = Recorder(Mutex::new(Vec::new()));
        let mut d = Duplex::new(&stream);
        let stats = serve_connection(&mut d, &app, Limits::default()).unwrap();
        assert_eq!(stats.served, requests.len() as u64);
        assert_eq!(app.0.into_inner().unwrap(), want);
    }

    #[test]
    fn a_stream_that_takes_nothing_is_an_error() {
        let mut w = ShortWriter {
            k: 0,
            out: Vec::new(),
            offered: Vec::new(),
        };
        let err = write_response(&mut w, 200, &[], "x", true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    fn run(input: &[u8]) -> (ConnStats, String) {
        let mut d = Duplex::new(input);
        let stats = serve_connection(&mut d, &EchoApp, Limits::default()).unwrap();
        (stats, d.response_text())
    }

    #[test]
    fn head_end_scanning() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(head_end(b"a\n\nrest"), Some(3), "bare-LF head terminates");
        assert_eq!(head_end(b"a\n\r\nrest"), Some(4));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
    }

    #[test]
    fn serves_a_simple_get() {
        let (stats, out) = run(b"GET /echo?q=hi HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(
            stats,
            ConnStats {
                served: 1,
                rejected: 0
            }
        );
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Connection: close"));
        assert!(out.ends_with("hi"));
    }

    #[test]
    fn pipelined_requests_share_the_buffer() {
        let (stats, out) =
            run(b"GET /echo?q=one HTTP/1.1\r\n\r\nGET /echo?q=two HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(stats.served, 2);
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2);
        let one = out.find("one").unwrap();
        let two = out.find("two").unwrap();
        assert!(one < two, "responses in request order");
    }

    #[test]
    fn post_body_reaches_params() {
        let (stats, out) =
            run(b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nq=yo");
        assert_eq!(stats.served, 1);
        assert!(out.ends_with("yo"), "{out}");
    }

    #[test]
    fn smuggling_forms_close_with_400() {
        for (raw, want) in [
            (
                &b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"[..],
                "conflicting Content-Length",
            ),
            (
                &b"POST /echo HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"[..],
                "duplicate Content-Length",
            ),
            (
                &b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\nContent-LENGTH: 3\r\n\r\nabc"[..],
                "duplicate Content-Length",
            ),
            (
                &b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
                "Transfer-Encoding",
            ),
            (
                &b"POST /echo HTTP/1.1\r\nTRANSFER-ENCODING: chunked\r\n\r\n0\r\n\r\n"[..],
                "Transfer-Encoding",
            ),
            (&b"GET /echo HTTP/1.1\nHost: x\n\n"[..], "bare LF"),
        ] {
            let (stats, out) = run(raw);
            assert_eq!(
                stats,
                ConnStats {
                    served: 0,
                    rejected: 1
                },
                "{want}"
            );
            assert!(out.starts_with("HTTP/1.1 400 "), "{want}: {out}");
            assert!(out.contains("Connection: close"), "{want}");
            assert!(out.contains(want), "{want}: {out}");
        }
    }

    #[test]
    fn oversized_head_answers_431() {
        let mut raw = b"GET /echo HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        let (stats, out) = run(&raw);
        assert_eq!(stats.rejected, 1);
        assert!(out.starts_with("HTTP/1.1 431 "), "{out}");
    }

    #[test]
    fn oversized_body_answers_413_without_reading_it() {
        let raw = b"POST /echo HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let (stats, out) = run(raw);
        assert_eq!(stats.rejected, 1);
        assert!(out.starts_with("HTTP/1.1 413 "), "{out}");
    }

    #[test]
    fn truncated_requests_answer_400() {
        // Head never completes.
        let (stats, out) = run(b"GET /echo HT");
        assert_eq!(stats.rejected, 1);
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        assert!(out.contains("closed mid-request"));
        // Body shorter than declared.
        let (stats, out) = run(b"POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert_eq!(stats.rejected, 1);
        assert!(out.contains("closed mid-request"), "{out}");
    }

    #[test]
    fn empty_connection_closes_cleanly() {
        let (stats, out) = run(b"");
        assert_eq!(stats, ConnStats::default());
        assert!(out.is_empty());
    }

    #[test]
    fn unsupported_method_and_version_statuses() {
        let (_, out) = run(b"PUT /x HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 501 "), "{out}");
        let (_, out) = run(b"GET /x HTTP/0.9\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 505 "), "{out}");
    }
}
