//! What crossing the taint boundary costs, as counts (a time would move
//! with the host): heap allocations of `parse_head` and `build_request` on
//! the benchmark's own request shapes, of a field's first and second
//! read, of a header lookup, and of one keep-alive round of
//! `serve_connection` on the edge's side of the app; and the label
//! table's size across warm builds — a warm request interns nothing.
//!
//! One `#[test]` in its own process: the counting allocator is the
//! process's allocator, and the label table is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Read, Write};

use resin_core::{FlowError, LabelTable, UntrustedData};
use resin_net::{build_request, parse_head, serve_connection, Limits};
use resin_web::{serve_request, Request, Response, WebApp};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter with no destructor and no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|n| n.get());
    let out = f();
    (ALLOCS.with(|n| n.get()) - before, out)
}

const SID: &str = "sid-0123456789abcdef0123456789abcdef";

/// What a browser sends besides the request line, as the benchmark's
/// forum workloads send it: five headers, three cookies.
fn browser_headers(out: &mut String) {
    out.push_str(
        "Host: forum.example.org\r\n\
         User-Agent: Mozilla/5.0 (X11; Linux x86_64; rv:128.0) Gecko/20100101 Firefox/128.0\r\n\
         Accept: text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,*/*;q=0.8\r\n\
         Accept-Language: en-US,en;q=0.5\r\n\
         Cookie: sid=",
    );
    out.push_str(SID);
    out.push_str("; theme=dark; tz=Europe%2FLisbon\r\n");
}

/// `forum_read`'s request: one query parameter.
fn get_view() -> String {
    let mut out = "GET /view?id=17 HTTP/1.1\r\n".to_string();
    browser_headers(&mut out);
    out.push_str("\r\n");
    out
}

/// `forum_write`'s request head and its ≈1 KB form body: prose with a
/// space every few letters and an HTML special now and then, form-encoded.
fn post_form() -> (String, String) {
    let mut form = "body=".to_string();
    for i in 0..900 {
        match i % 20 {
            0 => form.push_str("%3C"),
            5 | 11 | 16 => form.push('+'),
            _ => form.push((b'a' + (i % 26) as u8) as char),
        }
    }
    let mut head = "POST /post HTTP/1.1\r\n".to_string();
    browser_headers(&mut head);
    head.push_str(&format!(
        "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n",
        form.len()
    ));
    (head, form)
}

/// An in-memory duplex: reads from `input`, writes into `output`, whose
/// room is reserved up front so the duplex itself allocates nothing.
struct Duplex {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
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

/// The one-line app: it reads nothing and answers `ok`.
struct OneLine;

impl WebApp for OneLine {
    fn handle(&self, _: &Request, resp: &mut Response) -> Result<(), FlowError> {
        resp.echo_str("ok")
    }
}

/// Allocations of one `serve_connection` over `rounds` keep-alive copies
/// of `request`, sent back to back, then EOF.
fn connection(request: &str, rounds: usize) -> u64 {
    let mut duplex = Duplex {
        input: Cursor::new(request.repeat(rounds).into_bytes()),
        output: Vec::with_capacity(64 * 1024),
    };
    let (n, stats) =
        allocations(|| serve_connection(&mut duplex, &OneLine, Limits::default()).unwrap());
    assert_eq!(stats.served, rounds as u64);
    n
}

#[test]
fn a_warm_request_crosses_the_boundary_in_a_bounded_number_of_allocations() {
    let get = get_view();
    let (post, form) = post_form();
    assert!((900..1100).contains(&form.len()), "{}", form.len());

    // Warm: the thread's source labels are interned, which happens when
    // a field of each source is first read.
    for _ in 0..2 {
        let req = build_request(&parse_head(get.as_bytes()).unwrap(), None);
        req.param("id").unwrap();
        req.header("host").unwrap();
        req.cookie("sid").unwrap();
        let req = build_request(&parse_head(post.as_bytes()).unwrap(), Some(form.as_bytes()));
        req.param("body").unwrap();
    }

    let (n, head) = allocations(|| parse_head(get.as_bytes()).unwrap());
    assert!(n <= 1, "parse_head (GET): {n} allocations");
    let (n, req) = allocations(|| build_request(&head, None));
    assert!(n <= 2, "build_request (GET): {n} allocations");
    // A field is tainted when first read, once: a second read allocates
    // nothing, and `param_or_empty` only its caller's clone.
    let (n, id) = allocations(|| req.param("id").unwrap().as_str().to_string());
    assert!(n <= 2, "first read: {n} allocations");
    assert_eq!(id, "17");
    let (n, _) = allocations(|| req.param("id").unwrap().len());
    assert_eq!(n, 0, "second read");
    let (n, _) = allocations(|| req.param_or_empty("id"));
    assert_eq!(n, 1, "param_or_empty");
    req.header("user-agent").unwrap();
    let (n, _) = allocations(|| req.header("User-Agent").unwrap().len());
    assert_eq!(n, 0, "a header looks up in place, in any case");
    assert_eq!(req.cookie("tz").unwrap().as_str(), "Europe%2FLisbon");

    let (n, head) = allocations(|| parse_head(post.as_bytes()).unwrap());
    assert!(n <= 1, "parse_head (POST): {n} allocations");
    let body = Some(form.as_bytes());
    let (n, req) = allocations(|| build_request(&head, body));
    assert!(n <= 4, "build_request (POST): {n} allocations");
    let text = req.param("body").unwrap();
    assert!(
        text.as_str().starts_with("<bcde ghijk "),
        "{}",
        text.as_str()
    );
    assert!(text.all_bytes_have::<UntrustedData>());

    // One keep-alive round of a warm connection, less what serving the
    // request costs the app: the head's header list, the read buffer the
    // request moves in, its field index, and the response head.
    connection(&get, 2);
    let round = connection(&get, 3) - connection(&get, 2);
    let head = parse_head(get.as_bytes()).unwrap();
    let req = build_request(&head, None);
    let (app, page) = allocations(|| serve_request(&OneLine, &req));
    assert_eq!(page.body, "ok");
    let edge = round - app;
    assert!(
        edge <= 4,
        "keep-alive round: {round} allocations, {app} of them the app's"
    );

    // Steady state interns nothing: no label, no policy.
    let table = LabelTable::global();
    let interned = || {
        let stats = table.stats();
        (stats.labels, stats.policies)
    };
    let before = interned();
    for _ in 0..1000 {
        let req = build_request(&parse_head(get.as_bytes()).unwrap(), None);
        req.param("id").unwrap();
        req.cookie("sid").unwrap();
        let req = build_request(&parse_head(post.as_bytes()).unwrap(), body);
        req.param("body").unwrap();
    }
    assert_eq!(interned(), before);
}
