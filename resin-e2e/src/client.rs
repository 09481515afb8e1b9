//! The closed-loop keep-alive client: generated request bytes out, one
//! response in, latency in nanoseconds, every response judged.
//!
//! The reader scans for the end of the head incrementally and then counts
//! `Content-Length` bytes; it never re-decodes what it has already read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::check::{judge_sampled, posted_id, Expect, Leak, Tally};
use crate::gen::{fnv1a, FNV_OFFSET};
use crate::host::{server_cpu_ns, CLIENT_THREAD_PREFIX};

/// Every request of a workload, generated up front: one byte buffer and,
/// per request, its slice and what must come back.
#[derive(Default)]
pub struct RequestStream {
    bytes: Vec<u8>,
    reqs: Vec<(Range<usize>, Expect)>,
}

impl RequestStream {
    pub fn push(&mut self, expect: Expect, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        write(&mut self.bytes);
        self.reqs.push((start..self.bytes.len(), expect));
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.reqs[i].0.clone()]
    }

    pub fn expect(&self, i: usize) -> &Expect {
        &self.reqs[i].1
    }

    /// FNV of the whole request stream: two runs that print the same hash
    /// sent the program the same bytes in the same order.
    pub fn hash(&self) -> u64 {
        fnv1a(FNV_OFFSET, &self.bytes)
    }
}

/// One keep-alive connection. Non-blocking: the client polls instead of
/// sleeping, so its core never idles between a request and its response.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as earlier responses.
    consumed: usize,
    chunk: Box<[u8; 16 * 1024]>,
}

/// A response inside the connection's buffer; valid until the next `recv`.
pub struct Reply {
    pub status: u16,
    body: Range<usize>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parses a complete response head: status and `Content-Length`.
pub fn parse_response_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let status = head
        .get(9..12)
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| d.parse::<u16>().ok())
        .ok_or_else(|| bad("no status code"))?;
    let mut length = None;
    for line in head.split(|&b| b == b'\n') {
        if let Some(v) = line.strip_prefix(b"Content-Length: ") {
            length = std::str::from_utf8(v)
                .ok()
                .and_then(|v| v.trim().parse().ok());
        }
    }
    Ok((status, length.ok_or_else(|| bad("no Content-Length"))?))
}

/// A server that stops answering must fail the request, not hang the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
            chunk: Box::new([0u8; 16 * 1024]),
        })
    }

    /// Writes one request without waiting for anything.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        let mut rest = request;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Polls until at least one more byte has arrived.
    fn fill(&mut self, since: Instant) -> io::Result<()> {
        loop {
            match self.stream.read(&mut self.chunk[..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if since.elapsed() > REPLY_TIMEOUT {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads exactly one response; bytes of the next one stay buffered.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let since = Instant::now();
        if self.consumed == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.consumed);
        }
        self.consumed = 0;
        let mut scanned = 0usize;
        let (status, body_start, total) = loop {
            // Resume three bytes back so a terminator split across reads
            // is still seen; everything before that is never rescanned.
            let from = scanned.saturating_sub(3);
            if let Some(pos) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                let body_start = from + pos + 4;
                let (status, len) = parse_response_head(&self.buf[..body_start])?;
                break (status, body_start, body_start + len);
            }
            scanned = self.buf.len();
            self.fill(since)?;
        };
        while self.buf.len() < total {
            self.fill(since)?;
        }
        self.consumed = total;
        Ok(Reply {
            status,
            body: body_start..total,
        })
    }

    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body.clone()]
    }
}

/// What one timed (or warm-up) pass over a slice of the stream produced.
pub struct Pass {
    /// Per-request latency, ns, in completion order per client.
    pub latencies_ns: Vec<u64>,
    pub wall_ns: u64,
    /// Server-side CPU over the pass (client threads left out).
    pub server_cpu_ns: u64,
    pub tally: Tally,
    /// `(request index, acknowledged post id)` for `Expect::Posted`.
    pub acks: Vec<(u32, i64)>,
}

/// Requests in flight per connection. Two, so the server finds its next
/// request already waiting when it finishes one and never sleeps on the
/// socket: on this sandbox a sleeping vCPU's wake-up costs 25 to 80 µs
/// depending on the host's mood, which would be most of a request.
pub const WINDOW: usize = 2;

/// Drives `range` of the stream over the connections, request `i` on
/// connection `i % conns`, each connection from its own named thread.
pub fn run_pass(
    conns: &mut [Conn],
    stream: &RequestStream,
    range: Range<usize>,
    full_body: &(dyn Fn(u32) -> String + Sync),
) -> Result<Pass, Leak> {
    let clients = conns.len();
    let cpu_before = server_cpu_ns();
    let started = Instant::now();
    let results: Vec<Result<Pass, Leak>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let range = range.clone();
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD_PREFIX}-{c}"))
                    .spawn_scoped(scope, move || {
                        let mut pass = Pass {
                            latencies_ns: Vec::with_capacity(range.len() / clients + 1),
                            wall_ns: 0,
                            server_cpu_ns: 0,
                            tally: Tally::default(),
                            acks: Vec::new(),
                        };
                        let mine: Vec<usize> = range.filter(|i| i % clients == c).collect();
                        let mut sent_at = [Instant::now(); WINDOW];
                        let mut alive = true;
                        for (k, &i) in mine.iter().take(WINDOW).enumerate() {
                            sent_at[k % WINDOW] = Instant::now();
                            alive &= conn.send(stream.bytes(i)).is_ok();
                        }
                        for (k, &i) in mine.iter().enumerate() {
                            let reply = if alive {
                                conn.recv()
                            } else {
                                Err(io::ErrorKind::BrokenPipe.into())
                            };
                            let ns = sent_at[k % WINDOW].elapsed().as_nanos() as u64;
                            let Ok(reply) = reply else {
                                // A transport failure is a failed request;
                                // the connection cannot be trusted further.
                                pass.tally.attempted += 1;
                                pass.tally.failed += 1;
                                break;
                            };
                            // Refill the window before judging, so the
                            // server always has its next request waiting.
                            if let Some(&next) = mine.get(k + WINDOW) {
                                sent_at[k % WINDOW] = Instant::now();
                                alive = conn.send(stream.bytes(next)).is_ok();
                            }
                            pass.latencies_ns.push(ns);
                            let body = conn.body(&reply);
                            let expect = stream.expect(i);
                            pass.tally.record(judge_sampled(
                                i,
                                expect,
                                reply.status,
                                body,
                                full_body,
                            ))?;
                            if *expect == Expect::Posted {
                                if let Some(id) = posted_id(body) {
                                    pass.acks.push((i as u32, id));
                                }
                            }
                        }
                        Ok(pass)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu = server_cpu_ns().saturating_sub(cpu_before);
    let mut merged = Pass {
        latencies_ns: Vec::with_capacity(range.len()),
        wall_ns,
        server_cpu_ns: cpu,
        tally: Tally::default(),
        acks: Vec::new(),
    };
    for r in results {
        let p = r?;
        merged.latencies_ns.extend(p.latencies_ns);
        merged.tally.add(p.tally);
        merged.acks.extend(p.acks);
    }
    // Requests cut off by a dead connection were attempted and failed.
    let missing = range.len() as u64 - merged.tally.attempted.min(range.len() as u64);
    merged.tally.attempted += missing;
    merged.tally.failed += missing;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn response_head_yields_status_and_length() {
        let head =
            b"HTTP/1.1 403 Forbidden\r\nContent-Length: 31\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(parse_response_head(head).unwrap(), (403, 31));
        assert!(parse_response_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_response_head(b"garbage").is_err());
    }

    #[test]
    fn reader_handles_a_response_split_at_every_byte() {
        // The server dribbles the response one byte per write, so the head
        // terminator and the body both arrive split across reads.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let response =
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut req = [0u8; 64];
            for _ in 0..2 {
                let n = s.read(&mut req).unwrap();
                assert!(n > 0);
                for b in response {
                    s.write_all(&[*b]).unwrap();
                }
            }
        });
        let mut conn = Conn::connect(addr).unwrap();
        for _ in 0..2 {
            conn.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let reply = conn.recv().unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(conn.body(&reply), b"hello");
        }
        server.join().unwrap();
    }

    #[test]
    fn stream_hash_follows_the_bytes() {
        let build = |target: &str| {
            let mut s = RequestStream::default();
            s.push(Expect::Posted, |out| {
                out.extend_from_slice(target.as_bytes())
            });
            s
        };
        assert_eq!(build("a").hash(), build("a").hash());
        assert_ne!(build("a").hash(), build("b").hash());
        assert_eq!(build("abc").bytes(0), b"abc");
    }
}
