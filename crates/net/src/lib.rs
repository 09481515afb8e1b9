//! # resin-net — the TCP network edge
//!
//! A blocking HTTP/1.1 front end for RESIN web applications: a
//! [`NetServer`] accepts TCP connections and serves each one on a
//! bounded worker pool, parsing requests incrementally and attaching
//! RESIN taint to **every** network-derived byte at the parse boundary
//! ([`http::build_request`]). Responses route through the same
//! per-request [`Response`](resin_web::Response) gates as in-process
//! dispatch — via [`resin_web::serve_request`] — so the SQL-injection,
//! XSS, and header-splitting assertions fire identically whether a
//! request arrives off a socket or from a test harness.
//!
//! The parser fails closed on every request-smuggling form (bare-CR/LF
//! line endings, duplicate/conflicting `Content-Length`,
//! `Transfer-Encoding`): see [`http::HttpError`].
//!
//! Connections are keep-alive by default (HTTP/1.1 semantics) with an
//! idle timeout enforced through socket read timeouts; pipelined
//! requests are served in order from the connection buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod http;

pub use conn::{serve_connection, ConnStats, Limits};
pub use http::{build_request, parse_head, Head, HttpError};

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use resin_core::sync::mlock;
use resin_web::WebApp;

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Connection-serving worker threads.
    pub workers: usize,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive: Duration,
    /// Accepted connections parked waiting for a worker; beyond this
    /// the accept loop blocks (backpressure at the edge).
    pub queue_depth: usize,
    /// Per-connection parse limits.
    pub limits: Limits,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            keep_alive: Duration::from_secs(5),
            queue_depth: 64,
            limits: Limits::default(),
        }
    }
}

/// The accept-queue: a bounded deque of accepted sockets. `closed`
/// wakes everyone for shutdown.
struct Queue {
    conns: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
    space: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            conns: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Blocks while the queue is full; drops the socket if closed.
    fn push(&self, stream: TcpStream, depth: usize) {
        let mut guard = mlock(&self.conns);
        while guard.0.len() >= depth && !guard.1 {
            guard = mlock_wait(&self.space, guard);
        }
        if guard.1 {
            return;
        }
        guard.0.push_back(stream);
        self.ready.notify_one();
    }

    /// Blocks until a connection or shutdown; `None` means shut down.
    fn pop(&self) -> Option<TcpStream> {
        let mut guard = mlock(&self.conns);
        loop {
            if let Some(stream) = guard.0.pop_front() {
                self.space.notify_one();
                return Some(stream);
            }
            if guard.1 {
                return None;
            }
            guard = mlock_wait(&self.ready, guard);
        }
    }

    fn close(&self) {
        mlock(&self.conns).1 = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Condvar wait that shrugs off poisoning, like
/// [`resin_core::sync::mlock`] does for locks.
fn mlock_wait<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running TCP listener serving a [`WebApp`] over HTTP/1.1.
///
/// Dropping the server shuts it down: the listener closes, queued
/// connections are abandoned, and worker threads are joined. Requests
/// already being served finish their current exchange first.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<Queue>,
    threads: Vec<JoinHandle<()>>,
    served: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop plus `config.workers` serving threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        app: Arc<dyn WebApp>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(Queue::new());
        let served = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::with_capacity(config.workers + 1);

        {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let depth = config.queue_depth;
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => queue.push(s, depth),
                        Err(_) => continue,
                    }
                }
            }));
        }

        for _ in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let app = Arc::clone(&app);
            let served = Arc::clone(&served);
            let rejected = Arc::clone(&rejected);
            let keep_alive = config.keep_alive;
            let limits = config.limits;
            threads.push(std::thread::spawn(move || {
                while let Some(mut stream) = queue.pop() {
                    // The idle timeout rides on the socket read timeout:
                    // a blocked read past it surfaces as WouldBlock and
                    // the connection loop closes cleanly.
                    let _ = stream.set_read_timeout(Some(keep_alive));
                    let _ = stream.set_nodelay(true);
                    if let Ok(stats) = serve_connection(&mut stream, app.as_ref(), limits) {
                        served.fetch_add(stats.served, Ordering::Relaxed);
                        rejected.fetch_add(stats.rejected, Ordering::Relaxed);
                    }
                }
            }));
        }

        Ok(NetServer {
            addr,
            shutdown,
            queue,
            threads,
            served,
            rejected,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served across all connections so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Total requests rejected at the parse boundary so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains workers, and joins all threads.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::FlowError;
    use resin_web::{Request, Response};
    use std::io::{Read, Write};

    struct PingApp;

    impl WebApp for PingApp {
        fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
            if req.path() == "/ping" {
                resp.echo_str("pong")?;
            } else {
                resp.set_status(404);
                resp.echo_str("nope")?;
            }
            Ok(())
        }
    }

    fn read_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    let text = String::from_utf8_lossy(&buf);
                    if let Some(head_end) = text.find("\r\n\r\n") {
                        if let Some(cl) = text
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .and_then(|v| v.trim().parse::<usize>().ok())
                        {
                            if buf.len() >= head_end + 4 + cl {
                                break;
                            }
                        }
                    }
                }
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn serves_over_real_tcp() {
        let mut server =
            NetServer::bind("127.0.0.1:0", Arc::new(PingApp), NetConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.ends_with("pong"), "{resp}");
        server.shutdown();
        assert_eq!(server.served(), 1);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_socket() {
        let mut server =
            NetServer::bind("127.0.0.1:0", Arc::new(PingApp), NetConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let resp = read_response_one(&mut stream);
            assert!(resp.contains("pong"), "{resp}");
            assert!(resp.contains("Connection: keep-alive"), "{resp}");
        }
        drop(stream);
        server.shutdown();
        assert_eq!(server.served(), 3);
    }

    /// Reads exactly one keep-alive response (head + Content-Length body).
    fn read_response_one(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1];
        // Byte-at-a-time is fine for tests: stop at head end, then take
        // the declared body.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(_) => {
                    buf.push(chunk[0]);
                    if buf.ends_with(b"\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let head = String::from_utf8_lossy(&buf).into_owned();
        let cl = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; cl];
        let _ = stream.read_exact(&mut body);
        head + &String::from_utf8_lossy(&body)
    }

    #[test]
    fn concurrent_connections_all_served() {
        let mut server = NetServer::bind(
            "127.0.0.1:0",
            Arc::new(PingApp),
            NetConfig {
                workers: 4,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .write_all(b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n")
                        .unwrap();
                    read_response(&mut stream)
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            assert!(resp.contains("pong"), "{resp}");
        }
        server.shutdown();
        assert_eq!(server.served(), 8);
    }

    #[test]
    fn rejected_requests_counted() {
        let mut server =
            NetServer::bind("127.0.0.1:0", Arc::new(PingApp), NetConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\nbare-lf: yes\n\n")
            .unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        server.shutdown();
        assert_eq!(server.rejected(), 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut server =
            NetServer::bind("127.0.0.1:0", Arc::new(PingApp), NetConfig::default()).unwrap();
        server.shutdown();
        server.shutdown();
        drop(server); // Drop after explicit shutdown must not hang.
    }
}
