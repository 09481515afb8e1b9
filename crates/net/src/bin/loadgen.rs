//! A keep-alive HTTP smoke driver for the RESIN network edge.
//!
//! Drives a configurable number of persistent connections at a target
//! for a fixed duration, mixing reads (`GET /view`) with writes
//! (`POST /post`, group-committed through the WAL), and **fails** (exit 1)
//! on any non-200 response, short read or connect failure. It does not
//! time requests: throughput and latency are `resin-e2e`'s job.
//!
//! ```text
//! loadgen [--addr HOST:PORT | --spawn] [--conns N] [--duration-ms MS]
//!         [--write-every K] [--sync on|off] [--replica]
//! ```
//!
//! With `--spawn` (the default when no `--addr` is given) the binary
//! self-hosts a durable [`ForumApp`] on an
//! ephemeral port in a temp directory — one command to smoke the whole
//! edge: TCP parse boundary, taint, gates, group-commit WAL. After the
//! run it prints the primary's storage and label-table counters.
//!
//! `--replica` (spawn mode only) additionally ships the primary's store
//! to a second directory, serves it read-only from a second port via
//! [`ForumApp::open_replica`], and verifies over real TCP that replica
//! reads are byte-identical, that a stored XSS payload fails closed on
//! the replica, and that replica writes are refused.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use resin_apps::ForumApp;
use resin_net::{NetConfig, NetServer};
use resin_web::SessionStore;

struct Options {
    addr: Option<String>,
    conns: usize,
    duration: Duration,
    /// Every k-th request is a write; 0 disables writes.
    write_every: usize,
    sync: bool,
    /// Ship to and verify a read replica after the run (spawn mode).
    replica: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT | --spawn] [--conns N] \
         [--duration-ms MS] [--write-every K] [--sync on|off] [--replica]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: None,
        conns: 4,
        duration: Duration::from_millis(2000),
        write_every: 4,
        sync: true,
        replica: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--spawn" => opts.addr = None,
            "--conns" => opts.conns = value("--conns").parse().unwrap_or_else(|_| usage()),
            "--duration-ms" => {
                opts.duration = Duration::from_millis(
                    value("--duration-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            "--write-every" => {
                opts.write_every = value("--write-every").parse().unwrap_or_else(|_| usage())
            }
            "--sync" => opts.sync = value("--sync") == "on",
            "--replica" => opts.replica = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    opts
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Appends one `read` to `buf`; end of stream is an error.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// Reads one `Content-Length`-delimited response; returns
/// `(status_line, body)`.
///
/// The end of the head is found once, on bytes, and `Content-Length`
/// parsed once; after that only the buffer length is compared. Status
/// and body are decoded from their own byte ranges when all of it is in.
fn read_response(stream: &mut TcpStream) -> io::Result<(String, String)> {
    let mut buf = Vec::new();
    let mut from = 0;
    let body_at = loop {
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        // Resume three bytes back: the terminator may straddle two reads.
        from = buf.len().saturating_sub(3);
        read_more(stream, &mut buf)?;
    };
    let head = std::str::from_utf8(&buf[..body_at])
        .map_err(|e| invalid(format!("response head is not UTF-8: {e}")))?;
    let len = match head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
    {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|e| invalid(format!("bad Content-Length {v:?}: {e}")))?,
        None => 0,
    };
    let status = head.lines().next().unwrap_or("").to_string();
    let end = body_at + len;
    while buf.len() < end {
        read_more(stream, &mut buf)?;
    }
    let body = String::from_utf8_lossy(&buf[body_at..end]).into_owned();
    Ok((status, body))
}

/// Sends one raw request and reads its response.
fn exchange(stream: &mut TcpStream, request: &str) -> io::Result<(String, String)> {
    stream.write_all(request.as_bytes())?;
    read_response(stream)
}

/// As [`exchange`], but any status other than 200 is an error; returns
/// the body.
fn exchange_ok(stream: &mut TcpStream, request: &str) -> io::Result<String> {
    let (status, body) = exchange(stream, request)?;
    if !status.contains(" 200 ") {
        return Err(invalid(format!("{status}: {body}")));
    }
    Ok(body)
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Logs `user` in; the login body is the sid, and the sid cookie
/// authenticates writes.
fn login(stream: &mut TcpStream, user: &str) -> io::Result<String> {
    let form = format!("user={user}");
    exchange_ok(
        stream,
        &format!(
            "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        ),
    )
}

fn post_request(sid: &str, body: &str) -> String {
    let form = format!("body={body}");
    format!(
        "POST /post HTTP/1.1\r\nCookie: sid={sid}\r\nContent-Length: {}\r\n\r\n{form}",
        form.len()
    )
}

/// Stores one post; returns the id out of the `posted N` answer.
fn post(stream: &mut TcpStream, sid: &str, body: &str) -> io::Result<String> {
    let answer = exchange_ok(stream, &post_request(sid, body))?;
    match answer.strip_prefix("posted ") {
        Some(id) => Ok(id.to_string()),
        None => Err(invalid(format!("unexpected /post answer {answer:?}"))),
    }
}

/// One keep-alive connection: reads of post `view_id` with every
/// `write_every`-th request a write, until `deadline`. Returns how many
/// requests it made, or the first error.
fn worker(
    addr: &str,
    deadline: Instant,
    write_every: usize,
    id: usize,
    view_id: &str,
) -> io::Result<u64> {
    let mut stream = connect(addr)?;
    let sid = login(&mut stream, &format!("load{id}"))?;
    let view = format!("GET /view?id={view_id} HTTP/1.1\r\n\r\n");
    let mut n: u64 = 0;
    while Instant::now() < deadline {
        n += 1;
        if write_every != 0 && n.is_multiple_of(write_every as u64) {
            let body = format!("hello+from+load{id}+req{n}");
            exchange_ok(&mut stream, &post_request(&sid, &body))?;
        } else {
            exchange_ok(&mut stream, &view)?;
        }
    }
    Ok(n)
}

fn main() {
    let opts = parse_args();

    if opts.replica && opts.addr.is_some() {
        eprintln!("--replica requires spawn mode (no --addr)");
        usage();
    }

    // Self-host when no address was given.
    let mut spawned: Option<(NetServer, std::path::PathBuf, Arc<ForumApp>)> = None;
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "resin-loadgen-{}-{:?}",
                std::process::id(),
                Instant::now()
            ));
            let app = Arc::new(
                ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open durable forum"),
            );
            app.db().set_wal_sync(opts.sync);
            let server = NetServer::bind(
                "127.0.0.1:0",
                app.clone(),
                NetConfig {
                    workers: opts.conns.max(1),
                    ..NetConfig::default()
                },
            )
            .expect("bind");
            let addr = server.local_addr().to_string();
            spawned = Some((server, dir, app));
            addr
        }
    };

    // Seed the post every worker reads, over its own connection and
    // before any worker exists: its id is what `posted N` returned, so
    // no reader can race the write that makes it visible.
    let view_id = connect(&addr)
        .and_then(|mut s| {
            let sid = login(&mut s, "seeder")?;
            post(&mut s, &sid, "seed+post")
        })
        .unwrap_or_else(|e| {
            eprintln!("loadgen: seeding {addr} failed: {e}");
            std::process::exit(1);
        });

    eprintln!(
        "loadgen: {} conns for {:?} against {addr} (write-every={}, sync={})",
        opts.conns, opts.duration, opts.write_every, opts.sync
    );
    let deadline = Instant::now() + opts.duration;
    let (mut requests, mut errors) = (0u64, 0u64);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..opts.conns.max(1))
            .map(|id| {
                let (addr, view_id) = (&addr, &view_id);
                s.spawn(move || worker(addr, deadline, opts.write_every, id, view_id))
            })
            .collect();
        for (id, w) in workers.into_iter().enumerate() {
            match w.join().expect("worker panicked") {
                Ok(n) => requests += n,
                Err(e) => {
                    eprintln!("loadgen: conn {id}: {e}");
                    errors += 1;
                }
            }
        }
    });
    println!("loadgen: {requests} requests, {errors} errors");

    let mut replica_failed = false;
    if let Some((mut server, dir, app)) = spawned {
        if let Some(stats) = app.store_stats() {
            println!(
                "store: seq {} base {} segments {} wal-bytes {} parts {} dirty-tables {}",
                stats.seq,
                stats.base_seq,
                stats.segments,
                stats.live_wal_bytes,
                stats.parts,
                app.db().dirty_table_count()
            );
        }
        let lt = resin_core::LabelTable::global().stats();
        println!(
            "labels: {} live labels, {} policies, union cache {}",
            lt.labels, lt.policies, lt.union_cache
        );
        if opts.replica {
            replica_failed = !verify_replica(&addr, &dir);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    if requests == 0 || errors > 0 || replica_failed {
        std::process::exit(1);
    }
}

/// Ships the primary store, serves it read-only on a second port, and
/// checks the replica invariants over real TCP. Returns success.
fn verify_replica(primary_addr: &str, primary_dir: &std::path::Path) -> bool {
    let replica_dir = primary_dir.with_extension("replica");
    let _ = std::fs::remove_dir_all(&replica_dir);

    // Plant a stored-XSS payload on the primary so the replica has an
    // attack to fail closed on, and remember a benign post to compare.
    let seeded = connect(primary_addr).and_then(|mut prim| {
        let sid = login(&mut prim, "replicator")?;
        let benign_id = post(&mut prim, &sid, "replica+comparison+post")?;
        let evil_id = post(&mut prim, &sid, "%3Cscript%3Esteal()%3C/script%3E")?;
        Ok((prim, sid, benign_id, evil_id))
    });
    let (mut prim, sid, benign_id, evil_id) = match seeded {
        Ok(seeded) => seeded,
        Err(e) => {
            eprintln!("replica: seeding the primary failed: {e}");
            return false;
        }
    };

    if let Err(e) = resin_sql::ship(primary_dir, &replica_dir) {
        eprintln!("replica: ship failed: {e}");
        return false;
    }
    let app = match ForumApp::open_replica(&replica_dir, Arc::new(SessionStore::new())) {
        Ok(app) => Arc::new(app),
        Err(e) => {
            eprintln!("replica: open failed: {e}");
            return false;
        }
    };
    let mut server =
        NetServer::bind("127.0.0.1:0", app.clone(), NetConfig::default()).expect("bind replica");
    let addr = server.local_addr().to_string();
    println!(
        "replica: serving {addr} at applied seq {}",
        app.replica_applied_seq().unwrap_or(0)
    );

    let mut ok = true;
    // One fresh connection per probe keeps it simple.
    let view = |addr: &str, route: &str, id: &str| {
        connect(addr)
            .and_then(|mut s| exchange(&mut s, &format!("GET {route}?id={id} HTTP/1.1\r\n\r\n")))
            .ok()
    };

    // Byte-identical reads.
    let want = view(primary_addr, "/view", &benign_id);
    let got = view(&addr, "/view", &benign_id);
    match (&want, &got) {
        (Some((ws, wb)), Some((gs, gb))) if ws == gs && wb == gb => {
            println!("replica: /view byte-identical to primary");
        }
        _ => {
            eprintln!("replica: /view mismatch: primary {want:?} vs replica {got:?}");
            ok = false;
        }
    }

    // Stored XSS fails closed on the replica.
    match view(&addr, "/view_raw", &evil_id) {
        Some((status, body)) if !status.contains(" 200 ") && !body.contains("<script>") => {
            println!("replica: /view_raw fails closed ({status})");
        }
        other => {
            eprintln!("replica: /view_raw did NOT fail closed: {other:?}");
            ok = false;
        }
    }

    // Writes are refused.
    let form = "body=diverge";
    match connect(&addr).and_then(|mut repl| {
        exchange(
            &mut repl,
            &format!(
                "POST /post HTTP/1.1\r\nContent-Length: {}\r\n\r\n{form}",
                form.len()
            ),
        )
    }) {
        Ok((status, body)) if status.contains(" 403 ") && body.contains("read-only") => {
            println!("replica: writes refused (403 read-only)");
        }
        other => {
            eprintln!("replica: write was not refused: {other:?}");
            ok = false;
        }
    }

    // A second ship catches the replica up.
    let late_id = match post(&mut prim, &sid, "post+after+first+ship") {
        Ok(id) => id,
        Err(e) => {
            eprintln!("replica: late post failed: {e}");
            return false;
        }
    };
    if let Err(e) = resin_sql::ship(primary_dir, &replica_dir) {
        eprintln!("replica: re-ship failed: {e}");
        return false;
    }
    match app.replica_refresh() {
        Ok(applied) => {
            println!(
                "replica: caught up {applied} records to seq {}",
                app.replica_applied_seq().unwrap_or(0)
            );
        }
        Err(e) => {
            eprintln!("replica: catch-up failed: {e}");
            ok = false;
        }
    }
    match view(&addr, "/view", &late_id) {
        Some((status, body)) if status.contains(" 200 ") && body.contains("after first ship") => {
            println!("replica: late write visible after catch-up");
        }
        other => {
            eprintln!("replica: late write missing after catch-up: {other:?}");
            ok = false;
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&replica_dir);
    ok
}
