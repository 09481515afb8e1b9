//! A worker-pool application server: concurrent request serving over
//! shared state.
//!
//! The paper evaluates RESIN inside live web servers handling many users
//! at once (§6); this module is that serving loop as a library. A
//! [`Server`] owns N worker threads and an in-process request queue — no
//! sockets, the boundary enforcement all lives in the gates — and drives a
//! shared [`WebApp`] handler:
//!
//! * every request gets its **own** [`Response`] (and therefore its own
//!   [`Gate`](resin_core::Gate) and [`Context`](resin_core::Context)),
//!   exactly as each Apache request gets its own output channel;
//! * the application state behind the handler is **shared** across
//!   workers — a `ResinDb`, a `SessionStore`, the global
//!   `LabelTable`/`GateRegistry`;
//! * a handler panic is confined to its request (the worker answers 500
//!   and keeps serving), so one poisoned request cannot take the pool
//!   down — the failure mode the poison-recovering locks in `resin_core`
//!   are built for.
//!
//! # Examples
//!
//! ```
//! use resin_core::FlowError;
//! use resin_web::server::{Server, WebApp};
//! use resin_web::{Request, Response};
//! use std::sync::Arc;
//!
//! let app = Arc::new(|req: &Request, resp: &mut Response| -> Result<(), FlowError> {
//!     resp.echo_str("hello from ")?;
//!     resp.echo_str(req.path())
//! });
//! let server = Server::start(app, 4);
//! let page = server.serve(Request::get("/index"));
//! assert_eq!(page.body, "hello from /index");
//! assert!(page.outcome.is_ok());
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use resin_core::sync::mlock;

use resin_core::FlowError;

use crate::request::Request;
use crate::response::Response;

/// A request handler shared by every worker.
///
/// Implementations hold the shared application state (database handles,
/// session store) and must be safe to call from many threads at once. The
/// blanket impl lets a closure serve directly as an app.
pub trait WebApp: Send + Sync + 'static {
    /// Handles one request, writing the page through `resp`'s gates.
    ///
    /// An `Err` is a *blocked* response: whatever the gates let through
    /// before the violation stays in the body, the violation itself is
    /// reported on the [`ServedPage`].
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError>;
}

impl<F> WebApp for F
where
    F: Fn(&Request, &mut Response) -> Result<(), FlowError> + Send + Sync + 'static,
{
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
        self(req, resp)
    }
}

/// The completed result of one dispatched request.
#[derive(Debug)]
pub struct ServedPage {
    /// The response status code.
    pub status: u16,
    /// Headers that passed the splitting guard.
    pub headers: Vec<(String, String)>,
    /// The body text that actually crossed the HTTP gate.
    pub body: String,
    /// `Err` when the handler was stopped by an assertion (or panicked).
    pub outcome: Result<(), FlowError>,
}

impl ServedPage {
    /// True when a data flow assertion blocked the response.
    pub fn blocked(&self) -> bool {
        matches!(self.outcome, Err(ref e) if e.is_violation())
    }
}

/// One enqueued request and the slot its page will be delivered to.
struct Job {
    req: Request,
    slot: Arc<Slot>,
}

/// A rendezvous for one request's result.
struct Slot {
    page: Mutex<Option<ServedPage>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            page: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn deliver(&self, page: ServedPage) {
        let mut slot = mlock(&self.page);
        *slot = Some(page);
        self.ready.notify_all();
    }

    fn wait(&self) -> ServedPage {
        let mut slot = mlock(&self.page);
        loop {
            if let Some(page) = slot.take() {
                return page;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A pending response: redeem with [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request has been served.
    pub fn wait(self) -> ServedPage {
        self.slot.wait()
    }
}

/// The in-process request queue shared by submitters and workers.
struct Queue {
    state: Mutex<QueueState>,
    work: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn new() -> Arc<Queue> {
        Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            work: Condvar::new(),
        })
    }

    fn push(&self, job: Job) {
        let mut state = mlock(&self.state);
        state.jobs.push_back(job);
        self.work.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = mlock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = mlock(&self.state);
        state.closed = true;
        self.work.notify_all();
    }
}

/// The worker-pool dispatcher.
///
/// Dropping the server closes the queue and joins the workers (pending
/// requests are served first).
pub struct Server {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a pool of `workers` threads serving `app`.
    pub fn start(app: Arc<dyn WebApp>, workers: usize) -> Server {
        let queue = Queue::new();
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let app = Arc::clone(&app);
                std::thread::Builder::new()
                    .name(format!("resin-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &*app))
                    .expect("spawn worker")
            })
            .collect();
        Server { queue, workers }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a request; redeem the returned ticket for the page.
    pub fn submit(&self, req: Request) -> Ticket {
        let slot = Slot::new();
        self.queue.push(Job {
            req,
            slot: Arc::clone(&slot),
        });
        Ticket { slot }
    }

    /// Serves one request synchronously (submit + wait).
    pub fn serve(&self, req: Request) -> ServedPage {
        self.submit(req).wait()
    }

    /// Closes the queue and joins the pool after draining it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(queue: &Queue, app: &dyn WebApp) {
    while let Some(job) = queue.pop() {
        job.slot.deliver(serve_request(app, &job.req));
    }
}

/// Serves one request through a fresh [`Response`] with the pool's
/// panic-confinement semantics: a panicking handler yields a 500 page
/// instead of unwinding into the caller.
///
/// This is the dispatch step [`Server`]'s workers run — exposed so other
/// front ends (the TCP edge in `resin-net`) serve with *identical* gate
/// and failure behavior.
pub fn serve_request(app: &dyn WebApp, req: &Request) -> ServedPage {
    let served = catch_unwind(AssertUnwindSafe(|| {
        let mut resp = Response::new();
        let outcome = app.handle(req, &mut resp);
        let headers = resp
            .headers()
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().to_string()))
            .collect();
        ServedPage {
            status: resp.status(),
            headers,
            body: resp.body(),
            outcome,
        }
    }));
    served.unwrap_or_else(|_| ServedPage {
        // The panic is confined to this request: answer 500 and keep
        // the worker alive for the next job.
        status: 500,
        headers: Vec::new(),
        body: String::new(),
        outcome: Err(FlowError::runtime("handler panicked")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PasswordPolicy, TaintedString};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn echo_app() -> Arc<dyn WebApp> {
        Arc::new(
            |req: &Request, resp: &mut Response| -> Result<(), FlowError> {
                resp.echo_str("path=")?;
                resp.echo_str(req.path())
            },
        )
    }

    #[test]
    fn serves_a_request() {
        let server = Server::start(echo_app(), 2);
        let page = server.serve(Request::get("/a"));
        assert_eq!(page.body, "path=/a");
        assert_eq!(page.status, 200);
        assert!(page.outcome.is_ok());
        assert!(!page.blocked());
        assert_eq!(server.worker_count(), 2);
    }

    #[test]
    fn requests_overlap_across_workers() {
        // Two in-flight requests that each wait for the other prove the
        // pool really runs them concurrently (a single worker would
        // deadlock — the 5s bound turns that into a failure, not a hang).
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let g = Arc::clone(&gate);
        let app = Arc::new(move |_req: &Request, resp: &mut Response| {
            let (count, cv) = &*g;
            let mut n = count.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let (mut n, timeout) = cv
                .wait_timeout_while(n, std::time::Duration::from_secs(5), |n| *n < 2)
                .unwrap();
            assert!(!timeout.timed_out(), "both requests must be in flight");
            *n += 100; // keep the predicate satisfied for the other waiter
            resp.echo_str("overlapped")
        });
        let server = Server::start(app, 2);
        let t1 = server.submit(Request::get("/1"));
        let t2 = server.submit(Request::get("/2"));
        assert_eq!(t1.wait().body, "overlapped");
        assert_eq!(t2.wait().body, "overlapped");
    }

    #[test]
    fn violation_reports_as_blocked() {
        let app = Arc::new(|_req: &Request, resp: &mut Response| {
            let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
            resp.echo(secret)
        });
        let server = Server::start(app, 1);
        let page = server.serve(Request::get("/leak"));
        assert!(page.blocked());
        assert_eq!(page.body, "", "nothing crossed the gate");
    }

    #[test]
    fn panicking_handler_answers_500_and_pool_survives() {
        let app = Arc::new(|req: &Request, resp: &mut Response| {
            if req.path() == "/boom" {
                panic!("request goes down");
            }
            resp.echo_str("fine")
        });
        let server = Server::start(app, 1);
        let crash = server.serve(Request::get("/boom"));
        assert_eq!(crash.status, 500);
        assert!(crash.outcome.is_err());
        // The single worker survived the panic and serves the next request.
        let ok = server.serve(Request::get("/next"));
        assert_eq!(ok.body, "fine");
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let served = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&served);
        let app = Arc::new(move |_req: &Request, resp: &mut Response| {
            s.fetch_add(1, Ordering::SeqCst);
            resp.echo_str("ok")
        });
        let server = Server::start(app, 2);
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| server.submit(Request::get(format!("/{i}"))))
            .collect();
        server.shutdown();
        assert_eq!(served.load(Ordering::SeqCst), 32);
        for t in tickets {
            assert_eq!(t.wait().body, "ok");
        }
    }

    #[test]
    fn each_request_gets_its_own_response() {
        let app = Arc::new(|req: &Request, resp: &mut Response| resp.echo_str(req.path()));
        let server = Server::start(app, 4);
        let tickets: Vec<(String, Ticket)> = (0..64)
            .map(|i| {
                let path = format!("/req-{i}");
                (path.clone(), server.submit(Request::get(path)))
            })
            .collect();
        for (path, t) in tickets {
            assert_eq!(t.wait().body, path, "no cross-request bleed");
        }
    }
}
