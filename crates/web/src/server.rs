//! The application contract and the one dispatch step every front end
//! runs.
//!
//! The paper evaluates RESIN inside live web servers handling many users
//! at once (§6). Here an application is a shared [`WebApp`] handler and a
//! request is served by [`serve_request`], called from whatever thread
//! the front end runs it on (the TCP edge's workers in `resin-net`, a
//! test's own thread) — the boundary enforcement all lives in the gates:
//!
//! * every request gets its **own** [`Response`] (and therefore its own
//!   [`Gate`](resin_core::Gate) and [`Context`](resin_core::Context)),
//!   exactly as each Apache request gets its own output channel;
//! * the application state behind the handler is **shared** across
//!   threads — a `ResinDb`, a `SessionStore`, the global `LabelTable`;
//! * a handler panic is confined to its request (the caller gets a 500
//!   page and keeps serving), so one poisoned request cannot take the
//!   server down — the failure mode the poison-recovering locks in
//!   `resin_core` are built for.
//!
//! # Examples
//!
//! ```
//! use resin_core::FlowError;
//! use resin_web::{serve_request, Request, Response};
//!
//! let app = |req: &Request, resp: &mut Response| -> Result<(), FlowError> {
//!     resp.echo_str("hello from ")?;
//!     resp.echo_str(req.path())
//! };
//! let page = serve_request(&app, &Request::get("/index"));
//! assert_eq!(page.body, "hello from /index");
//! assert!(page.outcome.is_ok());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use resin_core::FlowError;

use crate::request::Request;
use crate::response::Response;

/// A request handler shared by every serving thread.
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

/// Serves one request through a fresh [`Response`], confining a handler
/// panic to the request: a panicking handler yields a 500 page instead of
/// unwinding into the caller.
///
/// Every front end (the TCP edge in `resin-net`, the in-process tests)
/// dispatches through this one function, so they all serve with
/// *identical* gate and failure behavior.
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
    use std::sync::{Arc, Condvar, Mutex};

    fn echo_app(req: &Request, resp: &mut Response) -> Result<(), FlowError> {
        resp.echo_str("path=")?;
        resp.echo_str(req.path())
    }

    #[test]
    fn serves_a_request() {
        let page = serve_request(&echo_app, &Request::get("/a"));
        assert_eq!(page.body, "path=/a");
        assert_eq!(page.status, 200);
        assert!(page.outcome.is_ok());
        assert!(!page.blocked());
    }

    #[test]
    fn requests_overlap_across_workers() {
        // Two in-flight requests that each wait for the other prove one
        // shared app serves them concurrently (a handler serialised
        // behind a lock would deadlock — the 5s bound turns that into a
        // failure, not a hang).
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let g = Arc::clone(&gate);
        let app = move |_req: &Request, resp: &mut Response| {
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
        };
        std::thread::scope(|s| {
            let t1 = s.spawn(|| serve_request(&app, &Request::get("/1")));
            let t2 = s.spawn(|| serve_request(&app, &Request::get("/2")));
            assert_eq!(t1.join().unwrap().body, "overlapped");
            assert_eq!(t2.join().unwrap().body, "overlapped");
        });
    }

    #[test]
    fn violation_reports_as_blocked() {
        let app = |_req: &Request, resp: &mut Response| {
            let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
            resp.echo(secret)
        };
        let page = serve_request(&app, &Request::get("/leak"));
        assert!(page.blocked());
        assert_eq!(page.body, "", "nothing crossed the gate");
    }

    #[test]
    fn panicking_handler_answers_500_and_pool_survives() {
        let app = |req: &Request, resp: &mut Response| {
            if req.path() == "/boom" {
                panic!("request goes down");
            }
            resp.echo_str("fine")
        };
        let crash = serve_request(&app, &Request::get("/boom"));
        assert_eq!(crash.status, 500);
        assert!(crash.outcome.is_err());
        // The calling thread and the process-wide locks the handler's
        // `Response` took survived the panic: the next request is served.
        let ok = serve_request(&app, &Request::get("/next"));
        assert_eq!(ok.body, "fine");
    }

    #[test]
    fn each_request_gets_its_own_response() {
        let app = |req: &Request, resp: &mut Response| resp.echo_str(req.path());
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        for i in 0..16 {
                            let path = format!("/req-{t}-{i}");
                            let page = serve_request(&app, &Request::get(path.clone()));
                            assert_eq!(page.body, path, "no cross-request bleed");
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        });
    }
}
