//! # resin-web — the simulated web substrate
//!
//! Everything RESIN's web-application evaluation needs from "Apache + the
//! outside world", rebuilt as a library:
//!
//! * [`request::Request`] / [`response::Response`] — HTTP with the default
//!   RESIN boundary: request inputs arrive marked [`resin_core::UntrustedData`];
//!   response bodies leave through an HTTP [`Gate`](resin_core::Gate)
//!   guarded by the default filter.
//! * [`email::Mailer`] — the sendmail pipe: bodies cross a guarded email
//!   gate with recipient-annotated context, plus HotCRP's email
//!   preview mode (§2).
//! * [`html`] — sanitizers that attach [`resin_core::HtmlSanitized`], and
//!   both XSS guard strategies of §5.3.
//! * `session`, [`whois`], `static_files`, [`splitting`], `json` —
//!   sessions, the phpBB whois attack path (§6.3), RESIN-aware static file
//!   serving (§3.4.1), HTTP response splitting (§5.4), and JSON structure
//!   protection (§5.4).
//! * [`server`] — the [`server::WebApp`] handler contract and
//!   [`serve_request`], the one dispatch step every front end runs: one
//!   `Response`/`Context` per request over shared application state (the
//!   §6 many-users serving topology as a library).
//!
//! # Quickstart
//!
//! The Figure 2 flow through the web layer — a password policy blocks the
//! HTTP response but allows mail to the owner:
//!
//! ```
//! use resin_core::prelude::*;
//! use resin_web::{Mailer, Response};
//! use std::sync::Arc;
//!
//! let mut body = TaintedString::from("Your password is: ");
//! body.push_tainted(&TaintedString::with_policy(
//!     "s3cret",
//!     Arc::new(PasswordPolicy::new("u@foo.com")),
//! ));
//!
//! // HTTP response to a regular user: denied.
//! let mut resp = Response::for_user("adversary");
//! assert!(resp.echo(body.clone()).unwrap_err().is_violation());
//! assert_eq!(resp.body(), "");
//!
//! // Email to the owner: allowed.
//! let mut mailer = Mailer::new();
//! mailer.send("u@foo.com", "reminder", body, &mut resp).unwrap();
//! assert!(mailer.sent()[0].body.contains("s3cret"));
//! ```

#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod email;
pub mod html;
mod json;
pub mod request;
pub mod response;
pub mod server;
mod session;
pub mod splitting;
mod static_files;
pub mod whois;

pub use email::{Mailer, SentEmail};
pub use html::{check_html_markers, check_html_structure, html_escape};
pub use json::{check_json_structure, encode_object};
pub use request::{Method, Request};
pub use response::Response;
pub use server::{serve_request, ServedPage, WebApp};
pub use session::{SeededSource, SessionStore, SidSource};
pub use static_files::{serve_static_aware, serve_static_naive};
pub use whois::WhoisServer;
