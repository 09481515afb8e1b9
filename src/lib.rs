//! # resin — data flow assertions for application security
//!
//! A from-scratch Rust reproduction of **RESIN** (Yip, Wang, Zeldovich,
//! Kaashoek — *Improving Application Security with Data Flow Assertions*,
//! SOSP 2009). This meta-crate re-exports the whole workspace:
//!
//! * [`core`] — policy objects, interned policy labels, byte-range data
//!   tracking, filter objects, gates, persistent-policy serialization.
//! * [`store`] — the durable snapshot+WAL layer beneath the SQL engine
//!   and the vfs, with crash recovery.
//! * [`vfs`] — a filesystem with extended attributes, persistent
//!   policies, and persistent write-access filters.
//! * [`sql`] — a SQL engine with policy-column rewriting and the
//!   SQL-injection guards.
//! * [`web`] — HTTP/email gates, sanitizers, XSS guards, output
//!   buffering, RESIN-aware static file serving.
//! * [`net`] — the TCP network edge: a blocking HTTP/1.1 front end whose
//!   parser taints every network-derived byte at the boundary.
//! * [`lang`] — RSL, a scripting language whose interpreter carries
//!   RESIN tracking (the modified-PHP stand-in).
//! * [`apps`] — the evaluation applications of Table 4 with wired-in
//!   vulnerabilities and assertions.
//!
//! All boundaries go through one abstraction: the
//! [`Gate`](resin_core::Gate), built where it is used; every datum carries an
//! interned [`Label`](resin_core::Label) handle for its policy set. See
//! `README.md` for a tour of the API and the crate map.

#![warn(unreachable_pub)]

pub use resin_apps as apps;
pub use resin_core as core;
pub use resin_lang as lang;
pub use resin_net as net;
pub use resin_sql as sql;
pub use resin_store as store;
pub use resin_vfs as vfs;
pub use resin_web as web;

pub use resin_core::prelude;

/// `README.md`'s Rust blocks, compiled (and run, unless `no_run`) as
/// doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
