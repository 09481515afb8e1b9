//! # resin-sql — a SQL engine with RESIN persistent policies
//!
//! The database substrate for the RESIN reproduction: a from-scratch
//! in-memory SQL engine (`engine::Database`, one lock per table) behind
//! the one RESIN SQL filter every query crosses ([`ResinDb`]), which
//!
//! * stores each cell's serialized policies beside its value on write, and
//!   revives them on read (§3.4.1, Figure 4); a checkpoint keeps them in
//!   Figure 4's shadow **policy columns**, which no statement can name;
//! * enforces the SQL-injection data flow assertion on the query channel in
//!   any of the paper's three formulations (§5.3): sanitizer-marker
//!   checking, structure-taint checking, and the tolerant-tokenizer
//!   auto-sanitizing variation.
//!
//! [`ResinDb`] is a `Clone` handle whose methods take `&self` — one per
//! worker thread over shared storage — and is optionally durable
//! ([`ResinDb::open`]: WAL + incremental checkpoints, [`Follower`] read
//! replicas). [`ResinDb::begin`] opens the one [`Transaction`] type, whose
//! [`IntegrityCheck`]s run at commit.
//!
//! A SQL value with its labels is one type, [`TCell`], both ways: a result
//! cell comes back as one, and a value bound to a `?` goes in as one.
//! [`ResinDb::prepare`] guards and parses a template once, and
//! [`ResinDb::exec_prepared`], the one way to run a [`Prepared`], executes
//! it with one value per placeholder, as data that never reaches the
//! query text.
//!
//! # Examples
//!
//! ```
//! use resin_core::prelude::*;
//! use resin_sql::{GuardMode, ResinDb};
//! use std::sync::Arc;
//!
//! let mut db = ResinDb::new();
//! db.set_guard(GuardMode::StructureCheck);
//! db.query_str("CREATE TABLE users (name TEXT, pw TEXT)").unwrap();
//!
//! // A hostile, untrusted input cannot change the query's structure.
//! let evil = TaintedString::with_policy("x' OR '1'='1",
//!                                       Arc::new(UntrustedData::new()));
//! let mut q = TaintedString::from("SELECT pw FROM users WHERE name = '");
//! q.push_tainted(&evil);
//! q.push_str("'");
//! assert!(db.query(&q).unwrap_err().is_violation());
//! ```

#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod ast;
mod durable;
mod engine;
pub mod error;
pub mod index;
mod like;
#[cfg(test)]
#[path = "../../../tests/support/mutants.rs"]
mod mutants;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod plan;
mod predicate;
pub mod replica;
mod rewrite;
pub mod shard;
pub mod token;
pub mod txn;
pub mod value;

pub use ast::{IndexKind, Statement};
pub use engine::Table;
pub use error::{Result, SqlError};
pub use index::Index;
pub use replica::Follower;
pub use resin_core::Tracking;
pub use resin_store::segment;
pub use resin_store::{ship, Recovery, ShipReport, StoreStats};
pub use rewrite::{BindValue, GuardMode, Prepared, TCell, TaintedResult};
pub use shard::ResinDb;
pub use txn::{IntegrityCheck, Transaction};
pub use value::Value;
