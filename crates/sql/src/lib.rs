//! # resin-sql — a SQL engine with RESIN persistent policies
//!
//! The database substrate for the RESIN reproduction: a from-scratch
//! in-memory SQL engine ([`engine::Database`], one lock per table) behind
//! the one RESIN SQL filter every query crosses ([`ResinDb`]), which
//!
//! * rewrites `CREATE TABLE` to add a shadow **policy column** per data
//!   column, stores each cell's serialized policies on write, and revives
//!   them on read (§3.4.1, Figure 4);
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

pub mod ast;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
mod like;
pub mod parser;
pub mod plan;
mod predicate;
pub mod replica;
pub mod rewrite;
pub mod shard;
pub mod token;
pub mod txn;
pub mod value;

pub use ast::{IndexKind, Statement};
pub use engine::{Database, QueryResult, Table};
pub use error::{Result, SqlError};
pub use index::Index;
pub use replica::Follower;
pub use resin_store::segment;
pub use resin_store::{ship, ShipReport, StoreStats};
pub use rewrite::{
    BindValue, BoundStatement, GuardMode, Prepared, SqlGuardFilter, TCell, TaintedResult, Tracking,
    POLICY_COL_PREFIX,
};
pub use shard::ResinDb;
pub use txn::{IntegrityCheck, Transaction};
pub use value::Value;
