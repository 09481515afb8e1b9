//! # resin-core — data flow assertions for application security
//!
//! A Rust reproduction of the core runtime of **RESIN** (Yip, Wang,
//! Zeldovich, Kaashoek — *Improving Application Security with Data Flow
//! Assertions*, SOSP 2009).
//!
//! RESIN lets programmers make their plan for correct data flow explicit:
//!
//! * **Policy objects** ([`policy::Policy`]) encapsulate assertion code and
//!   metadata specific to a datum — e.g. "this password may only be emailed
//!   to its owner".
//! * **Interned labels** ([`label::Label`]) are the per-datum
//!   representation of a policy set: a 4-byte `Copy` handle into the
//!   process-wide [`label::LabelTable`], making union, equality, and dedup
//!   O(1) table hits instead of structural scans.
//! * **Data tracking** ([`taint`]) propagates labels along with data, at
//!   byte granularity, as the application copies and moves it.
//! * **Gates** ([`gate::Gate`]) define data flow boundaries (sockets,
//!   files, SQL, email, HTTP, code import, module exits, function calls)
//!   where assertions are checked by invoking each policy's `export_check`.
//!   [`Gate::new`](gate::Gate::new) opens a surface guarded by the default
//!   filter; [`runtime::Runtime::open`] names each surface's default.
//! * **Counters** ([`metrics`]) count the runtime's own work — lock
//!   takes, decodes, checks run — per thread and per process.
//!
//! # Quickstart
//!
//! ```
//! use resin_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Annotate the password with a policy object (Figure 2).
//! let mut password = TaintedString::from("s3cret");
//! password.add_policy(Arc::new(PasswordPolicy::new("u@foo.com")));
//!
//! // The password propagates into an email body...
//! let mut body = TaintedString::from("Your password is: ");
//! body.push_tainted(&password);
//!
//! // ...carrying its interned label with it...
//! assert!(body.label().has::<PasswordPolicy>());
//!
//! // ...and the default gates enforce the assertion.
//! let mut http = Gate::new(GateKind::Http);
//! assert!(http.write(body.clone()).is_err()); // disclosure prevented
//!
//! let mut email = Gate::new(GateKind::Email);
//! email.context_mut().set_str("email", "u@foo.com");
//! assert!(email.write(body).is_ok()); // owner's address: allowed
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod context;
pub mod error;
pub mod filter;
pub mod gate;
pub mod label;
pub mod merge;
pub mod metrics;
pub mod policies;
pub mod policy;
pub mod runtime;
pub mod serialize;
pub mod sync;
pub mod taint;

/// One-stop imports for applications using the runtime.
pub mod prelude {
    pub use crate::context::{Context, CtxValue};
    pub use crate::error::{FlowError, PolicyViolation, Reason, Result, SerializeError, Thrown};
    pub use crate::filter::{DefaultFilter, Filter, FnFilter};
    pub use crate::gate::{Gate, GateKind};
    pub use crate::label::{Label, LabelTable, LabelTableStats, PolicyId};
    pub use crate::merge::{merge_many, merge_sets};
    pub use crate::policies::{
        Acl, AuthenticData, CodeApproval, EmptyPolicy, HtmlSanitized, PagePolicy, PasswordPolicy,
        Right, SqlSanitized, UntrustedData,
    };
    pub use crate::policy::{downcast_policy, MergeDecision, Policy, PolicyRef};
    pub use crate::runtime::{Runtime, Tracking};
    pub use crate::serialize::{
        deserialize_label, deserialize_policy, deserialize_spans, register_policy_class,
        serialize_label, serialize_policy, serialize_spans,
    };
    pub use crate::taint::{
        policy_add, policy_get, policy_remove, Labeled, Tainted, TaintedString, TextTail,
    };
}

pub use prelude::*;
