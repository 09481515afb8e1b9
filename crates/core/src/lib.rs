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
//!   The [`runtime::Runtime`]'s [`runtime::GateRegistry`] owns the default
//!   gate for every I/O surface.
//!
//! # Quickstart
//!
//! ```
//! use resin_core::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new();
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
//! // ...and the registry's default gates enforce the assertion.
//! let mut http = rt.open(GateKind::Http);
//! assert!(http.write(body.clone()).is_err()); // disclosure prevented
//!
//! let mut email = rt.open(GateKind::Email);
//! email.context_mut().set_str("email", "u@foo.com");
//! assert!(email.write(body).is_ok()); // owner's address: allowed
//! ```

pub mod context;
pub mod error;
pub mod filter;
pub mod gate;
pub mod label;
pub mod merge;
pub mod policies;
pub mod policy;
pub mod runtime;
pub mod serialize;
pub mod sync;
pub mod taint;

/// One-stop imports for applications using the runtime.
pub mod prelude {
    pub use crate::context::{Context, CtxValue};
    pub use crate::error::{FlowError, PolicyViolation, Result, SerializeError};
    pub use crate::filter::{DefaultFilter, Filter, FnFilter};
    pub use crate::gate::{Gate, GateBuilder, GateKind};
    pub use crate::label::{
        EpochPin, Label, LabelMemo, LabelTable, LabelTableStats, PolicyId, PolicyInterner,
        PolicyInternerStats, SweepReport,
    };
    pub use crate::merge::{merge_many, merge_sets};
    pub use crate::policies::{
        Acl, AuthenticData, CodeApproval, EmptyPolicy, HtmlSanitized, PagePolicy, PasswordPolicy,
        Right, SqlSanitized, UntrustedData,
    };
    pub use crate::policy::{downcast_policy, MergeDecision, Policy, PolicyRef};
    pub use crate::runtime::{GateFactory, GateRegistry, Runtime};
    pub use crate::serialize::{
        deserialize_label, deserialize_policy, deserialize_spans, register_policy_class,
        serialize_label, serialize_policy, serialize_spans,
    };
    pub use crate::taint::{
        policy_add, policy_get, policy_remove, Labeled, Tainted, TaintedStrBuilder, TaintedString,
    };
}

pub use prelude::*;
