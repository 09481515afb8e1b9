//! Data tracking: policies that travel with data (§3.4).
//!
//! The module provides the tainted data types ([`TaintedString`],
//! [`Tainted`]) plus the free-function API of Table 3
//! ([`policy_add`], [`policy_remove`], [`policy_get`]), which mirrors the
//! paper's Python prototype where `policy_add` returns a new string with
//! the same contents but a different policy set. Policy sets are interned
//! [`Label`] handles throughout.

mod spans;
pub mod string;
pub mod value;

pub use string::{TaintedString, TextTail};
pub use value::Tainted;

use crate::label::Label;
use crate::policy::PolicyRef;

/// Anything that can carry a policy label.
pub trait Labeled {
    /// The union of all attached policies, as an interned label.
    fn label(&self) -> Label;
    /// Attaches a policy to the whole datum.
    fn attach(&mut self, policy: PolicyRef);
    /// Removes a policy from the whole datum.
    fn detach(&mut self, policy: &PolicyRef);
}

impl Labeled for TaintedString {
    fn label(&self) -> Label {
        TaintedString::label(self)
    }
    fn attach(&mut self, policy: PolicyRef) {
        self.add_policy(policy);
    }
    fn detach(&mut self, policy: &PolicyRef) {
        self.remove_policy(policy);
    }
}

impl<T: Clone> Labeled for Tainted<T> {
    fn label(&self) -> Label {
        Tainted::label(self)
    }
    fn attach(&mut self, policy: PolicyRef) {
        self.add_policy(policy);
    }
    fn detach(&mut self, policy: &PolicyRef) {
        self.remove_policy(policy);
    }
}

/// Adds `policy` to `data`'s policy set, returning the labeled datum
/// (Table 3: `policy_add(data, policy)`).
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let pw = policy_add(TaintedString::from("s3cret"),
///                     Arc::new(PasswordPolicy::new("u@foo.com")));
/// assert!(pw.has_policy::<PasswordPolicy>());
/// ```
pub fn policy_add<L: Labeled>(mut data: L, policy: PolicyRef) -> L {
    data.attach(policy);
    data
}

/// Removes `policy` from `data`'s policy set (Table 3: `policy_remove`).
pub fn policy_remove<L: Labeled>(mut data: L, policy: &PolicyRef) -> L {
    data.detach(policy);
    data
}

/// Returns the label of policies associated with `data` (Table 3:
/// `policy_get`).
pub fn policy_get<L: Labeled>(data: &L) -> Label {
    data.label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::UntrustedData;
    use std::sync::Arc;

    #[test]
    fn table3_api_roundtrip() {
        let p: PolicyRef = Arc::new(UntrustedData::new());
        let s = policy_add(TaintedString::from("x"), p.clone());
        assert_eq!(policy_get(&s).len(), 1);
        let s = policy_remove(s, &p);
        assert!(policy_get(&s).is_empty());
    }

    #[test]
    fn table3_api_on_scalars() {
        let p: PolicyRef = Arc::new(UntrustedData::new());
        let v = policy_add(Tainted::new(1i64), p.clone());
        assert!(policy_get(&v).has::<UntrustedData>());
        let v = policy_remove(v, &p);
        assert!(policy_get(&v).is_empty());
    }
}
