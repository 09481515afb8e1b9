//! Policy objects: per-datum assertion code and metadata (§3.3).
//!
//! A policy object is attached to data (via
//! [`policy_add`](crate::taint::policy_add)) and travels with it as the
//! runtime propagates copies. When data crosses a boundary, the filter
//! invokes [`Policy::export_check`]; when data elements merge (e.g. integer
//! addition), the runtime consults [`Policy::merge`].

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::context::Context;
use crate::error::PolicyViolation;
use crate::label::Label;

/// A reference-counted, type-erased policy object.
///
/// Policies are immutable once attached; copying data clones the `Arc`, so
/// propagation is cheap (the paper's design stores a *pointer* to a policy
/// set in each datum).
pub type PolicyRef = Arc<dyn Policy>;

/// The decision a policy's [`merge`](Policy::merge) method returns.
///
/// The runtime merges data elements (for example, adding two tainted
/// integers) by invoking `merge` on each policy of each operand, passing the
/// *other* operand's policy set; the resulting datum is labeled with the
/// union of everything the merge methods return (§3.4.2).
#[derive(Debug, Clone)]
pub enum MergeDecision {
    /// Propagate this policy to the merged datum (the union strategy).
    Keep,
    /// Drop this policy from the merged datum.
    Drop,
    /// Attach exactly these policies on behalf of this policy.
    Attach(Vec<PolicyRef>),
    /// Refuse the merge entirely; the operation fails.
    Deny(PolicyViolation),
}

/// A data flow assertion's per-datum component.
///
/// Implementors provide assertion-checking code (`export_check`), an
/// optional merge strategy, and field serialization for persistent policies
/// (§3.4.1). This is the Rust rendering of Table 3's `policy::*` rows.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let mut secret = TaintedString::from("hunter2");
/// secret.add_policy(Arc::new(PasswordPolicy::new("u@foo.com")));
///
/// let mut http = Gate::new(GateKind::Http);
/// assert!(http.write(secret).is_err()); // disclosure prevented
/// ```
pub trait Policy: Any + Send + Sync + fmt::Debug {
    /// The policy's class name, used for persistence and error messages.
    fn name(&self) -> &str;

    /// Checks whether the data flow this policy guards may cross the
    /// boundary described by `context`.
    ///
    /// The default allows everything; marker policies (e.g. `UntrustedData`)
    /// rely on filters to interpret their presence instead.
    fn export_check(&self, _context: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }

    /// Merge strategy when a datum carrying this policy is combined with a
    /// datum labeled `_others` (§3.4.2). Default: union (`Keep`).
    fn merge(&self, _others: Label) -> MergeDecision {
        MergeDecision::Keep
    }

    /// Serializes the policy's data fields for persistent storage.
    ///
    /// Only the class name and data fields are stored, so policy *code* can
    /// evolve without migrating persisted policies (§3.4.1).
    fn serialize_fields(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Structural equality, used to deduplicate policy sets.
    ///
    /// The default compares class name and serialized fields, which is
    /// correct for any policy whose behaviour is a pure function of its
    /// fields.
    fn policy_eq(&self, other: &dyn Policy) -> bool {
        self.name() == other.name() && self.serialize_fields() == other.serialize_fields()
    }

    /// Extra interning discriminator for policies whose *behaviour* is not
    /// a pure function of `name()` + `serialize_fields()`.
    ///
    /// The label interner canonicalizes structurally-equal policies to one
    /// [`PolicyId`](crate::label::PolicyId), and every resolution returns
    /// the first-interned object. That is sound only when same name + same
    /// fields implies same behaviour. A policy that carries *code* outside
    /// its fields (e.g. a script-defined policy capturing an interpreted
    /// class body) must override this to return a value distinguishing
    /// behaviourally-different instances — a pointer-derived identity of
    /// the captured code works, since the interner keeps the policy (and
    /// hence the pointee) alive for the process lifetime. Default: `0`.
    ///
    /// The discriminator is not stored: policies that differ only here
    /// share a wire text, which revives through the class registered when
    /// it is read. The read index ([`crate::serialize`]) maps that text to
    /// the label of what the registered class built, and forgets it when
    /// the class is registered again.
    fn intern_discriminator(&self) -> u64 {
        0
    }

    /// Upcast for downcasting to a concrete policy type.
    fn as_any(&self) -> &dyn Any;
}

/// Returns true when two policy references denote the same policy, either by
/// pointer identity or by structural equality.
#[cfg(test)]
pub(crate) fn policy_refs_equal(a: &PolicyRef, b: &PolicyRef) -> bool {
    // Fast path: the same allocation.
    if Arc::ptr_eq(a, b) {
        return true;
    }
    a.policy_eq(b.as_ref())
}

/// Convenience: downcast a policy reference to a concrete type.
pub fn downcast_policy<T: Policy>(p: &PolicyRef) -> Option<&T> {
    p.as_any().downcast_ref::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{PasswordPolicy, UntrustedData};

    #[test]
    fn default_export_check_allows() {
        let p = UntrustedData::new();
        let ctx = Context::new(crate::gate::GateKind::Http);
        assert!(p.export_check(&ctx).is_ok());
    }

    #[test]
    fn ptr_and_structural_equality() {
        let a: PolicyRef = Arc::new(PasswordPolicy::new("u@x"));
        let b = a.clone();
        assert!(policy_refs_equal(&a, &b), "pointer identity");
        let c: PolicyRef = Arc::new(PasswordPolicy::new("u@x"));
        assert!(policy_refs_equal(&a, &c), "structural equality");
        let d: PolicyRef = Arc::new(PasswordPolicy::new("v@y"));
        assert!(!policy_refs_equal(&a, &d), "different fields differ");
    }

    #[test]
    fn cross_class_inequality() {
        let a: PolicyRef = Arc::new(UntrustedData::new());
        let b: PolicyRef = Arc::new(PasswordPolicy::new("u@x"));
        assert!(!policy_refs_equal(&a, &b));
    }

    #[test]
    fn downcast_works() {
        let a: PolicyRef = Arc::new(PasswordPolicy::new("u@x"));
        let p = downcast_policy::<PasswordPolicy>(&a).expect("downcast");
        assert_eq!(p.email(), "u@x");
        assert!(downcast_policy::<UntrustedData>(&a).is_none());
    }
}
