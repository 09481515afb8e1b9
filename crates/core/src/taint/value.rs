//! Tainted scalar values.
//!
//! Scalars (integers, floats) cannot carry byte-range policies; they carry
//! a single whole-datum [`Label`]. Combining two tainted scalars merges
//! their labels through the merge engine (§3.4.2) — this is the "integer
//! addition" row of Table 5. Since a `Label` is a 4-byte `Copy` handle,
//! propagating it through `map`/`combine` costs nothing.

use std::fmt;

use crate::error::Result;
use crate::label::Label;
use crate::merge::merge_sets;
use crate::policy::{Policy, PolicyRef};

/// A scalar value labeled with an interned policy set.
#[derive(Clone, Copy)]
pub struct Tainted<T> {
    value: T,
    label: Label,
}

impl<T> Tainted<T> {
    /// Wraps a value with no policies.
    pub fn new(value: T) -> Self {
        Tainted {
            value,
            label: Label::EMPTY,
        }
    }

    /// Wraps a value with an initial policy.
    pub fn with_policy(value: T, policy: PolicyRef) -> Self {
        Tainted {
            value,
            label: Label::of(&policy),
        }
    }

    /// Wraps a value with an existing label.
    pub fn with_label(value: T, label: Label) -> Self {
        Tainted { value, label }
    }

    /// The wrapped value.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Consumes the wrapper, dropping policies (explicit declassify).
    #[cfg(test)]
    pub(crate) fn into_value(self) -> T {
        self.value
    }

    /// The attached label.
    pub fn label(&self) -> Label {
        self.label
    }

    /// Attaches a policy.
    pub fn add_policy(&mut self, policy: PolicyRef) {
        self.label = self.label.union(Label::of(&policy));
    }

    /// Unions a label in.
    pub fn add_label(&mut self, label: Label) {
        self.label = self.label.union(label);
    }

    /// Removes a policy.
    pub fn remove_policy(&mut self, policy: &PolicyRef) {
        self.label = self.label.remove(crate::label::PolicyId::intern(policy));
    }

    /// True if a policy of type `P` is attached.
    pub fn has_policy<P: Policy>(&self) -> bool {
        self.label.has::<P>()
    }

    /// Maps the value, keeping the same label (unary operations propagate
    /// labels unchanged).
    pub fn map<U, F: FnOnce(&T) -> U>(&self, f: F) -> Tainted<U> {
        Tainted {
            value: f(&self.value),
            label: self.label,
        }
    }

    /// Combines two tainted values with `f`, merging their labels.
    ///
    /// Fails if any policy's `merge` method vetoes the combination.
    pub(crate) fn combine<U, V, F>(&self, other: &Tainted<U>, f: F) -> Result<Tainted<V>>
    where
        F: FnOnce(&T, &U) -> V,
    {
        let merged = merge_sets(self.label, other.label)?;
        Ok(Tainted {
            value: f(&self.value, &other.value),
            label: merged,
        })
    }
}

impl Tainted<i64> {
    /// Tainted addition (merges policies).
    pub fn try_add(&self, other: &Tainted<i64>) -> Result<Tainted<i64>> {
        self.combine(other, |a, b| a.wrapping_add(*b))
    }

    /// Tainted subtraction (merges policies).
    #[cfg(test)]
    pub(crate) fn try_sub(&self, other: &Tainted<i64>) -> Result<Tainted<i64>> {
        self.combine(other, |a, b| a.wrapping_sub(*b))
    }

    /// Tainted multiplication (merges policies).
    #[cfg(test)]
    pub(crate) fn try_mul(&self, other: &Tainted<i64>) -> Result<Tainted<i64>> {
        self.combine(other, |a, b| a.wrapping_mul(*b))
    }
}

impl<T: fmt::Debug> fmt::Debug for Tainted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tainted({:?}, {:?})", self.value, self.label)
    }
}

impl<T: fmt::Display> fmt::Display for Tainted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

/// Equality compares values only; taint is invisible to `==`.
impl<T: PartialEq> PartialEq for Tainted<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{AuthenticData, UntrustedData};
    use std::sync::Arc;

    #[test]
    fn addition_unions_policies() {
        let a = Tainted::with_policy(2i64, Arc::new(UntrustedData::new()) as PolicyRef);
        let b = Tainted::new(3i64);
        let c = a.try_add(&b).unwrap();
        assert_eq!(c.value(), &5);
        assert!(c.has_policy::<UntrustedData>());
    }

    #[test]
    fn authentic_intersection_on_add() {
        let a = Tainted::with_policy(1i64, Arc::new(AuthenticData::new()) as PolicyRef);
        let b = Tainted::new(1i64);
        let c = a.try_add(&b).unwrap();
        assert!(!c.has_policy::<AuthenticData>(), "intersection drops");
        let d = Tainted::with_policy(1i64, Arc::new(AuthenticData::new()) as PolicyRef);
        let e = a.try_add(&d).unwrap();
        assert!(e.has_policy::<AuthenticData>(), "both authentic: kept");
    }

    #[test]
    fn map_keeps_policies() {
        let a = Tainted::with_policy(10i64, Arc::new(UntrustedData::new()) as PolicyRef);
        let b = a.map(|v| v * 2);
        assert_eq!(b.value(), &20);
        assert!(b.has_policy::<UntrustedData>());
        assert_eq!(a.label(), b.label(), "same interned handle");
    }

    #[test]
    fn sub_mul_wrap() {
        let a = Tainted::new(i64::MAX);
        let b = Tainted::new(1i64);
        assert_eq!(*a.try_add(&b).unwrap().value(), i64::MIN);
        assert_eq!(*a.try_sub(&b).unwrap().value(), i64::MAX - 1);
        assert_eq!(*b.try_mul(&b).unwrap().value(), 1);
    }

    #[test]
    fn equality_ignores_taint() {
        let a = Tainted::with_policy(5i64, Arc::new(UntrustedData::new()) as PolicyRef);
        let b = Tainted::new(5i64);
        assert_eq!(a, b);
    }

    #[test]
    fn add_remove_policy() {
        let mut a = Tainted::new(1i64);
        let p: PolicyRef = Arc::new(UntrustedData::new());
        a.add_policy(p.clone());
        assert!(a.has_policy::<UntrustedData>());
        a.remove_policy(&p);
        assert!(!a.has_policy::<UntrustedData>());
        assert_eq!(a.into_value(), 1);
    }

    #[test]
    fn with_label_and_add_label() {
        let l = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef));
        let mut a = Tainted::with_label(9i64, l);
        assert_eq!(a.label(), l);
        a.add_label(Label::EMPTY);
        assert_eq!(a.label(), l);
    }
}
