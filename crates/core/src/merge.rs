//! The policy merge engine (§3.4.2), over interned [`Label`]s.
//!
//! Character-level tracking lets RESIN avoid merging when data is copied
//! verbatim, but merges are inevitable when data elements are *combined* —
//! e.g. adding the integer values of two differently-tainted characters to
//! compute a checksum. The runtime then invokes `merge` on each policy of
//! each source operand, passing the other operand's label, and labels the
//! result with the union of everything the merge methods return.
//!
//! Merging two empty labels is pure handle arithmetic; any non-empty
//! operand resolves its policy objects once to consult each `merge`
//! strategy (a `Deny`-strategy policy must veto even a self-merge, so
//! there is deliberately no equal-labels shortcut). Policies kept by the
//! default union strategy are re-labeled by id — no re-interning, no
//! `serialize_fields` allocation on this path.

use crate::error::FlowError;
use crate::label::{Label, LabelTable, PolicyId};
use crate::policy::MergeDecision;

/// Merges the labels of two operands being combined into one datum.
///
/// For every policy `p` of either operand, `p.merge(other_label)` decides
/// whether `p` (or substitutes) should label the result; a
/// [`MergeDecision::Deny`] aborts the whole operation with
/// [`FlowError::MergeDenied`].
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// // UntrustedData uses the union strategy: the result stays untrusted.
/// let a = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef));
/// let merged = merge_sets(a, Label::EMPTY).unwrap();
/// assert!(merged.has::<UntrustedData>());
/// ```
pub fn merge_sets(a: Label, b: Label) -> Result<Label, FlowError> {
    // Fast path: nothing to merge.
    if a.is_empty() && b.is_empty() {
        return Ok(Label::EMPTY);
    }
    // Kept policies are already interned — collect their ids and intern the
    // result set once; only `Attach`ed substitutes need fresh interning.
    let mut kept: Vec<PolicyId> = Vec::new();
    let mut attached: Vec<crate::policy::PolicyRef> = Vec::new();
    for (own, other) in [(a, b), (b, a)] {
        if own.is_empty() {
            continue;
        }
        let ids = own.ids();
        let refs = own.policies();
        for (id, p) in ids.iter().zip(refs.iter()) {
            match p.merge(other) {
                MergeDecision::Keep => kept.push(*id),
                MergeDecision::Drop => {}
                MergeDecision::Attach(list) => attached.extend(list),
                MergeDecision::Deny(v) => return Err(FlowError::MergeDenied(v)),
            }
        }
    }
    let mut out = LabelTable::global().intern_ids(kept);
    for q in &attached {
        out = out.union(Label::of(q));
    }
    Ok(out)
}

/// Merges an arbitrary number of operand labels left-to-right.
pub fn merge_many<I>(labels: I) -> Result<Label, FlowError>
where
    I: IntoIterator<Item = Label>,
{
    let mut acc = Label::EMPTY;
    for l in labels {
        acc = merge_sets(acc, l)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::error::{PolicyViolation, Reason};
    use crate::policies::{AuthenticData, UntrustedData};
    use crate::policy::{MergeDecision, Policy, PolicyRef};
    use std::any::Any;
    use std::sync::Arc;

    /// A policy whose merge always denies — for failure-injection tests.
    #[derive(Debug)]
    struct NoMerge;

    impl Policy for NoMerge {
        fn name(&self) -> &str {
            "NoMerge"
        }
        fn export_check(&self, _c: &Context) -> Result<(), PolicyViolation> {
            Ok(())
        }
        fn merge(&self, _others: Label) -> MergeDecision {
            MergeDecision::Deny(PolicyViolation::new(
                "NoMerge",
                Reason::Refused("cannot merge"),
            ))
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn label_of<P: Policy>(p: P) -> Label {
        Label::of(&(Arc::new(p) as PolicyRef))
    }

    #[test]
    fn union_is_default() {
        let a = label_of(UntrustedData::new());
        let m = merge_sets(a, Label::EMPTY).unwrap();
        assert!(m.has::<UntrustedData>());
        let m2 = merge_sets(Label::EMPTY, a).unwrap();
        assert!(m2.has::<UntrustedData>());
    }

    #[test]
    fn intersection_policy_drops_when_other_lacks_it() {
        // AuthenticData implements the intersection strategy.
        let a = label_of(AuthenticData::new());
        let m = merge_sets(a, Label::EMPTY).unwrap();
        assert!(
            !m.has::<AuthenticData>(),
            "result is authentic only if all operands were"
        );
    }

    #[test]
    fn intersection_policy_kept_when_both_have_it() {
        let a = label_of(AuthenticData::new());
        let b = label_of(AuthenticData::new());
        assert_eq!(a, b, "structural duplicates intern identically");
        let m = merge_sets(a, b).unwrap();
        assert!(m.has::<AuthenticData>());
        assert_eq!(m.len(), 1, "deduplicated");
    }

    #[test]
    fn deny_aborts_merge() {
        let a = label_of(NoMerge);
        let b = label_of(UntrustedData::new());
        let err = merge_sets(a, b).unwrap_err();
        assert!(matches!(err, FlowError::MergeDenied(_)));
    }

    #[test]
    fn empty_fast_path() {
        let m = merge_sets(Label::EMPTY, Label::EMPTY).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn merge_many_accumulates() {
        let a = label_of(UntrustedData::new());
        let c = label_of(UntrustedData::new());
        let m = merge_many([a, Label::EMPTY, c]).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.has::<UntrustedData>());
    }
}
