//! Filter objects: the boundary-interposition mechanism (§3.2).
//!
//! A filter object interposes on a [`Gate`](crate::gate::Gate). When data
//! crosses the boundary, the gate invokes `filter_read` / `filter_write`
//! (Table 3), which may check or alter the in-transit data.
//! [`DefaultFilter`] reproduces the paper's Figure 3: it calls
//! `export_check` on every policy of the in-transit data and always lets
//! policy-free data through.

use std::borrow::Cow;

use crate::context::Context;
use crate::error::{FlowError, Result};
use crate::metrics::{self, Counter};
use crate::taint::TaintedString;

/// The boundary-interposition interface (Table 3's `filter::*` rows).
///
/// Both hooks return the (possibly altered) data; returning an error aborts
/// the flow. `offset` is the running byte offset on the gate, mirroring the
/// paper's `filter_read(data, offset)` signature.
pub trait Filter: Send + Sync {
    /// Invoked when data comes *in* through a data flow boundary; may assign
    /// initial policies (e.g. deserialize persistent policies) or reject.
    fn filter_read(
        &self,
        data: TaintedString,
        _offset: u64,
        _context: &Context,
    ) -> Result<TaintedString> {
        Ok(data)
    }

    /// Invoked when data is *exported* through a data flow boundary;
    /// typically invokes assertion checks.
    ///
    /// The data arrives as a [`Cow`]: a filter that only *checks* (the
    /// overwhelmingly common case — the default filter, guard filters,
    /// persistent-filter mounts) returns it as it came, so a borrowed
    /// value crosses the whole [`Gate`](crate::gate::Gate) chain without
    /// a clone. A filter that rewrites takes ownership with
    /// [`Cow::into_owned`] or [`Cow::to_mut`].
    fn filter_write<'a>(
        &self,
        data: Cow<'a, TaintedString>,
        _offset: u64,
        _context: &Context,
    ) -> Result<Cow<'a, TaintedString>> {
        Ok(data)
    }
}

/// The default filter attached to every guarded gate (Figure 3).
///
/// On write it invokes `export_check(context)` on each distinct policy
/// present anywhere in the data; data without policies always passes. Note
/// the asymmetry the paper points out in §5.2: the default filter *permits*
/// data that has no policy — assertions that require a policy's presence
/// (like `CodeApproval`) need a programmer-specified filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultFilter;

impl DefaultFilter {
    /// Figure 3: `export_check` on every distinct policy of the data.
    /// Collecting the distinct policies is label arithmetic (memoized span
    /// unions); only the final resolution touches policy objects.
    fn check(data: &TaintedString, context: &Context) -> Result<()> {
        let label = data.label();
        if label.is_empty() {
            return Ok(());
        }
        for policy in label.policies().iter() {
            metrics::inc(Counter::NativeChecks);
            policy
                .export_check(context)
                .map_err(|v| FlowError::Denied(v.on_channel(context.kind().clone())))?;
        }
        Ok(())
    }
}

impl Filter for DefaultFilter {
    // Pure check: the data is forwarded exactly as it arrived, so a
    // borrowed value stays borrowed across the whole chain.
    fn filter_write<'a>(
        &self,
        data: Cow<'a, TaintedString>,
        _offset: u64,
        context: &Context,
    ) -> Result<Cow<'a, TaintedString>> {
        Self::check(&data, context)?;
        Ok(data)
    }
}

/// A filter built from closures, for one-off application-specific boundaries.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
///
/// // Reject any CR-LF-CR-LF in transit (HTTP response splitting, §3.2).
/// let mut gate = Gate::new(GateKind::Http);
/// gate.add_filter(Box::new(FnFilter::on_write(|data, _, _| {
///     if data.contains("\r\n\r\n") {
///         Err(FlowError::rejected("response splitting"))
///     } else {
///         Ok(data)
///     }
/// })));
/// assert!(gate.write_str("a\r\n\r\nb").is_err());
/// ```
pub struct FnFilter {
    read: Option<FilterFn>,
    write: Option<FilterFn>,
}

type FilterFn = Box<dyn Fn(TaintedString, u64, &Context) -> Result<TaintedString> + Send + Sync>;

impl FnFilter {
    /// A filter that only hooks writes.
    pub fn on_write<F>(f: F) -> Self
    where
        F: Fn(TaintedString, u64, &Context) -> Result<TaintedString> + Send + Sync + 'static,
    {
        FnFilter {
            read: None,
            write: Some(Box::new(f)),
        }
    }

    /// A filter that only hooks reads.
    pub fn on_read<F>(f: F) -> Self
    where
        F: Fn(TaintedString, u64, &Context) -> Result<TaintedString> + Send + Sync + 'static,
    {
        FnFilter {
            read: Some(Box::new(f)),
            write: None,
        }
    }
}

impl Filter for FnFilter {
    fn filter_read(
        &self,
        data: TaintedString,
        offset: u64,
        context: &Context,
    ) -> Result<TaintedString> {
        match &self.read {
            Some(f) => f(data, offset, context),
            None => Ok(data),
        }
    }

    fn filter_write<'a>(
        &self,
        data: Cow<'a, TaintedString>,
        offset: u64,
        context: &Context,
    ) -> Result<Cow<'a, TaintedString>> {
        match &self.write {
            // A closure may alter the data, so it needs ownership.
            Some(f) => f(data.into_owned(), offset, context).map(Cow::Owned),
            None => Ok(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::policies::{PasswordPolicy, UntrustedData};
    use crate::policy::PolicyRef;
    use std::sync::Arc;

    #[test]
    fn default_filter_checks_every_policy() {
        let ctx = Context::new(GateKind::Http);
        let mut data = TaintedString::from("pw");
        data.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        let err = DefaultFilter
            .filter_write(Cow::Owned(data), 0, &ctx)
            .unwrap_err();
        assert!(err.is_violation());
        let v = err.as_violation().unwrap();
        assert_eq!(v.channel, Some(GateKind::Http));
    }

    #[test]
    fn default_filter_passes_policy_free_data() {
        let ctx = Context::new(GateKind::Http);
        let out = DefaultFilter
            .filter_write(Cow::Owned(TaintedString::from("ok")), 0, &ctx)
            .unwrap();
        assert_eq!(out.as_str(), "ok");
    }

    #[test]
    fn default_filter_passes_marker_policies() {
        // UntrustedData's export_check allows; only special filters act on it.
        let ctx = Context::new(GateKind::Http);
        let mut data = TaintedString::from("x");
        data.add_policy(Arc::new(UntrustedData::new()));
        assert!(DefaultFilter
            .filter_write(Cow::Owned(data), 0, &ctx)
            .is_ok());
    }

    #[test]
    fn fn_filter_can_alter_data() {
        let f = FnFilter::on_write(|data, _, _| Ok(data.replace_str("\r\n\r\n", "")));
        let ctx = Context::new(GateKind::Http);
        let out = f
            .filter_write(Cow::Owned(TaintedString::from("a\r\n\r\nb")), 0, &ctx)
            .unwrap();
        assert_eq!(out.as_str(), "ab");
    }

    #[test]
    fn fn_filter_read_hook() {
        let f = FnFilter::on_read(|mut data, _, _| {
            data.add_policy(Arc::new(UntrustedData::new()) as PolicyRef);
            Ok(data)
        });
        let ctx = Context::new(GateKind::Socket);
        let out = f.filter_read(TaintedString::from("in"), 0, &ctx).unwrap();
        assert!(out.has_policy::<UntrustedData>());
        // Write hook not installed: passthrough.
        let w = f
            .filter_write(Cow::Owned(TaintedString::from("w")), 0, &ctx)
            .unwrap();
        assert!(w.is_untainted());
    }

    #[test]
    fn gate_call_strips_policy_like_encryption() {
        // An encryption function is a natural boundary: strip passwords.
        let gate = crate::gate::Gate::internal("encrypt").strip::<PasswordPolicy>();
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        let out = gate
            .call(vec![secret], |args| {
                // "Encrypt" = reverse.
                let s: String = args[0].as_str().chars().rev().collect();
                Ok(TaintedString::from(s))
            })
            .unwrap();
        assert_eq!(out.as_str(), "wp");
        assert!(!out.has_policy::<PasswordPolicy>());
    }
}
