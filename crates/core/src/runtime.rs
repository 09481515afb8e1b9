//! The runtime: the default gate for every I/O surface.
//!
//! RESIN pre-defines default filter objects on all I/O channels into and
//! out of the runtime — sockets, pipes, files, HTTP output, email, SQL,
//! and code import (§3.2.1). [`Runtime::open`] names those defaults in one
//! `match`; each crate builds the gate it uses where it uses it, with
//! [`Gate::new`] or [`Gate::unguarded`], and this is the same choice.
//!
//! Two surfaces are *unguarded* by default:
//!
//! * **file** — the paper's default file filter performs policy
//!   *persistence* (serialize on write, revive on read, §3.4.1), not export
//!   checks; `resin_vfs` implements persistence and mounts per-file
//!   persistent filters on the file gate it opens.
//! * **sql** — likewise, the SQL filter *rewrites* queries and results to
//!   persist policies (§3.4.1) and guards injection (§5.3); `resin_sql`
//!   mounts its guard filter on the sql gate it opens.
//!
//! Everything else (http, email, socket, pipe, code-import, and any
//! `Custom` boundary) starts with
//! [`DefaultFilter`](crate::filter::DefaultFilter), which runs every
//! policy's `export_check` (Figure 3).

use crate::gate::{Gate, GateKind};

/// Whether the SQL front, the interpreter or the filesystem performs RESIN
/// data tracking, or runs as its unmodified twin (Table 5's baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tracking {
    /// The unmodified runtime: no propagation, no persisted policies.
    Off,
    /// The RESIN runtime.
    #[default]
    On,
}

/// The RESIN runtime: opens the default gate of a surface.
///
/// ```
/// use resin_core::prelude::*;
///
/// let gate = Runtime::global().open(GateKind::Http);
/// assert_eq!(gate.kind(), &GateKind::Http);
/// assert_eq!(gate.filter_count(), 1, "default filter pre-installed");
///
/// // Persistence surfaces start unguarded; their crates mount filters.
/// assert_eq!(Runtime::global().open(GateKind::Sql).filter_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct Runtime;

impl Runtime {
    /// The process-wide runtime.
    pub fn global() -> &'static Runtime {
        static GLOBAL: Runtime = Runtime;
        &GLOBAL
    }

    /// Opens a fresh gate for `kind`: File and Sql unguarded, every other
    /// kind, `Custom` included, guarded by the default filter.
    pub fn open(&self, kind: GateKind) -> Gate {
        match kind {
            GateKind::File | GateKind::Sql => Gate::unguarded(kind),
            _ => Gate::new(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::policies::PasswordPolicy;
    use crate::taint::TaintedString;
    use std::sync::Arc;

    #[test]
    fn defaults_cover_all_seven_surfaces() {
        // (kind, filters): the default filter everywhere but on the two
        // persistence surfaces, whose crates mount their own.
        let expected = [
            (GateKind::Http, 1),
            (GateKind::Email, 1),
            (GateKind::Socket, 1),
            (GateKind::Pipe, 1),
            (GateKind::File, 0),
            (GateKind::Sql, 0),
            (GateKind::CodeImport, 1),
            (GateKind::Custom("audit"), 1),
        ];
        assert!(GateKind::IO_SURFACES
            .iter()
            .all(|k| expected.iter().any(|(e, _)| e == k)));
        for (kind, filters) in expected {
            let gate = Runtime::global().open(kind.clone());
            assert_eq!(gate.kind(), &kind);
            assert_eq!(gate.filter_count(), filters, "{kind}");
            assert_eq!(gate.rule_count(), 0, "{kind}");
            assert_eq!(gate.name(), None, "{kind}");
            assert_eq!(gate.context(), &Context::new(kind.clone()), "{kind}");
            assert!(gate.context().is_empty(), "{kind}: no entries");
            assert_eq!(gate.context().channel_type(), kind.type_name(), "{kind}");
        }
    }

    #[test]
    fn checking_surfaces_are_guarded_persistence_surfaces_are_not() {
        let rt = Runtime::global();
        assert_eq!(rt.open(GateKind::Http).filter_count(), 1);
        assert_eq!(rt.open(GateKind::Email).filter_count(), 1);
        assert_eq!(rt.open(GateKind::Socket).filter_count(), 1);
        assert_eq!(rt.open(GateKind::Pipe).filter_count(), 1);
        assert_eq!(rt.open(GateKind::CodeImport).filter_count(), 1);
        assert_eq!(rt.open(GateKind::File).filter_count(), 0);
        assert_eq!(rt.open(GateKind::Sql).filter_count(), 0);
    }

    #[test]
    fn open_returns_independent_gates() {
        let rt = Runtime::global();
        let mut a = rt.open(GateKind::Http);
        let b = rt.open(GateKind::Http);
        a.write_str("x").unwrap();
        assert_eq!(a.output_mark(), 1);
        assert_eq!(b.output_mark(), 0, "gates do not share state");
    }

    #[test]
    fn unregistered_kind_falls_back_to_guarded() {
        let mut g = Runtime::global().open(GateKind::Custom("nope"));
        assert_eq!(
            g.filter_count(),
            1,
            "a custom boundary is guarded, not naked"
        );
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        assert!(g.write(secret).is_err());
    }

    #[test]
    fn custom_kind_cannot_alias_builtin_surface() {
        // A custom boundary named after an unguarded builtin surface is
        // still guarded: only the builtin File and Sql kinds start naked.
        let rt = Runtime::global();
        assert_eq!(rt.open(GateKind::Custom("email")).filter_count(), 1);
        assert_eq!(rt.open(GateKind::Custom("sql")).filter_count(), 1);
        assert_eq!(rt.open(GateKind::Custom("file")).filter_count(), 1);
    }

    #[test]
    fn global_runtime_is_shared() {
        let a = Runtime::global();
        let b = Runtime::global();
        assert!(std::ptr::eq(a, b));
    }
}
