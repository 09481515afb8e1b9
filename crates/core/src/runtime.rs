//! The runtime: a registry of default gates for every I/O surface.
//!
//! RESIN pre-defines default filter objects on all I/O channels into and
//! out of the runtime — sockets, pipes, files, HTTP output, email, SQL,
//! and code import (§3.2.1). The [`GateRegistry`] owns those defaults: each
//! surface maps to a *gate factory*, and [`GateRegistry::open`] stamps out
//! a fresh [`Gate`] for one connection/file/query stream. Applications and
//! the `vfs`/`sql`/`web` layers resolve their gates here instead of
//! hand-rolling boundary plumbing, so a deployment can tighten or
//! instrument every surface in one place — the single interposition point
//! the ROADMAP's batching, verdict-caching, and instrumentation items hang
//! off.
//!
//! Two surfaces are registered *unguarded* by default:
//!
//! * **file** — the paper's default file filter performs policy
//!   *persistence* (serialize on write, revive on read, §3.4.1), not export
//!   checks; `resin_vfs` implements persistence and mounts per-file
//!   persistent filters on the gate it opens here.
//! * **sql** — likewise, the SQL filter *rewrites* queries and results to
//!   persist policies (§3.4.1) and guards injection (§5.3); `resin_sql`
//!   mounts its guard filter on the gate it opens here.
//!
//! Everything else (http, email, socket, pipe, code-import) starts with
//! [`DefaultFilter`](crate::filter::DefaultFilter), which runs every
//! policy's `export_check` (Figure 3).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

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

/// Creates a fresh gate for one use of a surface.
pub type GateFactory = Arc<dyn Fn() -> Gate + Send + Sync>;

/// Maps I/O surfaces to their default-gate factories.
pub struct GateRegistry {
    factories: RwLock<HashMap<String, GateFactory>>,
}

impl GateRegistry {
    /// The registry key for a kind.
    ///
    /// Custom surfaces are namespaced so an application-defined boundary
    /// named (say) `"email"` can never alias — or replace — the builtin
    /// Email surface and its default checks.
    fn key(kind: &GateKind) -> String {
        match kind {
            GateKind::Custom(name) => format!("custom:{name}"),
            builtin => builtin.type_name().to_string(),
        }
    }

    /// A registry with no defaults (every [`open`](GateRegistry::open)
    /// falls back to a guarded [`Gate::new`]).
    pub fn empty() -> Self {
        GateRegistry {
            factories: RwLock::new(HashMap::new()),
        }
    }

    /// A registry pre-populated with the paper's seven I/O surfaces.
    pub fn with_defaults() -> Self {
        let registry = GateRegistry::empty();
        for kind in GateKind::IO_SURFACES {
            let factory: GateFactory = match kind {
                // Persistence surfaces: vfs/sql provide the real filtering.
                GateKind::File | GateKind::Sql => {
                    let kind = kind.clone();
                    Arc::new(move || Gate::unguarded(kind.clone()))
                }
                // Checking surfaces: the default filter of Figure 3.
                _ => {
                    let kind = kind.clone();
                    Arc::new(move || Gate::new(kind.clone()))
                }
            };
            registry.set_factory(GateRegistry::key(&kind), factory);
        }
        registry
    }

    // Registrations are single `insert`/`get` steps, so the map is
    // consistent at every panic point and a poisoned lock is recoverable
    // (see `crate::sync`).
    fn set_factory(&self, key: String, factory: GateFactory) {
        crate::sync::wlock(&self.factories).insert(key, factory);
    }

    /// Registers (or replaces) the default gate for a surface.
    ///
    /// The factory runs once per [`open`](GateRegistry::open), so each
    /// caller gets an independent gate with fresh context, offsets, and
    /// capture buffer.
    pub fn register<F>(&self, kind: GateKind, factory: F)
    where
        F: Fn() -> Gate + Send + Sync + 'static,
    {
        self.set_factory(GateRegistry::key(&kind), Arc::new(factory));
    }

    /// True if a default is registered for `kind`.
    pub fn contains(&self, kind: &GateKind) -> bool {
        crate::sync::rlock(&self.factories).contains_key(&GateRegistry::key(kind))
    }

    /// The registered surface names, sorted.
    pub fn surfaces(&self) -> Vec<String> {
        let mut names: Vec<String> = crate::sync::rlock(&self.factories)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Stamps out a fresh gate for `kind`.
    ///
    /// Unregistered kinds fall back to a guarded [`Gate::new`], so opening
    /// a surface is always safe — an unknown boundary gets the paper's
    /// default filter rather than no filter.
    pub fn open(&self, kind: GateKind) -> Gate {
        let factory = crate::sync::rlock(&self.factories)
            .get(&GateRegistry::key(&kind))
            .cloned();
        match factory {
            Some(f) => f(),
            None => Gate::new(kind),
        }
    }
}

impl Default for GateRegistry {
    fn default() -> Self {
        GateRegistry::with_defaults()
    }
}

impl std::fmt::Debug for GateRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateRegistry")
            .field("surfaces", &self.surfaces())
            .finish()
    }
}

/// The RESIN runtime: owns the gate registry.
///
/// Most code uses the process-wide [`Runtime::global`]; tests and
/// multi-tenant embeddings build their own with [`Runtime::new`] and
/// customize its registry.
///
/// ```
/// use resin_core::prelude::*;
///
/// let rt = Runtime::new();
/// let gate = rt.open(GateKind::Http);
/// assert_eq!(gate.kind(), &GateKind::Http);
/// assert_eq!(gate.filter_count(), 1, "default filter pre-installed");
///
/// // Persistence surfaces start unguarded; their crates mount filters.
/// assert_eq!(rt.open(GateKind::Sql).filter_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct Runtime {
    registry: GateRegistry,
}

impl Runtime {
    /// A runtime with the default registry.
    pub fn new() -> Self {
        Runtime {
            registry: GateRegistry::with_defaults(),
        }
    }

    /// A runtime around a custom registry.
    pub fn with_registry(registry: GateRegistry) -> Self {
        Runtime { registry }
    }

    /// The process-wide runtime.
    ///
    /// Registrations on its registry affect every subsequent
    /// [`Runtime::open`] anywhere in the process — the one place to
    /// tighten or instrument a surface globally.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::new)
    }

    /// The runtime's registry.
    pub fn registry(&self) -> &GateRegistry {
        &self.registry
    }

    /// Opens a fresh gate for `kind` from the registry.
    pub fn open(&self, kind: GateKind) -> Gate {
        self.registry.open(kind)
    }

    /// Opens a gate for an application-defined surface by name.
    pub fn open_custom(&self, name: &'static str) -> Gate {
        self.registry.open(GateKind::Custom(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::PasswordPolicy;
    use crate::taint::TaintedString;
    use std::sync::Arc;

    #[test]
    fn defaults_cover_all_seven_surfaces() {
        let r = GateRegistry::with_defaults();
        for kind in GateKind::IO_SURFACES {
            assert!(r.contains(&kind), "{kind} missing");
        }
        assert_eq!(r.surfaces().len(), 7);
    }

    #[test]
    fn checking_surfaces_are_guarded_persistence_surfaces_are_not() {
        let rt = Runtime::new();
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
        let rt = Runtime::new();
        let mut a = rt.open(GateKind::Http);
        let b = rt.open(GateKind::Http);
        a.write_str("x").unwrap();
        assert_eq!(a.output_mark(), 1);
        assert_eq!(b.output_mark(), 0, "gates do not share state");
    }

    #[test]
    fn register_overrides_default() {
        let rt = Runtime::new();
        rt.registry().register(GateKind::Http, || {
            Gate::builder(GateKind::Http)
                .context("hardened", true)
                .build()
        });
        assert!(rt.open(GateKind::Http).context().get_flag("hardened"));
    }

    #[test]
    fn unregistered_kind_falls_back_to_guarded() {
        let r = GateRegistry::empty();
        assert!(!r.contains(&GateKind::Custom("nope")));
        let mut g = r.open(GateKind::Custom("nope"));
        assert_eq!(g.filter_count(), 1, "fallback is guarded, not naked");
        let mut secret = TaintedString::from("pw");
        secret.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        assert!(g.write(secret).is_err());
    }

    #[test]
    fn custom_surface_registration() {
        let rt = Runtime::new();
        rt.registry().register(GateKind::Custom("audit"), || {
            Gate::internal("audit").deny::<PasswordPolicy>()
        });
        let g = rt.open_custom("audit");
        let secret = TaintedString::with_policy("pw", Arc::new(PasswordPolicy::new("u@x")));
        assert!(g.export(secret).is_err());
    }

    #[test]
    fn custom_kind_cannot_alias_builtin_surface() {
        let rt = Runtime::new();
        rt.registry().register(GateKind::Custom("email"), || {
            Gate::unguarded(GateKind::Custom("email"))
        });
        // The builtin email surface is untouched: still guarded.
        assert_eq!(rt.open(GateKind::Email).filter_count(), 1);
        // The custom surface resolves separately.
        assert_eq!(rt.open_custom("email").filter_count(), 0);
        // And an unregistered custom name never inherits a builtin's
        // (possibly unguarded) factory: guarded fallback.
        assert_eq!(rt.open_custom("sql").filter_count(), 1);
    }

    #[test]
    fn global_runtime_is_shared() {
        let a = Runtime::global();
        let b = Runtime::global();
        assert!(std::ptr::eq(a, b));
    }
}
