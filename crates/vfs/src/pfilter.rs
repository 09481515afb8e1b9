//! Persistent filter objects (§3.2.3).
//!
//! RESIN permits an application to place filter objects on persistent files
//! and directories to control write access, because data tracking alone
//! cannot prevent modifications. The filter is stored in the extended
//! attributes of a specific file or directory and invoked automatically
//! when data flows into or out of that file, or when the directory is
//! modified (creating, deleting, or renaming files).
//!
//! Like persistent policies, persistent filters are stored as *class name +
//! fields* and revived through a registry, so filter code can evolve.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use resin_core::{
    Acl, Context, Filter, FlowError, GateKind, PolicyViolation, Right, SerializeError,
    TaintedString,
};

use crate::error::{Result, VfsError};

/// A directory-modifying operation a persistent filter can veto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirOp {
    /// Creating a file or subdirectory.
    Create,
    /// Deleting an entry.
    Delete,
    /// Renaming an entry.
    Rename,
}

impl fmt::Display for DirOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DirOp::Create => "create",
            DirOp::Delete => "delete",
            DirOp::Rename => "rename",
        };
        f.write_str(s)
    }
}

/// A filter object persisted on a file or directory.
///
/// Default implementations allow everything, so a filter only overrides the
/// hooks it cares about (e.g. a write-ACL filter overrides `check_write`
/// and `check_dir_op`).
pub trait PersistentFilter: Send + Sync + fmt::Debug {
    /// The filter's class name (for persistence).
    fn name(&self) -> &str;

    /// Serializes the filter's data fields.
    fn serialize_fields(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Invoked when data flows *into* the guarded file.
    fn check_write(&self, _path: &str, _ctx: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }

    /// Invoked when data flows *out of* the guarded file.
    fn check_read(&self, _path: &str, _ctx: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }

    /// Invoked when the guarded directory is modified.
    fn check_dir_op(
        &self,
        _op: DirOp,
        _entry: &str,
        _ctx: &Context,
    ) -> Result<(), PolicyViolation> {
        Ok(())
    }
}

/// Reference-counted persistent filter.
pub type PersistentFilterRef = Arc<dyn PersistentFilter>;

// ---- registry ----

/// Fields of a serialized filter.
pub type FilterFields = BTreeMap<String, String>;

type FilterFactory =
    Arc<dyn Fn(&FilterFields) -> Result<PersistentFilterRef, SerializeError> + Send + Sync>;

fn registry() -> &'static RwLock<HashMap<String, FilterFactory>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, FilterFactory>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map: HashMap<String, FilterFactory> = HashMap::new();
        map.insert(
            "AclWriteFilter".into(),
            Arc::new(|f: &FilterFields| {
                let enc = f.get("acl").cloned().ok_or(SerializeError::MissingField {
                    class: "AclWriteFilter".into(),
                    field: "acl".into(),
                })?;
                let acl = Acl::decode(&enc).ok_or_else(|| SerializeError::BadField {
                    class: "AclWriteFilter".into(),
                    field: "acl".into(),
                    reason: format!("unparsable ACL `{enc}`"),
                })?;
                Ok(Arc::new(AclWriteFilter::new(acl)) as PersistentFilterRef)
            }),
        );
        RwLock::new(map)
    })
}

/// Registers a persistent-filter class for deserialization.
pub fn register_filter_class(
    name: impl Into<String>,
    factory: impl Fn(&FilterFields) -> Result<PersistentFilterRef, SerializeError>
        + Send
        + Sync
        + 'static,
) {
    resin_core::sync::wlock(registry()).insert(name.into(), Arc::new(factory));
}

/// Serializes a persistent filter (class name + fields), same wire shape as
/// policies.
pub fn serialize_filter(filter: &PersistentFilterRef) -> String {
    let fields = filter
        .serialize_fields()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";");
    format!("{}{{{}}}", filter.name(), fields)
}

/// Revives a persistent filter from its serialized form.
pub fn deserialize_filter(s: &str) -> Result<PersistentFilterRef> {
    let open = s
        .find('{')
        .ok_or_else(|| VfsError::from(SerializeError::Malformed(format!("no `{{` in `{s}`"))))?;
    if !s.ends_with('}') {
        return Err(SerializeError::Malformed(format!("no `}}` in `{s}`")).into());
    }
    let name = &s[..open];
    let body = &s[open + 1..s.len() - 1];
    let mut fields = FilterFields::new();
    if !body.is_empty() {
        for pair in body.split(';') {
            let (k, v) = pair.split_once('=').ok_or_else(|| {
                VfsError::from(SerializeError::Malformed(format!("bad field `{pair}`")))
            })?;
            fields.insert(k.to_string(), v.to_string());
        }
    }
    let factory = resin_core::sync::rlock(registry())
        .get(name)
        .cloned()
        .ok_or_else(|| VfsError::from(SerializeError::UnknownClass(name.to_string())))?;
    factory(&fields).map_err(VfsError::from)
}

// ---- gate integration ----

/// Mounts a persistent filter onto a core file [`Gate`](resin_core::Gate).
///
/// The vfs resolves the file gate from the
/// [`Runtime`](resin_core::Runtime) registry and pushes one mount per
/// governing persistent filter: data flowing *into* the file runs
/// `check_write`, data flowing *out* runs `check_read`, with the gate's
/// context (user, path, ...) passed through — the same interposition every
/// other I/O surface gets.
pub struct GateMount {
    filter: PersistentFilterRef,
    path: String,
}

impl GateMount {
    /// Mounts `filter`, reporting violations against `path`.
    pub fn new(filter: PersistentFilterRef, path: impl Into<String>) -> Self {
        GateMount {
            filter,
            path: path.into(),
        }
    }
}

impl Filter for GateMount {
    fn filter_write(
        &self,
        data: TaintedString,
        offset: u64,
        context: &Context,
    ) -> Result<TaintedString, FlowError> {
        self.filter_write_cow(std::borrow::Cow::Owned(data), offset, context)
            .map(std::borrow::Cow::into_owned)
    }

    // The mount only consults the context, never the data: borrowed data
    // passes through the gate without a copy.
    fn filter_write_cow<'a>(
        &self,
        data: std::borrow::Cow<'a, TaintedString>,
        _offset: u64,
        context: &Context,
    ) -> Result<std::borrow::Cow<'a, TaintedString>, FlowError> {
        self.filter
            .check_write(&self.path, context)
            .map_err(|v| FlowError::Denied(v.on_channel(GateKind::File)))?;
        Ok(data)
    }

    fn filter_read(
        &self,
        data: TaintedString,
        _offset: u64,
        context: &Context,
    ) -> Result<TaintedString, FlowError> {
        self.filter
            .check_read(&self.path, context)
            .map_err(|v| FlowError::Denied(v.on_channel(GateKind::File)))?;
        Ok(data)
    }
}

impl fmt::Debug for GateMount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateMount")
            .field("filter", &self.filter.name())
            .field("path", &self.path)
            .finish()
    }
}

// ---- stock filters ----

/// Write access control by ACL (the MoinMoin write-ACL assertion, §5.1, and
/// the file managers' home-directory confinement, §6.2).
///
/// `check_write` and `check_dir_op` require the channel context's `user` to
/// hold the [`Right::Write`] right.
#[derive(Debug, Clone)]
pub struct AclWriteFilter {
    acl: Acl,
}

impl AclWriteFilter {
    /// Creates a write filter enforcing `acl`.
    pub fn new(acl: Acl) -> Self {
        AclWriteFilter { acl }
    }

    /// The enforced ACL.
    pub fn acl(&self) -> &Acl {
        &self.acl
    }

    fn check(&self, what: &str, ctx: &Context) -> Result<(), PolicyViolation> {
        let Some(user) = ctx.get_str("user") else {
            return Err(PolicyViolation::new(
                "AclWriteFilter",
                format!("write to {what} denied: no authenticated user"),
            ));
        };
        if self.acl.may(user, Right::Write) {
            Ok(())
        } else {
            Err(PolicyViolation::new(
                "AclWriteFilter",
                format!("write to {what} denied for `{user}`"),
            ))
        }
    }
}

impl PersistentFilter for AclWriteFilter {
    fn name(&self) -> &str {
        "AclWriteFilter"
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        vec![("acl".to_string(), self.acl.encode())]
    }

    fn check_write(&self, path: &str, ctx: &Context) -> Result<(), PolicyViolation> {
        self.check(path, ctx)
    }

    fn check_dir_op(&self, op: DirOp, entry: &str, ctx: &Context) -> Result<(), PolicyViolation> {
        self.check(&format!("({op} {entry})"), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(user: &str) -> Context {
        let mut c = Context::new(GateKind::File);
        c.set_str("user", user);
        c
    }

    #[test]
    fn acl_write_filter_enforces() {
        let f = AclWriteFilter::new(Acl::new().grant("alice", &[Right::Write]));
        assert!(f.check_write("/x", &ctx("alice")).is_ok());
        assert!(f.check_write("/x", &ctx("bob")).is_err());
        assert!(f.check_write("/x", &Context::new(GateKind::File)).is_err());
        assert!(
            f.check_read("/x", &ctx("bob")).is_ok(),
            "read hook default-allows"
        );
    }

    #[test]
    fn dir_ops_checked() {
        let f = AclWriteFilter::new(Acl::new().grant("alice", &[Right::Write]));
        assert!(f.check_dir_op(DirOp::Create, "new", &ctx("alice")).is_ok());
        assert!(f.check_dir_op(DirOp::Delete, "v1", &ctx("bob")).is_err());
        assert!(f.check_dir_op(DirOp::Rename, "v1", &ctx("bob")).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let f: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("alice", &[Right::Write]),
        ));
        let s = serialize_filter(&f);
        assert_eq!(s, "AclWriteFilter{acl=alice:w}");
        let g = deserialize_filter(&s).unwrap();
        assert!(g.check_write("/x", &ctx("alice")).is_ok());
        assert!(g.check_write("/x", &ctx("bob")).is_err());
    }

    #[test]
    fn unknown_class_rejected() {
        assert!(deserialize_filter("Nope{}").is_err());
        assert!(deserialize_filter("Nope").is_err());
        assert!(
            deserialize_filter("AclWriteFilter{}").is_err(),
            "missing acl"
        );
        assert!(deserialize_filter("AclWriteFilter{acl=???}").is_err());
    }

    #[test]
    fn custom_filter_class() {
        #[derive(Debug)]
        struct DenyAll;
        impl PersistentFilter for DenyAll {
            fn name(&self) -> &str {
                "DenyAllTestFilter"
            }
            fn check_write(&self, p: &str, _c: &Context) -> Result<(), PolicyViolation> {
                Err(PolicyViolation::new(
                    "DenyAllTestFilter",
                    format!("no writes to {p}"),
                ))
            }
        }
        register_filter_class("DenyAllTestFilter", |_| {
            Ok(Arc::new(DenyAll) as PersistentFilterRef)
        });
        let f = deserialize_filter("DenyAllTestFilter{}").unwrap();
        assert!(f.check_write("/anything", &ctx("root")).is_err());
        assert_eq!(DirOp::Create.to_string(), "create");
    }
}
