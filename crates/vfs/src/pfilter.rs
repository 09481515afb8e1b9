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
//! fields* and revived through a registry, so filter code can evolve. The
//! text is the policy grammar, `Name{key=value;…}`, written and read by
//! `resin_core::serialize`'s object codec ([`write_object`],
//! [`read_object`](resin_core::serialize::read_object)), and revived
//! through a [`ClassRegistry`] of filter classes, the shape policy classes
//! are registered in too.

use std::fmt;
use std::sync::Arc;

use resin_core::serialize::{acl_field, write_object, ClassRegistry};
use resin_core::{
    Acl, Context, Filter, FlowError, GateKind, PolicyViolation, Right, SerializeError,
    TaintedString,
};

use crate::error::Result;

/// A filter object persisted on a file or directory.
///
/// Default implementations allow everything, so a filter only overrides the
/// hooks it cares about (e.g. a write-ACL filter overrides `check_write`
/// and `check_dir_op`). A hook sees only the channel context; a file
/// read's or write's carries the file's `path`.
pub trait PersistentFilter: Send + Sync + fmt::Debug {
    /// The filter's class name (for persistence).
    fn name(&self) -> &str;

    /// Serializes the filter's data fields.
    fn serialize_fields(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Invoked when data flows *into* the guarded file.
    fn check_write(&self, _ctx: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }

    /// Invoked when data flows *out of* the guarded file.
    fn check_read(&self, _ctx: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }

    /// Invoked when the guarded directory is modified (an entry created,
    /// deleted or renamed).
    fn check_dir_op(&self, _ctx: &Context) -> Result<(), PolicyViolation> {
        Ok(())
    }
}

/// Reference-counted persistent filter.
pub type PersistentFilterRef = Arc<dyn PersistentFilter>;

// ---- registry ----

/// Fields of a serialized filter.
#[cfg(test)]
pub(crate) type FilterFields = resin_core::serialize::FieldMap;

/// The persistent-filter classes stored filters revive through.
static FILTER_CLASSES: ClassRegistry<PersistentFilterRef> =
    ClassRegistry::new(&[("AclWriteFilter", |f| {
        let acl = acl_field(f, "AclWriteFilter")?;
        Ok(Arc::new(AclWriteFilter::new(acl)))
    })]);

/// Registers a persistent-filter class for deserialization.
#[cfg(test)]
pub(crate) fn register_filter_class(
    name: impl Into<String>,
    factory: impl Fn(&FilterFields) -> Result<PersistentFilterRef, SerializeError>
        + Send
        + Sync
        + 'static,
) {
    FILTER_CLASSES.register(name.into(), Arc::new(factory));
}

/// The text `filter` is stored as: its class name and fields as an object
/// of the policy grammar. Newlines separate the filters of the filter
/// xattr, so a text holding one is refused rather than stored as two.
pub(crate) fn filter_text(filter: &PersistentFilterRef) -> Result<String> {
    let text = write_object(filter.name(), &filter.serialize_fields());
    if text.contains('\n') {
        return Err(SerializeError::Malformed(format!(
            "`{}` filter holds a newline, the filter list's separator",
            filter.name()
        ))
        .into());
    }
    Ok(text)
}

/// Revives a persistent filter from its stored text through the registry.
///
/// The revived filter must be stored as `text` again, byte for byte, or it
/// is refused: every text [`filter_text`] writes passes, while one that
/// reads back as a different filter fails closed. Texts written before
/// fields were escaped, whose `%XX` the reader now unescapes once more (an
/// ACL principal `a:w,mallory` stored as `acl=a%3Aw%2Cmallory:w` would
/// revive granting `mallory`), are of that kind.
pub(crate) fn revive_filter(text: &str) -> Result<PersistentFilterRef> {
    let filter = FILTER_CLASSES.revive(text)?;
    if filter_text(&filter)? != text {
        return Err(SerializeError::Malformed(format!(
            "`{text}` does not read back as the filter it stores"
        ))
        .into());
    }
    Ok(filter)
}

// ---- gate integration ----

/// Mounts a persistent filter onto a core file [`Gate`](resin_core::Gate).
///
/// The vfs opens an unguarded file gate and pushes one mount per
/// governing persistent filter: data flowing *into* the file runs
/// `check_write`, data flowing *out* runs `check_read`, with the gate's
/// context (user, path, ...) passed through — the same interposition every
/// other I/O surface gets.
pub(crate) struct GateMount {
    filter: PersistentFilterRef,
}

impl GateMount {
    /// Mounts `filter`.
    pub(crate) fn new(filter: PersistentFilterRef) -> Self {
        GateMount { filter }
    }
}

impl Filter for GateMount {
    // The mount only consults the context, never the data: borrowed data
    // passes through the gate without a copy.
    fn filter_write<'a>(
        &self,
        data: std::borrow::Cow<'a, TaintedString>,
        _offset: u64,
        context: &Context,
    ) -> Result<std::borrow::Cow<'a, TaintedString>, FlowError> {
        self.filter
            .check_write(context)
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
            .check_read(context)
            .map_err(|v| FlowError::Denied(v.on_channel(GateKind::File)))?;
        Ok(data)
    }
}

impl fmt::Debug for GateMount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateMount")
            .field("filter", &self.filter.name())
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
}

impl PersistentFilter for AclWriteFilter {
    fn name(&self) -> &str {
        "AclWriteFilter"
    }

    fn serialize_fields(&self) -> Vec<(String, String)> {
        vec![("acl".to_string(), self.acl.encode())]
    }

    fn check_write(&self, ctx: &Context) -> Result<(), PolicyViolation> {
        self.acl.require("AclWriteFilter", ctx, Right::Write)
    }

    fn check_dir_op(&self, ctx: &Context) -> Result<(), PolicyViolation> {
        self.acl.require("AclWriteFilter", ctx, Right::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::Reason;

    fn ctx(user: &str) -> Context {
        let mut c = Context::new(GateKind::File);
        c.set_str("user", user);
        c
    }

    #[test]
    fn acl_write_filter_enforces() {
        let f = AclWriteFilter::new(Acl::new().grant("alice", &[Right::Write]));
        assert!(f.check_write(&ctx("alice")).is_ok());
        assert!(f.check_write(&ctx("bob")).is_err());
        assert!(f.check_write(&Context::new(GateKind::File)).is_err());
        assert!(
            f.check_read(&ctx("bob")).is_ok(),
            "read hook default-allows"
        );
    }

    #[test]
    fn dir_ops_checked() {
        let f = AclWriteFilter::new(Acl::new().grant("alice", &[Right::Write]));
        assert!(f.check_dir_op(&ctx("alice")).is_ok());
        assert!(f.check_dir_op(&ctx("bob")).is_err());
        assert!(f.check_dir_op(&Context::new(GateKind::File)).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let f: PersistentFilterRef = Arc::new(AclWriteFilter::new(
            Acl::new().grant("alice", &[Right::Write]),
        ));
        let s = filter_text(&f).unwrap();
        assert_eq!(s, "AclWriteFilter{acl=alice:w}");
        let g = revive_filter(&s).unwrap();
        assert!(g.check_write(&ctx("alice")).is_ok());
        assert!(g.check_write(&ctx("bob")).is_err());
    }

    #[test]
    fn unknown_class_rejected() {
        assert!(revive_filter("Nope{}").is_err());
        assert!(revive_filter("Nope").is_err());
        assert!(revive_filter("AclWriteFilter{}").is_err(), "missing acl");
        assert!(revive_filter("AclWriteFilter{acl=???}").is_err());
    }

    #[test]
    fn custom_filter_class() {
        #[derive(Debug)]
        struct DenyAll;
        impl PersistentFilter for DenyAll {
            fn name(&self) -> &str {
                "DenyAllTestFilter"
            }
            fn check_write(&self, _c: &Context) -> Result<(), PolicyViolation> {
                Err(PolicyViolation::new(
                    "DenyAllTestFilter",
                    Reason::Refused("no writes"),
                ))
            }
        }
        register_filter_class("DenyAllTestFilter", |_| {
            Ok(Arc::new(DenyAll) as PersistentFilterRef)
        });
        let f = revive_filter("DenyAllTestFilter{}").unwrap();
        assert!(f.check_write(&ctx("root")).is_err());
    }

    #[test]
    fn a_filter_text_revives_only_as_it_is_stored() {
        use crate::mutants::{canonical, Rng};
        use resin_core::{Acl, Right};
        let mut rng = Rng::new(13);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|_| {
                let mut acl = Acl::new();
                for _ in 0..rng.below(3) {
                    let who = ["alice", "m:r,x", "100%", "*", "a;b=c"][rng.below(5)];
                    acl.add(who, &[Right::Write, Right::Read][..rng.below(3)]);
                }
                let filter: PersistentFilterRef = Arc::new(AclWriteFilter::new(acl));
                filter_text(&filter).unwrap().into_bytes()
            })
            .collect();
        let revive = |b: &[u8]| revive_filter(std::str::from_utf8(b).ok()?).ok();
        canonical(&canons, revive, |f| filter_text(f).unwrap().into_bytes());
    }
}
