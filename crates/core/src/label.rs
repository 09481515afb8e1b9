//! Interned policy labels: O(1) handles for policy sets.
//!
//! The paper stores "a pointer, that points to a set of policy objects" per
//! datum (§4). Representing that literally as a shared vector makes every
//! `union`/`contains` a structural scan — O(n²) policy comparisons on the
//! merge- and concat-heavy hot paths. This module interns instead, in one
//! append-only [`LabelTable`] with two kinds of slot:
//!
//! * a **policy slot** per structurally-distinct policy object, named by a
//!   [`PolicyId`] (keyed on `name()` + `serialize_fields()`, sound because
//!   policies are immutable once attached);
//! * a **set slot** per canonical, sorted set of `PolicyId`s, named by a
//!   [`Label`] handle, with [`Label::EMPTY`] reserved for the empty set and
//!   a memoized pairwise-union cache beside them.
//!
//! A slot is written once and never freed, moved or reused, so a handle
//! resolves to what it was created with for the life of the process, and
//! resolving it takes no lock: like the paper's pointer, it is followed in
//! place. Finding a slot by its key — interning, a union-memo probe —
//! takes the table's shared lock. After interning, set **union**,
//! **equality**, and **dedup** are integer table hits — no policy is
//! compared structurally ever again. `Label` is `Copy`, hashable, and
//! cheap to ship across threads.
//!
//! # Wire text
//!
//! A policy crosses storage as text ([`crate::serialize`]), and a site
//! holds few distinct policies across many cells, so each policy slot
//! keeps its wire text once it has been serialised (the **write index**).
//! Reading a text back is not the table's business: a stored text means
//! what the policy class registered when it is read builds from it, so
//! the read index, text → label, lives with the class registry in
//! [`crate::serialize`], which only interns here what it decoded.
//!
//! # Examples
//!
//! ```
//! use resin_core::prelude::*;
//! use std::sync::Arc;
//!
//! let untrusted: PolicyRef = Arc::new(UntrustedData::new());
//! let sanitized: PolicyRef = Arc::new(SqlSanitized::new());
//!
//! let a = Label::of(&untrusted);
//! let b = Label::of(&sanitized);
//! let ab = a.union(b);            // memoized: an integer table hit
//! assert_eq!(ab, b.union(a));     // canonical: equality is `u32 ==`
//! assert_eq!(ab.union(a), ab);    // idempotent
//! assert!(ab.has::<UntrustedData>() && ab.has::<SqlSanitized>());
//!
//! // Structurally equal policies intern to the same id, so dedup is free.
//! let again: PolicyRef = Arc::new(UntrustedData::new());
//! assert_eq!(a, Label::of(&again));
//! ```

use std::any::TypeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{self, Counter};
use crate::policy::{Policy, PolicyRef};

/// The interned identity of one structurally-distinct policy object.
///
/// Two policy objects receive the same `PolicyId` exactly when they agree on
/// `name()` and `serialize_fields()` — the same key the persistent-policy
/// serializer uses (§3.4.1), so an id round-trips through storage.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let a = PolicyId::intern(&(Arc::new(PasswordPolicy::new("u@x")) as PolicyRef));
/// let b = PolicyId::intern(&(Arc::new(PasswordPolicy::new("u@x")) as PolicyRef));
/// assert_eq!(a, b, "structural duplicates share an id");
/// assert_eq!(a.resolve().name(), "PasswordPolicy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicyId(u32);

impl PolicyId {
    /// Interns `policy`, returning its stable id.
    pub fn intern(policy: &PolicyRef) -> PolicyId {
        LabelTable::global().intern_policy(policy)
    }

    /// The canonical policy object for this id.
    pub fn resolve(self) -> PolicyRef {
        LabelTable::global().resolve_policy(self)
    }
}

/// An O(1) handle for an interned policy set.
///
/// The set lives once in the global [`LabelTable`], and data carries this
/// 4-byte `Copy` handle. Union, equality, and dedup are table hits; only
/// operations that need the policy *objects* (running `export_check`,
/// downcasting) resolve through the table, which takes no lock.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let l = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef));
/// assert!(!l.is_empty());
/// assert_eq!(l.len(), 1);
/// assert!(l.has::<UntrustedData>());
/// assert_eq!(l.union(Label::EMPTY), l);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// What names a policy to [`Label::of_static`]: its type and a key.
type StaticName = (TypeId, &'static str);

thread_local! {
    /// The labels [`Label::of_static`] handed out on this thread, by name.
    static STATIC_LABELS: RefCell<Vec<(StaticName, Label)>> =
        const { RefCell::new(Vec::new()) };
}

impl Label {
    /// The empty policy set. The zero handle, so untainted data costs one
    /// integer compare — the moral equivalent of the paper's null pointer.
    pub const EMPTY: Label = Label(0);

    /// The label for a single policy (interning it if new).
    pub fn of(policy: &PolicyRef) -> Label {
        LabelTable::global().label_of(policy)
    }

    /// The label of the policy `make` builds, for a policy that its type
    /// and `key` determine: a fieldless marker (`key` is then `""`), or a
    /// source tag. Interned once per thread, not once per call: a warm
    /// call skips building the policy and its key (a `String` and a
    /// fields `Vec`) and two keyed lookups, which the network edge would
    /// otherwise pay per request field (`edge_allocs.rs` pins it).
    ///
    /// ```
    /// use resin_core::prelude::*;
    /// use std::sync::Arc;
    ///
    /// let marker = Label::of_static("", HtmlSanitized::new);
    /// assert_eq!(marker, Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef)));
    /// assert_eq!(marker, Label::of_static("", HtmlSanitized::new));
    /// ```
    pub fn of_static<P: Policy>(key: &'static str, make: impl FnOnce() -> P) -> Label {
        let name = (TypeId::of::<P>(), key);
        STATIC_LABELS.with_borrow_mut(|cache| {
            // A key is a literal, so a hit is nearly always the same
            // pointer: compare that first. It also keeps `""`, whose
            // pointer dangles, away from `memcmp`, which on an AVX-512
            // host (glibc 2.36) takes a masked load at the dangling
            // address even for no bytes and costs about 150 ns there.
            let same = |(t, k): &StaticName| *t == name.0 && (std::ptr::eq(*k, key) || *k == key);
            if let Some(&(_, label)) = cache.iter().find(|(n, _)| same(n)) {
                return label;
            }
            let label = Label::of(&(Arc::new(make()) as PolicyRef));
            cache.push((name, label));
            label
        })
    }

    /// The label for one already-interned policy id.
    pub(crate) fn from_id(id: PolicyId) -> Label {
        LabelTable::global().intern_ids(vec![id])
    }

    /// Builds a label from policies, deduplicating structurally.
    pub fn from_policies<'a, I>(policies: I) -> Label
    where
        I: IntoIterator<Item = &'a PolicyRef>,
    {
        let table = LabelTable::global();
        table.intern_ids(
            policies
                .into_iter()
                .map(|p| table.intern_policy(p))
                .collect(),
        )
    }

    /// True when no policy is attached.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of policies in the set.
    pub fn len(self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.ids().len()
        }
    }

    /// The sorted policy ids of the set.
    pub fn ids(self) -> &'static [PolicyId] {
        &LabelTable::global().sets.get(self.0).ids
    }

    /// The canonical policy objects of the set, index-aligned with
    /// [`ids`](Label::ids).
    pub fn policies(self) -> &'static [PolicyRef] {
        &LabelTable::global().sets.get(self.0).refs
    }

    /// Set union — an O(1) memoized table hit after the first computation.
    ///
    /// ```
    /// use resin_core::Label;
    /// assert_eq!(Label::EMPTY.union(Label::EMPTY), Label::EMPTY);
    /// ```
    pub fn union(self, other: Label) -> Label {
        if self == other || other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        LabelTable::global().union(self, other)
    }

    /// True if the set contains the policy with `id`.
    pub fn contains(self, id: PolicyId) -> bool {
        !self.is_empty() && self.ids().binary_search(&id).is_ok()
    }

    /// True if the set contains a policy structurally equal to `policy`.
    pub fn contains_policy(self, policy: &PolicyRef) -> bool {
        self.contains(PolicyId::intern(policy))
    }

    /// True if any policy in the set has concrete type `T`.
    pub fn has<T: Policy>(self) -> bool {
        !self.is_empty()
            && self
                .policies()
                .iter()
                .any(|p| p.as_any().downcast_ref::<T>().is_some())
    }

    /// True if any policy reports `name()` equal to `name`.
    pub fn has_named(self, name: &str) -> bool {
        !self.is_empty() && self.policies().iter().any(|p| p.name() == name)
    }

    /// The label with `id` added.
    pub fn insert(self, id: PolicyId) -> Label {
        self.union(Label::from_id(id))
    }

    /// The label with `id` removed (no-op when absent).
    pub fn remove(self, id: PolicyId) -> Label {
        if !self.contains(id) {
            return self;
        }
        let ids: Vec<PolicyId> = self.ids().iter().copied().filter(|&i| i != id).collect();
        LabelTable::global().intern_ids(ids)
    }

    /// The label keeping only policies satisfying `pred`.
    pub fn retain<F>(self, pred: F) -> Label
    where
        F: Fn(&PolicyRef) -> bool,
    {
        if self.is_empty() {
            return self;
        }
        let ids: Vec<PolicyId> = (self.ids().iter())
            .zip(self.policies())
            .filter(|(_, p)| pred(p))
            .map(|(&id, _)| id)
            .collect();
        if ids.len() == self.len() {
            self
        } else {
            LabelTable::global().intern_ids(ids)
        }
    }

    /// The label with every policy of concrete type `T` removed.
    pub(crate) fn without_type<T: Policy>(self) -> Label {
        self.retain(|p| p.as_any().downcast_ref::<T>().is_none())
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::EMPTY
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Label[]");
        }
        let names: Vec<&str> = self.policies().iter().map(|p| p.name()).collect();
        write!(f, "Label{names:?}")
    }
}

// ---- two kinds of slot, each written once ----

/// Key under which a policy is interned: class name + serialized fields
/// (the same identity the persistent-policy format uses, §3.4.1) + the
/// policy's [`intern_discriminator`](Policy::intern_discriminator), which
/// keeps policies whose behaviour lives outside their fields (script
/// policies carrying interpreted code) from conflating.
#[derive(PartialEq, Eq, Hash)]
struct PolicyKey {
    name: String,
    fields: Vec<(String, String)>,
    discriminator: u64,
}

impl PolicyKey {
    fn of(policy: &PolicyRef) -> PolicyKey {
        PolicyKey {
            name: policy.name().to_string(),
            fields: policy.serialize_fields(),
            discriminator: policy.intern_discriminator(),
        }
    }
}

/// One kind of slot, for policies or for label sets, read in place.
///
/// Chunk `c` holds `2^c` slots and is allocated the first time one of its
/// slots is written, so a slot never moves and 32 chunks hold every `u32`
/// index. A slot is written under the table's write lock before its index
/// is handed out, and never again, so a read is `ilog2` and two
/// `OnceLock::get`s, with no lock.
struct Slots<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; 32],
}

impl<T> Slots<T> {
    fn new() -> Slots<T> {
        Slots {
            chunks: [const { OnceLock::new() }; 32],
        }
    }

    /// The chunk slot `i` lives in, and its place there.
    fn place(i: u32) -> (usize, usize) {
        let n = u64::from(i) + 1;
        let chunk = n.ilog2();
        (chunk as usize, (n - (1 << chunk)) as usize)
    }

    /// Slot `i`.
    ///
    /// # Panics
    /// Panics if slot `i` was never written: `i` did not come from this
    /// table.
    fn get(&self, i: u32) -> &T {
        let (chunk, at) = Slots::<T>::place(i);
        (self.chunks[chunk].get())
            .and_then(|chunk| chunk[at].get())
            .unwrap_or_else(|| panic!("slot {i} is not in this label table"))
    }

    /// Writes `value` into slot `*len`, the first unwritten one, then
    /// claims it by advancing `*len`; nothing between can fail. The caller
    /// holds the table's write lock and hands the index out after this.
    fn push(&self, len: &mut u32, value: T) -> u32 {
        let i = *len;
        let (chunk, at) = Slots::<T>::place(i);
        let chunk =
            self.chunks[chunk].get_or_init(|| (0..1 << chunk).map(|_| OnceLock::new()).collect());
        assert!(chunk[at].set(value).is_ok(), "slot {i} is written twice");
        *len = i + 1;
        i
    }
}

/// A policy slot: the canonical object, and its wire text once it has
/// been serialised (the write index).
struct PolicySlot {
    policy: PolicyRef,
    wire: OnceLock<Box<str>>,
}

#[derive(Default)]
struct LabelEntry {
    /// Sorted, deduplicated member ids (canonical form), shared with the
    /// set's key.
    ids: Arc<[PolicyId]>,
    /// Resolved canonical policy objects, index-aligned with `ids`.
    refs: Box<[PolicyRef]>,
}

/// What finds a slot by its key, kept under the table's lock.
#[derive(Default)]
struct Keys {
    /// Every policy slot.
    policies: HashMap<PolicyKey, u32>,
    /// Every set slot but 0, the empty set.
    sets: HashMap<Arc<[PolicyId]>, u32>,
    /// The slots written so far, of each kind.
    policy_slots: u32,
    set_slots: u32,
    /// (lower, higher) operand → their union.
    union_cache: HashMap<(u32, u32), u32>,
}

/// Point-in-time counters for [`LabelTable::stats`]: entry counts and
/// index sizes. Its lock takes are events, counted in [`crate::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTableStats {
    /// Label entries (excluding the empty label).
    pub labels: usize,
    /// Interned policies.
    pub policies: usize,
    /// Memoized pairwise unions.
    pub union_cache: usize,
    /// Policies whose wire text the write index holds.
    pub write_index: usize,
}

/// The process-wide intern table for policies and policy sets.
///
/// All [`Label`] and [`PolicyId`] operations go through the global table
/// ([`LabelTable::global`]); the handles themselves stay plain integers.
/// Resolving a handle to its slot takes no lock. Keyed lookups (interning,
/// union-cache probes) take a shared lock, and first-time interning takes
/// the exclusive lock briefly.
///
/// # Label lifetime
///
/// The table only grows. A policy slot or set slot is written once (a
/// policy slot's wire text is added once, when first asked for) and is
/// never freed, moved or reused, so a [`PolicyId`] or [`Label`] resolves
/// to what it was created with for the life of the process, whichever
/// thread holds it and for however long.
///
/// **Publication rule.** An entry is written in the write section that
/// creates it, from what the table holds there: a set with its policy
/// objects, a union-cache entry with the set it names. A slot is written
/// before its key, so a key never names an unwritten slot.
pub struct LabelTable {
    policies: Slots<PolicySlot>,
    /// Slot 0, unkeyed, is the empty set.
    sets: Slots<LabelEntry>,
    inner: RwLock<Keys>,
}

impl LabelTable {
    /// A fresh, empty table. Product code uses [`global`](LabelTable::global);
    /// the module's tests race standalone ones.
    fn new() -> LabelTable {
        let (sets, mut keys) = (Slots::new(), Keys::default());
        sets.push(&mut keys.set_slots, LabelEntry::default()); // slot 0 = Label::EMPTY
        LabelTable {
            policies: Slots::new(),
            sets,
            inner: RwLock::new(keys),
        }
    }

    /// The global table.
    pub fn global() -> &'static LabelTable {
        static TABLE: OnceLock<LabelTable> = OnceLock::new();
        TABLE.get_or_init(LabelTable::new)
    }

    // Every write section leaves the table consistent at each panic point
    // (a slot whose key was never written is merely unreachable), so a
    // poisoned lock is recoverable; see [`crate::sync`].
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Keys> {
        metrics::inc(Counter::LabelReadLocks);
        crate::sync::rlock(&self.inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Keys> {
        metrics::inc(Counter::LabelWriteLocks);
        crate::sync::wlock(&self.inner)
    }

    /// Interns one policy, returning its [`PolicyId`].
    fn intern_policy(&self, policy: &PolicyRef) -> PolicyId {
        // Compute the key outside the lock (serialize_fields may allocate).
        let key = PolicyKey::of(policy);
        if let Some(&id) = self.read().policies.get(&key) {
            return PolicyId(id);
        }
        PolicyId(self.insert_policy(&mut self.write(), key, policy))
    }

    /// The policy slot `key` names, or a new one holding `policy`.
    fn insert_policy(&self, keys: &mut Keys, key: PolicyKey, policy: &PolicyRef) -> u32 {
        *keys.policies.entry(key).or_insert_with(|| {
            let slot = PolicySlot {
                policy: policy.clone(),
                wire: OnceLock::new(),
            };
            self.policies.push(&mut keys.policy_slots, slot)
        })
    }

    /// The set slot of `ids` (sorted, deduplicated, not empty), or a new
    /// one holding them and their policy objects.
    fn insert_set(&self, keys: &mut Keys, ids: Arc<[PolicyId]>) -> u32 {
        *keys.sets.entry(ids.clone()).or_insert_with(|| {
            let refs = ids.iter().map(|&id| self.resolve_policy(id)).collect();
            let entry = LabelEntry { ids, refs };
            self.sets.push(&mut keys.set_slots, entry)
        })
    }

    /// The canonical policy object for `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table.
    fn resolve_policy(&self, id: PolicyId) -> PolicyRef {
        self.policies.get(id.0).policy.clone()
    }

    /// The wire text of policy `id`: rendered the first time it is asked
    /// for, then served from the write index. Racing first calls render
    /// it once, waiting on the slot rather than the table's lock, so a
    /// policy's `serialize_fields` must not ask for its own wire text.
    pub(crate) fn wire_text(&self, id: PolicyId) -> &str {
        let slot = self.policies.get(id.0);
        (slot.wire).get_or_init(|| crate::serialize::serialize_policy(&slot.policy).into())
    }

    /// The label for a single policy.
    fn label_of(&self, policy: &PolicyRef) -> Label {
        self.intern_ids(vec![self.intern_policy(policy)])
    }

    /// Interns a set of ids (sorted and deduplicated here) as a label.
    pub(crate) fn intern_ids(&self, mut ids: Vec<PolicyId>) -> Label {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Label::EMPTY;
        }
        if let Some(&set) = self.read().sets.get(&ids[..]) {
            return Label(set);
        }
        Label(self.insert_set(&mut self.write(), ids.into()))
    }

    /// The union of two non-empty labels, memoized.
    fn union(&self, a: Label, b: Label) -> Label {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&set) = self.read().union_cache.get(&key) {
            return Label(set);
        }
        let (ia, ib) = (&self.sets.get(a.0).ids, &self.sets.get(b.0).ids);
        let mut ids = [&ia[..], &ib[..]].concat();
        ids.sort_unstable();
        ids.dedup();
        let mut keys = self.write();
        let union = self.insert_set(&mut keys, ids.into());
        keys.union_cache.insert(key, union);
        Label(union)
    }

    /// Point-in-time size counters.
    pub fn stats(&self) -> LabelTableStats {
        let keys = self.read();
        LabelTableStats {
            labels: keys.set_slots as usize - 1,
            policies: keys.policy_slots as usize,
            union_cache: keys.union_cache.len(),
            write_index: (0..keys.policy_slots)
                .filter(|&id| self.policies.get(id).wire.get().is_some())
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{HtmlSanitized, PasswordPolicy, SqlSanitized, UntrustedData};
    use crate::serialize::serialize_policy;

    fn pw(email: &str) -> PolicyRef {
        Arc::new(PasswordPolicy::new(email))
    }

    fn untrusted() -> PolicyRef {
        Arc::new(UntrustedData::new())
    }

    #[test]
    fn empty_label_is_zero() {
        assert!(Label::EMPTY.is_empty());
        assert_eq!(Label::EMPTY.len(), 0);
        assert_eq!(Label::EMPTY.0, 0);
        assert_eq!(Label::default(), Label::EMPTY);
        assert!(!Label::EMPTY.has::<UntrustedData>());
        assert!(!Label::EMPTY.has_named("UntrustedData"));
    }

    #[test]
    fn structural_duplicates_share_ids_and_labels() {
        let a = PolicyId::intern(&pw("a@x"));
        let b = PolicyId::intern(&pw("a@x"));
        assert_eq!(a, b);
        let c = PolicyId::intern(&pw("b@x"));
        assert_ne!(a, c);
        assert_eq!(Label::of(&pw("a@x")), Label::of(&pw("a@x")));
        assert_ne!(Label::of(&pw("a@x")), Label::of(&pw("b@x")));
    }

    #[test]
    fn union_laws() {
        let a = Label::of(&pw("a@x"));
        let b = Label::of(&pw("b@x"));
        let c = Label::of(&untrusted());
        // Idempotent / identity.
        assert_eq!(a.union(a), a);
        assert_eq!(a.union(Label::EMPTY), a);
        assert_eq!(Label::EMPTY.union(a), a);
        // Commutative / associative — equality is handle equality.
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(b).union(c), a.union(b.union(c)));
        assert_eq!(a.union(b).len(), 2);
    }

    #[test]
    fn a_static_key_is_its_text_not_its_pointer() {
        // The same text at another address finds the cached label: `make`
        // does not run again.
        let again = || -> UntrustedData { panic!("the key's text missed the cache") };
        let literal = Label::of_static("static-key-test", UntrustedData::new);
        let copy: &'static str = String::leak("static-key-test".to_string());
        assert_eq!(Label::of_static(copy, again), literal);
        let marker = Label::of_static("", HtmlSanitized::new);
        let empty: &'static str = String::leak(String::with_capacity(1));
        let again = || -> HtmlSanitized { panic!("the empty key missed the cache") };
        assert_eq!(Label::of_static(empty, again), marker);
    }

    #[test]
    fn union_is_memoized() {
        let t = LabelTable::new();
        let (a, b) = (t.label_of(&pw("memo-a@x")), t.label_of(&pw("memo-b@x")));
        let first = t.union(a, b);
        let before = t.stats();
        assert_eq!(t.union(b, a), first);
        assert_eq!(t.stats(), before, "second union allocates nothing");
    }

    #[test]
    fn membership_and_type_queries() {
        let u = untrusted();
        let l = Label::of(&u).union(Label::of(&(Arc::new(SqlSanitized::new()) as PolicyRef)));
        assert!(l.contains(PolicyId::intern(&u)));
        assert!(l.contains_policy(&untrusted()), "structural membership");
        assert!(l.has::<UntrustedData>());
        assert!(l.has::<SqlSanitized>());
        assert!(!l.has::<HtmlSanitized>());
        assert!(l.has_named("UntrustedData"));
        assert!(!l.has_named("Nope"));
    }

    #[test]
    fn insert_remove_retain() {
        let id_u = PolicyId::intern(&untrusted());
        let id_p = PolicyId::intern(&pw("r@x"));
        let l = Label::EMPTY.insert(id_u).insert(id_p);
        assert_eq!(l.len(), 2);
        let no_u = l.remove(id_u);
        assert!(!no_u.has::<UntrustedData>());
        assert!(no_u.has::<PasswordPolicy>());
        assert_eq!(l.remove(PolicyId::intern(&pw("absent@x"))), l);
        assert_eq!(l.without_type::<UntrustedData>(), no_u);
        assert_eq!(l.retain(|_| true), l, "full retain returns same handle");
        assert_eq!(l.retain(|_| false), Label::EMPTY);
    }

    #[test]
    fn resolution_returns_canonical_object() {
        let id = PolicyId::intern(&pw("canon@x"));
        let p = id.resolve();
        assert_eq!(p.name(), "PasswordPolicy");
        let l = Label::from_id(id);
        assert_eq!(l.policies().len(), 1);
        assert_eq!(l.ids().len(), 1);
        assert_eq!(l.ids()[0], id);
    }

    #[test]
    fn from_policies_dedups() {
        let l = Label::from_policies([&untrusted(), &untrusted(), &pw("d@x")]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn debug_renders_names() {
        let l = Label::of(&untrusted());
        assert!(format!("{l:?}").contains("UntrustedData"));
        assert_eq!(format!("{:?}", Label::EMPTY), "Label[]");
    }

    #[test]
    fn discriminator_keeps_behaviourally_distinct_policies_apart() {
        // Two policies with identical name + fields but different
        // behaviour (modeled by the discriminator, as script policies
        // carrying different class bodies do) must not conflate.
        #[derive(Debug)]
        struct CodeCarrying(u64);
        impl crate::policy::Policy for CodeCarrying {
            fn name(&self) -> &str {
                "DiscriminatorTestPolicy"
            }
            fn intern_discriminator(&self) -> u64 {
                self.0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let a: PolicyRef = Arc::new(CodeCarrying(1));
        let b: PolicyRef = Arc::new(CodeCarrying(2));
        let same_as_a: PolicyRef = Arc::new(CodeCarrying(1));
        assert_ne!(PolicyId::intern(&a), PolicyId::intern(&b));
        assert_eq!(PolicyId::intern(&a), PolicyId::intern(&same_as_a));
        // Resolution returns the object with the matching behaviour.
        let got = PolicyId::intern(&b).resolve();
        assert_eq!(
            got.as_any()
                .downcast_ref::<CodeCarrying>()
                .expect("same type")
                .0,
            2
        );
    }

    #[test]
    fn poisoned_lock_recovers() {
        // A worker thread that panics while holding the write lock used to
        // poison the global table, turning every later intern/resolve in
        // the whole process into a panic. The table is append-only, so the
        // lock state is always consistent — recover and keep going.
        let table = LabelTable::global();
        let _ = std::thread::spawn(|| {
            let _guard = LabelTable::global().inner.write();
            panic!("worker dies while holding the label-table lock");
        })
        .join();
        assert!(table.inner.is_poisoned(), "the panic poisoned the lock");
        // Interning from another thread must still work end-to-end:
        // policy slots, set slots, and the union cache.
        let l = std::thread::spawn(|| {
            let a = Label::of(&(Arc::new(UntrustedData::from_source("post-poison")) as PolicyRef));
            let b = Label::of(&pw("post-poison@x"));
            a.union(b)
        })
        .join()
        .expect("interning after poison must not panic");
        assert_eq!(l.len(), 2);
        assert!(l.has::<UntrustedData>());
        assert!(l.has::<PasswordPolicy>());
    }

    #[test]
    fn the_write_index_renders_each_text_once() {
        let t = LabelTable::new();
        let (keep, other) = (pw("wire-keep@x"), pw("wire-other@x"));
        let (keep_id, other_id) = (t.intern_policy(&keep), t.intern_policy(&other));
        assert_eq!(t.stats().write_index, 0, "rendered when first asked for");
        // Rendered once, then the same text is served.
        let text = t.wire_text(keep_id);
        assert_eq!(text, serialize_policy(&keep));
        assert!(std::ptr::eq(text, t.wire_text(keep_id)));
        assert_eq!(t.wire_text(other_id), serialize_policy(&other));
        assert_eq!(t.stats().write_index, 2);
    }

    #[test]
    fn table_stats_grow_monotonically() {
        let t = LabelTable::global();
        let before = t.stats().policies;
        let _ = Label::of(&pw("stats-unique@x"));
        assert!(t.stats().policies > before);
        assert!(t.stats().labels >= 1);
        let _ = t.stats().union_cache; // smoke: accessible
        let keys = t.read();
        assert!(keys.policy_slots > 0);
        assert_eq!(
            keys.policies.len(),
            keys.policy_slots as usize,
            "every policy slot is keyed"
        );
    }

    #[test]
    fn handles_resolve_to_what_they_were_built_from_under_concurrent_interning() {
        // Each thread interns policies of its own and policies every thread
        // shares, sets of one to three of them, and unions of its handles
        // with shared ones. After each step it re-resolves every handle it
        // holds: the ids are the ones it was built from, each policy is its
        // id's canonical object and writes its own fields, and a memoized
        // union is the set of the merged ids.
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 60;
        let t = LabelTable::new();
        let email = |owner: &str, k: u64| format!("{owner}-{k}@x");
        let rng = |mut x: u64| {
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }
        };
        // A handle, and the (id, email) of each member it was built from.
        type Held = (Label, Vec<(PolicyId, String)>);
        let build = |members: Vec<(PolicyId, String)>| -> Held {
            let mut members = members;
            members.sort();
            members.dedup();
            (t.intern_ids(members.iter().map(|m| m.0).collect()), members)
        };
        let check = |held: &[Held]| {
            for (label, members) in held {
                let entry = t.sets.get(label.0);
                let ids: Vec<PolicyId> = members.iter().map(|m| m.0).collect();
                assert_eq!(entry.ids[..], ids[..], "label {} moved", label.0);
                for ((&id, p), (_, email)) in entry.ids.iter().zip(entry.refs.iter()).zip(members) {
                    assert!(Arc::ptr_eq(p, &t.resolve_policy(id)), "{p:?}");
                    assert_eq!(p.serialize_fields()[0].1, *email);
                    assert_eq!(t.wire_text(id), serialize_policy(&pw(email)));
                }
            }
        };
        std::thread::scope(|s| {
            for worker in 0..THREADS {
                let (t, build, check) = (&t, &build, &check);
                s.spawn(move || {
                    let mut next = rng(worker + 1);
                    let own = format!("own-{worker}");
                    let policy = |owner: &str, k: u64| {
                        let email = email(owner, k % 16);
                        (t.intern_policy(&pw(&email)), email)
                    };
                    let mut held: Vec<Held> = Vec::new();
                    let mut shared: Vec<Held> = Vec::new();
                    for _ in 0..ROUNDS {
                        held.push(build(vec![policy(&own, next())]));
                        check(&held);
                        shared.push(build(vec![policy("shared", next())]));
                        check(&shared);
                        let set = (0..1 + next() % 3)
                            .map(|i| policy(if i % 2 == 0 { &own } else { "shared" }, next()));
                        held.push(build(set.collect()));
                        check(&held);
                        let (a, ma) = held[next() as usize % held.len()].clone();
                        let (b, mb) = shared[next() as usize % shared.len()].clone();
                        let union = t.union(a, b);
                        let (merged, members) = build([ma, mb].concat());
                        assert_eq!(union.0, merged.0, "the union of labels {} and {}", a.0, b.0);
                        held.push((union, members));
                        check(&held);
                    }
                });
            }
        });
        // Enough that the readers raced a writer opening a new chunk of
        // each kind: set slot 255 starts chunk 8, policy slot 31 chunk 5.
        let stats = t.stats();
        assert!(stats.labels >= 255 && stats.policies >= 63, "{stats:?}");
    }

    #[test]
    fn slots_read_back_across_chunk_boundaries() {
        // Chunk c holds 2^c slots: 0 | 1 2 | 3..=6 | 7..=14 | 15..=30.
        let slots = Slots::new();
        let mut len = 0;
        for i in 0..31u32 {
            assert_eq!(slots.push(&mut len, i * 10), i);
        }
        let first: *const u32 = slots.get(0);
        for i in [0, 1, 2, 6, 7, 14, 15, 30] {
            assert_eq!(*slots.get(i), i * 10, "slot {i}");
        }
        assert_eq!(
            [0, 2, 3, 6, 15, 30].map(Slots::<u32>::place),
            [(0, 0), (1, 1), (2, 0), (2, 3), (4, 0), (4, 15)]
        );
        assert_eq!(Slots::<u32>::place(u32::MAX - 1), (31, (1 << 31) - 1));
        // Opening chunk 5 moves none of the slots before it.
        slots.push(&mut len, 310);
        assert_eq!(*slots.get(31), 310);
        assert!(std::ptr::eq(first, slots.get(0)));
        // An index never handed out panics, in a chunk or past every one.
        for i in [32, 62, 63, u32::MAX] {
            let read = std::panic::catch_unwind(|| *slots.get(i));
            assert!(read.is_err(), "slot {i}");
        }
    }
}
