//! Interned policy labels: O(1) handles for policy sets.
//!
//! The paper stores "a pointer, that points to a set of policy objects" per
//! datum (§4). Representing that literally as a shared vector makes every
//! `union`/`contains` a structural scan — O(n²) policy comparisons on the
//! merge- and concat-heavy hot paths. This module interns instead, in one
//! [`LabelTable`] with two kinds of slot and one lifecycle (epoch stamps,
//! pins, sweeps and slot reuse):
//!
//! * a **policy slot** per structurally-distinct policy object, named by a
//!   [`PolicyId`] (keyed on `name()` + `serialize_fields()`, sound because
//!   policies are immutable once attached);
//! * a **set slot** per canonical, sorted set of `PolicyId`s, named by a
//!   [`Label`] handle, with [`Label::EMPTY`] reserved for the empty set and
//!   a memoized pairwise-union cache beside them.
//!
//! After interning, set **union**, **equality**, and **dedup** are integer
//! table hits — no policy is compared structurally ever again. `Label` is
//! `Copy`, hashable, and cheap to ship across threads.
//!
//! # Wire-text indexes
//!
//! A policy crosses storage as text ([`crate::serialize`]), and a site
//! holds few distinct policies across many cells, so the table also
//! knows each policy's wire text, both ways:
//!
//! * the **read index**, wire text → [`PolicyId`], is filled by
//!   `crate::serialize` after a *successful decode* of that text through
//!   the class registry, and by nothing else: two script policies from
//!   different class declarations share a wire text but not an id, and a
//!   text must resolve to what the registry would build from it today;
//! * the **write index**, [`PolicyId`] → wire text, is kept in the
//!   policy's slot, filled the first time the policy is serialised.
//!
//! A [`sweep`](LabelTable::sweep) drops the entries of every policy it
//! sweeps. Registering or replacing a policy class drops that class's
//! texts from the read index and starts a new *generation*: a decode begun
//! under an older one is not indexed, so a text never outlives the
//! deserializer that decoded it. A decoded policy is interned and its text
//! indexed under one write lock, so a text never names a slot another
//! policy has moved into. Each index holds at most one entry per live
//! policy — there is nothing to size or expire.
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
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::context::Context;
use crate::error::PolicyViolation;
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

    /// The raw table index (stable for the life of the process).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An O(1) handle for an interned policy set.
///
/// The set lives once in the global [`LabelTable`], and data carries this
/// 4-byte `Copy` handle. Union, equality, and dedup are table hits; only
/// operations that need the policy *objects* (running `export_check`,
/// downcasting) resolve through the table.
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
    /// The labels [`Label::of_static`] handed out on this thread, by name,
    /// each with the label-table epoch it was handed out in.
    static STATIC_LABELS: RefCell<Vec<(StaticName, u64, Label)>> =
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
    /// source tag. Interned once per thread per label-table epoch, not once
    /// per call.
    ///
    /// A cached label is reused only within the epoch it was handed out
    /// in: a sweep advances the epoch before it frees anything, and the
    /// table keeps every label a lookup hands out under a live
    /// [`pin`](LabelTable::pin), so a reused label is never a swept slot.
    /// The first call after a sweep interns the label again.
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
        let table = LabelTable::global();
        // Read before any lookup, so a label is never stamped with an epoch
        // later than the one it was handed out in.
        let epoch = table.current_epoch();
        let name = (TypeId::of::<P>(), key);
        STATIC_LABELS.with_borrow_mut(|cache| {
            let cached = cache.iter_mut().find(|(n, _, _)| *n == name);
            if let Some((_, stamp, label)) = &cached {
                if *stamp == epoch {
                    return *label;
                }
            }
            let label = table.label_of(&(Arc::new(make()) as PolicyRef));
            match cached {
                Some(entry) => *entry = (name, epoch, label),
                None => cache.push((name, epoch, label)),
            }
            label
        })
    }

    /// The label for one already-interned policy id.
    pub fn from_id(id: PolicyId) -> Label {
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
            LabelTable::global().entry(self).ids.len()
        }
    }

    /// The sorted policy ids of the set.
    pub fn ids(self) -> Arc<[PolicyId]> {
        LabelTable::global().entry(self).ids
    }

    /// The canonical policy objects of the set (shared, not cloned).
    pub fn policies(self) -> Arc<Vec<PolicyRef>> {
        LabelTable::global().entry(self).refs
    }

    /// [`ids`](Label::ids) and [`policies`](Label::policies) under one
    /// lock. A swept label has a tombstone policy and no ids.
    pub(crate) fn members(self) -> (Arc<[PolicyId]>, Arc<Vec<PolicyRef>>) {
        let entry = LabelTable::global().entry(self);
        (entry.ids, entry.refs)
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
        let entry = LabelTable::global().entry(self);
        let ids: Vec<PolicyId> = entry
            .ids
            .iter()
            .zip(entry.refs.iter())
            .filter(|(_, p)| pred(p))
            .map(|(&id, _)| id)
            .collect();
        if ids.len() == entry.ids.len() {
            self
        } else {
            LabelTable::global().intern_ids(ids)
        }
    }

    /// The label with every policy of concrete type `T` removed.
    pub fn without_type<T: Policy>(self) -> Label {
        self.retain(|p| p.as_any().downcast_ref::<T>().is_none())
    }

    /// The raw table index of this label.
    pub fn index(self) -> u32 {
        self.0
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
        let refs = self.policies();
        let names: Vec<&str> = refs.iter().map(|p| p.name()).collect();
        write!(f, "Label{names:?}")
    }
}

/// A function of labels, remembered for one pass over a string's spans.
///
/// A rendered page carries hundreds of spans and a handful of distinct
/// labels, and every question about a label's policies (`has`, `union`)
/// goes through the [`LabelTable`]'s lock. A pass asks through a memo so
/// the table is consulted once per distinct label, not once per span.
///
/// ```
/// use resin_core::{Label, LabelMemo};
/// let mut calls = 0;
/// let mut memo = LabelMemo::new();
/// for _ in 0..3 {
///     assert!(memo.get(Label::EMPTY, |l| { calls += 1; l.is_empty() }));
/// }
/// assert_eq!(calls, 1);
/// ```
#[derive(Debug)]
pub struct LabelMemo<V> {
    /// The first two labels met: most strings carry no more (a field has
    /// one, an escaped page the marker with and without its source), and
    /// those passes should not pay for an allocation.
    first: [Option<(Label, V)>; 2],
    /// The others, sorted by label index: a page of many distinct labels
    /// costs a binary search per span rather than a walk.
    rest: Vec<(Label, V)>,
}

impl<V> Default for LabelMemo<V> {
    fn default() -> Self {
        LabelMemo {
            first: [None, None],
            rest: Vec::new(),
        }
    }
}

impl<V: Copy> LabelMemo<V> {
    /// A memo that has seen no label.
    pub fn new() -> Self {
        LabelMemo::default()
    }

    /// `f(label)`, computed the first time `label` is asked about.
    pub fn get(&mut self, label: Label, f: impl FnOnce(Label) -> V) -> V {
        for slot in &mut self.first {
            match slot {
                Some((l, v)) if *l == label => return *v,
                Some(_) => {}
                None => return slot.insert((label, f(label))).1,
            }
        }
        match self.rest.binary_search_by_key(&label.0, |(l, _)| l.0) {
            Ok(i) => self.rest[i].1,
            Err(i) => {
                let v = f(label);
                self.rest.insert(i, (label, v));
                v
            }
        }
    }
}

// ---- one slot lifecycle, two kinds of slot ----

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

/// A read-index miss: the generation it ran under, which [`LabelTable::intern_decoded`]
/// checks so that a decode racing a class registration indexes nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireMiss(u64);

/// A freed slot's stamp: above every epoch, so no sweep frees the slot
/// twice and no lookup raises the stamp.
const FREE: u64 = u64::MAX;

/// One kind of slot and its lifecycle, for policies or for label sets. A
/// slot is found by its key and stamped with the latest epoch at which it
/// was inserted or handed out; a sweep frees what nothing keeps, and a
/// freed slot is reused once no live pin predates its release.
struct Slots<K, V> {
    values: Vec<V>,
    by_key: HashMap<K, u32>,
    /// Stamps, parallel to `values`; atomic so a lookup under the read
    /// lock can raise one.
    epochs: Vec<AtomicU64>,
    /// Freed slots, with the epoch each was freed at.
    free: Vec<(u32, u64)>,
}

impl<K, V> Default for Slots<K, V> {
    fn default() -> Self {
        Slots {
            values: Vec::new(),
            by_key: HashMap::new(),
            epochs: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Hash + Eq, V> Slots<K, V> {
    /// The slot `key` names, stamped with `epoch`.
    fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q, epoch: u64) -> Option<u32>
    where
        K: Borrow<Q>,
    {
        let &id = self.by_key.get(key)?;
        self.touch(id, epoch);
        Some(id)
    }

    /// Raises slot `id`'s stamp to `epoch`, the epoch a lookup handed it
    /// out in, so what a pinned request *finds* survives a sweep as what it
    /// creates does. Stored only when lower: a hot slot is read, not
    /// written. Relaxed, as the table's lock orders it against a sweep.
    #[inline]
    fn touch(&self, id: u32, epoch: u64) {
        let stamp = &self.epochs[id as usize];
        if stamp.load(Ordering::Relaxed) < epoch {
            raise(stamp, epoch);
        }
    }

    /// The slot `key` names, or a new one holding `value()`.
    fn insert(&mut self, key: K, epoch: u64, floor: Option<u64>, value: impl FnOnce() -> V) -> u32 {
        if let Some(id) = self.get(&key, epoch) {
            return id;
        }
        let id = self.alloc(value(), epoch, floor);
        self.by_key.insert(key, id);
        id
    }

    /// An unkeyed slot holding `value`: one freed before `floor`, the
    /// oldest pinned epoch, else a new one.
    fn alloc(&mut self, value: V, epoch: u64, floor: Option<u64>) -> u32 {
        let reusable = (self.free.iter()).position(|&(_, freed)| floor.is_none_or(|f| freed < f));
        let Some(i) = reusable else {
            self.values.push(value);
            self.epochs.push(AtomicU64::new(epoch));
            return u32::try_from(self.values.len() - 1).expect("label table overflow");
        };
        let (id, _) = self.free.swap_remove(i);
        self.values[id as usize] = value;
        *self.epochs[id as usize].get_mut() = epoch;
        id
    }

    /// Frees every slot that `keep` rejects and that is stamped before
    /// `safe_before`, recording the release at `now`. Returns the slots
    /// freed, so the caller can purge what else names them.
    fn sweep(
        &mut self,
        keep: impl Fn(u32) -> bool,
        safe_before: u64,
        now: u64,
        tombstone: impl Fn() -> V,
    ) -> HashSet<u32> {
        let mut swept = HashSet::new();
        for (id, stamp) in (0..).zip(&mut self.epochs) {
            if *stamp.get_mut() < safe_before && !keep(id) {
                *stamp.get_mut() = FREE;
                self.values[id as usize] = tombstone();
                self.free.push((id, now));
                swept.insert(id);
            }
        }
        self.by_key.retain(|_, id| !swept.contains(id));
        swept
    }

    fn live(&self) -> usize {
        self.values.len() - self.free.len()
    }
}

/// The store half of [`Slots::touch`]: once per slot per epoch, off the
/// hit path.
#[cold]
#[inline(never)]
fn raise(slot: &AtomicU64, epoch: u64) {
    slot.fetch_max(epoch, Ordering::Relaxed);
}

/// A policy slot: the canonical object, and its wire text once it has
/// been serialised (the write index).
struct PolicySlot {
    policy: PolicyRef,
    wire: Option<Arc<str>>,
}

impl PolicySlot {
    fn new(policy: PolicyRef) -> PolicySlot {
        PolicySlot { policy, wire: None }
    }
}

#[derive(Clone, Default)]
struct LabelEntry {
    /// Sorted, deduplicated member ids (canonical form).
    ids: Arc<[PolicyId]>,
    /// Resolved canonical policy objects, index-aligned with `ids`.
    refs: Arc<Vec<PolicyRef>>,
}

#[derive(Default)]
struct TableInner {
    policies: Slots<PolicyKey, PolicySlot>,
    /// Slot 0, unkeyed, is the empty set.
    sets: Slots<Arc<[PolicyId]>, LabelEntry>,
    /// (lower, higher) operand → their union.
    union_cache: HashMap<(u32, u32), u32>,
    /// The read index: a wire text and the id of the policy the class
    /// registry decoded it to, under the current `wire_generation`.
    by_wire: HashMap<Arc<str>, u32>,
    /// Advances whenever a policy class is registered or replaced.
    wire_generation: u64,
}

impl TableInner {
    /// The set slot of `ids` (sorted, deduplicated, not empty). A set
    /// naming a free policy slot is never keyed, or the slot's next tenant
    /// would find it: its caller, who held that id outside every pin across
    /// a sweep, gets a fresh tombstone.
    fn intern_set(&mut self, ids: Arc<[PolicyId]>, epoch: u64, floor: Option<u64>) -> u32 {
        let TableInner { policies, sets, .. } = self;
        let free = |id: &PolicyId| policies.epochs[id.0 as usize].load(Ordering::Relaxed) == FREE;
        if ids.iter().any(free) {
            return sets.alloc(tombstone_entry(), epoch, floor);
        }
        let policy = |id: &PolicyId| policies.values[id.0 as usize].policy.clone();
        let entry = || LabelEntry {
            refs: Arc::new(ids.iter().map(policy).collect()),
            ids: ids.clone(),
        };
        sets.insert(ids.clone(), epoch, floor, entry)
    }

    /// The union of set slots `a` and `b`, memoized. An operand with no ids
    /// is a tombstone (freed, or handed to a caller that presented a freed
    /// handle), and the union fails closed to it, memoizing nothing.
    fn union_set(&mut self, (a, b): (u32, u32), epoch: u64, floor: Option<u64>) -> u32 {
        let ea = &self.sets.values[a as usize].ids;
        let eb = &self.sets.values[b as usize].ids;
        if ea.is_empty() || eb.is_empty() {
            return if ea.is_empty() { a } else { b };
        }
        let mut ids = [&ea[..], &eb[..]].concat();
        ids.sort_unstable();
        ids.dedup();
        let union = self.intern_set(ids.into(), epoch, floor);
        self.union_cache.insert((a, b), union);
        union
    }
}

/// The fail-closed tombstone installed in a swept slot: any export of
/// data still (incorrectly) carrying a swept label denies instead of
/// laundering. Reaching this policy means the sweep-roots contract was
/// violated — the denial is the tripwire, not normal operation.
#[derive(Debug)]
struct SweptLabel;

impl Policy for SweptLabel {
    fn name(&self) -> &str {
        "SweptLabel"
    }

    fn export_check(&self, _context: &Context) -> Result<(), PolicyViolation> {
        Err(PolicyViolation::new(
            "SweptLabel",
            "data carries a label swept by lifecycle GC; export denied (stale handle)",
        ))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What a swept set slot holds: no ids, and the tombstone policy.
fn tombstone_entry() -> LabelEntry {
    LabelEntry {
        ids: Arc::default(),
        refs: Arc::new(vec![Arc::new(SweptLabel) as PolicyRef]),
    }
}

/// What one [`LabelTable::sweep`] pass reclaimed ([`LabelTable::stats`]
/// reads what it kept).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Label slots tombstoned by this pass.
    pub labels_swept: usize,
    /// Policy slots tombstoned by this pass.
    pub policies_swept: usize,
}

/// Point-in-time counters for [`LabelTable::stats`]: entry and slot
/// counts, index sizes and the lifecycle epoch. Its lock takes and index
/// hits are events, counted in [`crate::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTableStats {
    /// Live label entries (excluding the empty label and tombstones).
    pub labels: usize,
    /// Label slots, the empty label and tombstones included: the table's
    /// high-water mark, which only a sweep's reuse keeps flat.
    pub label_slots: usize,
    /// Live interned policies.
    pub policies: usize,
    /// Tombstoned label slots awaiting reuse.
    pub free_labels: usize,
    /// Tombstoned policy slots awaiting reuse.
    pub free_policies: usize,
    /// Memoized pairwise unions.
    pub union_cache: usize,
    /// Wire texts the read index resolves without decoding.
    pub read_index: usize,
    /// Policies whose wire text the write index holds.
    pub write_index: usize,
    /// Current lifecycle epoch (advances on every sweep).
    pub epoch: u64,
    /// Epoch pins currently held (transactions/requests in flight).
    pub active_pins: usize,
}

/// An RAII epoch pin: while alive, the sweep treats every label or
/// policy interned or found (by a lookup that hands it out) at or after
/// the pinned epoch as reachable, and no slot freed at or after it is
/// reused. Take one at transaction or request start so in-flight handles
/// survive a concurrent sweep.
pub struct EpochPin<'a> {
    table: &'a LabelTable,
    epoch: u64,
}

impl fmt::Debug for EpochPin<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut pins = crate::sync::mlock(&self.table.pins);
        if let Some(count) = pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// The process-wide intern table for policies and policy sets.
///
/// All [`Label`] and [`PolicyId`] operations go through the global table
/// ([`LabelTable::global`]); the handles themselves stay plain integers.
/// Reads (resolution, union-cache hits) take a shared lock; first-time
/// interning takes the exclusive lock briefly.
///
/// # Label lifecycle
///
/// Policy slots and set slots share one lifecycle. Each slot is stamped
/// with the latest **epoch** at which it was interned or handed out. A
/// [`sweep`](LabelTable::sweep) advances the epoch and tombstones every set
/// slot outside its roots and stamped before the oldest [`EpochPin`], then
/// every policy slot no surviving set names. A swept slot denies export
/// (fails closed) until no pin that could hold a stale handle is left, and
/// is reused after.
///
/// **Publication rule.** An entry is written in the write section that
/// creates it, from what the table holds there: a set with its policy
/// objects, a union-cache entry with the set it names, a wire text with
/// the policy it decoded to. So no entry names a slot that a sweep freed
/// and another tenant took in between. A caller presenting a freed slot
/// (a handle held outside every pin across a sweep) gets a tombstone.
pub struct LabelTable {
    inner: RwLock<TableInner>,
    /// Lifecycle epoch; advances on every sweep.
    epoch: AtomicU64,
    /// Epoch → number of live pins taken at that epoch.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl LabelTable {
    /// A fresh, empty table. Product code uses [`global`](LabelTable::global);
    /// standalone tables let lifecycle tests sweep without touching it.
    pub fn new() -> LabelTable {
        let mut inner = TableInner::default();
        inner.sets.alloc(LabelEntry::default(), 0, None); // slot 0 = Label::EMPTY
        LabelTable {
            inner: RwLock::new(inner),
            epoch: AtomicU64::new(1),
            pins: Mutex::new(BTreeMap::new()),
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
    fn read(&self) -> std::sync::RwLockReadGuard<'_, TableInner> {
        metrics::inc(Counter::LabelReadLocks);
        crate::sync::rlock(&self.inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, TableInner> {
        metrics::inc(Counter::LabelWriteLocks);
        crate::sync::wlock(&self.inner)
    }

    /// The current lifecycle epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The oldest epoch with a live pin, if any.
    fn oldest_pin(&self) -> Option<u64> {
        crate::sync::mlock(&self.pins).keys().next().copied()
    }

    /// Pins the current epoch for the pin's lifetime. Take one at
    /// transaction/request start: labels and policies interned or found
    /// while the pin is live (or already live when it was taken,
    /// transitively via the reuse floor) survive concurrent sweeps.
    pub fn pin(&self) -> EpochPin<'_> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        *crate::sync::mlock(&self.pins).entry(epoch).or_insert(0) += 1;
        EpochPin { table: self, epoch }
    }

    /// Interns one policy, returning its [`PolicyId`].
    pub fn intern_policy(&self, policy: &PolicyRef) -> PolicyId {
        // Compute the key outside the lock (serialize_fields may allocate).
        let key = PolicyKey::of(policy);
        let epoch = self.current_epoch();
        if let Some(id) = self.read().policies.get(&key, epoch) {
            return PolicyId(id);
        }
        let floor = self.oldest_pin();
        let slot = || PolicySlot::new(policy.clone());
        PolicyId(self.write().policies.insert(key, epoch, floor, slot))
    }

    /// The canonical policy object for `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table.
    pub fn resolve_policy(&self, id: PolicyId) -> PolicyRef {
        self.read().policies.values[id.0 as usize].policy.clone()
    }

    /// Looks `text` up in the read index under one read lock: `hit` sees
    /// the table and the id the text resolves to.
    fn wire_hit<R>(
        &self,
        text: &str,
        hit: impl FnOnce(&TableInner, PolicyId, u64) -> R,
    ) -> Result<R, WireMiss> {
        let epoch = self.current_epoch();
        let inner = self.read();
        let Some(&id) = inner.by_wire.get(text) else {
            metrics::inc(Counter::WireMisses);
            return Err(WireMiss(inner.wire_generation));
        };
        metrics::inc(Counter::WireHits);
        inner.policies.touch(id, epoch);
        #[cfg(test)]
        let oracle = tests::wire_oracle(&inner, id);
        let found = hit(&inner, PolicyId(id), epoch);
        drop(inner);
        #[cfg(test)]
        oracle(self, text);
        Ok(found)
    }

    /// The id `text` decoded to, if the read index holds it.
    pub(crate) fn wire_id(&self, text: &str) -> Result<PolicyId, WireMiss> {
        self.wire_hit(text, |_, id, _| id)
    }

    /// The canonical object of the policy `text` decoded to, if the read
    /// index holds it.
    pub(crate) fn wire_policy(&self, text: &str) -> Option<PolicyRef> {
        self.wire_hit(text, |inner, id, _| {
            inner.policies.values[id.0 as usize].policy.clone()
        })
        .ok()
    }

    /// The single-policy label of the policy `text` decoded to, if the
    /// read index holds it: one read lock, one hash of the text, no
    /// allocation (unless that label was swept while the policy lived on
    /// in a larger set, and is interned again here).
    pub(crate) fn wire_label(&self, text: &str) -> Result<Label, WireMiss> {
        let found = self.wire_hit(text, |inner, id, epoch| {
            inner.sets.get(&[id][..], epoch).map(Label).ok_or(id)
        })?;
        Ok(found.unwrap_or_else(|id| self.intern_ids(vec![id])))
    }

    /// Interns `policy`, which `text` was just decoded to, and records
    /// that `text` resolves to its id — both under one write lock, so no
    /// sweep can free the slot between the two and leave the text naming
    /// whatever policy moves into it next. The text is not recorded if a
    /// class was registered since `miss` was handed out: the decode may
    /// have run a deserializer that is registered no longer.
    pub(crate) fn intern_decoded(
        &self,
        text: &str,
        policy: &PolicyRef,
        miss: WireMiss,
    ) -> PolicyId {
        let key = PolicyKey::of(policy);
        let epoch = self.current_epoch();
        let floor = self.oldest_pin();
        let mut inner = self.write();
        let inner = &mut *inner;
        let slot = || PolicySlot::new(policy.clone());
        let id = inner.policies.insert(key, epoch, floor, slot);
        if inner.wire_generation == miss.0 {
            // A canonical round trip (the usual case) reads back the text
            // the write index already holds: share it.
            let key = match &inner.policies.values[id as usize].wire {
                Some(cached) if **cached == *text => cached.clone(),
                _ => Arc::from(text),
            };
            inner.by_wire.insert(key, id);
        }
        PolicyId(id)
    }

    /// Drops the texts `stale` picks out (a policy class was registered or
    /// replaced) and starts a new generation of the whole read index: a
    /// decode of *any* class in flight across this call records nothing.
    pub(crate) fn forget_wire_index(&self, stale: impl Fn(&str) -> bool) {
        let mut inner = self.write();
        inner.wire_generation += 1;
        inner.by_wire.retain(|text, _| !stale(text));
    }

    /// The wire text of the live policy `id`, whose canonical object is
    /// `policy`: rendered the first time it is asked for, then served
    /// from the write index.
    pub(crate) fn wire_text(&self, id: PolicyId, policy: &PolicyRef) -> Arc<str> {
        if let Some(text) = &self.read().policies.values[id.0 as usize].wire {
            return text.clone();
        }
        let text: Arc<str> = crate::serialize::serialize_policy(policy).into();
        let mut inner = self.write();
        let slot = &mut inner.policies.values[id.0 as usize];
        // The slot may have been swept (and reused) since the caller
        // resolved `policy`: only the object's own text may be cached.
        if Arc::ptr_eq(&slot.policy, policy) {
            slot.wire = Some(text.clone());
        }
        text
    }

    /// The label for a single policy.
    pub fn label_of(&self, policy: &PolicyRef) -> Label {
        self.intern_ids(vec![self.intern_policy(policy)])
    }

    /// Interns a set of ids (sorted and deduplicated here) as a label.
    pub fn intern_ids(&self, mut ids: Vec<PolicyId>) -> Label {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Label::EMPTY;
        }
        let epoch = self.current_epoch();
        if let Some(idx) = self.read().sets.get(&ids[..], epoch) {
            return Label(idx);
        }
        let floor = self.oldest_pin();
        Label(self.write().intern_set(ids.into(), epoch, floor))
    }

    fn entry(&self, label: Label) -> LabelEntry {
        self.read().sets.values[label.0 as usize].clone()
    }

    fn union(&self, a: Label, b: Label) -> Label {
        let key = (a.0.min(b.0), a.0.max(b.0));
        let epoch = self.current_epoch();
        let inner = self.read();
        if let Some(&idx) = inner.union_cache.get(&key) {
            inner.sets.touch(idx, epoch);
            return Label(idx);
        }
        drop(inner);
        let floor = self.oldest_pin();
        Label(self.write().union_set(key, epoch, floor))
    }

    /// Tombstones every label not rooted, not pinned and not freshly
    /// interned, then every policy no surviving label names.
    ///
    /// **Roots contract.** `roots` must contain every label still
    /// reachable from long-lived in-memory state (sessions, caches,
    /// app-held tainted values). Durable state needs no roots: policies
    /// persist serialized with their data and re-intern on read. Call
    /// after a checkpoint, when durable state is self-contained, so the
    /// root set is exactly the in-memory survivors. Handles interned or
    /// found while an [`EpochPin`] is live (request/transaction scratch)
    /// are kept via the epoch check, and no swept slot is reused while a pin
    /// predating its release remains — so a contract *violation* (a
    /// stale handle outside roots and pins) resolves to the fail-closed
    /// `SweptLabel` tombstone, denying export instead of laundering
    /// another datum's policies.
    pub fn sweep<I: IntoIterator<Item = Label>>(&self, roots: I) -> SweepReport {
        // Advance the epoch first: everything interned from here on is
        // young and untouchable by this pass.
        let now = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let safe_before = self.oldest_pin().unwrap_or(now).min(now);
        let roots: HashSet<u32> = roots.into_iter().map(|l| l.0).collect();
        let mut inner = self.write();
        let inner = &mut *inner;

        let keep = |idx| idx == 0 || roots.contains(&idx);
        let labels = inner.sets.sweep(keep, safe_before, now, tombstone_entry);
        // Memoized unions naming a swept operand or result are stale. Those
        // naming earlier-freed slots went with the pass that freed them, and
        // none is written naming a free slot: this pass's set is all.
        inner
            .union_cache
            .retain(|&(a, b), r| ![a, b, *r].iter().any(|i| labels.contains(i)));

        // Policies named by a surviving set are the policy roots.
        let named: HashSet<u32> = (inner.sets.values.iter())
            .flat_map(|entry| entry.ids.iter().map(|id| id.0))
            .collect();
        let tombstone = || PolicySlot::new(Arc::new(SweptLabel));
        let policies =
            (inner.policies).sweep(|id| named.contains(&id), safe_before, now, tombstone);
        inner.by_wire.retain(|_, id| !policies.contains(id));

        SweepReport {
            labels_swept: labels.len(),
            policies_swept: policies.len(),
        }
    }

    /// Point-in-time lifecycle and size counters.
    pub fn stats(&self) -> LabelTableStats {
        let inner = self.read();
        LabelTableStats {
            labels: inner.sets.live() - 1,
            label_slots: inner.sets.values.len(),
            policies: inner.policies.live(),
            free_labels: inner.sets.free.len(),
            free_policies: inner.policies.free.len(),
            union_cache: inner.union_cache.len(),
            read_index: inner.by_wire.len(),
            write_index: (inner.policies.values.iter())
                .filter(|p| p.wire.is_some())
                .count(),
            epoch: self.current_epoch(),
            active_pins: crate::sync::mlock(&self.pins).values().sum(),
        }
    }
}

impl Default for LabelTable {
    fn default() -> Self {
        LabelTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{HtmlSanitized, PasswordPolicy, SqlSanitized, UntrustedData};
    use crate::serialize::serialize_policy;

    /// The read index's oracle, taken at a hit under the lock and run after
    /// it: the hit must be what the registry decodes the text to, unless a
    /// class registration moved the generation in between.
    pub(super) fn wire_oracle(inner: &TableInner, id: u32) -> impl FnOnce(&LabelTable, &str) {
        let indexed = inner.policies.values[id as usize].policy.clone();
        let generation = inner.wire_generation;
        move |t, text| {
            let decoded = crate::serialize::decode_policy(text);
            if t.read().wire_generation != generation {
                return;
            }
            let decoded =
                decoded.unwrap_or_else(|e| panic!("indexed `{text}` fails to decode: {e:?}"));
            assert!(
                PolicyKey::of(&decoded) == PolicyKey::of(&indexed),
                "the read index resolves `{text}` to a {} it does not decode to",
                indexed.name()
            );
        }
    }

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
        assert_eq!(Label::EMPTY.index(), 0);
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
    fn union_is_memoized() {
        let a = Label::of(&pw("memo-a@x"));
        let b = Label::of(&pw("memo-b@x"));
        let first = a.union(b);
        let before = LabelTable::global().stats().label_slots;
        let second = a.union(b);
        assert_eq!(first, second);
        assert_eq!(
            LabelTable::global().stats().label_slots,
            before,
            "second union allocates nothing"
        );
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

    // Lifecycle tests run on standalone tables: sweeping the global
    // table would race other tests' un-pinned, un-rooted handles.

    #[test]
    fn sweep_tombstones_unrooted_labels_fail_closed() {
        let t = LabelTable::new();
        let l = t.label_of(&pw("gc-unrooted@x"));
        let before = t.stats();
        assert_eq!(before.labels, 1);
        assert_eq!(before.policies, 1);
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 1);
        assert_eq!(report.policies_swept, 1);
        assert_eq!(t.stats().labels, 0);
        // The stale handle now resolves to the fail-closed tombstone.
        let entry = t.entry(l);
        assert!(entry.ids.is_empty());
        let ctx = Context::new(crate::gate::GateKind::Http);
        let err = entry.refs[0].export_check(&ctx).unwrap_err();
        assert_eq!(err.policy, "SweptLabel");
        let stats = t.stats();
        assert_eq!(stats.labels, 0);
        assert_eq!(stats.free_labels, 1);
        assert_eq!(stats.epoch, 2);
    }

    #[test]
    fn rooted_labels_survive_sweep_and_slots_are_reused() {
        let t = LabelTable::new();
        let keep = t.label_of(&pw("gc-keep@x"));
        let drop_me = t.label_of(&pw("gc-drop@x"));
        let report = t.sweep([keep]);
        assert_eq!(report.labels_swept, 1);
        assert_eq!(t.stats().labels, 1);
        // The root still interns to the same handle, object intact.
        assert_eq!(t.label_of(&pw("gc-keep@x")), keep);
        assert_eq!(t.entry(keep).refs[0].name(), "PasswordPolicy");
        // With no pins, the freed slot is reused by the next intern.
        let fresh = t.label_of(&pw("gc-fresh@x"));
        assert_eq!(fresh.0, drop_me.0, "freed slot reused");
        assert_eq!(t.stats().free_labels, 0);
    }

    #[test]
    fn pinned_epochs_are_not_swept_and_block_slot_reuse() {
        let t = LabelTable::new();
        let pin = t.pin();
        let l = t.label_of(&pw("gc-pinned@x"));
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 0, "pinned epoch survives");
        assert_eq!(t.label_of(&pw("gc-pinned@x")), l);
        assert_eq!(t.stats().active_pins, 1);
        drop(pin);
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 1);
        // A pin taken before a future free also blocks reuse: free the
        // slot while a fresh pin predates nothing — simulate by pinning
        // *before* the sweep that frees.
        let pin2 = t.pin();
        let l2 = t.label_of(&pw("gc-pinned2@x"));
        drop(pin2);
        let pin3 = t.pin(); // taken before the sweep below frees l2's slot
        let _ = l2;
        t.sweep([]);
        let freed = t.stats().free_labels;
        assert!(freed >= 1);
        let _fresh = t.label_of(&pw("gc-after@x"));
        assert_eq!(
            t.stats().free_labels,
            freed,
            "slots freed at/after a live pin's epoch are not reused"
        );
        drop(pin3);
    }

    #[test]
    fn labels_a_pinned_request_finds_are_not_swept() {
        // A label (and a policy no label holds) interned before the pin
        // and *found* under it: the request's handles must outlive a
        // concurrent sweep.
        let t = LabelTable::new();
        let p = pw("gc-found@x");
        let l = t.label_of(&p);
        let bare = t.intern_policy(&pw("gc-found-bare@x"));
        let a = t.pin();
        t.sweep([]);
        drop(a);
        let b = t.pin();
        assert_eq!(t.label_of(&p), l);
        assert_eq!(t.intern_policy(&pw("gc-found-bare@x")), bare);
        let report = t.sweep([]);
        assert_eq!((report.labels_swept, report.policies_swept), (0, 0));
        assert_eq!(t.entry(l).ids[..], [t.intern_policy(&p)], "not tombstoned");
        assert_eq!(t.resolve_policy(bare).name(), "PasswordPolicy");
        drop(b);

        // Found through the union cache and through the read index.
        let m = t.label_of(&untrusted());
        let lm = t.union(l, m);
        let text = t.wire_text(t.intern_policy(&p), &p);
        t.intern_decoded(&text, &p, t.wire_id(&text).unwrap_err());
        t.sweep([l, m, lm]);
        let b = t.pin();
        assert_eq!(t.union(l, m), lm);
        assert_eq!(t.wire_label(&text).unwrap(), l);
        assert_eq!(t.sweep([]).labels_swept, 1, "only `m`, found by nothing");
        assert_eq!(t.entry(lm).ids.len(), 2, "the union survives");
        assert_eq!(t.entry(l).ids.len(), 1, "the decoded label survives");
        drop(b);
    }

    #[test]
    fn a_union_is_memoized_with_its_set_or_not_at_all() {
        // `union` used to memoize its result in a second write section: a
        // sweep before it left the memo naming two freed slots, read as the
        // old union by a pinned union of their next tenants.
        let t = LabelTable::new();
        let (a, b) = (t.label_of(&pw("memo-ra@x")), t.label_of(&pw("memo-rb@x")));
        let key = (a.0.min(b.0), a.0.max(b.0));
        let epoch = t.current_epoch();
        let r = t.intern_ids([&t.entry(a).ids[..], &t.entry(b).ids[..]].concat());
        t.sweep([r]);
        let union = t.write().union_set(key, epoch, None);
        assert_eq!(union, a.0, "fails closed to the tombstone");
        assert_eq!(t.stats().union_cache, 0, "no memo names a free slot");
        let (pc, pd) = (pw("memo-rc@x"), pw("memo-rd@x"));
        let (c, d) = (t.label_of(&pc), t.label_of(&pd));
        assert_eq!((c.0.min(d.0), c.0.max(d.0)), key, "the freed slots reused");
        let _pin = t.pin();
        let want = [t.intern_policy(&pc), t.intern_policy(&pd)];
        assert_eq!(t.entry(t.union(c, d)).ids[..], want);
    }

    #[test]
    fn a_set_is_published_with_the_policies_its_slots_hold_then() {
        // `intern_ids` used to resolve a set's policies under the read lock:
        // after a sweep and slot reuse in between, it published the new
        // tenant's id with the old tenant's object for a pinned caller.
        let t = LabelTable::new();
        let (pa, pb) = (pw("publish-a@x"), pw("publish-b@x"));
        let x = t.intern_policy(&pa);
        let epoch = t.current_epoch();
        t.sweep([]);
        let stale = Label(t.write().intern_set(vec![x].into(), epoch, None));
        assert!(t.entry(stale).ids.is_empty(), "a tombstone");
        assert_eq!(t.intern_policy(&pb), x, "pb moves into slot x");
        let _pin = t.pin();
        let l = t.label_of(&pb);
        assert_ne!(l, stale);
        let entry = t.entry(l);
        assert_eq!(entry.ids[..], [x]);
        assert!(Arc::ptr_eq(&entry.refs[0], &pb), "{:?}", entry.refs);
        // Published once the new tenant is in, a set names the new tenant.
        let late = Label(t.write().intern_set(vec![x].into(), epoch, None));
        assert!(Arc::ptr_eq(&t.entry(late).refs[0], &pb));
    }

    #[test]
    fn pinned_handles_hold_while_sweeps_and_a_violator_race_them() {
        // Pinned workers intern, find and union random sets while one thread
        // sweeps and another, with no pin, reuses labels across sweeps (the
        // roots contract's violator). Each handle holds until its pin drops.
        let t = LabelTable::new();
        let policy = |k: u64| pw(&format!("stress-{}@x", k % 40));
        let rng = |mut x: u64| {
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }
        };
        let sorted = |mut ids: Vec<PolicyId>| {
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..=3)
                .map(|seed| {
                    let t = &t;
                    s.spawn(move || {
                        let mut next = rng(seed);
                        for _ in 0..400 {
                            let _pin = t.pin();
                            let mut held: Vec<(Label, Vec<PolicyId>)> = Vec::new();
                            for _ in 0..3 {
                                let p = policy(next());
                                held.push((t.label_of(&p), vec![t.intern_policy(&p)]));
                                let ids = (0..3).map(|_| t.intern_policy(&policy(next())));
                                let ids = sorted(ids.collect());
                                held.push((t.intern_ids(ids.clone()), ids));
                                let (a, ia) = held[next() as usize % held.len()].clone();
                                let (b, ib) = held[next() as usize % held.len()].clone();
                                if a != b {
                                    held.push((t.union(a, b), sorted([ia, ib].concat())));
                                }
                            }
                            for (label, ids) in held {
                                let entry = t.entry(label);
                                assert_eq!(entry.ids[..], ids[..], "a pinned handle moved");
                                for (&id, p) in entry.ids.iter().zip(entry.refs.iter()) {
                                    assert!(Arc::ptr_eq(p, &t.resolve_policy(id)), "{p:?}");
                                }
                            }
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let (mut next, mut kept) = (rng(99), Vec::new());
                while !stop.load(Ordering::Relaxed) {
                    kept.push(t.label_of(&policy(next())));
                    if kept.len() > 8 {
                        kept.swap_remove(next() as usize % 8);
                    }
                    let a = kept[next() as usize % kept.len()];
                    let b = kept[next() as usize % kept.len()];
                    if a != b {
                        t.union(a, b);
                    }
                    t.intern_ids(t.entry(a).ids.to_vec());
                    std::thread::yield_now();
                }
            });
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    t.sweep([]);
                    // Paced: on two cores a sweeper that re-takes the write
                    // lock at once can starve the workers for seconds.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            });
            // Joined before the loops above are stopped, so that a worker's
            // failure ends the test instead of leaving them running.
            let outcomes: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            stop.store(true, Ordering::Relaxed);
            for outcome in outcomes {
                outcome.expect("a pinned worker failed");
            }
        });
    }

    #[test]
    fn sweep_purges_stale_union_cache_entries() {
        let t = LabelTable::new();
        let a = t.label_of(&pw("gc-ua@x"));
        let b = t.label_of(&pw("gc-ub@x"));
        let _ab = t.union(a, b);
        assert_eq!(t.stats().union_cache, 1);
        t.sweep([a]);
        assert_eq!(
            t.stats().union_cache,
            0,
            "cached union names a swept operand/result"
        );
    }

    #[test]
    fn session_churn_plateaus_under_sweep() {
        // The acceptance scenario: login/expire churn interning one
        // fresh per-user policy per login. Without GC the table grows
        // linearly (10k entries); with periodic sweeps it plateaus at
        // the sweep interval.
        const CHURN: usize = 10_000;
        const INTERVAL: usize = 100;
        let t = LabelTable::new();
        let mut peak_slots = 0usize;
        for i in 0..CHURN {
            // login: a session-scoped label; expire: the handle drops.
            let _label = t.label_of(&pw(&format!("churn-{i}@x")));
            if (i + 1) % INTERVAL == 0 {
                t.sweep([]);
            }
            peak_slots = peak_slots.max(t.stats().label_slots);
        }
        let stats = t.stats();
        assert!(
            peak_slots <= 2 * INTERVAL + 2,
            "label slots must plateau near the sweep interval, got {peak_slots}"
        );
        assert!(
            stats.policies + stats.free_policies <= 2 * INTERVAL + 2,
            "policy slots must plateau too, got {}",
            stats.policies + stats.free_policies
        );
        assert!(stats.labels <= INTERVAL, "live labels bounded");
        assert!(stats.epoch >= (CHURN / INTERVAL) as u64);
    }

    #[test]
    fn wire_indexes_follow_the_policy_through_sweep_and_reuse() {
        let t = LabelTable::new();
        let keep = pw("wire-keep@x");
        let drop_me = pw("wire-drop@x");
        let (keep_id, drop_id) = (t.intern_policy(&keep), t.intern_policy(&drop_me));
        let keep_label = t.intern_ids(vec![keep_id]);
        t.intern_ids(vec![drop_id]);
        // The write index renders once, then serves the same text.
        let text = t.wire_text(keep_id, &keep);
        assert!(Arc::ptr_eq(&text, &t.wire_text(keep_id, &keep)));
        let drop_text = t.wire_text(drop_id, &drop_me);
        // The read index knows only what it is told, and shares a text
        // the write index already holds.
        let miss = t.wire_id(&text).unwrap_err();
        assert_eq!(t.intern_decoded(&text, &pw("wire-keep@x"), miss), keep_id);
        assert_eq!(t.intern_decoded(&drop_text, &drop_me, miss), drop_id);
        let spelling = "PasswordPolicy{email=wire-keep@x}";
        assert_eq!(t.intern_decoded(spelling, &keep, miss), keep_id);
        assert_eq!(t.wire_id(&text).unwrap(), keep_id);
        assert_eq!(t.wire_label(&text).unwrap(), keep_label);
        assert_eq!(t.wire_label(spelling).unwrap(), keep_label);
        assert!(Arc::ptr_eq(&t.wire_policy(&drop_text).unwrap(), &drop_me));
        let stats = t.stats();
        assert_eq!((stats.read_index, stats.write_index), (3, 2));
        let shared = t.read().by_wire.get_key_value(&*text).unwrap().0.clone();
        assert!(Arc::ptr_eq(&shared, &text), "one text, two indexes");

        // A sweep drops both entries of what it sweeps, and nothing else.
        t.sweep([keep_label]);
        assert!(t.wire_id(&drop_text).is_err());
        assert_eq!(t.wire_id(&text).unwrap(), keep_id);
        let stats = t.stats();
        assert_eq!((stats.read_index, stats.write_index), (2, 1));
        // The freed slot is reused with no text of its former tenant, or
        // of the tombstone in between.
        let fresh = pw("wire-fresh@x");
        let tombstone = t.resolve_policy(drop_id);
        assert_eq!(&*t.wire_text(drop_id, &tombstone), "SweptLabel{}");
        let fresh_id = t.intern_policy(&fresh);
        assert_eq!(fresh_id, drop_id, "freed slot reused");
        // A caller that resolved the slot before the sweep gets its own
        // object's text, and that text is not kept for the new tenant.
        assert!(t.wire_text(fresh_id, &drop_me).contains("wire-drop@x"));
        assert_eq!(t.stats().write_index, 1);
        assert!(t.wire_text(fresh_id, &fresh).contains("wire-fresh@x"));

        // A singleton label swept while its policy lives on in a pair is
        // interned again by the lookup.
        let pair = t.intern_ids(vec![keep_id, fresh_id]);
        t.sweep([pair]);
        t.sweep([pair]);
        assert_eq!(t.wire_id(&text).unwrap(), keep_id);
        let again = t.wire_label(&text).unwrap();
        assert_eq!(t.entry(again).ids[..], [keep_id]);
    }

    #[test]
    fn a_decode_that_raced_a_registration_is_not_indexed() {
        let t = LabelTable::new();
        let p = pw("wire-gen@x");
        let (text, other) = (serialize_policy(&p), "PasswordPolicy{email=wire-gen@x}");
        let before = t.wire_id(&text).unwrap_err();
        let id = t.intern_decoded(&text, &p, before);
        t.intern_decoded(other, &p, before);
        assert_eq!(t.wire_id(&text).unwrap(), id);
        // A class is registered: its texts go and the generation moves,
        // so the miss taken before it interns and indexes nothing.
        t.forget_wire_index(|stale| stale == text);
        assert!(t.wire_id(&text).is_err());
        assert_eq!(t.wire_id(other).unwrap(), id, "a text not picked");
        assert_eq!(t.intern_decoded(&text, &p, before), id);
        assert!(t.wire_id(&text).is_err(), "stale generation");
        let after = t.wire_id(&text).unwrap_err();
        t.intern_decoded(&text, &p, after);
        assert_eq!(t.wire_id(&text).unwrap(), id);
        // The write index holds texts of live objects, whatever class
        // decodes them: it stays.
        let text = t.wire_text(id, &p);
        t.forget_wire_index(|_| true);
        assert!(Arc::ptr_eq(&text, &t.wire_text(id, &p)));
        assert_eq!(t.stats().read_index, 0);
    }

    #[test]
    fn a_sweep_between_decode_and_intern_leaves_no_stale_text() {
        let t = LabelTable::new();
        let stored = serialize_policy(&pw("wire-race@x"));
        let text = stored.as_str();
        // A reader misses and decodes; an earlier reader's twin of the
        // policy is interned already, held by nothing.
        let miss = t.wire_id(text).unwrap_err();
        let decoded = pw("wire-race@x");
        let early = t.intern_policy(&pw("wire-race@x"));
        // A gc pass gets to the table first and frees that slot.
        t.sweep(std::iter::empty());
        assert_eq!(t.resolve_policy(early).name(), "SweptLabel");
        // Interning and indexing are one step: the text names a live slot
        // that holds the decoded policy, never the freed one as it was.
        let id = t.intern_decoded(text, &decoded, miss);
        assert!(Arc::ptr_eq(&t.wire_policy(text).unwrap(), &decoded));
        // Nothing roots it, so the next pass sweeps policy and text
        // together, and the policy that moves into the slot is never what
        // the old text reads as.
        t.sweep(std::iter::empty());
        assert!(t.wire_id(text).is_err());
        let other = t.intern_policy(&pw("wire-other@x"));
        assert_eq!(other, id, "freed slot reused");
        assert!(t.wire_id(text).is_err() && t.wire_policy(text).is_none());
        assert!(t.wire_label(text).is_err());
        assert_eq!(t.stats().read_index, 0);
    }

    #[test]
    fn a_text_never_reads_as_another_policy_while_gc_races_the_decoders() {
        // Four decoders keep reviving eight texts (miss, decode, intern and
        // index) while a gc thread sweeps with no roots and moves unrelated
        // policies into the freed slots. Whenever a text resolves, it is to
        // its own policy.
        const TEXTS: usize = 8;
        let t = LabelTable::new();
        let email = |i: usize| format!("wire-gc-{i}@x");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for worker in 0..4 {
                let (t, stop) = (&t, &stop);
                s.spawn(move || {
                    let mut hits = 0u32;
                    for round in 0.. {
                        if stop.load(Ordering::Relaxed) && hits > 0 {
                            break;
                        }
                        let i = (round + worker) % TEXTS;
                        let text = serialize_policy(&pw(&email(i)));
                        match t.wire_policy(&text) {
                            Some(found) => {
                                hits += 1;
                                let fields = found.serialize_fields();
                                assert_eq!(fields[0].1, email(i), "{text} read as {fields:?}");
                            }
                            None => {
                                if let Err(miss) = t.wire_id(&text) {
                                    t.intern_decoded(&text, &pw(&email(i)), miss);
                                }
                            }
                        }
                    }
                });
            }
            for n in 0..2000 {
                t.sweep(std::iter::empty());
                t.intern_policy(&pw(&format!("wire-gc-other-{n}@x")));
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Every entry left names a live slot.
        let inner = t.read();
        for (text, &id) in &inner.by_wire {
            assert_ne!(
                inner.policies.values[id as usize].policy.name(),
                "SweptLabel",
                "{text}"
            );
        }
    }

    #[test]
    fn table_stats_grow_monotonically() {
        let t = LabelTable::global();
        let before = t.stats().policies;
        let _ = Label::of(&pw("stats-unique@x"));
        assert!(t.stats().policies > before);
        assert!(t.stats().label_slots >= 1);
        let _ = t.stats().union_cache; // smoke: accessible
        let live = t.read().policies.live();
        assert!(live > 0);
        assert_eq!(live, t.stats().policies);
    }
}
