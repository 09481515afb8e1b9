//! Interned policy labels: O(1) handles for policy sets.
//!
//! The paper stores "a pointer, that points to a set of policy objects" per
//! datum (§4). Representing that literally as a shared vector makes every
//! `union`/`contains` a structural scan — O(n²) policy comparisons on the
//! merge- and concat-heavy hot paths. This module interns instead:
//!
//! * a [`PolicyInterner`] assigns each structurally-distinct policy object a
//!   [`PolicyId`] (keyed on `name()` + `serialize_fields()`, sound because
//!   policies are immutable once attached);
//! * a [`LabelTable`] interns each canonical, sorted set of `PolicyId`s as a
//!   [`Label`] handle, with [`Label::EMPTY`] reserved for the empty set and
//!   a memoized pairwise-union cache.
//!
//! After interning, set **union**, **equality**, and **dedup** are integer
//! table hits — no policy is compared structurally ever again. `Label` is
//! `Copy`, hashable, and cheap to ship across threads, which is what the
//! sharding/caching work on the ROADMAP needs.
//!
//! # Wire-text indexes
//!
//! A policy crosses storage as text ([`crate::serialize`]), and a site
//! holds few distinct policies across many cells, so the interner also
//! knows each policy's wire text, in both directions:
//!
//! * the **read index**, wire text → [`PolicyId`], is filled by
//!   `crate::serialize` after a *successful decode* of that text through
//!   the class registry, and by nothing else. Serialising never fills it:
//!   two script policies from different class declarations share a wire
//!   text but not an id, and a text must resolve to what the registry
//!   would build from it today;
//! * the **write index**, [`PolicyId`] → wire text, is filled the first
//!   time a policy is serialised.
//!
//! Both live in the [`PolicyInterner`] and share its lifecycle. A
//! [`sweep`](LabelTable::sweep) drops the entries of every policy it
//! sweeps, with `by_key`, so a swept policy's text decodes afresh to a
//! live id. Registering or replacing a policy class drops that class's
//! texts from the read index and starts a new *generation*; a decode that
//! began under an older generation is not indexed, so a text never
//! outlives the deserializer that decoded it. A decoded policy is interned
//! and its text recorded under one write lock
//! (`LabelTable::intern_decoded`): a sweep that frees the slot comes
//! before both or after both, and in either case takes the text with it,
//! so a text never names a slot that another policy has moved into. Each
//! index holds at most one entry per live interned policy — there is
//! nothing to size or expire.
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

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::context::Context;
use crate::error::PolicyViolation;
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
/// `Label` replaces the per-datum `Arc<Vec<PolicyRef>>` of earlier
/// revisions: the set itself lives once in the global [`LabelTable`], and
/// data carries this 4-byte `Copy` handle. Union, equality, and dedup are
/// table hits; only operations that genuinely need the policy *objects*
/// (running `export_check`, downcasting) resolve through the table.
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

impl Label {
    /// The empty policy set. The zero handle, so untainted data costs one
    /// integer compare — the moral equivalent of the paper's null pointer.
    pub const EMPTY: Label = Label(0);

    /// The label for a single policy (interning it if new).
    pub fn of(policy: &PolicyRef) -> Label {
        LabelTable::global().label_of(policy)
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
        let mut ids: Vec<PolicyId> = policies
            .into_iter()
            .map(|p| table.intern_policy(p))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        table.intern_ids(ids)
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

// ---- the interner ----

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

/// Assigns each structurally-distinct policy object a stable [`PolicyId`].
///
/// Interning is keyed on `name()` + `serialize_fields()` +
/// [`intern_discriminator`](Policy::intern_discriminator). This is sound
/// because policies are immutable once attached and their behaviour is a
/// pure function of that key (the contract [`Policy::policy_eq`] already
/// relies on for name + fields; policies carrying code override the
/// discriminator). The first object interned under a key becomes the
/// canonical [`PolicyRef`] every resolution returns.
///
/// The interner's growth is bounded by the **label lifecycle** (epoch/
/// pin/sweep, see [`LabelTable::sweep`]): ids are still never recycled
/// while any epoch pinned before their release is live, so a `PolicyId`
/// held under a pin (or a serialized reference re-interned on read) can
/// never dangle. A swept slot turns into a fail-closed tombstone until
/// it is provably safe to reuse, so even a contract-violating stale
/// handle denies export instead of laundering.
#[derive(Default)]
pub struct PolicyInterner {
    policies: Vec<PolicyRef>,
    by_key: HashMap<PolicyKey, u32>,
    /// Epoch at which each slot was (last) interned; parallel to
    /// `policies`.
    epochs: Vec<u64>,
    /// Swept slots awaiting reuse, with the epoch they were freed at.
    free: Vec<(u32, u64)>,
    /// The read index: a wire text and the id of the policy the class
    /// registry decoded it to, under the current `wire_generation`.
    by_wire: HashMap<Arc<str>, u32>,
    /// The write index: each slot's wire text once it has been
    /// serialised; parallel to `policies`.
    wire: Vec<Option<Arc<str>>>,
    /// Advances whenever the read index is dropped (a policy class was
    /// registered or replaced).
    wire_generation: u64,
}

/// A read-index miss: the generation the lookup ran under, which
/// [`LabelTable::intern_decoded`] wants back so that a decode racing a
/// class registration indexes nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireMiss(u64);

impl PolicyInterner {
    /// Interns `policy`, returning its id (existing id for duplicates).
    /// `epoch` stamps a fresh slot; `reuse_floor` is the oldest pinned
    /// epoch (freed slots are reused only when freed strictly before it).
    fn intern(
        &mut self,
        key: PolicyKey,
        policy: &PolicyRef,
        epoch: u64,
        reuse_floor: Option<u64>,
    ) -> PolicyId {
        if let Some(&id) = self.by_key.get(&key) {
            return PolicyId(id);
        }
        let id = match self.pop_free(reuse_floor) {
            Some(slot) => {
                self.policies[slot as usize] = policy.clone();
                self.epochs[slot as usize] = epoch;
                // The tombstone's text, if anyone serialised it.
                self.wire[slot as usize] = None;
                slot
            }
            None => {
                let id = u32::try_from(self.policies.len()).expect("policy interner overflow");
                self.policies.push(policy.clone());
                self.epochs.push(epoch);
                self.wire.push(None);
                id
            }
        };
        self.by_key.insert(key, id);
        PolicyId(id)
    }

    /// A freed slot safe to reuse: no live pin predates its release.
    fn pop_free(&mut self, reuse_floor: Option<u64>) -> Option<u32> {
        let (i, _) = self
            .free
            .iter()
            .enumerate()
            .find(|(_, &(_, freed))| reuse_floor.is_none_or(|floor| freed < floor))?;
        Some(self.free.swap_remove(i).0)
    }

    /// Number of distinct live policies interned.
    pub fn len(&self) -> usize {
        self.policies.len() - self.free.len()
    }

    /// True when nothing live is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time interner counters.
    pub fn stats(&self) -> PolicyInternerStats {
        PolicyInternerStats {
            live: self.len(),
            slots: self.policies.len(),
            free: self.free.len(),
            read_index: self.by_wire.len(),
            write_index: self.wire.iter().flatten().count(),
        }
    }
}

/// Counters for [`PolicyInterner::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyInternerStats {
    /// Live (non-tombstone) policies.
    pub live: usize,
    /// Total slots ever allocated (live + free).
    pub slots: usize,
    /// Swept slots awaiting reuse.
    pub free: usize,
    /// Wire texts the read index resolves without decoding.
    pub read_index: usize,
    /// Policies whose wire text the write index holds.
    pub write_index: usize,
}

// ---- the label table ----

#[derive(Clone)]
struct LabelEntry {
    /// Sorted, deduplicated member ids (canonical form).
    ids: Arc<[PolicyId]>,
    /// Resolved canonical policy objects, index-aligned with `ids`.
    refs: Arc<Vec<PolicyRef>>,
}

#[derive(Default)]
struct TableInner {
    interner: PolicyInterner,
    /// `sets[0]` is the empty set; labels index this vector.
    sets: Vec<LabelEntry>,
    by_ids: HashMap<Arc<[PolicyId]>, u32>,
    union_cache: HashMap<(u32, u32), u32>,
    /// Epoch at which each set slot was (last) interned; parallel to
    /// `sets`.
    set_epochs: Vec<u64>,
    /// Swept set slots awaiting reuse, with the epoch they were freed at.
    free_sets: Vec<(u32, u64)>,
}

impl TableInner {
    /// A freed label slot safe to reuse: no live pin predates its
    /// release.
    fn pop_free_set(&mut self, reuse_floor: Option<u64>) -> Option<u32> {
        let (i, _) = self
            .free_sets
            .iter()
            .enumerate()
            .find(|(_, &(_, freed))| reuse_floor.is_none_or(|floor| freed < floor))?;
        Some(self.free_sets.swap_remove(i).0)
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

fn tombstone_entry() -> LabelEntry {
    LabelEntry {
        ids: Arc::from(Vec::<PolicyId>::new()),
        refs: Arc::new(vec![Arc::new(SweptLabel) as PolicyRef]),
    }
}

/// What one [`LabelTable::sweep`] pass reclaimed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Label slots tombstoned by this pass.
    pub labels_swept: usize,
    /// Policy slots tombstoned by this pass.
    pub policies_swept: usize,
    /// Live label slots after the pass (excluding the empty label).
    pub labels_live: usize,
    /// Live policy slots after the pass.
    pub policies_live: usize,
}

/// Point-in-time counters for [`LabelTable::stats`] (the observability
/// satellite): entry counts, lifecycle epoch, and an estimate of bytes
/// retained by the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTableStats {
    /// Live label entries (excluding the empty label and tombstones).
    pub labels: usize,
    /// Live interned policies.
    pub policies: usize,
    /// Tombstoned label slots awaiting reuse.
    pub free_labels: usize,
    /// Tombstoned policy slots awaiting reuse.
    pub free_policies: usize,
    /// Memoized pairwise unions.
    pub union_cache: usize,
    /// Current lifecycle epoch (advances on every sweep).
    pub epoch: u64,
    /// Epoch pins currently held (transactions/requests in flight).
    pub active_pins: usize,
    /// Rough estimate of heap bytes retained by sets + interner
    /// bookkeeping, wire-text indexes included (not the policy objects
    /// themselves).
    pub bytes_retained: usize,
}

/// An RAII epoch pin: while alive, the sweep treats every label or
/// policy interned at or after the pinned epoch as reachable, and no
/// slot freed at or after it is reused. Take one at transaction or
/// request start so in-flight handles survive a concurrent sweep.
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
/// The table no longer grows without bound: it carries an **epoch**
/// counter, [`EpochPin`]s taken at transaction/request start, and a
/// [`sweep`](LabelTable::sweep) that tombstones every label not in the
/// caller-supplied root set, not pinned, and not recently interned.
/// Durable data is safe by construction — policies persist *serialized*
/// with their data and re-intern on read — so after a checkpoint the
/// roots are just the labels still held by live in-memory state. Swept
/// slots deny export (fail closed) until every pin that could hold a
/// stale handle has dropped, then become reusable.
pub struct LabelTable {
    inner: RwLock<TableInner>,
    /// Lifecycle epoch; advances on every sweep.
    epoch: AtomicU64,
    /// Epoch → number of live pins taken at that epoch.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl LabelTable {
    /// A fresh, empty table (slot 0 = the empty label). Product code
    /// uses [`global`](LabelTable::global); standalone tables exist so
    /// lifecycle tests can churn and sweep without touching process-wide
    /// state.
    pub fn new() -> LabelTable {
        let empty = LabelEntry {
            ids: Arc::from(Vec::<PolicyId>::new()),
            refs: Arc::new(Vec::new()),
        };
        let inner = TableInner {
            sets: vec![empty], // index 0 = Label::EMPTY
            set_epochs: vec![0],
            ..TableInner::default()
        };
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

    // The table is append-only and every write-locked section leaves it
    // consistent at each possible panic point (a pushed policy or set whose
    // index entry was never written is merely unreachable — no handed-out
    // handle can dangle), so a poisoned lock is recoverable; see
    // [`crate::sync`].
    fn read(&self) -> std::sync::RwLockReadGuard<'_, TableInner> {
        crate::sync::rlock(&self.inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, TableInner> {
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
    /// transaction/request start: labels and policies interned while the
    /// pin is live (or already live when it was taken, transitively via
    /// the reuse floor) survive concurrent sweeps.
    pub fn pin(&self) -> EpochPin<'_> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        *crate::sync::mlock(&self.pins).entry(epoch).or_insert(0) += 1;
        EpochPin { table: self, epoch }
    }

    /// Interns one policy, returning its [`PolicyId`].
    pub fn intern_policy(&self, policy: &PolicyRef) -> PolicyId {
        // Compute the key outside the lock (serialize_fields may allocate).
        let key = PolicyKey::of(policy);
        if let Some(&id) = self.read().interner.by_key.get(&key) {
            return PolicyId(id);
        }
        let epoch = self.current_epoch();
        let floor = self.oldest_pin();
        self.write().interner.intern(key, policy, epoch, floor)
    }

    /// The canonical policy object for `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table.
    pub fn resolve_policy(&self, id: PolicyId) -> PolicyRef {
        self.read().interner.policies[id.0 as usize].clone()
    }

    /// Looks `text` up in the read index under one read lock: `hit` sees
    /// the table and the id the text resolves to.
    fn wire_hit<R>(
        &self,
        text: &str,
        hit: impl FnOnce(&TableInner, PolicyId) -> R,
    ) -> Result<R, WireMiss> {
        let inner = self.read();
        match inner.interner.by_wire.get(text) {
            Some(&id) => Ok(hit(&inner, PolicyId(id))),
            None => Err(WireMiss(inner.interner.wire_generation)),
        }
    }

    /// The id `text` decoded to, if the read index holds it.
    pub(crate) fn wire_id(&self, text: &str) -> Result<PolicyId, WireMiss> {
        self.wire_hit(text, |_, id| id)
    }

    /// The canonical object of the policy `text` decoded to, if the read
    /// index holds it.
    pub(crate) fn wire_policy(&self, text: &str) -> Option<PolicyRef> {
        self.wire_hit(text, |inner, id| {
            inner.interner.policies[id.0 as usize].clone()
        })
        .ok()
    }

    /// The single-policy label of the policy `text` decoded to, if the
    /// read index holds it: one read lock, one hash of the text, no
    /// allocation (unless that label was swept while the policy lived on
    /// in a larger set, and is interned again here).
    pub(crate) fn wire_label(&self, text: &str) -> Result<Label, WireMiss> {
        let found = self.wire_hit(text, |inner, id| {
            inner.by_ids.get(&[id][..]).map(|&l| Label(l)).ok_or(id)
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
        let interner = &mut inner.interner;
        let id = interner.intern(key, policy, epoch, floor);
        if interner.wire_generation == miss.0 {
            // A canonical round trip (the usual case) reads back the text
            // the write index already holds: share it.
            let key = match &interner.wire[id.0 as usize] {
                Some(cached) if **cached == *text => cached.clone(),
                _ => Arc::from(text),
            };
            interner.by_wire.insert(key, id.0);
        }
        id
    }

    /// Starts a new generation of the read index and drops the texts
    /// `stale` picks out: a policy class was registered or replaced, so
    /// none of its texts may resolve to what an earlier deserializer
    /// built. The generation is the whole index's — a decode of *any*
    /// class in flight across this call records nothing, and decodes
    /// again next time.
    pub(crate) fn forget_wire_index(&self, stale: impl Fn(&str) -> bool) {
        let mut inner = self.write();
        inner.interner.wire_generation += 1;
        inner.interner.by_wire.retain(|text, _| !stale(text));
    }

    /// The wire text of the live policy `id`, whose canonical object is
    /// `policy`: rendered the first time it is asked for, then served
    /// from the write index.
    pub(crate) fn wire_text(&self, id: PolicyId, policy: &PolicyRef) -> Arc<str> {
        if let Some(text) = &self.read().interner.wire[id.0 as usize] {
            return text.clone();
        }
        let text: Arc<str> = crate::serialize::serialize_policy(policy).into();
        let mut inner = self.write();
        // The slot may have been swept (and reused) since the caller
        // resolved `policy`: only the object's own text may be cached.
        if Arc::ptr_eq(&inner.interner.policies[id.0 as usize], policy) {
            inner.interner.wire[id.0 as usize] = Some(text.clone());
        }
        text
    }

    /// The label for a single policy.
    pub fn label_of(&self, policy: &PolicyRef) -> Label {
        let id = self.intern_policy(policy);
        self.intern_ids(vec![id])
    }

    /// Interns a set of ids (sorted and deduplicated here) as a label.
    pub fn intern_ids(&self, mut ids: Vec<PolicyId>) -> Label {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Label::EMPTY;
        }
        let ids: Arc<[PolicyId]> = ids.into();
        if let Some(&idx) = self.read().by_ids.get(&ids) {
            return Label(idx);
        }
        let refs: Vec<PolicyRef> = {
            let inner = self.read();
            ids.iter()
                .map(|id| inner.interner.policies[id.0 as usize].clone())
                .collect()
        };
        let epoch = self.current_epoch();
        let floor = self.oldest_pin();
        let mut inner = self.write();
        if let Some(&idx) = inner.by_ids.get(&ids) {
            return Label(idx); // raced: another thread interned it first
        }
        let entry = LabelEntry {
            ids: ids.clone(),
            refs: Arc::new(refs),
        };
        let idx = match inner.pop_free_set(floor) {
            Some(slot) => {
                inner.sets[slot as usize] = entry;
                inner.set_epochs[slot as usize] = epoch;
                slot
            }
            None => {
                let idx = u32::try_from(inner.sets.len()).expect("label table overflow");
                inner.sets.push(entry);
                inner.set_epochs.push(epoch);
                idx
            }
        };
        inner.by_ids.insert(ids, idx);
        Label(idx)
    }

    fn entry(&self, label: Label) -> LabelEntry {
        self.read().sets[label.0 as usize].clone()
    }

    fn union(&self, a: Label, b: Label) -> Label {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&idx) = self.read().union_cache.get(&key) {
            return Label(idx);
        }
        // Merge the two sorted id lists outside the write lock.
        let (ea, eb) = (self.entry(a), self.entry(b));
        let mut merged = Vec::with_capacity(ea.ids.len() + eb.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < ea.ids.len() && j < eb.ids.len() {
            match ea.ids[i].cmp(&eb.ids[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(ea.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(eb.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(ea.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&ea.ids[i..]);
        merged.extend_from_slice(&eb.ids[j..]);
        let result = self.intern_ids(merged);
        self.write().union_cache.insert(key, result.0);
        result
    }

    /// Number of distinct live policies interned.
    pub fn policy_count(&self) -> usize {
        self.read().interner.len()
    }

    /// Number of label slots (including the empty label and tombstones).
    pub fn label_count(&self) -> usize {
        self.read().sets.len()
    }

    /// Number of memoized pairwise unions.
    pub fn union_cache_len(&self) -> usize {
        self.read().union_cache.len()
    }

    /// Sweeps every label not rooted, not pinned, and not freshly
    /// interned, tombstoning its slot for eventual reuse; policies
    /// referenced by no surviving label are swept the same way.
    ///
    /// **Roots contract.** `roots` must contain every label still
    /// reachable from long-lived in-memory state (sessions, caches,
    /// app-held tainted values). Durable state needs no roots: policies
    /// persist serialized with their data and re-intern on read. Call
    /// after a checkpoint, when durable state is self-contained, so the
    /// root set is exactly the in-memory survivors. Handles interned
    /// while an [`EpochPin`] is live (request/transaction scratch) are
    /// kept via the epoch check, and no swept slot is reused while a pin
    /// predating its release remains — so a contract *violation* (a
    /// stale handle outside roots and pins) resolves to the fail-closed
    /// `SweptLabel` tombstone, denying export instead of laundering
    /// another datum's policies.
    pub fn sweep<I: IntoIterator<Item = Label>>(&self, roots: I) -> SweepReport {
        // Advance the epoch first: everything interned from here on is
        // young and untouchable by this pass.
        let sweep_epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let safe_before = self.oldest_pin().unwrap_or(sweep_epoch).min(sweep_epoch);
        let root_set: HashSet<u32> = roots.into_iter().map(|l| l.0).collect();
        let mut inner = self.write();

        let already_free: HashSet<u32> = inner.free_sets.iter().map(|&(i, _)| i).collect();
        let mut swept_labels: HashSet<u32> = HashSet::new();
        for idx in 1..inner.sets.len() as u32 {
            if root_set.contains(&idx)
                || already_free.contains(&idx)
                || inner.set_epochs[idx as usize] >= safe_before
            {
                continue;
            }
            swept_labels.insert(idx);
        }
        // Policies referenced by surviving labels form the policy roots.
        let mut live_policies: HashSet<u32> = HashSet::new();
        for idx in 1..inner.sets.len() as u32 {
            if swept_labels.contains(&idx) || already_free.contains(&idx) {
                continue;
            }
            for id in inner.sets[idx as usize].ids.iter() {
                live_policies.insert(id.0);
            }
        }
        for &idx in &swept_labels {
            inner.sets[idx as usize] = tombstone_entry();
            inner.set_epochs[idx as usize] = sweep_epoch;
            inner.free_sets.push((idx, sweep_epoch));
        }
        inner.by_ids.retain(|_, idx| !swept_labels.contains(idx));
        // Memoized unions naming a swept operand or result are stale.
        // (Entries naming *previously* freed slots were purged by the
        // pass that freed them; reused slots only re-enter the cache
        // after reuse, so this pass's swept set is the whole stale set.)
        inner.union_cache.retain(|&(a, b), r| {
            !(swept_labels.contains(&a) || swept_labels.contains(&b) || swept_labels.contains(r))
        });

        let policy_free: HashSet<u32> = inner.interner.free.iter().map(|&(i, _)| i).collect();
        let mut swept_policies: HashSet<u32> = HashSet::new();
        for idx in 0..inner.interner.policies.len() as u32 {
            if live_policies.contains(&idx)
                || policy_free.contains(&idx)
                || inner.interner.epochs[idx as usize] >= safe_before
            {
                continue;
            }
            swept_policies.insert(idx);
        }
        for &idx in &swept_policies {
            inner.interner.policies[idx as usize] = Arc::new(SweptLabel) as PolicyRef;
            inner.interner.epochs[idx as usize] = sweep_epoch;
            inner.interner.free.push((idx, sweep_epoch));
            inner.interner.wire[idx as usize] = None;
        }
        inner
            .interner
            .by_key
            .retain(|_, id| !swept_policies.contains(id));
        inner
            .interner
            .by_wire
            .retain(|_, id| !swept_policies.contains(id));

        SweepReport {
            labels_swept: swept_labels.len(),
            policies_swept: swept_policies.len(),
            labels_live: inner.sets.len() - 1 - inner.free_sets.len(),
            policies_live: inner.interner.len(),
        }
    }

    /// Point-in-time lifecycle and size counters.
    pub fn stats(&self) -> LabelTableStats {
        let inner = self.read();
        let sets_bytes: usize = inner.sets.iter().map(|e| e.ids.len() * 12 + 64).sum();
        // A text both wire indexes hold is shared, and counted twice here.
        let wire_bytes: usize = inner
            .interner
            .wire
            .iter()
            .flatten()
            .chain(inner.interner.by_wire.keys())
            .map(|text| text.len() + 16)
            .sum();
        let interner_bytes = inner.interner.policies.len() * 64 + wire_bytes;
        let cache_bytes = inner.union_cache.len() * 24;
        LabelTableStats {
            labels: inner.sets.len() - 1 - inner.free_sets.len(),
            policies: inner.interner.len(),
            free_labels: inner.free_sets.len(),
            free_policies: inner.interner.free.len(),
            union_cache: inner.union_cache.len(),
            epoch: self.current_epoch(),
            active_pins: crate::sync::mlock(&self.pins).values().sum(),
            bytes_retained: sets_bytes + interner_bytes + cache_bytes,
        }
    }

    /// Point-in-time counters for the policy interner alone.
    pub fn policy_interner_stats(&self) -> PolicyInternerStats {
        self.read().interner.stats()
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
        let before = LabelTable::global().label_count();
        let second = a.union(b);
        assert_eq!(first, second);
        assert_eq!(
            LabelTable::global().label_count(),
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
        // policy interner, label sets, and the union cache.
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
        assert_eq!(report.labels_live, 0);
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
        assert_eq!(report.labels_live, 1);
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
    fn sweep_purges_stale_union_cache_entries() {
        let t = LabelTable::new();
        let a = t.label_of(&pw("gc-ua@x"));
        let b = t.label_of(&pw("gc-ub@x"));
        let _ab = t.union(a, b);
        assert_eq!(t.union_cache_len(), 1);
        t.sweep([a]);
        assert_eq!(
            t.union_cache_len(),
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
            peak_slots = peak_slots.max(t.label_count());
        }
        let stats = t.stats();
        assert!(
            peak_slots <= 2 * INTERVAL + 2,
            "label slots must plateau near the sweep interval, got {peak_slots}"
        );
        assert!(
            t.policy_interner_stats().slots <= 2 * INTERVAL + 2,
            "policy slots must plateau too, got {}",
            t.policy_interner_stats().slots
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
        assert_eq!(t.intern_decoded("another spelling", &keep, miss), keep_id);
        assert_eq!(t.wire_id(&text).unwrap(), keep_id);
        assert_eq!(t.wire_label(&text).unwrap(), keep_label);
        assert_eq!(t.wire_label("another spelling").unwrap(), keep_label);
        assert!(Arc::ptr_eq(&t.wire_policy(&drop_text).unwrap(), &drop_me));
        let stats = t.policy_interner_stats();
        assert_eq!((stats.read_index, stats.write_index), (3, 2));
        let shared = t
            .read()
            .interner
            .by_wire
            .get_key_value(&*text)
            .unwrap()
            .0
            .clone();
        assert!(Arc::ptr_eq(&shared, &text), "one text, two indexes");

        // A sweep drops both entries of what it sweeps, and nothing else.
        t.sweep([keep_label]);
        assert!(t.wire_id(&drop_text).is_err());
        assert_eq!(t.wire_id(&text).unwrap(), keep_id);
        let stats = t.policy_interner_stats();
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
        assert_eq!(t.policy_interner_stats().write_index, 1);
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
        let before = t.wire_id("text").unwrap_err();
        let id = t.intern_decoded("text", &p, before);
        t.intern_decoded("other{}", &p, before);
        assert_eq!(t.wire_id("text").unwrap(), id);
        // A class is registered: its texts go and the generation moves,
        // so the miss taken before it interns and indexes nothing.
        t.forget_wire_index(|text| text == "text");
        assert!(t.wire_id("text").is_err());
        assert_eq!(t.wire_id("other{}").unwrap(), id, "another class's text");
        assert_eq!(t.intern_decoded("text", &p, before), id);
        assert!(t.wire_id("text").is_err(), "stale generation");
        let after = t.wire_id("text").unwrap_err();
        t.intern_decoded("text", &p, after);
        assert_eq!(t.wire_id("text").unwrap(), id);
        // The write index holds texts of live objects, whatever class
        // decodes them: it stays.
        let text = t.wire_text(id, &p);
        t.forget_wire_index(|_| true);
        assert!(Arc::ptr_eq(&text, &t.wire_text(id, &p)));
        assert_eq!(t.policy_interner_stats().read_index, 0);
    }

    #[test]
    fn a_sweep_between_decode_and_intern_leaves_no_stale_text() {
        let t = LabelTable::new();
        let text = "the stored text";
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
        assert_eq!(t.policy_interner_stats().read_index, 0);
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
                        let text = format!("text {i}");
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
        for (text, &id) in &inner.interner.by_wire {
            assert_ne!(
                inner.interner.policies[id as usize].name(),
                "SweptLabel",
                "{text}"
            );
        }
    }

    #[test]
    fn table_stats_grow_monotonically() {
        let t = LabelTable::global();
        let before = t.policy_count();
        let _ = Label::of(&pw("stats-unique@x"));
        assert!(t.policy_count() > before);
        assert!(t.label_count() >= 1);
        let _ = t.union_cache_len(); // smoke: accessible
        let interner_len = t.read().interner.len();
        assert!(!t.read().interner.is_empty());
        assert_eq!(interner_len, t.policy_count());
    }
}
