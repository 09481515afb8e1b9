//! Channel context: metadata describing a specific data flow boundary.
//!
//! RESIN annotates default filter objects with context metadata in the form
//! of a hash table (§3.2.1) — for example, each outgoing-email channel is
//! annotated with the recipient address, and applications add their own
//! key–value pairs (the current user on an HTTP connection, say). The filter
//! passes the context to each policy's `export_check`.
//!
//! The paper's default filter also tags each context with the channel's
//! `type` (Figure 2 tests `$context['type'] == 'email'`). Here that fact is
//! the context's [`GateKind`], stored once: Rust reads it with
//! [`Context::channel_type`] or [`Context::kind`], and the RSL `context`
//! map shows it as its `type` key. It is never an entry, so no caller can
//! set a channel's type apart from its kind.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::GateKind;

/// Process-wide source of content stamps: every value handed out is
/// unique, so equal stamps can only mean "same content" (an unmutated
/// context, or a clone of it).
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A single context value.
#[derive(Debug, Clone, PartialEq)]
pub enum CtxValue {
    /// A string value (recipients, user names, paths, ...).
    Str(String),
    /// An integer value.
    Int(i64),
    /// A boolean flag (e.g. `priv_chair`).
    Bool(bool),
}

impl CtxValue {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CtxValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CtxValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            CtxValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for CtxValue {
    fn from(s: &str) -> Self {
        CtxValue::Str(s.to_string())
    }
}

impl From<String> for CtxValue {
    fn from(s: String) -> Self {
        CtxValue::Str(s)
    }
}

impl From<i64> for CtxValue {
    fn from(i: i64) -> Self {
        CtxValue::Int(i)
    }
}

impl From<bool> for CtxValue {
    fn from(b: bool) -> Self {
        CtxValue::Bool(b)
    }
}

impl fmt::Display for CtxValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtxValue::Str(s) => f.write_str(s),
            CtxValue::Int(i) => write!(f, "{i}"),
            CtxValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The context hash table attached to a filter object: the channel's kind
/// and the entries someone set.
#[derive(Debug, Clone)]
pub struct Context {
    kind: GateKind,
    entries: BTreeMap<String, CtxValue>,
    /// Content stamp: refreshed on every mutation, copied by `Clone`.
    /// Two contexts with the same stamp are guaranteed content-equal
    /// (the converse does not hold), which lets per-crossing caches —
    /// e.g. the RSL interpreter's context-value cache — key on one `u64`
    /// instead of deep-comparing the entry map.
    stamp: u64,
}

/// Equality is over content (kind + entries); the cache stamp is an
/// identity optimization, not part of the value.
impl PartialEq for Context {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.entries == other.entries
    }
}

impl Context {
    /// Creates a context for a channel of `kind`, with no entries.
    pub fn new(kind: GateKind) -> Self {
        Context {
            kind,
            entries: BTreeMap::new(),
            stamp: fresh_stamp(),
        }
    }

    /// The content stamp: equal stamps guarantee equal content, so a
    /// cache keyed on the stamp never serves a stale entry across
    /// [`set`](Context::set)/[`remove`](Context::remove) mutations.
    pub fn cache_stamp(&self) -> u64 {
        self.stamp
    }

    /// The kind of channel this context describes.
    pub fn kind(&self) -> &GateKind {
        &self.kind
    }

    /// The channel type string: the paper's `$context['type']`.
    pub fn channel_type(&self) -> &str {
        self.kind.type_name()
    }

    /// Inserts or replaces a context entry.
    ///
    /// `type` is the channel's kind, not an entry: setting it is a bug in
    /// the caller (a debug build panics) and stores nothing.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<CtxValue>) -> &mut Self {
        let key = key.into();
        debug_assert_ne!(key, "type", "a channel's type is its kind");
        if key != "type" {
            self.entries.insert(key, value.into());
            self.stamp = fresh_stamp();
        }
        self
    }

    /// Inserts a string entry (convenience).
    pub fn set_str(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.set(key, CtxValue::Str(value.into()))
    }

    /// Looks up an entry.
    pub fn get(&self, key: &str) -> Option<&CtxValue> {
        self.entries.get(key)
    }

    /// Looks up a string entry.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.entries.get(key).and_then(CtxValue::as_str)
    }

    /// Looks up a boolean entry, defaulting to `false` when absent.
    pub fn get_flag(&self, key: &str) -> bool {
        self.entries
            .get(key)
            .and_then(CtxValue::as_bool)
            .unwrap_or(false)
    }

    /// Looks up an integer entry.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.entries.get(key).and_then(CtxValue::as_int)
    }

    /// Removes an entry, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<CtxValue> {
        let removed = self.entries.remove(key);
        if removed.is_some() {
            self.stamp = fresh_stamp();
        }
        removed
    }

    /// True if the context has an entry for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Iterates over the entries that were set, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CtxValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries that were set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry was set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_is_the_kind_not_an_entry() {
        let ctx = Context::new(GateKind::Email);
        assert_eq!(ctx.channel_type(), "email");
        assert_eq!(ctx.kind(), &GateKind::Email);
        assert_eq!(ctx.get_str("type"), None);
        assert!(ctx.is_empty(), "a fresh context has no entries");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "a channel's type is its kind")
    )]
    fn setting_type_stores_nothing() {
        let mut ctx = Context::new(GateKind::Http);
        let stamp = ctx.cache_stamp();
        ctx.set_str("type", "email");
        assert_eq!(ctx.get("type"), None);
        assert_eq!(ctx.channel_type(), "http");
        assert_eq!(ctx.cache_stamp(), stamp, "nothing changed");
    }

    #[test]
    fn set_and_get_values() {
        let mut ctx = Context::new(GateKind::Http);
        ctx.set_str("user", "alice")
            .set("priv_chair", true)
            .set("status", 200i64);
        assert_eq!(ctx.get_str("user"), Some("alice"));
        assert!(ctx.get_flag("priv_chair"));
        assert!(!ctx.get_flag("absent"));
        assert_eq!(ctx.get_int("status"), Some(200));
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.is_empty());
    }

    #[test]
    fn remove_and_contains() {
        let mut ctx = Context::new(GateKind::Socket);
        ctx.set_str("k", "v");
        assert!(ctx.contains("k"));
        assert_eq!(ctx.remove("k"), Some(CtxValue::Str("v".into())));
        assert!(!ctx.contains("k"));
    }

    #[test]
    fn ctx_value_conversions() {
        assert_eq!(CtxValue::from("x").as_str(), Some("x"));
        assert_eq!(CtxValue::from(7i64).as_int(), Some(7));
        assert_eq!(CtxValue::from(true).as_bool(), Some(true));
        assert_eq!(CtxValue::from("x").as_int(), None);
        assert_eq!(CtxValue::Int(3).to_string(), "3");
        assert_eq!(CtxValue::Bool(false).to_string(), "false");
    }

    #[test]
    fn cache_stamp_tracks_content() {
        let mut ctx = Context::new(GateKind::Email);
        let s0 = ctx.cache_stamp();
        // A clone shares the stamp — identical content by construction.
        let copy = ctx.clone();
        assert_eq!(copy.cache_stamp(), s0);
        assert_eq!(ctx, copy);
        // Any mutation refreshes it.
        ctx.set_str("email", "u@x");
        let s1 = ctx.cache_stamp();
        assert_ne!(s1, s0);
        ctx.remove("email");
        assert_ne!(ctx.cache_stamp(), s1);
        // Removing a missing key is not a mutation.
        let s2 = ctx.cache_stamp();
        assert_eq!(ctx.remove("missing"), None);
        assert_eq!(ctx.cache_stamp(), s2);
        // Distinct fresh contexts never share a stamp, even when equal.
        let a = Context::new(GateKind::Http);
        let b = Context::new(GateKind::Http);
        assert_eq!(a, b);
        assert_ne!(a.cache_stamp(), b.cache_stamp());
    }

    #[test]
    fn iter_in_key_order() {
        let mut ctx = Context::new(GateKind::Pipe);
        ctx.set_str("b", "2").set_str("a", "1");
        let keys: Vec<&str> = ctx.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
