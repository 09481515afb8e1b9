//! Tainted strings: byte strings that carry byte-range labels.
//!
//! This is the workhorse of RESIN's data tracking (§3.4): when the
//! application copies or moves string data, the attached policies travel
//! with it, at byte granularity. Concatenating `"foo"` (policy *p1*) and
//! `"bar"` (policy *p2*) yields `"foobar"` whose first three bytes carry
//! only *p1* and last three only *p2*; slicing back out `"foo"` yields a
//! string carrying only *p1*.
//!
//! Policy sets are interned [`Label`] handles, so the concat-heavy paths
//! (append, normalize, coalesce) never compare policies structurally.

use std::fmt;
use std::ops::Range;

use crate::error::Result;
use crate::label::Label;
use crate::merge::merge_many;
use crate::policy::{Policy, PolicyRef};
use crate::taint::spans::SpanMap;
use crate::taint::value::Tainted;

/// A string whose bytes carry interned policy labels.
///
/// The text is UTF-8 (a Rust `String`); policy ranges are byte ranges, as in
/// the paper's PHP prototype. Operations that move bytes verbatim (concat,
/// slice, replace, case mapping over ASCII) propagate ranges without
/// merging; operations that *combine* bytes (numeric conversion) merge
/// policies through the merge engine.
#[derive(Clone, Default)]
pub struct TaintedString {
    text: String,
    spans: SpanMap,
}

impl TaintedString {
    /// An empty tainted string.
    pub fn new() -> Self {
        TaintedString::default()
    }

    /// A string with `policy` applied to every byte.
    ///
    /// # The empty-string contract
    ///
    /// Policies attach to *bytes* (the paper's character-granularity model,
    /// §3.4). An empty string has no bytes, so attaching a policy to it is
    /// a **no-op**: `with_policy("", p)` returns an untainted empty string,
    /// and concatenating it into other data propagates nothing. Callers
    /// holding possibly-empty sensitive values must either check
    /// [`is_empty`](TaintedString::is_empty) before relying on the label to
    /// travel, or label the non-empty container the value flows into.
    ///
    /// ```
    /// use resin_core::prelude::*;
    /// use std::sync::Arc;
    ///
    /// let empty = TaintedString::with_policy("", Arc::new(PasswordPolicy::new("u@x")));
    /// assert!(empty.is_untainted(), "no bytes, no label");
    /// ```
    pub fn with_policy(text: impl Into<String>, policy: PolicyRef) -> Self {
        let mut s = TaintedString::from(text.into());
        s.add_policy(policy);
        s
    }

    /// A string with `label` applied to every byte (same empty-string
    /// contract as [`with_policy`](TaintedString::with_policy)).
    pub fn with_label(text: impl Into<String>, label: Label) -> Self {
        let mut s = TaintedString::from(text.into());
        s.add_label(label);
        s
    }

    /// The underlying text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when the text is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// True when no byte carries any policy.
    pub fn is_untainted(&self) -> bool {
        self.spans.is_empty()
    }

    // ---- policy management (Table 3: policy_add / policy_remove / policy_get) ----

    /// Attaches `policy` to every byte.
    ///
    /// Interns the policy once; after that the per-span work is label
    /// arithmetic. On an **empty string this is a no-op** — policies attach
    /// to bytes, and there are none (see
    /// [`with_policy`](TaintedString::with_policy) for the full contract).
    pub fn add_policy(&mut self, policy: PolicyRef) {
        let len = self.len();
        self.spans.add_policy(0..len, policy);
    }

    /// Attaches `policy` to the bytes in `range`.
    pub fn add_policy_range(&mut self, range: Range<usize>, policy: PolicyRef) {
        let len = self.len();
        self.spans
            .add_policy(range.start.min(len)..range.end.min(len), policy);
    }

    /// Unions `label` into every byte (no-op on an empty string).
    pub fn add_label(&mut self, label: Label) {
        let len = self.len();
        self.spans.add_label(0..len, label);
    }

    /// Unions `label` into the bytes in `range`.
    pub fn add_label_range(&mut self, range: Range<usize>, label: Label) {
        let len = self.len();
        self.spans
            .add_label(range.start.min(len)..range.end.min(len), label);
    }

    /// The span map itself, for the serialize oracle, which adds each
    /// span by a plain [`SpanMap::edit`] as the codec once did.
    #[cfg(test)]
    pub(crate) fn spans_mut(&mut self) -> &mut SpanMap {
        &mut self.spans
    }

    /// Removes any policy equal to `policy` from every byte.
    pub fn remove_policy(&mut self, policy: &PolicyRef) {
        let len = self.len();
        self.spans.remove_policy(0..len, policy);
    }

    /// Removes all policies of type `T` from every byte.
    pub fn remove_policy_type<T: Policy>(&mut self) {
        let len = self.len();
        self.spans.remove_type::<T>(0..len);
    }

    /// Removes all policies from every byte (declassification).
    pub fn clear_policies(&mut self) {
        self.spans = SpanMap::new();
    }

    /// The union of all labels attached anywhere in the string — memoized
    /// label unions, O(spans) handle operations.
    pub fn label(&self) -> Label {
        self.spans.union_all()
    }

    /// The label of byte `idx` ([`Label::EMPTY`] if uncovered or out of
    /// range).
    pub fn label_at(&self, idx: usize) -> Label {
        self.spans.at(idx)
    }

    /// Iterates `(byte_range, label)` spans in order.
    pub fn spans(&self) -> impl Iterator<Item = (Range<usize>, Label)> + '_ {
        self.spans.iter()
    }

    /// Number of distinct policy spans.
    pub fn span_count(&self) -> usize {
        self.spans.span_count()
    }

    /// True if any byte carries a policy of type `T`.
    pub fn has_policy<T: Policy>(&self) -> bool {
        self.spans.any_byte(self.len(), |l| l.has::<T>())
    }

    /// True if *every* byte carries a policy of type `T`.
    ///
    /// This is the check the script-injection import filter performs: each
    /// character of imported code must carry `CodeApproval` (Figure 6).
    pub fn all_bytes_have<T: Policy>(&self) -> bool {
        self.spans.all_bytes(self.len(), |l| l.has::<T>())
    }

    /// Byte ranges whose label satisfies `pred`.
    pub fn ranges_where<F>(&self, pred: F) -> Vec<Range<usize>>
    where
        F: Fn(Label) -> bool,
    {
        self.spans.ranges_where(self.len(), pred)
    }

    /// Byte ranges that carry a `T` policy.
    pub fn ranges_with<T: Policy>(&self) -> Vec<Range<usize>> {
        self.ranges_where(|l| l.has::<T>())
    }

    // ---- verbatim data movement (no merging, §3.4) ----

    /// Appends another tainted string, carrying its policy ranges along.
    pub fn push_tainted(&mut self, other: &TaintedString) {
        let offset = self.text.len();
        self.text.push_str(&other.text);
        self.spans.append(&other.spans, offset);
    }

    /// Appends untainted text.
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }

    /// Appends a single untainted char.
    pub fn push(&mut self, c: char) {
        self.text.push(c);
    }

    /// Concatenates two tainted strings into a new one.
    pub fn concat(&self, other: &TaintedString) -> TaintedString {
        let mut b = TaintedStrBuilder::with_capacity(self.len() + other.len());
        b.push_tainted(self);
        b.push_tainted(other);
        b.build()
    }

    /// Concatenates many parts.
    pub fn concat_all<'a, I>(parts: I) -> TaintedString
    where
        I: IntoIterator<Item = &'a TaintedString>,
    {
        let mut b = TaintedStrBuilder::new();
        for p in parts {
            b.push_tainted(p);
        }
        b.build()
    }

    /// Extracts `range` as a new tainted string (byte indices; must lie on
    /// UTF-8 boundaries).
    pub fn slice(&self, range: Range<usize>) -> TaintedString {
        let start = range.start.min(self.text.len());
        let end = range.end.min(self.text.len()).max(start);
        TaintedString {
            text: self.text[start..end].to_string(),
            spans: self.spans.slice(start..end),
        }
    }

    /// PHP-style `substr(offset, len)`.
    pub fn substr(&self, offset: usize, len: usize) -> TaintedString {
        self.slice(offset..offset.saturating_add(len))
    }

    /// Truncates to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.text.truncate(len);
        self.spans.clamp(self.text.len());
    }

    /// Splits on `sep`, preserving the taint of each piece.
    pub fn split(&self, sep: &str) -> Vec<TaintedString> {
        assert!(!sep.is_empty(), "separator must be non-empty");
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(pos) = self.text[start..].find(sep) {
            out.push(self.slice(start..start + pos));
            start += pos + sep.len();
        }
        out.push(self.slice(start..self.text.len()));
        out
    }

    /// Splits into lines (on `\n`), preserving taint; strips a trailing `\r`.
    pub fn lines(&self) -> Vec<TaintedString> {
        self.split("\n")
            .into_iter()
            .map(|l| {
                if l.as_str().ends_with('\r') {
                    let n = l.len() - 1;
                    l.slice(0..n)
                } else {
                    l
                }
            })
            .collect()
    }

    /// Joins parts with an untainted separator, preserving each part's taint.
    pub fn join<'a, I>(sep: &str, parts: I) -> TaintedString
    where
        I: IntoIterator<Item = &'a TaintedString>,
    {
        let mut b = TaintedStrBuilder::new();
        for (i, p) in parts.into_iter().enumerate() {
            if i > 0 {
                b.push_str(sep);
            }
            b.push_tainted(p);
        }
        b.build()
    }

    /// Replaces every occurrence of `from` with the tainted `to`,
    /// preserving the taint of untouched bytes and of the replacement.
    pub fn replace(&self, from: &str, to: &TaintedString) -> TaintedString {
        assert!(!from.is_empty(), "pattern must be non-empty");
        let mut b = TaintedStrBuilder::with_capacity(self.len());
        let mut start = 0usize;
        while let Some(pos) = self.text[start..].find(from) {
            b.push_range(self, start..start + pos);
            b.push_tainted(to);
            start += pos + from.len();
        }
        b.push_range(self, start..self.text.len());
        b.build()
    }

    /// Replaces with untainted replacement text.
    pub fn replace_str(&self, from: &str, to: &str) -> TaintedString {
        self.replace(from, &TaintedString::from(to))
    }

    /// ASCII-uppercases the text; policy spans are carried byte-for-byte.
    pub fn to_ascii_uppercase(&self) -> TaintedString {
        TaintedString {
            text: self.text.to_ascii_uppercase(),
            spans: self.spans.clone(),
        }
    }

    /// ASCII-lowercases the text; policy spans are carried byte-for-byte.
    pub fn to_ascii_lowercase(&self) -> TaintedString {
        TaintedString {
            text: self.text.to_ascii_lowercase(),
            spans: self.spans.clone(),
        }
    }

    /// Trims ASCII whitespace from both ends, preserving inner taint.
    pub fn trim(&self) -> TaintedString {
        let s = self.text.trim_start();
        let start = self.text.len() - s.len();
        let t = s.trim_end();
        self.slice(start..start + t.len())
    }

    /// Repeats the string `n` times, repeating the policy ranges too.
    pub fn repeat(&self, n: usize) -> TaintedString {
        let mut b = TaintedStrBuilder::with_capacity(self.len() * n);
        for _ in 0..n {
            b.push_tainted(self);
        }
        b.build()
    }

    // ---- text queries (taint-oblivious) ----

    /// First byte offset of `needle`, if present.
    pub fn find(&self, needle: &str) -> Option<usize> {
        self.text.find(needle)
    }

    /// True if the text contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.text.contains(needle)
    }

    /// True if the text starts with `prefix`.
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.text.starts_with(prefix)
    }

    /// True if the text ends with `suffix`.
    pub fn ends_with(&self, suffix: &str) -> bool {
        self.text.ends_with(suffix)
    }

    // ---- merging conversions (§3.4.2) ----

    /// Converts the text to an integer, *merging* the policies of all bytes.
    ///
    /// Unlike verbatim movement, numeric conversion combines bytes into one
    /// datum, so every policy's `merge` method participates; a policy may
    /// veto the conversion.
    pub fn to_int(&self) -> Result<Tainted<i64>> {
        let v: i64 = self
            .text
            .trim()
            .parse()
            .map_err(|e| crate::error::FlowError::runtime(format!("not an integer: {e}")))?;
        let merged = merge_many(self.spans.iter().map(|(_, l)| l))?;
        Ok(Tainted::with_label(v, merged))
    }

    /// Consumes the string, dropping all policies (explicit declassify).
    pub fn into_plain(self) -> String {
        self.text
    }

    /// Taint-aware equality: same text *and* same policy spans. Span labels
    /// are canonical handles, so this never compares policies structurally.
    pub fn taint_eq(&self, other: &TaintedString) -> bool {
        if self.text != other.text {
            return false;
        }
        let a: Vec<_> = self.spans.iter().collect();
        let b: Vec<_> = other.spans.iter().collect();
        a == b
    }
}

impl From<&str> for TaintedString {
    fn from(s: &str) -> Self {
        TaintedString {
            text: s.to_string(),
            spans: SpanMap::new(),
        }
    }
}

impl From<String> for TaintedString {
    fn from(s: String) -> Self {
        TaintedString {
            text: s,
            spans: SpanMap::new(),
        }
    }
}

impl From<&String> for TaintedString {
    fn from(s: &String) -> Self {
        TaintedString::from(s.as_str())
    }
}

impl fmt::Display for TaintedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for TaintedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.text)?;
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(r, l)| format!("{}..{}{:?}", r.start, r.end, l))
            .collect();
        if !spans.is_empty() {
            write!(f, " <{}>", spans.join(", "))?;
        }
        Ok(())
    }
}

/// Equality compares *text only*; policies do not affect `==`, matching
/// PHP/Python semantics where taint is invisible to comparison operators.
/// Use [`TaintedString::taint_eq`] for policy-aware equality.
impl PartialEq for TaintedString {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for TaintedString {}

impl PartialEq<&str> for TaintedString {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

/// An amortized-O(1)-per-fragment builder for [`TaintedString`]s.
///
/// Composing a page, query, or response out of many fragments is *the*
/// taint-propagation hot path (the paper's Table 5 concat rows). Folding
/// [`TaintedString::concat`] re-walks the accumulated spans per step; this
/// builder instead appends each fragment's text and spans in O(fragment)
/// — the span list stays normalized structurally (one coalesce check at
/// each seam), so [`build`](TaintedStrBuilder::build) hands the finished
/// string over without any deferred re-sort pass.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let name = TaintedString::with_policy("bob", Arc::new(UntrustedData::new()));
/// let mut b = TaintedStrBuilder::with_capacity(32);
/// b.push_str("hello, ");
/// b.push_tainted(&name);
/// b.push_char('!');
/// let s = b.build();
/// assert_eq!(s.as_str(), "hello, bob!");
/// assert!(s.label_at(7).has::<UntrustedData>());
/// assert!(s.label_at(0).is_empty());
/// ```
#[derive(Default)]
pub struct TaintedStrBuilder {
    text: String,
    spans: SpanMap,
}

impl TaintedStrBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TaintedStrBuilder::default()
    }

    /// An empty builder whose text buffer is pre-sized for `bytes` bytes —
    /// use when the output length is known (or estimable) up front.
    pub fn with_capacity(bytes: usize) -> Self {
        TaintedStrBuilder {
            text: String::with_capacity(bytes),
            spans: SpanMap::new(),
        }
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Appends untainted text.
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }

    /// Appends a single untainted char.
    pub fn push_char(&mut self, c: char) {
        self.text.push(c);
    }

    /// Appends a tainted fragment, carrying its policy spans along.
    pub fn push_tainted(&mut self, other: &TaintedString) {
        let offset = self.text.len();
        self.text.push_str(&other.text);
        self.spans.append(&other.spans, offset);
    }

    /// Appends `src[range]` — text and policy spans — straight from the
    /// borrowed source: what `push_tainted(&src.slice(range))` builds,
    /// without the intermediate string. Byte indices, clamped to the
    /// source; they must lie on UTF-8 boundaries.
    pub fn push_range(&mut self, src: &TaintedString, range: Range<usize>) {
        self.push_range_with(src, range, |label| label);
    }

    /// [`push_range`](TaintedStrBuilder::push_range) with every byte's
    /// label passed through `relabel` on the way in. Bytes no span covers
    /// are offered too, as [`Label::EMPTY`], so a sanitizer can mark
    /// everything it emits in the pass that emits it.
    pub fn push_range_with<F>(&mut self, src: &TaintedString, range: Range<usize>, relabel: F)
    where
        F: FnMut(Label) -> Label,
    {
        let start = range.start.min(src.len());
        let end = range.end.min(src.len()).max(start);
        let offset = self.text.len();
        self.text.push_str(&src.text[start..end]);
        self.spans
            .append_range_with(&src.spans, start..end, offset, relabel);
    }

    /// Appends text with `label` applied to every byte of it (no-op label
    /// attach when `text` is empty, per the byte-granularity contract).
    pub fn push_label(&mut self, text: &str, label: Label) {
        let start = self.text.len();
        self.text.push_str(text);
        self.spans.push_coalesced(start, self.text.len(), label);
    }

    /// Finishes the string. The span map was kept normalized at every push,
    /// so this is O(1) — no deferred sort or coalesce pass.
    pub fn build(self) -> TaintedString {
        TaintedString {
            text: self.text,
            spans: self.spans,
        }
    }
}

impl<'a> Extend<&'a TaintedString> for TaintedStrBuilder {
    fn extend<I: IntoIterator<Item = &'a TaintedString>>(&mut self, iter: I) {
        for p in iter {
            self.push_tainted(p);
        }
    }
}

impl<'a> FromIterator<&'a TaintedString> for TaintedString {
    fn from_iter<I: IntoIterator<Item = &'a TaintedString>>(iter: I) -> TaintedString {
        let mut b = TaintedStrBuilder::new();
        b.extend(iter);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{HtmlSanitized, PasswordPolicy, UntrustedData};
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn paper_concat_substring_example() {
        // §3.4: concat "foo"(p1) + "bar"(p2); slice back "foo" has only p1.
        let foo = TaintedString::with_policy("foo", Arc::new(UntrustedData::new()));
        let bar = TaintedString::with_policy("bar", Arc::new(HtmlSanitized::new()));
        let combined = foo.concat(&bar);
        assert_eq!(combined.as_str(), "foobar");
        assert!(combined.label_at(0).has::<UntrustedData>());
        assert!(!combined.label_at(0).has::<HtmlSanitized>());
        assert!(combined.label_at(3).has::<HtmlSanitized>());
        assert!(!combined.label_at(3).has::<UntrustedData>());

        let front = combined.slice(0..3);
        assert_eq!(front.as_str(), "foo");
        assert!(front.label().has::<UntrustedData>());
        assert!(!front.label().has::<HtmlSanitized>());
    }

    #[test]
    fn untainted_fast_path() {
        let s = TaintedString::from("hello");
        assert!(s.is_untainted());
        assert!(s.label().is_empty());
        assert_eq!(s.label(), Label::EMPTY);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn push_str_does_not_taint() {
        let mut s = untrusted("evil");
        s.push_str("-safe");
        assert_eq!(s.as_str(), "evil-safe");
        assert!(s.label_at(0).has::<UntrustedData>());
        assert!(s.label_at(4).is_empty());
    }

    #[test]
    fn split_preserves_piece_taint() {
        let a = untrusted("evil");
        let mut s = TaintedString::from("name=");
        s.push_tainted(&a);
        s.push_str("&x=1");
        let parts = s.split("&");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].as_str(), "name=evil");
        assert!(parts[0].has_policy::<UntrustedData>());
        assert!(parts[1].is_untainted());
    }

    #[test]
    fn split_no_separator_returns_whole() {
        let s = untrusted("abc");
        let parts = s.split(",");
        assert_eq!(parts.len(), 1);
        assert!(parts[0].has_policy::<UntrustedData>());
    }

    #[test]
    fn replace_keeps_surrounding_taint() {
        let mut s = TaintedString::from("hi <b>");
        s.add_policy_range(3..6, Arc::new(UntrustedData::new()));
        let r = s.replace("<b>", &TaintedString::from("&lt;b&gt;"));
        assert_eq!(r.as_str(), "hi &lt;b&gt;");
        assert!(r.label_at(0).is_empty());
        // The replacement text is untainted.
        assert!(!r.has_policy::<UntrustedData>());
    }

    #[test]
    fn replace_with_tainted_replacement() {
        let s = TaintedString::from("x=NAME;");
        let evil = untrusted("bob");
        let r = s.replace("NAME", &evil);
        assert_eq!(r.as_str(), "x=bob;");
        assert!(r.label_at(2).has::<UntrustedData>());
        assert!(r.label_at(0).is_empty());
        assert!(r.label_at(5).is_empty());
    }

    #[test]
    fn case_mapping_preserves_spans() {
        let s = untrusted("AbC");
        let u = s.to_ascii_uppercase();
        assert_eq!(u.as_str(), "ABC");
        assert!(u.all_bytes_have::<UntrustedData>());
        let l = s.to_ascii_lowercase();
        assert_eq!(l.as_str(), "abc");
        assert!(l.all_bytes_have::<UntrustedData>());
    }

    #[test]
    fn trim_slices_taint() {
        let mut s = TaintedString::from("  core  ");
        s.add_policy_range(2..6, Arc::new(UntrustedData::new()));
        let t = s.trim();
        assert_eq!(t.as_str(), "core");
        assert!(t.all_bytes_have::<UntrustedData>());
    }

    #[test]
    fn join_and_lines() {
        let a = untrusted("one");
        let b = TaintedString::from("two");
        let j = TaintedString::join("\r\n", [&a, &b]);
        assert_eq!(j.as_str(), "one\r\ntwo");
        let lines = j.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].as_str(), "one");
        assert!(lines[0].has_policy::<UntrustedData>());
        assert!(lines[1].is_untainted());
    }

    #[test]
    fn repeat_repeats_spans() {
        let s = untrusted("ab");
        let r = s.repeat(3);
        assert_eq!(r.as_str(), "ababab");
        assert!(r.all_bytes_have::<UntrustedData>());
        assert_eq!(r.repeat(0).len(), 0);
    }

    #[test]
    fn substr_php_style() {
        let s = untrusted("abcdef");
        let sub = s.substr(2, 3);
        assert_eq!(sub.as_str(), "cde");
        assert!(sub.all_bytes_have::<UntrustedData>());
        // Out-of-range lengths are clipped, not a panic.
        assert_eq!(s.substr(4, 100).as_str(), "ef");
        assert_eq!(s.substr(10, 5).as_str(), "");
    }

    #[test]
    fn to_int_merges_policies() {
        let s = untrusted("42");
        let v = s.to_int().unwrap();
        assert_eq!(v.value(), &42);
        assert!(v.label().has::<UntrustedData>());
        assert!(TaintedString::from("nope").to_int().is_err());
    }

    #[test]
    fn equality_ignores_taint() {
        let a = untrusted("x");
        let b = TaintedString::from("x");
        assert_eq!(a, b);
        assert!(!a.taint_eq(&b));
        assert!(a.taint_eq(&a.clone()));
        assert_eq!(a, "x");
    }

    #[test]
    fn truncate_clamps_spans() {
        let mut s = untrusted("abcdef");
        s.truncate(3);
        assert_eq!(s.as_str(), "abc");
        assert!(s.all_bytes_have::<UntrustedData>());
        assert_eq!(s.ranges_with::<UntrustedData>(), vec![0..3]);
    }

    #[test]
    fn debug_renders_spans() {
        let s = untrusted("ab");
        let d = format!("{s:?}");
        assert!(d.contains("UntrustedData"), "{d}");
    }

    #[test]
    fn all_bytes_have_on_empty_string() {
        let s = TaintedString::new();
        assert!(s.all_bytes_have::<UntrustedData>(), "vacuously true");
    }

    #[test]
    fn with_label_applies_whole_label() {
        let l = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef))
            .union(Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef)));
        let s = TaintedString::with_label("xy", l);
        assert_eq!(s.label(), l);
        assert_eq!(s.label_at(1).len(), 2);
    }

    #[test]
    fn empty_string_policy_is_noop_by_contract() {
        // The documented contract: policies attach to bytes; an empty
        // string has none, so the attach is silently a no-op.
        let s = TaintedString::with_policy("", Arc::new(PasswordPolicy::new("u@x")));
        assert!(s.is_untainted());
        assert!(s.label().is_empty());

        let mut t = TaintedString::new();
        t.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        t.add_label(Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)));
        assert!(t.is_untainted());

        // Concatenating an empty carrier propagates nothing.
        let mut msg = TaintedString::from("hello");
        msg.push_tainted(&s);
        assert!(msg.is_untainted());
        assert_eq!(msg.as_str(), "hello");
    }

    #[test]
    fn builder_matches_fold_concat() {
        let parts = [
            untrusted("evil"),
            TaintedString::from("-safe-"),
            untrusted("more"),
            TaintedString::new(),
            untrusted("tail"),
        ];
        let mut b = TaintedStrBuilder::new();
        for p in &parts {
            b.push_tainted(p);
        }
        let built = b.build();
        let mut folded = TaintedString::new();
        for p in &parts {
            folded = folded.concat(p);
        }
        assert!(built.taint_eq(&folded));
        assert_eq!(built.as_str(), "evil-safe-moretail");
    }

    #[test]
    fn builder_mixed_pushes() {
        let mut b = TaintedStrBuilder::with_capacity(64);
        assert!(b.is_empty());
        b.push_str("a=");
        b.push_label(
            "v1",
            Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
        );
        b.push_char('&');
        b.push_label(
            "",
            Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
        );
        b.push_label("v2", Label::EMPTY);
        assert_eq!(b.len(), 7);
        let s = b.build();
        assert_eq!(s.as_str(), "a=v1&v2");
        assert_eq!(s.ranges_with::<UntrustedData>(), vec![2..4]);
        assert!(s.label_at(5).is_empty());
    }

    #[test]
    fn builder_coalesces_adjacent_equal_fragments() {
        let mut b = TaintedStrBuilder::new();
        b.push_tainted(&untrusted("ab"));
        b.push_tainted(&untrusted("cd"));
        let s = b.build();
        assert_eq!(s.span_count(), 1, "seam coalesced");
        assert!(s.all_bytes_have::<UntrustedData>());
    }

    proptest::proptest! {
        #[test]
        fn push_range_is_slice_then_push(
            pieces in proptest::prop::collection::vec(("[ab<é ]{0,5}", 0usize..4), 0..10),
            cuts in (0usize..64, 0usize..64),
        ) {
            let labels = [
                Label::EMPTY,
                Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
                Label::of(&(Arc::new(PasswordPolicy::new("u@x")) as PolicyRef)),
            ];
            let marker = Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef));
            let mut src = TaintedStrBuilder::new();
            for (text, which) in &pieces {
                // 3 is a second untainted stretch, so gaps abut gaps.
                src.push_label(text, labels[which % 3]);
            }
            let src = src.build();
            // Any two char boundaries, in order; one may run past the end.
            let bounds: Vec<usize> = (0..=src.len() + 3)
                .filter(|&i| i > src.len() || src.as_str().is_char_boundary(i))
                .collect();
            let (a, b) = (bounds[cuts.0 % bounds.len()], bounds[cuts.1 % bounds.len()]);
            let range = a.min(b)..a.max(b);

            let mut want = untrusted("head");
            want.push_tainted(&src.slice(range.clone()));
            let mut got = TaintedStrBuilder::new();
            got.push_tainted(&untrusted("head"));
            got.push_range(&src, range.clone());
            let got = got.build();
            proptest::prop_assert!(got.taint_eq(&want), "{got:?} != {want:?}");

            let mut piece = src.slice(range.clone());
            piece.add_label(marker);
            let mut want = untrusted("head");
            want.push_tainted(&piece);
            let mut got = TaintedStrBuilder::new();
            got.push_tainted(&untrusted("head"));
            got.push_range_with(&src, range, |l| l.union(marker));
            let got = got.build();
            proptest::prop_assert!(got.taint_eq(&want), "{got:?} != {want:?}");
        }
    }

    #[test]
    fn from_iterator_collects_tainted() {
        let parts = [untrusted("x"), TaintedString::from("y")];
        let s: TaintedString = parts.iter().collect();
        assert_eq!(s.as_str(), "xy");
        assert!(s.label_at(0).has::<UntrustedData>());
        assert!(s.label_at(1).is_empty());
    }
}
