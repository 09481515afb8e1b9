//! Byte-range label maps.
//!
//! RESIN tracks policies at character granularity (§3.4): in PHP, "each
//! policy object contains a character range for which the policy applies"
//! (§4). [`SpanMap`] is that structure: a sorted, non-overlapping,
//! coalesced list of byte ranges, each carrying a non-empty interned
//! [`Label`]. Bytes not covered by any span carry [`Label::EMPTY`].
//!
//! Because labels are canonical handles, coalescing adjacent equal spans is
//! an integer compare and unioning a label into a range is an O(1)
//! memoized table hit — no structural policy comparison happens here.
//!
//! # Performance model
//!
//! The sorted-coalesced invariant is maintained *structurally*, never by
//! re-sorting: every mutation splices a locally-renormalized segment into an
//! already-normal map. The hot paths are:
//!
//! * [`append`](SpanMap::append) (concatenation) — O(m) in the appended
//!   spans, with a single boundary-coalesce check at the seam;
//! * [`edit`](SpanMap::edit) / [`slice`](SpanMap::slice) /
//!   [`at`](SpanMap::at) — binary-search their start position, then touch
//!   only the spans intersecting the range;
//! * maps with ≤ 2 spans (the overwhelming majority of request fields)
//!   live in inline storage and never heap-allocate.

use std::ops::Range;

use crate::label::{Label, LabelMemo, PolicyId};
use crate::policy::{Policy, PolicyRef};

/// One labeled byte range. `end` is exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte covered.
    pub start: usize,
    /// One past the last byte covered.
    pub end: usize,
    /// Label applying to every byte in `start..end` (never empty).
    pub label: Label,
}

impl Span {
    fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

const EMPTY_SPAN: Span = Span {
    start: 0,
    end: 0,
    label: Label::EMPTY,
};

/// Spans kept inline before spilling to the heap. Two covers the typical
/// request field: one tainted payload, possibly flanked by one more range.
const INLINE_SPANS: usize = 2;

/// A hand-rolled SmallVec for [`Span`]s: up to [`INLINE_SPANS`] spans are
/// stored inline (no heap allocation), spilling to a `Vec` beyond that.
///
/// Only the operations [`SpanMap`] needs are implemented; slice access goes
/// through `Deref`, so searching/sorting reuse the std slice machinery.
#[derive(Debug, Clone)]
enum SpanVec {
    /// `len` spans stored inline in `buf[..len]`.
    Inline { len: u8, buf: [Span; INLINE_SPANS] },
    /// Spilled storage (once spilled, a map never moves back inline).
    Heap(Vec<Span>),
}

impl SpanVec {
    const fn new() -> Self {
        SpanVec::Inline {
            len: 0,
            buf: [EMPTY_SPAN; INLINE_SPANS],
        }
    }

    fn as_slice(&self) -> &[Span] {
        match self {
            SpanVec::Inline { len, buf } => &buf[..*len as usize],
            SpanVec::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Span] {
        match self {
            SpanVec::Inline { len, buf } => &mut buf[..*len as usize],
            SpanVec::Heap(v) => v,
        }
    }

    /// Moves inline storage to the heap with room for `extra` more spans.
    fn spill(&mut self, extra: usize) -> &mut Vec<Span> {
        if let SpanVec::Inline { len, buf } = self {
            let mut v = Vec::with_capacity((*len as usize + extra).max(INLINE_SPANS * 2));
            v.extend_from_slice(&buf[..*len as usize]);
            *self = SpanVec::Heap(v);
        }
        match self {
            SpanVec::Heap(v) => v,
            SpanVec::Inline { .. } => unreachable!("just spilled"),
        }
    }

    fn reserve(&mut self, extra: usize) {
        match self {
            SpanVec::Inline { len, .. } => {
                if *len as usize + extra > INLINE_SPANS {
                    self.spill(extra);
                }
            }
            SpanVec::Heap(v) => v.reserve(extra),
        }
    }

    fn push(&mut self, s: Span) {
        match self {
            SpanVec::Inline { len, buf } if (*len as usize) < INLINE_SPANS => {
                buf[*len as usize] = s;
                *len += 1;
            }
            SpanVec::Inline { .. } => self.spill(1).push(s),
            SpanVec::Heap(v) => v.push(s),
        }
    }

    fn insert(&mut self, i: usize, s: Span) {
        match self {
            SpanVec::Inline { len, buf } if (*len as usize) < INLINE_SPANS => {
                let n = *len as usize;
                buf.copy_within(i..n, i + 1);
                buf[i] = s;
                *len += 1;
            }
            SpanVec::Inline { .. } => self.spill(1).insert(i, s),
            SpanVec::Heap(v) => v.insert(i, s),
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            SpanVec::Inline { len, buf } => {
                let n = *len as usize;
                buf.copy_within(i + 1..n, i);
                *len -= 1;
            }
            SpanVec::Heap(v) => {
                v.remove(i);
            }
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            SpanVec::Inline { len, .. } => *len = (*len).min(n as u8),
            SpanVec::Heap(v) => v.truncate(n),
        }
    }

    /// Replaces `self[lo..hi]` with `seg` (the splice primitive `edit`
    /// renormalizes through).
    fn replace_range(&mut self, lo: usize, hi: usize, seg: &[Span]) {
        let n = self.as_slice().len();
        let new_len = n - (hi - lo) + seg.len();
        match self {
            SpanVec::Inline { len, buf } if new_len <= INLINE_SPANS => {
                buf.copy_within(hi..n, lo + seg.len());
                buf[lo..lo + seg.len()].copy_from_slice(seg);
                *len = new_len as u8;
            }
            _ => {
                let v = self.spill(seg.len());
                v.splice(lo..hi, seg.iter().copied());
            }
        }
    }
}

impl std::ops::Deref for SpanVec {
    type Target = [Span];
    fn deref(&self) -> &[Span] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for SpanVec {
    fn deref_mut(&mut self) -> &mut [Span] {
        self.as_mut_slice()
    }
}

impl Default for SpanVec {
    fn default() -> Self {
        SpanVec::new()
    }
}

/// A normalized map from byte ranges to labels.
#[derive(Debug, Clone, Default)]
pub struct SpanMap {
    spans: SpanVec,
}

impl SpanMap {
    /// The empty map (no byte carries a policy).
    pub const fn new() -> Self {
        SpanMap {
            spans: SpanVec::new(),
        }
    }

    /// True when no byte carries a policy.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of distinct spans (after normalization).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Iterates `(range, label)` pairs in byte order.
    pub fn iter(&self) -> impl Iterator<Item = (Range<usize>, Label)> + '_ {
        self.spans.iter().map(|s| (s.range(), s.label))
    }

    /// The label covering byte `idx` ([`Label::EMPTY`] if uncovered).
    pub fn at(&self, idx: usize) -> Label {
        let i = self.spans.partition_point(|s| s.end <= idx);
        match self.spans.get(i) {
            Some(s) if s.start <= idx => s.label,
            _ => Label::EMPTY,
        }
    }

    /// The union of all labels anywhere in the map — memoized label unions,
    /// no policy objects touched.
    ///
    /// Runs of spans repeating one label (common in sliced maps, where gaps
    /// keep equal-labeled spans from coalescing) cost one handle compare
    /// each: the running union only advances when the label changes.
    pub fn union_all(&self) -> Label {
        let mut out = Label::EMPTY;
        let mut prev = Label::EMPTY;
        for s in self.spans.iter() {
            if s.label == prev || s.label == out {
                continue;
            }
            prev = s.label;
            out = out.union(s.label);
        }
        out
    }

    /// Splits any span straddling `pos` so that `pos` is a span boundary.
    fn split_at(&mut self, pos: usize) {
        let i = self.spans.partition_point(|s| s.end <= pos);
        if let Some(s) = self.spans.get(i) {
            if s.start < pos {
                let tail = Span {
                    start: pos,
                    end: s.end,
                    label: s.label,
                };
                self.spans[i].end = pos;
                self.spans.insert(i + 1, tail);
            }
        }
    }

    /// Coalesces `spans[i-1]` into `spans[i]`'s slot when they touch and
    /// share a label (the seam repair after a splice).
    fn coalesce_seam(&mut self, i: usize) {
        if i == 0 || i >= self.spans.len() {
            return;
        }
        let (a, b) = (self.spans[i - 1], self.spans[i]);
        if a.end == b.start && a.label == b.label {
            self.spans[i - 1].end = b.end;
            self.spans.remove(i);
        }
    }

    /// Applies `f` to the label of every byte in `range` (uncovered bytes
    /// see [`Label::EMPTY`]), then renormalizes.
    ///
    /// Cost: O(log n) to locate the range plus O(k) over the k spans
    /// intersecting it — spans outside the range are never visited, and the
    /// map is never re-sorted.
    pub fn edit<F>(&mut self, range: Range<usize>, f: F)
    where
        F: Fn(Label) -> Label,
    {
        if range.start >= range.end {
            return;
        }
        self.split_at(range.start);
        self.split_at(range.end);

        // Build the replacement segment: transformed covered spans plus
        // `f(EMPTY)` gap fills, locally coalesced.
        let fill = f(Label::EMPTY);
        let lo = self.spans.partition_point(|s| s.end <= range.start);
        let mut seg: Vec<Span> = Vec::new();
        let push_seg = |seg: &mut Vec<Span>, start: usize, end: usize, label: Label| {
            if label.is_empty() || start >= end {
                return;
            }
            if let Some(last) = seg.last_mut() {
                if last.end == start && last.label == label {
                    last.end = end;
                    return;
                }
            }
            seg.push(Span { start, end, label });
        };
        let mut cursor = range.start;
        let mut hi = lo;
        while let Some(s) = self.spans.get(hi) {
            if s.start >= range.end {
                break;
            }
            let s = *s;
            push_seg(&mut seg, cursor, s.start, fill);
            push_seg(&mut seg, s.start, s.end, f(s.label));
            cursor = s.end;
            hi += 1;
        }
        push_seg(&mut seg, cursor, range.end, fill);

        self.spans.replace_range(lo, hi, &seg);
        // Repair the two seams (right first so the left index stays valid).
        self.coalesce_seam(lo + seg.len());
        self.coalesce_seam(lo);
        debug_assert!(self.is_normalized());
    }

    /// Adds `policy` to every byte in `range`.
    pub fn add_policy(&mut self, range: Range<usize>, policy: PolicyRef) {
        let label = Label::of(&policy);
        self.add_label(range, label);
    }

    /// Unions `label` into every byte in `range`.
    pub fn add_label(&mut self, range: Range<usize>, label: Label) {
        if label.is_empty() {
            return;
        }
        // Spans revived from storage arrive in byte order: each lands at
        // or past the map's end and is an O(1) append, not an edit.
        if self.spans.last().is_none_or(|last| last.end <= range.start) {
            return self.push_coalesced(range.start, range.end, label);
        }
        self.edit(range, |cur| cur.union(label));
    }

    /// Removes any policy equal to `policy` from every byte in `range`.
    pub fn remove_policy(&mut self, range: Range<usize>, policy: &PolicyRef) {
        if self.spans.is_empty() || range.start >= range.end {
            return; // nothing to remove — don't intern for a no-op
        }
        let id = PolicyId::intern(policy);
        self.edit(range, |l| l.remove(id));
    }

    /// Removes every policy of type `T` from every byte in `range`.
    pub fn remove_type<T: Policy>(&mut self, range: Range<usize>) {
        if self.spans.is_empty() {
            return;
        }
        self.edit(range, |l| l.without_type::<T>());
    }

    /// Extracts the sub-map for `range`, rebased to offset zero.
    ///
    /// A slice of a normalized map is normalized (clipping moves no interior
    /// boundary), so no renormalization pass runs.
    pub fn slice(&self, range: Range<usize>) -> SpanMap {
        let mut out = SpanMap::new();
        out.append_range_with(self, range, 0, |label| label);
        out
    }

    /// Appends `other`'s spans shifted by `offset` (concatenation support).
    ///
    /// Both maps are normalized and concatenation shifts `other` past this
    /// map's end, so the result is normal by construction: an O(m) extend
    /// with one coalesce check at the seam. (An `offset` that interleaves
    /// the two maps — not reachable from string concatenation — falls back
    /// to a general merge.)
    pub fn append(&mut self, other: &SpanMap, offset: usize) {
        let Some(first) = other.spans.first() else {
            return;
        };
        let appendable = match self.spans.last() {
            Some(last) => first.start + offset >= last.end,
            None => true,
        };
        if appendable {
            self.spans.reserve(other.spans.len());
            for s in other.spans.iter() {
                self.push_coalesced(s.start + offset, s.end + offset, s.label);
            }
        } else {
            for s in other.spans.iter() {
                self.add_label(s.start + offset..s.end + offset, s.label);
            }
        }
        debug_assert!(self.is_normalized());
    }

    /// Appends one span at the end of the map (its start must not precede
    /// the current end), coalescing with the last span when possible.
    ///
    /// This is the O(1) primitive [`TaintedStrBuilder`] composition rides
    /// on: the map stays normalized without ever being re-sorted.
    ///
    /// [`TaintedStrBuilder`]: crate::taint::TaintedStrBuilder
    pub(crate) fn push_coalesced(&mut self, start: usize, end: usize, label: Label) {
        if label.is_empty() || start >= end {
            return;
        }
        if let Some(last) = self.spans.last_mut() {
            debug_assert!(last.end <= start, "push_coalesced out of order");
            if last.end == start && last.label == label {
                last.end = end;
                return;
            }
        }
        self.spans.push(Span { start, end, label });
    }

    /// Appends `other`'s labels over `range`, rebased so `range.start`
    /// lands on `offset` (which must not precede the current end), each
    /// passed through `relabel` — uncovered stretches too, as
    /// [`Label::EMPTY`]. A borrowed [`slice`](SpanMap::slice) +
    /// [`append`](SpanMap::append) + [`edit`](SpanMap::edit) in one pass.
    pub(crate) fn append_range_with<F>(
        &mut self,
        other: &SpanMap,
        range: Range<usize>,
        offset: usize,
        mut relabel: F,
    ) where
        F: FnMut(Label) -> Label,
    {
        if range.start >= range.end {
            return;
        }
        let rebase = |pos: usize| pos - range.start + offset;
        let mut cursor = range.start;
        let lo = other.spans.partition_point(|s| s.end <= range.start);
        for s in other.spans[lo..].iter() {
            if s.start >= range.end {
                break;
            }
            let (start, end) = (s.start.max(range.start), s.end.min(range.end));
            if cursor < start {
                self.push_coalesced(rebase(cursor), rebase(start), relabel(Label::EMPTY));
            }
            self.push_coalesced(rebase(start), rebase(end), relabel(s.label));
            cursor = end;
        }
        if cursor < range.end {
            self.push_coalesced(rebase(cursor), rebase(range.end), relabel(Label::EMPTY));
        }
        debug_assert!(self.is_normalized());
    }

    /// True if every byte in `0..len` has a label satisfying `pred`.
    /// Vacuously true when `len == 0`.
    ///
    /// Here and in [`any_byte`](SpanMap::any_byte) and
    /// [`ranges_where`](SpanMap::ranges_where), `pred` runs at most once
    /// per distinct label, however many spans repeat it.
    pub fn all_bytes<F>(&self, len: usize, pred: F) -> bool
    where
        F: Fn(Label) -> bool,
    {
        if len == 0 {
            return true;
        }
        let mut memo = LabelMemo::new();
        let mut pred = |l| memo.get(l, &pred);
        let mut cursor = 0usize;
        for s in self.spans.iter() {
            if s.start >= len {
                break;
            }
            if s.start > cursor {
                // An uncovered gap: the empty label must satisfy the predicate.
                if !pred(Label::EMPTY) {
                    return false;
                }
            }
            if !pred(s.label) {
                return false;
            }
            cursor = s.end;
        }
        if cursor < len && !pred(Label::EMPTY) {
            return false;
        }
        true
    }

    /// True if any byte in `0..len` has a label satisfying `pred`.
    pub fn any_byte<F>(&self, len: usize, pred: F) -> bool
    where
        F: Fn(Label) -> bool,
    {
        !self.all_bytes(len, |l| !pred(l))
    }

    /// Byte ranges (clipped to `0..len`) whose label satisfies `pred`.
    pub fn ranges_where<F>(&self, len: usize, pred: F) -> Vec<Range<usize>>
    where
        F: Fn(Label) -> bool,
    {
        let hi = self.spans.partition_point(|s| s.start < len);
        let mut memo = LabelMemo::new();
        self.spans[..hi]
            .iter()
            .filter(|s| memo.get(s.label, &pred))
            .map(|s| s.start..s.end.min(len))
            .collect()
    }

    /// Clamps all spans to `0..len` (used after truncation). O(log n):
    /// drops the spans past `len` and clips the one straddling it.
    pub fn clamp(&mut self, len: usize) {
        let hi = self.spans.partition_point(|s| s.start < len);
        self.spans.truncate(hi);
        if let Some(last) = self.spans.last_mut() {
            if last.end > len {
                last.end = len;
            }
        }
        debug_assert!(self.is_normalized());
    }

    /// The normalization laws: spans sorted, non-overlapping, non-empty,
    /// non-empty-labeled, and no two touching spans share a label.
    fn is_normalized(&self) -> bool {
        self.spans.windows(2).all(|w| {
            w[0].end <= w[1].start && !(w[0].end == w[1].start && w[0].label == w[1].label)
        }) && self
            .spans
            .iter()
            .all(|s| s.start < s.end && !s.label.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{SqlSanitized, UntrustedData};
    use std::sync::Arc;

    fn untrusted() -> PolicyRef {
        Arc::new(UntrustedData::new())
    }

    fn sanitized() -> PolicyRef {
        Arc::new(SqlSanitized::new())
    }

    #[test]
    fn add_and_lookup() {
        let mut m = SpanMap::new();
        m.add_policy(2..5, untrusted());
        assert!(m.at(1).is_empty());
        assert!(m.at(2).has::<UntrustedData>());
        assert!(m.at(4).has::<UntrustedData>());
        assert!(m.at(5).is_empty());
    }

    #[test]
    fn overlapping_adds_union() {
        let mut m = SpanMap::new();
        m.add_policy(0..6, untrusted());
        m.add_policy(3..9, sanitized());
        assert_eq!(m.at(1).len(), 1);
        assert_eq!(m.at(4).len(), 2);
        assert_eq!(m.at(7).len(), 1);
        assert!(m.at(7).has::<SqlSanitized>());
        assert_eq!(m.span_count(), 3);
    }

    #[test]
    fn coalescing_adjacent_equal_spans() {
        let mut m = SpanMap::new();
        m.add_policy(0..3, untrusted());
        m.add_policy(3..6, untrusted());
        assert_eq!(m.span_count(), 1, "adjacent equal spans coalesce");
        assert!(m.at(0).has::<UntrustedData>());
        assert!(m.at(5).has::<UntrustedData>());
    }

    #[test]
    fn remove_policy_splits() {
        let mut m = SpanMap::new();
        m.add_policy(0..10, untrusted());
        m.remove_type::<UntrustedData>(3..5);
        assert!(m.at(2).has::<UntrustedData>());
        assert!(m.at(3).is_empty());
        assert!(m.at(4).is_empty());
        assert!(m.at(5).has::<UntrustedData>());
        assert_eq!(m.span_count(), 2);
    }

    #[test]
    fn remove_specific_policy() {
        let mut m = SpanMap::new();
        m.add_policy(0..4, untrusted());
        m.add_policy(0..4, sanitized());
        m.remove_policy(0..4, &untrusted());
        assert!(!m.at(0).has::<UntrustedData>());
        assert!(m.at(0).has::<SqlSanitized>());
    }

    #[test]
    fn remove_policy_on_empty_map_is_noop() {
        // The early return: no interner traffic, no edit machinery.
        let mut m = SpanMap::new();
        m.remove_policy(0..10, &untrusted());
        assert!(m.is_empty());
        m.remove_policy(5..5, &untrusted());
        assert!(m.is_empty());
    }

    #[test]
    fn slice_rebases() {
        let mut m = SpanMap::new();
        m.add_policy(2..5, untrusted());
        let s = m.slice(3..8);
        assert!(s.at(0).has::<UntrustedData>());
        assert!(s.at(1).has::<UntrustedData>());
        assert!(s.at(2).is_empty());
    }

    #[test]
    fn slice_multi_span_with_gaps() {
        let mut m = SpanMap::new();
        m.add_policy(0..2, untrusted());
        m.add_policy(4..6, untrusted());
        m.add_policy(8..10, sanitized());
        let s = m.slice(1..9);
        let got: Vec<_> = s.iter().map(|(r, _)| r).collect();
        assert_eq!(got, vec![0..1, 3..5, 7..8]);
    }

    #[test]
    fn append_shifts() {
        let mut a = SpanMap::new();
        a.add_policy(0..3, untrusted());
        let mut b = SpanMap::new();
        b.add_policy(0..3, sanitized());
        a.append(&b, 3);
        assert!(a.at(1).has::<UntrustedData>());
        assert!(a.at(4).has::<SqlSanitized>());
        assert!(!a.at(4).has::<UntrustedData>());
    }

    #[test]
    fn append_coalesces_at_seam() {
        let mut a = SpanMap::new();
        a.add_policy(0..3, untrusted());
        let mut b = SpanMap::new();
        b.add_policy(0..3, untrusted());
        a.append(&b, 3);
        assert_eq!(a.span_count(), 1, "equal labels merge across the seam");
        a.append(&b, 7);
        assert_eq!(a.span_count(), 2, "gap at byte 6..7 keeps spans apart");
    }

    #[test]
    fn append_overlapping_offset_falls_back() {
        // Not reachable from concat, but the API tolerates it.
        let mut a = SpanMap::new();
        a.add_policy(0..6, untrusted());
        let mut b = SpanMap::new();
        b.add_policy(0..2, untrusted());
        a.append(&b, 2);
        assert!(a.at(3).has::<UntrustedData>());
        assert!(a.at(5).has::<UntrustedData>());
    }

    #[test]
    fn all_bytes_and_gaps() {
        let mut m = SpanMap::new();
        m.add_policy(0..3, untrusted());
        assert!(m.all_bytes(3, |l| l.has::<UntrustedData>()));
        assert!(
            !m.all_bytes(4, |l| l.has::<UntrustedData>()),
            "byte 3 uncovered"
        );
        m.add_policy(5..8, untrusted());
        assert!(!m.all_bytes(8, |l| l.has::<UntrustedData>()), "gap 3..5");
        assert!(m.any_byte(8, |l| l.has::<UntrustedData>()));
        assert!(!m.any_byte(8, |l| l.has::<SqlSanitized>()));
    }

    #[test]
    fn all_bytes_vacuous_on_empty() {
        let m = SpanMap::new();
        assert!(m.all_bytes(0, |_| false));
        assert!(!m.all_bytes(1, |l| !l.is_empty()));
    }

    #[test]
    fn ranges_where_reports_clipped() {
        let mut m = SpanMap::new();
        m.add_policy(2..5, untrusted());
        m.add_policy(7..12, untrusted());
        let r = m.ranges_where(10, |l| l.has::<UntrustedData>());
        assert_eq!(r, vec![2..5, 7..10]);
    }

    #[test]
    fn clamp_truncates() {
        let mut m = SpanMap::new();
        m.add_policy(0..10, untrusted());
        m.clamp(4);
        assert!(m.at(3).has::<UntrustedData>());
        assert!(m.at(4).is_empty());
    }

    #[test]
    fn clamp_drops_and_clips() {
        let mut m = SpanMap::new();
        m.add_policy(0..2, untrusted());
        m.add_policy(3..6, sanitized());
        m.add_policy(8..9, untrusted());
        m.clamp(4);
        let got: Vec<_> = m.iter().map(|(r, _)| r).collect();
        assert_eq!(got, vec![0..2, 3..4]);
        m.clamp(0);
        assert!(m.is_empty());
    }

    #[test]
    fn union_all_collects() {
        let mut m = SpanMap::new();
        m.add_policy(0..2, untrusted());
        m.add_policy(4..6, sanitized());
        let u = m.union_all();
        assert!(u.has::<UntrustedData>());
        assert!(u.has::<SqlSanitized>());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn union_all_skips_repeated_labels() {
        // A sliced map: the same label repeats across gaps and never
        // coalesces. The running union must still be correct (and cheap).
        let mut m = SpanMap::new();
        for i in 0..8 {
            m.add_policy(i * 3..i * 3 + 2, untrusted());
        }
        m.add_policy(30..32, sanitized());
        assert_eq!(m.span_count(), 9);
        let u = m.union_all();
        assert!(u.has::<UntrustedData>());
        assert!(u.has::<SqlSanitized>());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn empty_range_edit_is_noop() {
        let mut m = SpanMap::new();
        m.add_policy(3..3, untrusted());
        assert!(m.is_empty());
    }

    #[test]
    fn add_empty_label_is_noop() {
        let mut m = SpanMap::new();
        m.add_label(0..5, Label::EMPTY);
        assert!(m.is_empty());
    }

    #[test]
    fn inline_storage_spills_and_survives() {
        // Cross the 2-span inline boundary in both directions.
        let mut m = SpanMap::new();
        m.add_policy(0..1, untrusted());
        m.add_policy(2..3, sanitized());
        assert_eq!(m.span_count(), 2);
        m.add_policy(4..5, untrusted());
        m.add_policy(6..7, sanitized());
        assert_eq!(m.span_count(), 4);
        assert!(m.at(0).has::<UntrustedData>());
        assert!(m.at(6).has::<SqlSanitized>());
        m.remove_type::<UntrustedData>(0..7);
        let got: Vec<_> = m.iter().map(|(r, _)| r).collect();
        assert_eq!(got, vec![2..3, 6..7]);
    }

    #[test]
    fn edit_fills_gaps_between_spans() {
        let mut m = SpanMap::new();
        m.add_policy(1..2, untrusted());
        m.add_policy(4..5, untrusted());
        // Union a second policy over the whole window, covering the gaps.
        m.add_policy(0..6, sanitized());
        assert!(m.at(0).has::<SqlSanitized>());
        assert!(!m.at(0).has::<UntrustedData>());
        assert_eq!(m.at(1).len(), 2);
        assert!(m.at(3).has::<SqlSanitized>());
        assert_eq!(m.at(4).len(), 2);
        assert!(m.at(5).has::<SqlSanitized>());
    }

    /// `all_bytes`, `any_byte` and `ranges_where` as they were before
    /// `pred` was memoised per label: one call per span and per gap.
    mod unmemoised {
        use super::*;

        pub fn all_bytes(m: &SpanMap, len: usize, pred: impl Fn(Label) -> bool) -> bool {
            if len == 0 {
                return true;
            }
            let mut cursor = 0usize;
            for s in m.spans.iter() {
                if s.start >= len {
                    break;
                }
                if s.start > cursor {
                    // An uncovered gap: the empty label must satisfy the predicate.
                    if !pred(Label::EMPTY) {
                        return false;
                    }
                }
                if !pred(s.label) {
                    return false;
                }
                cursor = s.end;
            }
            if cursor < len && !pred(Label::EMPTY) {
                return false;
            }
            true
        }

        pub fn any_byte(m: &SpanMap, len: usize, pred: impl Fn(Label) -> bool) -> bool {
            !all_bytes(m, len, |l| !pred(l))
        }

        pub fn ranges_where(
            m: &SpanMap,
            len: usize,
            pred: impl Fn(Label) -> bool,
        ) -> Vec<Range<usize>> {
            let hi = m.spans.partition_point(|s| s.start < len);
            m.spans[..hi]
                .iter()
                .filter(|s| pred(s.label))
                .map(|s| s.start..s.end.min(len))
                .collect()
        }
    }

    proptest::proptest! {
        #[test]
        fn memoised_predicates_agree_with_unmemoised_and_ask_once_per_label(
            pieces in proptest::prop::collection::vec((0usize..3, (1usize..4, 0usize..3)), 0..16),
            cut in 0usize..8,
        ) {
            let labels = [
                Label::of(&untrusted()),
                Label::of(&sanitized()),
                Label::of(&untrusted()).union(Label::of(&sanitized())),
            ];
            let mut m = SpanMap::new();
            let mut end = 0;
            for (gap, (len, which)) in pieces {
                m.add_label(end + gap..end + gap + len, labels[which]);
                end += gap + len;
            }
            // Lengths on both sides of the last span, and zero.
            for len in [0, end.saturating_sub(cut), end, end + cut] {
                let preds: [&dyn Fn(Label) -> bool; 5] = [
                    &|l| l.has::<UntrustedData>(),
                    &|l| l.has::<UntrustedData>() && !l.has::<SqlSanitized>(),
                    &|l| l.is_empty(),
                    &|_| true,
                    &|_| false,
                ];
                for pred in preds {
                    let calls = std::cell::Cell::new(0usize);
                    let counted = |l| {
                        calls.set(calls.get() + 1);
                        pred(l)
                    };
                    proptest::prop_assert_eq!(
                        m.all_bytes(len, counted),
                        unmemoised::all_bytes(&m, len, pred)
                    );
                    proptest::prop_assert_eq!(
                        m.any_byte(len, counted),
                        unmemoised::any_byte(&m, len, pred)
                    );
                    proptest::prop_assert_eq!(
                        m.ranges_where(len, counted),
                        unmemoised::ranges_where(&m, len, pred)
                    );
                    // Three labels and the empty one, three passes.
                    proptest::prop_assert!(calls.get() <= 3 * (labels.len() + 1));
                }
            }
        }
    }

    #[test]
    fn append_range_with_clips_rebases_and_relabels_gaps() {
        let (u, s) = (Label::of(&untrusted()), Label::of(&sanitized()));
        let mut src = SpanMap::new();
        src.add_label(2..5, u);
        src.add_label(7..9, u);
        let mut out = SpanMap::new();
        out.append_range_with(&src, 3..8, 10, |l| l);
        let got: Vec<_> = out.iter().collect();
        assert_eq!(got, vec![(10..12, u), (14..15, u)]);
        // Relabelling sees the gap (5..7) and the uncovered head and tail.
        let mut out = SpanMap::new();
        out.append_range_with(&src, 0..10, 0, |l| l.union(s));
        let got: Vec<_> = out.iter().collect();
        let us = u.union(s);
        assert_eq!(
            got,
            vec![(0..2, s), (2..5, us), (5..7, s), (7..9, us), (9..10, s)]
        );
        // An empty range appends nothing.
        let mut out = SpanMap::new();
        out.append_range_with(&src, 4..4, 0, |l| l.union(s));
        assert!(out.is_empty());
    }
}
