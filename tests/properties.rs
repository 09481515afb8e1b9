//! Property-based tests on the core data-tracking invariants.

use std::sync::Arc;

use proptest::prelude::*;
use resin::core::prelude::*;

fn untrusted(s: &str) -> TaintedString {
    TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
}

proptest! {
    /// Concatenation is associative on both text and policy spans.
    #[test]
    fn concat_associative(a in "[a-z]{0,12}", b in "[A-Z]{0,12}", c in "[0-9]{0,12}") {
        let (ta, tb, tc) = (untrusted(&a), TaintedString::from(b.as_str()), untrusted(&c));
        let left = ta.concat(&tb).concat(&tc);
        let right = ta.concat(&tb.concat(&tc));
        prop_assert!(left.taint_eq(&right));
    }

    /// Slicing a concatenation recovers each operand's exact taint.
    #[test]
    fn concat_then_slice_recovers_operands(a in "[a-z]{1,16}", b in "[a-z]{1,16}") {
        let ta = untrusted(&a);
        let tb = TaintedString::from(b.as_str());
        let joined = ta.concat(&tb);
        prop_assert!(joined.slice(0..a.len()).taint_eq(&ta));
        prop_assert!(joined.slice(a.len()..a.len() + b.len()).taint_eq(&tb));
    }

    /// Splitting and rejoining on a separator preserves the byte count of
    /// tainted bytes (no taint is invented or lost for separator-free data).
    #[test]
    fn split_join_preserves_taint(parts in prop::collection::vec("[a-z]{1,8}", 1..6)) {
        let tainted: Vec<TaintedString> = parts.iter().map(|p| untrusted(p)).collect();
        let joined = TaintedString::join(",", tainted.iter());
        let split = joined.split(",");
        prop_assert_eq!(split.len(), tainted.len());
        for (s, t) in split.iter().zip(&tainted) {
            prop_assert!(s.taint_eq(t));
        }
    }

    /// Policy serialization round-trips for arbitrary field content.
    #[test]
    fn policy_serialization_roundtrip(email in "[ -~]{0,24}") {
        let p: PolicyRef = Arc::new(PasswordPolicy::new(email.clone()));
        let s = serialize_policy(&p);
        let q = deserialize_policy(&s).unwrap();
        let q = downcast_policy::<PasswordPolicy>(&q).unwrap();
        prop_assert_eq!(q.email(), email.as_str());
    }

    /// Span serialization round-trips for arbitrary range layouts.
    #[test]
    fn span_serialization_roundtrip(
        text in "[a-z]{1,40}",
        ranges in prop::collection::vec((0usize..40, 0usize..40), 0..4),
    ) {
        let mut data = TaintedString::from(text.as_str());
        for (a, b) in ranges {
            let (lo, hi) = (a.min(b), a.max(b));
            data.add_policy_range(lo..hi, Arc::new(UntrustedData::new()));
        }
        let spans = serialize_spans(&data);
        let back = deserialize_spans(data.as_str(), &spans).unwrap();
        prop_assert!(back.taint_eq(&data));
    }

    /// ACL encode/decode round-trips.
    #[test]
    fn acl_roundtrip(users in prop::collection::vec("[a-z]{1,8}", 0..5)) {
        let mut acl = Acl::new();
        for (i, u) in users.iter().enumerate() {
            let rights: &[Right] = match i % 3 {
                0 => &[Right::Read],
                1 => &[Right::Read, Right::Write],
                _ => &[Right::Write, Right::Admin],
            };
            acl.add(u.clone(), rights);
        }
        let decoded = Acl::decode(&acl.encode()).unwrap();
        prop_assert_eq!(decoded, acl);
    }

    /// Merging is commutative for the stock policies (union + intersection
    /// strategies). Since labels are canonical, commutativity is handle
    /// equality.
    #[test]
    fn merge_commutative(has_u1 in any::<bool>(), has_a1 in any::<bool>(),
                         has_u2 in any::<bool>(), has_a2 in any::<bool>()) {
        let mk = |u: bool, a: bool| {
            let mut l = Label::EMPTY;
            if u { l = l.union(Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef))); }
            if a { l = l.union(Label::of(&(Arc::new(AuthenticData::new()) as PolicyRef))); }
            l
        };
        let l1 = mk(has_u1, has_a1);
        let l2 = mk(has_u2, has_a2);
        let m12 = merge_sets(l1, l2).unwrap();
        let m21 = merge_sets(l2, l1).unwrap();
        prop_assert_eq!(m12, m21);
        // Union strategy: untrusted iff either side was.
        prop_assert_eq!(m12.has::<UntrustedData>(), has_u1 || has_u2);
        // Intersection strategy: authentic iff both sides were.
        prop_assert_eq!(m12.has::<AuthenticData>(), has_a1 && has_a2);
    }

    /// Label union is idempotent, commutative, and associative, and label
    /// equality holds exactly when the underlying policy sets are equal —
    /// for arbitrary subsets of a pool of distinct policies.
    #[test]
    fn label_union_laws(picks_a in prop::collection::vec(0usize..6, 0..6),
                        picks_b in prop::collection::vec(0usize..6, 0..6),
                        picks_c in prop::collection::vec(0usize..6, 0..6)) {
        let pool: Vec<PolicyRef> = vec![
            Arc::new(UntrustedData::new()),
            Arc::new(UntrustedData::from_source("whois")),
            Arc::new(AuthenticData::new()),
            Arc::new(SqlSanitized::new()),
            Arc::new(HtmlSanitized::new()),
            Arc::new(PasswordPolicy::new("law@x")),
        ];
        let mk = |picks: &[usize]| {
            let mut l = Label::EMPTY;
            for &i in picks { l = l.union(Label::of(&pool[i])); }
            l
        };
        let (a, b, c) = (mk(&picks_a), mk(&picks_b), mk(&picks_c));
        // Idempotent / identity.
        prop_assert_eq!(a.union(a), a);
        prop_assert_eq!(a.union(Label::EMPTY), a);
        // Commutative / associative.
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.union(b).union(c), a.union(b.union(c)));
        // Label equality ⇔ policy-set equality.
        let set_of = |l: Label| {
            let mut ids: Vec<_> = l.ids().to_vec();
            ids.sort();
            ids
        };
        prop_assert_eq!(a == b, set_of(a) == set_of(b));
        // Membership after union.
        for &i in picks_a.iter().chain(&picks_b) {
            prop_assert!(a.union(b).contains_policy(&pool[i]) ||
                         !(picks_a.contains(&i) || picks_b.contains(&i)));
        }
    }

    /// The interner round-trips through the persistent-policy serializer:
    /// deserializing a serialized label yields the *same handle*.
    #[test]
    fn label_serializer_roundtrip(picks in prop::collection::vec(0usize..6, 0..6)) {
        let pool: Vec<PolicyRef> = vec![
            Arc::new(UntrustedData::new()),
            Arc::new(UntrustedData::from_source("upload")),
            Arc::new(AuthenticData::new()),
            Arc::new(SqlSanitized::new()),
            Arc::new(HtmlSanitized::new()),
            Arc::new(PasswordPolicy::new("rt@x")),
        ];
        let mut label = Label::EMPTY;
        for &i in &picks { label = label.union(Label::of(&pool[i])); }
        let s = serialize_label(label);
        let back = deserialize_label(&s).unwrap();
        prop_assert_eq!(back, label);
    }

    /// Interned span serialization round-trips arbitrary taint layouts and
    /// persists each distinct policy body exactly once.
    #[test]
    fn interned_spans_dedup_table(
        text in "[a-z]{8,32}",
        ranges in prop::collection::vec((0usize..32, 0usize..32), 1..5),
    ) {
        let mut data = TaintedString::from(text.as_str());
        for (a, b) in ranges {
            let (lo, hi) = (a.min(b), a.max(b));
            data.add_policy_range(lo..hi, Arc::new(UntrustedData::new()));
        }
        let spans = serialize_spans(&data);
        let back = deserialize_spans(data.as_str(), &spans).unwrap();
        prop_assert!(back.taint_eq(&data));
        prop_assert!(spans.matches("UntrustedData").count() <= 1,
                     "policy body persisted at most once: {}", spans);
    }

    /// SQL: a stored tainted cell always comes back with its policy, for
    /// arbitrary (quote-free) content.
    #[test]
    fn sql_roundtrip_keeps_policy(value in "[a-zA-Z0-9 ]{0,24}") {
        let db = resin::sql::ResinDb::new();
        db.query_str("CREATE TABLE t (v TEXT)").unwrap();
        let mut q = TaintedString::from("INSERT INTO t VALUES ('");
        q.push_tainted(&untrusted(&value));
        q.push_str("')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT v FROM t").unwrap();
        let cell = r.cell(0, "v").unwrap().as_text().unwrap().clone();
        prop_assert_eq!(cell.as_str(), value.as_str());
        prop_assert_eq!(cell.has_policy::<UntrustedData>(), !value.is_empty());
    }

    /// VFS: write/read round-trips arbitrary taint layouts through xattrs.
    #[test]
    fn vfs_roundtrip_keeps_spans(
        text in "[a-z]{1,32}",
        cut in 0usize..32,
    ) {
        let mut data = TaintedString::from(text.as_str());
        data.add_policy_range(0..cut.min(text.len()), Arc::new(UntrustedData::new()));
        let mut fs = resin::vfs::Vfs::new();
        let ctx = resin::vfs::Vfs::anonymous_ctx();
        fs.mkdir_p("/d", &ctx).unwrap();
        fs.write_file("/d/f", &data, &ctx).unwrap();
        let back = fs.read_file("/d/f", &ctx).unwrap();
        prop_assert!(back.taint_eq(&data));
    }

    /// Appending in place is observationally the left-fold of `concat`:
    /// same text, same spans, for arbitrary fragment sequences (untainted,
    /// fully tainted, partially tainted, doubly labeled, empty).
    #[test]
    fn builder_equals_fold_concat(frags in prop::collection::vec(("[a-z]{0,8}", 0usize..4), 0..12)) {
        let parts: Vec<TaintedString> = frags.iter().map(|(text, mode)| mk_fragment(text, *mode)).collect();

        let mut built = TaintedString::new();
        for p in &parts {
            built.push_tainted(p);
        }

        let mut folded = TaintedString::new();
        for p in &parts {
            folded = folded.concat(p);
        }
        prop_assert!(built.taint_eq(&folded));
    }

    /// Every append keeps the span normalization laws (spans sorted,
    /// non-overlapping, non-empty, non-empty-labeled, and no two touching
    /// spans share a label) and gives each byte the label a plain
    /// per-byte model gives it, checked after each step of a sequence
    /// drawn from `push_str`, `push_tainted`, `push_range`, `push_label`
    /// and `push_label_with`.
    #[test]
    fn append_preserves_normalization_laws(
        steps in prop::collection::vec(
            ((0usize..5, "[a-zé]{0,8}"), (0usize..4, (0usize..16, 0usize..16))),
            0..12,
        ),
    ) {
        let u = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef));
        let h = Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef));
        let labels = [Label::EMPTY, u, h, u.union(h)];
        let mut built = TaintedString::new();
        let mut model: Vec<Label> = Vec::new();
        for ((op, text), (mode, cuts)) in &steps {
            let src = mk_fragment(text, *mode);
            let src_labels: Vec<Label> = (0..src.len()).map(|i| src.label_at(i)).collect();
            match op {
                0 => {
                    built.push_str(text);
                    model.extend(text.bytes().map(|_| Label::EMPTY));
                }
                1 => {
                    built.push_tainted(&src);
                    model.extend(&src_labels);
                }
                2 => {
                    // Two char boundaries of the source, in order.
                    let bounds: Vec<usize> =
                        (0..=src.len()).filter(|&i| text.is_char_boundary(i)).collect();
                    let (a, b) = (bounds[cuts.0 % bounds.len()], bounds[cuts.1 % bounds.len()]);
                    built.push_range(&src, a.min(b)..a.max(b));
                    model.extend(&src_labels[a.min(b)..a.max(b)]);
                }
                3 => {
                    built.push_label(text, labels[*mode]);
                    model.extend(text.bytes().map(|_| labels[*mode]));
                }
                _ => {
                    let mid = text.floor_char_boundary(cuts.0 % (text.len() + 1));
                    built.push_label_with(labels[*mode], |tail| {
                        tail.push_str(&text[..mid]);
                        tail.push_str(&text[mid..]);
                    });
                    model.extend(text.bytes().map(|_| labels[*mode]));
                }
            }

            prop_assert_eq!(built.len(), model.len());
            for (i, &want) in model.iter().enumerate() {
                prop_assert!(built.label_at(i) == want, "byte {i}: {:?} != {want:?}", built.label_at(i));
            }
            let spans: Vec<_> = built.spans().collect();
            for (r, l) in &spans {
                prop_assert!(r.start < r.end, "no empty span: {r:?}");
                prop_assert!(!l.is_empty(), "no empty label");
                prop_assert!(r.end <= built.len(), "span in bounds");
            }
            for w in spans.windows(2) {
                let ((a, la), (b, lb)) = (&w[0], &w[1]);
                prop_assert!(a.end <= b.start, "sorted, non-overlapping: {a:?} vs {b:?}");
                prop_assert!(
                    !(a.end == b.start && la == lb),
                    "touching equal-label spans must coalesce: {a:?} {b:?}"
                );
            }
        }
    }
}

/// A fragment in one of four taint shapes, keyed by `mode`.
fn mk_fragment(text: &str, mode: usize) -> TaintedString {
    match mode {
        0 => TaintedString::from(text),
        1 => untrusted(text),
        2 => {
            // Taint only the first half.
            let mut t = TaintedString::from(text);
            t.add_policy_range(0..text.len() / 2, Arc::new(UntrustedData::new()));
            t
        }
        _ => {
            // Two policies with offset overlapping ranges.
            let mut t = untrusted(text);
            t.add_policy_range(text.len() / 3..text.len(), Arc::new(HtmlSanitized::new()));
            t
        }
    }
}
