//! HTML escaping, sanitizer evidence, and the cross-site-scripting guard
//! (§5.3).
//!
//! Two strategies, mirroring the SQL-injection pair:
//!
//! * **Marker check** — the sanitizer attaches [`HtmlSanitized`] to the
//!   data it escapes; [`check_html_markers`] rejects output containing
//!   `UntrustedData` bytes without the marker.
//! * **Structure check** — [`check_html_structure`] parses the final HTML
//!   and rejects untrusted bytes in markup structure (inside tags) or in
//!   JavaScript (`<script>` bodies, `on*` attributes arrive inside tags so
//!   the tag rule covers them).

use std::cell::RefCell;
use std::ops::Range;
use std::sync::LazyLock;

use resin_core::{
    HtmlSanitized, Label, PolicyViolation, Reason, Result, TaintedString, TextTail, UntrustedData,
};

/// Input bytes the kernel escapes into its block at a time. Each turn
/// costs a call, a tail of up to fifteen bytes through the table loop, a
/// `from_utf8` and a copy: at 256 bytes a turn a 1 KiB escape ran about
/// 12 % slower, and forum bodies of 64 B to 4 KiB about 25 % slower; at
/// 4 KiB a turn, no faster than at 1 KiB.
const BLOCK_BYTES: usize = 1024;

/// The kernel's output block: eight bytes per input byte. A byte's
/// output is at most seven, and its entry's store writes eight.
const BLOCK_LEN: usize = 8 * BLOCK_BYTES;

/// The bytes at or above its `below` bound a table may replace, at
/// most: the SSE2 body compares each block of sixteen with this many, one
/// byte at a time. HTML replaces five; JSON four, and repeats one.
const EQUAL: usize = 5;

thread_local! {
    /// The one buffer the kernel keeps, sized at a thread's first escape
    /// to [`BLOCK_LEN`] whatever the input's. On the heap: held in the
    /// thread's TLS as an array, it moved every other thread-local's page
    /// offset, and `hotcrp_page` and `rsl_page`, which never escape, read
    /// about 3 % slower than with the block here.
    static BLOCK: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };

    /// The entries the SSE2 body has read on this thread.
    #[cfg(test)]
    static ENTRY_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What an encoder does to each byte, as one table derived once from its
/// replacement function, so the two cannot disagree. Entry `b` is `b`'s
/// output (its replacement, or `b` itself) in the low seven bytes, and
/// that output's length in the top one. Only ASCII bytes may be replaced,
/// so a character is either copied whole or is one ASCII byte, and the
/// escape of text that is whole characters is valid UTF-8.
///
/// Beside the table, the same set of replaced bytes as a test a block of
/// sixteen can take at once: every byte below `below` (unsigned), and
/// the `equal` bytes. [`EscapeTable::new`] derives it from the same
/// function and asserts that the two agree on every byte.
pub(crate) struct EscapeTable {
    entries: [u64; 256],
    equal: [u8; EQUAL],
    below: u8,
    #[cfg(test)]
    replacement: fn(u8) -> Option<&'static str>,
    /// Escape by the table loop alone, as a target without SSE2 does.
    #[cfg(test)]
    portable: bool,
}

impl EscapeTable {
    pub(crate) fn new(replacement: fn(u8) -> Option<&'static str>) -> EscapeTable {
        let mut entries = [0; 256];
        for b in 0..=u8::MAX {
            let rep = replacement(b);
            assert!(
                b.is_ascii() || rep.is_none(),
                "non-ASCII byte {b:#04x} replaced"
            );
            let bytes = rep.map_or(std::slice::from_ref(&b), str::as_bytes);
            let mut entry = [0; 8];
            entry[..bytes.len()].copy_from_slice(bytes);
            entry[7] = u8::try_from(bytes.len())
                .ok()
                .filter(|&n| n < 8)
                .expect("a replacement is at most seven bytes");
            entries[usize::from(b)] = u64::from_le_bytes(entry);
        }
        // The replaced bytes from 0 up make the bound; the rest are
        // compared one by one.
        let below = (0..=u8::MAX)
            .take_while(|&b| replacement(b).is_some())
            .count();
        let below = u8::try_from(below).expect("only ASCII bytes are replaced");
        let equal: Vec<u8> = (below..=u8::MAX)
            .filter(|&b| replacement(b).is_some())
            .collect();
        let n = equal.len();
        assert!((1..=EQUAL).contains(&n), "{n} bytes to compare");
        let table = EscapeTable {
            entries,
            equal: std::array::from_fn(|i| equal[i.min(n - 1)]),
            below,
            #[cfg(test)]
            replacement,
            #[cfg(test)]
            portable: false,
        };
        // The block test for one byte, as each lane of the SSE2 body
        // computes it.
        for b in 0..=u8::MAX {
            assert_eq!(
                b < table.below || table.equal.contains(&b),
                replacement(b).is_some(),
                "the block test and the table disagree on {b:#04x}"
            );
        }
        table
    }

    /// True when the table replaces `b`.
    #[cfg(test)]
    fn replaces(&self, b: u8) -> bool {
        (self.replacement)(b).is_some()
    }

    /// Appends `text` escaped, at most [`BLOCK_BYTES`] input bytes at a
    /// time, each turn ending on a character boundary, through
    /// [`EscapeTable::escape_block`] into the per-thread block. A turn's
    /// output is valid UTF-8 (see [`EscapeTable`]), which `from_utf8`
    /// confirms before it is appended.
    fn escape_into(&self, out: &mut TextTail<'_>, text: &str) {
        BLOCK.with_borrow_mut(|block| {
            block.resize(BLOCK_LEN, 0);
            let mut rest = text;
            while !rest.is_empty() {
                let (input, tail) = rest.split_at(rest.floor_char_boundary(BLOCK_BYTES));
                let len = self.escape_block(input.as_bytes(), block);
                out.push_str(std::str::from_utf8(&block[..len]).expect("escaped text is UTF-8"));
                rest = tail;
            }
        });
    }

    /// The table loop: writes `input` escaped at the start of `out` and
    /// returns the output's length. Per byte it loads the byte's entry,
    /// stores all eight of its bytes at the output offset, and moves the
    /// offset by the length: no branch on the byte. The next entry's store
    /// covers the length byte.
    fn escape_table(&self, input: &[u8], out: &mut [u8]) -> usize {
        let mut len = 0usize;
        for &b in input {
            let entry = self.entries[usize::from(b)];
            out[len..len + 8].copy_from_slice(&entry.to_le_bytes());
            len += (entry >> 56) as usize;
        }
        len
    }

    /// Writes `input` escaped at the start of `out`, which holds eight
    /// bytes per input byte, and returns the output's length.
    ///
    /// The SSE2 body: sixty-four input bytes a step, four blocks of
    /// sixteen each loaded once and tested in one go against the table's
    /// replaced bytes, into one mask (the last blocks go one a step). Each
    /// replaced byte the mask holds writes the clean run before it, with
    /// one fixed-size 64-byte copy when the run fits and a copy of its
    /// length when not, and then its entry. So a clean block costs its
    /// test and its share of a copy, and the table is read only at a
    /// replaced byte. The last fifteen
    /// bytes or fewer go through the table loop. SSE2 is part of the
    /// x86_64 baseline, so this is a property of the target and not a
    /// switch, as for `LIKE`'s filter. The only code in the crate allowed
    /// `unsafe`: its call into the `#[target_feature]` code, and its load,
    /// whose bound each loop condition proves. Its copies are slices.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[allow(unsafe_code)]
    fn escape_block(&self, input: &[u8], out: &mut [u8]) -> usize {
        #[cfg(test)]
        if self.portable {
            return self.escape_table(input, out);
        }
        use std::arch::x86_64::{
            __m128i, _mm_andnot_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_max_epu8,
            _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
        };
        #[target_feature(enable = "sse2")]
        fn body(table: &EscapeTable, input: &[u8], out: &mut [u8]) -> usize {
            let splat = |b: u8| _mm_set1_epi8(b as i8);
            let (below, ones) = (splat(table.below), splat(u8::MAX));
            let equal = table.equal.map(splat);
            // Bit `k` is set when byte `k` is replaced: below the bound
            // (the unsigned max of the two is the bound, not the byte), or
            // equal to one of the table's bytes.
            let replaced = |bytes: __m128i| {
                let at_least = _mm_cmpeq_epi8(_mm_max_epu8(bytes, below), bytes);
                let hits = equal
                    .iter()
                    .fold(_mm_andnot_si128(at_least, ones), |hits, &e| {
                        _mm_or_si128(hits, _mm_cmpeq_epi8(bytes, e))
                    });
                _mm_movemask_epi8(hits) as u32
            };
            let load = |at: usize| {
                debug_assert!(at + 16 <= input.len(), "load at {at} of {}", input.len());
                // SAFETY: `at + 16 <= input.len()`: each caller's loop
                // condition.
                unsafe { _mm_loadu_si128(input.as_ptr().add(at).cast::<__m128i>()) }
            };
            let n = input.len();
            // `src` is the first input byte not yet written, `len` the
            // output's length so far.
            let (mut src, mut len, mut at) = (0usize, 0usize, 0usize);
            while at + 16 <= n {
                // Bit `k` of `hits` is set when byte `at + k` is replaced:
                // sixteen bytes a step at the end, sixty-four before it.
                let (mut hits, step) = if at + 64 <= n {
                    let bits = |k: usize| u64::from(replaced(load(at + k)));
                    (
                        bits(0) | bits(16) << 16 | bits(32) << 32 | bits(48) << 48,
                        64,
                    )
                } else {
                    (u64::from(replaced(load(at))), 16)
                };
                // Each replaced byte: the clean run before it, then its
                // entry.
                while hits != 0 {
                    let p = at + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let run = p - src;
                    if run <= 64 && src + 64 <= n {
                        // One fixed-size copy, four stores.
                        out[len..len + 64].copy_from_slice(&input[src..src + 64]);
                    } else {
                        out[len..len + run].copy_from_slice(&input[src..p]);
                    }
                    len += run;
                    let entry = table.entries[usize::from(input[p])];
                    #[cfg(test)]
                    ENTRY_READS.set(ENTRY_READS.get() + 1);
                    out[len..len + 8].copy_from_slice(&entry.to_le_bytes());
                    len += (entry >> 56) as usize;
                    src = p + 1;
                }
                at += step;
            }
            let run = at - src;
            out[len..len + run].copy_from_slice(&input[src..at]);
            len += run;
            len + table.escape_table(&input[at..], &mut out[len..])
        }
        // SAFETY: `body` requires SSE2, and this call is compiled only for
        // targets that have it: see the `cfg` above.
        unsafe { body(self, input, out) }
    }

    /// The body on a target without SSE2: the table loop alone.
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    fn escape_block(&self, input: &[u8], out: &mut [u8]) -> usize {
        self.escape_table(input, out)
    }
}

/// The escaper shared by the HTML and JSON encoders. It walks the
/// source's spans and the gaps between them, and each becomes one output
/// span: its text escaped, its label the source label ∪ `marker`
/// ([`Label::EMPTY`] for none). So every output byte, copied or
/// replacement, carries the label of the source byte it stands for plus
/// the marker. A replacement is a function of the byte it replaces, so it
/// keeps that byte's policies, as `decode_literal`'s collapsed quote does.
/// Spans lie on character boundaries, as every `TaintedString` keeps
/// them, and so each span's escaped text is valid UTF-8 by itself.
pub(crate) fn escape_bytes(
    input: &TaintedString,
    table: &EscapeTable,
    marker: Label,
) -> TaintedString {
    let text = input.as_str();
    // Room for a replacement every eight bytes or so; `forum_search`'s
    // bodies hold one every twenty. A denser input grows the buffer.
    let mut out = TaintedString::with_capacity(text.len() + text.len() / 2);
    let mut emit = |range: Range<usize>, label: Label| {
        out.push_label_with(label.union(marker), |tail| {
            table.escape_into(tail, &text[range])
        });
    };
    let mut cursor = 0usize;
    for (range, label) in input.spans() {
        if cursor < range.start {
            emit(cursor..range.start, Label::EMPTY);
        }
        cursor = range.end;
        emit(range, label);
    }
    if cursor < text.len() {
        emit(cursor..text.len(), Label::EMPTY);
    }
    out
}

static HTML_ESCAPES: LazyLock<EscapeTable> = LazyLock::new(|| {
    EscapeTable::new(|b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        b'\'' => Some("&#39;"),
        _ => None,
    })
});

/// Escapes HTML metacharacters and attaches the [`HtmlSanitized`] marker
/// to every byte of the result. An entity keeps the policies of the byte
/// it replaces.
///
/// This is "the existing sanitization function" of §5.3 step 3: it both
/// neutralizes the data *and* records the evidence that it did.
pub fn html_escape(input: &TaintedString) -> TaintedString {
    let marker = Label::of_static("", HtmlSanitized::new);
    escape_bytes(input, &HTML_ESCAPES, marker)
}

/// Strategy 1: every untrusted byte must carry the sanitizer's marker.
pub fn check_html_markers(output: &TaintedString) -> Result<()> {
    let bad = output.ranges_where(|l| l.has::<UntrustedData>() && !l.has::<HtmlSanitized>());
    if let Some(r) = bad.first() {
        return Err(PolicyViolation::at("XssGuard", Reason::Unsanitized, r.clone()).into());
    }
    Ok(())
}

/// Strategy 2: untrusted bytes may not appear in markup structure or
/// JavaScript.
///
/// The scanner walks the HTML byte-by-byte tracking whether it is inside a
/// tag (`<...>`) or inside a `<script>` element; untrusted bytes in either
/// region reject the output. Untrusted *text content* between tags is
/// allowed — it renders as text, not code.
pub fn check_html_structure(output: &TaintedString) -> Result<()> {
    let bytes = output.as_str().as_bytes();
    // Resolve the untrusted ranges once instead of a label-table hit per
    // byte. They are sorted and disjoint, and `i` only grows, so a cursor
    // walks them: an escaped page holds about one per escaped fragment.
    let untrusted = output.ranges_with::<UntrustedData>();
    let mut ahead = untrusted.iter().peekable();
    let opens = |at: &[u8], tag: &[u8]| {
        at.get(..tag.len())
            .is_some_and(|t| t.eq_ignore_ascii_case(tag))
    };
    let mut in_tag = false;
    let mut in_script = false;
    for (i, &c) in bytes.iter().enumerate() {
        if !in_tag && c == b'<' {
            in_tag = true;
            if opens(&bytes[i..], b"<script") {
                in_script = true;
            }
            if opens(&bytes[i..], b"</script") {
                in_script = false;
            }
        }
        let structural = in_tag || in_script || c == b'<' || c == b'>';
        if structural {
            while ahead.next_if(|r| r.end <= i).is_some() {}
            if ahead.peek().is_some_and(|r| r.start <= i) {
                return Err(PolicyViolation::at("XssGuard", Reason::InStructure, i..i + 1).into());
            }
        }
        if in_tag && c == b'>' {
            in_tag = false;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use resin_core::{PasswordPolicy, PolicyRef};
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn escape_neutralizes_and_marks() {
        let e = html_escape(&untrusted("<script>alert('x')</script>"));
        assert_eq!(
            e.as_str(),
            "&lt;script&gt;alert(&#39;x&#39;)&lt;/script&gt;"
        );
        assert!(e.has_policy::<HtmlSanitized>());
        assert!(
            e.has_policy::<UntrustedData>(),
            "taint retained as evidence"
        );
    }

    #[test]
    fn marker_check_blocks_raw_untrusted() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&untrusted("<script>evil()</script>"));
        page.push_str("</p>");
        assert!(check_html_markers(&page).is_err());
    }

    #[test]
    fn marker_check_allows_sanitized() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&html_escape(&untrusted("<script>evil()</script>")));
        page.push_str("</p>");
        assert!(check_html_markers(&page).is_ok());
    }

    #[test]
    fn a_marker_denial_names_the_bytes_not_the_payload() {
        // What an operator reads about a refused page must not replay the
        // attacker's bytes (into a log, or a page that shows errors).
        let payload = "<script>zq-payload-7()</script>";
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&untrusted(payload));
        page.push_str("</p>");
        let Err(resin_core::FlowError::Denied(v)) = check_html_markers(&page) else {
            panic!("expected a denial");
        };
        assert_eq!(v.policy, "XssGuard");
        assert_eq!(
            (v.reason.clone(), v.at.clone()),
            (Reason::Unsanitized, Some(3..3 + payload.len()))
        );
        let shown = format!("{v} {v:?}");
        assert!(!shown.contains("zq-payload"), "{shown}");
        assert!(!shown.contains("<script>"), "{shown}");
    }

    #[test]
    fn structure_check_blocks_script_injection() {
        let mut page = TaintedString::from("<p>hello ");
        page.push_tainted(&untrusted("<script>steal()</script>"));
        page.push_str("</p>");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn structure_check_allows_untrusted_text() {
        let mut page = TaintedString::from("<p>");
        page.push_tainted(&untrusted("just some text with no markup"));
        page.push_str("</p>");
        assert!(check_html_structure(&page).is_ok());
    }

    #[test]
    fn structure_check_blocks_attribute_injection() {
        // Untrusted bytes inside a tag (attribute position).
        let mut page = TaintedString::from("<img src=\"");
        page.push_tainted(&untrusted("x\" onerror=\"evil()"));
        page.push_str("\">");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn structure_check_blocks_untrusted_inside_script_body() {
        let mut page = TaintedString::from("<script>var q = \"");
        page.push_tainted(&untrusted("\";steal();//"));
        page.push_str("\";</script>");
        assert!(check_html_structure(&page).is_err());
    }

    #[test]
    fn trusted_markup_passes_both() {
        let page = TaintedString::from("<html><script>app()</script></html>");
        assert!(check_html_markers(&page).is_ok());
        assert!(check_html_structure(&page).is_ok());
    }

    /// `escape_bytes` as it was before replacements took their source
    /// byte's label: a `TaintedString` sliced out per clean stretch and
    /// pushed, each replacement pushed as server text. The text oracle,
    /// and for labels the old layout the new one must cover.
    fn escape_sliced(
        input: &TaintedString,
        table: fn(u8) -> Option<&'static str>,
    ) -> TaintedString {
        let text = input.as_str();
        let mut out = TaintedString::with_capacity(text.len() + 8);
        let mut start = 0usize;
        for (i, b) in text.bytes().enumerate() {
            let Some(rep) = table(b) else { continue };
            out.push_tainted(&input.slice(start..i));
            out.push_str(rep);
            start = i + 1;
        }
        out.push_tainted(&input.slice(start..text.len()));
        out
    }

    /// The label rule one character at a time: each output byte carries
    /// its source byte's label ∪ `marker`.
    fn escape_bytewise(
        input: &TaintedString,
        table: fn(u8) -> Option<&'static str>,
        marker: Label,
    ) -> TaintedString {
        let mut out = TaintedString::new();
        for (i, c) in input.as_str().char_indices() {
            let mut buf = [0u8; 4];
            let rep = u8::try_from(c).ok().and_then(table);
            let label = input.label_at(i).union(marker);
            out.push_label(rep.unwrap_or_else(|| c.encode_utf8(&mut buf)), label);
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn run_scanner_agrees_with_slice_and_push(
            pieces in proptest::prop::collection::vec(
                ("[ab <>&\"'\\\n\u{1}é✓]{0,6}", 0usize..4),
                0..12,
            ),
        ) {
            let labels = [
                Label::EMPTY,
                Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
                Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef)),
            ];
            let mut input = TaintedString::new();
            for (text, which) in &pieces {
                // 3 is a second untainted stretch, so gaps abut gaps.
                input.push_label(text, labels[which % 3]);
            }
            let marker = Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef));

            let mut old = escape_sliced(&input, HTML_ESCAPES.replacement);
            old.add_policy(Arc::new(HtmlSanitized::new()));
            let got = html_escape(&input);
            let want = escape_bytewise(&input, HTML_ESCAPES.replacement, marker);
            proptest::prop_assert_eq!(got.as_str(), old.as_str());
            proptest::prop_assert!(got.taint_eq(&want), "html: {got:?} != {want:?}");
            // Labels only grew: every byte keeps what the old layout gave it.
            for i in 0..got.len() {
                let (new, was) = (got.label_at(i), old.label_at(i));
                proptest::prop_assert!(new.union(was) == new, "byte {i}");
            }
            proptest::prop_assert!(got.is_empty() || got.all_bytes_have::<HtmlSanitized>());

            // The verdicts. The marker check's are equal. The structure
            // check may only get stricter, and only where the old layout
            // dropped every untrusted byte: untrusted input made entirely
            // of metacharacters, escaped inside a tag or a script.
            let verdict = |r: Result<()>| r.map_err(|e| e.to_string());
            let all_meta = {
                let untrusted = input.ranges_with::<UntrustedData>();
                let bytes = input.as_str().as_bytes();
                !untrusted.is_empty()
                    && untrusted.iter().flat_map(|r| &bytes[r.clone()]).all(|&b| {
                        HTML_ESCAPES.replaces(b)
                    })
            };
            for (open, close, markup) in [
                ("<p>", "</p>", false),
                ("<p title=\"", "\">", true),
                ("<script>var s = '", "';</script>", true),
            ] {
                let page = |escaped: &TaintedString| {
                    let mut page = TaintedString::new();
                    page.push_str(open);
                    page.push_tainted(escaped);
                    page.push_str(close);
                    page
                };
                let (new, was) = (page(&got), page(&old));
                proptest::prop_assert_eq!(
                    verdict(check_html_markers(&new)),
                    verdict(check_html_markers(&was))
                );
                let (new, was) = (check_html_structure(&new), check_html_structure(&was));
                if new.is_ok() != was.is_ok() {
                    proptest::prop_assert!(new.is_err() && markup && all_meta, "{open}{input:?}");
                }
            }

            let old = escape_sliced(&input, crate::json::JSON_ESCAPES.replacement);
            let got = crate::json::escape_tainted(&input);
            let want =
                escape_bytewise(&input, crate::json::JSON_ESCAPES.replacement, Label::EMPTY);
            proptest::prop_assert_eq!(got.as_str(), old.as_str());
            proptest::prop_assert!(got.taint_eq(&want), "json: {got:?} != {want:?}");
            for i in 0..got.len() {
                let (new, was) = (got.label_at(i), old.label_at(i));
                proptest::prop_assert!(new.union(was) == new, "byte {i}");
            }
        }
    }

    /// `table`'s escaper with the table loop as its whole body, as a target
    /// without SSE2 escapes.
    fn portable(table: &EscapeTable) -> EscapeTable {
        EscapeTable {
            portable: true,
            ..EscapeTable::new(table.replacement)
        }
    }

    static PORTABLE_HTML: LazyLock<EscapeTable> = LazyLock::new(|| portable(&HTML_ESCAPES));
    static PORTABLE_JSON: LazyLock<EscapeTable> =
        LazyLock::new(|| portable(&crate::json::JSON_ESCAPES));

    /// Both escapers, each by the body this target runs and by the
    /// portable one, against the oracles: text against the slice-and-push
    /// one, labels against the byte-wise one.
    fn agrees_with_the_oracles(input: &TaintedString) {
        let marker = Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef));
        let json = &*crate::json::JSON_ESCAPES;
        for (got, table, marker) in [
            (html_escape(input), &*HTML_ESCAPES, marker),
            (
                escape_bytes(input, &PORTABLE_HTML, marker),
                &HTML_ESCAPES,
                marker,
            ),
            (crate::json::escape_tainted(input), json, Label::EMPTY),
            (
                escape_bytes(input, &PORTABLE_JSON, Label::EMPTY),
                json,
                Label::EMPTY,
            ),
        ] {
            assert_eq!(
                got.as_str(),
                escape_sliced(input, table.replacement).as_str()
            );
            let want = escape_bytewise(input, table.replacement, marker);
            assert!(got.taint_eq(&want), "{input:?}: {got:?} != {want:?}");
        }
    }

    #[test]
    fn every_byte_in_every_lane_agrees_with_the_oracles() {
        let lanes = 16;
        // First the bodies on raw bytes, so every byte value is seen, those
        // no UTF-8 text holds too: at each lane of a block with blocks
        // either side, and at each offset of a tail shorter than a block.
        for table in [&*HTML_ESCAPES, &*crate::json::JSON_ESCAPES] {
            let by_table = |input: &[u8]| {
                let mut out = vec![0; 8 * input.len()];
                let len = table.escape_table(input, &mut out);
                out.truncate(len);
                out
            };
            let check = |input: &[u8]| {
                let mut out = vec![0; BLOCK_LEN];
                let len = table.escape_block(input, &mut out);
                assert_eq!(&out[..len], &by_table(input)[..], "{input:?}");
            };
            for b in 0..=u8::MAX {
                for lane in 0..lanes {
                    let mut text = vec![b'x'; 3 * lanes];
                    text[lanes + lane] = b;
                    let reads = ENTRY_READS.get();
                    check(&text);
                    // The SSE2 body reads the table at a replaced byte
                    // and nowhere else.
                    if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
                        let read = ENTRY_READS.get() - reads;
                        assert_eq!(read, usize::from(table.replaces(b)), "{b:#04x}");
                    }
                }
                for len in 1..lanes {
                    for at in 0..len {
                        let mut text = vec![b'x'; len];
                        text[at] = b;
                        check(&text);
                    }
                }
                // Before and after a replaced one, a clean run of every
                // length up to two steps of sixty-four.
                if table.replaces(b) {
                    for run in 0..=130 {
                        for tail in [0, 1, 15, 16, 17, 63, 64, 65] {
                            let mut text = vec![b'x'; run + 1 + tail];
                            text[run] = b;
                            check(&text);
                        }
                    }
                }
                // The table agrees with the replacement byte by byte.
                let rep = (table.replacement)(b).map_or(vec![b], |r| r.as_bytes().to_vec());
                assert_eq!(by_table(&[b]), rep, "{b:#04x}");
            }
        }

        // Then every byte a character can hold, through both escapers,
        // both bodies, and the oracles: in each lane of a block that has a
        // block before it, and at each offset of a text under a block.
        let mut byte_chars: Vec<Option<(char, usize)>> = vec![None; 256];
        let starts = (0..0x800).chain([0x800]).chain((1..16).map(|n| n << 12));
        let starts = starts.chain([0x1_0000, 0x4_0000, 0x8_0000, 0xc_0000, 0x10_0000]);
        for c in starts.filter_map(char::from_u32) {
            let mut buf = [0; 4];
            for (at, &b) in c.encode_utf8(&mut buf).as_bytes().iter().enumerate() {
                byte_chars[usize::from(b)].get_or_insert((c, at));
            }
        }
        let missing: Vec<usize> = (0..256).filter(|&b| byte_chars[b].is_none()).collect();
        assert_eq!(
            missing,
            [0xc0, 0xc1, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff]
        );
        let around = |before: usize, c: char, len: usize| {
            let mut text = "x".repeat(before);
            text.push(c);
            text + &"x".repeat(len - before - c.len_utf8())
        };
        for &(c, at) in byte_chars.iter().flatten() {
            for lane in 0..lanes {
                agrees_with_the_oracles(&untrusted(&around(lanes + lane - at, c, 3 * lanes)));
            }
            for len in c.len_utf8()..lanes {
                for before in 0..=len - c.len_utf8() {
                    agrees_with_the_oracles(&TaintedString::from(around(before, c, len).as_str()));
                }
            }
        }

        // A clean run of every length around a step of sixty-four before a
        // metacharacter.
        for run in 60..=70 {
            agrees_with_the_oracles(&untrusted(&("x".repeat(run) + "<" + &"y".repeat(70))));
            agrees_with_the_oracles(&untrusted(&("x".repeat(run) + "<")));
        }

        // Two metacharacters in one block, in every pair of lanes (adjacent
        // ones among them), and each lane's metacharacter as the last byte
        // before a tail.
        let metas = ['<', '&', '"', '\\', '\n', '>', '\'', '\u{1}'];
        for i in 0..lanes {
            for j in i + 1..lanes {
                let mut text: Vec<char> = "x".repeat(3 * lanes).chars().collect();
                text[lanes + i] = metas[(i + j) % metas.len()];
                text[lanes + j] = metas[j % metas.len()];
                let text: String = text.into_iter().collect();
                agrees_with_the_oracles(&untrusted(&text));
                agrees_with_the_oracles(&untrusted(&text[..lanes + j + 1]));
            }
        }

        // A multi-byte character straddling a block edge, after a
        // metacharacter at each lane before it and the edge of the kernel's
        // input block.
        for c in ["é", "✓", "😀"] {
            for into in 1..c.len() {
                for meta in 0..lanes {
                    let mut text = "x".repeat(2 * lanes - into);
                    text.replace_range(lanes + meta - into..lanes + meta - into + 1, "<");
                    text.push_str(c);
                    text.push_str(&"x".repeat(lanes));
                    agrees_with_the_oracles(&untrusted(&text));
                }
                let text = "x".repeat(BLOCK_BYTES - into) + c + &"x<".repeat(lanes);
                agrees_with_the_oracles(&untrusted(&text));
                let text = "<".repeat(BLOCK_BYTES - into) + c + &"<x".repeat(lanes);
                agrees_with_the_oracles(&untrusted(&text));
            }
        }
    }

    /// `len` bytes of `chars` cycled, topped up with `x`s where the next
    /// character would not fit.
    fn fill(chars: &[&str], len: usize) -> String {
        let mut s = String::new();
        for c in chars.iter().cycle() {
            if s.len() + c.len() > len {
                break;
            }
            s.push_str(c);
        }
        while s.len() < len {
            s.push('x');
        }
        s
    }

    #[test]
    fn the_kernel_agrees_with_the_oracles_across_block_edges() {
        let three_blocks = 3 * BLOCK_BYTES + 9;
        let labels = [
            Label::EMPTY,
            Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
            Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef)),
        ];
        // Two-, three- and four-byte characters end to end, shifted by
        // 0–3 bytes: some character straddles every block edge, at every
        // offset into it.
        for c in ["é", "✓", "😀"] {
            for shift in 0..4 {
                let text = "a".repeat(shift) + &c.repeat(three_blocks / c.len());
                agrees_with_the_oracles(&untrusted(&text));
                agrees_with_the_oracles(&TaintedString::from(text.as_str()));
            }
        }
        // Every ASCII byte, and metacharacters alone: a replaced byte is
        // the first and the last of every block.
        let ascii: String = (0u8..0x80)
            .map(char::from)
            .cycle()
            .take(three_blocks)
            .collect();
        let metas = fill(
            &["<", "&", ">", "\"", "'", "\\", "\n", "\u{1}"],
            three_blocks,
        );
        for text in [&ascii, &metas] {
            agrees_with_the_oracles(&untrusted(text));
            agrees_with_the_oracles(&TaintedString::from(text.as_str()));
        }
        // Spans that start and end at block edges and a byte either side
        // of them, holding all of the above.
        let mixed = ["é", "<", "✓", "&", "😀", "\n", "a", "\"", "\u{7f}"];
        for lens in [
            [BLOCK_BYTES, BLOCK_BYTES, 2 * BLOCK_BYTES],
            [BLOCK_BYTES - 1, BLOCK_BYTES + 1, BLOCK_BYTES],
            [BLOCK_BYTES + 1, BLOCK_BYTES - 1, 1],
            [1, 2 * BLOCK_BYTES, BLOCK_BYTES - 3],
        ] {
            for first in 0..labels.len() {
                let mut input = TaintedString::new();
                for (i, len) in lens.into_iter().enumerate() {
                    input.push_label(&fill(&mixed[i..], len), labels[(first + i) % 3]);
                }
                agrees_with_the_oracles(&input);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn the_kernel_agrees_with_the_oracles_over_several_blocks(
            pieces in proptest::prop::collection::vec(
                ((0usize..6, 0usize..2 * BLOCK_BYTES + 8), 0usize..4),
                1..5,
            ),
        ) {
            const CHARS: [&str; 6] = ["a", "é", "✓", "😀", "<", "\""];
            let labels = [
                Label::EMPTY,
                Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef)),
                Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef)),
            ];
            let mut input = TaintedString::new();
            for &((from, len), which) in &pieces {
                input.push_label(&fill(&CHARS[from..], len), labels[which % 3]);
            }
            agrees_with_the_oracles(&input);
        }
    }

    #[test]
    fn a_megabyte_escape_keeps_one_block_and_sizes_its_output_once() {
        // `forum_search`'s body shape, to `MAX_BODY_BYTES`: what the kernel
        // keeps is its block, a constant, and the output's text is sized
        // once, at half again the input, which this body's entities fit.
        let body = fill(
            &["lorem ipsum dolor s", "&", "lorem ipsum dolor ", "<é"],
            1 << 20,
        );
        let escaped = html_escape(&untrusted(&body));
        assert_eq!(escaped.spans().count(), 1);
        assert_eq!(BLOCK.with_borrow(Vec::capacity), BLOCK_LEN);
        let text = escaped.into_plain();
        assert!(text.len() > body.len());
        assert_eq!(text.capacity(), body.len() + body.len() / 2);
    }

    #[test]
    fn an_escaped_search_hit_is_one_span() {
        // `forum_search`'s shape: a 970-byte body under one label with a
        // metacharacter every 20 bytes. Before replacements took
        // their source byte's label, each one started two spans (the
        // entity, then the run after it): 2k + 1 for k metacharacters.
        let metas = b"&<>\"'";
        let body: String = (0..970)
            .map(|i| match i % 20 {
                19 => char::from(metas[i / 20 % metas.len()]),
                _ => char::from(b"lorem ipsum dolor s"[i % 20]),
            })
            .collect();
        let body = untrusted(&body);
        let k = body
            .as_str()
            .bytes()
            .filter(|&b| HTML_ESCAPES.replaces(b))
            .count();
        assert_eq!(k, 48);
        let mut old = escape_sliced(&body, HTML_ESCAPES.replacement);
        old.add_policy(Arc::new(HtmlSanitized::new()));
        assert_eq!(old.spans().count(), 2 * k + 1);
        let escaped = html_escape(&body);
        assert_eq!(escaped.as_str(), old.as_str());
        assert_eq!(escaped.spans().count(), 1);
        assert_eq!(crate::json::escape_tainted(&body).spans().count(), 1);
    }

    #[test]
    fn an_escaped_secret_of_metacharacters_is_refused_over_http() {
        // Every byte replaced: before replacements took their source
        // byte's label, the output held only the marker and left
        // unchecked.
        let secret = TaintedString::with_policy("<&>\"'", Arc::new(PasswordPolicy::new("u@x")));
        let escaped = html_escape(&secret);
        assert_eq!(escaped.as_str(), "&lt;&amp;&gt;&quot;&#39;");
        assert!(escaped.all_bytes_have::<PasswordPolicy>());
        assert!(Response::new().echo(secret).is_err());
        assert!(Response::new().echo(escaped.clone()).is_err());
        let mut chair = Response::for_user("chair");
        chair.set_priv_chair(true);
        chair.echo(escaped).unwrap();
        assert_eq!(chair.body(), "&lt;&amp;&gt;&quot;&#39;");
    }

    /// `check_html_structure` as it was: a lowercased copy of the page,
    /// and every untrusted range tried at every structural byte.
    fn check_html_structure_scan(output: &TaintedString) -> Result<()> {
        let bytes = output.as_str().as_bytes();
        let lower = output.as_str().to_ascii_lowercase();
        let untrusted = output.ranges_with::<UntrustedData>();
        let mut in_tag = false;
        let mut in_script = false;
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if !in_tag && c == b'<' {
                in_tag = true;
                if lower[i..].starts_with("<script") {
                    in_script = true;
                }
                if lower[i..].starts_with("</script") {
                    in_script = false;
                }
            }
            let structural = in_tag || in_script || c == b'<' || c == b'>';
            if structural && untrusted.iter().any(|r| r.contains(&i)) {
                return Err(PolicyViolation::at("XssGuard", Reason::InStructure, i..i + 1).into());
            }
            if in_tag && c == b'>' {
                in_tag = false;
            }
            i += 1;
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn structure_check_agrees_with_the_scan(
            pages in proptest::prop::collection::vec(
                proptest::prop::collection::vec((0usize..12, 0usize..4), 0..16),
                32..33,
            ),
        ) {
            const TOKENS: [&str; 12] = [
                "<script>", "</SCRIPT>", "<ScRiPt src=x>", "</script", "<p class=\"a\">",
                "</p>", "<", ">", "text ", "&lt;", "é✓", "<scrip",
            ];
            for pieces in &pages {
                let mut page = TaintedString::new();
                for &(token, taint) in pieces {
                    let token = TOKENS[token];
                    // Server markup (half the pieces), raw input, or escaped
                    // input: one untrusted range per metacharacter.
                    match taint {
                        0 | 1 => page.push_str(token),
                        2 => page.push_tainted(&untrusted(token)),
                        _ => page.push_tainted(&html_escape(&untrusted(token))),
                    }
                }
                let verdict = |r: Result<()>| r.map_err(|e| e.to_string());
                proptest::prop_assert_eq!(
                    verdict(check_html_structure(&page)),
                    verdict(check_html_structure_scan(&page))
                );
            }
        }
    }

    #[test]
    fn escaping_the_empty_string_yields_it_unmarked() {
        let e = html_escape(&TaintedString::new());
        assert!(e.is_empty() && e.is_untainted());
        let e = html_escape(&untrusted(""));
        assert!(e.is_empty() && e.is_untainted());
    }
}
