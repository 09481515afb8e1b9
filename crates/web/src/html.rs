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

/// A page, as 4K aliasing sees it: an x86 core stalls a load that
/// follows a store to an address with the same low 12 bits. On a Xeon
/// (2 vCPUs) the escape loop ran about 1.7× slower when the page offsets
/// it wrote crossed those of the table entries it read, which turned on
/// where the linker and the allocator happened to put the two.
const PAGE: usize = 4096;

/// The half page the kernel writes its output into: the upper one. The
/// tables fill the lower half, each page-aligned and 2 KiB, so a store to
/// the window never aliases a table load.
const WINDOW: usize = PAGE / 2;

/// Input bytes the kernel escapes per block: eight bytes of window each.
const BLOCK_BYTES: usize = WINDOW / 8;

/// The kernel's output block: a page and a window, so that a window at
/// any page offset fits in it.
const BLOCK_LEN: usize = PAGE + WINDOW;

thread_local! {
    /// The one buffer the kernel keeps, sized at a thread's first escape
    /// to [`BLOCK_LEN`] whatever the input's. On the heap: held in the
    /// thread's TLS as an array, it moved every other thread-local's page
    /// offset, and `hotcrp_page` and `rsl_page`, which never escape, read
    /// about 3 % slower than with the block here.
    static BLOCK: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// What an encoder does to each byte, as one table derived once from its
/// replacement function, so the two cannot disagree. Entry `b` is `b`'s
/// output (its replacement, or `b` itself) in the low seven bytes, and
/// that output's length in the top one. Only ASCII bytes may be replaced,
/// so a character is either copied whole or is one ASCII byte, and the
/// escape of text that is whole characters is valid UTF-8.
#[repr(C, align(4096))]
pub(crate) struct EscapeTable {
    entries: [u64; 256],
    #[cfg(test)]
    replacement: fn(u8) -> Option<&'static str>,
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
        EscapeTable {
            entries,
            #[cfg(test)]
            replacement,
        }
    }

    /// True when the table replaces `b`.
    #[cfg(test)]
    fn replaces(&self, b: u8) -> bool {
        (self.replacement)(b).is_some()
    }

    /// Appends `text` escaped, a block of at most [`BLOCK_BYTES`] input
    /// bytes at a time, each ending on a character boundary. Per byte the
    /// kernel loads the byte's entry, stores all eight of its bytes at the
    /// output offset, and moves the offset by the length: no branch on
    /// the byte. The next entry's store covers the length byte. A block's
    /// output is valid UTF-8 (see [`EscapeTable`]), which `from_utf8`
    /// confirms before it is appended.
    fn escape_into(&self, out: &mut TextTail<'_>, text: &str) {
        BLOCK.with_borrow_mut(|block| {
            block.resize(BLOCK_LEN, 0);
            // The window starts where the address is WINDOW past a page.
            let skew = WINDOW.wrapping_sub(block.as_ptr().addr()) % PAGE;
            let window = &mut block[skew..skew + WINDOW];
            let mut rest = text;
            while !rest.is_empty() {
                let (input, tail) = rest.split_at(rest.floor_char_boundary(BLOCK_BYTES));
                let mut len = 0usize;
                for &b in input.as_bytes() {
                    let entry = self.entries[usize::from(b)];
                    window[len..len + 8].copy_from_slice(&entry.to_le_bytes());
                    len += (entry >> 56) as usize;
                }
                out.push_str(std::str::from_utf8(&window[..len]).expect("escaped text is UTF-8"));
                rest = tail;
            }
        });
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

    /// Both escapers against the oracles: text against the slice-and-push
    /// one, labels against the byte-wise one.
    fn agrees_with_the_oracles(input: &TaintedString) {
        let marker = Label::of(&(Arc::new(HtmlSanitized::new()) as PolicyRef));
        for (got, table, marker) in [
            (html_escape(input), &*HTML_ESCAPES, marker),
            (
                crate::json::escape_tainted(input),
                &*crate::json::JSON_ESCAPES,
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
        assert_eq!(escaped.span_count(), 1);
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
        assert_eq!(old.span_count(), 2 * k + 1);
        let escaped = html_escape(&body);
        assert_eq!(escaped.as_str(), old.as_str());
        assert_eq!(escaped.span_count(), 1);
        assert_eq!(crate::json::escape_tainted(&body).span_count(), 1);
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
