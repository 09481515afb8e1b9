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

use std::ops::Range;
use std::sync::LazyLock;

use resin_core::{
    HtmlSanitized, Label, PolicyViolation, Result, TaintedStrBuilder, TaintedString, TextTail,
    UntrustedData,
};

/// What an encoder does to each byte: the replacement function, and a
/// 256-entry table of which bytes it replaces, derived from it once so
/// the two cannot disagree. Only ASCII bytes may be replaced, so UTF-8
/// boundaries are never split.
pub(crate) struct EscapeTable {
    escaped: [bool; 256],
    replacement: fn(u8) -> Option<&'static str>,
}

impl EscapeTable {
    pub(crate) fn new(replacement: fn(u8) -> Option<&'static str>) -> EscapeTable {
        let mut escaped = [false; 256];
        for b in 0..=u8::MAX {
            escaped[usize::from(b)] = replacement(b).is_some();
            assert!(b.is_ascii() || !escaped[usize::from(b)]);
        }
        EscapeTable {
            escaped,
            replacement,
        }
    }

    /// True when the table replaces `b`.
    fn replaces(&self, b: u8) -> bool {
        self.escaped[usize::from(b)]
    }

    /// Appends `text` escaped: clean runs copied whole, each replaced
    /// byte as its replacement.
    fn escape_into(&self, out: &mut TextTail<'_>, text: &str) {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        while let Some(run) = bytes[at..].iter().position(|&b| self.replaces(b)) {
            out.push_str(&text[at..at + run]);
            at += run;
            let rep = (self.replacement)(bytes[at]).expect("a replaced byte has a replacement");
            out.push_str(rep);
            at += 1;
        }
        out.push_str(&text[at..]);
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
/// them.
pub(crate) fn escape_bytes(
    input: &TaintedString,
    table: &EscapeTable,
    marker: Label,
) -> TaintedString {
    let text = input.as_str();
    // Room for a replacement every eight bytes or so, `forum_search`'s
    // bodies hold one every twenty; a denser input grows the buffer.
    // Counting the exact length first costs a pass that measured slower.
    let mut out = TaintedStrBuilder::with_capacity(text.len() + text.len() / 2);
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
    out.build()
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
        return Err(PolicyViolation::new(
            "XssGuard",
            format!(
                "unsanitized untrusted data in HTML at bytes {}..{}",
                r.start, r.end
            ),
        )
        .into());
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
                return Err(PolicyViolation::new(
                    "XssGuard",
                    format!("untrusted data in HTML structure at byte {i}"),
                )
                .into());
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
        let range = format!("at bytes 3..{}", 3 + payload.len());
        assert!(v.message.ends_with(&range), "{}", v.message);
        assert!(!v.message.contains("zq-payload"), "{}", v.message);
        assert!(!v.message.contains("<script>"), "{}", v.message);
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
        let mut out = TaintedStrBuilder::with_capacity(text.len() + 8);
        let mut start = 0usize;
        for (i, b) in text.bytes().enumerate() {
            let Some(rep) = table(b) else { continue };
            out.push_tainted(&input.slice(start..i));
            out.push_str(rep);
            start = i + 1;
        }
        out.push_tainted(&input.slice(start..text.len()));
        out.build()
    }

    /// The label rule one character at a time: each output byte carries
    /// its source byte's label ∪ `marker`.
    fn escape_bytewise(
        input: &TaintedString,
        table: fn(u8) -> Option<&'static str>,
        marker: Label,
    ) -> TaintedString {
        let mut out = TaintedStrBuilder::new();
        for (i, c) in input.as_str().char_indices() {
            let mut buf = [0u8; 4];
            let rep = u8::try_from(c).ok().and_then(table);
            let label = input.label_at(i).union(marker);
            out.push_label(rep.unwrap_or_else(|| c.encode_utf8(&mut buf)), label);
        }
        out.build()
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
            let mut input = TaintedStrBuilder::new();
            for (text, which) in &pieces {
                // 3 is a second untainted stretch, so gaps abut gaps.
                input.push_label(text, labels[which % 3]);
            }
            let input = input.build();
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
                    let mut page = TaintedStrBuilder::new();
                    page.push_str(open);
                    page.push_tainted(escaped);
                    page.push_str(close);
                    page.build()
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
                return Err(PolicyViolation::new(
                    "XssGuard",
                    format!("untrusted data in HTML structure at byte {i}"),
                )
                .into());
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
                let mut page = TaintedStrBuilder::new();
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
                let page = page.build();
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
