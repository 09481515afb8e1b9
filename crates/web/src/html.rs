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

use std::sync::{Arc, LazyLock};

use resin_core::{
    HtmlSanitized, Label, LabelMemo, PolicyRef, PolicyViolation, Result, TaintedStrBuilder,
    TaintedString, UntrustedData,
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
}

/// The run scanner shared by the HTML and JSON encoders. A stretch of
/// bytes the table leaves alone is copied whole, its spans with it;
/// a replacement is server text, as in a `replace` with an untainted
/// replacement. Every byte emitted, copied or not, also gets `marker`
/// ([`Label::EMPTY`] for none), unioned in once per distinct source label.
pub(crate) fn escape_bytes(
    input: &TaintedString,
    table: &EscapeTable,
    marker: Label,
) -> TaintedString {
    let bytes = input.as_str().as_bytes();
    let mut out = TaintedStrBuilder::with_capacity(bytes.len() + bytes.len() / 4 + 8);
    let mut marked = LabelMemo::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let run = bytes[at..]
            .iter()
            .position(|&b| table.escaped[usize::from(b)])
            .unwrap_or(bytes.len() - at);
        out.push_range_with(input, at..at + run, |l| marked.get(l, |l| l.union(marker)));
        at += run;
        if let Some(rep) = bytes.get(at).and_then(|&b| (table.replacement)(b)) {
            out.push_label(rep, marker);
            at += 1;
        }
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
/// to every byte of the result.
///
/// This is "the existing sanitization function" of §5.3 step 3: it both
/// neutralizes the data *and* records the evidence that it did.
pub fn html_escape(input: &TaintedString) -> TaintedString {
    let marker: PolicyRef = Arc::new(HtmlSanitized::new());
    escape_bytes(input, &HTML_ESCAPES, Label::of(&marker))
}

/// Strategy 1: every untrusted byte must carry the sanitizer's marker.
pub fn check_html_markers(output: &TaintedString) -> Result<()> {
    let bad = output.ranges_where(|l| l.has::<UntrustedData>() && !l.has::<HtmlSanitized>());
    if let Some(r) = bad.first() {
        let snippet = output.slice(r.clone());
        return Err(PolicyViolation::new(
            "XssGuard",
            format!(
                "unsanitized untrusted data in HTML at bytes {}..{}: `{}`",
                r.start,
                r.end,
                snippet.as_str()
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
    let lower = output.as_str().to_ascii_lowercase();
    // Resolve the untrusted ranges once (a handful of coalesced spans)
    // instead of a label-table hit per byte.
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `escape_bytes` as it was: a `TaintedString` sliced out per clean
    /// stretch, pushed, and (for HTML) the marker added in an edit pass
    /// over the finished string.
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

            let mut want = escape_sliced(&input, HTML_ESCAPES.replacement);
            want.add_policy(Arc::new(HtmlSanitized::new()));
            let got = html_escape(&input);
            proptest::prop_assert!(got.taint_eq(&want), "html: {got:?} != {want:?}");
            proptest::prop_assert!(got.is_empty() || got.all_bytes_have::<HtmlSanitized>());

            let want = escape_sliced(&input, crate::json::JSON_ESCAPES.replacement);
            let got = crate::json::escape_tainted(&input);
            proptest::prop_assert!(got.taint_eq(&want), "json: {got:?} != {want:?}");
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
