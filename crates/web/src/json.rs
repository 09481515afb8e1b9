//! JSON encoding with structure protection (§5.4).
//!
//! "Much like in SQL injection, an adversary may be able to craft an input
//! string that changes the structure of the JSON's JavaScript data
//! structure, or worse yet, include client-side code as part of the data
//! structure." The encoder escapes string content (so taint cannot become
//! structure), and [`check_json_structure`] is the strategy-2 analogue: it
//! verifies no untrusted byte lands in JSON structure.

use std::collections::BTreeMap;
use std::sync::LazyLock;

use resin_core::{Label, PolicyViolation, Reason, Result, TaintedString, UntrustedData};

use crate::html::{escape_bytes, EscapeTable};

/// Encodes a string map as a JSON object, preserving value taint.
///
/// Keys are assumed server-controlled; values are escaped byte-for-byte so
/// untrusted content stays inside string literals.
pub fn encode_object(fields: &BTreeMap<String, TaintedString>) -> TaintedString {
    let mut out = TaintedString::with_capacity(64);
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_plain(k));
        out.push_str("\":\"");
        out.push_tainted(&escape_tainted(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes JSON string content, preserving taint. One pass: every output
/// byte, an escape sequence's too, carries the label of the source byte
/// it stands for, so a secret made only of quotes and newlines leaves
/// as secret as it came.
///
/// Every control byte below 0x20 is escaped — RFC 8259 forbids them raw
/// inside string literals. An earlier revision passed the exotic ones
/// (`\x00`–`\x08`, `\x0b`, `\x0c`, `\x0e`–`\x1f`) through unescaped,
/// producing invalid JSON that a lenient client parser could resolve
/// differently than [`check_json_structure`] saw — the same
/// parser-differential shape as response splitting.
pub(crate) fn escape_tainted(v: &TaintedString) -> TaintedString {
    escape_bytes(v, &JSON_ESCAPES, Label::EMPTY)
}

pub(crate) static JSON_ESCAPES: LazyLock<EscapeTable> = LazyLock::new(|| {
    EscapeTable::new(|b| match b {
        b'\\' => Some("\\\\"),
        b'"' => Some("\\\""),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        b'\t' => Some("\\t"),
        b'<' => Some("\\u003c"),
        b'>' => Some("\\u003e"),
        b if b < 0x20 => Some(CONTROL_ESCAPES[b as usize]),
        _ => None,
    })
});

/// `\u00XX` escapes indexed by control byte (the `\n`/`\r`/`\t` slots are
/// shadowed by their short forms above and kept only for alignment). The
/// byte→escape correspondence is asserted mechanically in tests.
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\u0009", "\\u000a", "\\u000b", "\\u000c", "\\u000d", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

fn escape_plain(s: &str) -> String {
    escape_tainted(&TaintedString::from(s)).into_plain()
}

/// Rejects JSON output whose *structure* (anything outside string
/// literals, and the unescaped quotes that open and close them) carries
/// untrusted bytes. Inside a literal a backslash and the byte it escapes
/// are content: the encoder's `\"` keeps its source byte's label.
pub fn check_json_structure(json: &TaintedString) -> Result<()> {
    let bytes = json.as_str().as_bytes();
    // Resolve the untrusted ranges once instead of per byte. They are
    // sorted and disjoint, and `i` only grows, so a cursor walks them.
    let untrusted = json.ranges_with::<UntrustedData>();
    let mut ahead = untrusted.iter().peekable();
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        let structural = !in_str || (!escaped && b == b'"');
        if structural {
            while ahead.next_if(|r| r.end <= i).is_some() {}
            if ahead.peek().is_some_and(|r| r.start <= i) {
                return Err(PolicyViolation::at("JsonGuard", Reason::InStructure, i..i + 1).into());
            }
        }
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use resin_core::PasswordPolicy;
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn encode_escapes_hostile_values() {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), untrusted("x\",\"admin\":true,\"y\":\""));
        let j = encode_object(&m);
        assert!(j.as_str().contains("\\\""), "quotes escaped");
        assert!(check_json_structure(&j).is_ok(), "escaped output is safe");
    }

    #[test]
    fn naive_concatenation_caught() {
        // A vulnerable app builds JSON by string concatenation.
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("x\",\"admin\":true,\"z\":\""));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_err());
    }

    #[test]
    fn untrusted_content_inside_string_ok() {
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("benign text"));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_ok());
    }

    #[test]
    fn script_breakout_escaped() {
        let mut m = BTreeMap::new();
        m.insert(
            "c".to_string(),
            untrusted("</script><script>evil()</script>"),
        );
        let j = encode_object(&m);
        assert!(!j.as_str().contains("</script>"), "angle brackets escaped");
    }

    #[test]
    fn control_escape_table_matches_its_indexes() {
        for (b, esc) in CONTROL_ESCAPES.iter().enumerate() {
            assert_eq!(
                *esc,
                format!("\\u{b:04x}"),
                "table entry {b:#04x} names the wrong code point"
            );
        }
    }

    #[test]
    fn control_bytes_are_escaped() {
        // Raw control bytes below 0x20 are invalid inside JSON strings; a
        // lenient client parser could re-interpret them differently than
        // the structure check did. Every one must leave as an escape.
        let raw: String = (0x00u8..0x20).map(|b| b as char).collect();
        let mut m = BTreeMap::new();
        m.insert("c".to_string(), untrusted(&raw));
        let j = encode_object(&m);
        for b in j.as_str().bytes() {
            assert!(
                b >= 0x20,
                "raw control byte {b:#04x} escaped the encoder: {}",
                j.as_str().escape_debug()
            );
        }
        // The dedicated short escapes are used where JSON defines them.
        assert!(j.as_str().contains("\\n"));
        assert!(j.as_str().contains("\\r"));
        assert!(j.as_str().contains("\\t"));
        assert!(j.as_str().contains("\\u0000"));
        assert!(j.as_str().contains("\\u001f"));
        assert!(check_json_structure(&j).is_ok());
        // Taint attribution: each escape carries the label of the byte it
        // replaces, and the surrounding object structure stays untainted.
        assert!(j.label_at(0).is_empty());
        let escape = j.find("\\u0000").unwrap();
        assert!((escape..escape + 6).all(|i| j.label_at(i).has::<UntrustedData>()));
    }

    #[test]
    fn an_untrusted_escaped_quote_inside_a_literal_passes() {
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("\\\""));
        j.push_str("\"}");
        assert_eq!(j.as_str(), "{\"name\":\"\\\"\"}");
        assert!(check_json_structure(&j).is_ok());
        // The encoder's own output: its `\"` carries the quote's taint.
        let mut m = BTreeMap::new();
        m.insert("q".to_string(), untrusted("\""));
        let j = encode_object(&m);
        assert!(j.label_at(j.find("\\").unwrap()).has::<UntrustedData>());
        assert!(check_json_structure(&j).is_ok());
    }

    #[test]
    fn a_bare_untrusted_quote_still_fails() {
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("\""));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_err());
        // An escaped backslash does not escape the quote after it.
        let mut j = TaintedString::from("{\"name\":\"");
        j.push_tainted(&untrusted("\\\\\""));
        j.push_str("\"}");
        assert!(check_json_structure(&j).is_err());
    }

    /// `check_json_structure` one byte at a time: every untrusted range
    /// tried at every structural byte.
    fn check_json_structure_scan(json: &TaintedString) -> Result<()> {
        let untrusted = json.ranges_with::<UntrustedData>();
        let mut in_str = false;
        let mut escaped = false;
        for (i, &b) in json.as_str().as_bytes().iter().enumerate() {
            let structural = !in_str || (!escaped && b == b'"');
            if structural && untrusted.iter().any(|r| r.contains(&i)) {
                return Err(PolicyViolation::at("JsonGuard", Reason::InStructure, i..i + 1).into());
            }
            if in_str {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_str = false;
                }
            } else if b == b'"' {
                in_str = true;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn structure_check_agrees_with_the_scan(
            pieces in proptest::prop::collection::vec(
                ("[ab\"\\{}:,\n]{0,5}", 0usize..4),
                0..14,
            ),
        ) {
            let mut j = TaintedString::new();
            for (text, taint) in &pieces {
                // Server text (half the pieces), raw input, or encoded input.
                let text = TaintedString::from(text.as_str());
                match taint {
                    0 | 1 => j.push_tainted(&text),
                    2 => j.push_tainted(&untrusted(text.as_str())),
                    _ => j.push_tainted(&escape_tainted(&untrusted(text.as_str()))),
                }
            }
            let verdict = |r: Result<()>| r.map_err(|e| e.to_string());
            proptest::prop_assert_eq!(
                verdict(check_json_structure(&j)),
                verdict(check_json_structure_scan(&j))
            );
        }
    }

    #[test]
    fn an_escaped_secret_of_metacharacters_is_refused_over_http() {
        // Every byte replaced: before escapes took their source byte's
        // label, the output held no secret byte and left unchecked.
        let secret = TaintedString::with_policy("\"\n", Arc::new(PasswordPolicy::new("u@x")));
        let escaped = escape_tainted(&secret);
        assert_eq!(escaped.as_str(), "\\\"\\n");
        assert!(escaped.all_bytes_have::<PasswordPolicy>());
        assert!(Response::new().echo(secret).is_err());
        assert!(Response::new().echo(escaped.clone()).is_err());
        let mut chair = Response::for_user("chair");
        chair.set_priv_chair(true);
        chair.echo(escaped).unwrap();
        assert_eq!(chair.body(), "\\\"\\n");
    }

    #[test]
    fn multiple_fields_encoded() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), TaintedString::from("1"));
        m.insert("b".to_string(), TaintedString::from("2"));
        let j = encode_object(&m);
        assert_eq!(j.as_str(), "{\"a\":\"1\",\"b\":\"2\"}");
    }
}
