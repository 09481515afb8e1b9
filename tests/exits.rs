//! Two censuses of the non-test source, each a pattern list compared
//! with a committed list that gives one reason per entry.
//!
//! **Raw exits** (`tests/exits.txt`): every place the source reaches the
//! operating system past the gates — a socket, a file, a process — or
//! steps outside safe Rust. RESIN's guarantee rests on interposing on
//! every output channel (§3.2.1), and nothing in Rust enforces that
//! interposition.
//!
//! **Label-dropping conversions** (`tests/conversions.txt`): every place
//! a tainted text becomes a plain `String` that outlives the call, so its
//! bytes go on without their policies. No byte may lose its policy in
//! transit; each entry says why this one may (a key, an address, a text
//! that crossed a gate, a label that travels beside it). The grep is a
//! tripwire, not a proof.
//!
//! A new entry fails here until it is listed, so it shows up in review;
//! an entry that goes away fails until its line does.
//!
//! What counts as non-test source: every `.rs` file under `src/` and
//! `crates/*/src/`, minus the paths the list excludes, minus each
//! `#[cfg(test)]` module and every comment line. A line is counted once
//! per pattern it holds; a pattern matches only as a whole token, so
//! `#![forbid(unsafe_code)]` is not an `unsafe`.

use std::collections::BTreeMap;
use std::path::Path;

#[path = "support/source.rs"]
mod source;

/// The raw-exit patterns.
const EXITS: [&str; 9] = [
    "std::net",
    "std::fs",
    "File::",
    "OpenOptions",
    "std::process",
    "write_all",
    "write_vectored",
    "TcpStream",
    "unsafe",
];

/// The patterns that turn a `TaintedString` into plain text.
const CONVERSIONS: [&str; 3] = [
    "as_str().to_string()",
    "as_str().to_owned()",
    "into_plain()",
];

/// (file, pattern) → lines.
type Census = BTreeMap<(String, String), usize>;

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `pat` occurs in `line` with no identifier character glued to
/// either end of it.
fn holds(line: &str, pat: &str) -> bool {
    line.match_indices(pat).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + pat.len()..].chars().next();
        let open = !pat.starts_with(is_ident) || !before.is_some_and(is_ident);
        let close = !pat.ends_with(is_ident) || !after.is_some_and(is_ident);
        open && close
    })
}

/// Scans the workspace under `root` for `patterns`, skipping paths
/// holding any of `excludes`.
fn census(root: &Path, excludes: &[String], patterns: &[&str]) -> Census {
    let mut out = Census::new();
    for (rel, src) in source::files(root, excludes) {
        for line in source::non_test_lines(&src) {
            for &pat in patterns {
                if holds(line, pat) {
                    *out.entry((rel.clone(), pat.to_string())).or_default() += 1;
                }
            }
        }
    }
    out
}

/// The committed list `name`: `exclude SUBSTR` lines, and `FILE PATTERN
/// LINES reason…` entries, each PATTERN one of `patterns`.
fn listed(name: &str, text: &str, patterns: &[&str]) -> (Vec<String>, Census) {
    let mut excludes = Vec::new();
    let mut entries = Census::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["exclude", substr] = fields[..] {
            excludes.push(substr.to_string());
            continue;
        }
        let [file, pat, count, _reason, ..] = fields[..] else {
            panic!("{name}:{}: want `FILE PATTERN LINES reason`", n + 1);
        };
        assert!(patterns.contains(&pat), "{name}:{}: `{pat}`", n + 1);
        let count = count.parse().expect("a line count");
        let key = (file.to_string(), pat.to_string());
        assert!(
            entries.insert(key, count).is_none(),
            "{name}:{}: twice",
            n + 1
        );
    }
    (excludes, entries)
}

/// Fails unless the source holds `patterns` on exactly the lines the list
/// `name` (text `text`) gives.
fn source_matches_list(name: &str, text: &str, patterns: &[&str]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (excludes, want) = listed(name, text, patterns);
    let found = census(root, &excludes, patterns);
    let mut wrong = Vec::new();
    for ((file, pat), &n) in &found {
        match want.get(&(file.clone(), pat.clone())) {
            Some(&m) if m == n => {}
            Some(&m) => wrong.push(format!("{file} {pat}: {n} lines, listed {m}")),
            None => wrong.push(format!("unlisted: {file} {pat} {n} <reason>")),
        }
    }
    for (file, pat) in want.keys() {
        if !found.contains_key(&(file.clone(), pat.clone())) {
            wrong.push(format!("listed but gone: {file} {pat}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "the source differs from tests/{name}:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn every_raw_exit_is_listed_with_a_reason() {
    source_matches_list("exits.txt", include_str!("exits.txt"), &EXITS);
}

#[test]
fn every_label_dropping_conversion_is_listed_with_a_reason() {
    source_matches_list(
        "conversions.txt",
        include_str!("conversions.txt"),
        &CONVERSIONS,
    );
}

#[test]
fn the_census_skips_test_modules_comments_and_glued_tokens() {
    let src = "\
use std::fs::File;
// a comment naming std::net is not an exit
#![forbid(unsafe_code)]
fn f() { let _ = unsafe { g() }; }
#[cfg(test)]
fn only_in_tests() { std::process::exit(1) }
mod inner {
    #[cfg(test)]
    mod tests {
        fn t() { std::net::TcpStream::connect(\"x\"); }
    }
    fn h(s: &mut TcpStream) { s.write_all(b\"x\"); }
}
#[cfg(test)]
#[allow(unused)]
mod tests {
    fn t() { unsafe { g() } }
}
";
    let lines = source::non_test_lines(src);
    let count = |pat| lines.iter().filter(|l| holds(l, pat)).count();
    assert_eq!(count("std::fs"), 1);
    assert_eq!(count("std::net"), 0, "comment and test module skipped");
    assert_eq!(count("unsafe"), 1, "`unsafe_code` is not `unsafe`");
    assert_eq!(count("std::process"), 1, "a test-only fn is still scanned");
    assert_eq!(count("TcpStream"), 1);
    assert_eq!(count("write_all"), 1);
    assert!(!holds("HashWriter<File>", "File::"));
    assert!(holds("File::open(p)", "File::"));
}
