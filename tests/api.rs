//! The public-surface census (`tests/api.txt`): every `pub` item of a
//! library crate that no code outside the crate's tests uses.
//!
//! An item is *reached* when its name occurs as a whole token in the
//! non-test source of a user: another library crate, the root `src/`,
//! `examples/`, a bin or bench target, or `resin-e2e/src`. An item named
//! in the declaration of a reached item of its own crate (a signature, a
//! public field, a variant, an alias, a trait's items) is reached the same
//! way, since rustc keeps it as public as the item that names it. A name
//! shared with any other item counts, so the census is a lower bound.
//!
//! `tests/api.txt` lists each item that only `resin-e2e` reaches, as
//! `resin-e2e` with the open item that will drop it (the benchmark builds
//! against the public API and cannot follow a change to it), and each item
//! nothing reaches, as `tests` with why a test outside its crate must
//! reach it. Any other item is `pub(crate)`, test-only or gone. The census
//! fails on an unlisted item, on a listed item that is gone or has a user,
//! and on an `allow(dead_code)` or `allow(unused…)` in library source,
//! which would hide a demoted item from rustc's dead-code lint.
//!
//! Non-test source is `support/source.rs`'s, minus each item under
//! `#[cfg(test)]` or `#[cfg(doctest)]` and each file of a test-only module.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

#[path = "support/source.rs"]
mod source;

/// Who reaches an item, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Reach {
    /// Another crate, `src/`, an example, a bin or a bench.
    User,
    /// Only `resin-e2e`.
    E2e,
    /// Nothing outside tests.
    Tests,
}

impl Reach {
    fn reason(self) -> &'static str {
        match self {
            Reach::User => "user",
            Reach::E2e => "resin-e2e",
            Reach::Tests => "tests",
        }
    }
}

/// Files as `(path, text)`.
type Files = Vec<(String, String)>;

/// The source the census reads.
struct Workspace {
    /// Each library crate: its name and its library files.
    libs: Vec<(String, Files)>,
    /// Examples, bins and benches.
    targets: Files,
    /// `resin-e2e/src`.
    e2e: Files,
}

impl Workspace {
    fn load(root: &Path) -> Workspace {
        let mut libs: BTreeMap<String, Files> = BTreeMap::new();
        let mut targets = source::tree(root, "examples");
        for (rel, src) in source::files(root, &[]) {
            if rel.contains("/src/bin/") {
                targets.push((rel, src));
                continue;
            }
            let name = rel
                .strip_prefix("crates/")
                .map_or("resin", |r| r.split('/').next().unwrap());
            libs.entry(name.to_string()).or_default().push((rel, src));
        }
        for name in libs.keys() {
            targets.extend(source::tree(root, &format!("crates/{name}/benches")));
        }
        let libs = libs.into_iter().collect();
        let e2e = source::tree(root, "resin-e2e/src");
        Workspace { libs, targets, e2e }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier tokens of `text`.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The leading identifier of `text`, if it starts with one.
fn ident(text: &str) -> Option<&str> {
    let end = text.find(|c: char| !is_ident(c)).unwrap_or(text.len());
    tokens(&text[..end]).next()
}

fn indent(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

fn is_test_cfg(line: &str) -> bool {
    matches!(line.trim(), "#[cfg(test)]" | "#[cfg(doctest)]")
}

/// The index past the item that starts at `lines[at]`: past its closing
/// brace at its own indent if it opens a block, else past its `;`.
fn item_end(lines: &[&str], at: usize) -> usize {
    if lines[at].trim_end().ends_with('{') {
        let close = format!("{}}}", indent(lines[at]));
        (at + 1..lines.len())
            .find(|&k| lines[k].starts_with(&close) && lines[k].len() <= close.len() + 1)
            .map_or(lines.len(), |k| k + 1)
    } else {
        (at..lines.len())
            .find(|&k| lines[k].trim_end().ends_with([';', '}']))
            .map_or(lines.len(), |k| k + 1)
    }
}

/// The non-test lines of `src`: `source::non_test_lines`, minus every
/// other item under `#[cfg(test)]` or `#[cfg(doctest)]`.
fn code(src: &str) -> Vec<&str> {
    let lines = source::non_test_lines(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if is_test_cfg(lines[i]) {
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim_start().starts_with("#[") {
                j += 1;
            }
            i = if j < lines.len() {
                item_end(&lines, j)
            } else {
                j
            };
            continue;
        }
        out.push(lines[i]);
        i += 1;
    }
    out
}

/// The files of a crate minus each file of a `#[cfg(test)] mod name;`.
fn library_files(files: &Files) -> Vec<(&str, Vec<&str>)> {
    let mut test_dirs = Vec::new();
    for (rel, src) in files {
        let dir = match rel.rsplit_once('/') {
            Some((dir, "lib.rs" | "mod.rs")) => dir.to_string(),
            _ => rel.trim_end_matches(".rs").to_string(),
        };
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !is_test_cfg(line) {
                continue;
            }
            let decl = lines[i + 1..]
                .iter()
                .map(|l| l.trim())
                .find(|l| !l.starts_with("#["))
                .unwrap_or("");
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            if let Some(name) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) {
                test_dirs.push(format!("{dir}/{name}"));
            }
        }
    }
    files
        .iter()
        .filter(|(rel, _)| {
            !test_dirs.iter().any(|d| {
                rel.strip_prefix(d.as_str())
                    .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
            })
        })
        .map(|(rel, src)| (rel.as_str(), code(src)))
        .collect()
}

/// One `pub` item.
struct Item {
    file: String,
    /// `Type::method` for a method, else the item's name.
    name: String,
    /// The token a user names it by.
    token: String,
    is_mod: bool,
    is_use: bool,
    /// The tokens of its declaration that can name another item.
    decl: BTreeSet<String>,
}

/// The keyword and the text after it, for a line declaring a `pub` item.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe ", "extern \"C\" "] {
        match rest.strip_prefix(qualifier) {
            Some(r) if qualifier != "const " || r.starts_with("fn ") => rest = r,
            _ => {}
        }
    }
    [
        "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "use",
    ]
    .into_iter()
    .find_map(|kw| {
        let r = rest.strip_prefix(kw)?.strip_prefix(' ')?;
        Some((kw, r.strip_prefix("mut ").unwrap_or(r)))
    })
}

/// The self type an `impl` header names.
fn impl_type(header: &str) -> Option<String> {
    let mut rest = header.trim_start().strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    if let Some((_, ty)) = rest.split_once(" for ") {
        rest = ty;
    }
    let path = rest.trim_start().split(['<', ' ', '{']).next()?;
    Some(path.rsplit("::").next()?.to_string())
}

/// The text of the declaration at `lines[at]` that can name other items:
/// a function's signature, a constant's or alias's type, a struct's
/// public fields, an enum's variants, a trait's body.
fn declaration(lines: &[&str], at: usize, kind: &str) -> String {
    let end = item_end(lines, at).min(lines.len());
    let head = lines[at].split('{').next().unwrap_or("");
    match kind {
        "fn" => {
            let mut sig = String::new();
            for line in &lines[at..end] {
                sig.push_str(line.split('{').next().unwrap_or(""));
                sig.push(' ');
                if line.contains('{') || line.trim_end().ends_with(';') {
                    break;
                }
            }
            sig
        }
        "const" | "static" => head.split('=').next().unwrap_or("").to_string(),
        "struct" | "union" => {
            let mut text = lines[at].to_string();
            for line in &lines[at + 1..end] {
                if line.trim_start().starts_with("pub ") {
                    text.push_str(line);
                }
            }
            text
        }
        _ => lines[at..end].join(" "),
    }
}

/// The names a `pub use` statement (`text`, up to its `;`) exports.
fn use_names(text: &str) -> Vec<String> {
    let body = text.split(';').next().unwrap_or("");
    let mut names = Vec::new();
    for part in body.split(['{', '}', ',']) {
        let part = part.trim();
        let segs: Vec<&str> = part.split("::").map(str::trim).collect();
        let name = match part.split_once(" as ") {
            Some((_, alias)) => alias.trim(),
            None => match segs[..] {
                [.., parent, "self"] => parent,
                [.., last] => last,
                [] => continue,
            },
        };
        if ident(name) == Some(name) && name != "self" {
            names.push(name.to_string());
        }
    }
    names
}

/// Every `pub` item of one crate's library files.
fn items(files: &[(&str, Vec<&str>)]) -> Vec<Item> {
    let mut out = Vec::new();
    for (rel, lines) in files {
        let mut impls: Vec<(String, String)> = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let line = lines[i];
            if impls.last().is_some_and(|(close, _)| line == close) {
                impls.pop();
            }
            if line.trim_start().starts_with("impl") {
                let header: String = lines[i..]
                    .iter()
                    .take(8)
                    .copied()
                    .collect::<Vec<_>>()
                    .join(" ");
                if let Some(ty) = impl_type(header.split('{').next().unwrap_or("")) {
                    impls.push((format!("{}}}", indent(line)), ty));
                }
            }
            let Some((kind, rest)) = pub_item(line) else {
                i += 1;
                continue;
            };
            if kind == "use" {
                let mut text = rest.to_string();
                while !text.contains(';') && i + 1 < lines.len() {
                    i += 1;
                    text.push(' ');
                    text.push_str(lines[i].trim());
                }
                for name in use_names(&text) {
                    out.push(Item {
                        file: rel.to_string(),
                        name: name.clone(),
                        token: name,
                        is_mod: false,
                        is_use: true,
                        decl: BTreeSet::new(),
                    });
                }
            } else if let Some(token) = ident(rest) {
                let name = match impls.last() {
                    Some((_, ty)) if kind == "fn" => format!("{ty}::{token}"),
                    _ => token.to_string(),
                };
                let decl = declaration(lines, i, kind);
                out.push(Item {
                    file: rel.to_string(),
                    name,
                    token: token.to_string(),
                    is_mod: kind == "mod",
                    is_use: false,
                    decl: tokens(&decl)
                        .filter(|t| *t != token)
                        .map(String::from)
                        .collect(),
                });
            }
            i += 1;
        }
    }
    // A re-export of the crate's own item is that item.
    let declared: HashSet<String> = out
        .iter()
        .filter(|it| !it.is_use)
        .map(|it| it.token.clone())
        .collect();
    out.retain(|it| !it.is_use || !declared.contains(&it.token));
    out
}

fn token_set<'a>(files: impl IntoIterator<Item = &'a (String, String)>) -> HashSet<String> {
    let mut set = HashSet::new();
    for (_, src) in files {
        for line in code(src) {
            set.extend(tokens(line).map(String::from));
        }
    }
    set
}

/// Each `pub` item's reach, keyed by (file, name).
fn census(ws: &Workspace) -> BTreeMap<(String, String), Reach> {
    let lib_tokens: Vec<HashSet<String>> = ws
        .libs
        .iter()
        .map(|(_, files)| {
            let lib = library_files(files);
            let mut set = HashSet::new();
            for (_, lines) in &lib {
                for line in lines {
                    set.extend(tokens(line).map(String::from));
                }
            }
            set
        })
        .collect();
    let target_tokens = token_set(&ws.targets);
    let e2e_tokens = token_set(&ws.e2e);
    let mut out = BTreeMap::new();
    for (c, (_, files)) in ws.libs.iter().enumerate() {
        let items = items(&library_files(files));
        let used = |token: &str| {
            target_tokens.contains(token)
                || lib_tokens
                    .iter()
                    .enumerate()
                    .any(|(o, set)| o != c && set.contains(token))
        };
        // Each name's best reach; a module's is its own.
        let mut by_name: BTreeMap<&str, Reach> = BTreeMap::new();
        for item in items.iter().filter(|it| !it.is_mod) {
            let reach = if used(&item.token) {
                Reach::User
            } else if e2e_tokens.contains(&item.token) {
                Reach::E2e
            } else {
                Reach::Tests
            };
            let best = by_name.entry(&item.token).or_insert(reach);
            *best = (*best).min(reach);
        }
        // A name in a reached declaration is reached as well.
        let mut changed = true;
        while changed {
            changed = false;
            for item in items.iter().filter(|it| !it.is_mod) {
                let reach = by_name[item.token.as_str()];
                for t in &item.decl {
                    if let Some(r) = by_name.get_mut(t.as_str()) {
                        if *r > reach {
                            *r = reach;
                            changed = true;
                        }
                    }
                }
            }
        }
        for item in &items {
            let reach = if !item.is_mod {
                by_name[item.token.as_str()]
            } else if used(&item.token) {
                Reach::User
            } else if e2e_tokens.contains(&item.token) {
                Reach::E2e
            } else {
                Reach::Tests
            };
            out.insert((item.file.clone(), item.name.clone()), reach);
        }
    }
    out
}

/// The committed list: `FILE ITEM REASON why…` entries, REASON `resin-e2e`
/// or `tests`.
fn listed(text: &str) -> Result<BTreeMap<(String, String), Reach>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [file, item, reason, _why, ..] = fields[..] else {
            return Err(format!("api.txt:{}: want `FILE ITEM REASON why`", n + 1));
        };
        let reach = match reason {
            "resin-e2e" => Reach::E2e,
            "tests" => Reach::Tests,
            _ => {
                return Err(format!(
                    "api.txt:{}: reason `{reason}` is not `resin-e2e` or `tests`",
                    n + 1
                ))
            }
        };
        if out
            .insert((file.to_string(), item.to_string()), reach)
            .is_some()
        {
            return Err(format!("api.txt:{}: twice", n + 1));
        }
    }
    Ok(out)
}

/// How the census differs from the list.
fn differences(
    found: &BTreeMap<(String, String), Reach>,
    want: &BTreeMap<(String, String), Reach>,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for ((file, item), &reach) in found {
        if reach == Reach::User {
            continue;
        }
        match want.get(&(file.clone(), item.clone())) {
            Some(&r) if r == reach => {}
            Some(&r) => wrong.push(format!(
                "{file} {item}: listed `{}`, reached by {}",
                r.reason(),
                reach.reason()
            )),
            None => wrong.push(format!("unlisted: {file} {item} {} <why>", reach.reason())),
        }
    }
    for (file, item) in want.keys() {
        match found.get(&(file.clone(), item.clone())) {
            None => wrong.push(format!("listed but gone: {file} {item}")),
            Some(Reach::User) => wrong.push(format!("listed but has a user: {file} {item}")),
            Some(_) => {}
        }
    }
    wrong
}

/// Each line of library source that turns off a dead-code lint.
fn silenced(ws: &Workspace) -> Vec<String> {
    let mut out = Vec::new();
    for (_, files) in &ws.libs {
        for (rel, lines) in library_files(files) {
            for line in lines {
                if line.contains("allow(dead_code") || line.contains("allow(unused") {
                    out.push(format!("{rel}: {}", line.trim()));
                }
            }
        }
    }
    out
}

#[test]
fn every_public_item_without_a_user_is_listed_with_a_reason() {
    let ws = Workspace::load(Path::new(env!("CARGO_MANIFEST_DIR")));
    let want = listed(include_str!("api.txt")).unwrap();
    let wrong = differences(&census(&ws), &want);
    assert!(
        wrong.is_empty(),
        "the public surface differs from tests/api.txt:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn no_library_source_turns_off_the_dead_code_lint() {
    let ws = Workspace::load(Path::new(env!("CARGO_MANIFEST_DIR")));
    let found = silenced(&ws);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn a_reason_is_resin_e2e_or_tests_and_says_why() {
    assert!(listed("a.rs f tests a root test drives it").is_ok());
    assert!(listed("a.rs f resin-e2e rule (iv), until item 12").is_ok());
    let err = listed("a.rs f because it is handy").unwrap_err();
    assert!(err.contains("not `resin-e2e` or `tests`"), "{err}");
    assert!(listed("a.rs f tests").is_err(), "a reason without its why");
    assert!(listed("a.rs f tests why\na.rs f tests why").is_err());
}

#[test]
fn the_census_finds_unused_items_and_stale_entries() {
    let file = |rel: &str, src: &str| (rel.to_string(), src.to_string());
    let lib = "\
pub mod inner;
#[cfg(test)]
mod oracle;
pub use other::Shared;
pub fn used() -> Returned { Returned }
pub struct Returned;
pub fn unused() {}
pub fn benched() {}
pub(crate) fn private() {}
impl Returned {
    pub fn method(&self) {}

    pub fn other_method(&self) {}
}
#[cfg(test)]
pub fn only_in_tests() {}
#[cfg(test)]
mod tests {
    pub fn also_in_tests() {}
}
";
    let ws = Workspace {
        libs: vec![
            (
                "a".into(),
                vec![
                    file("a/src/lib.rs", lib),
                    file("a/src/oracle.rs", "pub fn oracle_fn() {}\n"),
                ],
            ),
            (
                "b".into(),
                vec![file("b/src/lib.rs", "fn f() { a::used().method(); }\n")],
            ),
        ],
        targets: vec![file("examples/x.rs", "// unused() in a comment\n")],
        e2e: vec![file("e2e/src/main.rs", "fn main() { a::benched(); }\n")],
    };
    let found = census(&ws);
    let at = |name: &str| {
        found
            .get(&("a/src/lib.rs".to_string(), name.to_string()))
            .copied()
    };
    assert_eq!(at("used"), Some(Reach::User));
    assert_eq!(
        at("Returned"),
        Some(Reach::User),
        "named by `used`'s signature"
    );
    assert_eq!(at("Returned::method"), Some(Reach::User));
    assert_eq!(at("Returned::other_method"), Some(Reach::Tests));
    assert_eq!(at("unused"), Some(Reach::Tests), "a comment is no user");
    assert_eq!(at("benched"), Some(Reach::E2e));
    assert_eq!(at("inner"), Some(Reach::Tests));
    assert_eq!(at("Shared"), Some(Reach::Tests));
    assert_eq!(at("private"), None);
    assert_eq!(at("only_in_tests"), None);
    assert_eq!(at("also_in_tests"), None);
    assert!(!found.keys().any(|(f, _)| f == "a/src/oracle.rs"));

    let list = "\
a/src/lib.rs Returned::other_method tests why
a/src/lib.rs benched resin-e2e why
a/src/lib.rs inner tests why
a/src/lib.rs Shared tests why
a/src/lib.rs used tests why
a/src/lib.rs gone tests why
";
    let mut wrong = differences(&found, &listed(list).unwrap());
    wrong.sort();
    assert_eq!(
        wrong,
        [
            "listed but gone: a/src/lib.rs gone",
            "listed but has a user: a/src/lib.rs used",
            "unlisted: a/src/lib.rs unused tests <why>",
        ]
    );
}
