//! The non-test source of the workspace, as its censuses read it: every
//! `.rs` file under `src/` and `crates/*/src/`, minus each `#[cfg(test)]`
//! module and every comment line.

use std::path::{Path, PathBuf};

/// The lines of `src` outside its `#[cfg(test)]` modules and comments.
pub fn non_test_lines(src: &str) -> Vec<&str> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            // Past any further attributes to the item the cfg covers.
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim_start().starts_with("#[") {
                j += 1;
            }
            let item = lines.get(j).map_or("", |l| l.trim());
            let is_mod = item.starts_with("mod ") || item.starts_with("pub mod ");
            if is_mod && item.ends_with('{') {
                // The module ends at the first `}` at its own indent.
                let close = format!("{}}}", &line[..line.len() - trimmed.len()]);
                i = (j + 1..lines.len())
                    .find(|&k| lines[k] == close)
                    .map_or(lines.len(), |k| k + 1);
                continue;
            }
        }
        if !trimmed.starts_with("//") {
            out.push(line);
        }
        i += 1;
    }
    out
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `root/dir`, sorted: each path relative to
/// `root`, with its text.
pub fn tree(root: &Path, dir: &str) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rs_files(&root.join(dir), &mut files);
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).unwrap();
            (rel, text)
        })
        .collect()
}

/// Every `.rs` file of the source under `root` (`src/` and each
/// `crates/*/src/`), skipping paths holding any of `excludes`: each path
/// relative to `root`, with its text.
pub fn files(root: &Path, excludes: &[String]) -> Vec<(String, String)> {
    let mut dirs = vec!["src".to_string()];
    for entry in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        dirs.push(format!(
            "crates/{}/src",
            entry.file_name().to_string_lossy()
        ));
    }
    let mut out: Vec<_> = dirs.iter().flat_map(|dir| tree(root, dir)).collect();
    out.sort();
    out.retain(|(rel, _)| !excludes.iter().any(|x| rel.contains(x.as_str())));
    out
}
