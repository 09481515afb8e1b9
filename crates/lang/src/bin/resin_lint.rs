//! `resin-lint` — the RSL policy linter, on the command line.
//!
//! ```text
//! resin-lint policy.rsl                 # lint RSL source files
//! resin-lint --scan crates --scan examples
//!                                       # also sweep directories: .rsl
//!                                       # files are linted whole, .rs
//!                                       # files are scanned for embedded
//!                                       # r#"..."# policies mentioning
//!                                       # export_check (snippets that do
//!                                       # not parse are skipped — many
//!                                       # are fragments)
//! resin-lint --scan crates --exclude lint_fixtures
//!                                       # skip paths containing a substring
//! resin-lint --corpus crates/lang/tests/policy_corpus.txt
//!                                       # the scans and excludes a corpus
//!                                       # list names (`scan DIR`,
//!                                       # `exclude SUBSTR` lines)
//! ```
//!
//! Exit status is 1 when any error-severity diagnostic (or an unparsable
//! `.rsl` file) is found, 0 otherwise — CI runs this over every policy
//! embedded in the tree.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use resin_lang::analysis::lint::{extract_embedded_rsl, CorpusList};
use resin_lang::{lint_source, LintReport};

fn main() -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut corpus = CorpusList::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scan" => match args.next() {
                Some(dir) => corpus.scans.push(dir),
                None => return usage("--scan needs a directory"),
            },
            "--exclude" => match args.next() {
                Some(pat) => corpus.excludes.push(pat),
                None => return usage("--exclude needs a substring"),
            },
            "--corpus" => match args.next().map(|file| read_corpus(&file)) {
                Some(Ok(list)) => {
                    corpus.scans.extend(list.scans);
                    corpus.excludes.extend(list.excludes);
                }
                Some(Err(e)) => return usage(&e),
                None => return usage("--corpus needs a file"),
            },
            "--help" | "-h" => return usage(""),
            _ if arg.starts_with('-') => return usage(&format!("unknown flag {arg}")),
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if files.is_empty() && corpus.scans.is_empty() {
        return usage("nothing to lint");
    }

    let mut stats = Stats::default();
    for file in &files {
        lint_rsl_file(file, &mut stats);
    }
    for dir in &corpus.scans {
        walk(Path::new(dir), &corpus, &mut stats);
    }

    eprintln!(
        "resin-lint: {} polic{} checked, {} error{}, {} warning{}",
        stats.policies,
        if stats.policies == 1 { "y" } else { "ies" },
        stats.errors,
        if stats.errors == 1 { "" } else { "s" },
        stats.warnings,
        if stats.warnings == 1 { "" } else { "s" },
    );
    if stats.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[derive(Default)]
struct Stats {
    policies: usize,
    errors: usize,
    warnings: usize,
}

impl Stats {
    fn absorb(&mut self, origin: &str, reports: Vec<LintReport>) {
        for report in reports {
            self.policies += 1;
            for d in &report.diagnostics {
                match d.severity {
                    resin_lang::Severity::Error => self.errors += 1,
                    resin_lang::Severity::Warning => self.warnings += 1,
                }
                println!("{origin}: {}: {d}", report.class_name);
            }
        }
    }
}

fn lint_rsl_file(path: &Path, stats: &mut Stats) {
    match std::fs::read_to_string(path) {
        Ok(src) => stats.absorb(&path.display().to_string(), lint_source(&src)),
        Err(e) => {
            eprintln!("resin-lint: {}: {e}", path.display());
            stats.errors += 1;
        }
    }
}

fn walk(dir: &Path, corpus: &CorpusList, stats: &mut Stats) {
    let shown = dir.display().to_string();
    if corpus.skips(dir) {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("resin-lint: cannot read directory {shown}");
        stats.errors += 1;
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let shown = path.display().to_string();
        if corpus.skips(&path) {
            continue;
        }
        if path.is_dir() {
            walk(&path, corpus, stats);
        } else if shown.ends_with(".rsl") {
            lint_rsl_file(&path, stats);
        } else if shown.ends_with(".rs") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            for (line, snippet) in extract_embedded_rsl(&src) {
                // Embedded snippets are often fragments interpolated at
                // runtime; only lint the ones that parse standalone.
                if resin_lang::parse_program(&snippet).is_ok() {
                    stats.absorb(&format!("{shown}:{line}"), lint_source(&snippet));
                }
            }
        }
    }
}

fn read_corpus(file: &str) -> Result<CorpusList, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    CorpusList::parse(&text).map_err(|e| format!("{file}: {e}"))
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("resin-lint: {err}");
    }
    eprintln!(
        "usage: resin-lint [--corpus LIST] [--scan DIR]... [--exclude SUBSTR]... [FILE.rsl]..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
