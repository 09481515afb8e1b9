//! Linter integration tests: every seeded-unsound fixture is flagged
//! with its expected diagnostic code, by the library and by the
//! `resin-lint` binary, and the real policy corpus embedded across the
//! repository stays free of error-severity findings.

use std::path::{Path, PathBuf};
use std::process::Command;

use resin_lang::analysis::lint::extract_embedded_rsl;
use resin_lang::{lint_source, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_seeded_unsound_fixture_is_flagged() {
    // (fixture, expected code, expected severity)
    let cases = [
        ("rl001_always_allows.rsl", "RL001", Severity::Warning),
        ("rl002_always_denies.rsl", "RL002", Severity::Warning),
        ("rl003_undefined_method.rsl", "RL003", Severity::Error),
        ("rl004_unreachable_deny.rsl", "RL004", Severity::Error),
        ("rl005_infinite_loop.rsl", "RL005", Severity::Error),
        ("rl006_dead_code.rsl", "RL006", Severity::Warning),
        ("rl007_undefined_variable.rsl", "RL007", Severity::Error),
        ("rl008_label_laundering.rsl", "RL008", Severity::Warning),
        ("rl009_never_written_field.rsl", "RL009", Severity::Warning),
        ("rl010_maybe_unassigned.rsl", "RL010", Severity::Warning),
    ];
    for (file, code, severity) in cases {
        let reports = lint_source(&fixture(file));
        assert_eq!(reports.len(), 1, "{file}: exactly one policy class");
        let diag = reports[0]
            .diagnostics
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{file}: expected {code}, got:\n{}", reports[0].render()));
        assert_eq!(diag.severity, severity, "{file}: {code} severity");
    }
}

/// The binary over the fixtures exits with status 1 exactly and prints
/// their findings, so that a build failure or a crash cannot pass for the
/// lint failure the corpus sweep guards against.
#[test]
fn the_binary_fails_the_fixtures_and_prints_their_findings() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures");
    let out = Command::new(env!("CARGO_BIN_EXE_resin-lint"))
        .arg("--scan")
        .arg(&fixtures)
        .output()
        .expect("resin-lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    for (file, finding) in [
        ("rl003_undefined_method.rsl", "RL003 error"),
        ("rl009_never_written_field.rsl", "RL009 warning"),
    ] {
        assert!(
            stdout
                .lines()
                .any(|l| l.contains(file) && l.contains(finding)),
            "{file}: no {finding} in\n{stdout}"
        );
    }
}

#[test]
fn error_fixtures_fail_registration_closed() {
    // The load-time gate refuses exactly the error-severity fixtures.
    for (file, fatal) in [
        ("rl001_always_allows.rsl", false),
        ("rl003_undefined_method.rsl", true),
        ("rl005_infinite_loop.rsl", true),
        ("rl007_undefined_variable.rsl", true),
        ("rl008_label_laundering.rsl", false),
    ] {
        let src = fixture(file);
        let mut interp = resin_lang::Interp::new();
        let result = interp.run(&src);
        if fatal {
            let err = result.expect_err(file);
            assert!(
                err.to_string().contains("rejected by lint"),
                "{file}: {err}"
            );
        } else {
            result.unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(interp.lint_reports().len(), 1, "{file}: warning surfaced");
        }
    }
}

/// Sweeps the repository's real policy corpus — example programs, app
/// crates, benches, integration tests — exactly like the CI `resin-lint`
/// job, asserting zero error-severity diagnostics. The linter's own
/// deliberately-unsound unit-test fixtures (in `crates/lang/src` and
/// `tests/lint_fixtures`) are out of scope: they exist to be flagged.
#[test]
fn embedded_policy_corpus_has_no_error_diagnostics() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut errors = Vec::new();
    let mut policies = 0usize;
    for dir in [
        "examples",
        "tests",
        "crates/apps",
        "crates/sql",
        "crates/bench",
        "crates/net",
        "crates/web",
        "crates/lang/tests",
    ] {
        sweep(&repo.join(dir), &mut policies, &mut errors);
    }
    assert!(policies >= 6, "corpus sweep found only {policies} policies");
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

fn sweep(dir: &Path, policies: &mut usize, errors: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let shown = path.display().to_string();
        if shown.contains("lint_fixtures") || shown.contains("target") {
            continue;
        }
        if path.is_dir() {
            sweep(&path, policies, errors);
            continue;
        }
        let reports = if shown.ends_with(".rsl") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            lint_source(&src)
        } else if shown.ends_with(".rs") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            extract_embedded_rsl(&src)
                .into_iter()
                .filter(|(_, snippet)| resin_lang::parse_program(snippet).is_ok())
                .flat_map(|(_, snippet)| lint_source(&snippet))
                .collect()
        } else {
            continue;
        };
        for report in reports {
            *policies += 1;
            for d in report.errors() {
                errors.push(format!("{shown}: {}: {d}", report.class_name));
            }
        }
    }
}
