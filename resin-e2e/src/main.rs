//! `resin-e2e` — the repo's end-to-end benchmark.
//!
//! ```text
//! resin-e2e [--workload W] [--seed N] [--seconds S] [--quick] [--trace [0|1]] [--out FILE]
//! resin-e2e --compare A.json B.json
//! ```
//!
//! One process per workload, so the process-wide label table, the check
//! caches and `VmHWM` belong to that workload alone; without `--workload`
//! the five run one after another as child processes. See README.md for
//! the load model, the metric glossary and how to read the trace files.

mod check;
mod client;
mod forum;
mod gen;
mod host;
mod hotcrp;
mod refop;
mod report;
mod rsl;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use check::Leak;
use host::HostProbe;
use report::{parse_json, Report, WorkloadResult};
use workload::{Config, WORKLOADS};

struct Args {
    workload: Option<String>,
    cfg: Config,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: resin-e2e [--workload {}] [--seed N] [--seconds S] [--quick] [--trace [0|1]] [--out FILE]\n       resin-e2e --compare A.json B.json",
        WORKLOADS.map(|(n, _)| n).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: 10,
            quick: false,
            trace: false,
        },
        out: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload");
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    eprintln!("unknown workload {w}");
                    usage();
                }
                args.workload = Some(w);
            }
            "--seed" => args.cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.cfg.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(1..=60).contains(&args.cfg.seconds) {
                    eprintln!("--seconds must be 1..=60");
                    usage();
                }
            }
            "--quick" => args.cfg.quick = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match argv.peek().map(String::as_str) {
                Some("0") => {
                    argv.next();
                    args.cfg.trace = false;
                }
                Some("1") => {
                    argv.next();
                    args.cfg.trace = true;
                }
                _ => args.cfg.trace = true,
            },
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("--compare")),
                    PathBuf::from(value("--compare")),
                ))
            }
            _ => {
                eprintln!("unknown argument {arg}");
                usage();
            }
        }
    }
    args
}

fn run_workload(name: &str, cfg: &Config) -> Result<WorkloadResult, Leak> {
    match name {
        "forum_read" => forum::run(forum::Kind::Read, cfg),
        "forum_write" => forum::run(forum::Kind::Write, cfg),
        "forum_search" => forum::run(forum::Kind::Search, cfg),
        "hotcrp_page" => hotcrp::run(cfg),
        "rsl_page" => rsl::run(cfg),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let outcome = load(a).and_then(|a| load(b).and_then(|b| report::compare(&a, &b)));
    match outcome {
        Ok((table, pass)) => {
            print!("{table}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("resin-e2e: --compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process; prints the table and, last, the
/// line the benchmark driver reads.
fn single(name: &str, args: &Args) -> ExitCode {
    let probe = HostProbe::start();
    let mut result = match run_workload(name, &args.cfg) {
        Ok(r) => r,
        Err(Leak(what)) => {
            eprintln!("resin-e2e: LEAK on {name}: {what}; run aborted");
            return ExitCode::from(3);
        }
    };
    let host = probe.finish();
    if args.cfg.trace {
        result.layers.push(("host.steal_ratio", host.steal_ratio));
        result.layers.push(("host.loadavg_1m", host.loadavg_1m));
    }
    let line = report::driver_line(&result, args.cfg.trace);
    let correct = result.correct();
    let report = Report {
        seed: args.cfg.seed,
        seconds: args.cfg.seconds,
        quick: args.cfg.quick,
        host,
        workloads: vec![result],
    };
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("resin-e2e: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.to_text());
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("resin-e2e: {name}: wrong or failed responses; see fail_ratio");
        ExitCode::from(1)
    }
}

/// Runs every workload as a child process and merges their reports.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = workload::workdir();
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let mut merged: Vec<String> = Vec::new();
    let mut head = String::new();
    let mut failed = false;
    for (name, _) in WORKLOADS {
        let out = dir.join(format!("report-{name}-{}.json", std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .args(["--trace", if args.cfg.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out);
        if args.cfg.quick {
            cmd.arg("--quick");
        }
        let started = std::time::Instant::now();
        let status = cmd.status().expect("start child process");
        eprintln!(
            "resin-e2e: {name} took {:.1} s",
            started.elapsed().as_secs_f64()
        );
        if !status.success() {
            eprintln!("resin-e2e: workload {name} exited with {status}");
            failed = true;
        }
        if let Ok(text) = std::fs::read_to_string(&out) {
            // Each child wrote `{head,"workloads":[ one ]}`; splice the one.
            if let Some((h, rest)) = text.split_once("\"workloads\":[") {
                if head.is_empty() {
                    head = h.to_string();
                }
                merged.push(rest.trim_end().trim_end_matches("]}").trim().to_string());
            }
            let _ = std::fs::remove_file(&out);
        }
    }
    if let Some(out) = &args.out {
        let json = format!("{head}\"workloads\":[\n{}\n]}}\n", merged.join(",\n"));
        if parse_json(&json).is_err() || std::fs::write(out, json).is_err() {
            eprintln!("resin-e2e: cannot write {}", out.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    }
}
