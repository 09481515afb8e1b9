//! A vendored, API-compatible stand-in for [criterion.rs].
//!
//! The build image has no crates.io access, so the workspace ships this
//! minimal shim instead of the real dependency. It implements the subset of
//! the criterion API that `resin-bench` uses — `Criterion`,
//! `benchmark_group`, `bench_function`, `Bencher::iter`, `BenchmarkId`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros — with
//! a simple calibrated wall-clock measurement loop. Numbers it reports are
//! real medians over sampled batches, good enough to track the perf
//! trajectory in `BENCH_*.json`; swap in the real criterion crate for
//! statistically rigorous confidence intervals.
//!
//! Setting `RESIN_BENCH_QUICK=1` switches every bench to a smoke-test
//! profile (2 samples, milliseconds of measurement) — the shim's
//! equivalent of criterion's `--quick`, used by CI to keep bench code from
//! rotting without paying for stable numbers.
//!
//! [criterion.rs]: https://github.com/bheisler/criterion.rs

#![warn(unreachable_pub)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement configuration and top-level entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(400),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Number of samples collected per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Target total measurement time per benchmark.
    #[cfg(test)]
    fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Target warm-up time per benchmark.
    #[cfg(test)]
    fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let report = run_bench(self, f);
        print_report(name, &report, None);
        self
    }
}

/// Identifies one benchmark within a group, criterion-style.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `group/function/parameter` style id.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Units-of-work declaration so per-element rates can be reported.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements each.
    Elements(u64),
    /// Iterations process this many bytes each.
    Bytes(u64),
}

/// A named collection of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let report = run_bench(self.criterion, f);
        print_report(&format!("{}/{}", self.name, id), &report, self.throughput);
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Handed to each benchmark closure; `iter` runs the measured routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` for the sample's iteration count.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

struct Report {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// True when `RESIN_BENCH_QUICK` is set to a truthy value (anything but
/// empty or `0`): the smoke-test profile used by CI to prove every bench
/// still runs, without paying for stable numbers.
fn quick_mode() -> bool {
    static QUICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *QUICK
        .get_or_init(|| std::env::var("RESIN_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0"))
}

fn run_bench<F>(config: &Criterion, mut f: F) -> Report
where
    F: FnMut(&mut Bencher),
{
    // Quick mode overrides whatever the bench configured — the equivalent
    // of criterion's `--quick` for this shim.
    let (sample_size, measurement_time, warm_up_time) = if quick_mode() {
        (2usize, Duration::from_millis(4), Duration::from_millis(1))
    } else {
        (
            config.sample_size,
            config.measurement_time,
            config.warm_up_time,
        )
    };
    // Calibrate: find an iteration count that takes roughly
    // measurement_time / sample_size per sample.
    let mut iters: u64 = 1;
    let target = measurement_time.as_secs_f64() / sample_size as f64;
    let warm_up_deadline = Instant::now() + warm_up_time;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_sample = b.elapsed.as_secs_f64();
        if per_sample >= target || iters >= 1 << 30 {
            break;
        }
        if Instant::now() >= warm_up_deadline && per_sample > 0.0 {
            iters = ((iters as f64) * (target / per_sample).clamp(1.5, 100.0)) as u64;
            iters = iters.max(1);
            break;
        }
        iters = iters.saturating_mul(2);
    }

    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(b.elapsed.as_secs_f64() * 1e9 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Report {
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: *samples.last().unwrap(),
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn print_report(name: &str, report: &Report, throughput: Option<Throughput>) {
    print!(
        "{name:<50} time: [{} {} {}]",
        format_ns(report.min_ns),
        format_ns(report.median_ns),
        format_ns(report.max_ns),
    );
    match throughput {
        Some(Throughput::Elements(n)) if report.median_ns > 0.0 => {
            let per_sec = n as f64 * 1e9 / report.median_ns;
            print!("  thrpt: {per_sec:.0} elem/s");
        }
        Some(Throughput::Bytes(n)) if report.median_ns > 0.0 => {
            let per_sec = n as f64 * 1e9 / report.median_ns;
            print!("  thrpt: {:.2} MiB/s", per_sec / (1024.0 * 1024.0));
        }
        _ => {}
    }
    println!();
}

/// Declares a group of benchmark functions, criterion-style.
///
/// Supports both the plain list form and the
/// `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                let mut criterion: $crate::Criterion = $config;
                $target(&mut criterion);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates a `main` that runs every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn group_with_throughput() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(10));
        g.bench_function(BenchmarkId::from_parameter("p"), |b| b.iter(|| 2 * 2));
        g.finish();
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
