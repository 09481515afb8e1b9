//! What the five workloads share: the run configuration, the frozen
//! sizing rule, per-trial bookkeeping, and the scratch directory.

use std::path::PathBuf;
use std::time::Instant;

use crate::check::{Leak, Tally};
use crate::host::{peak_rss_mb, server_cpu_ns};
use crate::refop::RefOp;
use crate::report::WorkloadResult;
use crate::stats::{median, percentile, tail_percentile, Summary};

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "forum_read",
        "the common case: net parse+taint, sql index probe, policy-column revive, html_escape, marker check, gate export; store and lang idle",
    ),
    (
        "forum_write",
        "writes beside reads: sql insert, span serialisation and WAL append do the most work they ever do, render almost none",
    ),
    (
        "forum_search",
        "sql full scan + LIKE over tainted text and a many-fragment render; the index and the point probe are bypassed",
    ),
    (
        "hotcrp_page",
        "the paper's headline page with an untracked twin; the string-built ResinDb front parses and guards every query; net and store idle",
    ),
    (
        "rsl_page",
        "lang does nearly all the work: 32 script-policy checks per page, half check-cache hits and half misses; net, sql, store idle",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Scales the frozen operation counts: they are sized so that the
    /// trials of a run take about this long on the seed commit.
    pub seconds: u64,
    pub quick: bool,
    pub trace: bool,
}

impl Config {
    /// Trials per workload: 5, or 1 for the smoke profile.
    pub fn trials(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Operations per trial from the count frozen for `--seconds 10`.
    /// Fixed counts, not a deadline: both sides of any later comparison
    /// do identical work.
    pub fn ops(&self, frozen: usize) -> usize {
        let n = frozen * self.seconds as usize / 10;
        (if self.quick { n / 20 } else { n }).max(20)
    }

    /// A table size; only the smoke profile shrinks it.
    pub fn rows(&self, frozen: usize) -> usize {
        (if self.quick { frozen / 20 } else { frozen }).max(8)
    }

    /// Requests the traced replay covers.
    pub fn traced_requests(&self) -> usize {
        if self.quick {
            250
        } else {
            5000
        }
    }
}

/// Scratch space beside the build: `<target-dir>/resin-e2e/`. Inside the
/// checkout, ignored by git, and never under a system temp directory.
pub fn workdir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("executable inside a target directory");
    target.join("resin-e2e")
}

/// One trial in the making: blocks of operations, each scaled by the host
/// speed measured on the working thread just before it (see `refop`).
#[derive(Default)]
pub struct Trial {
    /// Per-operation latencies at the reference speed.
    scaled_ns: Vec<u64>,
    raw_ns: Vec<u64>,
    wall_scaled_ns: f64,
    wall_raw_ns: f64,
    /// Per block: operations per second and CPU µs per operation.
    block_ops_per_s: Vec<f64>,
    block_cpu_us_per_op: Vec<f64>,
    tally: Tally,
}

impl Trial {
    /// Folds in one block. `scale` is `refop::scale_of` of the reference
    /// runs that preceded it.
    pub fn block(
        &mut self,
        scale: f64,
        latencies_ns: &[u64],
        wall_ns: u64,
        cpu_ns: u64,
        tally: Tally,
    ) {
        self.raw_ns.extend_from_slice(latencies_ns);
        self.scaled_ns
            .extend(latencies_ns.iter().map(|&ns| (ns as f64 * scale) as u64));
        self.wall_raw_ns += wall_ns as f64;
        self.wall_scaled_ns += wall_ns as f64 * scale;
        if !latencies_ns.is_empty() {
            let ops = latencies_ns.len() as f64;
            self.block_ops_per_s
                .push(ops / (wall_ns.max(1) as f64 * scale / 1e9));
            self.block_cpu_us_per_op
                .push(cpu_ns as f64 * scale / 1e3 / ops);
        }
        self.tally.add(tally);
    }

    /// Counts checked operations that are not part of the timed work (the
    /// untracked twin's pages).
    pub fn count(&mut self, tally: Tally) {
        self.tally.add(tally);
    }
}

/// Sets the workload up `cfg.setups()` times, tearing each earlier one down
/// first, and returns the last with every set-up's duration in seconds at
/// the reference speed. Set-up runs on the calling thread; so do the
/// readings of the host's speed around it.
pub fn timed_setups<T>(
    cfg: &Config,
    mut setup: impl FnMut(usize) -> Result<T, Leak>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), Leak> {
    let refop = RefOp::new();
    let mut seconds = Vec::new();
    let mut ready = None;
    for rep in 0..cfg.setups() {
        if let Some(previous) = ready.take() {
            teardown(previous);
        }
        let before = refop.scale_now();
        let t = Instant::now();
        ready = Some(setup(rep)?);
        let s = t.elapsed().as_secs_f64();
        seconds.push(s * (before + refop.scale_now()) / 2.0);
    }
    Ok((ready.expect("at least one set-up"), seconds))
}

/// Per-trial values of the metrics every workload reports. Times are at
/// the reference speed; the raw p50 and the host's speed ride along.
#[derive(Default)]
pub struct Trials {
    pub ops_per_s: Vec<f64>,
    pub p50_ns: Vec<f64>,
    pub tail_ns: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    /// p50 as the clock read it, before scaling.
    pub raw_p50_ns: Vec<f64>,
    /// Measured time ÷ time at the reference speed: 1 is the reference
    /// host, above 1 a slower one.
    pub speed_ratio: Vec<f64>,
    /// Live labels in the process-wide table after each trial.
    pub labels_after: Vec<usize>,
    pub tally: Tally,
}

impl Trials {
    pub fn push(&mut self, mut trial: Trial) {
        trial.scaled_ns.sort_unstable();
        trial.raw_ns.sort_unstable();
        // The median block, not the mean over the trial: one block that
        // the host preempted for a few milliseconds must not set the rate.
        self.ops_per_s.push(median(&trial.block_ops_per_s));
        self.p50_ns.push(percentile(&trial.scaled_ns, 0.50) as f64);
        self.tail_ns
            .push(percentile(&trial.scaled_ns, tail_percentile(trial.scaled_ns.len())) as f64);
        self.cpu_us_per_op.push(median(&trial.block_cpu_us_per_op));
        self.raw_p50_ns.push(percentile(&trial.raw_ns, 0.50) as f64);
        self.speed_ratio
            .push(trial.wall_raw_ns / trial.wall_scaled_ns.max(1.0));
        self.labels_after
            .push(resin_core::LabelTable::global().stats().labels);
        self.tally.add(trial.tally);
    }

    /// Labels gained per 1 000 operations between the end of the first
    /// trial and the end of the last; expected 0.
    pub fn label_growth_per_kop(&self, ops_per_trial: usize) -> f64 {
        let (Some(first), Some(last)) = (self.labels_after.first(), self.labels_after.last())
        else {
            return 0.0;
        };
        let kops = ((self.labels_after.len() - 1) * ops_per_trial) as f64 / 1000.0;
        if kops == 0.0 {
            return 0.0;
        }
        (*last as f64 - *first as f64) / kops
    }

    /// The result every workload starts from; the caller appends what is
    /// its own (`overhead_ratio`, `stored_bytes_per_user_byte`, layers).
    pub fn into_result(
        self,
        name: &str,
        workload_hash: u64,
        ops_per_trial: usize,
        setup_s: &[f64],
    ) -> WorkloadResult {
        let why = WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, why)| why);
        let growth = self.label_growth_per_kop(ops_per_trial);
        let metrics = vec![
            ("setup_s", Summary::of(setup_s)),
            ("ops_per_s", Summary::of(&self.ops_per_s)),
            ("p50_ns", Summary::of(&self.p50_ns)),
            ("p99_ns", Summary::of(&self.tail_ns)),
            ("cpu_us_per_op", Summary::of(&self.cpu_us_per_op)),
            ("peak_rss_mb", Summary::single(peak_rss_mb())),
            ("fail_ratio", Summary::single(self.tally.fail_ratio())),
        ];
        WorkloadResult {
            name: name.to_string(),
            why: why.to_string(),
            workload_hash,
            trials: self.ops_per_s.len(),
            ops_per_trial,
            tail_percentile: tail_percentile(ops_per_trial),
            tally: self.tally,
            metrics,
            layers: vec![("host.speed_ratio", median(&self.speed_ratio))],
            notes: vec![
                format!(
                    "times are at the reference speed; host.speed_ratio per trial {:?}, raw p50_ns per trial {:?}",
                    self.speed_ratio.iter().map(|r| (r * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
                    self.raw_p50_ns
                ),
                format!(
                    "core.label_growth_per_kop = {growth} (labels after each trial: {:?})",
                    self.labels_after
                ),
            ],
        }
    }
}

/// Wall and server-CPU time of an in-process stretch of work.
pub struct Stopwatch {
    started: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_ns: server_cpu_ns(),
            started: Instant::now(),
        }
    }

    /// `(wall_ns, cpu_ns)` since `start`.
    pub fn stop(&self) -> (u64, u64) {
        let wall = self.started.elapsed().as_nanos() as u64;
        (wall, server_cpu_ns().saturating_sub(self.cpu_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_quick_divides_by_twenty() {
        let full = Config {
            seed: 1,
            seconds: 10,
            quick: false,
            trace: false,
        };
        assert_eq!(
            (full.ops(30_000), full.trials(), full.setups()),
            (30_000, 5, 3)
        );
        assert_eq!(Config { seconds: 5, ..full }.ops(30_000), 15_000);
        let quick = Config {
            quick: true,
            ..full
        };
        assert_eq!(
            (quick.ops(30_000), quick.trials(), quick.setups()),
            (1_500, 1, 1)
        );
        assert_eq!(quick.rows(20_000), 1_000);
        assert_eq!(quick.ops(100), 20, "never fewer than 20 operations");
    }

    #[test]
    fn trials_reduce_to_median_min_max() {
        let mut t = Trials::default();
        for (shift, wall) in [(0u64, 1_000_000u64), (10, 2_000_000), (20, 4_000_000)] {
            let lat: Vec<u64> = (1..=1000).map(|v| v + shift).collect();
            let mut trial = Trial::default();
            trial.block(
                1.0,
                &lat,
                wall,
                500_000,
                Tally {
                    attempted: 1000,
                    failed: 0,
                },
            );
            t.push(trial);
        }
        assert_eq!(t.p50_ns, [500.0, 510.0, 520.0]);
        assert_eq!(t.tail_ns, [990.0, 1000.0, 1010.0]);
        assert_eq!(t.ops_per_s, [1e6, 5e5, 2.5e5]);
        assert_eq!(t.cpu_us_per_op, [0.5, 0.5, 0.5]);
        let r = t.into_result("forum_read", 9, 1000, &[0.3, 0.1, 0.2]);
        let p50 = r.metric("p50_ns").unwrap();
        assert_eq!((p50.median, p50.min, p50.max), (510.0, 500.0, 520.0));
        assert_eq!(r.metric("setup_s").unwrap().median, 0.2);
        assert_eq!(r.metric("ops_per_s").unwrap().median, 5e5);
        assert_eq!(r.tally.attempted, 3000);
        assert!(r.correct());
        assert_eq!(r.tail_percentile, 0.99);
    }

    #[test]
    fn blocks_are_brought_to_the_reference_speed() {
        // The same work on a host running at half speed, then at nominal:
        // both blocks must read the same once scaled.
        let mut trial = Trial::default();
        let slow: Vec<u64> = vec![2000; 500];
        let nominal: Vec<u64> = vec![1000; 500];
        trial.block(
            0.5,
            &slow,
            1_000_000,
            800_000,
            Tally {
                attempted: 500,
                failed: 0,
            },
        );
        trial.block(
            1.0,
            &nominal,
            500_000,
            400_000,
            Tally {
                attempted: 500,
                failed: 0,
            },
        );
        let mut t = Trials::default();
        t.push(trial);
        assert_eq!(t.p50_ns, [1000.0]);
        assert_eq!(
            t.raw_p50_ns,
            [1000.0],
            "raw median sits on the boundary of the two halves"
        );
        assert_eq!(t.ops_per_s, [1e6]);
        assert_eq!(t.cpu_us_per_op, [0.8]);
        assert_eq!(t.speed_ratio, [1.5]);
    }

    #[test]
    fn one_preempted_block_does_not_set_the_trial_rate() {
        let mut trial = Trial::default();
        let lat = vec![1000u64; 100];
        for wall in [100_000u64, 100_000, 900_000, 100_000, 100_000] {
            trial.block(
                1.0,
                &lat,
                wall,
                wall,
                Tally {
                    attempted: 100,
                    failed: 0,
                },
            );
        }
        let mut t = Trials::default();
        t.push(trial);
        assert_eq!(t.ops_per_s, [1e6]);
        assert_eq!(t.cpu_us_per_op, [1.0]);
    }

    #[test]
    fn label_growth_is_per_thousand_operations_after_the_first_trial() {
        let t = Trials {
            labels_after: vec![100, 100, 104],
            ..Trials::default()
        };
        assert_eq!(t.label_growth_per_kop(2000), 1.0);
        assert_eq!(Trials::default().label_growth_per_kop(2000), 0.0);
    }
}
