//! What the benchmark reads from the host: CPU time per thread, peak RSS,
//! steal and load — the record that makes a noisy run explainable.

use std::fs;
use std::process::Command;

/// Prefix of the load-generating threads' names; their CPU time is the
/// client's, not the server's, and is left out of `cpu_us_per_op`.
pub const CLIENT_THREAD_PREFIX: &str = "e2e-client";

/// On-CPU nanoseconds summed over the live threads of this process whose
/// name passes `keep`, from `/proc/self/task/*/schedstat` (ns resolution;
/// `/proc/self/stat` counts 10 ms ticks).
fn thread_cpu_ns(keep: impl Fn(&str) -> bool) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0u64;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !keep(comm.trim_end()) {
            continue;
        }
        let stat = fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        total += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

/// CPU time of everything but the client threads: the server side's cost,
/// blind to waiting.
pub fn server_cpu_ns() -> u64 {
    thread_cpu_ns(|name| !name.starts_with(CLIENT_THREAD_PREFIX))
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(total, steal)` jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0))
}

pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed loop, half the cores for the clients and half for the server.
pub fn clients() -> usize {
    (nproc() / 2).max(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The noise record every output carries.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub clients: usize,
    pub kernel: String,
    pub rustc: String,
    pub git_sha: String,
    pub loadavg_1m: f64,
    pub steal_ratio: f64,
}

impl HostRecord {
    /// A run on a host that was stealing more than 2 % of the CPU or was
    /// loaded past its core count is kept, but flagged.
    pub fn noisy(&self) -> bool {
        self.steal_ratio > 0.02 || self.loadavg_1m > self.nproc as f64
    }
}

/// Samples taken at process start; `finish` closes the steal interval.
pub struct HostProbe {
    loadavg_1m: f64,
    jiffies: (u64, u64),
}

impl HostProbe {
    pub fn start() -> HostProbe {
        HostProbe {
            loadavg_1m: loadavg_1m(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn finish(&self) -> HostRecord {
        let (total, steal) = cpu_jiffies();
        let d_total = total.saturating_sub(self.jiffies.0);
        let d_steal = steal.saturating_sub(self.jiffies.1);
        HostRecord {
            nproc: nproc(),
            clients: clients(),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"]),
            git_sha: command_line("git", &["rev-parse", "--short", "HEAD"]),
            loadavg_1m: self.loadavg_1m,
            steal_ratio: if d_total == 0 {
                0.0
            } else {
                d_steal as f64 / d_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let (total, steal) = cpu_jiffies();
        assert!(total > steal);
        assert!(loadavg_1m() >= 0.0);
        assert!(clients() >= 1 && clients() <= nproc());
    }

    #[test]
    fn cpu_time_is_read_per_named_thread() {
        // Other tests run beside this one, so the check reads only the
        // thread it names: its 60 ms of spinning must be visible under its
        // name, which is what lets `server_cpu_ns` leave clients out.
        let name = "e2e-client-probe"; // 15 bytes is the kernel's limit
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(name[..15].to_string())
                .spawn_scoped(s, move || {
                    let t = std::time::Instant::now();
                    let mut x = 0u64;
                    while t.elapsed().as_millis() < 60 {
                        x = std::hint::black_box(x.wrapping_add(1));
                    }
                    done_tx.send(()).unwrap();
                    exit_rx.recv().ok();
                })
                .unwrap();
            done_rx.recv().unwrap();
            let seen = thread_cpu_ns(|n| n == &name[..15]);
            drop(exit_tx);
            assert!(seen > 30_000_000, "{seen}");
            assert!(name.starts_with(CLIENT_THREAD_PREFIX));
        });
    }

    #[test]
    fn noisy_flag_follows_steal_and_load() {
        let mut h = HostProbe::start().finish();
        h.nproc = 2;
        h.steal_ratio = 0.0;
        h.loadavg_1m = 0.5;
        assert!(!h.noisy());
        h.steal_ratio = 0.03;
        assert!(h.noisy());
        h.steal_ratio = 0.0;
        h.loadavg_1m = 2.5;
        assert!(h.noisy());
    }
}
