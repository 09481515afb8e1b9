//! Spans recorded from outside the program: the harness times its own
//! calls into each crate's public functions. Spans stay in memory and are
//! written once, when the traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::median_u64;

/// One timed call. `parent` is the index of the request span that caused
/// it (−1 for a request span itself); spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub request: u32,
    /// Input size of the call where a per-KB metric is derived from it.
    pub bytes: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const REQUEST: &str = "request";

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open request span.
    open: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_request(&mut self, request: u32) {
        let start_ns = self.now();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: REQUEST,
            start_ns,
            end_ns: start_ns,
            parent: -1,
            request,
            bytes: 0,
        });
    }

    pub fn end_request(&mut self) {
        let end = self.now();
        let open = self.open.take().expect("end_request without begin_request");
        self.spans[open].end_ns = end;
    }

    /// Times `f` as a child of the open request span.
    pub fn stage<T>(&mut self, name: &'static str, bytes: usize, f: impl FnOnce() -> T) -> T {
        let parent = self.open.expect("stage outside a request span");
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent as i64,
            request: self.spans[parent].request,
            bytes: bytes as u32,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans called `name`; 0 when there are none.
    pub fn median_ns(&self, name: &str) -> f64 {
        let mut d: Vec<u64> = self.named(name).map(Span::ns).collect();
        median_u64(&mut d) as f64
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Σ duration ÷ Σ KiB of input over the spans called `name`.
    pub fn ns_per_kb(&self, name: &str) -> f64 {
        let bytes: u64 = self.named(name).map(|s| s.bytes as u64).sum();
        if bytes == 0 {
            return 0.0;
        }
        self.total_ns(name) as f64 / (bytes as f64 / 1024.0)
    }

    /// Σ of the child spans whose name passes `keep`.
    pub fn children_ns(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent >= 0 && keep(s.name))
            .map(Span::ns)
            .sum()
    }

    /// A request span's self time: its duration minus the part its child
    /// spans cover. Median over requests.
    pub fn request_self_ns(&self) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                covered[s.parent as usize] += s.ns();
            }
        }
        let mut selfs: Vec<u64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent < 0)
            .map(|(i, s)| s.ns().saturating_sub(covered[i]))
            .collect();
        median_u64(&mut selfs) as f64
    }

    /// Writes the spans to `<scratch>/trace-<workload>.json` and says where.
    pub fn save(&self, workload: &str) {
        let path = crate::workload::workdir().join(format!("trace-{workload}.json"));
        self.write_json(&path, workload).expect("write trace file");
        eprintln!(
            "resin-e2e: {} spans written to {}",
            self.spans.len(),
            path.display()
        );
    }

    /// Writes `{workload, spans:[{name,start_ns,end_ns,parent,request,bytes}]}`.
    fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"bytes\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.request, s.bytes
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What recording one empty stage span costs, so self times can be read
/// net of the tracer's own clock reads and pushes.
pub fn span_overhead_ns() -> f64 {
    let mut t = Tracer::new();
    t.begin_request(0);
    let mut per_span = Vec::with_capacity(15);
    for _ in 0..15 {
        let start = Instant::now();
        for _ in 0..1000 {
            t.stage("calibrate", 0, || ());
        }
        per_span.push(start.elapsed().as_nanos() as f64 / 1000.0);
    }
    crate::stats::median(&per_span)
}

/// Median nanoseconds per call of `f`: batches sized to about a
/// millisecond, the median over 15 batches. For layer functions timed on
/// the workload's own data.
pub fn micro<T>(mut f: impl FnMut() -> T) -> f64 {
    let probe = Instant::now();
    std::hint::black_box(f());
    let once = probe.elapsed().as_nanos().max(1) as u64;
    let iters = (1_000_000 / once).clamp(1, 100_000);
    let mut per_call = Vec::with_capacity(15);
    for _ in 0..15 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    crate::stats::median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_under_their_request_and_self_time_subtracts_them() {
        let mut t = Tracer::new();
        t.begin_request(7);
        t.stage("a", 2048, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.stage("b", 0, || ());
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end_request();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].request),
            (REQUEST, -1, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].request),
            ("a", 0, 7)
        );
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let request = spans[0].ns() as f64;
        let children = t.children_ns(|_| true) as f64;
        assert!(children >= 2_000_000.0);
        let self_ns = t.request_self_ns();
        assert!((self_ns - (request - children)).abs() < 1.0);
        assert!(self_ns >= 1_000_000.0 && self_ns < request);
        // 2 KiB took ≥ 2 ms, so ≥ 1 ms per KiB.
        assert!(t.ns_per_kb("a") >= 1_000_000.0);
        assert_eq!(t.ns_per_kb("b"), 0.0);
        assert_eq!(t.median_ns("missing"), 0.0);
    }

    #[test]
    fn micro_scales_with_the_work() {
        let small = micro(|| (0..10u64).map(std::hint::black_box).sum::<u64>());
        let large = micro(|| (0..10_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(large > small * 20.0, "{small} vs {large}");
    }
}
