//! The metric glossary in code, the run report (JSON out, JSON in), the
//! line the benchmark driver reads, and `--compare`.

use std::fmt::Write as _;

use crate::check::Tally;
use crate::host::HostRecord;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system would see.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before it is a regression.
    pub bound: f64,
    /// An `end_to_end` entry of BENCHMARK.json: defined and never zero on
    /// every workload, and steady enough on this sandbox to hold its bound
    /// run after run. The others are printed with the per-layer metrics
    /// there, and judged by `--compare` all the same.
    pub contract: bool,
}

/// Bounds are at least three times the run-to-run spread (interquartile
/// range over ten seeds, as a share of the median) this sandbox shows on the
/// seed commit in its ordinary state; README.md has the numbers. `p99_ns`
/// spreads by up to 19 % and cannot hold even the 25 % the contract allows
/// with that margin, so it is demoted; `fail_ratio` is zero, and
/// `overhead_ratio` and `stored_bytes_per_user_byte` exist on one workload.
pub const END_TO_END: [MetricDef; 9] = [
    def("setup_s", "s", Better::Lower, 0.25, true),
    def("ops_per_s", "1/s", Better::Higher, 0.25, true),
    def("p50_ns", "ns", Better::Lower, 0.25, true),
    def("p99_ns", "ns", Better::Lower, 0.25, false),
    def("cpu_us_per_op", "us", Better::Lower, 0.25, true),
    def("peak_rss_mb", "MiB", Better::Lower, 0.15, true),
    def("fail_ratio", "ratio", Better::Lower, 0.0, false),
    def("overhead_ratio", "ratio", Better::Lower, 0.05, false),
    def(
        "stored_bytes_per_user_byte",
        "ratio",
        Better::Lower,
        0.01,
        false,
    ),
];

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        contract,
    }
}

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics, `--trace` only: `(name, unit)`. A layer a workload
/// bypasses reads 0 there — that is the prediction, and it is printed.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("net.parse_head_ns", "ns"),
    ("net.build_request_ns", "ns"),
    ("net.conn_ns", "ns"),
    ("net.self_ns", "ns"),
    ("net.tcp_ns", "ns"),
    ("web.serve_request_ns", "ns"),
    ("web.html_escape_ns_per_kb", "ns/KiB"),
    ("web.check_markers_ns_per_kb", "ns/KiB"),
    ("web.echo_ns", "ns"),
    ("web.body_ns", "ns"),
    ("web.session_lookup_ns", "ns"),
    ("sql.point_ns", "ns"),
    ("sql.insert_ns", "ns"),
    ("sql.scan_ns_per_row", "ns"),
    ("sql.parse_ns", "ns"),
    ("sql.query_str_ns", "ns"),
    ("core.concat_ns_per_kb", "ns/KiB"),
    ("core.gate_write_ns_per_kb", "ns/KiB"),
    ("core.label_union_ns", "ns"),
    ("core.serialize_spans_ns", "ns"),
    ("core.deserialize_spans_ns", "ns"),
    ("core.label_growth_per_kop", "count"),
    ("core.union_cache_entries", "count"),
    ("lang.export_check_floor_ns", "ns"),
    ("lang.export_check_loop_ns", "ns"),
    ("lang.export_check_call_ns", "ns"),
    ("lang.check_cache_hit_ratio", "ratio"),
    ("lang.class_load_ns", "ns"),
    ("store.append_ns", "ns"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.fsyncs_per_write", "ratio"),
    ("store.fsync_ns", "ns"),
    ("store.checkpoint_ms", "ms"),
    ("store.segments", "count"),
    ("store.recover_ms", "ms"),
    ("apps.handler_self_ns", "ns"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_ratio", "ratio"),
    ("host.loadavg_1m", "count"),
    ("host.speed_ratio", "ratio"),
    // The end-to-end metrics BENCHMARK.json cannot list as such.
    ("p99_ns", "ns"),
    ("fail_ratio", "ratio"),
    ("overhead_ratio", "ratio"),
    ("stored_bytes_per_user_byte", "ratio"),
    // Counts the trace replays, so a reader can size every ratio above.
    ("trace.requests", "count"),
    ("trace.spans", "count"),
];

/// What one workload's run produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    pub why: String,
    pub workload_hash: u64,
    pub trials: usize,
    pub ops_per_trial: usize,
    pub tail_percentile: f64,
    pub tally: Tally,
    /// End-to-end metrics, in `END_TO_END` order, only those defined here.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Per-layer metrics; only `host.speed_ratio` unless traced.
    pub layers: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output in single-workload runs: the object
/// the benchmark driver reads. Untraced runs carry the end-to-end metrics
/// that hold on every workload, traced runs every per-layer metric.
pub fn driver_line(result: &WorkloadResult, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        for (name, unit) in PER_LAYER {
            let value = match metric_def(name) {
                Some(_) => result.metric(name).map_or(0.0, |s| s.median),
                None => result.layer(name),
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(value),
                quote(unit)
            ));
        }
    } else {
        for def in END_TO_END.iter().filter(|d| d.contract) {
            let value = result.metric(def.name).map_or(0.0, |s| s.median);
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(def.name),
                num(value),
                quote(def.unit)
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct(),
        result.tally.attempted,
        result.tally.failed,
        metrics.join(",")
    )
}

/// A whole run: every workload it covered plus the host's noise record.
pub struct Report {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub host: HostRecord,
    pub workloads: Vec<WorkloadResult>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let h = &self.host;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tool\":\"resin-e2e\",\"format\":1,\"seed\":{},\"seconds\":{},\"quick\":{},\n\"host\":{{\"nproc\":{},\"clients\":{},\"kernel\":{},\"rustc\":{},\"git_sha\":{},\"loadavg_1m\":{},\"steal_ratio\":{},\"noisy_host\":{}}},\n\"workloads\":[",
            self.seed,
            self.seconds,
            self.quick,
            h.nproc,
            h.clients,
            quote(&h.kernel),
            quote(&h.rustc),
            quote(&h.git_sha),
            num(h.loadavg_1m),
            num(h.steal_ratio),
            h.noisy()
        );
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"why\":{},\"workload_hash\":\"{:016x}\",\"trials\":{},\"ops_per_trial\":{},\"tail_percentile\":{},\"attempted\":{},\"failed\":{},\n \"metrics\":{{",
                quote(&w.name),
                quote(&w.why),
                w.workload_hash,
                w.trials,
                w.ops_per_trial,
                num(w.tail_percentile),
                w.tally.attempted,
                w.tally.failed
            );
            for (j, (name, s)) in w.metrics.iter().enumerate() {
                let def = metric_def(name).expect("metric in glossary");
                let _ = write!(
                    out,
                    "{}\n  {}:{{\"unit\":{},\"median\":{},\"min\":{},\"max\":{},\"bound\":{},\"better\":\"{}\"}}",
                    if j > 0 { "," } else { "" },
                    quote(name),
                    quote(def.unit),
                    num(s.median),
                    num(s.min),
                    num(s.max),
                    num(def.bound),
                    if def.better == Better::Lower { "lower" } else { "higher" }
                );
            }
            out.push_str("},\n \"layers\":{");
            for (j, (name, v)) in w.layers.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{}:{}",
                    if j > 0 { "," } else { "" },
                    quote(name),
                    num(*v)
                );
            }
            out.push_str("},\n \"notes\":[");
            for (j, n) in w.notes.iter().enumerate() {
                let _ = write!(out, "{}{}", if j > 0 { "," } else { "" }, quote(n));
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn to_text(&self) -> String {
        let h = &self.host;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "resin-e2e seed={} seconds={}{}  nproc={} clients={} (closed loop, workers=clients)  kernel={} {} git={}",
            self.seed,
            self.seconds,
            if self.quick { " quick" } else { "" },
            h.nproc,
            h.clients,
            h.kernel,
            h.rustc,
            h.git_sha
        );
        let _ = writeln!(
            out,
            "host: loadavg_1m={:.2} at start, steal_ratio={:.4} over the run{}",
            h.loadavg_1m,
            h.steal_ratio,
            if h.noisy() { "  [noisy-host]" } else { "" }
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n{}  hash={:016x}  {} trials x {} ops  tail=p{}  attempted={} failed={}",
                w.name,
                w.workload_hash,
                w.trials,
                w.ops_per_trial,
                w.tail_percentile * 100.0,
                w.tally.attempted,
                w.tally.failed
            );
            for (name, s) in &w.metrics {
                let def = metric_def(name).expect("metric in glossary");
                let paper = if *name == "overhead_ratio" {
                    "  (paper: 1.33)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>14.4} {:<6} min {:.4} max {:.4}  bound {}%{}",
                    name,
                    s.median,
                    def.unit,
                    s.min,
                    s.max,
                    def.bound * 100.0,
                    paper
                );
            }
            for (name, v) in &w.layers {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| u);
                let _ = writeln!(out, "    {name:<30} {v:>14.4} {unit}");
            }
            for n in &w.notes {
                let _ = writeln!(out, "  note: {n}");
            }
        }
        out
    }
}

// ---- reading a report back (for `--compare` and for merging children) ----

/// A JSON value; just enough of a parser to read what `to_json` writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.src[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.src[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.src[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.src.get(self.pos + 1).ok_or("dangling escape")?;
                    self.pos += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.src.get(self.pos..self.pos + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(v)
}

// ---- --compare ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareVerdict {
    Ok,
    Regressed,
    /// Either side's own min–max spread exceeds the bound and the two
    /// ranges overlap: the runs cannot tell the sides apart.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`'s median; negative
/// when `b` is better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 {
            0.0
        } else if (b > a) == (better == Better::Lower) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(def: &MetricDef, a: Summary, b: Summary) -> CompareVerdict {
    let overlap = a.min <= b.max && b.min <= a.max;
    if overlap && (a.spread() > def.bound || b.spread() > def.bound) {
        return CompareVerdict::Unresolved;
    }
    if worsening(def.better, a.median, b.median) > def.bound {
        CompareVerdict::Regressed
    } else {
        CompareVerdict::Ok
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.num()?,
        min: metric.get("min")?.num()?,
        max: metric.get("max")?.num()?,
    })
}

/// Compares two reports row by row. Returns the table and whether the
/// comparison passes (no `regressed`, equal workload hashes).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<27} {:>13} {:>25} {:>13} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "worse", "bound"
    );
    let a_workloads = a.get("workloads").ok_or("A has no workloads")?.arr();
    let b_workloads = b.get("workloads").ok_or("B has no workloads")?.arr();
    for wa in a_workloads {
        let name = wa
            .get("name")
            .and_then(Json::str)
            .ok_or("workload without a name")?;
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<14} missing from B");
            pass = false;
            continue;
        };
        let hash = |w: &Json| {
            w.get("workload_hash")
                .and_then(Json::str)
                .unwrap_or("")
                .to_string()
        };
        if hash(wa) != hash(wb) {
            let _ = writeln!(
                out,
                "{name:<14} workload_hash differs ({} vs {}): the two runs did different work",
                hash(wa),
                hash(wb)
            );
            pass = false;
            continue;
        }
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                wa.get("metrics").and_then(|m| m.get(def.name)),
                wb.get("metrics").and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let (sa, sb) = (
                summary_of(ma).ok_or("malformed metric in A")?,
                summary_of(mb).ok_or("malformed metric in B")?,
            );
            let v = verdict(def, sa, sb);
            if v == CompareVerdict::Regressed {
                pass = false;
            }
            let _ = writeln!(
                out,
                "{:<14} {:<27} {:>13.4} {:>25} {:>13.4} {:>25} {:>+7.2}% {:>5.1}%  {}",
                name,
                def.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.min, sa.max),
                sb.median,
                format!("{:.4}..{:.4}", sb.min, sb.max),
                worsening(def.better, sa.median, sb.median) * 100.0,
                def.bound * 100.0,
                match v {
                    CompareVerdict::Ok => "ok",
                    CompareVerdict::Regressed => "regressed",
                    CompareVerdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary { median, min, max }
    }

    #[test]
    fn the_three_verdicts() {
        let p50 = metric_def("p50_ns").unwrap(); // lower is better, 25 %
                                                 // Tight on both sides, 10 % worse: within the bound.
        assert_eq!(
            verdict(p50, s(100.0, 99.0, 101.0), s(110.0, 109.0, 111.0)),
            CompareVerdict::Ok
        );
        // Tight on both sides, 30 % worse: regressed.
        assert_eq!(
            verdict(p50, s(100.0, 99.0, 101.0), s(130.0, 129.0, 131.0)),
            CompareVerdict::Regressed
        );
        // One side's own spread is 40 % and the ranges overlap: the runs
        // cannot settle it either way.
        assert_eq!(
            verdict(p50, s(100.0, 90.0, 130.0), s(128.0, 127.0, 129.0)),
            CompareVerdict::Unresolved
        );
        // A wide spread whose range lies wholly beyond the other side's is
        // still resolved.
        assert_eq!(
            verdict(p50, s(100.0, 99.0, 101.0), s(170.0, 140.0, 190.0)),
            CompareVerdict::Regressed
        );
        // Higher-is-better metrics flip the direction.
        let ops = metric_def("ops_per_s").unwrap();
        assert_eq!(
            verdict(ops, s(1000.0, 995.0, 1005.0), s(700.0, 695.0, 705.0)),
            CompareVerdict::Regressed
        );
        assert_eq!(
            verdict(ops, s(1000.0, 995.0, 1005.0), s(1300.0, 1290.0, 1310.0)),
            CompareVerdict::Ok
        );
    }

    #[test]
    fn a_zero_bound_metric_regresses_on_any_worsening() {
        let fail = metric_def("fail_ratio").unwrap();
        assert_eq!(
            verdict(fail, Summary::single(0.0), Summary::single(0.0)),
            CompareVerdict::Ok
        );
        assert_eq!(
            verdict(fail, Summary::single(0.0), Summary::single(0.001)),
            CompareVerdict::Regressed
        );
        let stored = metric_def("stored_bytes_per_user_byte").unwrap();
        assert_eq!(
            verdict(stored, Summary::single(1.31), Summary::single(1.31)),
            CompareVerdict::Ok
        );
    }

    fn report(p50: f64, hash: u64) -> Report {
        Report {
            seed: 1,
            seconds: 10,
            quick: false,
            host: HostRecord {
                nproc: 2,
                clients: 1,
                kernel: "k".into(),
                rustc: "rustc \"x\"".into(),
                git_sha: "abc".into(),
                loadavg_1m: 0.1,
                steal_ratio: 0.0,
            },
            workloads: vec![WorkloadResult {
                name: "forum_read".into(),
                why: "why".into(),
                workload_hash: hash,
                trials: 5,
                ops_per_trial: 10,
                tail_percentile: 0.99,
                tally: Tally {
                    attempted: 50,
                    failed: 0,
                },
                metrics: vec![("p50_ns", s(p50, p50 - 1.0, p50 + 1.0))],
                layers: vec![("net.conn_ns", 12.5)],
                notes: vec!["a \"note\"".into()],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_its_own_json() {
        let json = parse_json(&report(50_000.0, 0xabc).to_json()).unwrap();
        let w = &json.get("workloads").unwrap().arr()[0];
        assert_eq!(
            w.get("workload_hash").unwrap().str(),
            Some("0000000000000abc")
        );
        let p50 = w.get("metrics").unwrap().get("p50_ns").unwrap();
        assert_eq!(summary_of(p50), Some(s(50_000.0, 49_999.0, 50_001.0)));
        assert_eq!(
            w.get("layers").unwrap().get("net.conn_ns").unwrap().num(),
            Some(12.5)
        );
        assert_eq!(w.get("notes").unwrap().arr()[0].str(), Some("a \"note\""));
        assert_eq!(
            json.get("host").unwrap().get("rustc").unwrap().str(),
            Some("rustc \"x\"")
        );
    }

    #[test]
    fn compare_passes_equal_runs_and_fails_regressions_and_hash_mismatch() {
        let a = parse_json(&report(50_000.0, 1).to_json()).unwrap();
        let same = parse_json(&report(50_500.0, 1).to_json()).unwrap();
        let slow = parse_json(&report(65_000.0, 1).to_json()).unwrap();
        let other = parse_json(&report(50_000.0, 2).to_json()).unwrap();
        let (table, pass) = compare(&a, &same).unwrap();
        assert!(pass && table.contains(" ok"), "{table}");
        let (table, pass) = compare(&a, &slow).unwrap();
        assert!(!pass && table.contains("regressed"), "{table}");
        let (table, pass) = compare(&a, &other).unwrap();
        assert!(!pass && table.contains("workload_hash differs"), "{table}");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = report(50_000.0, 1).workloads.remove(0);
        r.metrics = END_TO_END
            .iter()
            .filter(|d| d.contract)
            .map(|d| (d.name, Summary::single(1.5)))
            .collect();
        let line = parse_json(&driver_line(&r, false)).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ops_per_s",
                "p50_ns",
                "cpu_us_per_op",
                "peak_rss_mb"
            ]
        );
        let traced = parse_json(&driver_line(&r, true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().fields().len(),
            PER_LAYER.len()
        );
        assert_eq!(
            traced
                .get("metrics")
                .unwrap()
                .get("net.conn_ns")
                .unwrap()
                .get("value")
                .unwrap()
                .num(),
            Some(12.5)
        );
    }

    #[test]
    fn benchmark_json_declares_what_the_code_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let better = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        let declared: Vec<(String, String, String, f64)> = decl
            .get("end_to_end")
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().str().unwrap().to_string(),
                    m.get("unit").unwrap().str().unwrap().to_string(),
                    m.get("better").unwrap().str().unwrap().to_string(),
                    m.get("bound").unwrap().num().unwrap(),
                )
            })
            .collect();
        let measured: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|d| d.contract)
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    better(d.better).into(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(declared, measured);
        let layers: Vec<(&str, &str)> = decl
            .get("per_layer")
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().str().unwrap(),
                    m.get("unit").unwrap().str().unwrap(),
                )
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
        let workloads: Vec<&str> = decl
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS.map(|(n, _)| n));
    }
}
