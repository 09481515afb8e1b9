//! `rsl_page` — in process: one `Response` receives 32 fragments, each
//! carrying a `ScriptPolicy` checked on the process-default engine. A
//! third are `ChannelGate` (the per-crossing floor), a third
//! `ChannelQuota` (a 64-weight loop), a third `AllowList` (calls a helper
//! method). Half the fragments reuse one policy instance, so their checks
//! hit the check cache; half rotate through 64 distinct field-sets, so
//! theirs miss. A cache win that taxes the miss path shows here.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use resin_core::{Context, GateKind, Policy, Runtime, TaintedString};
use resin_lang::ast::{ClassDecl, StmtKind};
use resin_lang::{check_cache_stats, lint_class, parse_program, PValue, ScriptPolicy, Severity};
use resin_web::Response;

use crate::check::{judge_refused, judge_sampled, Expect, Leak, Tally, Verdict};
use crate::forum::core_micro;
use crate::gen::{body_text, fnv1a, Rng, FNV_OFFSET};
use crate::refop::RefOp;
use crate::report::WorkloadResult;
use crate::trace::{micro, Tracer};
use crate::workload::{timed_setups, Config, Stopwatch, Trial, Trials};

pub const NAME: &str = "rsl_page";

/// Pages per trial at `--seconds 10`.
const OPS: usize = 16_000;
const FRAGMENTS: usize = 32;
const FIELD_SETS: usize = 64;
const WEIGHTS: usize = 64;
/// Pages between two readings of the host's speed.
const BLOCK: usize = 500;
const CANARY_EVERY: usize = 64;
const VIEWER: &str = "reader7";

const CLASSES: [&str; 3] = [
    r#"
class ChannelGate {
    fn init(weights, tag) { this.weights = weights; this.tag = tag; }
    fn export_check(context) {
        if (context["type"] == "http") { return; }
        throw "channel not allowed";
    }
}
"#,
    r#"
class ChannelQuota {
    fn init(weights, tag) { this.weights = weights; this.tag = tag; }
    fn export_check(context) {
        let w = this.weights;
        let n = len(w);
        let acc = 0;
        let i = 0;
        while (i < n) {
            acc = (acc * 33 + w[i]) % 65521;
            i = i + 1;
        }
        if (acc > 70000 + this.tag) { throw "quota exceeded"; }
        if (context["type"] == "http") { return; }
        throw "channel not allowed";
    }
}
"#,
    r#"
class AllowList {
    fn init(users, tag) { this.users = users; this.tag = tag; }
    fn listed(user) {
        let u = this.users;
        let i = 0;
        while (i < len(u)) {
            if (u[i] == user) { return true; }
            i = i + 1;
        }
        return false;
    }
    fn export_check(context) {
        if (context["type"] != "http") { throw "channel not allowed"; }
        if (this.listed(context["user"])) { return; }
        throw "viewer not on the allow list";
    }
}
"#,
];

/// Parses one class and refuses it on an error-severity lint finding, as
/// registration would. This is the "class load" `setup_s` pays for.
fn load_class(src: &str) -> Arc<ClassDecl> {
    let class = parse_program(src)
        .expect("policy source parses")
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .expect("one class per source");
    let report = lint_class(&class);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error),
        "policy class rejected by lint: {:?}",
        report.diagnostics
    );
    class
}

fn fields(kind: usize, tag: i64) -> BTreeMap<String, PValue> {
    let mut f = BTreeMap::new();
    if kind == 2 {
        let users = (0..8).map(|i| PValue::Str(format!("reader{i}"))).collect();
        f.insert("users".to_string(), PValue::List(users));
    } else {
        let weights = (0..WEIGHTS as i64)
            .map(|i| PValue::Int((i * 7 + tag) % 23))
            .collect();
        f.insert("weights".to_string(), PValue::List(weights));
    }
    f.insert("tag".to_string(), PValue::Int(tag));
    f
}

fn fragment(text: String, kind: usize, class: &Arc<ClassDecl>, tag: i64) -> TaintedString {
    let policy = ScriptPolicy::new(class.name.clone(), fields(kind, tag), Some(class.clone()));
    let mut s = TaintedString::from(text);
    s.add_policy(Arc::new(policy));
    s
}

/// Position `p` of a page: the policy kind, and whether it reuses the one
/// instance (first half) or rotates (second half).
fn slot(p: usize) -> (usize, bool) {
    (p % 3, p < FRAGMENTS / 2)
}

struct Ready {
    /// The reused fragment per position of the first half.
    reused: Vec<TaintedString>,
    /// `rotating[kind][k]`: the k-th field-set of that kind.
    rotating: Vec<Vec<TaintedString>>,
    /// Expected page per rotation base.
    expects: Vec<Expect>,
    /// Rotation base of every page: warm-up, then the trials.
    bases: Vec<u8>,
    warm: usize,
}

impl Ready {
    /// The fragment at position `p` of a page with rotation base `base`.
    fn at(&self, base: u8, p: usize) -> &TaintedString {
        let (kind, reuse) = slot(p);
        if reuse {
            &self.reused[p]
        } else {
            &self.rotating[kind][(base as usize + p) % FIELD_SETS]
        }
    }

    fn expected_page(&self, base: u8) -> String {
        (0..FRAGMENTS).map(|p| self.at(base, p).as_str()).collect()
    }
}

fn page_once(ready: &Ready, base: u8) -> String {
    let mut resp = Response::for_user(VIEWER);
    for p in 0..FRAGMENTS {
        resp.echo(ready.at(base, p).clone())
            .expect("policy allows http");
    }
    resp.body()
}

/// The canary: a guarded fragment offered to a channel that is not http.
fn canary(ready: &Ready, base: u8, index: usize) -> Verdict {
    let frag = ready.at(base, FRAGMENTS / 2 + index % (FRAGMENTS / 2));
    let mut gate = Runtime::global().open(GateKind::Email);
    let refused = gate.write(frag.clone()).is_err();
    judge_refused(refused, &gate.output_text(), frag.as_str())
}

fn judge_page(ready: &Ready, index: usize, base: u8, page: &str) -> Verdict {
    if index % CANARY_EVERY == CANARY_EVERY - 1 {
        let v = canary(ready, base, index);
        if v != Verdict::Ok {
            return v;
        }
    }
    let expect = &ready.expects[base as usize];
    judge_sampled(index, expect, 200, page.as_bytes(), &|b| {
        ready.expected_page(b as u8)
    })
}

fn setup(cfg: &Config, ops: usize) -> Result<Ready, Leak> {
    let mut rng = Rng::new(cfg.seed ^ 0x7273_6c70_6167);
    // The check cache keeps one materialised `this` per class declaration,
    // so the reusing and the rotating halves load separate declarations of
    // the same source: interleaved on one declaration every check would
    // miss, and the hit path would go unmeasured.
    let hit_classes: Vec<_> = CLASSES.iter().map(|src| load_class(src)).collect();
    let miss_classes: Vec<_> = CLASSES.iter().map(|src| load_class(src)).collect();
    let reused_sizes = rng.stratified_sizes(FRAGMENTS / 2, 64, 256);
    let reused = (0..FRAGMENTS / 2)
        .map(|p| {
            let text = body_text(&mut rng, reused_sizes[p]);
            fragment(text, slot(p).0, &hit_classes[slot(p).0], 0)
        })
        .collect();
    let rotating = (0..3)
        .map(|kind| {
            let sizes = rng.stratified_sizes(FIELD_SETS, 64, 256);
            (0..FIELD_SETS)
                .map(|k| {
                    let text = body_text(&mut rng, sizes[k]);
                    fragment(text, kind, &miss_classes[kind], 1 + k as i64)
                })
                .collect()
        })
        .collect();
    let warm = ops / 10;
    let bases = (0..warm + ops * cfg.trials())
        .map(|_| rng.below(FIELD_SETS as u64) as u8)
        .collect();
    let mut ready = Ready {
        reused,
        rotating,
        expects: Vec::new(),
        bases,
        warm,
    };
    ready.expects = (0..FIELD_SETS)
        .map(|b| Expect::page(&ready.expected_page(b as u8), b as u32))
        .collect();
    let mut tally = Tally::default();
    for i in 0..warm {
        let page = page_once(&ready, ready.bases[i]);
        tally.record(judge_page(&ready, i, ready.bases[i], &page))?;
    }
    assert_eq!(
        tally.failed, 0,
        "warm-up pages differ from the harness's expected pages"
    );
    Ok(ready)
}

pub fn run(cfg: &Config) -> Result<WorkloadResult, Leak> {
    let ops = cfg.ops(OPS);
    let (ready, setup_s) = timed_setups(cfg, |_| setup(cfg, ops), drop)?;

    let refop = RefOp::new();
    let mut trials = Trials::default();
    let cache_before = check_cache_stats();
    for t in 0..cfg.trials() {
        let range = ready.warm + t * ops..ready.warm + (t + 1) * ops;
        let mut trial = Trial::default();
        for block in range.clone().step_by(BLOCK) {
            let scale = refop.scale_now();
            let mut lat = Vec::with_capacity(BLOCK);
            let mut tally = Tally::default();
            let watch = Stopwatch::start();
            let mut judged_ns = 0u64;
            for i in block..(block + BLOCK).min(range.end) {
                let base = ready.bases[i];
                let t0 = Instant::now();
                let page = page_once(&ready, base);
                lat.push(t0.elapsed().as_nanos() as u64);
                let j = Instant::now();
                tally.record(judge_page(&ready, i, base, &page))?;
                judged_ns += j.elapsed().as_nanos() as u64;
            }
            // Judging is the harness's work, not the program's.
            let (wall, cpu) = watch.stop();
            trial.block(
                scale,
                &lat,
                wall.saturating_sub(judged_ns),
                cpu.saturating_sub(judged_ns),
                tally,
            );
        }
        trials.push(trial);
    }
    let cache_after = check_cache_stats();
    let (hits, misses) = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    let hash = {
        let mut h = FNV_OFFSET;
        for b in 0..FIELD_SETS {
            h = fnv1a(h, ready.expected_page(b as u8).as_bytes());
        }
        fnv1a(h, &ready.bases)
    };
    let growth = trials.label_growth_per_kop(ops);
    let mut result = trials.into_result(NAME, hash, ops, &setup_s);
    result.notes.push(format!(
        "check cache over the trials: {hits} hits, {misses} misses, ratio {hit_ratio:.4}"
    ));
    if cfg.trace {
        let layers = trace(cfg, &ready, growth, hit_ratio, &mut result.tally)?;
        result.layers.extend(layers);
    }
    Ok(result)
}

fn trace(
    cfg: &Config,
    ready: &Ready,
    label_growth: f64,
    hit_ratio: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, Leak> {
    let n = cfg.traced_requests().min(ready.bases.len());
    let mut tracer = Tracer::new();
    let mut untraced_ns = Vec::with_capacity(n);
    for i in 0..n {
        let base = ready.bases[i];
        tracer.begin_request(i as u32);
        let mut resp = tracer.stage("web.response_new", 0, || Response::for_user(VIEWER));
        for p in 0..FRAGMENTS {
            let frag = ready.at(base, p).clone();
            let len = frag.len();
            tracer
                .stage("web.echo", len, || resp.echo(frag))
                .expect("policy allows http");
        }
        let page = tracer.stage("web.body", 0, || resp.body());
        tracer.end_request();
        tally.record(judge_page(ready, i, base, &page))?;
        let t = Instant::now();
        let page = page_once(ready, base);
        untraced_ns.push(t.elapsed().as_nanos() as u64);
        tally.record(judge_page(ready, i, base, &page))?;
    }
    tracer.save(NAME);
    let untraced_total: u64 = untraced_ns.iter().sum();

    // One check per policy kind, on the hit path: the same instance again
    // and again, as `Gate::write` would call it.
    let mut ctx = Context::new(GateKind::Http);
    ctx.set_str("user", VIEWER);
    let check_ns = |p: usize| {
        let policies = ready.reused[p].label().policies();
        let policy: &dyn Policy = policies[0].as_ref();
        micro(|| policy.export_check(&ctx).is_ok())
    };
    // Class load: parse + lint, then the first crossing compiles the check.
    let mut load_ns = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        for (kind, src) in CLASSES.iter().enumerate() {
            let class = load_class(src);
            let frag = fragment("x".to_string(), kind, &class, 0);
            let policies = frag.label().policies();
            policies[0].export_check(&ctx).expect("policy allows http");
        }
        load_ns.push(t.elapsed().as_nanos() as f64 / CLASSES.len() as f64);
    }

    let samples: Vec<TaintedString> = (0..FRAGMENTS).map(|p| ready.at(0, p).clone()).collect();
    let mut layers = vec![
        (
            "web.serve_request_ns",
            crate::stats::median_u64(&mut untraced_ns) as f64,
        ),
        ("web.echo_ns", tracer.median_ns("web.echo")),
        ("web.body_ns", tracer.median_ns("web.body")),
        ("core.label_growth_per_kop", label_growth),
        (
            "core.union_cache_entries",
            resin_core::LabelTable::global().stats().union_cache as f64,
        ),
        ("lang.export_check_floor_ns", check_ns(0)),
        ("lang.export_check_loop_ns", check_ns(1)),
        ("lang.export_check_call_ns", check_ns(2)),
        ("lang.check_cache_hit_ratio", hit_ratio),
        ("lang.class_load_ns", crate::stats::median(&load_ns)),
        ("apps.handler_self_ns", tracer.request_self_ns()),
        (
            "trace.coverage_ratio",
            tracer.children_ns(|_| true) as f64 / untraced_total.max(1) as f64,
        ),
        (
            "trace.overhead_ratio",
            tracer.total_ns(crate::trace::REQUEST) as f64 / untraced_total.max(1) as f64,
        ),
        ("trace.requests", n as f64),
        ("trace.spans", tracer.spans().len() as f64),
    ];
    layers.extend(core_micro(&samples));
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Config {
        Config {
            seed,
            seconds: 10,
            quick: true,
            trace: false,
        }
    }

    #[test]
    fn pages_match_and_half_the_checks_hit_the_cache() {
        let ready = setup(&quick(1), 64).unwrap();
        let (h0, m0) = check_cache_stats();
        for i in 0..64 {
            let base = ready.bases[i];
            let page = page_once(&ready, base);
            assert_eq!(page, ready.expected_page(base));
            assert_eq!(judge_page(&ready, i, base, &page), Verdict::Ok);
        }
        let (h1, m1) = check_cache_stats();
        let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
        // The canary's email-gate check adds a miss or two; the pages
        // themselves are half and half.
        let ratio = hits / (hits + misses);
        assert!(
            (0.47..=0.53).contains(&ratio),
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn a_fragment_is_refused_off_http_and_the_detector_sees_a_crossing() {
        let ready = setup(&quick(2), 20).unwrap();
        assert_eq!(canary(&ready, 0, 63), Verdict::Ok);
        // What a leak looks like to the detector: the write went through.
        let frag = ready.at(0, FRAGMENTS - 1);
        assert!(matches!(
            judge_refused(false, frag.as_str(), frag.as_str()),
            Verdict::Leak(_)
        ));
    }

    #[test]
    fn bases_follow_the_seed() {
        let a = setup(&quick(1), 20).unwrap().bases;
        let b = setup(&quick(1), 20).unwrap().bases;
        let c = setup(&quick(2), 20).unwrap().bases;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
