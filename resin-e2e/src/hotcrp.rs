//! `hotcrp_page` — §7.1 of the paper, in process: the paper page of a
//! 100-paper site for a PC member, once with the assertions on and once
//! with the same code untracked. The only workload with an untracked twin,
//! so the only one that can report `overhead_ratio` (paper: 66 → 88 ms,
//! 1.33).

use std::sync::Arc;
use std::time::Instant;

use resin_apps::HotCrp;
use resin_core::{Acl, PagePolicy, Right, TaintedString};
use resin_sql::{GuardMode, ResinDb, Tracking};
use resin_web::Response;

use crate::check::{judge_anonymous, judge_sampled, Expect, Leak, Tally, Verdict};
use crate::forum::core_micro;
use crate::gen::{fnv1a, plain_text, Rng, FNV_OFFSET};
use crate::refop::RefOp;
use crate::report::WorkloadResult;
use crate::stats::{median, percentile, Summary};
use crate::trace::{micro, Tracer};
use crate::workload::{timed_setups, Config, Stopwatch, Trial, Trials};

pub const NAME: &str = "hotcrp_page";

const PAPERS: usize = 100;
const REVIEWS_PER_PAPER: usize = 3;
const PC_MEMBERS: usize = 20;
/// Tracked operations per trial at `--seconds 10` (as many untracked).
const OPS: usize = 20_000;
/// Tracked and untracked operations alternate in blocks, so drift in the
/// host's speed lands on both sides alike.
const BLOCK: usize = 1_000;
const CANARY_EVERY: usize = 64;

struct Paper {
    title: String,
    abstract_: String,
    authors: Vec<String>,
}

/// The site's content, made from the seed alone.
struct SiteData {
    pc: Vec<String>,
    papers: Vec<Paper>,
    reviews: Vec<String>,
}

fn site_data(cfg: &Config, rng: &mut Rng) -> SiteData {
    let pc = (0..PC_MEMBERS).map(|i| format!("pc{i}@conf.org")).collect();
    let n = cfg.rows(PAPERS);
    let titles = rng.stratified_sizes(n, 40, 120);
    let abstracts = rng.stratified_sizes(n, 500, 1500);
    let papers = (0..n)
        .map(|i| Paper {
            title: plain_text(rng, titles[i]),
            abstract_: plain_text(rng, abstracts[i]),
            authors: (0..2 + i % 3)
                .map(|_| format!("{}@{}.edu", plain_word(rng, 6), plain_word(rng, 5)))
                .collect(),
        })
        .collect::<Vec<_>>();
    let reviews = rng
        .stratified_sizes(papers.len() * REVIEWS_PER_PAPER, 200, 800)
        .into_iter()
        .map(|len| plain_text(rng, len))
        .collect();
    SiteData {
        pc,
        papers,
        reviews,
    }
}

fn plain_word(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Builds the site through `HotCrp`'s public API.
fn build_site(data: &SiteData, resin: bool) -> HotCrp {
    let mut site = HotCrp::new(resin);
    site.register_user("chair@conf.org", "chairpw", true);
    for pc in &data.pc {
        site.register_user(pc, "pcpw", false);
        site.add_pc_member(pc);
    }
    for (i, p) in data.papers.iter().enumerate() {
        let authors: Vec<&str> = p.authors.iter().map(String::as_str).collect();
        // Every submission is anonymous: on the tracked site the author
        // assertion raises on each page and is handled by output buffering.
        site.submit_paper(i as i64 + 1, &p.title, &p.abstract_, &authors, true);
        for r in 0..REVIEWS_PER_PAPER {
            let reviewer = &data.pc[(i + r) % data.pc.len()];
            site.add_review(
                i as i64 + 1,
                reviewer,
                &data.reviews[i * REVIEWS_PER_PAPER + r],
            );
        }
    }
    site
}

/// The page the harness expects, from its own copy of the template.
fn expected_page(p: &Paper, tracked: bool) -> String {
    let authors = if tracked {
        "Anonymous".to_string()
    } else {
        p.authors.join(", ")
    };
    let mut page = format!(
        "<html><head><title>Paper</title></head><body>\n<h1>{}</h1>\n<div class=\"abstract\">{}</div>\n<div class=\"authors\">Authors: {}</div>\n",
        p.title, p.abstract_, authors
    );
    for i in 0..40 {
        page.push_str(&format!(
            "<div class=\"row r{i}\"><span class=\"label\">field {i}</span><span class=\"value\">{}</span></div>\n",
            "x".repeat(160)
        ));
    }
    page.push_str("</body></html>\n");
    page
}

struct Twin {
    site: HotCrp,
    expects: Vec<Expect>,
}

struct Ready {
    data: SiteData,
    tracked: Twin,
    untracked: Twin,
    /// Paper ids of every operation: warm-up, then the trials.
    ids: Vec<u32>,
    warm: usize,
    viewer: String,
}

/// One operation: the page for `viewer`, as a browser would get it.
fn page_once(site: &mut HotCrp, viewer: &str, paper: u32) -> String {
    let mut resp = Response::for_user(viewer);
    site.paper_page(paper as i64, &mut resp)
        .expect("paper page renders");
    resp.body()
}

fn judge_page(
    index: usize,
    twin: &Twin,
    data: &SiteData,
    paper: u32,
    tracked: bool,
    page: &str,
) -> Verdict {
    let p = &data.papers[paper as usize - 1];
    if tracked && index % CANARY_EVERY == CANARY_EVERY - 1 {
        // The canary: the author list must read "Anonymous".
        let leak = judge_anonymous(page, &p.authors.join(", "));
        if leak != Verdict::Ok {
            return leak;
        }
    }
    let expect = &twin.expects[paper as usize - 1];
    judge_sampled(index, expect, 200, page.as_bytes(), &|_| {
        expected_page(p, tracked)
    })
}

fn setup(cfg: &Config, ops: usize) -> Result<Ready, Leak> {
    let mut rng = Rng::new(cfg.seed ^ 0x686f_7463_7270);
    let data = site_data(cfg, &mut rng);
    let twin = |tracked: bool| Twin {
        site: build_site(&data, tracked),
        expects: data
            .papers
            .iter()
            .enumerate()
            .map(|(i, p)| Expect::page(&expected_page(p, tracked), i as u32))
            .collect(),
    };
    let (tracked, untracked) = (twin(true), twin(false));
    let warm = ops / 10;
    let ids = (0..warm + ops * cfg.trials())
        .map(|_| 1 + rng.below(data.papers.len() as u64) as u32)
        .collect();
    let viewer = data.pc[3 % data.pc.len()].clone();
    let mut ready = Ready {
        data,
        tracked,
        untracked,
        ids,
        warm,
        viewer,
    };
    let mut tally = Tally::default();
    for i in 0..warm {
        let id = ready.ids[i];
        for tracked in [true, false] {
            let twin = if tracked {
                &mut ready.tracked
            } else {
                &mut ready.untracked
            };
            let page = page_once(&mut twin.site, &ready.viewer, id);
            tally.record(judge_page(i, twin, &ready.data, id, tracked, &page))?;
        }
    }
    assert_eq!(
        tally.failed, 0,
        "warm-up pages differ from the harness's expected pages"
    );
    Ok(ready)
}

pub fn run(cfg: &Config) -> Result<WorkloadResult, Leak> {
    let ops = cfg.ops(OPS);
    let (mut ready, setup_s) = timed_setups(cfg, |_| setup(cfg, ops), drop)?;

    let refop = RefOp::new();
    let mut trials = Trials::default();
    let mut overhead = Vec::new();
    for t in 0..cfg.trials() {
        let range = ready.warm + t * ops..ready.warm + (t + 1) * ops;
        let mut trial = Trial::default();
        let mut tracked_raw = Vec::with_capacity(ops);
        let mut untracked_raw = Vec::with_capacity(ops);
        for block in range.clone().step_by(BLOCK) {
            let block = block..(block + BLOCK).min(range.end);
            let scale = refop.scale_now();
            for tracked in [true, false] {
                let twin = if tracked {
                    &mut ready.tracked
                } else {
                    &mut ready.untracked
                };
                let mut lat = Vec::with_capacity(block.len());
                let mut tally = Tally::default();
                let watch = Stopwatch::start();
                let mut judged_ns = 0u64;
                for i in block.clone() {
                    let id = ready.ids[i];
                    let t0 = Instant::now();
                    let page = page_once(&mut twin.site, &ready.viewer, id);
                    lat.push(t0.elapsed().as_nanos() as u64);
                    let j = Instant::now();
                    tally.record(judge_page(i, twin, &ready.data, id, tracked, &page))?;
                    judged_ns += j.elapsed().as_nanos() as u64;
                }
                // Judging is the harness's work, not the program's.
                let (wall, cpu) = watch.stop();
                let (wall, cpu) = (
                    wall.saturating_sub(judged_ns),
                    cpu.saturating_sub(judged_ns),
                );
                if tracked {
                    tracked_raw.extend_from_slice(&lat);
                    trial.block(scale, &lat, wall, cpu, tally);
                } else {
                    untracked_raw.extend_from_slice(&lat);
                    trial.count(tally);
                }
            }
        }
        trials.push(trial);
        // Both sides ran in the same blocks under the same host, so the
        // ratio needs no scaling.
        tracked_raw.sort_unstable();
        untracked_raw.sort_unstable();
        overhead.push(
            percentile(&tracked_raw, 0.50) as f64
                / (percentile(&untracked_raw, 0.50) as f64).max(1.0),
        );
    }

    let hash = {
        let mut h = FNV_OFFSET;
        for p in &ready.data.papers {
            h = fnv1a(h, p.title.as_bytes());
            h = fnv1a(h, p.abstract_.as_bytes());
            h = fnv1a(h, p.authors.join(",").as_bytes());
        }
        for id in &ready.ids {
            h = fnv1a(h, &id.to_le_bytes());
        }
        h
    };
    let growth = trials.label_growth_per_kop(ops * 2);
    let mut result = trials.into_result(NAME, hash, ops, &setup_s);
    result
        .metrics
        .push(("overhead_ratio", Summary::of(&overhead)));
    result.notes.push(format!(
        "overhead_ratio = tracked p50 / untracked p50 = {:.3}; the paper reports 1.33 (66 -> 88 ms)",
        median(&overhead)
    ));
    if cfg.trace {
        let layers = trace(cfg, &mut ready, growth, &mut result.tally)?;
        result.layers.extend(layers);
    }
    Ok(result)
}

/// The read policy HotCRP puts on a paper's content: every PC member.
fn pc_policy(data: &SiteData) -> Arc<PagePolicy> {
    let mut acl = Acl::new();
    for pc in &data.pc {
        acl.add(pc, &[Right::Read]);
    }
    Arc::new(PagePolicy::new(acl))
}

/// HotCRP's papers table and page query on a harness-owned `ResinDb`: the
/// string-built front, timed from outside.
fn sql_front(data: &SiteData) -> Vec<(&'static str, f64)> {
    let mut db = ResinDb::with_modes(Tracking::On, GuardMode::Off);
    db.query_str(
        "CREATE TABLE papers (id INTEGER, title TEXT, abstract TEXT, authors TEXT, anonymous INTEGER)",
    )
    .expect("schema");
    let policy = pc_policy(data);
    for (i, p) in data.papers.iter().enumerate() {
        let mut q = TaintedString::from(format!("INSERT INTO papers VALUES ({}, '", i + 1));
        for (field, sep) in [
            (&p.title, "', '"),
            (&p.abstract_, "', '"),
            (&p.authors.join(", "), "', 1)"),
        ] {
            let mut t = TaintedString::from(field.as_str());
            t.add_policy(policy.clone());
            q.push_tainted(&t);
            q.push_str(sep);
        }
        db.query(&q).expect("insert paper");
    }
    let mut next = 0usize;
    let mut query = || {
        next = next % data.papers.len() + 1;
        format!("SELECT title, abstract, authors FROM papers WHERE id = {next}")
    };
    let parse_ns = micro(|| {
        let q = query();
        let tokens = resin_sql::token::lex(&q).expect("lex");
        resin_sql::parser::parse(&tokens).expect("parse")
    });
    let query_str_ns = micro(|| db.query_str(&query()).expect("page query").rows.len());
    vec![
        ("sql.parse_ns", parse_ns),
        ("sql.query_str_ns", query_str_ns),
    ]
}

fn trace(
    cfg: &Config,
    ready: &mut Ready,
    label_growth: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, Leak> {
    let n = cfg.traced_requests().min(ready.ids.len());
    let mut tracer = Tracer::new();
    let mut untraced_ns = Vec::with_capacity(n);
    for i in 0..n {
        let id = ready.ids[i];
        // Traced: the page's three calls as stage spans.
        tracer.begin_request(i as u32);
        let mut resp = tracer.stage("web.response_new", 0, || Response::for_user(&ready.viewer));
        tracer
            .stage("apps.paper_page", 0, || {
                ready.tracked.site.paper_page(id as i64, &mut resp)
            })
            .expect("paper page renders");
        let page = tracer.stage("web.body", 0, || resp.body());
        tracer.end_request();
        tally.record(judge_page(i, &ready.tracked, &ready.data, id, true, &page))?;
        // Untraced: the same operation as the timed trials run it.
        let t = Instant::now();
        let page = page_once(&mut ready.tracked.site, &ready.viewer, id);
        untraced_ns.push(t.elapsed().as_nanos() as u64);
        tally.record(judge_page(i, &ready.tracked, &ready.data, id, true, &page))?;
    }
    tracer.save(NAME);

    let untraced_total: u64 = untraced_ns.iter().sum();
    let request_total = tracer.total_ns(crate::trace::REQUEST);
    let stage_total = tracer.children_ns(|_| true);

    // Gate::write / Response::echo on the page's own fragments.
    let mut samples = Vec::new();
    let policy = pc_policy(&ready.data);
    for paper in ready.data.papers.iter().take(32) {
        for text in [&paper.title, &paper.abstract_] {
            let mut t = TaintedString::from(text.as_str());
            t.add_policy(policy.clone());
            samples.push(t);
        }
    }
    let viewer = ready.viewer.clone();
    let abstract_ = samples[1].clone();
    let echo_ns = micro(|| {
        let mut resp = Response::for_user(&viewer);
        resp.echo(abstract_.clone())
            .expect("PC member may read the abstract");
        resp
    }) - micro(|| Response::for_user(&viewer));

    let mut layers = vec![
        (
            "web.serve_request_ns",
            crate::stats::median_u64(&mut untraced_ns) as f64,
        ),
        ("web.echo_ns", echo_ns),
        ("web.body_ns", tracer.median_ns("web.body")),
        ("core.label_growth_per_kop", label_growth),
        (
            "core.union_cache_entries",
            resin_core::LabelTable::global().stats().union_cache as f64,
        ),
        ("apps.handler_self_ns", tracer.median_ns("apps.paper_page")),
        (
            "trace.coverage_ratio",
            stage_total as f64 / untraced_total.max(1) as f64,
        ),
        (
            "trace.overhead_ratio",
            request_total as f64 / untraced_total.max(1) as f64,
        ),
        ("trace.requests", n as f64),
        ("trace.spans", tracer.spans().len() as f64),
    ];
    layers.extend(core_micro(&samples));
    layers.extend(sql_front(&ready.data));
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_page_is_anonymous_and_matches_the_harness_template() {
        let cfg = Config {
            seed: 5,
            seconds: 10,
            quick: true,
            trace: false,
        };
        let mut ready = setup(&cfg, 40).unwrap();
        let id = ready.ids[0];
        let p = &ready.data.papers[id as usize - 1];
        let tracked = page_once(&mut ready.tracked.site, &ready.viewer, id);
        let untracked = page_once(&mut ready.untracked.site, &ready.viewer, id);
        assert_eq!(tracked, expected_page(p, true));
        assert_eq!(untracked, expected_page(p, false));
        assert!(tracked.contains("Authors: Anonymous"));
        assert!(untracked.contains(&p.authors.join(", ")));
        // The untracked page is exactly the leak the canary exists for.
        assert!(matches!(
            judge_anonymous(&untracked, &p.authors.join(", ")),
            Verdict::Leak(_)
        ));
        assert!(matches!(
            judge_page(
                CANARY_EVERY - 1,
                &ready.tracked,
                &ready.data,
                id,
                true,
                &untracked
            ),
            Verdict::Leak(_)
        ));
    }

    #[test]
    fn site_is_a_function_of_the_seed() {
        let cfg = |seed| Config {
            seed,
            seconds: 10,
            quick: true,
            trace: false,
        };
        let titles = |seed| {
            let mut rng = Rng::new(seed);
            site_data(&cfg(seed), &mut rng)
                .papers
                .iter()
                .map(|p| p.title.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(titles(1), titles(1));
        assert_ne!(titles(1), titles(2));
    }
}
