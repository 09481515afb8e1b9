//! # resin-bench — workloads regenerating the paper's tables and figures
//!
//! Each experiment from the paper's evaluation has a workload function
//! here; the `paper-tables` binary prints paper-style tables, and the
//! Criterion benches under `benches/` time the same workloads with proper
//! statistics. End-to-end and per-layer numbers come from `resin-e2e`
//! (see `BENCHMARK.json`), not from here.

pub mod survey;
pub mod table5;

use resin_web::Response;

/// The three runtime configurations of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Unmodified interpreter/runtime (no tracking).
    Unmodified,
    /// RESIN runtime, data carries no policy.
    ResinNoPolicy,
    /// RESIN runtime, data carries an `EmptyPolicy`.
    ResinEmptyPolicy,
}

impl Config {
    /// All three configurations, in Table 5 column order.
    pub const ALL: [Config; 3] = [
        Config::Unmodified,
        Config::ResinNoPolicy,
        Config::ResinEmptyPolicy,
    ];

    /// The column label used in Table 5.
    pub fn label(self) -> &'static str {
        match self {
            Config::Unmodified => "Unmodified",
            Config::ResinNoPolicy => "RESIN no policy",
            Config::ResinEmptyPolicy => "RESIN empty policy",
        }
    }
}

/// Builds the §7.1 HotCRP site: users, one anonymous submission, one PC
/// member. Setup is separate from page generation, as in the paper (the
/// measured request hits an existing site).
pub fn hotcrp_site(resin: bool) -> resin_apps::HotCrp {
    let mut site = resin_apps::HotCrp::new(resin);
    site.register_user("chair@conf.org", "chairpw", true);
    site.register_user("pc@conf.org", "pcpw", false);
    site.add_pc_member("pc@conf.org");
    site.submit_paper(
        1,
        "Improving Application Security with Data Flow Assertions",
        "RESIN is a new language runtime that helps prevent security \
         vulnerabilities, by allowing programmers to specify application-level \
         data flow assertions.",
        &["alice@mit.edu", "bob@mit.edu"],
        true,
    );
    site
}

/// Generates the §7.1 paper page once (the measured operation); returns
/// the page size.
///
/// Two data flow assertions fire: the title/abstract ACL passes, the
/// anonymous author-list ACL raises and is replaced with "Anonymous"
/// through output buffering.
pub fn hotcrp_page_once(site: &mut resin_apps::HotCrp) -> usize {
    let mut page = Response::for_user("pc@conf.org");
    page.gate_mut().context_mut().set_str("user", "pc@conf.org");
    site.paper_page(1, &mut page).expect("page");
    page.body().len()
}

/// Convenience: setup + one page generation (used by tests).
pub fn hotcrp_page_workload(resin: bool) -> usize {
    let mut site = hotcrp_site(resin);
    hotcrp_page_once(&mut site)
}

/// Times `f` over `iters` calls, returning nanoseconds per call.
pub fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    // Warmup.
    let warm = (iters / 10).max(1);
    for _ in 0..warm {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotcrp_page_is_realistic_size() {
        let plain = hotcrp_page_workload(false);
        let resin = hotcrp_page_workload(true);
        assert!(plain > 7000, "≈8.5KB page, got {plain}");
        // RESIN page replaces the author list with "Anonymous".
        assert!(resin > 7000);
    }

    #[test]
    fn config_labels() {
        assert_eq!(Config::ALL.len(), 3);
        assert_eq!(Config::Unmodified.label(), "Unmodified");
    }

    #[test]
    fn time_ns_is_positive() {
        let ns = time_ns(100, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
    }
}
