//! Correctness is part of every run: what each response must be, and the
//! detectors for the canaries that must fail closed. A wrong answer counts
//! in `fail_ratio`; a leak aborts the run.

use crate::gen::{fnv1a, FNV_OFFSET};

/// What the harness expects back for one generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// 200 with exactly this body: length and FNV on every response, the
    /// full bytes (rebuilt by the workload from `source`) on 1 in 100.
    Page { len: u32, fnv: u64, source: u32 },
    /// 200 `posted <id>`; the id is kept for the re-open check.
    Posted,
    /// Canary: `/view_raw` of a stored `<script>` post must be refused.
    ScriptBlocked,
    /// Canary: a forged session id must be answered 403.
    ForgedSid,
    /// Canary: an injection-shaped search term must match nothing.
    InjectionNoHits,
}

impl Expect {
    pub fn page(body: &str, source: u32) -> Expect {
        Expect::Page {
            len: body.len() as u32,
            fnv: fnv1a(FNV_OFFSET, body.as_bytes()),
            source,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Counted in `fail_ratio`.
    Wrong,
    /// Protected bytes got out, or an attack was accepted.
    Leak(&'static str),
}

/// A leak: the run stops here and exits non-zero without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak(pub String);

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Judges one HTTP response. A canary that fails closed is a success.
pub fn judge(expect: &Expect, status: u16, body: &[u8]) -> Verdict {
    match expect {
        Expect::Page { len, fnv, .. } => {
            if status == 200 && body.len() == *len as usize && fnv1a(FNV_OFFSET, body) == *fnv {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        Expect::Posted => match posted_id(body) {
            Some(_) if status == 200 => Verdict::Ok,
            _ => Verdict::Wrong,
        },
        Expect::ScriptBlocked => {
            if status == 200 || contains(body, b"<script>") {
                Verdict::Leak("a stored <script> post reached the browser through /view_raw")
            } else {
                Verdict::Ok
            }
        }
        Expect::ForgedSid => {
            if status == 403 {
                Verdict::Ok
            } else {
                Verdict::Leak("a forged session id was accepted")
            }
        }
        Expect::InjectionNoHits => {
            if status == 200 && body == b"0 hits:" {
                Verdict::Ok
            } else {
                Verdict::Leak("an injection-shaped search term matched rows")
            }
        }
    }
}

/// [`judge`], plus the full comparison on 1 response in 100 against the
/// bytes `full_body` rebuilds from the expectation's `source`.
pub fn judge_sampled(
    index: usize,
    expect: &Expect,
    status: u16,
    body: &[u8],
    full_body: &dyn Fn(u32) -> String,
) -> Verdict {
    let verdict = judge(expect, status, body);
    if let (Verdict::Ok, Expect::Page { source, .. }) = (verdict, expect) {
        if index.is_multiple_of(100) && full_body(*source).as_bytes() != body {
            return Verdict::Wrong;
        }
    }
    verdict
}

/// The id in a `posted <id>` acknowledgement.
pub fn posted_id(body: &[u8]) -> Option<i64> {
    std::str::from_utf8(body.strip_prefix(b"posted ")?)
        .ok()?
        .parse()
        .ok()
}

/// `hotcrp_page` canary: a PC member's tracked page of an anonymous
/// submission shows "Anonymous" and none of the author list.
pub fn judge_anonymous(page: &str, authors: &str) -> Verdict {
    if page.contains(authors) {
        Verdict::Leak("an anonymous submission's author list reached a PC member's page")
    } else if page.contains("Authors: Anonymous") {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// `rsl_page` canary: a fragment offered to a channel that is not `http`
/// must be refused, and none of its bytes may appear in the output.
pub fn judge_refused(refused: bool, output: &str, fragment: &str) -> Verdict {
    if !refused || output.contains(fragment) {
        Verdict::Leak("a policy-guarded fragment crossed a channel its policy forbids")
    } else {
        Verdict::Ok
    }
}

/// Attempt and failure counts of one trial or run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one verdict; a leak stops the caller.
    pub fn record(&mut self, verdict: Verdict) -> Result<(), Leak> {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => Ok(()),
            Verdict::Wrong => {
                self.failed += 1;
                Ok(())
            }
            Verdict::Leak(what) => Err(Leak(what.to_string())),
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_needs_status_length_and_hash() {
        let e = Expect::page("<div>hi</div>", 0);
        assert_eq!(judge(&e, 200, b"<div>hi</div>"), Verdict::Ok);
        assert_eq!(judge(&e, 200, b"<div>ho</div>"), Verdict::Wrong);
        assert_eq!(judge(&e, 200, b"<div>hi</div> "), Verdict::Wrong);
        assert_eq!(judge(&e, 404, b"<div>hi</div>"), Verdict::Wrong);
    }

    #[test]
    fn one_response_in_a_hundred_is_compared_in_full() {
        // A body with the right length and a forged hash passes the cheap
        // check; only the sampled full comparison catches it.
        let e = Expect::Page {
            len: 2,
            fnv: fnv1a(FNV_OFFSET, b"xx"),
            source: 0,
        };
        let full = |_| "ok".to_string();
        assert_eq!(judge_sampled(1, &e, 200, b"xx", &full), Verdict::Ok);
        assert_eq!(judge_sampled(100, &e, 200, b"xx", &full), Verdict::Wrong);
        assert_eq!(
            judge_sampled(100, &Expect::page("ok", 0), 200, b"ok", &full),
            Verdict::Ok
        );
    }

    #[test]
    fn posted_acknowledgement_is_parsed() {
        assert_eq!(posted_id(b"posted 41"), Some(41));
        assert_eq!(posted_id(b"posted x"), None);
        assert_eq!(judge(&Expect::Posted, 200, b"posted 7"), Verdict::Ok);
        assert_eq!(
            judge(&Expect::Posted, 403, b"not logged in"),
            Verdict::Wrong
        );
    }

    #[test]
    fn script_canary_detects_a_leaking_response() {
        let e = Expect::ScriptBlocked;
        assert_eq!(
            judge(&e, 403, b"blocked by data flow assertion\n"),
            Verdict::Ok
        );
        // Hand-made leaks: the payload with a failure status, and a clean
        // 200 (the raw route answered at all).
        let leaked = b"<div class=\"post\"><script>steal()</script></div>";
        assert!(matches!(judge(&e, 403, leaked), Verdict::Leak(_)));
        assert!(matches!(judge(&e, 200, b"<div></div>"), Verdict::Leak(_)));
    }

    #[test]
    fn forged_sid_canary_detects_an_accepted_write() {
        assert_eq!(
            judge(&Expect::ForgedSid, 403, b"not logged in"),
            Verdict::Ok
        );
        assert!(matches!(
            judge(&Expect::ForgedSid, 200, b"posted 9"),
            Verdict::Leak(_)
        ));
    }

    #[test]
    fn injection_canary_detects_matched_rows() {
        let e = Expect::InjectionNoHits;
        assert_eq!(judge(&e, 200, b"0 hits:"), Verdict::Ok);
        assert!(matches!(
            judge(&e, 200, b"3 hits:<div class=\"hit\">x</div>"),
            Verdict::Leak(_)
        ));
    }

    #[test]
    fn anonymous_canary_detects_a_visible_author_list() {
        let authors = "ann@u.edu, bob@v.edu";
        let ok = "<div class=\"authors\">Authors: Anonymous</div>";
        let leak = "<div class=\"authors\">Authors: ann@u.edu, bob@v.edu</div>";
        assert_eq!(judge_anonymous(ok, authors), Verdict::Ok);
        assert!(matches!(judge_anonymous(leak, authors), Verdict::Leak(_)));
        assert_eq!(judge_anonymous("<div></div>", authors), Verdict::Wrong);
    }

    #[test]
    fn refused_canary_detects_a_crossing_or_stray_bytes() {
        assert_eq!(judge_refused(true, "", "secret words"), Verdict::Ok);
        assert!(matches!(
            judge_refused(false, "secret words", "secret words"),
            Verdict::Leak(_)
        ));
        assert!(matches!(
            judge_refused(true, "xx secret words", "secret words"),
            Verdict::Leak(_)
        ));
    }

    #[test]
    fn a_leak_stops_the_tally_and_a_wrong_answer_is_counted() {
        let mut t = Tally::default();
        t.record(Verdict::Ok).unwrap();
        t.record(Verdict::Wrong).unwrap();
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(t.fail_ratio(), 0.5);
        // Breaking a canary's input is what makes a run abort: the leak
        // verdict surfaces as an error no caller can count past.
        let verdict = judge(&Expect::ScriptBlocked, 200, b"<script>x</script>");
        let err = t.record(verdict).unwrap_err();
        assert!(err.0.contains("<script>"));
    }
}
