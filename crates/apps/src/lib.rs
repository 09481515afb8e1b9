//! # resin-apps — the evaluation applications of RESIN's Table 4
//!
//! Functional cores of every application from the paper's security
//! evaluation (§6), each with its real vulnerabilities wired in and its
//! RESIN data flow assertion implemented. Every application takes a
//! `resin: bool` — `false` is the original vulnerable application,
//! `true` arms the assertions — so the attack suite (`attacks`) can
//! verify both directions of Table 4: exploits succeed without the
//! assertion and are prevented with it.
//!
//! | Module | Application | Assertion(s) |
//! |---|---|---|
//! | [`hotcrp`] | HotCRP conference manager | password disclosure; paper & author-list access |
//! | `moinwiki` | MoinMoin wiki | read ACL (Fig. 5); write ACL filter |
//! | [`forum`] | phpBB | read access; XSS |
//! | `filemgr` | File Thingie / PHP Navigator | write-access filter (§3.2.3) |
//! | `gradapp` | MIT EECS grad admissions | SQL injection (§5.3) |
//! | `loginlib` | myPHPscripts login | strict password policy |
//! | `scriptinj` | five upload-and-execute apps | CodeApproval import filter (Fig. 6) |

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod attacks;
mod filemgr;
pub mod forum;
mod gradapp;
pub mod hotcrp;
mod loginlib;
mod moinwiki;
mod scriptinj;
mod webapp;

pub use attacks::{run_all, table4, AttackOutcome, Table4Row};
pub use forum::Forum;
pub use gradapp::GradApp;
pub use hotcrp::HotCrp;
pub use moinwiki::MoinWiki;
pub use scriptinj::ScriptHost;
pub use webapp::ForumApp;
