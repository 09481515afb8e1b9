//! # resin-lang — RSL, a scripting language with RESIN data tracking
//!
//! The paper's artifact is a modified PHP interpreter: a pointer to a set
//! of policy objects is added to the runtime's representation of each
//! datum, and the opcode handlers (assignment, addition, concatenation)
//! propagate and merge policies (§4). Rust has no such runtime to modify,
//! so this crate builds one: **RSL**, a small dynamically-typed language
//! whose interpreter carries RESIN tracking in its `Value` representation.
//!
//! * `Value::Str` carries byte-range policies; `Value::Int` carries a
//!   whole-datum policy set.
//! * `echo`/`email`/file builtins cross RESIN channel boundaries with
//!   default filters; `import` is the code-import boundary of §3.2.2.
//! * Policy classes are *written in RSL* (§3.3): any class with an
//!   `export_check` method can be attached to data with `policy_add`, and
//!   Rust-side filters call back into the interpreter to run the check.
//! * [`resin_core::Tracking::Off`] is the unmodified-interpreter baseline
//!   used by the Table 5 microbenchmarks.
//!
//! # Examples
//!
//! ```
//! use resin_lang::Interp;
//!
//! let mut interp = Interp::new();
//! let err = interp.run(r#"
//!     class PasswordPolicy {
//!         fn init(email) { this.email = email; }
//!         fn export_check(context) {
//!             if (context["type"] == "email" && context["email"] == this.email) { return; }
//!             throw "unauthorized disclosure";
//!         }
//!     }
//!     let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
//!     echo("password: " + pw);   # HTTP boundary -> violation
//! "#).unwrap_err();
//! assert!(err.violation);
//! assert_eq!(interp.http_output(), "");
//! ```

//! Since the checks run on every gate crossing, RSL code runs on a
//! bytecode pipeline (lexer → AST → `compiler` → [`chunk::Chunk`] →
//! [`vm`]), and [`check`] is what a crossing runs through: a policy
//! class's methods compile once per class declaration into its check plan,
//! a crossing runs on an evaluator of its own — that plan, the VM's
//! buffers (pooled per thread), a call depth and a back-jump count, and
//! no script host, so a builtin that needs one is refused — and it is a
//! dispatch loop over a 16-byte [`Value`]. The tests hold the VM to a
//! tree-walking oracle that exists only in test builds.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod analysis;
pub mod ast;
pub mod check;
pub mod chunk;
mod compiler;
pub mod interp;
mod lexer;
pub mod parser;
pub mod value;
pub mod vm;

pub use analysis::{lint_class, lint_source, LintReport, Severity};
pub use check::{check_cache_stats, set_check_cache};
pub use chunk::Chunk;
pub use interp::{Interp, LangError, SentMail};
pub use parser::{parse_program, ParseError};
pub use value::{PValue, ScriptPolicy, Value};

#[cfg(test)]
mod oracle;
