//! # resin-lang — RSL, a scripting language with RESIN data tracking
//!
//! The paper's artifact is a modified PHP interpreter: a pointer to a set
//! of policy objects is added to the runtime's representation of each
//! datum, and the opcode handlers (assignment, addition, concatenation)
//! propagate and merge policies (§4). Rust has no such runtime to modify,
//! so this crate builds one: **RSL**, a small dynamically-typed language
//! whose tree-walking interpreter carries RESIN tracking in its `Value`
//! representation.
//!
//! * `Value::Str` carries byte-range policies; `Value::Int` carries a
//!   whole-datum policy set.
//! * `echo`/`email`/file builtins cross RESIN channel boundaries with
//!   default filters; `import` is the code-import boundary of §3.2.2.
//! * Policy classes are *written in RSL* (§3.3): any class with an
//!   `export_check` method can be attached to data with `policy_add`, and
//!   Rust-side filters call back into the evaluator to run the check.
//! * [`interp::Tracking::Off`] is the unmodified-interpreter baseline used
//!   by the Table 5 microbenchmarks.
//!
//! # Examples
//!
//! ```
//! use resin_lang::{Interp, Tracking};
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

//! Since the checks run on every gate crossing, RSL also has a bytecode
//! pipeline (lexer → AST → [`compiler`] → [`chunk::Chunk`] → [`vm`]), and
//! [`check`] is what a crossing runs through: a policy class's methods
//! compile once per class declaration into its check plan, the evaluator
//! is pooled per thread, and a crossing thereafter is a dispatch loop over
//! a 16-byte [`Value`]. The VM is the engine every serving path runs; the
//! tree-walker is kept as a differential oracle, reachable by pinning it
//! ([`Interp::with_engine`], [`ScriptPolicy::with_engine`]).

pub mod analysis;
pub mod ast;
pub mod check;
pub mod chunk;
pub mod compiler;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod value;
pub mod vm;

pub use analysis::{class_effects, lint_class, lint_source, ClassEffects, LintReport, Severity};
pub use check::{check_cache_stats, compiled_policy_chunks, set_check_cache};
pub use chunk::Chunk;
pub use interp::{default_engine, Engine, Interp, LangError, SentMail, Tracking};
pub use parser::{parse_program, ParseError};
pub use value::{PValue, ScriptPolicy, Value};
