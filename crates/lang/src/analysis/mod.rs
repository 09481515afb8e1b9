//! Static analysis for RSL policy code (`resin-analyze`).
//!
//! Everything here reads bytecode: the chunks of a class's check plan
//! ([`crate::check`]), the same ones its crossings run.
//!
//! * `graph` — splits a chunk into basic blocks at its jump targets and
//!   after its jumps, returns and throws, with successors, reachability
//!   and one small forward worklist over per-slot facts;
//! * [`lint`] — a policy linter with coded diagnostics (RL001–RL010) over
//!   those graphs. Error-severity findings fail a class closed at
//!   registration; warnings surface through the interpreter's
//!   [`lint::LintReport`] accessors and the `resin-lint` binary.
//!
//! No analysis decides which crossings may skip work: a check's `this`
//! and `$context` are frozen, so a store into either fails closed at run
//! time, and every crossing's allow may be reused ([`crate::check`]).

mod graph;
pub mod lint;

pub use lint::{lint_class, lint_source, Diagnostic, LintReport, Severity};

#[cfg(test)]
mod effects {
    //! The write effects a check may have, and what a crossing makes of
    //! them: a store into the policy's frozen fields or context fails
    //! closed, wherever it sits, and a store into the run's own containers
    //! is free, so the check's allow is reused. `check::tests` crosses the
    //! same shapes end to end.

    use std::collections::BTreeMap;

    use resin_core::metrics::{self, Counter};
    use resin_core::{Context, GateKind, Policy};

    use crate::check::check_cache_stats;
    use crate::value::{PValue, ScriptPolicy};
    use crate::{ast::StmtKind, parser::parse_program};

    /// Three crossings of the class's policy under one context: how many
    /// executed, how many reused an allow, and the last verdict's text.
    fn crossed(src: &str, deep: bool) -> (u64, u64, Result<(), String>) {
        let class = match parse_program(src).unwrap().remove(0).kind {
            StmtKind::ClassDef(c) => c,
            _ => panic!("class decl"),
        };
        let list = |items: Vec<PValue>| PValue::List(items);
        let fields = BTreeMap::from([
            ("n".to_string(), PValue::Int(1)),
            ("limit".to_string(), PValue::Int(10)),
            (
                "weights".to_string(),
                list(vec![PValue::Int(1), PValue::Int(2)]),
            ),
            ("grid".to_string(), list(vec![list(vec![PValue::Int(1)])])),
            ("log".to_string(), list(vec![PValue::Int(0)])),
        ]);
        let policy = ScriptPolicy::new(class.name.clone(), fields, Some(class));
        let mut context = Context::new(GateKind::Http);
        context.set("deep", deep);
        let reused = || metrics::thread(Counter::VerdictsReused);
        let ((h0, m0), r0) = (check_cache_stats(), reused());
        let mut last = Ok(());
        for _ in 0..3 {
            last = policy.export_check(&context).map_err(|e| e.to_string());
        }
        let ((h1, m1), r1) = (check_cache_stats(), reused());
        (h1 - h0 + m1 - m0 - (r1 - r0), r1 - r0, last)
    }

    fn check(body: &str) -> (u64, u64, Result<(), String>) {
        crossed(
            &format!("class C {{ fn export_check(context) {{ {body} }} }}"),
            true,
        )
    }

    /// Three crossings refused for a store into `what`, each executed.
    fn refused(what: &str) -> (u64, u64, Result<(), String>) {
        let message = format!("a store into {what} is refused inside a policy check");
        (
            3,
            0,
            Err(format!("policy violation [C]: policy error: {message}")),
        )
    }

    /// One crossing executed, its allow reused twice.
    const REUSED: (u64, u64, Result<(), String>) = (1, 2, Ok(()));

    mod tests {
        use super::{check, crossed, refused, REUSED};

        #[test]
        fn read_only_class_is_eligible() {
            assert_eq!(
                check("let w = this.weights; if (w[0] + w[1] > this.limit) { throw 1; }"),
                REUSED
            );
        }

        #[test]
        fn read_back_counter_is_not_eligible() {
            assert_eq!(
                check("this.n = this.n + 1; if (this.n > 1) { throw 1; }"),
                refused("field `n`")
            );
        }

        #[test]
        fn alias_store_is_charged_to_the_field() {
            assert_eq!(
                check("let w = this.weights; w[0] = 9;"),
                refused("a frozen array")
            );
        }

        #[test]
        fn branch_dependent_alias_joins() {
            let src = r#"class C { fn export_check(context) {
                let w = [0]; if (context["deep"]) { w = this.weights; } w[0] = 1; } }"#;
            assert_eq!(crossed(src, true), refused("a frozen array"));
            assert_eq!(crossed(src, false), REUSED);
        }

        #[test]
        fn nested_container_flow_is_tracked() {
            assert_eq!(
                check("let again = [this.grid[0]][0]; push(again, 1);"),
                refused("a frozen array by `push`")
            );
        }

        #[test]
        fn context_store_disqualifies() {
            assert_eq!(check(r#"context["seen"] = true;"#), refused("a frozen map"));
        }

        #[test]
        fn push_through_helper_is_charged() {
            let src =
                "class C { fn bump() { push(this.log, 1); } fn export_check(c) { this.bump(); } }";
            assert_eq!(crossed(src, true), refused("a frozen array by `push`"));
        }

        #[test]
        fn a_method_filling_a_local_list_reuses_its_allow() {
            // Stores into lists of the run's own: a parameter, a local.
            assert_eq!(
                crossed(
                    "class C { fn fill(xs) { xs[0] = 1; } fn export_check(c) { this.fill([0]); } }",
                    true
                ),
                REUSED
            );
            assert_eq!(
                check("let xs = [1]; push(xs, 2); if (len(xs) != 2) { throw 1; }"),
                REUSED
            );
        }

        #[test]
        fn unreachable_mutator_does_not_poison() {
            assert_eq!(
                crossed(
                    "class C { fn init(n) { this.n = n; } fn export_check(c) { return this.n; } }",
                    true
                ),
                REUSED
            );
        }
    }
}
