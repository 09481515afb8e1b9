//! Static analysis for RSL policy code (`resin-analyze`).
//!
//! Three layers, each building on the last:
//!
//! * [`mod@cfg`] — lowers method ASTs into basic-block control-flow graphs,
//!   with constant-guard edge pruning and reachability;
//! * [`dataflow`] — a small forward worklist framework over those CFGs;
//! * [`lint`] — a policy linter with coded diagnostics (RL001–RL010).
//!   Error-severity findings fail closed at class registration and
//!   persisted-policy revival; warnings surface through the
//!   interpreter's [`lint::LintReport`] accessors and the `resin-lint`
//!   binary.
//!
//! The linter is the only client; the check caches' eligibility is
//! [`crate::check`]'s bytecode certificate.

pub mod cfg;
pub mod dataflow;
pub mod lint;

pub use lint::{lint_class, lint_source, Diagnostic, LintReport, Severity};

#[cfg(test)]
mod effects {
    //! The write effects a check may have, and whether [`crate::check`]'s
    //! certificate lets its crossings share the cached `this`, `$context`
    //! map and verdict.

    use crate::{ast::StmtKind, parser::parse_program};

    fn certified(src: &str) -> bool {
        match parse_program(src).unwrap().remove(0).kind {
            StmtKind::ClassDef(c) => crate::check::plan_for(&c).certified,
            _ => panic!("class decl"),
        }
    }

    fn check_certified(body: &str) -> bool {
        certified(&format!(
            "class C {{ fn export_check(context) {{ {body} }} }}"
        ))
    }

    mod tests {
        use super::{certified, check_certified as check};

        #[test]
        fn read_only_class_is_eligible() {
            assert!(check(
                "let w = this.weights; if (w[0] + w[1] > this.limit) { throw 1; }"
            ));
        }

        #[test]
        fn read_back_counter_is_not_eligible() {
            assert!(!check("this.n = this.n + 1; if (this.n > 1) { throw 1; }"));
        }

        #[test]
        fn alias_store_is_charged_to_the_field() {
            assert!(!check("let w = this.weights; w[0] = 9;"));
        }

        #[test]
        fn branch_dependent_alias_joins() {
            assert!(!check(
                r#"let w = [0]; if (context["deep"]) { w = this.weights; } w[0] = 1;"#
            ));
        }

        #[test]
        fn nested_container_flow_is_tracked() {
            assert!(!check("let again = [this.grid[0]][0]; push(again, 1);"));
        }

        #[test]
        fn context_store_disqualifies() {
            assert!(!check(r#"context["seen"] = true;"#));
        }

        #[test]
        fn push_through_helper_is_charged() {
            assert!(!certified(
                "class C { fn bump() { push(this.log, 1); } fn export_check(c) { this.bump(); } }"
            ));
        }

        #[test]
        fn method_mutating_its_param_disqualifies() {
            assert!(!certified(
                "class C { fn fill(xs) { xs[0] = 1; } fn export_check(c) { this.fill([0]); } }"
            ));
        }

        #[test]
        fn unreachable_mutator_does_not_poison() {
            assert!(certified(
                "class C { fn init(n) { this.n = n; } fn export_check(c) { return this.n; } }"
            ));
        }
    }
}
