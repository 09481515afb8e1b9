//! A small forward worklist dataflow framework over [`Cfg`]s.
//!
//! Clients describe a join-semilattice of facts and a transfer function
//! over a block's statements; the framework iterates to a fixpoint and
//! hands back the entry fact of every reachable block (`None` for
//! unreachable blocks, so clients get constant-guard pruning for free via
//! [`Cfg::succs`]). Facts are still growing during the fixpoint, so a
//! client that reports findings makes one pass over the blocks afterwards,
//! from the stable entry facts [`forward`] returns.

use crate::ast::Stmt;

use super::cfg::Cfg;

/// A forward dataflow analysis over one method body.
pub(crate) trait Analysis<'a> {
    /// The per-program-point fact. Joins must be monotone and the
    /// lattice of facts finite-height, or the fixpoint won't terminate.
    type Fact: Clone + PartialEq;

    /// The fact holding at method entry.
    fn entry_fact(&self) -> Self::Fact;

    /// Joins `other` into `into`; returns true when `into` changed.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Applies one straight-line statement to the fact.
    fn transfer_stmt(&mut self, stmt: &'a Stmt, fact: &mut Self::Fact);
}

/// Runs `analysis` forward to a fixpoint; returns each block's entry
/// fact, `None` for blocks unreachable from the entry.
pub(crate) fn forward<'a, A: Analysis<'a>>(
    cfg: &Cfg<'a>,
    analysis: &mut A,
) -> Vec<Option<A::Fact>> {
    let mut facts: Vec<Option<A::Fact>> = vec![None; cfg.blocks.len()];
    facts[0] = Some(analysis.entry_fact());
    let mut work = vec![0usize];
    while let Some(id) = work.pop() {
        let mut fact = facts[id].clone().expect("queued blocks have facts");
        for stmt in &cfg.blocks[id].stmts {
            analysis.transfer_stmt(stmt, &mut fact);
        }
        for succ in cfg.succs(id) {
            let changed = match &mut facts[succ] {
                Some(existing) => analysis.join(existing, &fact),
                slot @ None => {
                    *slot = Some(fact.clone());
                    true
                }
            };
            if changed && !work.contains(&succ) {
                work.push(succ);
            }
        }
    }
    facts
}

/// Definite-assignment facts: the set of local names assigned on *every*
/// path reaching a point (join = intersection). Used by the linter to
/// find reads of never-written variables, which the policy mini-evaluator
/// turns into runtime errors (its global scope is empty).
pub(crate) struct DefiniteAssignment {
    /// Names assigned at entry (the method's parameters).
    pub(crate) params: Vec<String>,
}

impl<'a> Analysis<'a> for DefiniteAssignment {
    type Fact = std::collections::BTreeSet<String>;

    fn entry_fact(&self) -> Self::Fact {
        self.params.iter().cloned().collect()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        let before = into.len();
        into.retain(|n| other.contains(n));
        into.len() != before
    }

    fn transfer_stmt(&mut self, stmt: &'a Stmt, fact: &mut Self::Fact) {
        use crate::ast::{StmtKind, Target};
        match &stmt.kind {
            StmtKind::Let(name, _) => {
                fact.insert(name.clone());
            }
            StmtKind::Assign(Target::Var(name), _) => {
                fact.insert(name.clone());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn entry_facts(
        src: &str,
        params: &[&str],
    ) -> (Vec<Option<std::collections::BTreeSet<String>>>, usize) {
        let stmts = parse_program(src).unwrap();
        let cfg = Cfg::build(&stmts);
        let mut a = DefiniteAssignment {
            params: params.iter().map(|s| s.to_string()).collect(),
        };
        let n = cfg.blocks.len();
        (forward(&cfg, &mut a), n)
    }

    #[test]
    fn branch_join_is_intersection() {
        // `a` is assigned on both arms, `b` only on one: after the join,
        // only `a` (and the param `p`) are definitely assigned.
        let (facts, n) = entry_facts(
            "if (p) { a = 1; b = 2; } else { a = 3; } let c = a;",
            &["p"],
        );
        let join = facts[n - 1].as_ref().expect("join block reachable");
        assert!(join.contains("p"));
        assert!(join.contains("a"));
        assert!(!join.contains("b"));
    }

    #[test]
    fn loop_body_assignments_do_not_leak_as_definite() {
        let (facts, n) = entry_facts("while (c) { x = 1; } let y = 2;", &["c"]);
        let after = facts[n - 1].as_ref().expect("after-loop reachable");
        assert!(!after.contains("x"), "loop may run zero times");
    }

    #[test]
    fn unreachable_blocks_have_no_facts() {
        let (facts, _) = entry_facts(r#"return 0; let dead = 1;"#, &[]);
        assert!(facts.iter().any(|f| f.is_none()), "dead block stays None");
    }
}
