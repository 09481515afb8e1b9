//! Basic-block control-flow graphs lowered from RSL method ASTs: the
//! graphs the linter ran on before it read the plan's bytecode, kept as
//! the reference [`super::lint`] runs on.
//!
//! RSL's statement grammar is fully structured (`if`/`while`, no `goto`,
//! no `break`), so the lowering is a single recursive pass: straight-line
//! statements accumulate into the current block, each `if` fans out into
//! two arms that rejoin, each `while` becomes a header block with a back
//! edge, and `return`/`throw` terminate their block. Statements written
//! after a terminator land in a fresh block with no predecessors — the
//! reachability pass (not the lowering) is what reports them dead, so the
//! graph stays a faithful picture of the source.

use crate::ast::{Expr, Stmt, StmtKind};
use crate::compiler::const_truth;

/// A block index into [`Cfg::blocks`].
pub(crate) type BlockId = usize;

/// How a basic block ends.
#[derive(Debug)]
pub(crate) enum Term<'a> {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way conditional edge.
    Branch {
        /// The branch condition (an `if` or `while` guard).
        cond: &'a Expr,
        /// Source line of the guarding statement.
        line: u32,
        /// Successor when the condition is truthy.
        then_to: BlockId,
        /// Successor when the condition is falsy.
        else_to: BlockId,
        /// True when this branch is a `while` header (its `then_to` arm
        /// eventually jumps back here).
        is_loop: bool,
    },
    /// `return [expr];`
    Return { value: Option<&'a Expr>, line: u32 },
    /// `throw expr;`
    Throw { value: &'a Expr, line: u32 },
    /// Execution falls off the end of the method (implicit `return null`).
    Exit,
}

/// A straight-line run of statements plus its terminator.
#[derive(Debug)]
pub(crate) struct Block<'a> {
    /// Non-branching statements, in execution order.
    pub(crate) stmts: Vec<&'a Stmt>,
    /// How control leaves the block.
    pub(crate) term: Term<'a>,
}

/// A control-flow graph over borrowed AST statements. Block 0 is the
/// entry; edges are encoded in each block's [`Term`].
#[derive(Debug)]
pub(crate) struct Cfg<'a> {
    /// All blocks; indices are [`BlockId`]s.
    pub(crate) blocks: Vec<Block<'a>>,
}

impl<'a> Cfg<'a> {
    /// Lowers a statement list (a method or function body) into blocks.
    pub(crate) fn build(body: &'a [Stmt]) -> Cfg<'a> {
        let mut b = Builder { blocks: Vec::new() };
        let entry = b.new_block();
        debug_assert_eq!(entry, 0);
        let end = b.lower(entry, body);
        b.blocks[end].term = Term::Exit;
        Cfg { blocks: b.blocks }
    }

    /// Successor block ids of `id`, honoring statically-known branch
    /// conditions: a constant-true guard contributes only its then edge,
    /// a constant-false guard only its else edge.
    pub(crate) fn succs(&self, id: BlockId) -> Vec<BlockId> {
        match &self.blocks[id].term {
            Term::Jump(t) => vec![*t],
            Term::Branch {
                cond,
                then_to,
                else_to,
                ..
            } => match const_truth(cond) {
                Some(true) => vec![*then_to],
                Some(false) => vec![*else_to],
                None => vec![*then_to, *else_to],
            },
            Term::Return { .. } | Term::Throw { .. } | Term::Exit => Vec::new(),
        }
    }

    /// Blocks reachable from the entry through [`Cfg::succs`] (so blocks
    /// behind constant-false guards count as unreachable).
    pub(crate) fn reachable(&self) -> Vec<bool> {
        self.reachable_from(0)
    }

    /// Blocks reachable from `start`.
    pub(crate) fn reachable_from(&self, start: BlockId) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                continue;
            }
            stack.extend(self.succs(id));
        }
        seen
    }
}

struct Builder<'a> {
    blocks: Vec<Block<'a>>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            stmts: Vec::new(),
            term: Term::Exit,
        });
        self.blocks.len() - 1
    }

    /// Lowers `stmts` starting in block `cur`; returns the block where
    /// control continues afterwards.
    fn lower(&mut self, mut cur: BlockId, stmts: &'a [Stmt]) -> BlockId {
        for stmt in stmts {
            match &stmt.kind {
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let then_to = self.new_block();
                    let else_to = self.new_block();
                    self.blocks[cur].term = Term::Branch {
                        cond,
                        line: stmt.line,
                        then_to,
                        else_to,
                        is_loop: false,
                    };
                    let then_end = self.lower(then_to, then_body);
                    let else_end = self.lower(else_to, else_body);
                    let join = self.new_block();
                    self.blocks[then_end].term = Term::Jump(join);
                    self.blocks[else_end].term = Term::Jump(join);
                    cur = join;
                }
                StmtKind::While { cond, body } => {
                    let header = self.new_block();
                    self.blocks[cur].term = Term::Jump(header);
                    let body_to = self.new_block();
                    let after = self.new_block();
                    self.blocks[header].term = Term::Branch {
                        cond,
                        line: stmt.line,
                        then_to: body_to,
                        else_to: after,
                        is_loop: true,
                    };
                    let body_end = self.lower(body_to, body);
                    self.blocks[body_end].term = Term::Jump(header);
                    cur = after;
                }
                StmtKind::Return(value) => {
                    self.blocks[cur].term = Term::Return {
                        value: value.as_ref(),
                        line: stmt.line,
                    };
                    cur = self.new_block(); // anything after is dead
                }
                StmtKind::Throw(value) => {
                    self.blocks[cur].term = Term::Throw {
                        value,
                        line: stmt.line,
                    };
                    cur = self.new_block();
                }
                _ => self.blocks[cur].stmts.push(stmt),
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn cfg_of(src: &str) -> (Vec<Stmt>, usize) {
        let stmts = parse_program(src).unwrap();
        let n = Cfg::build(&stmts).blocks.len();
        (stmts, n)
    }

    #[test]
    fn straight_line_is_one_block() {
        let stmts = parse_program("let x = 1; let y = x + 1;").unwrap();
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].stmts.len(), 2);
        assert!(matches!(cfg.blocks[0].term, Term::Exit));
    }

    #[test]
    fn if_fans_out_and_rejoins() {
        let stmts = parse_program("if (x) { let a = 1; } else { let b = 2; } let c = 3;").unwrap();
        let cfg = Cfg::build(&stmts);
        // entry + then + else + join = 4 blocks, all reachable.
        assert_eq!(cfg.blocks.len(), 4);
        assert!(cfg.reachable().iter().all(|r| *r));
    }

    #[test]
    fn while_has_back_edge() {
        let stmts = parse_program("let i = 0; while (i < 3) { i = i + 1; }").unwrap();
        let cfg = Cfg::build(&stmts);
        let header = cfg
            .blocks
            .iter()
            .position(|b| matches!(b.term, Term::Branch { is_loop: true, .. }))
            .unwrap();
        let Term::Branch { then_to, .. } = cfg.blocks[header].term else {
            unreachable!()
        };
        // The loop body jumps back to the header.
        assert!(cfg.reachable_from(then_to)[header]);
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let stmts = parse_program("return 1; let dead = 2;").unwrap();
        let cfg = Cfg::build(&stmts);
        let reach = cfg.reachable();
        let dead = cfg
            .blocks
            .iter()
            .enumerate()
            .position(|(i, b)| !b.stmts.is_empty() && !reach[i]);
        assert!(dead.is_some(), "dead statement lands in unreachable block");
    }

    #[test]
    fn const_false_guard_prunes_edge() {
        let (stmts, _) = cfg_of(r#"if (1 > 2) { throw "never"; }"#);
        let cfg = Cfg::build(&stmts);
        let reach = cfg.reachable();
        let throw_block = cfg
            .blocks
            .iter()
            .position(|b| matches!(b.term, Term::Throw { .. }))
            .unwrap();
        assert!(!reach[throw_block], "constant-false arm is unreachable");
    }
}
