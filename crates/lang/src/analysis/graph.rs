//! The control-flow graph of a compiled chunk.
//!
//! A block is a run of instructions entered only at its first: blocks
//! start at instruction 0, at every jump target and after every jump,
//! `Return` and `Throw`. A conditional jump has two successors, the target
//! and the next instruction; no jump is pruned, because the compiler has
//! already folded every constant guard into an unconditional jump or into
//! nothing. What the entry cannot reach is dead code.

use crate::chunk::{Chunk, Op};

/// One basic block: instructions `start..end`.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) succs: Vec<usize>,
}

/// A chunk's basic blocks, block 0 the entry, in instruction order.
#[derive(Debug)]
pub(crate) struct Graph {
    pub(crate) blocks: Vec<Block>,
    /// Per block: reachable from the entry.
    pub(crate) reachable: Vec<bool>,
}

impl Graph {
    pub(crate) fn of(chunk: &Chunk) -> Graph {
        let code = &chunk.code;
        let mut leader = vec![false; code.len() + 1];
        leader[0] = true;
        for (ip, op) in code.iter().enumerate() {
            if let Some(t) = op.jump_target() {
                leader[t.min(code.len())] = true;
            }
            if op.jump_target().is_some() || matches!(op, Op::Return { .. } | Op::Throw { .. }) {
                leader[ip + 1] = true;
            }
        }
        let starts: Vec<usize> = (0..code.len()).filter(|&ip| leader[ip]).collect();
        let block_at = |ip: usize| starts.partition_point(|&s| s <= ip) - 1;
        let mut blocks = Vec::with_capacity(starts.len());
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(code.len());
            let last = code[end - 1];
            let mut succs = Vec::new();
            if let Some(t) = last.jump_target().filter(|&t| t < code.len()) {
                succs.push(block_at(t));
            }
            let falls_through = !matches!(last, Op::Jump(_) | Op::Return { .. } | Op::Throw { .. });
            if falls_through && end < code.len() {
                succs.push(i + 1);
            }
            blocks.push(Block { start, end, succs });
        }
        let mut graph = Graph {
            reachable: Vec::new(),
            blocks,
        };
        graph.reachable = graph.reachable_from(0);
        graph
    }

    /// The block holding instruction `ip`.
    pub(crate) fn block_of(&self, ip: usize) -> usize {
        self.blocks.partition_point(|b| b.start <= ip) - 1
    }

    /// Per block: reachable from block `from` (which is, trivially).
    pub(crate) fn reachable_from(&self, from: usize) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b < seen.len() && !std::mem::replace(&mut seen[b], true) {
                stack.extend(&self.blocks[b].succs);
            }
        }
        seen
    }

    /// Per instruction: reachable from the entry.
    pub(crate) fn live_ops(&self) -> Vec<bool> {
        let mut live = Vec::new();
        for (block, reached) in self.blocks.iter().zip(&self.reachable) {
            live.resize(block.end, *reached);
        }
        live
    }

    /// A forward analysis to a fixpoint: each reachable block's entry
    /// fact (`None` for a dead block), from `entry` at block 0, through
    /// `step` over each instruction and `join` (which says whether the
    /// fact it joined into changed) where paths meet. The fact lattice
    /// must be of finite height.
    pub(crate) fn forward<F: Clone>(
        &self,
        chunk: &Chunk,
        entry: F,
        join: impl Fn(&mut F, &F) -> bool,
        mut step: impl FnMut(usize, Op, &mut F),
    ) -> Vec<Option<F>> {
        let mut facts: Vec<Option<F>> = vec![None; self.blocks.len()];
        facts[0] = Some(entry);
        let mut work = vec![0];
        while let Some(b) = work.pop() {
            let mut fact = facts[b].clone().expect("queued blocks have facts");
            let block = &self.blocks[b];
            for ip in block.start..block.end {
                step(ip, chunk.code[ip], &mut fact);
            }
            for &succ in &block.succs {
                let changed = match &mut facts[succ] {
                    Some(into) => join(into, &fact),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::compiler::compile_function;
    use crate::parser::parse_program;

    fn graph(body: &str) -> (Chunk, Graph) {
        let program = parse_program(&format!("fn f(p) {{ {body} }}")).unwrap();
        let StmtKind::FnDef(decl) = &program[0].kind else {
            panic!()
        };
        let chunk = compile_function(decl, None).unwrap();
        let graph = Graph::of(&chunk);
        (chunk, graph)
    }

    fn dead_ops(chunk: &Chunk, graph: &Graph) -> Vec<Op> {
        let live = graph.live_ops();
        (0..chunk.code.len())
            .filter(|&ip| !live[ip])
            .map(|ip| chunk.code[ip])
            .collect()
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, g) = graph("let x = p; let y = x + 1;");
        assert_eq!(g.blocks.len(), 1);
        assert!(g.blocks[0].succs.is_empty());
    }

    #[test]
    fn an_if_fans_out_and_rejoins() {
        let (c, g) = graph("if (p) { let a = 1; } else { let b = 2; } let c = 3;");
        assert_eq!(g.blocks.len(), 4);
        assert_eq!(g.blocks[0].succs.len(), 2);
        assert!(g.reachable.iter().all(|r| *r));
        assert!(dead_ops(&c, &g).is_empty());
    }

    #[test]
    fn a_loop_has_a_back_edge() {
        let (c, g) = graph("let i = 0; while (i < p) { i = i + 1; }");
        let back = (0..c.code.len())
            .find(|&ip| c.code[ip].jump_target().is_some_and(|t| t <= ip))
            .expect("a backward jump");
        let from = g.block_of(back);
        let to = g.block_of(c.code[back].jump_target().unwrap());
        assert!(g.blocks[from].succs.contains(&to));
        assert!(g.reachable_from(to)[from]);
    }

    #[test]
    fn code_after_return_and_behind_constant_guards_is_dead() {
        let (c, g) = graph("return 1; let dead = 2;");
        assert!(!dead_ops(&c, &g).is_empty());
        let (c, g) = graph(r#"if (1 > 2) { throw "never"; }"#);
        let dead = dead_ops(&c, &g);
        assert!(
            dead.iter().any(|op| matches!(op, Op::Throw { .. })),
            "{dead:?}"
        );
        // A constant inside `&&` leaves the guard conditional.
        let (c, g) = graph(r#"if (p && false) { throw "maybe"; }"#);
        assert!(dead_ops(&c, &g).is_empty());
    }

    #[test]
    fn definite_binding_joins_by_intersection() {
        let (c, g) = graph("if (p) { a = 1; b = 2; } else { a = 3; } return a;");
        let slots = c.slot_names.len();
        let mut entry = vec![false; slots];
        entry[1] = true;
        let facts = g.forward(
            &c,
            entry,
            |into, from| {
                let before = into.clone();
                into.iter_mut().zip(from).for_each(|(i, f)| *i &= *f);
                *into != before
            },
            |_, op, fact| {
                if let Some(d) = op.dest().filter(|&d| (d as usize) < slots) {
                    fact[d as usize] = true;
                }
            },
        );
        let ret = c.code.iter().position(|op| matches!(op, Op::Return { .. }));
        let join = facts[g.block_of(ret.unwrap())].as_ref().expect("reachable");
        let slot = |n: &str| c.slot_names.iter().position(|s| &**s == n).unwrap();
        assert!(join[slot("p")] && join[slot("a")] && !join[slot("b")]);
    }
}
