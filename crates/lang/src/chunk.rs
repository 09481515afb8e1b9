//! Compiled RSL bytecode chunks.
//!
//! A [`Chunk`] is the unit of compilation: one top-level program or one
//! function/method body, lowered to a flat instruction stream with a
//! deduplicated constant pool, interned name tables, and a run-length
//! line table mapping instruction indices back to source lines. Chunks
//! are immutable after compilation and `Send + Sync`, so the process-wide
//! policy-chunk cache (alongside the policy interner) can hand the same
//! `Arc<Chunk>` to every gate crossing.

use std::sync::Arc;

use resin_core::TaintedString;

use crate::ast::{ClassDecl, FnDecl};

/// One VM instruction.
///
/// Operands are inline (no separate operand stream): `u32` indexes into
/// the constant pool / name table / code, `u16` local-slot indexes, `u8`
/// argument counts. The enum is `Copy`, so dispatch reads one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant meanings documented as a group above
pub(crate) enum Op {
    /// Push constant `consts[i]` (int or string).
    Const(u32),
    /// Push `null` / `true` / `false`.
    Null,
    True,
    False,
    /// Push local slot `i`; unbound slots fall back to the global with the
    /// slot's name (PHP-style scoping, matching the tree-walker).
    LoadSlot(u16),
    /// Pop into slot `i` if bound; else into an existing global of that
    /// name; else bind the slot (first assignment defines).
    StoreSlot(u16),
    /// Pop and bind slot `i` unconditionally (`let` in a function body).
    LetSlot(u16),
    /// Push the global `names[i]` (error when undefined).
    LoadGlobal(u32),
    /// Pop into the global `names[i]` (defining it if absent).
    StoreGlobal(u32),
    /// Push the current frame's `this` (error outside a method).
    LoadThis,
    /// Pop `n` values, push an array of them.
    MakeArray(u16),
    /// Pop, push `!truthy`.
    Not,
    /// Pop, push arithmetic negation.
    Neg,
    /// Pop, push `truthy` as a bool (tail of `&&` / `||`).
    Truthy,
    /// Pop two, push the result; labels union exactly as in the
    /// tree-walker (`+` also concatenates strings with byte-range spans).
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unconditional jump to instruction `t` (backward jumps are counted
    /// against the loop-iteration limit).
    Jump(u32),
    /// Pop; jump to `t` when falsy.
    JumpIfFalse(u32),
    /// Pop; jump to `t` when truthy.
    JumpIfTrue(u32),
    /// Pop and discard (expression statement).
    Pop,
    /// Pop `argc` args, call function `names[name]` (script functions
    /// shadow builtins, as in the tree-walker) and push its result.
    Call {
        name: u32,
        argc: u8,
    },
    /// Pop `argc` args and a receiver, call the method and push its result.
    /// `index` is the position of `names[name]` among the methods of the
    /// class the chunk was compiled for ([`Op::UNRESOLVED`] when it has
    /// none, or no class): a gate crossing, whose receiver is almost
    /// always that class, finds the callee's chunk by it.
    Method {
        name: u32,
        argc: u8,
        index: u16,
    },
    /// Pop `argc` args, instantiate class `names[class]` (running `init`
    /// if declared) and push the object.
    New {
        class: u32,
        argc: u8,
    },
    /// Pop an object, push its field `names[i]`.
    GetProp(u32),
    /// Pop an object then a value, set field `names[i]`.
    SetProp(u32),
    /// Pop index and container, push the element.
    GetIndex,
    /// Pop index, container, value; store the element.
    SetIndex,
    /// Register function `consts[i]` in the interpreter.
    DefineFn(u32),
    /// Register class `consts[i]` (policy classes also register their
    /// revival closure).
    DefineClass(u32),
    /// Pop the return value and leave the current frame.
    Return,
    /// Pop and raise a script exception (unwinds every frame).
    Throw,
    // ---- fused instructions ----
    //
    // Emitted by AST-level instruction selection for the hottest shapes in
    // policy-check loops. Each is observationally identical to the opcode
    // sequence it replaces: the VM's slow path literally performs the
    // decomposed steps, so labels, errors, and evaluation order cannot
    // drift from the tree-walker.
    /// `TOS = TOS ⊕ k`: replaces `Const k; Add/Sub/Mul/Div/Mod` for an
    /// `i32` literal right operand (`x + 1`, `h % 65521`, ...).
    ConstArith {
        op: crate::ast::BinOp,
        k: i32,
    },
    /// Push `slots[arr][slots[idx]]`: replaces `LoadSlot arr; LoadSlot
    /// idx; GetIndex` (the `w[i]` of every scan loop).
    IndexSlots {
        arr: u16,
        idx: u16,
    },
    /// Fused `while (a < b)` guard: jump to `t` when `slots[a] < slots[b]`
    /// is false — replaces `LoadSlot a; LoadSlot b; Lt; JumpIfFalse t`.
    /// Always a forward jump, so it never counts as a loop iteration.
    JumpSlotsGe {
        a: u8,
        b: u8,
        t: u32,
    },
    /// `slots[slot] += k` in place: replaces `LoadSlot s; Const k; Add;
    /// StoreSlot s` (the `i = i + 1` of every counted loop).
    IncSlot {
        slot: u16,
        k: i32,
    },
}

impl Op {
    /// [`Op::Method`]'s `index` when the compiler could not resolve the
    /// method name.
    pub(crate) const UNRESOLVED: u16 = u16::MAX;
}

/// A constant-pool entry.
#[derive(Debug, Clone)]
pub(crate) enum Const {
    /// Integer literal.
    Int(i64),
    /// String literal (deduplicated, untainted): built once here, so a
    /// load clones the pointer instead of allocating.
    Str(Arc<TaintedString>),
    /// A function declaration (target of [`Op::DefineFn`]).
    Fn(Arc<FnDecl>),
    /// A class declaration (target of [`Op::DefineClass`]).
    Class(Arc<ClassDecl>),
}

/// A compiled program or function body.
#[derive(Debug)]
pub struct Chunk {
    /// Instruction stream; every path ends in [`Op::Return`].
    pub(crate) code: Vec<Op>,
    /// Deduplicated literal pool.
    pub(crate) consts: Vec<Const>,
    /// Interned global/function/class/field names.
    pub(crate) names: Vec<Arc<str>>,
    /// Local slot names, parameters first (used for the global fallback
    /// of unbound slots and for diagnostics).
    pub(crate) slot_names: Vec<Arc<str>>,
    /// Run-length line table: `(first instruction index, source line)`,
    /// ascending; a lookup is a binary search.
    pub(crate) lines: Vec<(u32, u32)>,
    /// The compiled function's name (empty for a top-level program).
    pub(crate) name: String,
    /// The compiled function's parameter count.
    pub(crate) arity: usize,
}

impl Chunk {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the chunk holds no instructions (never the case for
    /// compiler output, which always ends in a return).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of local slots the chunk's frame needs.
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }

    /// The compiled function's name (empty for a top-level program).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arguments the compiled function takes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Source line of the instruction at `ip`, if recorded.
    pub fn line_of(&self, ip: usize) -> Option<u32> {
        let ip = ip as u32;
        match self.lines.partition_point(|&(start, _)| start <= ip) {
            0 => None,
            n => Some(self.lines[n - 1].1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_with_lines(lines: Vec<(u32, u32)>) -> Chunk {
        Chunk {
            code: vec![Op::Null; 10],
            consts: Vec::new(),
            names: Vec::new(),
            slot_names: Vec::new(),
            lines,
            name: String::new(),
            arity: 0,
        }
    }

    #[test]
    fn line_table_lookup() {
        let c = chunk_with_lines(vec![(0, 1), (3, 2), (7, 5)]);
        assert_eq!(c.line_of(0), Some(1));
        assert_eq!(c.line_of(2), Some(1));
        assert_eq!(c.line_of(3), Some(2));
        assert_eq!(c.line_of(6), Some(2));
        assert_eq!(c.line_of(7), Some(5));
        assert_eq!(c.line_of(9), Some(5));
    }

    #[test]
    fn empty_line_table() {
        let c = chunk_with_lines(Vec::new());
        assert_eq!(c.line_of(0), None);
    }

    #[test]
    fn ops_are_one_word() {
        // The dispatch loop reads ops by value; keep them register-sized.
        assert!(std::mem::size_of::<Op>() <= 8);
    }
}
