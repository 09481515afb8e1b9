//! Compiled RSL bytecode chunks.
//!
//! A [`Chunk`] is the unit of compilation: one top-level program or one
//! function/method body, lowered to a flat stream of register-form
//! instructions with a deduplicated constant pool, interned name tables,
//! and a run-length line table mapping instruction indices back to source
//! lines. Chunks are immutable after compilation and `Send + Sync`, so the
//! process-wide policy-chunk cache (alongside the policy interner) can
//! hand the same `Arc<Chunk>` to every gate crossing.
//!
//! # Frame layout
//!
//! A frame is a window of [`Chunk::slot_count`] slots: slot 0 is `this`
//! (unbound outside a method), slots `1..=arity` the parameters, then the
//! other named locals, then the temporaries the compiler allocated
//! stack-wise. Only a named slot may be read while unbound (it falls back
//! to the global of its name); a temporary is always written before it is
//! read.
//!
//! A call's window starts at a temporary `w` of the caller: `w` becomes
//! the callee's slot 0 and `w + 1 ..= w + argc` — where the caller
//! evaluated the arguments — its parameters, so nothing moves.

use std::sync::Arc;

use resin_core::TaintedString;

use crate::ast::{BinOp, ClassDecl, FnDecl};
use crate::interp::{Builtin, LangError};
use crate::value::Value;

/// A source operand: a slot of the current frame, or a constant-pool
/// entry (top bit set). Each takes 15 bits; the compiler refuses a chunk
/// that needs more of either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Src(u16);

impl Src {
    const CONST: u16 = 0x8000;
    /// Slots per frame and operand-addressable constants per chunk.
    pub(crate) const LIMIT: usize = Src::CONST as usize;

    pub(crate) fn slot(i: u16) -> Src {
        debug_assert!(i < Src::CONST);
        Src(i)
    }

    pub(crate) fn konst(k: u16) -> Src {
        debug_assert!(k < Src::CONST);
        Src(k | Src::CONST)
    }

    /// `Ok(slot)` or `Err(constant index)`.
    #[inline(always)]
    pub(crate) fn decode(self) -> Result<usize, usize> {
        if self.0 & Src::CONST == 0 {
            Ok(self.0 as usize)
        } else {
            Err((self.0 & !Src::CONST) as usize)
        }
    }
}

/// One VM instruction: three-address, operands inline. `dst`, `base` and
/// `n` are slots of the current frame (`base` where a call's window or an
/// array's items start), `name` indexes the name table, `t` the code. The
/// enum is `Copy`, so dispatch reads one word.
///
/// A destination is written unconditionally (binding the slot) by every
/// instruction but [`Op::Assign`], and only after every source operand
/// has been read, so a destination may also be an operand.
#[rustfmt::skip]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst = src`.
    Move { dst: u16, src: Src },
    /// Plain assignment to a named local that may be unbound: into the
    /// slot if bound, else into an existing global of its name, else bind
    /// the slot (first assignment defines).
    Assign { dst: u16, src: Src },
    /// `dst =` the global `names[name]` (error when undefined).
    LoadGlobal { dst: u16, name: u32 },
    /// The global `names[name]` `= src` (defining it if absent).
    StoreGlobal { name: u32, src: Src },
    /// `dst =` an array of the `n` temporaries from `base` (moved out).
    MakeArray { dst: u16, base: u16, n: u16 },
    /// `dst = !truthy(src)`.
    Not { dst: u16, src: Src },
    /// `dst = -src`.
    Neg { dst: u16, src: Src },
    /// `dst = a ⊕ b`; labels union as `Interp::add_values` and
    /// `arith_values` define (`+` also concatenates strings with
    /// byte-range spans).
    Add { dst: u16, a: Src, b: Src },
    Sub { dst: u16, a: Src, b: Src },
    Mul { dst: u16, a: Src, b: Src },
    Div { dst: u16, a: Src, b: Src },
    Mod { dst: u16, a: Src, b: Src },
    /// `dst = a ⋈ b` as a bool, `cmp` one of the six comparisons.
    Cmp { cmp: BinOp, dst: u16, a: Src, b: Src },
    /// Jump to `t` unless `a ⋈ b`. A loop whose guard is one of these is
    /// closed by the same instruction, negated, as its back-edge (counted
    /// against the loop-iteration limit like any backward jump).
    CmpJump { cmp: BinOp, a: Src, b: Src, t: u16 },
    /// Unconditional jump.
    Jump(u32),
    /// Jump to `t` when `truthy(src) == when`.
    JumpIf { src: Src, when: bool, t: u32 },
    /// `dst =` the result of function `names[name]` over the window at
    /// `base` (error when no script function has that name).
    Call { argc: u8, name: u16, base: u16, dst: u16 },
    /// As [`Op::Call`] for a name the compiler resolved to a builtin; a
    /// script function of that name, whenever defined, still wins.
    CallBuiltin { id: Builtin, argc: u8, base: u16, dst: u16 },
    /// Calls method `names[name]` of the receiver in slot `base` over the
    /// window there; the result replaces the receiver. `index` is the
    /// position of the name among the methods of the class the chunk was
    /// compiled for ([`Op::UNRESOLVED`] when it has none, or no class): a
    /// gate crossing, whose receiver is almost always that class, finds
    /// the callee's chunk by it.
    Method { argc: u8, name: u16, index: u16, base: u16 },
    /// `dst =` a new instance of class `names[class]`, after running its
    /// `init` (if declared) over the window at `base`.
    New { argc: u8, class: u16, base: u16, dst: u16 },
    /// `dst = obj.names[name]`.
    GetProp { dst: u16, obj: Src, name: u16 },
    /// `obj.names[name] = val`.
    SetProp { obj: Src, name: u16, val: Src },
    /// `dst = a[i]`.
    Index { dst: u16, a: Src, i: Src },
    /// `a[i] = val`.
    SetIndex { a: Src, i: Src, val: Src },
    /// Register the function or class `consts[i]` in the interpreter
    /// (policy classes also register their revival closure).
    Define(u32),
    /// Leave the current frame with `src` as its value.
    Return { src: Src },
    /// Raise `src` as a script exception (unwinds every frame).
    Throw { src: Src },
}

impl Op {
    /// [`Op::Method`]'s `index` when the compiler could not resolve the
    /// method name.
    pub(crate) const UNRESOLVED: u16 = u16::MAX;

    /// The target of a jump instruction.
    pub(crate) fn jump_target(self) -> Option<usize> {
        match self {
            Op::Jump(t) | Op::JumpIf { t, .. } => Some(t as usize),
            Op::CmpJump { t, .. } => Some(t as usize),
            _ => None,
        }
    }

    /// The source operands the instruction reads, in operand order (the
    /// windows of calls and arrays hold temporaries and are not listed).
    pub(crate) fn sources(self) -> [Option<Src>; 3] {
        match self {
            Op::Move { src, .. }
            | Op::Assign { src, .. }
            | Op::StoreGlobal { src, .. }
            | Op::Not { src, .. }
            | Op::Neg { src, .. }
            | Op::JumpIf { src, .. }
            | Op::Return { src }
            | Op::Throw { src } => [Some(src), None, None],
            Op::Add { a, b, .. }
            | Op::Sub { a, b, .. }
            | Op::Mul { a, b, .. }
            | Op::Div { a, b, .. }
            | Op::Mod { a, b, .. }
            | Op::Cmp { a, b, .. }
            | Op::CmpJump { a, b, .. } => [Some(a), Some(b), None],
            Op::GetProp { obj, .. } => [Some(obj), None, None],
            Op::SetProp { obj, val, .. } => [Some(obj), Some(val), None],
            Op::Index { a, i, .. } => [Some(a), Some(i), None],
            Op::SetIndex { a, i, val } => [Some(a), Some(i), Some(val)],
            Op::LoadGlobal { .. }
            | Op::MakeArray { .. }
            | Op::Jump(_)
            | Op::Call { .. }
            | Op::CallBuiltin { .. }
            | Op::Method { .. }
            | Op::New { .. }
            | Op::Define(_) => [None; 3],
        }
    }

    /// The slot the instruction writes, if any ([`Op::Method`]'s result
    /// replaces its receiver).
    pub(crate) fn dest(self) -> Option<u16> {
        match self {
            Op::Move { dst, .. }
            | Op::Assign { dst, .. }
            | Op::LoadGlobal { dst, .. }
            | Op::MakeArray { dst, .. }
            | Op::Not { dst, .. }
            | Op::Neg { dst, .. }
            | Op::Add { dst, .. }
            | Op::Sub { dst, .. }
            | Op::Mul { dst, .. }
            | Op::Div { dst, .. }
            | Op::Mod { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Call { dst, .. }
            | Op::CallBuiltin { dst, .. }
            | Op::New { dst, .. }
            | Op::GetProp { dst, .. }
            | Op::Index { dst, .. } => Some(dst),
            Op::Method { base, .. } => Some(base),
            Op::StoreGlobal { .. }
            | Op::CmpJump { .. }
            | Op::Jump(_)
            | Op::JumpIf { .. }
            | Op::SetProp { .. }
            | Op::SetIndex { .. }
            | Op::Define(_)
            | Op::Return { .. }
            | Op::Throw { .. } => None,
        }
    }

    /// The jump instruction retargeted to `t` (a compare-and-branch keeps
    /// its target in 16 bits).
    pub(crate) fn with_target(self, t: usize) -> Result<Op, LangError> {
        let t32 = t as u32;
        Ok(match self {
            Op::Jump(_) => Op::Jump(t32),
            Op::JumpIf { src, when, .. } => Op::JumpIf { src, when, t: t32 },
            Op::CmpJump { cmp, a, b, .. } => {
                let t = u16::try_from(t).map_err(|_| LangError::new("function too large"))?;
                Op::CmpJump { cmp, a, b, t }
            }
            _ => unreachable!("retargeting a non-jump {self:?}"),
        })
    }
}

/// A constant-pool entry.
#[derive(Debug, Clone)]
pub(crate) enum Const {
    Null,
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// String literal (deduplicated, untainted): built once here, so an
    /// operand reads it in place and a load clones the pointer.
    Str(Arc<TaintedString>),
    /// A function or class declaration (target of [`Op::Define`]).
    Fn(Arc<FnDecl>),
    Class(Arc<ClassDecl>),
}

impl Const {
    /// The constant as a runtime value (declarations are never operands).
    pub(crate) fn value(&self) -> Value {
        match self {
            Const::Null => Value::Null,
            Const::Bool(b) => Value::Bool(*b),
            Const::Int(n) => Value::int(*n),
            Const::Str(s) => Value::Str(s.clone()),
            Const::Fn(_) | Const::Class(_) => unreachable!("declaration constant as an operand"),
        }
    }
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
    /// Names of the named slots — `this`, the parameters, then the other
    /// locals (used for the global fallback of unbound slots and for
    /// diagnostics). Temporaries follow and have no name.
    pub(crate) slot_names: Vec<Arc<str>>,
    /// Named slots plus the temporaries the deepest expression needs.
    pub(crate) slots: usize,
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

    /// Number of slots the chunk's frame needs: `this`, parameters, named
    /// locals and temporaries.
    pub fn slot_count(&self) -> usize {
        self.slots
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
            code: vec![Op::Jump(0); 10],
            consts: Vec::new(),
            names: Vec::new(),
            slot_names: Vec::new(),
            slots: 0,
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
