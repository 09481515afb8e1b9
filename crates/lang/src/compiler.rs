//! The RSL bytecode compiler: AST → [`Chunk`].
//!
//! Lowering keeps RSL's source-level semantics exactly — scoping (last
//! local frame, then globals, PHP-style implicit definition), evaluation
//! order (assignment value before target, receiver before arguments),
//! short-circuit results (`&&`/`||` always yield bools). The differential
//! suite holds the VM to bit-identical values, labels, and error messages
//! against a tree-walking oracle that exists only in test builds.
//!
//! An expression compiles to an *operand* — a constant or a local is read
//! where it lies, anything else is computed into a temporary — and a
//! statement names the *destination* its value is computed into, so
//! `acc = acc * 33` is one instruction over the slot of `acc`.
//! Temporaries are the slots above the named locals, allocated stack-wise
//! and released at the end of the expression that needed them.
//!
//! Reading a local in place reads it when the instruction runs, which is
//! later than source order reads it if other operands are evaluated in
//! between. That is only visible for a local that may be unbound (its read
//! falls back to a global, or fails), so such a local is copied to a
//! temporary first whenever code follows it; parameters and locals a `let`
//! dominates are known bound and never copied.
//!
//! A script function compiles once per interpreter (`chunk_for`); a
//! policy class's methods compile once per class declaration, into its
//! check plan ([`crate::check`]).

use std::collections::HashMap;
use std::sync::Arc;

use resin_core::TaintedString;

use crate::ast::{BinOp, ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::chunk::{Chunk, Const, Op, Src};
use crate::interp::{Builtin, Interp, LangError};

/// Compiles a top-level program. Every variable is a global; the chunk
/// returns the value of the last statement (matching `exec_program`).
pub(crate) fn compile_program(program: &[Stmt]) -> Result<Chunk, LangError> {
    let mut c = Compiler::new(String::new(), None, None)?;
    let result = c.temp()?;
    c.block(program, Some(result))?;
    c.emit(Op::Return {
        src: Src::slot(result),
    });
    Ok(c.chunk)
}

/// Compiles a function or method body. Parameters and assigned names
/// become local slots; the implicit return value is `null`. With `class`
/// — a method compiled for that class's check plan — a method call whose
/// name is one of the class's own carries that method's index.
pub(crate) fn compile_function(
    decl: &FnDecl,
    class: Option<&ClassDecl>,
) -> Result<Chunk, LangError> {
    let mut c = Compiler::new(decl.name.clone(), Some(decl), class)?;
    c.block(&decl.body, None)?;
    let src = c.constant(ConstKey::Null)?;
    c.emit(Op::Return { src });
    Ok(c.chunk)
}

/// Get-or-compile for a script function, through the interpreter's own
/// cache.
pub(crate) fn chunk_for(interp: &mut Interp, decl: &Arc<FnDecl>) -> Result<Arc<Chunk>, LangError> {
    let key = Arc::as_ptr(decl) as usize;
    if let Some((_, chunk)) = interp.chunks.get(&key) {
        return Ok(chunk.clone());
    }
    let chunk = Arc::new(compile_function(decl, None)?);
    interp.chunks.insert(key, (decl.clone(), chunk.clone()));
    Ok(chunk)
}

// ---- lowering ----

/// Dedup key for scalar constants.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
}

struct Compiler<'a> {
    /// The class whose method is being compiled for a check plan.
    class: Option<&'a ClassDecl>,
    /// The chunk being built; its `slots` is the high-water mark of
    /// `next_temp`.
    chunk: Chunk,
    const_idx: HashMap<ConstKey, u16>,
    name_idx: HashMap<String, u32>,
    slot_idx: HashMap<String, u16>,
    /// Per named slot: bound on every path to the code being compiled (a
    /// parameter, or a local whose `let` dominates it).
    bound: Vec<bool>,
    /// The next free temporary; everything below is live.
    next_temp: u16,
}

impl<'a> Compiler<'a> {
    fn new(
        name: String,
        decl: Option<&FnDecl>,
        class: Option<&'a ClassDecl>,
    ) -> Result<Compiler<'a>, LangError> {
        let mut c = Compiler {
            class,
            chunk: Chunk {
                code: Vec::new(),
                consts: Vec::new(),
                names: Vec::new(),
                slot_names: vec![Arc::from("this")],
                slots: 0,
                lines: Vec::new(),
                name,
                arity: decl.map_or(0, |d| d.params.len()),
            },
            const_idx: HashMap::new(),
            name_idx: HashMap::new(),
            slot_idx: HashMap::new(),
            bound: Vec::new(),
            next_temp: 0,
        };
        if let Some(decl) = decl {
            // Slot `1 + i` is parameter `i` whatever its name (of two
            // parameters with one name the later is the one the name
            // reads); then every name `let`-bound
            // or assigned anywhere in the body.
            for p in &decl.params {
                c.slot_idx.remove(p);
                c.add_slot(p);
            }
            collect_assigned(&decl.body, &mut c);
        }
        let named = c.chunk.slot_names.len();
        if named >= Src::LIMIT {
            return Err(LangError::new("too many local variables"));
        }
        c.bound = vec![false; named];
        c.bound[1..=c.chunk.arity].fill(true);
        c.next_temp = named as u16;
        c.chunk.slots = named;
        Ok(c)
    }

    fn add_slot(&mut self, name: &str) {
        if !self.slot_idx.contains_key(name) {
            // (Checked against the operand space once, in `new`.)
            let i = self.chunk.slot_names.len().min(Src::LIMIT) as u16;
            self.chunk.slot_names.push(Arc::from(name));
            self.slot_idx.insert(name.to_string(), i);
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.chunk.code.push(op);
        self.chunk.code.len() - 1
    }

    fn mark_line(&mut self, line: u32) {
        let at = self.chunk.code.len() as u32;
        if self.chunk.lines.last().map(|&(_, l)| l) != Some(line) {
            self.chunk.lines.push((at, line));
        }
    }

    /// A fresh temporary, live until `next_temp` is wound back past it.
    fn temp(&mut self) -> Result<u16, LangError> {
        let t = self.next_temp;
        if t as usize >= Src::LIMIT {
            return Err(LangError::new(
                "expression too complex (out of temporaries)",
            ));
        }
        self.next_temp += 1;
        self.chunk.slots = self.chunk.slots.max(self.next_temp as usize);
        Ok(t)
    }

    fn is_temp(&self, slot: u16) -> bool {
        slot as usize >= self.chunk.slot_names.len()
    }

    fn constant(&mut self, key: ConstKey) -> Result<Src, LangError> {
        if let Some(&i) = self.const_idx.get(&key) {
            return Ok(Src::konst(i));
        }
        // Declarations share the pool, so the length is checked, not the
        // count of scalars.
        if self.chunk.consts.len() >= Src::LIMIT {
            return Err(LangError::new("too many constants"));
        }
        let i = self.chunk.consts.len() as u16;
        self.chunk.consts.push(match &key {
            ConstKey::Null => Const::Null,
            ConstKey::Bool(b) => Const::Bool(*b),
            ConstKey::Int(n) => Const::Int(*n),
            ConstKey::Str(s) => Const::Str(Arc::new(TaintedString::from(s.clone()))),
        });
        self.const_idx.insert(key, i);
        Ok(Src::konst(i))
    }

    fn name_of(&mut self, name: &str) -> Result<u32, LangError> {
        if let Some(&i) = self.name_idx.get(name) {
            return Ok(i);
        }
        let i = push_idx(&mut self.chunk.names, Arc::from(name), "name table")?;
        self.name_idx.insert(name.to_string(), i);
        Ok(i)
    }

    /// A name index for the instructions that keep it in 16 bits.
    fn name16(&mut self, name: &str) -> Result<u16, LangError> {
        u16::try_from(self.name_of(name)?).map_err(|_| LangError::new("name table overflow"))
    }

    /// Points the jumps at `sites` to the next instruction.
    fn patch(&mut self, sites: &[usize]) -> Result<(), LangError> {
        let target = self.chunk.code.len();
        for &at in sites {
            self.chunk.code[at] = self.chunk.code[at].with_target(target)?;
        }
        Ok(())
    }

    /// Compiles `body` as a nested block: what it binds is bound only
    /// inside it.
    fn nested(&mut self, body: &[Stmt], want: Option<u16>) -> Result<(), LangError> {
        let outer = self.bound.clone();
        let done = self.block(body, want);
        self.bound = outer;
        done
    }

    /// Compiles a block. With `want`, the block's value — the last
    /// statement's value, or `null` when empty — is left in that slot
    /// (only the top-level program's tail wants a value).
    fn block(&mut self, stmts: &[Stmt], want: Option<u16>) -> Result<(), LangError> {
        match stmts.split_last() {
            None => self.null_into(want)?,
            Some((last, init)) => {
                for s in init {
                    self.stmt(s, None)?;
                }
                self.stmt(last, want)?;
            }
        }
        Ok(())
    }

    /// The value of a statement that has none.
    fn null_into(&mut self, want: Option<u16>) -> Result<(), LangError> {
        if let Some(dst) = want {
            let src = self.constant(ConstKey::Null)?;
            self.emit(Op::Move { dst, src });
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, want: Option<u16>) -> Result<(), LangError> {
        self.mark_line(stmt.line);
        let mark = self.next_temp;
        match &stmt.kind {
            StmtKind::Let(name, e) => {
                match self.local(name) {
                    Some(slot) => {
                        self.expr_into(e, slot)?;
                        self.bound[slot as usize] = true;
                    }
                    None => self.store_global(name, e)?,
                }
                self.null_into(want)?;
            }
            StmtKind::Assign(target, e) => {
                // Evaluation order: value first, then the target's
                // container and index expressions.
                match target {
                    Target::Var(name) => match self.local(name) {
                        Some(slot) if self.bound[slot as usize] => self.expr_into(e, slot)?,
                        Some(slot) => {
                            let src = self.operand(e, &mut None, false)?;
                            self.emit(Op::Assign { dst: slot, src });
                        }
                        None => self.store_global(name, e)?,
                    },
                    Target::Prop(obj, field) => {
                        let val = self.operand(e, &mut None, !self.is_simple(obj))?;
                        let obj = self.operand(obj, &mut None, false)?;
                        let name = self.name16(field)?;
                        self.emit(Op::SetProp { obj, name, val });
                    }
                    Target::Index(arr, idx) => {
                        let idx_emits = !self.is_simple(idx);
                        let val = self.operand(e, &mut None, idx_emits || !self.is_simple(arr))?;
                        let a = self.operand(arr, &mut None, idx_emits)?;
                        let i = self.operand(idx, &mut None, false)?;
                        self.emit(Op::SetIndex { a, i, val });
                    }
                }
                self.null_into(want)?;
            }
            StmtKind::Expr(e) => {
                // Without a taker the value still has to be produced: a
                // bare `x;` fails when `x` is undefined.
                let dst = match want {
                    Some(dst) => dst,
                    None => self.temp()?,
                };
                self.expr_into(e, dst)?;
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let to_else = self.branch(cond, false)?;
                self.nested(then_body, want)?;
                if else_body.is_empty() && want.is_none() {
                    self.patch(&to_else)?;
                } else {
                    let to_end = self.emit(Op::Jump(0));
                    self.patch(&to_else)?;
                    self.nested(else_body, want)?;
                    self.patch(&[to_end])?;
                }
            }
            StmtKind::While { cond, body } => {
                let top = self.chunk.code.len();
                let to_end = self.branch(cond, false)?;
                self.nested(body, None)?;
                self.mark_line(stmt.line);
                let back = match self.chunk.code[top] {
                    // A guard that is one instruction (it starts with its
                    // own jump: no operand took code) is emitted at both
                    // ends: an iteration runs the body and the negated
                    // guard, and no unconditional jump.
                    Op::CmpJump { cmp, a, b, .. } if to_end == [top] => {
                        let cmp = negated(cmp);
                        Op::CmpJump { cmp, a, b, t: 0 }.with_target(top + 1)?
                    }
                    _ => Op::Jump(top as u32),
                };
                self.emit(back);
                self.patch(&to_end)?;
                self.null_into(want)?;
            }
            StmtKind::Return(e) => {
                let src = match e {
                    Some(e) => self.operand(e, &mut None, false)?,
                    None => self.constant(ConstKey::Null)?,
                };
                self.emit(Op::Return { src });
            }
            StmtKind::Throw(e) => {
                let src = self.operand(e, &mut None, false)?;
                self.emit(Op::Throw { src });
            }
            StmtKind::FnDef(decl) => self.define(Const::Fn(decl.clone()), want)?,
            StmtKind::ClassDef(decl) => self.define(Const::Class(decl.clone()), want)?,
        }
        self.next_temp = mark;
        Ok(())
    }

    fn define(&mut self, decl: Const, want: Option<u16>) -> Result<(), LangError> {
        let i = push_idx(&mut self.chunk.consts, decl, "constant pool")?;
        self.emit(Op::Define(i));
        self.null_into(want)
    }

    fn store_global(&mut self, name: &str, e: &Expr) -> Result<(), LangError> {
        let src = self.operand(e, &mut None, false)?;
        let name = self.name_of(name)?;
        self.emit(Op::StoreGlobal { name, src });
        Ok(())
    }

    /// The slot of `name` when it is a local of the function being
    /// compiled (a top-level program has none: everything is global).
    fn local(&self, name: &str) -> Option<u16> {
        self.slot_idx.get(name).copied()
    }

    /// Where `e`'s value already lies, when reading it takes no code: a
    /// local's slot, or the key of a constant.
    fn place(&self, e: &Expr) -> Option<Result<u16, ConstKey>> {
        Some(match e {
            Expr::Int(n) => Err(ConstKey::Int(*n)),
            Expr::Str(s) => Err(ConstKey::Str(s.clone())),
            Expr::Bool(b) => Err(ConstKey::Bool(*b)),
            Expr::Null => Err(ConstKey::Null),
            Expr::This => Ok(0),
            Expr::Var(name) => Ok(self.local(name)?),
            _ => return None,
        })
    }

    /// True when [`Compiler::operand`] emits no code for `e` (unpinned).
    fn is_simple(&self, e: &Expr) -> bool {
        self.place(e).is_some()
    }

    /// [`Compiler::place`] as an operand, and whether reading it can fail
    /// or see a global (a local that may be unbound; `this` always may).
    fn in_place(&mut self, e: &Expr) -> Result<Option<(Src, bool)>, LangError> {
        Ok(match self.place(e) {
            None => None,
            Some(Ok(slot)) => Some((Src::slot(slot), !self.bound[slot as usize])),
            Some(Err(key)) => Some((self.constant(key)?, false)),
        })
    }

    /// Compiles `e` as a source operand. A value that has to be computed
    /// goes to `scratch` — a temporary the caller owns, taken when used —
    /// or to a fresh temporary. `pinned` says code runs between this
    /// operand and the instruction that reads it, so a local that may be
    /// unbound is read now, into a temporary.
    fn operand(
        &mut self,
        e: &Expr,
        scratch: &mut Option<u16>,
        pinned: bool,
    ) -> Result<Src, LangError> {
        let lies = self.in_place(e)?;
        if let Some((src, may_be_unbound)) = lies {
            if !(pinned && may_be_unbound) {
                return Ok(src);
            }
        }
        let dst = match scratch.take() {
            Some(dst) => dst,
            None => self.temp()?,
        };
        match lies {
            Some((src, _)) => {
                self.emit(Op::Move { dst, src });
            }
            None => self.expr_into(e, dst)?,
        }
        Ok(Src::slot(dst))
    }

    /// The two operands of a binary instruction whose result goes to
    /// `dst`, which serves as scratch when it is a temporary.
    fn operands(&mut self, left: &Expr, right: &Expr, dst: u16) -> Result<(Src, Src), LangError> {
        let mut scratch = self.is_temp(dst).then_some(dst);
        let a = self.operand(left, &mut scratch, !self.is_simple(right))?;
        let b = self.operand(right, &mut scratch, false)?;
        Ok((a, b))
    }

    /// Emits code that jumps when `truthy(e) == sense` and falls through
    /// otherwise; returns the jumps, to be patched by the caller.
    /// `&&`, `||` and `!` become control flow, a comparison one
    /// compare-and-branch.
    fn branch(&mut self, e: &Expr, sense: bool) -> Result<Vec<usize>, LangError> {
        let mark = self.next_temp;
        let sites = match e {
            Expr::Not(inner) => self.branch(inner, !sense)?,
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => {
                // `&&` is decided by a falsy left, `||` by a truthy one.
                let decisive = *op == BinOp::Or;
                if sense == decisive {
                    let mut sites = self.branch(left, decisive)?;
                    sites.extend(self.branch(right, decisive)?);
                    sites
                } else {
                    let skip = self.branch(left, decisive)?;
                    let sites = self.branch(right, sense)?;
                    self.patch(&skip)?;
                    sites
                }
            }
            Expr::Binary { op, left, right } if is_compare(*op) => {
                let a = self.operand(left, &mut None, !self.is_simple(right))?;
                let b = self.operand(right, &mut None, false)?;
                // The instruction jumps when its comparison fails.
                let cmp = if sense { negated(*op) } else { *op };
                vec![self.emit(Op::CmpJump { cmp, a, b, t: 0 })]
            }
            _ => {
                let src = self.operand(e, &mut None, false)?;
                let (when, t) = (sense, 0);
                vec![self.emit(Op::JumpIf { src, when, t })]
            }
        };
        self.next_temp = mark;
        Ok(sites)
    }

    /// Compiles `e` so that its value ends up in `dst`. Every operand is
    /// read before `dst` is written, so `dst` may be a local `e` reads;
    /// only a temporary `dst` is used for intermediate results.
    fn expr_into(&mut self, e: &Expr, dst: u16) -> Result<(), LangError> {
        let mark = self.next_temp;
        if let Some((src, _)) = self.in_place(e)? {
            self.emit(Op::Move { dst, src });
            return Ok(());
        }
        match e {
            Expr::Int(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::This => {
                unreachable!("read in place")
            }
            Expr::Var(name) => {
                let name = self.name_of(name)?;
                self.emit(Op::LoadGlobal { dst, name });
            }
            Expr::Array(items) => {
                let base = self.next_temp;
                for item in items {
                    let slot = self.temp()?;
                    self.expr_into(item, slot)?;
                }
                let n = u16::try_from(items.len())
                    .map_err(|_| LangError::new("array literal too large"))?;
                self.emit(Op::MakeArray { dst, base, n });
            }
            Expr::Not(inner) | Expr::Neg(inner) => {
                let mut scratch = self.is_temp(dst).then_some(dst);
                let src = self.operand(inner, &mut scratch, false)?;
                self.emit(match e {
                    Expr::Not(_) => Op::Not { dst, src },
                    _ => Op::Neg { dst, src },
                });
            }
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                ..
            } => {
                // Short-circuit logicals always produce a plain bool.
                let to_false = self.branch(e, false)?;
                let src = self.constant(ConstKey::Bool(true))?;
                self.emit(Op::Move { dst, src });
                let to_end = self.emit(Op::Jump(0));
                self.patch(&to_false)?;
                let src = self.constant(ConstKey::Bool(false))?;
                self.emit(Op::Move { dst, src });
                self.patch(&[to_end])?;
            }
            Expr::Binary { op, left, right } => {
                let (a, b) = self.operands(left, right, dst)?;
                self.emit(match op {
                    BinOp::Add => Op::Add { dst, a, b },
                    BinOp::Sub => Op::Sub { dst, a, b },
                    BinOp::Mul => Op::Mul { dst, a, b },
                    BinOp::Div => Op::Div { dst, a, b },
                    BinOp::Mod => Op::Mod { dst, a, b },
                    // (`&&` and `||` are handled above.)
                    cmp => Op::Cmp {
                        cmp: *cmp,
                        dst,
                        a,
                        b,
                    },
                });
            }
            Expr::Call { name, args } => {
                let base = self.temp()?;
                let argc = self.arguments(args)?;
                let op = match Builtin::from_name(name) {
                    Some(id) => Op::CallBuiltin {
                        id,
                        argc,
                        base,
                        dst,
                    },
                    None => Op::Call {
                        argc,
                        name: self.name16(name)?,
                        base,
                        dst,
                    },
                };
                self.emit(op);
            }
            Expr::MethodCall { recv, method, args } => {
                // The result replaces the receiver, so a destination that
                // is the topmost temporary can be the window itself.
                let base = match self.is_temp(dst) && dst + 1 == self.next_temp {
                    true => dst,
                    false => self.temp()?,
                };
                self.expr_into(recv, base)?;
                let argc = self.arguments(args)?;
                let index = self
                    .class
                    .and_then(|c| c.methods.iter().position(|m| m.name == *method))
                    .and_then(|i| u16::try_from(i).ok())
                    .unwrap_or(Op::UNRESOLVED);
                let name = self.name16(method)?;
                self.emit(Op::Method {
                    argc,
                    name,
                    index,
                    base,
                });
                if base != dst {
                    self.emit(Op::Move {
                        dst,
                        src: Src::slot(base),
                    });
                }
            }
            Expr::Prop(obj, field) => {
                let mut scratch = self.is_temp(dst).then_some(dst);
                let obj = self.operand(obj, &mut scratch, false)?;
                let name = self.name16(field)?;
                self.emit(Op::GetProp { dst, obj, name });
            }
            Expr::Index(arr, idx) => {
                let (a, i) = self.operands(arr, idx, dst)?;
                self.emit(Op::Index { dst, a, i });
            }
            Expr::New { class, args } => {
                let base = self.temp()?;
                let argc = self.arguments(args)?;
                let class = self.name16(class)?;
                self.emit(Op::New {
                    argc,
                    class,
                    base,
                    dst,
                });
            }
        }
        self.next_temp = mark;
        Ok(())
    }

    /// Evaluates call arguments into the temporaries after the window's
    /// first slot (the caller has just allocated it).
    fn arguments(&mut self, args: &[Expr]) -> Result<u8, LangError> {
        let argc =
            u8::try_from(args.len()).map_err(|_| LangError::new("too many arguments (max 255)"))?;
        for arg in args {
            let slot = self.temp()?;
            self.expr_into(arg, slot)?;
        }
        Ok(argc)
    }
}

fn is_compare(op: BinOp) -> bool {
    use BinOp::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}

/// The comparison that holds exactly when `cmp` does not.
fn negated(cmp: BinOp) -> BinOp {
    match cmp {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        _ => unreachable!("not a comparison: {cmp:?}"),
    }
}

fn push_idx<T>(v: &mut Vec<T>, item: T, what: &str) -> Result<u32, LangError> {
    let i = u32::try_from(v.len()).map_err(|_| LangError::new(format!("{what} overflow")))?;
    v.push(item);
    Ok(i)
}

/// Collects every name the body may bind locally: `let` targets and plain
/// variable assignments, through `if`/`while` but not into nested function
/// or class bodies (those compile to their own chunks with their own
/// slots). Only `let` and assignment in the function's own body create
/// locals.
fn collect_assigned(stmts: &[Stmt], c: &mut Compiler<'_>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Let(name, _) => c.add_slot(name),
            StmtKind::Assign(Target::Var(name), _) => c.add_slot(name),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, c);
                collect_assigned(else_body, c);
            }
            StmtKind::While { body, .. } => collect_assigned(body, c),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile(src: &str) -> Chunk {
        compile_program(&parse_program(src).unwrap()).unwrap()
    }

    fn compile_fn(src: &str) -> Chunk {
        let program = parse_program(src).unwrap();
        let StmtKind::FnDef(decl) = &program[0].kind else {
            panic!()
        };
        compile_function(decl, None).unwrap()
    }

    #[test]
    fn toplevel_uses_globals() {
        let c = compile("let x = 1; x;");
        assert!(c
            .code
            .iter()
            .any(|op| matches!(op, Op::StoreGlobal { name: 0, .. })));
        assert!(c
            .code
            .iter()
            .any(|op| matches!(op, Op::LoadGlobal { name: 0, .. })));
        // `this` (unbound) and the temporary the program's value is in.
        assert_eq!(c.slot_count(), 2);
    }

    #[test]
    fn function_params_and_locals_become_slots() {
        let c = compile_fn("fn f(a, b) { let x = a; if (b) { y = 1; } return x; }");
        // this, a, b (params), then x, y (assigned); nothing needs a
        // temporary — `a` is read where it lies, into the slot of `x`.
        assert_eq!(c.slot_count(), 5);
        let (a, x, y) = (Src::slot(1), 3, 4);
        assert!(c.code.contains(&Op::Move { dst: x, src: a }));
        // `y` may be unbound where it is assigned: the PHP rule decides.
        assert!(c
            .code
            .iter()
            .any(|op| matches!(op, Op::Assign { dst, .. } if *dst == y)));
        assert!(c.code.contains(&Op::Return { src: Src::slot(x) }));
    }

    #[test]
    fn constants_are_deduplicated() {
        let c = compile(r#"1 + 1 + 1; "s" + "s";"#);
        let ints = c
            .consts
            .iter()
            .filter(|k| matches!(k, Const::Int(1)))
            .count();
        let strs = c
            .consts
            .iter()
            .filter(|k| matches!(k, Const::Str(s) if s.as_str() == "s"))
            .count();
        assert_eq!((ints, strs), (1, 1));
    }

    #[test]
    fn while_compiles_to_backward_jump() {
        // A guard that takes code is evaluated at the top only...
        let c = compile("let i = 0; while (i < 3) { i = i + 1; }");
        assert!(c
            .code
            .iter()
            .enumerate()
            .any(|(at, op)| matches!(op, Op::Jump(t) if (*t as usize) < at)));
        // ...one over operands is the back-edge too: `i = i + 1` in place
        // and the negated guard are the whole iteration.
        let c = compile_fn("fn f(n) { let i = 0; while (i < n) { i = i + 1; } }");
        let (n, i) = (Src::slot(1), 2);
        let at = c
            .code
            .iter()
            .position(|op| matches!(op, Op::Add { dst, a, .. } if *dst == i && *a == Src::slot(i)))
            .expect("in-place increment");
        let (a, b, at) = (Src::slot(i), n, at as u16);
        let guard = |cmp, t| Op::CmpJump { cmp, a, b, t };
        assert_eq!(c.code[at as usize - 1], guard(BinOp::Lt, at + 2));
        assert_eq!(c.code[at as usize + 1], guard(BinOp::Ge, at));
    }

    #[test]
    fn line_table_marks_statements() {
        let c = compile("1;\n2;\n3;");
        assert_eq!(c.line_of(0), Some(1));
        let last = c.len() - 1;
        assert_eq!(c.line_of(last), Some(3));
    }

    #[test]
    fn global_cache_compiles_once_per_decl() {
        // The process-wide table hands every caller one plan per class
        // declaration, and the plan compiles each method once.
        let program = parse_program("class ProbeCacheOnce { fn probe() { return 1; } }").unwrap();
        let StmtKind::ClassDef(class) = &program[0].kind else {
            panic!()
        };
        let plan = crate::check::plan_for(class);
        assert!(Arc::ptr_eq(&plan, &crate::check::plan_for(class)));
        let a = plan.chunk(0).unwrap().clone();
        let b = plan.chunk(0).unwrap().clone();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn a_plan_method_call_carries_the_callee_index() {
        let program = parse_program(
            "class P { fn helper() { return 1; } fn export_check(c) { this.helper(); c.other(); } }",
        )
        .unwrap();
        let StmtKind::ClassDef(class) = &program[0].kind else {
            panic!()
        };
        let indexes = |c: &Chunk| -> Vec<u16> {
            c.code
                .iter()
                .filter_map(|op| match op {
                    Op::Method { index, .. } => Some(*index),
                    _ => None,
                })
                .collect()
        };
        let planned = compile_function(&class.methods[1], Some(class)).unwrap();
        assert_eq!(indexes(&planned), vec![0, Op::UNRESOLVED]);
        assert_eq!(planned.arity(), 1);
        let plain = compile_function(&class.methods[1], None).unwrap();
        assert_eq!(indexes(&plain), vec![Op::UNRESOLVED; 2]);
    }
}
