//! The RSL bytecode compiler: AST → [`Chunk`].
//!
//! Lowering rules mirror the tree-walker exactly — same scoping (last
//! local frame, then globals, PHP-style implicit definition), same
//! evaluation order (assignment value before target, receiver before
//! arguments), same short-circuit results (`&&`/`||` always yield bools).
//! The differential test suite holds the two engines to bit-identical
//! values, labels, and error messages.
//!
//! A script function compiles once per interpreter (`chunk_for`); a
//! policy class's methods compile once per class declaration, into its
//! check plan ([`crate::check`]).

use std::collections::HashMap;
use std::sync::Arc;

use resin_core::TaintedString;

use crate::ast::{BinOp, ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::chunk::{Chunk, Const, Op};
use crate::interp::{Interp, LangError};

/// Compiles a top-level program. Every variable is a global; the chunk
/// returns the value of the last statement (matching `exec_program`).
pub(crate) fn compile_program(program: &[Stmt]) -> Result<Chunk, LangError> {
    let mut c = Compiler::new(String::new(), None, None);
    c.block(program, true)?;
    c.emit(Op::Return);
    Ok(c.finish())
}

/// Compiles a function or method body. Parameters and assigned names
/// become local slots; the implicit return value is `null`. With `class`
/// — a method compiled for that class's check plan — a method call whose
/// name is one of the class's own carries that method's index.
pub(crate) fn compile_function(
    decl: &FnDecl,
    class: Option<&ClassDecl>,
) -> Result<Chunk, LangError> {
    let mut c = Compiler::new(decl.name.clone(), Some(decl), class);
    c.block(&decl.body, false)?;
    c.emit(Op::Null);
    c.emit(Op::Return);
    Ok(c.finish())
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
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Str(String),
}

struct Compiler<'a> {
    /// The class whose method is being compiled for a check plan.
    class: Option<&'a ClassDecl>,
    arity: usize,
    code: Vec<Op>,
    consts: Vec<Const>,
    const_idx: HashMap<ConstKey, u32>,
    names: Vec<Arc<str>>,
    name_idx: HashMap<String, u32>,
    slot_names: Vec<Arc<str>>,
    slot_idx: HashMap<String, u16>,
    lines: Vec<(u32, u32)>,
    name: String,
    /// False for a top-level program (no local frame, everything global).
    in_function: bool,
}

impl<'a> Compiler<'a> {
    fn new(name: String, decl: Option<&FnDecl>, class: Option<&'a ClassDecl>) -> Compiler<'a> {
        let mut c = Compiler {
            class,
            arity: decl.map_or(0, |d| d.params.len()),
            code: Vec::new(),
            consts: Vec::new(),
            const_idx: HashMap::new(),
            names: Vec::new(),
            name_idx: HashMap::new(),
            slot_names: Vec::new(),
            slot_idx: HashMap::new(),
            lines: Vec::new(),
            name,
            in_function: decl.is_some(),
        };
        if let Some(decl) = decl {
            // Slots: parameters first, then every name `let`-bound or
            // assigned anywhere in the body (nested control flow included,
            // nested function bodies excluded — they get their own chunk).
            for p in &decl.params {
                c.add_slot(p);
            }
            collect_assigned(&decl.body, &mut c);
        }
        c
    }

    fn finish(self) -> Chunk {
        Chunk {
            code: self.code,
            consts: self.consts,
            names: self.names,
            slot_names: self.slot_names,
            lines: self.lines,
            name: self.name,
            arity: self.arity,
        }
    }

    fn add_slot(&mut self, name: &str) {
        if !self.slot_idx.contains_key(name) {
            let i = self.slot_names.len() as u16;
            self.slot_names.push(Arc::from(name));
            self.slot_idx.insert(name.to_string(), i);
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn mark_line(&mut self, line: u32) {
        let at = self.code.len() as u32;
        if self.lines.last().map(|&(_, l)| l) != Some(line) {
            self.lines.push((at, line));
        }
    }

    fn const_of(&mut self, key: ConstKey, make: impl FnOnce() -> Const) -> Result<u32, LangError> {
        if let Some(&i) = self.const_idx.get(&key) {
            return Ok(i);
        }
        let i = push_idx(&mut self.consts, make(), "constant pool")?;
        self.const_idx.insert(key, i);
        Ok(i)
    }

    fn name_of(&mut self, name: &str) -> Result<u32, LangError> {
        if let Some(&i) = self.name_idx.get(name) {
            return Ok(i);
        }
        let i = push_idx(&mut self.names, Arc::from(name), "name table")?;
        self.name_idx.insert(name.to_string(), i);
        Ok(i)
    }

    /// Emits a jump with a placeholder target; [`Compiler::patch`] later.
    fn emit_jump(&mut self, op: Op) -> usize {
        self.emit(op)
    }

    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        self.code[at] = match self.code[at] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfTrue(_) => Op::JumpIfTrue(target),
            Op::JumpSlotsGe { a, b, .. } => Op::JumpSlotsGe { a, b, t: target },
            other => unreachable!("patching non-jump {other:?}"),
        };
    }

    /// Compiles a block. With `want`, the block's value — the last
    /// statement's value, or `null` when empty — is left on the stack
    /// (only the top-level program's tail wants a value).
    fn block(&mut self, stmts: &[Stmt], want: bool) -> Result<(), LangError> {
        match stmts.split_last() {
            None => {
                if want {
                    self.emit(Op::Null);
                }
            }
            Some((last, init)) => {
                for s in init {
                    self.stmt(s, false)?;
                }
                self.stmt(last, want)?;
            }
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, want: bool) -> Result<(), LangError> {
        self.mark_line(stmt.line);
        match &stmt.kind {
            StmtKind::Let(name, e) => {
                self.expr(e)?;
                if self.in_function {
                    let i = self.slot_idx[name.as_str()];
                    self.emit(Op::LetSlot(i));
                } else {
                    let i = self.name_of(name)?;
                    self.emit(Op::StoreGlobal(i));
                }
                if want {
                    self.emit(Op::Null);
                }
            }
            StmtKind::Assign(target, e) => {
                if let Some(op) = self.fused_inc(target, e) {
                    self.emit(op);
                    if want {
                        self.emit(Op::Null);
                    }
                    return Ok(());
                }
                // Evaluation order matches the tree-walker: value first,
                // then the target's container and index expressions.
                self.expr(e)?;
                match target {
                    Target::Var(name) => self.store_var(name)?,
                    Target::Prop(obj, field) => {
                        self.expr(obj)?;
                        let i = self.name_of(field)?;
                        self.emit(Op::SetProp(i));
                    }
                    Target::Index(arr, idx) => {
                        self.expr(arr)?;
                        self.expr(idx)?;
                        self.emit(Op::SetIndex);
                    }
                }
                if want {
                    self.emit(Op::Null);
                }
            }
            StmtKind::Expr(e) => {
                self.expr(e)?;
                if !want {
                    self.emit(Op::Pop);
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr(cond)?;
                let to_else = self.emit_jump(Op::JumpIfFalse(0));
                self.block(then_body, want)?;
                let to_end = self.emit_jump(Op::Jump(0));
                self.patch(to_else);
                self.block(else_body, want)?;
                self.patch(to_end);
            }
            StmtKind::While { cond, body } => {
                let top = self.code.len() as u32;
                let to_end = match self.fused_guard(cond) {
                    Some(op) => self.emit_jump(op),
                    None => {
                        self.expr(cond)?;
                        self.emit_jump(Op::JumpIfFalse(0))
                    }
                };
                self.block(body, false)?;
                self.emit(Op::Jump(top));
                self.patch(to_end);
                if want {
                    self.emit(Op::Null);
                }
            }
            StmtKind::Return(e) => {
                match e {
                    Some(e) => self.expr(e)?,
                    None => {
                        self.emit(Op::Null);
                    }
                }
                self.emit(Op::Return);
            }
            StmtKind::Throw(e) => {
                self.expr(e)?;
                self.emit(Op::Throw);
            }
            StmtKind::FnDef(decl) => {
                let i = push_idx(&mut self.consts, Const::Fn(decl.clone()), "constant pool")?;
                self.emit(Op::DefineFn(i));
                if want {
                    self.emit(Op::Null);
                }
            }
            StmtKind::ClassDef(decl) => {
                let i = push_idx(
                    &mut self.consts,
                    Const::Class(decl.clone()),
                    "constant pool",
                )?;
                self.emit(Op::DefineClass(i));
                if want {
                    self.emit(Op::Null);
                }
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), LangError> {
        match e {
            Expr::Int(n) => {
                let i = self.const_of(ConstKey::Int(*n), || Const::Int(*n))?;
                self.emit(Op::Const(i));
            }
            Expr::Str(s) => {
                let i = self.const_of(ConstKey::Str(s.clone()), || {
                    Const::Str(Arc::new(TaintedString::from(s.clone())))
                })?;
                self.emit(Op::Const(i));
            }
            Expr::Bool(true) => {
                self.emit(Op::True);
            }
            Expr::Bool(false) => {
                self.emit(Op::False);
            }
            Expr::Null => {
                self.emit(Op::Null);
            }
            Expr::Var(name) => self.load_var(name)?,
            Expr::This => {
                self.emit(Op::LoadThis);
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(item)?;
                }
                let n = u16::try_from(items.len())
                    .map_err(|_| LangError::new("array literal too large"))?;
                self.emit(Op::MakeArray(n));
            }
            Expr::Not(e) => {
                self.expr(e)?;
                self.emit(Op::Not);
            }
            Expr::Neg(e) => {
                self.expr(e)?;
                self.emit(Op::Neg);
            }
            Expr::Binary { op, left, right } => self.binary(*op, left, right)?,
            Expr::Call { name, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let name = self.name_of(name)?;
                let argc = arg_count(args.len())?;
                self.emit(Op::Call { name, argc });
            }
            Expr::MethodCall { recv, method, args } => {
                self.expr(recv)?;
                for a in args {
                    self.expr(a)?;
                }
                let name = self.name_of(method)?;
                let argc = arg_count(args.len())?;
                let index = self
                    .class
                    .and_then(|c| c.methods.iter().position(|m| m.name == *method))
                    .and_then(|i| u16::try_from(i).ok())
                    .unwrap_or(Op::UNRESOLVED);
                self.emit(Op::Method { name, argc, index });
            }
            Expr::Prop(obj, field) => {
                self.expr(obj)?;
                let i = self.name_of(field)?;
                self.emit(Op::GetProp(i));
            }
            Expr::Index(arr, idx) => {
                if let Some(op) = self.fused_index(arr, idx) {
                    self.emit(op);
                } else {
                    self.expr(arr)?;
                    self.expr(idx)?;
                    self.emit(Op::GetIndex);
                }
            }
            Expr::New { class, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let class = self.name_of(class)?;
                let argc = arg_count(args.len())?;
                self.emit(Op::New { class, argc });
            }
        }
        Ok(())
    }

    fn binary(&mut self, op: BinOp, left: &Expr, right: &Expr) -> Result<(), LangError> {
        match op {
            // Short-circuit logicals always produce a plain bool, exactly
            // like the tree-walker.
            BinOp::And => {
                self.expr(left)?;
                let to_false = self.emit_jump(Op::JumpIfFalse(0));
                self.expr(right)?;
                self.emit(Op::Truthy);
                let to_end = self.emit_jump(Op::Jump(0));
                self.patch(to_false);
                self.emit(Op::False);
                self.patch(to_end);
            }
            BinOp::Or => {
                self.expr(left)?;
                let to_true = self.emit_jump(Op::JumpIfTrue(0));
                self.expr(right)?;
                self.emit(Op::Truthy);
                let to_end = self.emit_jump(Op::Jump(0));
                self.patch(to_true);
                self.emit(Op::True);
                self.patch(to_end);
            }
            // Arithmetic with a literal right operand folds the constant
            // into the opcode (`i + 1`, `h % 65521`, ...).
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod if matches!(right, Expr::Int(k) if i32::try_from(*k).is_ok()) =>
            {
                let Expr::Int(k) = right else { unreachable!() };
                self.expr(left)?;
                self.emit(Op::ConstArith { op, k: *k as i32 });
            }
            _ => {
                self.expr(left)?;
                self.expr(right)?;
                self.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
        }
        Ok(())
    }

    /// Slot index for `name` when reads of it compile to `LoadSlot`.
    fn slot_of(&self, e: &Expr) -> Option<u16> {
        if !self.in_function {
            return None;
        }
        let Expr::Var(name) = e else { return None };
        self.slot_idx.get(name.as_str()).copied()
    }

    /// `while (a < b)` with both operands local slots fuses the guard into
    /// one instruction.
    fn fused_guard(&self, cond: &Expr) -> Option<Op> {
        let Expr::Binary {
            op: BinOp::Lt,
            left,
            right,
        } = cond
        else {
            return None;
        };
        let a = u8::try_from(self.slot_of(left)?).ok()?;
        let b = u8::try_from(self.slot_of(right)?).ok()?;
        Some(Op::JumpSlotsGe { a, b, t: 0 })
    }

    /// `x = x + k` with `x` a local slot fuses into one in-place add.
    fn fused_inc(&self, target: &Target, e: &Expr) -> Option<Op> {
        let Target::Var(name) = target else {
            return None;
        };
        let Expr::Binary {
            op: BinOp::Add,
            left,
            right,
        } = e
        else {
            return None;
        };
        let Expr::Var(lname) = left.as_ref() else {
            return None;
        };
        if lname != name {
            return None;
        }
        let Expr::Int(k) = right.as_ref() else {
            return None;
        };
        Some(Op::IncSlot {
            slot: self.slot_of(left)?,
            k: i32::try_from(*k).ok()?,
        })
    }

    /// `arr[idx]` with both operands local slots fuses into one push.
    fn fused_index(&self, arr: &Expr, idx: &Expr) -> Option<Op> {
        Some(Op::IndexSlots {
            arr: self.slot_of(arr)?,
            idx: self.slot_of(idx)?,
        })
    }

    fn load_var(&mut self, name: &str) -> Result<(), LangError> {
        if self.in_function {
            if let Some(&i) = self.slot_idx.get(name) {
                self.emit(Op::LoadSlot(i));
                return Ok(());
            }
        }
        let i = self.name_of(name)?;
        self.emit(Op::LoadGlobal(i));
        Ok(())
    }

    fn store_var(&mut self, name: &str) -> Result<(), LangError> {
        if self.in_function {
            if let Some(&i) = self.slot_idx.get(name) {
                self.emit(Op::StoreSlot(i));
                return Ok(());
            }
        }
        let i = self.name_of(name)?;
        self.emit(Op::StoreGlobal(i));
        Ok(())
    }
}

fn arg_count(n: usize) -> Result<u8, LangError> {
    u8::try_from(n).map_err(|_| LangError::new("too many arguments (max 255)"))
}

fn push_idx<T>(v: &mut Vec<T>, item: T, what: &str) -> Result<u32, LangError> {
    let i = u32::try_from(v.len()).map_err(|_| LangError::new(format!("{what} overflow")))?;
    v.push(item);
    Ok(i)
}

/// Collects every name the body may bind locally: `let` targets and plain
/// variable assignments, through `if`/`while` but not into nested function
/// or class bodies (those compile to their own chunks with their own
/// slots). Matches the tree-walker, where only `define`/`set_var` against
/// the current frame create locals.
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

    #[test]
    fn toplevel_uses_globals() {
        let c = compile("let x = 1; x;");
        assert!(c.code.contains(&Op::StoreGlobal(0)));
        assert!(c.code.contains(&Op::LoadGlobal(0)));
        assert_eq!(c.slot_count(), 0);
    }

    #[test]
    fn function_params_and_locals_become_slots() {
        let program =
            parse_program("fn f(a, b) { let x = a; if (b) { y = 1; } return x; }").unwrap();
        let StmtKind::FnDef(decl) = &program[0].kind else {
            panic!()
        };
        let c = compile_function(decl, None).unwrap();
        // a, b (params), then x, y (assigned) — reads of `a` hit slot 0.
        assert_eq!(c.slot_count(), 4);
        assert!(c.code.contains(&Op::LoadSlot(0)));
        assert!(c.code.contains(&Op::LetSlot(2)));
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
        let c = compile("let i = 0; while (i < 3) { i = i + 1; }");
        assert!(c
            .code
            .iter()
            .enumerate()
            .any(|(at, op)| matches!(op, Op::Jump(t) if (*t as usize) < at)));
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
