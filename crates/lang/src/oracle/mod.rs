//! The differential oracles, compiled into test builds only: a
//! tree-walking evaluator for RSL (this module), and the policy linter as
//! it ran on method ASTs ([`lint`], over [`mod@cfg`] and [`dataflow`]).
//!
//! The tree-walker runs the AST as written — a stack of hash-map scopes, one recursive
//! call per statement and expression — and calls the same operation
//! helpers and builtins as the VM, so the two can only disagree where
//! compilation got something wrong: a value, a label, an error or its
//! line, evaluation order, or scoping. The suites beside it run every case
//! on both. `import` runs the imported file on the VM at global scope, as
//! it does everywhere. A crossing runs without a host here too, and
//! refuses what the VM's crossing refuses.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use resin_core::{Context, PolicyViolation, Tracking};

use crate::ast::{BinOp, ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::check::{context_to_map, verdict};
use crate::interp::{
    finish, refused, rt, run_builtin, Builtin, Flow, Interp, LangError, MAX_CALL_DEPTH, R,
};
use crate::parser::parse_program;
use crate::value::{Obj, ScriptPolicy, Value};

mod analysis_differential;
mod cfg;
mod dataflow;
mod differential;
mod lint;

/// Parses and runs a program at global scope on the tree-walker, as
/// [`Interp::run`] does on the VM.
pub(crate) fn run(interp: &mut Interp, src: &str) -> Result<Value, LangError> {
    let program = parse_program(src).map_err(|e| LangError {
        message: e.to_string(),
        violation: false,
        line: Some(e.line),
    })?;
    match Tree::new(Some(interp), None).exec_block(&program) {
        Ok(v) | Err(Unwind::Return(v)) => Ok(v),
        Err(Unwind::Flow(flow)) => finish(Err(flow)),
    }
}

/// One crossing of `policy`'s `export_check` on the tree-walker, sharing
/// nothing with any other but the policy's frozen instance: no host, a
/// fresh context map.
pub(crate) fn cross(policy: &ScriptPolicy, context: &Context) -> Result<(), PolicyViolation> {
    let class = &policy.this.class;
    let method = class.method("export_check").expect("a policy class");
    let this = Value::Instance(policy.this.clone());
    let args = if method.params.is_empty() {
        Vec::new()
    } else {
        vec![context_to_map(context)]
    };
    let flow = Tree::new(None, Some(class)).call_decl(method, args, Some(this));
    verdict(flow, &class.name)
}

/// What unwinds a statement: a run's [`Flow`], or a `return` on its way to
/// the call (or the top level) that catches it.
enum Unwind {
    Flow(Flow),
    Return(Value),
}

impl From<Flow> for Unwind {
    fn from(flow: Flow) -> Self {
        Unwind::Flow(flow)
    }
}

/// The walker: the host, or in a crossing the crossed class, plus the
/// call frames' local scopes.
struct Tree<'a> {
    host: Option<&'a mut Interp>,
    crossed: Option<&'a Arc<ClassDecl>>,
    locals: Vec<HashMap<String, Value>>,
    call_depth: usize,
}

impl<'a> Tree<'a> {
    fn new(host: Option<&'a mut Interp>, crossed: Option<&'a Arc<ClassDecl>>) -> Self {
        Tree {
            host,
            crossed,
            locals: Vec::new(),
            call_depth: 0,
        }
    }

    fn tracking(&self) -> Tracking {
        self.host.as_ref().map_or(Tracking::On, |h| h.tracking)
    }

    // ---- scopes ----

    fn lookup(&self, name: &str) -> Option<Value> {
        if let Some(frame) = self.locals.last() {
            if let Some(v) = frame.get(name) {
                return Some(v.clone());
            }
        }
        self.host.as_ref()?.globals.get(name).cloned()
    }

    fn define(&mut self, name: &str, value: Value) {
        match self.locals.last_mut() {
            Some(frame) => {
                frame.insert(name.to_string(), value);
            }
            None => {
                if let Some(host) = self.host.as_deref_mut() {
                    host.globals.insert(name.to_string(), value);
                }
            }
        }
    }

    fn set_var(&mut self, name: &str, value: Value) {
        if let Some(frame) = self.locals.last_mut() {
            if frame.contains_key(name) {
                frame.insert(name.to_string(), value);
                return;
            }
        }
        let host = self.host.as_deref_mut();
        if let Some(global) = host.and_then(|h| h.globals.get_mut(name)) {
            *global = value;
            return;
        }
        // Implicit definition on first assignment (PHP-style).
        self.define(name, value);
    }

    // ---- execution ----

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Value, Unwind> {
        let mut last = Value::Null;
        for s in stmts {
            last = self.exec_stmt(s)?;
        }
        Ok(last)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Value, Unwind> {
        match self.exec_stmt_kind(&stmt.kind) {
            Err(Unwind::Flow(Flow::Error(mut e))) => {
                // Innermost statement wins: inner frames attach first.
                if e.line.is_none() {
                    e.line = Some(stmt.line);
                }
                Err(Flow::Error(e).into())
            }
            other => other,
        }
    }

    fn exec_stmt_kind(&mut self, stmt: &StmtKind) -> Result<Value, Unwind> {
        match stmt {
            StmtKind::Let(name, e) => {
                let v = self.eval(e)?;
                self.define(name, v);
            }
            StmtKind::Assign(target, e) => {
                let v = self.eval(e)?;
                match target {
                    Target::Var(name) => self.set_var(name, v),
                    Target::Prop(obj, field) => {
                        let o = self.eval(obj)?;
                        Interp::prop_assign(&o, field, v)?;
                    }
                    Target::Index(arr, idx) => {
                        let a = self.eval(arr)?;
                        let i = self.eval(idx)?;
                        Interp::index_assign(&a, &i, v)?;
                    }
                }
            }
            StmtKind::Expr(e) => return Ok(self.eval(e)?),
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                return if self.eval(cond)?.truthy() {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                };
            }
            StmtKind::While { cond, body } => {
                let mut iterations = 0u64;
                while self.eval(cond)?.truthy() {
                    self.exec_block(body)?;
                    iterations += 1;
                    if iterations > 100_000_000 {
                        return Err(rt("loop iteration limit exceeded").into());
                    }
                }
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                return Err(Unwind::Return(v));
            }
            StmtKind::Throw(e) => return Err(Flow::Throw(self.eval(e)?).into()),
            StmtKind::FnDef(decl) => match self.host.as_deref_mut() {
                Some(host) => {
                    host.fns.insert(decl.name.clone(), decl.clone());
                }
                None => return Err(refused(format!("function definition `{}`", decl.name)).into()),
            },
            StmtKind::ClassDef(decl) => match self.host.as_deref_mut() {
                Some(host) => host.register_class(decl)?,
                None => return Err(refused(format!("class definition `{}`", decl.name)).into()),
            },
        }
        Ok(Value::Null)
    }

    // ---- expressions ----

    fn eval_all(&mut self, exprs: &[Expr]) -> R<Vec<Value>> {
        exprs.iter().map(|e| self.eval(e)).collect()
    }

    fn eval(&mut self, expr: &Expr) -> R<Value> {
        match expr {
            Expr::Int(n) => Ok(Value::int(*n)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| rt(format!("undefined variable `{name}`"))),
            Expr::This => self
                .lookup("this")
                .ok_or_else(|| rt("`this` outside method")),
            Expr::Array(items) => Ok(Value::new_array(self.eval_all(items)?)),
            Expr::Not(e) => Ok(Value::Bool(!self.eval(e)?.truthy())),
            Expr::Neg(e) => {
                let v = self.eval(e)?;
                Interp::neg_value(v)
            }
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right),
            Expr::Index(arr, idx) => {
                let a = self.eval(arr)?;
                let i = self.eval(idx)?;
                Interp::index_value(&a, &i)
            }
            Expr::Prop(obj, field) => {
                let o = self.eval(obj)?;
                Interp::prop_value(&o, field)
            }
            Expr::New { class, args } => {
                // (The arguments first, as the VM evaluates them.)
                let argv = self.eval_all(args)?;
                let decl = match self.host.as_deref() {
                    Some(host) => host.classes.get(class).cloned(),
                    None => self.crossed.filter(|c| c.name == *class).cloned(),
                };
                let decl = decl.ok_or_else(|| rt(format!("undefined class `{class}`")))?;
                let obj = Value::Object(Rc::new(RefCell::new(Obj {
                    class: decl.clone(),
                    fields: BTreeMap::new(),
                })));
                if let Some(init) = decl.method("init") {
                    self.call_decl(init, argv, Some(obj.clone()))?;
                }
                Ok(obj)
            }
            Expr::MethodCall { recv, method, args } => {
                let r = self.eval(recv)?;
                let argv = self.eval_all(args)?;
                let Some(decl) = r.with_class(Arc::clone) else {
                    return Err(rt(format!("cannot call method on {}", r.type_name())));
                };
                let m = decl
                    .method(method)
                    .ok_or_else(|| rt(format!("no method `{method}` on `{}`", decl.name)))?;
                self.call_decl(m, argv, Some(r.clone()))
            }
            Expr::Call { name, args } => {
                let mut argv = self.eval_all(args)?;
                let script_fn = self.host.as_ref().and_then(|h| h.fns.get(name).cloned());
                if let Some(decl) = script_fn {
                    return self.call_decl(&decl, argv, None);
                }
                match Builtin::from_name(name) {
                    Some(id) => run_builtin(self.host.as_deref_mut(), id, &mut argv),
                    None => Err(rt(format!("undefined function `{name}`"))),
                }
            }
        }
    }

    fn call_decl(&mut self, decl: &FnDecl, args: Vec<Value>, this: Option<Value>) -> R<Value> {
        if args.len() != decl.params.len() {
            return Err(rt(format!(
                "`{}` expects {} arguments, got {}",
                decl.name,
                decl.params.len(),
                args.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(rt("call depth limit exceeded"));
        }
        let mut frame: HashMap<String, Value> = decl.params.iter().cloned().zip(args).collect();
        if let Some(t) = this {
            frame.insert("this".to_string(), t);
        }
        self.locals.push(frame);
        self.call_depth += 1;
        let result = self.exec_block(&decl.body);
        self.call_depth -= 1;
        self.locals.pop();
        match result {
            Ok(_) => Ok(Value::Null),
            Err(Unwind::Return(v)) => Ok(v),
            Err(Unwind::Flow(flow)) => Err(flow),
        }
    }

    fn eval_binary(&mut self, op: BinOp, left: &Expr, right: &Expr) -> R<Value> {
        // Short-circuit logicals first; they always yield a plain bool.
        let l = self.eval(left)?;
        match op {
            BinOp::And if !l.truthy() => return Ok(Value::Bool(false)),
            BinOp::Or if l.truthy() => return Ok(Value::Bool(true)),
            BinOp::And | BinOp::Or => return Ok(Value::Bool(self.eval(right)?.truthy())),
            _ => {}
        }
        let r = self.eval(right)?;
        match op {
            BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
            BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
            BinOp::Add => Interp::add_values(self.tracking(), l, r),
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                Interp::arith_values(self.tracking(), op, l, r)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => Interp::compare_values(op, &l, &r),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}
