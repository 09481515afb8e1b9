//! The RSL abstract syntax tree.
//!
//! AST nodes are immutable and shared via `Arc`, which keeps them `Send +
//! Sync` — script-defined policy classes capture their `export_check`
//! method AST inside a [`resin_core::Policy`] object, so the AST must be
//! shareable across the policy registry.

use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` — integer addition or string concatenation (dynamic).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` / `and`
    And,
    /// `||` / `or`
    Or,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Var(String),
    /// `this` inside a method.
    This,
    /// `[a, b, c]` array literal.
    Array(Vec<Expr>),
    /// `!e` / `not e`.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function (or builtin) call: `f(args)`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call: `obj.m(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Property read: `obj.field`.
    Prop(Box<Expr>, String),
    /// Indexing: `a[i]` (arrays by int, maps by string).
    Index(Box<Expr>, Box<Expr>),
    /// `new Class(args)`.
    New {
        /// Class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `x = ...`
    Var(String),
    /// `obj.field = ...`
    Prop(Expr, String),
    /// `a[i] = ...`
    Index(Expr, Expr),
}

/// A statement with its source position.
///
/// The line is attached by the parser; the bytecode compiler records it in
/// the chunk's line table so the VM can recover it from an instruction
/// pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// 1-based source line of the statement's first token.
    pub line: u32,
}

impl Stmt {
    /// A statement at a known line.
    pub fn new(kind: StmtKind, line: u32) -> Stmt {
        Stmt { kind, line }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `let x = e;`
    Let(String, Expr),
    /// `target = e;`
    Assign(Target, Expr),
    /// Bare expression statement.
    Expr(Expr),
    /// `if (c) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (empty when absent).
        else_body: Vec<Stmt>,
    },
    /// `while (c) { .. }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e;`
    Return(Option<Expr>),
    /// `throw e;`
    Throw(Expr),
    /// Function definition.
    FnDef(Arc<FnDecl>),
    /// Class definition.
    ClassDef(Arc<ClassDecl>),
}

/// A function (or method) declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDecl {
    /// Name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A class declaration.
///
/// Classes have methods only; fields spring into existence on assignment
/// (PHP/Python style). The method named `init` is the constructor. A class
/// with an `export_check` method can be used as a *policy class* (§3.3).
/// Two declarations are equal when they are the same code at the same
/// lines, so they run alike and report errors alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Methods by declaration order.
    pub methods: Vec<Arc<FnDecl>>,
}

impl ClassDecl {
    /// Finds a method by name.
    pub fn method(&self, name: &str) -> Option<&Arc<FnDecl>> {
        self.methods.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_method_lookup() {
        let c = ClassDecl {
            name: "P".into(),
            methods: vec![Arc::new(FnDecl {
                name: "export_check".into(),
                params: vec!["context".into()],
                body: vec![],
            })],
        };
        assert!(c.method("export_check").is_some());
        assert!(c.method("nope").is_none());
    }
}
