//! The SQL abstract syntax tree.
//!
//! Literals record their byte span in the original query text so the RESIN
//! filter can recover each value's policies from the tainted query string
//! when an INSERT/UPDATE stores them (§3.4.1).

use std::ops::Range;

use crate::value::Value;

/// A column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Integer,
    /// UTF-8 text.
    Text,
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// How `CREATE INDEX` spelled a secondary index. Both spellings build the
/// same B-tree (see [`crate::index`]); the kind is kept so that stored
/// catalogs and `EXPLAIN` read back as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// `USING HASH`.
    Hash,
    /// `USING BTREE`, the default.
    Ordered,
}

/// The projection of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// `SELECT a, b, c`
    Columns(Vec<String>),
    /// `SELECT COUNT(*)`
    CountStar,
}

/// A literal value plus its span in the query text.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// The decoded value.
    pub value: LitValue,
    /// Byte range in the query (string literals include the quotes).
    pub span: Range<usize>,
}

/// The payload of a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum LitValue {
    /// Integer literal.
    Int(i64),
    /// String literal (decoded).
    Text(String),
    /// `NULL`.
    Null,
}

impl LitValue {
    /// The storage value the literal denotes.
    pub fn to_value(&self) -> Value {
        match self {
            LitValue::Int(i) => Value::Int(*i),
            LitValue::Text(s) => Value::Text(s.clone()),
            LitValue::Null => Value::Null,
        }
    }
}

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `LIKE`
    Like,
}

/// An expression (used in `WHERE`, `SET`, and `VALUES`).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal.
    Lit(Literal),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (a, b, ...)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// A `?` bind-parameter placeholder; the payload is its 0-based
    /// ordinal in query-text order. The value arrives at execution time
    /// via [`crate::ResinDb::exec_prepared`] — it never appears in the query
    /// text, so it can never change query structure (§5.3).
    Param(usize),
}

impl Expr {
    /// If the expression is a plain literal, returns it.
    pub(crate) fn as_literal(&self) -> Option<&Literal> {
        match self {
            Expr::Lit(l) => Some(l),
            _ => None,
        }
    }
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// What to project.
    pub projection: Projection,
    /// Source table.
    pub table: String,
    /// Optional filter.
    pub where_clause: Option<Expr>,
    /// Optional `ORDER BY column [DESC]`; the bool is `descending`.
    pub order_by: Option<(String, bool)>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

/// Any parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE [IF NOT EXISTS] name (col type, ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// `IF NOT EXISTS` present.
        if_not_exists: bool,
        /// Column declared `PRIMARY KEY`, if any. The engine gives it an
        /// ordered index named `pk_<table>` automatically.
        primary_key: Option<String>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `CREATE INDEX [IF NOT EXISTS] name ON table (column) [USING HASH|BTREE]`
    CreateIndex {
        /// Index name (unique per table).
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
        /// Hash or ordered; `USING BTREE` (ordered) is the default.
        kind: IndexKind,
        /// `IF NOT EXISTS` present.
        if_not_exists: bool,
    },
    /// `DROP INDEX name ON table`
    DropIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
    },
    /// `INSERT INTO name [(cols)] VALUES (exprs), ...`
    Insert {
        /// Table name.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// One `Vec<Expr>` per row.
        rows: Vec<Vec<Expr>>,
    },
    /// `SELECT ...`
    Select(SelectStmt),
    /// `UPDATE name SET col = expr, ... [WHERE ...]`
    Update {
        /// Table name.
        table: String,
        /// Assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE ...]`
    Delete {
        /// Table name.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_accessor() {
        let lit = Expr::Lit(Literal {
            value: LitValue::Int(1),
            span: 0..1,
        });
        assert!(lit.as_literal().is_some());
        assert!(Expr::Column("a".into()).as_literal().is_none());
    }
}
