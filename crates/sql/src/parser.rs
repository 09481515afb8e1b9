//! Recursive-descent SQL parser.

use crate::ast::{
    BinOp, ColumnDef, ColumnType, Expr, IndexKind, LitValue, Literal, Projection, SelectStmt,
    Statement,
};
use crate::error::{Result, SqlError};
use crate::token::{Tok, Token};

/// Parses a token stream (from [`crate::token::lex`]) into a statement.
pub fn parse(tokens: &[Token]) -> Result<Statement> {
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    // Allow one trailing semicolon.
    p.eat_punct(';');
    if !p.at_end() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

/// Parses a query string directly (lex + parse).
pub(crate) fn parse_str(src: &str) -> Result<Statement> {
    parse(&crate::token::lex(src)?)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos,
            message: msg.into(),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Some(Tok::Kw(k)) if k == kw => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Kw(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<()> {
        match self.peek() {
            Some(Tok::Punct(p)) if *p == c => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(p)) if *p == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(name)) => {
                let n = name.clone();
                self.pos += 1;
                Ok(n)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Tok::Kw(k)) => match k.as_str() {
                "SELECT" => self.select().map(Statement::Select),
                "INSERT" => self.insert(),
                "CREATE" => self.create(),
                "DROP" => self.drop(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                other => Err(self.err(format!("unsupported statement `{other}`"))),
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if matches!(self.peek(), Some(Tok::Kw(k)) if k == "INDEX") {
            return self.create_index();
        }
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_punct('(')?;
        let mut columns = Vec::new();
        let mut primary_key = None;
        loop {
            let col = self.ident()?;
            let ty = match self.peek() {
                Some(Tok::Kw(k)) if k == "INTEGER" => {
                    self.pos += 1;
                    ColumnType::Integer
                }
                Some(Tok::Kw(k)) if k == "TEXT" => {
                    self.pos += 1;
                    ColumnType::Text
                }
                other => return Err(self.err(format!("expected column type, found {other:?}"))),
            };
            // `PRIMARY KEY` marks the column; the engine builds an ordered
            // index `pk_<table>` on it.
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                if primary_key.is_some() {
                    return Err(self.err("multiple PRIMARY KEY columns"));
                }
                primary_key = Some(col.clone());
            }
            columns.push(ColumnDef { name: col, ty });
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
            primary_key,
        })
    }

    /// `CREATE INDEX [IF NOT EXISTS] name ON table (column) [USING HASH|BTREE]`
    fn create_index(&mut self) -> Result<Statement> {
        self.expect_kw("INDEX")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_punct('(')?;
        let column = self.ident()?;
        self.expect_punct(')')?;
        let kind = if self.eat_kw("USING") {
            if self.eat_kw("HASH") {
                IndexKind::Hash
            } else if self.eat_kw("BTREE") {
                IndexKind::Ordered
            } else {
                return Err(self.err(format!("expected HASH or BTREE, found {:?}", self.peek())));
            }
        } else {
            IndexKind::Ordered
        };
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
            kind,
            if_not_exists,
        })
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            return Ok(Statement::DropIndex { name, table });
        }
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        Ok(Statement::DropTable { name })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_punct('(') {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct('(')?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            rows.push(row);
            if !self.eat_punct(',') {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let projection = if self.eat_punct('*') {
            Projection::Star
        } else if self.eat_kw("COUNT") {
            self.expect_punct('(')?;
            self.expect_punct('*')?;
            self.expect_punct(')')?;
            Projection::CountStar
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            Projection::Columns(cols)
        };
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.ident()?;
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                self.eat_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next().map(|t| &t.tok) {
                Some(Tok::Num(n)) if *n >= 0 => Some(*n as usize),
                other => return Err(self.err(format!("expected limit count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            table,
            where_clause,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            match self.peek() {
                Some(Tok::Op("=")) => {
                    self.pos += 1;
                }
                other => return Err(self.err(format!("expected `=`, found {other:?}"))),
            }
            assignments.push((col, self.expr()?));
            if !self.eat_punct(',') {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    // Expression grammar: or_expr > and_expr > not_expr > cmp > primary.

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.primary()?;
        let op = match self.peek() {
            Some(Tok::Op("=")) => Some(BinOp::Eq),
            Some(Tok::Op("!=")) => Some(BinOp::Ne),
            Some(Tok::Op("<")) => Some(BinOp::Lt),
            Some(Tok::Op("<=")) => Some(BinOp::Le),
            Some(Tok::Op(">")) => Some(BinOp::Gt),
            Some(Tok::Op(">=")) => Some(BinOp::Ge),
            Some(Tok::Kw(k)) if k == "LIKE" => Some(BinOp::Like),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.primary()?;
            return Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_punct('(')?;
            let mut list = Vec::new();
            loop {
                list.push(self.primary()?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        } else if negated {
            return Err(self.err("expected IN after NOT"));
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr> {
        if self.eat_punct('(') {
            let e = self.expr()?;
            self.expect_punct(')')?;
            return Ok(e);
        }
        let token = self
            .next()
            .ok_or_else(|| SqlError::Parse {
                pos: self.pos,
                message: "unexpected end of query".into(),
            })?
            .clone();
        match token.tok {
            Tok::Num(n) => Ok(Expr::Lit(Literal {
                value: LitValue::Int(n),
                span: token.span,
            })),
            Tok::Str(s) => Ok(Expr::Lit(Literal {
                value: LitValue::Text(s),
                span: token.span,
            })),
            Tok::Kw(ref k) if k == "NULL" => Ok(Expr::Lit(Literal {
                value: LitValue::Null,
                span: token.span,
            })),
            Tok::Ident(name) => Ok(Expr::Column(name)),
            Tok::Param(i) => Ok(Expr::Param(i)),
            other => {
                self.pos -= 1;
                Err(self.err(format!("unexpected token {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s =
            parse_str("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, pw TEXT)").unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
                primary_key,
            } => {
                assert_eq!(name, "users");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0].ty, ColumnType::Integer);
                assert_eq!(columns[1].name, "name");
                assert!(!if_not_exists);
                assert_eq!(primary_key.as_deref(), Some("id"));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parse_create_index() {
        let s = parse_str("CREATE INDEX ix_name ON users (name) USING HASH").unwrap();
        match s {
            Statement::CreateIndex {
                name,
                table,
                column,
                kind,
                if_not_exists,
            } => {
                assert_eq!(name, "ix_name");
                assert_eq!(table, "users");
                assert_eq!(column, "name");
                assert_eq!(kind, IndexKind::Hash);
                assert!(!if_not_exists);
            }
            other => panic!("wrong statement {other:?}"),
        }
        // BTREE is the default.
        let s = parse_str("CREATE INDEX IF NOT EXISTS i ON t (a)").unwrap();
        assert!(matches!(
            s,
            Statement::CreateIndex {
                kind: IndexKind::Ordered,
                if_not_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse_str("DROP INDEX i ON t").unwrap(),
            Statement::DropIndex { .. }
        ));
        assert!(parse_str("CREATE INDEX i ON t (a) USING ROPE").is_err());
        assert!(parse_str("DROP INDEX i").is_err());
        assert!(
            parse_str("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)").is_err()
        );
    }

    #[test]
    fn parse_bind_params() {
        let s = parse_str("SELECT body FROM posts WHERE id = ? AND author = ?").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = sel.where_clause.unwrap()
        else {
            panic!("expected AND");
        };
        assert!(matches!(
            *left,
            Expr::Binary { op: BinOp::Eq, ref right, .. } if **right == Expr::Param(0)
        ));
        assert!(matches!(
            *right,
            Expr::Binary { op: BinOp::Eq, ref right, .. } if **right == Expr::Param(1)
        ));
        let s = parse_str("INSERT INTO posts VALUES (?, ?)").unwrap();
        let Statement::Insert { rows, .. } = s else {
            panic!()
        };
        assert_eq!(rows[0], vec![Expr::Param(0), Expr::Param(1)]);
    }

    #[test]
    fn parse_create_if_not_exists() {
        let s = parse_str("CREATE TABLE IF NOT EXISTS t (a TEXT)").unwrap();
        assert!(matches!(
            s,
            Statement::CreateTable {
                if_not_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_insert_multi_row() {
        let s = parse_str("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parse_insert_no_columns() {
        let s = parse_str("INSERT INTO t VALUES (1, NULL)").unwrap();
        match s {
            Statement::Insert { columns, rows, .. } => {
                assert!(columns.is_none());
                assert!(matches!(
                    rows[0][1],
                    Expr::Lit(Literal {
                        value: LitValue::Null,
                        ..
                    })
                ));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parse_select_full() {
        let s = parse_str(
            "SELECT a, b FROM t WHERE a = 1 AND b LIKE 'x%' OR NOT c > 2 ORDER BY a DESC LIMIT 5",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(
                    sel.projection,
                    Projection::Columns(vec!["a".into(), "b".into()])
                );
                assert_eq!(sel.table, "t");
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.order_by, Some(("a".to_string(), true)));
                assert_eq!(sel.limit, Some(5));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parse_select_star_and_count() {
        assert!(matches!(
            parse_str("SELECT * FROM t").unwrap(),
            Statement::Select(SelectStmt {
                projection: Projection::Star,
                ..
            })
        ));
        assert!(matches!(
            parse_str("SELECT COUNT(*) FROM t").unwrap(),
            Statement::Select(SelectStmt {
                projection: Projection::CountStar,
                ..
            })
        ));
    }

    #[test]
    fn parse_update_delete() {
        let s = parse_str("UPDATE t SET a = 1, b = 'z' WHERE id = 3").unwrap();
        match s {
            Statement::Update {
                assignments,
                where_clause,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("wrong statement {other:?}"),
        }
        assert!(matches!(
            parse_str("DELETE FROM t").unwrap(),
            Statement::Delete {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_is_null_and_in() {
        let s = parse_str("SELECT * FROM t WHERE a IS NOT NULL AND b IN (1, 2, 3)").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let w = sel.where_clause.unwrap();
        let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = w
        else {
            panic!("expected AND")
        };
        assert!(matches!(*left, Expr::IsNull { negated: true, .. }));
        assert!(matches!(*right, Expr::InList { negated: false, .. }));
    }

    #[test]
    fn parse_not_in() {
        let s = parse_str("SELECT * FROM t WHERE b NOT IN ('x')").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.where_clause.unwrap(),
            Expr::InList { negated: true, .. }
        ));
    }

    #[test]
    fn parse_parenthesized_precedence() {
        let s = parse_str("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let Expr::Binary { op, .. } = sel.where_clause.unwrap() else {
            panic!()
        };
        assert_eq!(op, BinOp::And, "parens group the OR");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_str("SELECT").is_err());
        assert!(parse_str("SELECT * FROM").is_err());
        assert!(parse_str("INSERT INTO t").is_err());
        assert!(parse_str("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_str("SELECT * FROM t extra garbage").is_err());
        assert!(parse_str("UPDATE t SET a").is_err());
        assert!(parse_str("SELECT * FROM t WHERE a NOT LIKE 'x'").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_str("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn injected_or_changes_structure() {
        // The classic injection: ' OR '1'='1 — once in the token stream, the
        // WHERE clause is an OR expression. (Detection happens in the guard,
        // not the parser.)
        let s = parse_str("SELECT * FROM users WHERE name = 'x' OR '1'='1'").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.where_clause.unwrap(),
            Expr::Binary { op: BinOp::Or, .. }
        ));
    }
}
