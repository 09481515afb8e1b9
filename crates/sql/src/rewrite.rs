//! The RESIN SQL filter: policy persistence and injection guards.
//!
//! RESIN attaches a default filter object to the function used to issue SQL
//! queries and uses it to *rewrite queries and results* (§3.4.1, Figure 4):
//!
//! * `CREATE TABLE` gains a shadow **policy column** per data column;
//! * writes store each cell's serialized policy into its policy column;
//! * reads fetch the policy columns and re-attach deserialized policy
//!   objects to the corresponding data cells. Blobs are borrowed, never
//!   copied; each distinct policy is decoded once per registry
//!   generation: a read revives each cell from the stored row, under the
//!   table's read lock, and a policy text the interner has decoded before
//!   (`resin_core::serialize`) resolves to its label by one lookup.
//!
//! The same filter is where the SQL-injection data flow assertion lives
//! (§5.3). Both strategies from the paper are implemented, plus the
//! tolerant-tokenizer auto-sanitizing variation:
//!
//! * [`GuardMode::MarkerCheck`] — strategy 1: any byte with
//!   `UntrustedData` but not `SqlSanitized` rejects the query;
//! * [`GuardMode::StructureCheck`] — strategy 2: any *structure* token
//!   (keyword, identifier, operator, punctuation) carrying `UntrustedData`
//!   rejects the query;
//! * [`GuardMode::AutoSanitize`] — the variation: untrusted quotes cannot
//!   terminate literals, and the query is re-emitted safely escaped.

use std::borrow::Cow;
use std::ops::Range;

use resin_core::{
    deserialize_label, deserialize_spans, serialize_label, serialize_spans, Context, Filter,
    FlowError, Gate, GateKind, Label, PolicyViolation, Runtime, SqlSanitized, Tainted,
    TaintedStrBuilder, TaintedString, UntrustedData,
};

use crate::ast::{ColumnDef, ColumnType, Expr, LitValue, Literal, Projection, Statement};
use crate::engine::{column_positions, Database, QueryResult};
use crate::error::{Result, SqlError};
use crate::token::{lex, lex_tainted, sanitize_query, Tok, Token};
use crate::value::Value;

/// Prefix of shadow policy columns.
pub const POLICY_COL_PREFIX: &str = "__rp_";

/// Whether query/result rewriting for persistent policies is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tracking {
    /// Unmodified runtime: queries pass through untouched, taint is lost.
    Off,
    /// RESIN runtime: policy columns maintained transparently.
    #[default]
    On,
}

/// Which SQL-injection assertion guards the query channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// No injection checking.
    #[default]
    Off,
    /// Strategy 1 (§5.3): untrusted bytes must carry `SqlSanitized`.
    MarkerCheck,
    /// Strategy 2 (§5.3): query structure must be untainted.
    StructureCheck,
    /// Strategy-2 variation: tolerant tokenizer + automatic sanitization.
    AutoSanitize,
}

/// A result cell with policies re-attached.
#[derive(Debug, Clone)]
pub enum TCell {
    /// SQL NULL.
    Null,
    /// Integer with a (whole-datum) policy set.
    Int(Tainted<i64>),
    /// Text with byte-range policies.
    Text(TaintedString),
}

impl TCell {
    /// The cell as tainted text, if it is text.
    pub fn as_text(&self) -> Option<&TaintedString> {
        match self {
            TCell::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The cell as a tainted integer, if it is one.
    pub fn as_int(&self) -> Option<&Tainted<i64>> {
        match self {
            TCell::Int(i) => Some(i),
            _ => None,
        }
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, TCell::Null)
    }

    /// Renders the cell as a tainted string (NULL → empty, int → digits with
    /// the int's policies applied to every digit).
    pub fn to_tainted_string(&self) -> TaintedString {
        match self {
            TCell::Null => TaintedString::new(),
            TCell::Int(i) => {
                let mut s = TaintedString::from(i.value().to_string());
                s.add_label(i.label());
                s
            }
            TCell::Text(t) => t.clone(),
        }
    }
}

/// A query result with policies re-attached to each cell.
#[derive(Debug, Clone, Default)]
pub struct TaintedResult {
    /// Data column names (policy columns are hidden).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<TCell>>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
}

impl TaintedResult {
    /// The cell at `(row, column-name)`, if present.
    pub fn cell(&self, row: usize, col: &str) -> Option<&TCell> {
        let i = self.columns.iter().position(|c| c == col)?;
        self.rows.get(row)?.get(i)
    }
}

/// The SQL-injection data flow assertion as a gate filter (§5.3).
///
/// [`ResinDb`](crate::ResinDb) mounts one of these onto the [`Runtime`] registry's sql
/// gate and exports every query through it, so the injection guard runs at
/// the same interposition point as every other boundary check. Standalone
/// use works too: mount it on any gate whose writes are SQL text.
///
/// Error mapping: violations surface as [`FlowError::Denied`]; a query the
/// guard's tokenizer cannot lex surfaces as [`FlowError::Rejected`] with
/// the lex message (the structured `SqlError::Lex` position is only
/// available from the engine's own parse step).
#[derive(Debug, Clone, Copy)]
pub struct SqlGuardFilter {
    mode: GuardMode,
}

impl SqlGuardFilter {
    /// A guard filter enforcing `mode`.
    pub fn new(mode: GuardMode) -> Self {
        SqlGuardFilter { mode }
    }

    /// The enforced guard mode.
    pub fn mode(&self) -> GuardMode {
        self.mode
    }
}

impl Filter for SqlGuardFilter {
    fn filter_write(
        &self,
        data: TaintedString,
        offset: u64,
        context: &Context,
    ) -> Result<TaintedString, FlowError> {
        self.filter_write_cow(Cow::Owned(data), offset, context)
            .map(Cow::into_owned)
    }

    // Only `AutoSanitize` rewrites the query; the checking modes forward
    // borrowed data untouched, so a `write_ref`/`export_cow` through the
    // sql gate stays copy-free.
    fn filter_write_cow<'a>(
        &self,
        data: Cow<'a, TaintedString>,
        _offset: u64,
        _context: &Context,
    ) -> Result<Cow<'a, TaintedString>, FlowError> {
        guard_query_cow(self.mode, data).map_err(|e| match e {
            SqlError::Policy(flow) => flow,
            other => FlowError::Rejected(other.to_string()),
        })
    }
}

/// Applies an injection-guard `mode` to one query, rewriting it only when
/// the mode calls for it.
fn guard_query_cow<'a>(
    mode: GuardMode,
    sql: Cow<'a, TaintedString>,
) -> Result<Cow<'a, TaintedString>> {
    match mode {
        GuardMode::Off => Ok(sql),
        GuardMode::MarkerCheck => {
            let bad = sql.ranges_where(|l| l.has::<UntrustedData>() && !l.has::<SqlSanitized>());
            if let Some(r) = bad.first() {
                let snippet = sql.slice(r.clone());
                return Err(PolicyViolation::new(
                    "SqlGuard",
                    format!(
                        "unsanitized untrusted data in SQL query at bytes {}..{}: `{}`",
                        r.start,
                        r.end,
                        snippet.as_str()
                    ),
                )
                .into());
            }
            Ok(sql)
        }
        GuardMode::StructureCheck => {
            let tokens = lex_tainted(&sql, false)?;
            check_structure_untainted(&sql, &tokens)?;
            Ok(sql)
        }
        GuardMode::AutoSanitize => {
            let tokens = lex_tainted(&sql, true)?;
            check_structure_untainted(&sql, &tokens)?;
            Ok(Cow::Owned(sanitize_query(&sql, &tokens)))
        }
    }
}

/// The registry's sql gate with `guard` mounted on the filter chain.
pub(crate) fn query_gate(guard: GuardMode) -> Gate {
    let mut gate = Runtime::global().open(GateKind::Sql);
    gate.add_filter(Box::new(SqlGuardFilter::new(guard)));
    gate
}

/// The guard + parse front half of the query pipeline: the query crosses
/// the SQL gate (borrowed export — only cloned if a guard rewrites it)
/// and comes back parsed. Transactions call this directly so they can
/// read the statement's write set *after* any guard rewriting.
pub(crate) fn prepare_query<'a>(
    sql: &'a TaintedString,
    guard: GuardMode,
) -> Result<(Cow<'a, TaintedString>, Statement)> {
    let gate = query_gate(guard);
    let sql = gate
        .export_cow(Cow::Borrowed(sql))
        .map_err(SqlError::from)?;
    let tokens = lex(sql.as_str())?;
    let stmt = crate::parser::parse(&tokens)?;
    Ok((sql, stmt))
}

/// The rewrite + execute back half of the pipeline, on an already
/// guarded-and-parsed statement. `params` carries the bind-parameter
/// values (empty for plain text queries): raw values flow to the engine,
/// labels flow into the policy-column blobs.
pub(crate) fn run_prepared(
    backend: &Database,
    sql: &TaintedString,
    stmt: Statement,
    tracking: Tracking,
    params: &[BindValue],
) -> Result<TaintedResult> {
    let raw: Vec<Value> = params.iter().map(BindValue::raw).collect();
    if tracking == Tracking::Off {
        let res = backend.execute(&stmt, &raw)?;
        return Ok(plain_result(res));
    }
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
            primary_key,
        } => create_rewritten(backend, &name, columns, if_not_exists, primary_key),
        Statement::Insert {
            table,
            columns,
            rows,
        } => insert_rewritten(backend, sql, &table, columns, rows, params, &raw),
        Statement::Select(sel) => select_rewritten(backend, sel, &raw),
        Statement::Update {
            table,
            assignments,
            where_clause,
        } => update_rewritten(
            backend,
            sql,
            &table,
            assignments,
            where_clause,
            params,
            &raw,
        ),
        Statement::CreateIndex { ref column, .. } if column.starts_with(POLICY_COL_PREFIX) => Err(
            SqlError::schema(format!("cannot index policy column `{column}` directly")),
        ),
        other @ (Statement::Delete { .. }
        | Statement::DropTable { .. }
        | Statement::CreateIndex { .. }
        | Statement::DropIndex { .. }) => {
            // DELETE/DROP need no rewriting — the paper notes DELETE's
            // low overhead for exactly this reason (§7.2). Index DDL keys
            // on raw cell values only (labels stay with the stored cells),
            // so it passes through unchanged too.
            let res = backend.execute(&other, &raw)?;
            Ok(plain_result(res))
        }
    }
}

/// A value bound to a `?` placeholder of a [`Prepared`] statement.
///
/// Bind values enter the pipeline **as data**: they are never spliced
/// into query text, so nothing an attacker puts in one can reach the
/// query's structure — the bind-parameter API is injection-proof by
/// construction rather than by checking. Labels ride along: a tainted
/// bind value stores its policies into the row's policy columns exactly
/// as a tainted literal would.
#[derive(Debug, Clone)]
pub enum BindValue {
    /// SQL NULL.
    Null,
    /// An integer with a (whole-datum) policy set.
    Int(Tainted<i64>),
    /// Text with byte-range policies.
    Text(TaintedString),
}

impl BindValue {
    /// The raw engine value (labels stripped — they travel separately
    /// into the policy columns).
    pub(crate) fn raw(&self) -> Value {
        match self {
            BindValue::Null => Value::Null,
            BindValue::Int(i) => Value::Int(*i.value()),
            BindValue::Text(t) => Value::Text(t.as_str().to_string()),
        }
    }
}

impl From<i64> for BindValue {
    fn from(v: i64) -> Self {
        BindValue::Int(Tainted::new(v))
    }
}

impl From<Tainted<i64>> for BindValue {
    fn from(v: Tainted<i64>) -> Self {
        BindValue::Int(v)
    }
}

impl From<&str> for BindValue {
    fn from(v: &str) -> Self {
        BindValue::Text(TaintedString::from(v))
    }
}

impl From<String> for BindValue {
    fn from(v: String) -> Self {
        BindValue::Text(TaintedString::from(v))
    }
}

impl From<TaintedString> for BindValue {
    fn from(v: TaintedString) -> Self {
        BindValue::Text(v)
    }
}

impl From<&TaintedString> for BindValue {
    fn from(v: &TaintedString) -> Self {
        BindValue::Text(v.clone())
    }
}

/// A guarded, parsed, ready-to-bind statement.
///
/// Produced by [`ResinDb::prepare`](crate::ResinDb::prepare). The expensive
/// per-query work — the injection-guard gate crossing, lexing, parsing,
/// and the write-target extraction that drives WAL logging — happens
/// once here; each execution only binds values and plans against current
/// index metadata. The template text is authored by the application (a
/// plain `&str`, not tainted input), so the guard sees placeholder
/// structure only; values bound later never touch the text.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Post-guard query text.
    text: TaintedString,
    /// The parsed statement (placeholders appear as [`Expr::Param`]).
    stmt: Statement,
    /// Byte spans of the `?` placeholders, in ordinal order.
    param_spans: Vec<Range<usize>>,
    /// Cached write target (WAL/transaction decision).
    write_target: Option<String>,
}

impl Prepared {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// The (post-guard) template text.
    pub fn sql(&self) -> &str {
        self.text.as_str()
    }

    /// The template text with its labels (WAL rendering, error context).
    pub(crate) fn text_tainted(&self) -> &TaintedString {
        &self.text
    }

    /// Number of `?` placeholders.
    pub fn param_count(&self) -> usize {
        self.param_spans.len()
    }

    /// The table this statement writes, if any.
    pub(crate) fn write_target(&self) -> Option<&str> {
        self.write_target.as_deref()
    }

    /// Binds one value per placeholder, in text order.
    pub fn bind(&self, values: Vec<BindValue>) -> Result<BoundStatement<'_>> {
        if values.len() != self.param_spans.len() {
            return Err(SqlError::Type(format!(
                "statement has {} parameter(s), {} value(s) bound",
                self.param_spans.len(),
                values.len()
            )));
        }
        Ok(BoundStatement {
            prepared: self,
            values,
        })
    }
}

/// A [`Prepared`] statement plus its bound parameter values, ready to run.
#[derive(Debug)]
pub struct BoundStatement<'a> {
    pub(crate) prepared: &'a Prepared,
    pub(crate) values: Vec<BindValue>,
}

/// Guards, lexes, and parses a template into a [`Prepared`] statement.
pub(crate) fn prepare_statement(sql: &str, guard: GuardMode) -> Result<Prepared> {
    let gate = query_gate(guard);
    let text = gate
        .export_cow(Cow::Owned(TaintedString::from(sql)))
        .map_err(SqlError::from)?
        .into_owned();
    let tokens = lex(text.as_str())?;
    let stmt = crate::parser::parse(&tokens)?;
    let param_spans: Vec<Range<usize>> = tokens
        .iter()
        .filter(|t| matches!(t.tok, Tok::Param(_)))
        .map(|t| t.span.clone())
        .collect();
    let write_target = crate::txn::statement_write_target(&stmt).map(str::to_string);
    Ok(Prepared {
        text,
        stmt,
        param_spans,
        write_target,
    })
}

/// Renders a bound statement as standalone tainted SQL text for the WAL:
/// each `?` is replaced by its value as an escaped literal whose bytes
/// carry the value's labels. Recovery replays the rendered text through
/// the normal rewrite, reproducing byte-identical cells *and policy
/// blobs* (escaped quote pairs carry the source label on both bytes, and
/// `decode_literal` unions them back onto the collapsed byte).
pub(crate) fn render_bound_sql(prepared: &Prepared, values: &[BindValue]) -> TaintedString {
    let text = &prepared.text;
    let mut out = TaintedStrBuilder::with_capacity(text.len() + 16 * values.len());
    let mut pos = 0usize;
    for (span, v) in prepared.param_spans.iter().zip(values) {
        out.push_tainted(&text.slice(pos..span.start));
        match v {
            BindValue::Null => out.push_label("NULL", Label::EMPTY),
            BindValue::Int(i) => out.push_label(&i.value().to_string(), i.label()),
            BindValue::Text(t) => {
                out.push_char('\'');
                let bytes = t.as_str().as_bytes();
                let mut start = 0usize;
                for (i, &b) in bytes.iter().enumerate() {
                    if b == b'\'' {
                        out.push_tainted(&t.slice(start..i));
                        out.push_label("''", t.label_at(i));
                        start = i + 1;
                    }
                }
                out.push_tainted(&t.slice(start..bytes.len()));
                out.push_char('\'');
            }
        }
        pos = span.end;
    }
    out.push_tainted(&text.slice(pos..text.len()));
    out.build()
}

// ---- rewriting ----

fn user_columns(backend: &Database, table: &str) -> Result<Vec<String>> {
    Ok(backend
        .columns_of(table)?
        .into_iter()
        .filter(|n| !n.starts_with(POLICY_COL_PREFIX))
        .collect())
}

fn create_rewritten(
    backend: &Database,
    name: &str,
    mut columns: Vec<ColumnDef>,
    if_not_exists: bool,
    primary_key: Option<String>,
) -> Result<TaintedResult> {
    for c in &columns {
        if c.name.starts_with(POLICY_COL_PREFIX) {
            return Err(SqlError::schema(format!(
                "column name `{}` collides with the policy column prefix",
                c.name
            )));
        }
    }
    let shadows: Vec<ColumnDef> = columns
        .iter()
        .map(|c| ColumnDef {
            name: format!("{POLICY_COL_PREFIX}{}", c.name),
            ty: ColumnType::Text,
        })
        .collect();
    columns.extend(shadows);
    let res = backend.execute(
        &Statement::CreateTable {
            name: name.to_string(),
            columns,
            if_not_exists,
            primary_key,
        },
        &[],
    )?;
    Ok(plain_result(res))
}

fn insert_rewritten(
    backend: &Database,
    sql: &TaintedString,
    table: &str,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<Expr>>,
    params: &[BindValue],
    raw: &[Value],
) -> Result<TaintedResult> {
    let cols = match columns {
        Some(c) => c,
        None => user_columns(backend, table)?,
    };
    let mut new_cols = cols.clone();
    new_cols.extend(cols.iter().map(|c| format!("{POLICY_COL_PREFIX}{c}")));
    let mut new_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let mut shadows = Vec::with_capacity(row.len());
        for expr in &row {
            shadows.push(Expr::Lit(Literal {
                value: LitValue::Text(policy_blob_for(sql, expr, params)),
                span: 0..0,
            }));
        }
        let mut new_row = row;
        new_row.extend(shadows);
        new_rows.push(new_row);
    }
    let res = backend.execute(
        &Statement::Insert {
            table: table.to_string(),
            columns: Some(new_cols),
            rows: new_rows,
        },
        raw,
    )?;
    Ok(plain_result(res))
}

fn update_rewritten(
    backend: &Database,
    sql: &TaintedString,
    table: &str,
    assignments: Vec<(String, Expr)>,
    where_clause: Option<Expr>,
    params: &[BindValue],
    raw: &[Value],
) -> Result<TaintedResult> {
    let mut new_assignments = Vec::with_capacity(assignments.len() * 2);
    for (col, expr) in assignments {
        let blob = policy_blob_for(sql, &expr, params);
        new_assignments.push((
            format!("{POLICY_COL_PREFIX}{col}"),
            Expr::Lit(Literal {
                value: LitValue::Text(blob),
                span: 0..0,
            }),
        ));
        new_assignments.push((col, expr));
    }
    let res = backend.execute(
        &Statement::Update {
            table: table.to_string(),
            assignments: new_assignments,
            where_clause,
        },
        raw,
    )?;
    Ok(plain_result(res))
}

fn select_rewritten(
    backend: &Database,
    sel: crate::ast::SelectStmt,
    raw: &[Value],
) -> Result<TaintedResult> {
    match &sel.projection {
        Projection::CountStar => {
            let res = backend.execute(&Statement::Select(sel), raw)?;
            return Ok(plain_result(res));
        }
        Projection::Star => {}
        Projection::Columns(cols) => {
            if let Some(c) = cols.iter().find(|c| c.starts_with(POLICY_COL_PREFIX)) {
                return Err(SqlError::schema(format!(
                    "cannot select policy column `{c}` directly"
                )));
            }
        }
    }
    // Re-attach policies where the rows live: each cell is revived from
    // the stored data and policy values under the table's read lock, so
    // the text is copied once (into its `TaintedString`) and the blob
    // not at all.
    backend.select_rows(&sel, raw, |t, matched| {
        let columns: Vec<String> = match &sel.projection {
            Projection::Columns(cols) => cols.clone(),
            _ => t
                .columns
                .iter()
                .map(|c| c.name.clone())
                .filter(|n| !n.starts_with(POLICY_COL_PREFIX))
                .collect(),
        };
        let shadows: Vec<String> = columns
            .iter()
            .map(|c| format!("{POLICY_COL_PREFIX}{c}"))
            .collect();
        let data_at = column_positions(t, &columns)?;
        let policy_at = column_positions(t, &shadows)?;
        let mut rows = Vec::with_capacity(matched.len());
        for row in matched {
            let mut out = Vec::with_capacity(columns.len());
            for (&d, &p) in data_at.iter().zip(&policy_at) {
                out.push(revive_cell(&row[d], &row[p])?);
            }
            rows.push(out);
        }
        Ok(TaintedResult {
            columns,
            rows,
            affected: 0,
        })
    })
}

fn check_structure_untainted(sql: &TaintedString, tokens: &[Token]) -> Result<()> {
    for t in tokens {
        if !t.is_structure() {
            continue;
        }
        let tainted = span_has_untrusted(sql, &t.span);
        if tainted {
            let snippet = sql.slice(t.span.clone());
            return Err(PolicyViolation::new(
                "SqlGuard",
                format!(
                    "untrusted data in SQL query structure at bytes {}..{}: `{}`",
                    t.span.start,
                    t.span.end,
                    snippet.as_str()
                ),
            )
            .into());
        }
    }
    Ok(())
}

fn span_has_untrusted(sql: &TaintedString, span: &Range<usize>) -> bool {
    sql.slice(span.clone()).has_policy::<UntrustedData>()
}

/// Decodes a string literal's interior from the tainted query, carrying
/// byte policies through `''` escape pairs: the collapsed quote gets the
/// **union of both escape bytes' labels**, so an attacker-controlled quote
/// that survives sanitization re-enters storage tainted. (An earlier
/// revision used an untainted replacement here, leaving a 1-byte blind
/// spot per escape pair that a stored-injection payload could hide in.)
fn decode_literal(sql: &TaintedString, span: &Range<usize>) -> TaintedString {
    let interior = sql.slice(span.start + 1..span.end.saturating_sub(1));
    if !interior.contains("''") {
        return interior;
    }
    let bytes = interior.as_str().as_bytes();
    let mut out = TaintedStrBuilder::with_capacity(bytes.len());
    let (mut i, mut start) = (0usize, 0usize);
    while i < bytes.len() {
        if bytes[i] == b'\'' && bytes.get(i + 1) == Some(&b'\'') {
            out.push_tainted(&interior.slice(start..i));
            out.push_label("'", interior.label_at(i).union(interior.label_at(i + 1)));
            i += 2;
            start = i;
        } else {
            i += 1;
        }
    }
    out.push_tainted(&interior.slice(start..bytes.len()));
    out.build()
}

/// The serialized policy blob for one inserted/assigned value. Literals
/// carry their labels in the query text's byte ranges; bind parameters
/// carry them on the [`BindValue`] itself.
fn policy_blob_for(sql: &TaintedString, expr: &Expr, params: &[BindValue]) -> String {
    if let Expr::Param(i) = expr {
        return match params.get(*i) {
            Some(BindValue::Text(t)) => {
                if t.is_untainted() {
                    String::new()
                } else {
                    serialize_spans(t)
                }
            }
            Some(BindValue::Int(v)) => {
                if v.label().is_empty() {
                    String::new()
                } else {
                    serialize_label(v.label())
                }
            }
            Some(BindValue::Null) | None => String::new(),
        };
    }
    let Some(lit) = expr.as_literal() else {
        return String::new();
    };
    match &lit.value {
        LitValue::Text(_) => {
            let decoded = decode_literal(sql, &lit.span);
            if decoded.is_untainted() {
                String::new()
            } else {
                serialize_spans(&decoded)
            }
        }
        LitValue::Int(_) => {
            let label = sql.slice(lit.span.clone()).label();
            if label.is_empty() {
                String::new()
            } else {
                serialize_label(label)
            }
        }
        LitValue::Null => String::new(),
    }
}

fn revive_cell(data: &Value, policy: &Value) -> Result<TCell> {
    let blob = policy.as_text().unwrap_or("");
    Ok(match data {
        Value::Null => TCell::Null,
        Value::Int(i) => {
            let label = if blob.is_empty() {
                Label::EMPTY
            } else {
                deserialize_label(blob)?
            };
            TCell::Int(Tainted::with_label(*i, label))
        }
        Value::Text(s) => {
            if blob.is_empty() {
                TCell::Text(TaintedString::from(s.as_str()))
            } else {
                TCell::Text(deserialize_spans(s, blob)?)
            }
        }
    })
}

fn plain_result(res: QueryResult) -> TaintedResult {
    TaintedResult {
        columns: res.columns,
        rows: res
            .rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|v| match v {
                        Value::Null => TCell::Null,
                        Value::Int(i) => TCell::Int(Tainted::new(i)),
                        Value::Text(s) => TCell::Text(TaintedString::from(s)),
                    })
                    .collect()
            })
            .collect(),
        affected: res.affected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResinDb;
    use resin_core::PasswordPolicy;
    use std::sync::Arc;

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    fn setup() -> ResinDb {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE users (name TEXT, pw TEXT)")
            .unwrap();
        db
    }

    #[test]
    fn policy_columns_created() {
        let db = setup();
        let t = db.raw().snapshot_table("users").unwrap();
        let names: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["name", "pw", "__rp_name", "__rp_pw"]);
    }

    #[test]
    fn figure4_password_roundtrip() {
        // Figure 4: a password with a policy is INSERTed; the policy is
        // serialized into the policy column; SELECT revives it.
        let db = setup();
        let mut q = TaintedString::from("INSERT INTO users VALUES ('u', '");
        let mut pw = TaintedString::from("s3cret");
        pw.add_policy(Arc::new(PasswordPolicy::new("u@foo.com")));
        q.push_tainted(&pw);
        q.push_str("')");
        db.query(&q).unwrap();

        // The engine's policy column holds the serialized policy.
        let t = db.raw().snapshot_table("users").unwrap();
        let blob = t.rows[0][3].as_text().unwrap();
        assert!(blob.contains("PasswordPolicy"), "{blob}");
        assert!(t.rows[0][2].as_text().unwrap().is_empty(), "name untainted");

        // SELECT revives the policy on the data cell.
        let r = db.query_str("SELECT name, pw FROM users").unwrap();
        let cell = r.cell(0, "pw").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "s3cret");
        assert!(cell.has_policy::<PasswordPolicy>());
        let name = r.cell(0, "name").unwrap().as_text().unwrap();
        assert!(name.is_untainted());
    }

    #[test]
    fn select_star_hides_policy_columns() {
        let db = setup();
        db.query_str("INSERT INTO users VALUES ('a', 'b')").unwrap();
        let r = db.query_str("SELECT * FROM users").unwrap();
        assert_eq!(r.columns, vec!["name", "pw"]);
        assert_eq!(r.rows[0].len(), 2);
    }

    #[test]
    fn select_policy_column_rejected() {
        let db = setup();
        assert!(db.query_str("SELECT __rp_pw FROM users").is_err());
        assert!(db.query_str("CREATE TABLE bad (__rp_x TEXT)").is_err());
    }

    #[test]
    fn update_rewrites_policy() {
        let db = setup();
        db.query_str("INSERT INTO users VALUES ('u', 'old')")
            .unwrap();
        let mut q = TaintedString::from("UPDATE users SET pw = '");
        q.push_tainted(&TaintedString::with_policy(
            "new",
            Arc::new(PasswordPolicy::new("u@x")),
        ));
        q.push_str("' WHERE name = 'u'");
        let r = db.query(&q).unwrap();
        assert_eq!(r.affected, 1);
        let r = db.query_str("SELECT pw FROM users").unwrap();
        let cell = r.cell(0, "pw").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "new");
        assert!(cell.has_policy::<PasswordPolicy>());
    }

    #[test]
    fn delete_needs_no_rewrite() {
        let db = setup();
        db.query_str("INSERT INTO users VALUES ('a', 'b')").unwrap();
        let r = db.query_str("DELETE FROM users WHERE name = 'a'").unwrap();
        assert_eq!(r.affected, 1);
    }

    #[test]
    fn int_cells_carry_policy_sets() {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE t (n INTEGER)").unwrap();
        let mut q = TaintedString::from("INSERT INTO t VALUES (");
        q.push_tainted(&untrusted("42"));
        q.push_str(")");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT n FROM t").unwrap();
        let cell = r.cell(0, "n").unwrap().as_int().unwrap();
        assert_eq!(cell.value(), &42);
        assert!(cell.has_policy::<UntrustedData>());
        let rendered = r.cell(0, "n").unwrap().to_tainted_string();
        assert_eq!(rendered.as_str(), "42");
        assert!(rendered.all_bytes_have::<UntrustedData>());
    }

    #[test]
    fn tracking_off_loses_taint() {
        let db = ResinDb::with_modes(Tracking::Off, GuardMode::Off);
        db.query_str("CREATE TABLE t (a TEXT)").unwrap();
        let mut q = TaintedString::from("INSERT INTO t VALUES ('");
        q.push_tainted(&untrusted("x"));
        q.push_str("')");
        db.query(&q).unwrap();
        // No policy columns exist at all.
        assert_eq!(db.raw().snapshot_table("t").unwrap().columns.len(), 1);
        let r = db.query_str("SELECT a FROM t").unwrap();
        assert!(r.cell(0, "a").unwrap().as_text().unwrap().is_untainted());
    }

    // ---- injection guards ----

    fn build_login_query(name: &TaintedString) -> TaintedString {
        let mut q = TaintedString::from("SELECT pw FROM users WHERE name = '");
        q.push_tainted(name);
        q.push_str("'");
        q
    }

    #[test]
    fn marker_check_blocks_unsanitized() {
        let mut db = setup();
        db.set_guard(GuardMode::MarkerCheck);
        let q = build_login_query(&untrusted("x' OR '1'='1"));
        let err = db.query(&q).unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn marker_check_allows_sanitized() {
        let mut db = setup();
        db.set_guard(GuardMode::MarkerCheck);
        // The sanitizer escapes and appends the SqlSanitized marker.
        let mut input = untrusted("x' OR '1'='1");
        input = input.replace_str("'", "''");
        input.add_policy(Arc::new(SqlSanitized::new()));
        let q = build_login_query(&input);
        let r = db.query(&q).unwrap();
        assert!(r.rows.is_empty(), "escaped input matches nothing");
    }

    #[test]
    fn marker_check_catches_wrong_sanitizer() {
        // §5.3: HTML-sanitized data used in SQL is still an error.
        let mut db = setup();
        db.set_guard(GuardMode::MarkerCheck);
        let mut input = untrusted("x");
        input.add_policy(Arc::new(resin_core::HtmlSanitized::new()));
        let q = build_login_query(&input);
        assert!(db.query(&q).unwrap_err().is_violation());
    }

    #[test]
    fn structure_check_blocks_injected_structure() {
        let mut db = setup();
        db.query_str("INSERT INTO users VALUES ('u', 'pw1')")
            .unwrap();
        db.set_guard(GuardMode::StructureCheck);
        let q = build_login_query(&untrusted("x' OR '1'='1"));
        let err = db.query(&q).unwrap_err();
        assert!(err.is_violation());
    }

    #[test]
    fn structure_check_allows_benign_input() {
        let mut db = setup();
        db.query_str("INSERT INTO users VALUES ('alice', 'pw1')")
            .unwrap();
        db.set_guard(GuardMode::StructureCheck);
        let q = build_login_query(&untrusted("alice"));
        let r = db.query(&q).unwrap();
        assert_eq!(
            r.rows.len(),
            1,
            "benign untrusted input inside a literal is fine"
        );
    }

    #[test]
    fn auto_sanitize_neutralizes_injection() {
        let mut db = setup();
        db.query_str("INSERT INTO users VALUES ('u', 'pw1')")
            .unwrap();
        db.set_guard(GuardMode::AutoSanitize);
        let q = build_login_query(&untrusted("x' OR '1'='1"));
        let r = db.query(&q).unwrap();
        assert!(r.rows.is_empty(), "injection neutralized, matches nothing");
    }

    #[test]
    fn auto_sanitize_still_blocks_structural_taint() {
        // Numeric-context injection can't be quoted away: id = 1 OR 1=1.
        let mut db = ResinDb::new();
        db.query_str("CREATE TABLE t (id INTEGER)").unwrap();
        db.set_guard(GuardMode::AutoSanitize);
        let mut q = TaintedString::from("SELECT id FROM t WHERE id = ");
        q.push_tainted(&untrusted("1 OR 1=1"));
        assert!(db.query(&q).unwrap_err().is_violation());
    }

    #[test]
    fn escape_pair_collapse_keeps_taint() {
        // The former 1-byte blind spot: `''` collapsing to `'` dropped the
        // pair's policies, letting an attacker-controlled quote re-enter
        // storage untainted. The collapsed byte must carry the union of
        // both escape bytes' labels.
        let db = setup();
        let mut q = TaintedString::from("INSERT INTO users VALUES ('u', 'a");
        q.push_tainted(&untrusted("''"));
        q.push_str("b')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT pw FROM users").unwrap();
        let cell = r.cell(0, "pw").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "a'b");
        assert!(
            cell.label_at(1).has::<UntrustedData>(),
            "collapsed quote keeps the pair's policies"
        );
        assert!(cell.label_at(0).is_empty(), "neighbours unchanged");
        assert!(cell.label_at(2).is_empty());
    }

    #[test]
    fn auto_sanitized_quote_stays_tainted_in_storage() {
        // End to end through the AutoSanitize guard: the hostile quote is
        // escaped on the way in and collapses back to one byte in the
        // stored cell — which must still be fully untrusted, so a later
        // naive query built from it is caught by the structure check.
        let mut db = setup();
        db.set_guard(GuardMode::AutoSanitize);
        let mut q = TaintedString::from("INSERT INTO users VALUES ('u', '");
        q.push_tainted(&untrusted("x' OR '1'='1"));
        q.push_str("')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT pw FROM users").unwrap();
        let cell = r.cell(0, "pw").unwrap().as_text().unwrap().clone();
        assert_eq!(cell.as_str(), "x' OR '1'='1");
        assert!(
            cell.all_bytes_have::<UntrustedData>(),
            "every stored byte — quotes included — stays untrusted"
        );
        db.set_guard(GuardMode::StructureCheck);
        let q2 = build_login_query(&cell);
        assert!(db.query(&q2).unwrap_err().is_violation());
    }

    #[test]
    fn second_order_injection_blocked() {
        // Stored untrusted data keeps its policy via the policy column; a
        // second query built from it is still guarded (§5.3's point about
        // de-serialized policies protecting stolen passwords applies to
        // UntrustedData too).
        let mut db = setup();
        let mut q = TaintedString::from("INSERT INTO users VALUES ('");
        q.push_tainted(&untrusted("evil' OR '1'='1"));
        q.push_str("', 'pw')");
        // First write sanitizes nothing but we use no guard yet: tolerate by
        // escaping manually for storage.
        db.set_guard(GuardMode::AutoSanitize);
        db.query(&q).unwrap();
        let r = db.query_str("SELECT name FROM users").unwrap();
        let stored = r.cell(0, "name").unwrap().as_text().unwrap().clone();
        assert!(
            stored.has_policy::<UntrustedData>(),
            "taint survived storage"
        );
        // Now the app naively builds a new query from the stored value.
        db.set_guard(GuardMode::StructureCheck);
        let q2 = build_login_query(&stored);
        assert!(db.query(&q2).unwrap_err().is_violation());
    }

    #[test]
    fn guard_off_is_vulnerable() {
        let db = setup();
        db.query_str("INSERT INTO users VALUES ('u', 'pw1')")
            .unwrap();
        let q = build_login_query(&untrusted("x' OR '1'='1"));
        let r = db.query(&q).unwrap();
        assert_eq!(r.rows.len(), 1, "without the assertion the row leaks");
    }

    #[test]
    fn count_star_passthrough() {
        let db = setup();
        db.query_str("INSERT INTO users VALUES ('a', 'b')").unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM users").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &1);
    }

    // ---- prepared statements ----

    #[test]
    fn bind_values_are_data_not_structure() {
        // The classic injection payload, bound instead of concatenated:
        // it matches (or fails to match) as an opaque string, with the
        // strictest guard on. No escaping, no checking, no violation.
        let mut db = setup();
        db.set_guard(GuardMode::StructureCheck);
        db.query_str("INSERT INTO users VALUES ('u', 'pw1')")
            .unwrap();
        let sel = db.prepare("SELECT pw FROM users WHERE name = ?").unwrap();
        let r = db
            .exec_prepared(&sel, vec![untrusted("x' OR '1'='1").into()])
            .unwrap();
        assert!(
            r.rows.is_empty(),
            "payload is just a string that matches nothing"
        );
        let r = db.exec_prepared(&sel, vec!["u".into()]).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn bound_values_carry_policies_into_storage() {
        let db = setup();
        let ins = db.prepare("INSERT INTO users VALUES (?, ?)").unwrap();
        let mut pw = TaintedString::from("s3cret");
        pw.add_policy(Arc::new(PasswordPolicy::new("u@foo.com")));
        db.exec_prepared(&ins, vec!["u".into(), pw.into()]).unwrap();
        let r = db.query_str("SELECT name, pw FROM users").unwrap();
        let cell = r.cell(0, "pw").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "s3cret");
        assert!(
            cell.has_policy::<PasswordPolicy>(),
            "policy rode the bind value"
        );
        assert!(r.cell(0, "name").unwrap().as_text().unwrap().is_untainted());
    }

    #[test]
    fn tainted_int_bind_value_keeps_label() {
        let db = ResinDb::new();
        db.query_str("CREATE TABLE t (n INTEGER)").unwrap();
        let ins = db.prepare("INSERT INTO t VALUES (?)").unwrap();
        let mut n = Tainted::new(42i64);
        n.add_policy(Arc::new(UntrustedData::new()));
        db.exec_prepared(&ins, vec![n.into()]).unwrap();
        let r = db.query_str("SELECT n FROM t").unwrap();
        let cell = r.cell(0, "n").unwrap().as_int().unwrap();
        assert_eq!(cell.value(), &42);
        assert!(cell.has_policy::<UntrustedData>());
    }

    #[test]
    fn bind_arity_and_template_structure_checked() {
        let mut db = setup();
        db.set_guard(GuardMode::StructureCheck);
        let sel = db.prepare("SELECT pw FROM users WHERE name = ?").unwrap();
        assert_eq!(sel.param_count(), 1);
        assert!(sel.bind(vec![]).is_err(), "too few values");
        assert!(
            sel.bind(vec!["a".into(), "b".into()]).is_err(),
            "too many values"
        );
        // UPDATE with mixed placeholder/literal assignments parses too.
        let upd = db
            .prepare("UPDATE users SET pw = ? WHERE name = ?")
            .unwrap();
        assert_eq!(upd.param_count(), 2);
        db.query_str("INSERT INTO users VALUES ('u', 'old')")
            .unwrap();
        let r = db
            .exec_prepared(&upd, vec!["new".into(), "u".into()])
            .unwrap();
        assert_eq!(r.affected, 1);
    }

    #[test]
    fn render_bound_sql_escapes_and_keeps_labels() {
        let db = ResinDb::new();
        let p = db.prepare("INSERT INTO t VALUES (?, ?, ?)").unwrap();
        let hostile = untrusted("x', 'y");
        let mut n = Tainted::new(7i64);
        n.add_policy(Arc::new(UntrustedData::new()));
        let rendered = render_bound_sql(&p, &[hostile.into(), BindValue::Int(n), BindValue::Null]);
        assert_eq!(
            rendered.as_str(),
            "INSERT INTO t VALUES ('x'', ''y', 7, NULL)",
            "quotes escaped, int and NULL spliced as literals"
        );
        // Every payload byte — including both escape-quote bytes — is
        // untrusted, so replay revives identical cells and blobs.
        let payload_range =
            "INSERT INTO t VALUES ('".len().."INSERT INTO t VALUES ('x'', ''y".len();
        assert!(rendered
            .slice(payload_range)
            .all_bytes_have::<UntrustedData>());
        let seven_at = rendered.as_str().find('7').unwrap();
        assert!(rendered.label_at(seven_at).has::<UntrustedData>());
    }

    #[test]
    fn empty_policy_set_roundtrip() {
        let db = setup();
        db.query_str("INSERT INTO users (name) VALUES ('solo')")
            .unwrap();
        let r = db.query_str("SELECT name, pw FROM users").unwrap();
        assert!(r.cell(0, "pw").unwrap().is_null());
        assert_eq!(
            r.cell(0, "name").unwrap().as_text().unwrap().label(),
            Label::EMPTY
        );
    }

    /// `select_rewritten` as it stood before rows were revived in place:
    /// the engine projects data and policy columns into a cloned
    /// `QueryResult`, which is then walked and thrown away.
    fn select_rewritten_cloning(
        backend: &Database,
        sel: crate::ast::SelectStmt,
        raw: &[Value],
    ) -> Result<TaintedResult> {
        let data_cols: Vec<String> = match &sel.projection {
            Projection::CountStar => {
                let res = backend.execute(&Statement::Select(sel), raw)?;
                return Ok(plain_result(res));
            }
            Projection::Star => user_columns(backend, &sel.table)?,
            Projection::Columns(cols) => {
                for c in cols {
                    if c.starts_with(POLICY_COL_PREFIX) {
                        return Err(SqlError::schema(format!(
                            "cannot select policy column `{c}` directly"
                        )));
                    }
                }
                cols.clone()
            }
        };
        let mut fetch = data_cols.clone();
        fetch.extend(data_cols.iter().map(|c| format!("{POLICY_COL_PREFIX}{c}")));
        let rewritten = crate::ast::SelectStmt {
            projection: Projection::Columns(fetch),
            ..sel
        };
        let res = backend.execute(&Statement::Select(rewritten), raw)?;
        let n = data_cols.len();
        let mut rows = Vec::with_capacity(res.rows.len());
        for row in res.rows {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(revive_cell(&row[i], &row[n + i])?);
            }
            rows.push(out);
        }
        Ok(TaintedResult {
            columns: data_cols,
            rows,
            affected: 0,
        })
    }

    /// Everything a caller can see of a result, comparable.
    fn seen(r: Result<TaintedResult>) -> Result<(Vec<String>, Vec<Vec<String>>)> {
        r.map(|r| {
            let rows = r
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|cell| match cell {
                            TCell::Null => "null".to_string(),
                            TCell::Int(i) => format!("int {} {:?}", i.value(), i.label().ids()),
                            TCell::Text(t) => format!(
                                "text {:?} {:?}",
                                t.as_str(),
                                t.spans().map(|(r, l)| (r, l.ids())).collect::<Vec<_>>()
                            ),
                        })
                        .collect()
                })
                .collect();
            (r.columns, rows)
        })
    }

    proptest::proptest! {
        /// Reviving rows where they live against reviving a cloned
        /// projection: the same cells, labels and errors, over text with
        /// one- and two-policy spans and `''`-escaped quotes, tainted and
        /// NULL integers, and policy columns holding a damaged blob (the
        /// pre-interning inline-set form among them: both sides reject it).
        #[test]
        fn reviving_in_place_agrees_with_the_cloning_select(
            rows in proptest::prop::collection::vec(
                (("[a-d' ]{0,12}", 0usize..4), (0usize..13, 0usize..3)),
                1..7,
            ),
            raw_blob in 0usize..6,
        ) {
            let pw: resin_core::PolicyRef = Arc::new(PasswordPolicy::new("o'hara,x@y"));
            let labels = [
                Label::EMPTY,
                Label::of(&(Arc::new(UntrustedData::new()) as resin_core::PolicyRef)),
                Label::of(&pw),
                Label::of(&pw).union(Label::of(&(Arc::new(SqlSanitized::new()) as _))),
            ];
            let db = ResinDb::new();
            db.query_str("CREATE TABLE t (id INTEGER, body TEXT, n INTEGER)").unwrap();
            for (id, ((body, whole), (cut, int_kind))) in rows.iter().enumerate() {
                // A literal whose head carries one label and whose tail
                // another, quotes doubled under their own label.
                let cut = (*cut).min(body.len());
                let mut lit = TaintedStrBuilder::new();
                for (piece, label) in [(&body[..cut], labels[*whole]), (&body[cut..], labels[(*whole + 1) % 4])] {
                    lit.push_label(&piece.replace('\'', "''"), label);
                }
                let mut q = TaintedStrBuilder::new();
                q.push_str(&format!("INSERT INTO t VALUES ({id}, '"));
                q.push_tainted(&lit.build());
                q.push_str("', ");
                match int_kind {
                    0 => q.push_str("NULL"),
                    1 => q.push_str("7"),
                    _ => q.push_label("42", labels[3]),
                }
                q.push_str(")");
                db.query(&q.build()).unwrap();
            }
            // One more row straight into the engine, policy column and all.
            let blob = [
                "",
                "0..2|UntrustedData{};1..3|SqlSanitized{},UntrustedData{}",
                "#UntrustedData{}#3..1|0",
                "#UntrustedData{}#0..2|",
                "#Mystery{}#0..2|0",
                "#UntrustedData{},SqlSanitized{}#1..3|1;0..2|0,1",
            ][raw_blob];
            db.raw()
                .execute_str(&format!(
                    "INSERT INTO t (id, body, __rp_body, n, __rp_n) VALUES (99, 'raw', '{blob}', 5, 'UntrustedData{{}}')"
                ))
                .unwrap();
            for q in [
                "SELECT * FROM t",
                "SELECT n, body FROM t WHERE id < 99",
                "SELECT body FROM t WHERE id = 99",
                "SELECT body, n FROM t ORDER BY id DESC LIMIT 3",
                "SELECT body FROM t WHERE n IS NULL",
                "SELECT COUNT(*) FROM t",
                "SELECT nope FROM t",
                "SELECT body FROM nope",
                "SELECT __rp_body FROM t",
            ] {
                let Statement::Select(sel) = crate::parser::parse_str(q).unwrap() else {
                    unreachable!()
                };
                proptest::prop_assert_eq!(
                    seen(select_rewritten(db.raw(), sel.clone(), &[])),
                    seen(select_rewritten_cloning(db.raw(), sel, &[]))
                );
            }
        }
    }
}
