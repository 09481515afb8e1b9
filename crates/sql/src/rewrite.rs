//! The RESIN SQL filter: the injection guard, and each value's policy.
//!
//! RESIN attaches a default filter object to the function used to issue SQL
//! queries (§3.4.1, Figure 4). MySQL is not RESIN's, so the paper's filter
//! rewrites each statement to reach a shadow policy column. Here the
//! engine is RESIN's own, and no statement is rewritten for its policies:
//! the engine gets the parsed statement as it is, and
//!
//! * a write also gets the serialized policy of each value it stores
//!   ([`policy_blob_for`]), which the engine keeps beside the value;
//! * a read re-attaches each cell's deserialized policy objects from the
//!   text kept beside it. A read copies no text; each distinct
//!   policy is decoded once per registration of its class: a read revives
//!   each cell from the stored row, under the table's read lock, and a
//!   policy text the class registry has decoded before
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
    FlowError, Gate, GateKind, Label, PolicyViolation, Reason, SqlSanitized, Tainted,
    TaintedString, UntrustedData,
};

use crate::ast::{Expr, LitValue, Projection, SelectStmt, Statement};
use crate::engine::{column_positions, project, Database, Log, QueryResult};
use crate::error::{Result, SqlError};
use crate::token::{lex, lex_tainted, push_quoted, sanitize_query, unquote, Tok, Token};
use crate::value::Value;

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

/// A SQL value with its labels: a result cell, or a value bound to a `?`.
///
/// A result cell has its policies re-attached from the stored policy text.
/// A bound value enters the pipeline **as data**: it is never spliced into
/// query text, so nothing an attacker puts in one can reach the query's
/// structure, and its labels are stored as its policy text exactly as a
/// tainted literal's would be.
#[derive(Debug, Clone)]
pub enum TCell {
    /// SQL NULL.
    Null,
    /// Integer with a (whole-datum) policy set.
    Int(Tainted<i64>),
    /// Text with byte-range policies.
    Text(TaintedString),
}

/// A value bound to a `?` placeholder: a [`TCell`].
pub type BindValue = TCell;

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
    #[cfg(test)]
    pub(crate) fn is_null(&self) -> bool {
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

    /// The raw engine value (labels stripped — they travel separately,
    /// as the value's policy text).
    pub(crate) fn raw(&self) -> Value {
        match self {
            TCell::Null => Value::Null,
            TCell::Int(i) => Value::Int(*i.value()),
            TCell::Text(t) => Value::Text(t.as_str().to_string()),
        }
    }
}

impl From<i64> for TCell {
    fn from(v: i64) -> Self {
        TCell::Int(Tainted::new(v))
    }
}

impl From<Tainted<i64>> for TCell {
    fn from(v: Tainted<i64>) -> Self {
        TCell::Int(v)
    }
}

impl From<&str> for TCell {
    fn from(v: &str) -> Self {
        TCell::Text(TaintedString::from(v))
    }
}

impl From<String> for TCell {
    fn from(v: String) -> Self {
        TCell::Text(TaintedString::from(v))
    }
}

impl From<TaintedString> for TCell {
    fn from(v: TaintedString) -> Self {
        TCell::Text(v)
    }
}

impl From<&TaintedString> for TCell {
    fn from(v: &TaintedString) -> Self {
        TCell::Text(v.clone())
    }
}

/// A query result with policies re-attached to each cell.
#[derive(Debug, Clone, Default)]
pub struct TaintedResult {
    /// Column names.
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
/// [`ResinDb`](crate::ResinDb) mounts one of these onto an unguarded sql
/// gate and exports every query through it, so the injection guard runs at
/// the same interposition point as every other boundary check. Standalone
/// use works too: mount it on any gate whose writes are SQL text.
///
/// Error mapping: violations surface as [`FlowError::Denied`]; a query the
/// guard's tokenizer cannot lex surfaces as [`FlowError::Rejected`] with
/// the lex message (the structured `SqlError::Lex` position is only
/// available from the engine's own parse step).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SqlGuardFilter {
    mode: GuardMode,
}

impl SqlGuardFilter {
    /// A guard filter enforcing `mode`.
    pub(crate) fn new(mode: GuardMode) -> Self {
        SqlGuardFilter { mode }
    }
}

impl Filter for SqlGuardFilter {
    // Only `AutoSanitize` rewrites the query; the checking modes forward
    // borrowed data untouched, so a `write_ref`/`export_cow` through the
    // sql gate stays copy-free.
    fn filter_write<'a>(
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
                return Err(PolicyViolation::at("SqlGuard", Reason::Unsanitized, r.clone()).into());
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

/// An unguarded sql gate with `guard` mounted on the filter chain.
pub(crate) fn query_gate(guard: GuardMode) -> Gate {
    let mut gate = Gate::unguarded(GateKind::Sql);
    gate.add_filter(Box::new(SqlGuardFilter::new(guard)));
    gate
}

/// The front half of every statement: the query crosses the SQL gate
/// (borrowed export — only cloned if a guard rewrites it), is lexed and
/// comes back parsed, with the byte spans of its `?` placeholders in
/// ordinal order. Transactions read the statement's write set off this
/// parse, i.e. *after* any guard rewriting.
pub(crate) fn prepare_query<'a>(
    sql: Cow<'a, TaintedString>,
    guard: GuardMode,
) -> Result<(Cow<'a, TaintedString>, Statement, Vec<Range<usize>>)> {
    let sql = query_gate(guard).export_cow(sql).map_err(SqlError::from)?;
    let tokens = lex(sql.as_str())?;
    let stmt = crate::parser::parse(&tokens)?;
    let param_spans = tokens
        .iter()
        .filter(|t| matches!(t.tok, Tok::Param(_)))
        .map(|t| t.span.clone())
        .collect();
    Ok((sql, stmt, param_spans))
}

/// The execute back half of the pipeline, on an already guarded-and-parsed
/// statement. `params` carries the bind-parameter values (empty for plain
/// text queries): raw values flow to the engine, labels flow into each
/// written value's policy text. A write runs `log` under the lock that
/// orders it (see [`Log`]); every parsed write reaches it, including one
/// the engine refuses.
pub(crate) fn run_prepared(
    backend: &Database,
    sql: &TaintedString,
    stmt: &Statement,
    params: &[TCell],
    log: Log<'_>,
) -> Result<TaintedResult> {
    let raw: Vec<Value> = params.iter().map(TCell::raw).collect();
    if !backend.tracked {
        return backend.run(stmt, &raw, Vec::new(), log).map(plain_result);
    }
    let text = |e| Value::Text(policy_blob_for(sql, e, params));
    let texts = match stmt {
        Statement::Select(sel) => return select_revived(backend, sel, &raw),
        Statement::Insert { rows, .. } => rows.iter().flatten().map(text).collect(),
        Statement::Update { assignments, .. } => assignments.iter().map(|(_, e)| text(e)).collect(),
        // DELETE and DROP store no value — the paper notes DELETE's low
        // overhead for exactly this reason (§7.2) — and index DDL keys on
        // values only.
        _ => Vec::new(),
    };
    backend.run(stmt, &raw, texts, log).map(plain_result)
}

/// A guarded, parsed statement, ready to run with one value per `?`.
///
/// Produced by [`ResinDb::prepare`](crate::ResinDb::prepare) and run by
/// [`ResinDb::exec_prepared`](crate::ResinDb::exec_prepared). The
/// expensive per-query work — the injection-guard gate crossing, lexing
/// and parsing — happens once here; each execution only checks its values
/// against the placeholders and plans against current index metadata. The
/// template text is authored by the application (a plain `&str`, not
/// tainted input), so the guard sees placeholder structure only; values
/// bound later never touch the text.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Post-guard query text, with its labels (WAL rendering).
    pub(crate) text: TaintedString,
    /// The parsed statement (placeholders appear as [`Expr::Param`]).
    pub(crate) stmt: Statement,
    /// Byte spans of the `?` placeholders, in ordinal order.
    pub(crate) param_spans: Vec<Range<usize>>,
}

/// Renders a bound statement as standalone tainted SQL text for the WAL:
/// each `?` is replaced by its value as an escaped literal whose bytes
/// carry the value's labels. Recovery replays the rendered text through
/// the same front, reproducing byte-identical cells *and policy texts*
/// (escaped quote pairs carry the source label on both bytes, and
/// `decode_literal` unions them back onto the collapsed byte).
pub(crate) fn render_bound_sql(prepared: &Prepared, values: &[TCell]) -> TaintedString {
    let text = &prepared.text;
    let mut out = TaintedString::with_capacity(text.len() + 16 * values.len());
    let mut pos = 0usize;
    for (span, v) in prepared.param_spans.iter().zip(values) {
        out.push_range(text, pos..span.start);
        match v {
            TCell::Null => out.push_label("NULL", Label::EMPTY),
            TCell::Int(i) => out.push_label(&i.value().to_string(), i.label()),
            TCell::Text(t) => push_quoted(&mut out, t, 0..t.len()),
        }
        pos = span.end;
    }
    out.push_range(text, pos..text.len());
    out
}

/// A `SELECT` with each cell's policy re-attached where the rows live:
/// each cell is revived from its value and the policy text kept beside it
/// under the table's read lock, so the text is copied once (into its
/// `TaintedString`) and the policy text not at all.
fn select_revived(backend: &Database, sel: &SelectStmt, raw: &[Value]) -> Result<TaintedResult> {
    backend.select_rows(sel, raw, |t, matched| {
        let (columns, at) = match &sel.projection {
            Projection::CountStar => return project(t, sel, matched).map(plain_result),
            Projection::Columns(cols) => (cols.clone(), column_positions(t, cols)?),
            Projection::Star => {
                let names = t.columns.iter().map(|c| c.name.clone()).collect();
                (names, (0..t.columns.len()).collect())
            }
        };
        let n = t.columns.len();
        let mut rows = Vec::with_capacity(matched.len());
        for row in matched {
            let mut out = Vec::with_capacity(at.len());
            for &d in &at {
                out.push(revive_cell(&row[d], &row[n + d])?);
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
        if span_has_untrusted(sql, &t.span) {
            return Err(
                PolicyViolation::at("SqlGuard", Reason::InStructure, t.span.clone()).into(),
            );
        }
    }
    Ok(())
}

fn span_has_untrusted(sql: &TaintedString, span: &Range<usize>) -> bool {
    sql.slice(span.clone()).has_policy::<UntrustedData>()
}

/// Decodes a string literal's interior from the tainted query through the
/// lexer's own unquote, so the text and its labels cover the same bytes.
/// A collapsed `''` gets the **union of both escape bytes' labels**, so an
/// attacker-controlled quote that survives sanitization re-enters storage
/// tainted, never as a 1-byte blind spot.
fn decode_literal(sql: &TaintedString, span: &Range<usize>) -> TaintedString {
    let mut out = TaintedString::with_capacity(span.len());
    // Unquoted strictly, a range starting at a quote is an escape pair.
    unquote(
        sql.as_str(),
        span.start,
        |_| false,
        |r| match sql.as_str().as_bytes()[r.start] {
            b'\'' => out.push_label("'", sql.label_at(r.start).union(sql.label_at(r.end))),
            _ => out.push_range(sql, r),
        },
    );
    out
}

/// The serialized policy blob for one inserted/assigned value. Literals
/// carry their labels in the query text's byte ranges; bind parameters
/// carry them on the bound [`TCell`] itself.
fn policy_blob_for(sql: &TaintedString, expr: &Expr, params: &[TCell]) -> String {
    // Untainted text and an empty label serialize to the empty blob.
    if let Expr::Param(i) = expr {
        return match params.get(*i) {
            Some(TCell::Text(t)) => serialize_spans(t),
            Some(TCell::Int(v)) => serialize_label(v.label()),
            Some(TCell::Null) | None => String::new(),
        };
    }
    let Some(lit) = expr.as_literal() else {
        return String::new();
    };
    match &lit.value {
        LitValue::Text(_) => serialize_spans(&decode_literal(sql, &lit.span)),
        LitValue::Int(_) => serialize_label(sql.slice(lit.span.clone()).label()),
        LitValue::Null => String::new(),
    }
}

fn revive_cell(data: &Value, policy: &Value) -> Result<TCell> {
    // The empty blob revives as untainted text or an empty label.
    let blob = policy.as_text().unwrap_or("");
    Ok(match data {
        Value::Null => TCell::Null,
        Value::Int(i) => TCell::Int(Tainted::with_label(*i, deserialize_label(blob)?)),
        Value::Text(s) => TCell::Text(deserialize_spans(s, blob)?),
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
    use crate::engine::tests::set_policy_text;
    use crate::ResinDb;
    use resin_core::{PasswordPolicy, Tracking};
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
    fn a_reserved_column_name_is_refused_in_both_modes() {
        // An untracked table's columns are stored as they are: one named
        // `__rp_…` would read back as the shadow of a policy text.
        for tracking in [Tracking::On, Tracking::Off] {
            let db = ResinDb::with_modes(tracking, GuardMode::Off);
            for q in [
                "CREATE TABLE t (a TEXT, __rp_a TEXT)",
                "CREATE TABLE t (__rp_a INTEGER)",
            ] {
                let err = db.query_str(q).unwrap_err();
                assert!(err.to_string().contains("reserved `__rp_`"), "{q}: {err}");
            }
            assert!(db.table_names().is_empty());
        }
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
    fn a_guard_denial_names_the_bytes_not_the_payload() {
        // What an operator reads about a refused query must not replay
        // the attacker's bytes (into a log, or a page that shows errors).
        let payload = "x' OR 'zq-payload-7'='zq-payload-7";
        let login = |mode, query: &str| {
            let mut db = setup();
            db.set_guard(mode);
            let q = build_login_query(&untrusted(query));
            match db.query(&q).unwrap_err() {
                SqlError::Policy(FlowError::Denied(v)) => (q, v),
                other => panic!("expected a denial, got {other:?}"),
            }
        };
        // `MarkerCheck` names the whole unsanitized run: the payload.
        let (q, marker) = login(GuardMode::MarkerCheck, payload);
        let start = q.as_str().find(payload).unwrap();
        assert_eq!(marker.reason, Reason::Unsanitized);
        assert_eq!(marker.at, Some(start..start + payload.len()));
        // `StructureCheck` names the first structural token in it: `OR`.
        let (_, structure) = login(GuardMode::StructureCheck, payload);
        assert_eq!(structure.reason, Reason::InStructure);
        assert_eq!(structure.at, Some(start + 3..start + 5));
        for v in [marker, structure] {
            assert_eq!(v.policy, "SqlGuard");
            let shown = format!("{v} {v:?}");
            assert!(!shown.contains("zq-payload"), "{shown}");
            assert!(!shown.contains(" OR "), "{shown}");
        }
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
        assert_eq!(sel.param_spans.len(), 1);
        for (values, bound) in [(vec![], 0), (vec!["a".into(), "b".into()], 2)] {
            let err = db.exec_prepared(&sel, values).unwrap_err();
            let want = format!("statement has 1 parameter(s), {bound} value(s) bound");
            assert!(matches!(&err, SqlError::Type(m) if *m == want), "{err}");
        }
        // UPDATE with mixed placeholder/literal assignments parses too.
        let upd = db
            .prepare("UPDATE users SET pw = ? WHERE name = ?")
            .unwrap();
        assert_eq!(upd.param_spans.len(), 2);
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
        let rendered = render_bound_sql(&p, &[hostile.into(), TCell::Int(n), TCell::Null]);
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

    /// `select_revived` as it stood before rows were revived in place:
    /// the engine clones each matching row, values and policy texts, into
    /// a result, which is then walked and thrown away.
    fn select_revived_cloning(
        backend: &Database,
        sel: SelectStmt,
        raw: &[Value],
    ) -> Result<TaintedResult> {
        if sel.projection == Projection::CountStar {
            let res = backend.select_rows(&sel, raw, |t, m| project(t, &sel, m))?;
            return Ok(plain_result(res));
        }
        let (data_cols, at, n, stored) = backend.select_rows(&sel, raw, |t, matched| {
            let data_cols: Vec<String> = match &sel.projection {
                Projection::Columns(cols) => cols.clone(),
                _ => t.columns.iter().map(|c| c.name.clone()).collect(),
            };
            let at = column_positions(t, &data_cols)?;
            let stored: Vec<Vec<Value>> = matched.iter().map(|&r| r.clone()).collect();
            Ok((data_cols, at, t.columns.len(), stored))
        })?;
        let mut rows = Vec::with_capacity(stored.len());
        for row in stored {
            let mut out = Vec::with_capacity(at.len());
            for &d in &at {
                out.push(revive_cell(&row[d], &row[n + d])?);
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
        /// NULL integers, and stored policy texts that are damaged (the
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
                let mut lit = TaintedString::new();
                for (piece, label) in [(&body[..cut], labels[*whole]), (&body[cut..], labels[(*whole + 1) % 4])] {
                    lit.push_label(&piece.replace('\'', "''"), label);
                }
                let mut q = TaintedString::new();
                q.push_str(&format!("INSERT INTO t VALUES ({id}, '"));
                q.push_tainted(&lit);
                q.push_str("', ");
                match int_kind {
                    0 => q.push_str("NULL"),
                    1 => q.push_str("7"),
                    _ => q.push_label("42", labels[3]),
                }
                q.push_str(")");
                db.query(&q).unwrap();
            }
            // One more row, its policy texts written straight into the engine.
            let blob = [
                "",
                "0..2|UntrustedData{};1..3|SqlSanitized{},UntrustedData{}",
                "#UntrustedData{}#3..1|0",
                "#UntrustedData{}#0..2|",
                "#Mystery{}#0..2|0",
                "#UntrustedData{},SqlSanitized{}#1..3|1;0..2|0,1",
            ][raw_blob];
            db.query_str("INSERT INTO t (id, body, n) VALUES (99, 'raw', 5)").unwrap();
            set_policy_text(db.raw(), "t", rows.len(), "body", blob);
            set_policy_text(db.raw(), "t", rows.len(), "n", "UntrustedData{}");
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
                    seen(select_revived(db.raw(), &sel, &[])),
                    seen(select_revived_cloning(db.raw(), sel, &[]))
                );
            }
        }
    }

    #[test]
    fn a_string_literal_decodes_only_as_it_is_quoted() {
        // A literal's text has one quoting, `push_quoted`'s; its labels
        // are wider (a `''` takes the union of its two bytes' labels).
        use crate::mutants::{canonical, Rng};
        let quoted = |s: &str| {
            let (src, mut out) = (TaintedString::from(s), TaintedString::from(""));
            push_quoted(&mut out, &src, 0..src.len());
            out.as_str().as_bytes().to_vec()
        };
        let decode = |b: &[u8]| {
            let q = std::str::from_utf8(b).ok()?;
            match lex(q).ok()?.as_slice() {
                [t] if matches!(t.tok, Tok::Str(_)) && t.span == (0..q.len()) => {
                    let text = decode_literal(&TaintedString::from(q), &t.span);
                    Some(text.as_str().to_string())
                }
                _ => None,
            }
        };
        let mut rng = Rng::new(14);
        let canons: Vec<Vec<u8>> = (0..32)
            .map(|_| {
                let chars = ['a', '\'', 'é', '%', ' ', '0'];
                let s: String = (0..rng.below(8)).map(|_| chars[rng.below(6)]).collect();
                quoted(&s)
            })
            .collect();
        let accepted = canonical(&canons, decode, |s| quoted(s));
        assert!(accepted > 0, "a mutant inside a literal still decodes");
    }
}
