//! Table 5 workloads: the per-operation microbenchmarks.
//!
//! Each function prepares one of the paper's measured operations in one of
//! the three configurations and returns a closure executing N operations.
//! Interpreter operations (assign, call, concat, add) run inside RSL on a
//! pre-parsed program, so parse time is excluded; file and SQL operations
//! drive the substrates directly, as mod_php drives ext3/MySQL.

use std::sync::Arc;

use resin_core::{EmptyPolicy, TaintedString, Tracking};
use resin_lang::{parse_program, Interp, Value};
use resin_sql::{GuardMode, ResinDb};
use resin_vfs::Vfs;

use crate::Config;

/// Inner-loop iteration count for interpreter microbenchmarks.
pub const OPS: usize = 2000;

/// The unmodified runtime for the baseline column, RESIN for the others.
fn tracking(config: Config) -> Tracking {
    match config {
        Config::Unmodified => Tracking::Off,
        _ => Tracking::On,
    }
}

fn interp_for(config: Config) -> Interp {
    Interp::with_tracking(tracking(config))
}

fn seed_string(config: Config) -> Value {
    let mut s = TaintedString::from("benchmark-string-data!");
    if config == Config::ResinEmptyPolicy {
        s.add_policy(Arc::new(EmptyPolicy::new()));
    }
    Value::from(s)
}

fn seed_int(config: Config) -> Value {
    match config {
        Config::ResinEmptyPolicy => Value::Int(
            7,
            resin_core::Label::of(&(Arc::new(EmptyPolicy::new()) as resin_core::PolicyRef)),
        ),
        _ => Value::int(7),
    }
}

/// An interpreter microbenchmark: a prepared interpreter plus a pre-parsed
/// program executing [`OPS`] operations per run.
pub struct InterpBench {
    interp: Interp,
    program: Vec<resin_lang::ast::Stmt>,
}

impl InterpBench {
    /// Runs one batch of [`OPS`] operations.
    pub fn run(&mut self) {
        self.interp
            .exec_program(&self.program)
            .expect("bench program");
    }

    /// Nanoseconds per operation over `batches` batches.
    pub fn ns_per_op(&mut self, batches: u64) -> f64 {
        let total = crate::time_ns(batches, || {
            self.interp.exec_program(&self.program).expect("bench");
        });
        total / OPS as f64
    }
}

fn build(config: Config, setup: &str, body: &str) -> InterpBench {
    let mut interp = interp_for(config);
    interp.run(setup).expect("setup");
    // A while loop with the measured statement unrolled 10x per iteration,
    // so loop bookkeeping (identical across configurations) does not
    // dominate the per-operation cost.
    let unrolled = body.repeat(10);
    let iters = OPS / 10;
    let src = format!(
        "let bench_i = 0; while (bench_i < {iters}) {{ {unrolled} bench_i = bench_i + 1; }}"
    );
    let program = parse_program(&src).expect("parse");
    InterpBench { interp, program }
}

/// "Assign variable": `x = y;` where `y` is a string.
pub fn assign_bench(config: Config) -> InterpBench {
    let mut b = build(config, "let x = 0; let y = 0;", "x = y;");
    set_global(&mut b.interp, "y", seed_string(config));
    b
}

fn set_global(interp: &mut Interp, name: &str, value: Value) {
    // Define a setter on the fly: simplest reliable way to inject a Rust
    // value into the interpreter's globals.
    interp
        .run(&format!("fn __set_{name}(v) {{ {name} = v; return 0; }}"))
        .expect("setter");
    interp
        .call_function(&format!("__set_{name}"), vec![value])
        .expect("set global");
}

/// "Function call": `f(y);` for an identity function.
pub fn call_bench(config: Config) -> InterpBench {
    let mut b = build(config, "fn f(a) { return a; } let y = 0;", "f(y);");
    set_global(&mut b.interp, "y", seed_string(config));
    b
}

/// "String concat": `x = y + z;` on short strings.
pub fn concat_bench(config: Config) -> InterpBench {
    let mut b = build(config, "let x = 0; let y = 0; let z = 0;", "x = y + z;");
    set_global(&mut b.interp, "y", seed_string(config));
    set_global(&mut b.interp, "z", seed_string(config));
    b
}

/// "Integer addition": `x = a + b;` (policy merge path).
pub fn add_bench(config: Config) -> InterpBench {
    let mut b = build(config, "let x = 0; let a = 0; let b = 0;", "x = a + b;");
    set_global(&mut b.interp, "a", seed_int(config));
    set_global(&mut b.interp, "b", seed_int(config));
    b
}

// ---- file operations (1 KB, matching Table 5) ----

/// A prepared filesystem for the file microbenchmarks.
pub struct FileBench {
    /// The filesystem under test.
    pub vfs: Vfs,
    /// 1 KB payload in the configured taint state.
    pub payload: TaintedString,
}

/// Prepares a VFS with a 1 KB file at `/bench/data`.
pub fn file_bench(config: Config) -> FileBench {
    let mut vfs = Vfs::with_mode(tracking(config));
    let ctx = Vfs::anonymous_ctx();
    vfs.mkdir_p("/bench", &ctx).expect("mkdir");
    let mut payload = TaintedString::from("x".repeat(1024));
    if config == Config::ResinEmptyPolicy {
        payload.add_policy(Arc::new(EmptyPolicy::new()));
    }
    vfs.write_file("/bench/data", &payload, &ctx).expect("seed");
    FileBench { vfs, payload }
}

impl FileBench {
    /// One "File open" operation.
    pub fn open_once(&self) {
        self.vfs.open("/bench/data").expect("open");
    }

    /// One "File read, 1KB" operation.
    pub fn read_once(&self) {
        let ctx = Vfs::anonymous_ctx();
        let data = self.vfs.read_file("/bench/data", &ctx).expect("read");
        std::hint::black_box(data.len());
    }

    /// One "File write, 1KB" operation.
    pub fn write_once(&mut self) {
        let ctx = Vfs::anonymous_ctx();
        self.vfs
            .write_file("/bench/data", &self.payload, &ctx)
            .expect("write");
    }
}

// ---- SQL operations (10 columns, matching Table 5) ----

/// A prepared database for the SQL microbenchmarks.
pub struct SqlBench {
    /// The database under test.
    pub db: ResinDb,
    insert_query: TaintedString,
}

/// Prepares a 10-column table with 100 seeded rows.
pub fn sql_bench(config: Config) -> SqlBench {
    let db = ResinDb::with_modes(tracking(config), GuardMode::Off);
    let cols: Vec<String> = (0..10).map(|i| format!("c{i} TEXT")).collect();
    db.query_str(&format!(
        "CREATE TABLE bench (id INTEGER, {})",
        cols.join(", ")
    ))
    .expect("schema");
    let insert_query = build_insert(config, 0);
    for i in 0..100 {
        let q = build_insert(config, i);
        db.query(&q).expect("seed");
    }
    SqlBench { db, insert_query }
}

fn build_insert(config: Config, id: i64) -> TaintedString {
    let mut q = TaintedString::from(format!("INSERT INTO bench VALUES ({id}"));
    for c in 0..10 {
        q.push_str(", '");
        let mut cell = TaintedString::from(format!("value-{id}-{c}"));
        if config == Config::ResinEmptyPolicy {
            cell.add_policy(Arc::new(EmptyPolicy::new()));
        }
        q.push_tainted(&cell);
        q.push_str("'");
    }
    q.push_str(")");
    q
}

impl SqlBench {
    /// One "SQL SELECT" (reads 10 cells from one row).
    pub fn select_once(&mut self) {
        let r = self
            .db
            .query_str("SELECT c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 FROM bench WHERE id = 42")
            .expect("select");
        std::hint::black_box(r.rows.len());
    }

    /// A SELECT fetching only six columns (the paper's column-count
    /// observation in §7.2).
    pub fn select_six_once(&mut self) {
        let r = self
            .db
            .query_str("SELECT c0, c1, c2, c3, c4, c5 FROM bench WHERE id = 42")
            .expect("select6");
        std::hint::black_box(r.rows.len());
    }

    /// One "SQL INSERT" (10 cells).
    pub fn insert_once(&mut self) {
        let q = self.insert_query.clone();
        self.db.query(&q).expect("insert");
    }

    /// One DELETE of a non-matching predicate (measures scan + no rewrite;
    /// stable per-op cost without refills).
    pub fn delete_miss_once(&mut self) {
        self.db
            .query_str("DELETE FROM bench WHERE id = -1")
            .expect("delete");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_benches_run_in_all_configs() {
        for config in Config::ALL {
            assign_bench(config).run();
            call_bench(config).run();
            concat_bench(config).run();
            add_bench(config).run();
        }
    }

    #[test]
    fn file_benches_run_in_all_configs() {
        for config in Config::ALL {
            let mut b = file_bench(config);
            b.open_once();
            b.read_once();
            b.write_once();
        }
    }

    #[test]
    fn sql_benches_run_in_all_configs() {
        for config in Config::ALL {
            let mut b = sql_bench(config);
            b.select_once();
            b.select_six_once();
            b.insert_once();
            b.delete_miss_once();
        }
    }

    #[test]
    fn tracking_adds_measurable_structure() {
        // Not a timing assertion (too flaky in CI); verify the *structural*
        // difference instead: policy columns exist only under tracking.
        let off = sql_bench(Config::Unmodified);
        let on = sql_bench(Config::ResinNoPolicy);
        assert_eq!(off.db.snapshot_table("bench").unwrap().columns.len(), 11);
        assert_eq!(on.db.snapshot_table("bench").unwrap().columns.len(), 22);
    }
}
