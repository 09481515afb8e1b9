//! RSL execution: tree-walking interpreter vs bytecode VM.
//!
//! `rsl_exec/*` — engine microcases (straight-line arithmetic, a counted
//! loop, a recursive call tree) isolating dispatch cost. What a policy
//! check costs at a gate is `resin-e2e`'s `lang.export_check_*_ns` and
//! `lang.check_cache_hit_ratio`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resin_lang::{parse_program, Engine, Interp, Tracking};

/// Straight-line arithmetic: 64 dependent ops, no control flow.
const STRAIGHT_SRC: &str = r#"
let a = 3; let b = 5; let x = 0;
x = x + a * b; x = x + a * b; x = x + a * b; x = x + a * b;
x = x + a * b; x = x + a * b; x = x + a * b; x = x + a * b;
x = x - a + b; x = x - a + b; x = x - a + b; x = x - a + b;
x = x * 2 - b; x = x * 2 - b; x = x % 1000; x = x + 7;
x;
"#;

/// A counted loop in a function body (local slots, like every policy
/// `export_check`): the shape of allow-list and checksum scans.
const LOOP_SRC: &str = r#"
fn scan(n) {
    let total = 0;
    let i = 0;
    while (i < n) {
        total = total + i * 3 % 7;
        i = i + 1;
    }
    return total;
}
scan(200);
"#;

/// Function calls: frame push/pop dominates.
const CALL_SRC: &str = r#"
fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
fib(14);
"#;

fn rsl_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsl_exec");
    for (name, src) in [
        ("straight", STRAIGHT_SRC),
        ("loop", LOOP_SRC),
        ("call", CALL_SRC),
    ] {
        // Tree: re-walk the AST each iteration (parse hoisted out — the
        // comparison is execution, not parsing).
        let program = parse_program(src).expect("bench source parses");
        let mut tree = Interp::with_config(Tracking::On, Engine::Tree);
        g.bench_function(BenchmarkId::from_parameter(format!("tree_{name}")), |b| {
            b.iter(|| tree.exec_program(&program).unwrap());
        });

        // VM: compile once, dispatch the chunk each iteration — the
        // compile-cache steady state every policy check runs in.
        let mut vm = Interp::with_config(Tracking::On, Engine::Vm);
        let chunk = vm.compile(&program).expect("compiles");
        g.bench_function(BenchmarkId::from_parameter(format!("vm_{name}")), |b| {
            b.iter(|| vm.exec_chunk(&chunk).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, rsl_exec);
criterion_main!(benches);
