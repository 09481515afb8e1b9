//! Ablations for the design choices this implementation made.
//!
//! 1. **Byte-range vs whole-string policies** — the paper argues
//!    character-level tracking avoids merges (§3.4). We compare concat+
//!    slice throughput when a policy covers one range vs when every byte
//!    of both operands carries it, and measure the false-sharing cost of
//!    whole-value labeling (slices keep policies they shouldn't).
//! 2. **SQL policy columns** — rewrite cost scaling with column count is
//!    covered by `sql_ops` (6 vs 10 columns).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use resin_core::{EmptyPolicy, TaintedString, UntrustedData};

fn ablation_byte_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/concat_slice");

    // Untainted baseline.
    let a = TaintedString::from("a".repeat(64));
    let b = TaintedString::from("b".repeat(64));
    g.bench_function("untainted", |bench| {
        bench.iter(|| {
            let joined = a.concat(&b);
            std::hint::black_box(joined.slice(10..50));
        });
    });

    // One small policy range (byte-level tracking earns its keep).
    let mut a2 = TaintedString::from("a".repeat(64));
    a2.add_policy_range(0..8, Arc::new(UntrustedData::new()));
    g.bench_function("one_range", |bench| {
        bench.iter(|| {
            let joined = a2.concat(&b);
            std::hint::black_box(joined.slice(10..50));
        });
    });

    // Whole-string policies on both operands (worst case for ranges;
    // equivalent to whole-value labeling).
    let mut a3 = TaintedString::from("a".repeat(64));
    a3.add_policy(Arc::new(UntrustedData::new()));
    let mut b3 = TaintedString::from("b".repeat(64));
    b3.add_policy(Arc::new(EmptyPolicy::new()));
    g.bench_function("whole_string_both", |bench| {
        bench.iter(|| {
            let joined = a3.concat(&b3);
            std::hint::black_box(joined.slice(10..50));
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = ablation_byte_range
}
criterion_main!(benches);
