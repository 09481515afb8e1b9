//! Microbenchmarks for the interned-label hot paths: union, equality, and
//! merge at 1, 4, and 16 distinct policies.
//!
//! The acceptance bar for the interning refactor: after the first
//! (memoizing) computation, `union` and `==` perform **no structural policy
//! comparisons** — their cost must be flat in the number of distinct
//! policies, where the old `Arc<Vec<PolicyRef>>` representation scaled
//! linearly (with a `serialize_fields` allocation per comparison).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resin_core::prelude::*;

const OPS: usize = 1_000;

/// A label holding `n` distinct policies (and its twin, built separately).
fn labels_with(n: usize) -> (Label, Label) {
    let build = || {
        let mut l = Label::EMPTY;
        for i in 0..n {
            l = l.union(Label::of(
                &(Arc::new(UntrustedData::from_source(format!("src-{i}"))) as PolicyRef),
            ));
        }
        l
    };
    (build(), build())
}

fn label_union_eq(c: &mut Criterion) {
    let mut g = c.benchmark_group("label_ops/union");
    g.throughput(Throughput::Elements(OPS as u64));
    for n in [1usize, 4, 16] {
        let (a, b) = labels_with(n);
        let _ = a.union(b); // warm the memo once
        g.bench_function(BenchmarkId::new("label", n), |bench| {
            bench.iter(|| {
                for _ in 0..OPS {
                    std::hint::black_box(a.union(b));
                }
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("label_ops/eq");
    g.throughput(Throughput::Elements(OPS as u64));
    for n in [1usize, 4, 16] {
        let (a, b) = labels_with(n);
        g.bench_function(BenchmarkId::new("label", n), |bench| {
            bench.iter(|| {
                for _ in 0..OPS {
                    std::hint::black_box(a == b);
                }
            });
        });
    }
    g.finish();
}

fn label_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("label_ops/merge");
    g.throughput(Throughput::Elements(OPS as u64));
    for n in [1usize, 4, 16] {
        let (a, b) = labels_with(n);
        g.bench_function(BenchmarkId::new("merge_sets", n), |bench| {
            bench.iter(|| {
                for _ in 0..OPS {
                    std::hint::black_box(merge_sets(a, b).unwrap());
                }
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = label_union_eq, label_merge
}
criterion_main!(benches);
