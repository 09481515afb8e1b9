//! Hot-path microbench for a single gate write — the one interposition
//! point every boundary crossing funnels through after the Gate
//! unification. Tracked in BENCH_*.json as the baseline the ROADMAP's
//! batching/caching work must improve on.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resin_core::prelude::*;

const OPS: usize = 1_000;

fn write_batch(gate: &mut Gate, data: &TaintedString) {
    for _ in 0..OPS {
        gate.write(data.clone()).unwrap();
        gate.clear_output();
    }
}

fn gate_write(c: &mut Criterion) {
    let plain =
        TaintedString::from("hello, 64 bytes of perfectly ordinary response body text ......");
    let mut tainted = plain.clone();
    tainted.add_policy(Arc::new(UntrustedData::new()));

    let mut g = c.benchmark_group("gate_write");
    g.throughput(Throughput::Elements(OPS as u64));

    // Unguarded: the floor (no filters at all).
    let mut unguarded = Gate::unguarded(GateKind::Http);
    g.bench_function(BenchmarkId::from_parameter("unguarded_plain"), |b| {
        b.iter(|| write_batch(&mut unguarded, &plain));
    });

    // Guarded, policy-free data: the common fast path (default filter
    // iterates zero policies).
    let mut guarded = Gate::new(GateKind::Http);
    g.bench_function(BenchmarkId::from_parameter("guarded_plain"), |b| {
        b.iter(|| write_batch(&mut guarded, &plain));
    });

    // Guarded, tainted data: one export_check per write.
    let mut checked = Gate::new(GateKind::Http);
    g.bench_function(BenchmarkId::from_parameter("guarded_tainted"), |b| {
        b.iter(|| write_batch(&mut checked, &tainted));
    });

    // Registry resolution + write: what `Response::new` + one echo costs.
    let rt = Runtime::new();
    g.bench_function(BenchmarkId::from_parameter("open_and_write"), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                let mut gate = rt.open(GateKind::Http);
                gate.write(plain.clone()).unwrap();
            }
        });
    });

    // Capture off: the sink-only hot path.
    let mut uncaptured = Gate::builder(GateKind::Http).capture(false).build();
    g.bench_function(BenchmarkId::from_parameter("guarded_no_capture"), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                uncaptured.write(plain.clone()).unwrap();
            }
        });
    });

    // Zero-copy write: the borrowed export path. With capture on the
    // output copy remains; with capture off nothing is cloned at all.
    let mut by_ref = Gate::new(GateKind::Http);
    g.bench_function(BenchmarkId::from_parameter("guarded_plain_ref"), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                by_ref.write_ref(&plain).unwrap();
                by_ref.clear_output();
            }
        });
    });
    let mut by_ref_nocap = Gate::builder(GateKind::Http).capture(false).build();
    g.bench_function(BenchmarkId::from_parameter("guarded_no_capture_ref"), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                by_ref_nocap.write_ref(&plain).unwrap();
            }
        });
    });
    let mut tainted_ref = Gate::new(GateKind::Http);
    g.bench_function(BenchmarkId::from_parameter("guarded_tainted_ref"), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                tainted_ref.write_ref(&tainted).unwrap();
                tainted_ref.clear_output();
            }
        });
    });

    // Distinct-policy scaling: with interned labels, a guarded write over 8
    // distinct policies must stay within ~1.3x of the single-policy cost
    // (structural policy comparisons would grow linearly).
    for n in [1usize, 8] {
        let mut data = plain.clone();
        for i in 0..n {
            data.add_policy(Arc::new(UntrustedData::from_source(format!("gw-{i}"))));
        }
        let mut gate = Gate::new(GateKind::Http);
        g.bench_function(BenchmarkId::new("guarded_distinct", n), |b| {
            b.iter(|| write_batch(&mut gate, &data));
        });
    }

    g.finish();
}

/// Concat-heavy variant: each write assembles its payload from parts
/// carrying different labels — the page-building workload where span
/// append/coalesce and label dedup dominate.
fn gate_write_concat(c: &mut Criterion) {
    let mut g = c.benchmark_group("gate_write_concat");
    g.throughput(Throughput::Elements(OPS as u64));

    for n in [1usize, 8] {
        let parts: Vec<TaintedString> = (0..n)
            .map(|i| {
                let mut p = TaintedString::from("eight.. bytes!! ");
                p.add_policy(Arc::new(UntrustedData::from_source(format!("part-{i}"))));
                p
            })
            .collect();
        let mut gate = Gate::new(GateKind::Http);
        g.bench_function(BenchmarkId::new("concat_parts", n), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    let mut body = TaintedString::from("hdr:");
                    for p in &parts {
                        body.push_tainted(p);
                    }
                    gate.write(body).unwrap();
                    gate.clear_output();
                }
            });
        });
    }

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = gate_write, gate_write_concat
}
criterion_main!(benches);
