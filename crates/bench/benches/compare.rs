//! Wall-clock end-to-end comparison benchmarks on cost-free in-memory
//! storage: our engine vs the Direct and AllClose baselines, at a
//! loose and a tight bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reprocmp_bench::{engine_for, DivergenceSpec, DivergentPair};
use reprocmp_core::{AllClose, CheckpointSource, Ctx, Direct};

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let pair = DivergentPair::generate(1 << 20, DivergenceSpec::hacc_like(), 99);
    group.throughput(Throughput::Bytes(2 * pair.bytes()));

    for eps in [1e-3f64, 1e-7] {
        let engine = engine_for(16 << 10, eps);
        let a = CheckpointSource::in_memory(&pair.run1, &engine).unwrap();
        let b = CheckpointSource::in_memory(&pair.run2, &engine).unwrap();

        group.bench_with_input(
            BenchmarkId::new("ours", format!("{eps:e}")),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| engine.compare(a, b, &Ctx::default()).unwrap());
            },
        );
        let direct = Direct::new(eps).unwrap();
        group.bench_with_input(
            BenchmarkId::new("direct", format!("{eps:e}")),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| direct.compare(a, b, &Ctx::default()).unwrap());
            },
        );
        let allclose = AllClose::new(eps).unwrap();
        group.bench_with_input(
            BenchmarkId::new("allclose", format!("{eps:e}")),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| allclose.compare(a, b, &Ctx::default()).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
