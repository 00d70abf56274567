//! Capture-side overhead: what the application pays at checkpoint
//! time. Supports the paper's §2.5.1 claim that tree creation is
//! cheap enough to "minimize the interruptions to the application":
//! metadata hashing vs the checkpoint write itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reprocmp_bench::{engine_for, DivergenceSpec, DivergentPair};
use reprocmp_veloc::{Client, VelocConfig};

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("capture_side");
    group.sample_size(10);
    let pair = DivergentPair::generate(1 << 20, DivergenceSpec::hacc_like(), 5);
    let values = &pair.run1;
    group.throughput(Throughput::Bytes((values.len() * 4) as u64));

    // Metadata hashing alone, per chunk size.
    for chunk in [4096usize, 64 << 10] {
        let engine = engine_for(chunk, 1e-5);
        group.bench_with_input(
            BenchmarkId::new("build_metadata", chunk),
            values,
            |b, values| {
                b.iter(|| engine.build_metadata(std::hint::black_box(values)));
            },
        );
    }

    // The VELOC local write the metadata rides along with.
    let dir = std::env::temp_dir().join(format!("reprocmp-capture-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let client = Client::new(VelocConfig::rooted_at(&dir)).unwrap();
    let mut version = 0u64;
    group.bench_function("veloc_checkpoint_local", |b| {
        b.iter(|| {
            version += 1;
            client
                .checkpoint("bench", version, &[("x", values.as_slice())])
                .unwrap();
        });
    });
    client.wait_all().ok();
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

criterion_group!(benches, bench_capture);
criterion_main!(benches);
