//! Wall-clock overhead of the stream pipeline itself (slicing, the
//! kept buffers, the reader thread) on cost-free storage — the
//! implementation companion to Figure 9's modeled device times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reprocmp_io::cost::OpSpec;
use reprocmp_io::pipeline::{read_all, BackendKind, PipelineConfig};
use reprocmp_io::MemStorage;
use std::sync::Arc;

fn scattered_ops(file_len: usize, chunk: usize, every: usize) -> Vec<OpSpec> {
    (0..file_len / chunk)
        .filter(|i| i % every == 3)
        .map(|i| ((i * chunk) as u64, chunk))
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_pipeline");
    group.sample_size(20);
    let file_len = 16 << 20;
    let data: Vec<u8> = vec![7u8; file_len];
    let storage: Arc<MemStorage> = Arc::new(MemStorage::free(data));
    let ops = scattered_ops(file_len, 16 << 10, 4);
    let bytes: u64 = ops.iter().map(|&(_, l)| l as u64).sum();
    group.throughput(Throughput::Bytes(bytes));

    for backend in [BackendKind::Uring, BackendKind::Blocking] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                let cfg = PipelineConfig {
                    backend,
                    ..PipelineConfig::default()
                };
                b.iter(|| {
                    read_all(
                        Arc::clone(&storage) as Arc<dyn reprocmp_io::Storage>,
                        &ops,
                        cfg,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
