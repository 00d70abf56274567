//! Microbenchmarks of the error-bounded hashing primitives: Murmur3F
//! throughput, quantization, and block-chained chunk digests at the
//! evaluation's chunk sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reprocmp_hash::{murmur3::murmur3_x64_128, ChunkHasher, Quantizer};

fn bench_murmur(c: &mut Criterion) {
    let mut group = c.benchmark_group("murmur3_x64_128");
    for size in [16usize, 256, 4096, 65_536] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| murmur3_x64_128(std::hint::black_box(data), 0));
        });
    }
    group.finish();
}

fn bench_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize");
    let values: Vec<f32> = (0..65_536).map(|i| (i as f32).sin()).collect();
    for bound in [1e-3f64, 1e-7] {
        let q = Quantizer::new(bound).unwrap();
        group.throughput(Throughput::Bytes((values.len() * 4) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{bound:e}")),
            &values,
            |b, values| {
                let mut out = Vec::new();
                b.iter(|| q.quantize_to_bytes(std::hint::black_box(values), &mut out));
            },
        );
    }
    group.finish();
}

fn bench_chunk_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_digest");
    let hasher = ChunkHasher::new(Quantizer::new(1e-5).unwrap());
    for chunk_bytes in [4096usize, 65_536, 512 << 10] {
        let values = vec![1.25f32; chunk_bytes / 4];
        group.throughput(Throughput::Bytes(chunk_bytes as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(chunk_bytes),
            &values,
            |b, values| b.iter(|| hasher.hash_chunk(std::hint::black_box(values))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_murmur, bench_quantize, bench_chunk_hash);
criterion_main!(benches);
