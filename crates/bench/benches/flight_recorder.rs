//! Flight-recorder overhead benchmarks: a journaled end-to-end
//! comparison against the identical unjournaled one (the cost of
//! recording every chunk read, slice fill, and span), and the raw
//! per-event cost of the journal's emit path, enabled and disabled
//! (the disabled path is the one every instrumented hot loop pays).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reprocmp_bench::{engine_for, DivergenceSpec, DivergentPair};
use reprocmp_core::{CheckpointSource, Ctx};
use reprocmp_io::Timeline;
use reprocmp_obs::{EventKind, Journal, ObsClock, Observer};

fn bench_journaled_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight_recorder");
    group.sample_size(10);
    let pair = DivergentPair::generate(1 << 20, DivergenceSpec::hacc_like(), 42);
    group.throughput(Throughput::Bytes(2 * pair.bytes()));

    let engine = engine_for(16 << 10, 1e-7);
    let a = CheckpointSource::in_memory(&pair.run1, &engine).unwrap();
    let b = CheckpointSource::in_memory(&pair.run2, &engine).unwrap();

    for journaled in [false, true] {
        let label = if journaled {
            "journal_on"
        } else {
            "journal_off"
        };
        group.bench_with_input(
            BenchmarkId::new("compare", label),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| {
                    let timeline = Timeline::wall();
                    let obs = if journaled {
                        Observer::with_journal(timeline.obs_clock())
                    } else {
                        Observer::disabled()
                    };
                    engine.compare(a, b, &Ctx { timeline, obs }).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_emit_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_emit");
    group.throughput(Throughput::Elements(1));

    let disabled = Journal::disabled();
    group.bench_function("disabled", |bch| {
        bch.iter(|| {
            disabled.emit(
                "lane",
                EventKind::IoSubmit {
                    ops: 1,
                    bytes: 4096,
                    queue_depth: 64,
                },
            );
        });
    });

    let enabled = Journal::new(ObsClock::wall());
    group.bench_function("enabled", |bch| {
        bch.iter(|| {
            enabled.emit(
                "lane",
                EventKind::IoSubmit {
                    ops: 1,
                    bytes: 4096,
                    queue_depth: 64,
                },
            );
        });
    });
    group.finish();
}

criterion_group!(benches, bench_journaled_compare, bench_emit_path);
criterion_main!(benches);
