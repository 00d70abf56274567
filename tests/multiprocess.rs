//! Multi-rank integration: checkpoint-pair comparisons distributed
//! over the simulated cluster, the execution shape of the paper's
//! strong-scaling study.

use reprocmp::cluster::{Cluster, ReduceOrder};
use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::io::{CostModel, Timeline};

/// Synthetic pair generator: run 2 perturbs every `stride`-th value.
fn pair(len: usize, stride: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..len)
        .map(|i| ((i as u64).wrapping_mul(seed + 7919) % 10_000) as f32 * 1e-3)
        .collect();
    let mut b = a.clone();
    for i in (0..len).step_by(stride) {
        b[i] += 0.01;
    }
    (a, b)
}

#[test]
fn ranks_compare_their_own_pairs_and_agree_on_totals() {
    let cluster = Cluster::new(2, 4); // 8 ranks
    let pairs_per_rank = 2;

    let results = cluster.run(|ctx| {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 256,
            error_bound: 1e-5,
            ..EngineConfig::default()
        });
        let mut local_diffs = 0u64;
        for p in 0..pairs_per_rank {
            let seed = (ctx.rank() * pairs_per_rank + p) as u64;
            let (v1, v2) = pair(4_096, 512, seed);
            let a = CheckpointSource::in_memory(&v1, &engine).unwrap();
            let b = CheckpointSource::in_memory(&v2, &engine).unwrap();
            let report = engine.compare(&a, &b, &Ctx::default()).unwrap();
            // stride 512 over 4096 values = 8 diffs per pair.
            assert_eq!(report.stats.diff_count, 8);
            local_diffs += report.stats.diff_count;
        }
        ctx.allreduce_sum_f64(local_diffs as f64) as u64
    });

    // Every rank agrees on the global total: 8 ranks × 2 pairs × 8.
    assert!(results.iter().all(|&t| t == 128));
}

#[test]
fn per_node_clocks_isolate_storage_contention() {
    // Ranks on the same node share a PFS clock; ranks on different
    // nodes do not. Each local rank 0 does the I/O-heavy comparison.
    let cluster = Cluster::new(2, 2);
    let results = cluster.run(|ctx| {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 1024,
            error_bound: 1e-5,
            ..EngineConfig::default()
        });
        let clock = ctx.node_clock();
        if ctx.local_rank() == 0 {
            let (v1, v2) = pair(1 << 15, 64, ctx.node() as u64);
            let a = CheckpointSource::in_memory_with_model(
                &v1,
                &engine,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let b = CheckpointSource::in_memory_with_model(
                &v2,
                &engine,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            engine
                .compare(
                    &a,
                    &b,
                    &Ctx {
                        timeline: Timeline::sim(clock.clone()),
                        ..Ctx::default()
                    },
                )
                .unwrap();
        }
        ctx.barrier();
        clock.now()
    });
    // Both ranks of a node observe the same elapsed time; it is > 0
    // because their node's rank 0 did charged I/O. Sort before
    // pairing: the assertion is "the four readings form two equal
    // pairs", not a claim about which node's workload ran longer, so
    // it must not depend on how results are ordered across nodes.
    let mut sorted = results.clone();
    sorted.sort_unstable();
    assert_eq!(sorted[0], sorted[1], "a node's ranks disagree: {results:?}");
    assert_eq!(sorted[2], sorted[3], "a node's ranks disagree: {results:?}");
    assert!(sorted[0] > std::time::Duration::ZERO);
}

#[test]
fn reduction_order_nondeterminism_is_visible_to_the_comparator() {
    // A cluster computes an f32 observable via allreduce under two
    // different reduction orders; the comparator must classify the
    // outcome correctly against tight and loose bounds.
    let observable = |seed: u64| -> Vec<f32> {
        let cluster = Cluster::new(4, 4);
        let order = ReduceOrder::Shuffled { seed };
        let mut all = cluster.run(move |ctx| {
            // Mixed-magnitude contributions, summed 16-wide, once per
            // "iteration".
            (0..64)
                .map(|it| {
                    let c = ((ctx.rank() as u64 * 2654435761 + it) % 997) as f32 * 1e-4 + 1.0;
                    ctx.allreduce_sum_f32(c, order)
                })
                .collect::<Vec<f32>>()
        });
        all.swap_remove(0) // every rank got identical results; take rank 0's
    };

    let run1 = observable(1);
    let run2 = observable(2);

    let engine_tight = CompareEngine::new(EngineConfig {
        chunk_bytes: 64,
        error_bound: 1e-9,
        ..EngineConfig::default()
    });
    let a = CheckpointSource::in_memory(&run1, &engine_tight).unwrap();
    let b = CheckpointSource::in_memory(&run2, &engine_tight).unwrap();
    let tight = engine_tight.compare(&a, &b, &Ctx::default()).unwrap();

    let engine_loose = CompareEngine::new(EngineConfig {
        chunk_bytes: 64,
        error_bound: 1e-2,
        ..EngineConfig::default()
    });
    let a = CheckpointSource::in_memory(&run1, &engine_loose).unwrap();
    let b = CheckpointSource::in_memory(&run2, &engine_loose).unwrap();
    let loose = engine_loose.compare(&a, &b, &Ctx::default()).unwrap();

    assert!(
        tight.stats.diff_count > 0,
        "shuffled 16-way f32 reductions should differ at 1e-9"
    );
    assert_eq!(loose.stats.diff_count, 0, "and agree at 1e-2");
}
