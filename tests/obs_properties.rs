//! Property tests over the observability layer: span trees are
//! well-nested, registry-backed metrics agree with the legacy counter
//! plumbing on every pipeline backend, histogram totals track counter
//! sums, and the stage breakdown stays consistent with the phase
//! timers.

use proptest::prelude::*;
use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::device::Device;
use reprocmp::io::{
    BackendKind, CostModel, MemStorage, PipelineConfig, PipelineMetrics, SimClock, StreamPipeline,
    Timeline,
};
use reprocmp::obs::{ObsClock, Registry, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------

/// A strictly monotonic test clock: every reading is one tick later
/// than the previous one, so interval containment is unambiguous.
fn ticking_clock() -> ObsClock {
    let ticks = AtomicU64::new(0);
    ObsClock::from_fn(move || Duration::from_nanos(ticks.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any push/pop program produces a well-nested span forest: closed
    /// intervals, parents preceding children, depths tracking the
    /// stack, and every child interval contained in its parent's.
    #[test]
    fn span_trees_are_well_nested(program in proptest::collection::vec(0u8..3, 0..64)) {
        let tracer = Tracer::new(ticking_clock());
        let mut live = Vec::new();
        for (i, op) in program.iter().enumerate() {
            if *op == 0 {
                drop(live.pop()); // no-op when the stack is empty
            } else {
                live.push(tracer.span(format!("s{i}")));
            }
        }
        // Close the remaining spans innermost-first (a Vec drops
        // front-to-back, which would close parents before children).
        while live.pop().is_some() {}

        let records = tracer.records();
        for (i, r) in records.iter().enumerate() {
            prop_assert!(r.start <= r.end, "span {i} never closed cleanly");
            match r.parent {
                None => prop_assert_eq!(r.depth, 0),
                Some(p) => {
                    let p = usize::try_from(p).unwrap();
                    prop_assert!(p < i, "parent {p} must precede child {i}");
                    let parent = &records[p];
                    prop_assert_eq!(r.depth, parent.depth + 1);
                    prop_assert!(parent.start <= r.start, "child {i} starts before parent {p}");
                    prop_assert!(r.end <= parent.end, "child {i} outlives parent {p}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline metrics across backends
// ---------------------------------------------------------------------

fn pipeline_config(backend: BackendKind) -> PipelineConfig {
    PipelineConfig {
        backend,
        slice_bytes: 4 << 10,
        queue_depth: 8,
        ..PipelineConfig::default()
    }
}

/// Chops `total` bytes into ops of varying sizes from `cuts`.
fn ops_over(total: usize, cuts: &[usize]) -> Vec<(u64, usize)> {
    let mut ops = Vec::new();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < total {
        let len = cuts[i % cuts.len()].clamp(1, total - offset);
        ops.push((offset as u64, len));
        offset += len;
        i += 1;
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The registry-backed counters report exactly what the legacy
    /// detached `RingCounters` report for the same op stream, on every
    /// backend — swapping the plumbing changed no numbers. Histogram
    /// totals agree with the counter sums: `read_bytes` has one sample
    /// per completed op and its sum is the bytes moved.
    #[test]
    fn registry_metrics_match_legacy_counters_on_every_backend(
        payload_kib in 1usize..32,
        cuts in proptest::collection::vec(64usize..2048, 1..6),
    ) {
        let total = payload_kib << 10;
        let bytes: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let ops = ops_over(total, &cuts);
        let expected_bytes: u64 = ops.iter().map(|&(_, len)| len as u64).sum();

        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            let storage: Arc<MemStorage> = Arc::new(MemStorage::free(bytes.clone()));
            let config = pipeline_config(backend);

            // Legacy path: detached counters, no histograms.
            let legacy = PipelineMetrics::default();
            let legacy_counters = Arc::clone(&legacy.counters);
            let pipe = StreamPipeline::start_observed(
                Arc::clone(&storage) as _, ops.clone(), config, legacy,
            );
            for slice in pipe {
                prop_assert!(slice.is_ok());
            }

            // Registry path: same ops, counters bound into a registry.
            let registry = Registry::new();
            let observed = PipelineMetrics::in_registry(&registry, "io");
            let observed_counters = Arc::clone(&observed.counters);
            let pipe = StreamPipeline::start_observed(
                Arc::clone(&storage) as _, ops.clone(), config, observed,
            );
            for slice in pipe {
                prop_assert!(slice.is_ok());
            }

            let want = legacy_counters.snapshot();
            let got = observed_counters.snapshot();
            prop_assert!(got == want, "counter drift on {backend:?}: {got:?} vs {want:?}");

            // The registry sees the same totals through the names.
            prop_assert_eq!(registry.counter("io.submitted").get(), want.submitted);
            prop_assert_eq!(registry.counter("io.completed").get(), want.completed);
            prop_assert_eq!(registry.counter("io.retried").get(), want.retried);
            prop_assert_eq!(registry.counter("io.gave_up").get(), want.gave_up);
            prop_assert_eq!(want.completed, ops.len() as u64);

            // Histogram totals == counter sums.
            let hist = registry.histogram("io.read_bytes").snapshot();
            // One sample per completed op; its sum is the bytes moved.
            prop_assert_eq!(hist.count, want.completed);
            prop_assert_eq!(hist.sum, expected_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Stage breakdown consistency
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a simulated timeline the compare-side stage times partition
    /// the phase timers: BFS equals the tree walk, stream + verify
    /// equals the direct pass, and the whole compare side never
    /// exceeds the phase-timer total. Capture phases account for both
    /// runs' bytes.
    #[test]
    fn stage_breakdown_is_consistent_with_phase_timers(
        n_chunks in 1usize..24,
        flips in proptest::collection::vec(0usize..24usize * 256, 0..12),
    ) {
        let n_values = n_chunks * 256; // 1 KiB chunks
        let mut run1: Vec<f32> = (0..n_values).map(|i| (i % 97) as f32 * 0.25).collect();
        let mut run2 = run1.clone();
        for &f in &flips {
            if f < n_values {
                run2[f] += 1.0;
            }
        }
        // Keep at least one value different so stage 2 runs sometimes,
        // and none in other cases — both paths must hold.
        let _ = &mut run1;

        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 1024,
            error_bound: 1e-3,
            device: Device::sim_cpu_core(),
            ..EngineConfig::default()
        });
        let clock = SimClock::new();
        let model = CostModel::lustre_pfs();
        let a = CheckpointSource::in_memory_with_model(&run1, &engine, model, Some(clock.clone()))
            .unwrap();
        let b = CheckpointSource::in_memory_with_model(&run2, &engine, model, Some(clock.clone()))
            .unwrap();
        let report = engine
            .compare(&a, &b, &Ctx { timeline: Timeline::sim(clock), ..Ctx::default() })
            .unwrap();

        let s = &report.stages;
        prop_assert_eq!(s.bfs.time, report.breakdown.compare_tree);
        prop_assert_eq!(
            s.stage2_stream.time + s.verify.time,
            report.breakdown.compare_direct
        );
        let compare_side = s.bfs.time + s.stage2_stream.time + s.verify.time;
        prop_assert!(compare_side <= report.breakdown.total());
        prop_assert!(s.total_time() >= compare_side);

        // Capture covers both runs: quantize touched every byte twice.
        prop_assert_eq!(s.quantize.bytes, 2 * report.stats.total_bytes);
        prop_assert_eq!(s.quantize.ops as usize, 2 * n_values);
        prop_assert!(!s.leaf_hash.is_zero());
        prop_assert!(!s.level_build.is_zero());

        // Stage-2 accounting matches the I/O counters.
        prop_assert_eq!(s.stage2_stream.ops, report.io.submitted);
        prop_assert_eq!(s.verify.bytes, 2 * report.stats.bytes_reread);
    }
}

// ---------------------------------------------------------------------
// Batch scheduler cache accounting
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The metadata cache's ledger obeys exact partition invariants on
    /// random multi-run workloads: per job, nodes visited with the
    /// cache plus `nodes_saved` equals the nodes the same job visits
    /// with the cache disabled (and likewise for stage-2 bytes), hits
    /// plus misses partition the lookups, and the registry's `cache.*`
    /// counters mirror the batch ledger exactly.
    #[test]
    fn cache_ledger_partitions_the_uncached_work(
        n_chunks in 4usize..32,
        shared in proptest::collection::vec(0usize..32usize * 128, 1..10),
        unique in proptest::collection::vec(0usize..32usize * 128, 0..6),
        n_runs in 2usize..5,
    ) {
        use reprocmp::core::BatchConfig;
        use reprocmp::obs::Observer;

        let n_values = n_chunks * 128; // 512 B chunks
        let base: Vec<f32> = (0..n_values).map(|i| (i % 89) as f32 * 0.5).collect();
        let mut with_shared = base.clone();
        for &f in &shared {
            if f < n_values {
                with_shared[f] += 2.0;
            }
        }
        let runs_values: Vec<Vec<f32>> = (0..n_runs)
            .map(|r| {
                let mut v = with_shared.clone();
                for (k, &f) in unique.iter().enumerate() {
                    // Perturb run-specific positions so some chunks are
                    // unique to each run and stay cache misses.
                    let idx = (f + r * 37 + k) % n_values;
                    v[idx] += 1.0 + r as f32;
                }
                v
            })
            .collect();

        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 512,
            error_bound: 1e-3,
            lane_hint: Some(4),
            ..EngineConfig::default()
        });
        let baseline = CheckpointSource::in_memory(&base, &engine).unwrap();
        let runs: Vec<CheckpointSource> = runs_values
            .iter()
            .map(|v| CheckpointSource::in_memory(v, &engine).unwrap())
            .collect();

        let run_batch = |use_cache: bool| {
            let obs = Observer::default();
            let mut cache = reprocmp::core::MetaCache::new();
            let batch = engine
                .compare_many(
                    &baseline,
                    &runs,
                    &BatchConfig { use_cache, ..BatchConfig::default() },
                    &mut cache,
                    &Ctx { timeline: Timeline::wall(), obs: obs.clone() },
                )
                .unwrap();
            (batch, obs.registry)
        };
        let (cached, registry) = run_batch(true);
        let (uncached, _) = run_batch(false);

        // The uncached ledger is all-zero except misses.
        prop_assert_eq!(uncached.cache.node_hits, 0);
        prop_assert_eq!(uncached.cache.verdict_hits, 0);
        prop_assert_eq!(uncached.cache.nodes_saved, 0);
        prop_assert_eq!(uncached.cache.bytes_saved, 0);

        for (jc, ju) in cached.jobs.iter().zip(&uncached.jobs) {
            // Partition: cached visits + saved == uncached visits.
            prop_assert_eq!(
                jc.report.stages.bfs.ops + jc.report.cache.nodes_saved,
                ju.report.stages.bfs.ops
            );
            prop_assert_eq!(
                jc.report.stats.bytes_reread + jc.report.cache.bytes_saved,
                ju.report.stats.bytes_reread
            );
            // Verdict lookups partition the flagged chunks (in-memory
            // sources always carry raw digests).
            prop_assert_eq!(
                jc.report.cache.verdict_hits + jc.report.cache.verdict_misses,
                jc.report.stats.chunks_flagged
            );
            // Verdicts are unchanged by caching.
            prop_assert_eq!(jc.report.stats.diff_count, ju.report.stats.diff_count);
        }

        // The batch ledger is the per-job ledgers summed, and the
        // registry's cache.* counters mirror it exactly.
        let summed = cached
            .jobs
            .iter()
            .fold(reprocmp::obs::CacheStats::default(), |acc, j| {
                acc.merged(j.report.cache)
            });
        prop_assert_eq!(cached.cache, summed);
        prop_assert_eq!(registry.counter("cache.node_hits").get(), summed.node_hits);
        prop_assert_eq!(registry.counter("cache.node_misses").get(), summed.node_misses);
        prop_assert_eq!(registry.counter("cache.verdict_hits").get(), summed.verdict_hits);
        prop_assert_eq!(
            registry.counter("cache.verdict_misses").get(),
            summed.verdict_misses
        );
        prop_assert_eq!(
            registry.counter("cache.short_circuits").get(),
            summed.short_circuits
        );
        prop_assert_eq!(registry.counter("cache.nodes_saved").get(), summed.nodes_saved);
        prop_assert_eq!(registry.counter("cache.bytes_saved").get(), summed.bytes_saved);
    }
}
