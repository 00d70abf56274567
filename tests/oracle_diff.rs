//! The differential-oracle suite that locks in the batch scheduler.
//!
//! The oracle is the dumbest possible comparator: an element-wise
//! `|a - b| > ε` scan over the raw payloads. Everything the optimized
//! stack does — ε-quantized hashing, the pruning BFS, scattered
//! stage-2 streaming, the content-addressed metadata cache — is an
//! implementation detail that must not change a single verdict. These
//! tests pin that equivalence across every I/O backend (uring-style,
//! mmap-style, blocking) with the cache both enabled and disabled, for
//! randomly generated multi-run workloads.

use proptest::prelude::*;
use reprocmp::core::{BatchConfig, CheckpointSource, CompareEngine, Ctx, EngineConfig, MetaCache};
use reprocmp::io::pipeline::{BackendKind, PipelineConfig};

const BACKENDS: [BackendKind; 3] = [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking];

fn engine(chunk_bytes: usize, bound: f64, backend: BackendKind) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes,
        error_bound: bound,
        // A small lane hint starts the BFS above the leaves so the
        // subtree cache has real work to memoize even on small trees.
        lane_hint: Some(8),
        // The oracle needs every difference, not a capped sample.
        max_recorded_diffs: 1 << 20,
        io: PipelineConfig {
            backend,
            ..PipelineConfig::default()
        },
        ..EngineConfig::default()
    })
}

/// Ground truth: indices where the runs differ beyond the bound, and
/// the set of chunks containing at least one such index.
fn oracle(a: &[f32], b: &[f32], bound: f64, chunk_bytes: usize) -> (Vec<u64>, Vec<usize>) {
    let indices: Vec<u64> = a
        .iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| (f64::from(**x) - f64::from(**y)).abs() > bound)
        .map(|(i, _)| i as u64)
        .collect();
    let per_chunk = chunk_bytes / 4;
    let mut chunks: Vec<usize> = indices.iter().map(|&i| i as usize / per_chunk).collect();
    chunks.dedup();
    (indices, chunks)
}

fn apply(base: &[f32], perturbations: &[(usize, f32)]) -> Vec<f32> {
    let mut out = base.to_vec();
    for &(idx, delta) in perturbations {
        if idx < out.len() {
            out[idx] += delta;
        }
    }
    out
}

/// Checks one engine configuration against the oracle for a baseline
/// and a set of runs, with the cache on and off, and returns the
/// diff-index vectors (one per run) so callers can cross-check
/// configurations against each other.
fn check_against_oracle(
    backend: BackendKind,
    chunk_bytes: usize,
    bound: f64,
    base: &[f32],
    runs: &[Vec<f32>],
) -> Result<Vec<Vec<u64>>, TestCaseError> {
    let e = engine(chunk_bytes, bound, backend);
    let baseline = CheckpointSource::in_memory(base, &e).unwrap();
    let sources: Vec<CheckpointSource> = runs
        .iter()
        .map(|r| CheckpointSource::in_memory(r, &e).unwrap())
        .collect();

    let mut first: Option<Vec<Vec<u64>>> = None;
    for use_cache in [true, false] {
        let cfg = BatchConfig {
            use_cache,
            ..BatchConfig::default()
        };
        let batch = e
            .compare_many(
                &baseline,
                &sources,
                &cfg,
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        prop_assert_eq!(batch.jobs.len(), runs.len());

        let mut per_run: Vec<Vec<u64>> = Vec::new();
        for (job, run) in batch.jobs.iter().zip(runs) {
            let (want_indices, want_chunks) = oracle(base, run, bound, chunk_bytes);
            let report = &job.report;
            prop_assert!(report.fully_verified());
            prop_assert_eq!(report.stats.diff_count, want_indices.len() as u64);
            let got: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
            prop_assert_eq!(&got, &want_indices);
            // Every reported value pair must be the payloads' values.
            for d in &report.differences {
                let i = d.index as usize;
                prop_assert_eq!(d.a.to_bits(), base[i].to_bits());
                prop_assert_eq!(d.b.to_bits(), run[i].to_bits());
            }
            // Conservative hashing: every oracle-mismatched chunk was
            // flagged (the reverse need not hold — false positives are
            // allowed, silent false negatives are not).
            prop_assert!(
                report.stats.chunks_flagged as usize >= want_chunks.len(),
                "flagged {} < oracle chunks {}",
                report.stats.chunks_flagged,
                want_chunks.len()
            );
            per_run.push(got);
        }
        match &first {
            None => first = Some(per_run),
            Some(reference) => {
                prop_assert_eq!(reference, &per_run);
            }
        }
    }
    Ok(first.expect("both cache modes ran"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batch scheduler reports exactly the oracle's difference set
    /// for every backend, cache on and off, on random 3-run workloads
    /// whose runs share some perturbations (exercising cache hits) and
    /// carry some of their own (exercising fresh work after hits).
    #[test]
    fn batch_scheduler_matches_the_elementwise_oracle(
        base in proptest::collection::vec(-1000.0f32..1000.0, 64..1200),
        shared in proptest::collection::vec((0usize..1200, -2.0f32..2.0), 0..12),
        unique0 in proptest::collection::vec((0usize..1200, -2.0f32..2.0), 0..6),
        unique1 in proptest::collection::vec((0usize..1200, -2.0f32..2.0), 0..6),
        unique2 in proptest::collection::vec((0usize..1200, -2.0f32..2.0), 0..6),
        chunk_pow in 4u32..8,   // 16..128 B chunks
        bound_pow in 2i32..6,   // 1e-2..1e-5
        backend_pick in 0u8..3,
    ) {
        let bound = 10f64.powi(-bound_pow);
        let chunk_bytes = 1usize << chunk_pow;
        let with_shared = apply(&base, &shared);
        let runs: Vec<Vec<f32>> = [&unique0, &unique1, &unique2]
            .iter()
            .map(|u| apply(&with_shared, u))
            .collect();
        let backend = BACKENDS[backend_pick as usize];
        check_against_oracle(backend, chunk_bytes, bound, &base, &runs)?;
    }

    /// All three backends agree with each other (and, transitively
    /// through the test above, with the oracle) on identical inputs.
    #[test]
    fn backends_are_interchangeable(
        base in proptest::collection::vec(-100.0f32..100.0, 64..600),
        shared in proptest::collection::vec((0usize..600, -1.0f32..1.0), 1..8),
        unique in proptest::collection::vec((0usize..600, -1.0f32..1.0), 0..4),
    ) {
        let bound = 1e-3;
        let chunk_bytes = 64;
        let with_shared = apply(&base, &shared);
        let runs = vec![with_shared.clone(), apply(&with_shared, &unique)];
        let mut results = Vec::new();
        for backend in BACKENDS {
            results.push(check_against_oracle(backend, chunk_bytes, bound, &base, &runs)?);
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[1], &results[2]);
    }
}

/// A fixed scenario driven through the full cross-product of
/// 3 backends × cache on/off, so every combination is exercised on
/// every test run (proptest only samples the space).
#[test]
fn every_backend_and_cache_mode_matches_the_oracle() {
    let base: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
    // Shared divergence over the first half + per-run unique values,
    // including one sub-bound perturbation (a guaranteed hash false
    // positive candidate) and one exactly-at-bound value (must NOT
    // count: the oracle is a strict inequality).
    let mut shared = base.clone();
    for v in shared.iter_mut().take(2048) {
        *v += 0.125;
    }
    shared[3000] += 5e-4; // below the 1e-3 bound: not a difference
    let runs: Vec<Vec<f32>> = (0..3)
        .map(|r| {
            let mut v = shared.clone();
            v[3500 + 7 * r] += 0.25;
            v
        })
        .collect();

    let bound = 1e-3;
    let chunk_bytes = 64;
    let mut all: Vec<Vec<Vec<u64>>> = Vec::new();
    for backend in BACKENDS {
        let got = check_against_oracle(backend, chunk_bytes, bound, &base, &runs)
            .expect("oracle equivalence");
        all.push(got);
    }
    assert_eq!(all[0], all[1], "uring vs mmap");
    assert_eq!(all[1], all[2], "mmap vs blocking");
    // Sanity: the scenario is non-trivial — every run really diverges.
    assert!(all[0].iter().all(|diffs| diffs.len() > 2048));
}
