//! Property-based tests over the core invariants the paper's method
//! rests on.

use proptest::prelude::*;
use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::device::Device;
use reprocmp::hash::{ChunkHasher, Quantizer};
use reprocmp::merkle::{compare_trees, decode_tree, encode_tree, MerkleTree};

/// Well-behaved f32 payload values (finite, moderate magnitude).
fn value() -> impl Strategy<Value = f32> {
    (-1000.0f32..1000.0).prop_map(|v| v)
}

fn payload(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(value(), 1..max_len)
}

fn engine(chunk_bytes: usize, bound: f64) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes,
        error_bound: bound,
        ..EngineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE conservative-hash guarantee: the engine never misses a
    /// difference the brute-force scan finds, and never invents one.
    #[test]
    fn engine_agrees_with_brute_force(
        base in payload(2_000),
        perturbations in proptest::collection::vec((0usize..2_000, -1.0f32..1.0), 0..20),
        chunk_pow in 4u32..9, // 64..1024 bytes
        bound_pow in 2i32..7, // 1e-2..1e-6
    ) {
        let bound = 10f64.powi(-bound_pow);
        let mut other = base.clone();
        for &(idx, delta) in &perturbations {
            if idx < other.len() {
                other[idx] += delta;
            }
        }
        let brute: Vec<u64> = base
            .iter()
            .zip(&other)
            .enumerate()
            .filter(|(_, (a, b))| (f64::from(**a) - f64::from(**b)).abs() > bound)
            .map(|(i, _)| i as u64)
            .collect();

        let e = engine(1usize << chunk_pow, bound);
        let a = CheckpointSource::in_memory(&base, &e).unwrap();
        let b = CheckpointSource::in_memory(&other, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();

        prop_assert_eq!(report.stats.diff_count, brute.len() as u64);
        let found: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
        prop_assert_eq!(found, brute);
    }

    /// Quantizer conservativeness: a difference strictly above the
    /// bound always lands in different grid cells (no false negatives
    /// at the hash level).
    #[test]
    fn quantizer_never_hides_a_real_difference(
        a in value(),
        delta_factor in 1.01f64..1e4,
        bound_pow in 1i32..7,
        positive in any::<bool>(),
    ) {
        let bound = 10f64.powi(-bound_pow);
        let delta = (bound * delta_factor) as f32 * if positive { 1.0 } else { -1.0 };
        let b = a + delta;
        // Only meaningful when f32 arithmetic preserved the gap.
        prop_assume!((f64::from(a) - f64::from(b)).abs() > bound);
        let q = Quantizer::new(bound).unwrap();
        prop_assert_ne!(q.quantize(a), q.quantize(b));
    }

    /// Quantized-equal implies within bound (the other direction).
    #[test]
    fn equal_codes_imply_within_bound(
        a in value(),
        b in value(),
        bound_pow in 1i32..7,
    ) {
        let bound = 10f64.powi(-bound_pow);
        let q = Quantizer::new(bound).unwrap();
        if q.quantize(a) == q.quantize(b) {
            prop_assert!((f64::from(a) - f64::from(b)).abs() < bound);
        }
    }

    /// The pruning BFS returns exactly the leaf-scan mismatch set, for
    /// every tree geometry and start level.
    #[test]
    fn bfs_equals_leaf_scan(
        base in payload(1_500),
        perturbations in proptest::collection::vec((0usize..1_500, 0.5f32..2.0), 0..10),
        chunk_pow in 3u32..8,
        lanes in 1usize..4096,
    ) {
        let chunk_bytes = 1usize << chunk_pow;
        let mut other = base.clone();
        for &(idx, delta) in &perturbations {
            if idx < other.len() {
                other[idx] += delta;
            }
        }
        let h = ChunkHasher::new(Quantizer::new(1e-5).unwrap());
        let dev = Device::host_serial();
        let ta = MerkleTree::build_from_f32(&base, chunk_bytes, &h, &dev);
        let tb = MerkleTree::build_from_f32(&other, chunk_bytes, &h, &dev);

        let scan: Vec<usize> = (0..ta.leaf_count())
            .filter(|&i| ta.leaf(i) != tb.leaf(i))
            .collect();
        let bfs = compare_trees(&ta, &tb, &dev, lanes).unwrap();
        prop_assert_eq!(bfs.mismatched_leaves, scan);
    }

    /// Merkle metadata round-trips through serialization.
    #[test]
    fn tree_codec_round_trip(
        data in payload(1_000),
        chunk_pow in 3u32..8,
    ) {
        let h = ChunkHasher::new(Quantizer::new(1e-4).unwrap());
        let t = MerkleTree::build_from_f32(&data, 1usize << chunk_pow, &h, &Device::host_serial());
        let bytes = encode_tree(&t);
        let back = decode_tree(&bytes).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Checkpoint format round-trips values exactly.
    #[test]
    fn checkpoint_codec_round_trip(
        x in payload(500),
        v in payload(500),
        version in 0u64..1_000_000,
    ) {
        use reprocmp::veloc::{decode_checkpoint, encode_checkpoint, read_region};
        let bytes = encode_checkpoint(version, &[("x", &x), ("v", &v)]);
        let file = decode_checkpoint(&bytes).unwrap();
        prop_assert_eq!(file.checkpoint_version, version);
        let rx = read_region(&bytes, &file, "x").unwrap();
        let rv = read_region(&bytes, &file, "v").unwrap();
        prop_assert_eq!(rx, x);
        prop_assert_eq!(rv, v);
    }

    /// The streaming pipeline delivers every requested byte exactly
    /// once, in order, for any op layout and backend.
    #[test]
    fn pipeline_delivers_all_bytes(
        chunks in proptest::collection::vec(1usize..2_000, 1..40),
        slice_bytes in 512usize..8_192,
        backend_pick in 0u8..3,
    ) {
        use reprocmp::io::pipeline::{read_all, BackendKind, PipelineConfig};
        use reprocmp::io::MemStorage;
        use std::sync::Arc;

        let total: usize = chunks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let mut ops = Vec::new();
        let mut off = 0u64;
        for &len in &chunks {
            ops.push((off, len));
            off += len as u64;
        }
        let backend = [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking]
            [backend_pick as usize];
        let cfg = PipelineConfig {
            backend,
            slice_bytes,
            ..PipelineConfig::default()
        };
        let out = read_all(Arc::new(MemStorage::free(data.clone())), &ops, cfg).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Robustness invariant: a transient outage shorter than the retry
    /// budget is invisible — under `FirstN { n }` faults with more than
    /// `n` attempts allowed, a Quarantine-policy comparison produces a
    /// report identical to the fault-free run (nothing quarantined,
    /// same differences).
    #[test]
    fn retried_transient_faults_never_change_the_report(
        base in payload(2_000),
        perturbations in proptest::collection::vec((0usize..2_000, 0.5f32..1.5), 1..10),
        faults in 0u64..6,
    ) {
        use reprocmp::core::FailurePolicy;
        use reprocmp::io::{FaultPlan, FaultyStorage, RetryPolicy};
        use std::sync::Arc;

        let mut other = base.clone();
        for &(idx, delta) in &perturbations {
            if idx < other.len() {
                other[idx] += delta;
            }
        }

        let make_engine = || CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-4,
            failure_policy: FailurePolicy::Quarantine,
            // Only the first `faults` reads fail, so `faults + 1`
            // attempts always suffice.
            io: reprocmp::io::PipelineConfig {
                retry: RetryPolicy::with_attempts(faults as u32 + 1),
                ..reprocmp::io::PipelineConfig::default()
            },
            ..EngineConfig::default()
        });

        let e = make_engine();
        let a = CheckpointSource::in_memory(&base, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&other, &e).unwrap();
        b.data = Arc::new(FaultyStorage::new(
            Arc::clone(&b.data),
            FaultPlan::FirstN { n: faults },
        ));
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();

        let clean_a = CheckpointSource::in_memory(&base, &e).unwrap();
        let clean_b = CheckpointSource::in_memory(&other, &e).unwrap();
        let clean = e.compare(&clean_a, &clean_b, &Ctx::default()).unwrap();

        prop_assert!(report.fully_verified());
        prop_assert_eq!(report.stats.diff_count, clean.stats.diff_count);
        prop_assert_eq!(report.stats.chunks_flagged, clean.stats.chunks_flagged);
        let got: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
        let want: Vec<u64> = clean.differences.iter().map(|d| d.index).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(report.io.gave_up, 0);
    }

    /// Identical payloads always produce identical roots; a payload
    /// with any value changed by more than the bound never does.
    #[test]
    fn root_digest_soundness(
        data in payload(1_000),
        victim in 0usize..1_000,
        chunk_pow in 3u32..8,
    ) {
        prop_assume!(victim < data.len());
        let h = ChunkHasher::new(Quantizer::new(1e-4).unwrap());
        let dev = Device::host_serial();
        let chunk_bytes = 1usize << chunk_pow;
        let t1 = MerkleTree::build_from_f32(&data, chunk_bytes, &h, &dev);
        let t2 = MerkleTree::build_from_f32(&data, chunk_bytes, &h, &dev);
        prop_assert_eq!(t1.root(), t2.root());

        let mut other = data.clone();
        other[victim] += 1.0; // 10^4 times the bound
        let t3 = MerkleTree::build_from_f32(&other, chunk_bytes, &h, &dev);
        prop_assert_ne!(t1.root(), t3.root());
    }
}
