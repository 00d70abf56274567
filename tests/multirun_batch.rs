//! Integration tests for the multi-run batch scheduler: the
//! counter-based acceptance criterion (a cached N-run baseline
//! comparison does strictly less work than N independent pairwise
//! comparisons) and the concurrency-determinism stress contract
//! documented on `reprocmp_device::Device` (any `host_parallel(k)`
//! shard count produces byte-identical results).

use reprocmp::core::{BatchConfig, CheckpointSource, CompareEngine, Ctx, EngineConfig, MetaCache};
use reprocmp::device::Device;
use reprocmp::hash::{ChunkHasher, Quantizer};
use reprocmp::io::{CostModel, SimClock, Timeline};
use reprocmp::merkle::{encode_tree, MerkleTree};

const N_VALUES: usize = 1 << 16;
const CHUNK: usize = 512;
const BOUND: f64 = 1e-4;

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: BOUND,
        // Start the BFS above the leaves so subtree caching is live
        // (the default 64 Ki-lane hint clamps the start level to the
        // leaves for trees this size).
        lane_hint: Some(8),
        ..EngineConfig::default()
    })
}

/// Baseline plus `n` runs that share the same deviation over the first
/// half of the payload (>= 50% of chunks identical across runs) and
/// one unique value each.
fn shared_deviation_payloads(n: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let base: Vec<f32> = (0..N_VALUES).map(|i| (i as f32 * 1e-3).cos()).collect();
    let mut shared = base.clone();
    for v in shared.iter_mut().take(N_VALUES / 2) {
        *v += 0.5;
    }
    let runs = (0..n)
        .map(|r| {
            let mut v = shared.clone();
            v[N_VALUES - 100 * (r + 1)] += 1.0;
            v
        })
        .collect();
    (base, runs)
}

/// The acceptance criterion: for N >= 3 runs sharing >= 50% of their
/// chunks, the cached batch performs strictly fewer stage-1 node
/// visits, strictly fewer stage-2 bytes re-read, and strictly fewer
/// metadata decodes than N independent pairwise comparisons.
#[test]
fn cached_batch_beats_independent_pairwise_on_every_counter() {
    let n = 4;
    let (base, run_values) = shared_deviation_payloads(n);
    let e = engine();
    let baseline = CheckpointSource::in_memory(&base, &e).unwrap();
    let runs: Vec<CheckpointSource> = run_values
        .iter()
        .map(|v| CheckpointSource::in_memory(v, &e).unwrap())
        .collect();

    // N independent pairwise comparisons: the status quo.
    let mut pairwise_nodes = 0u64;
    let mut pairwise_bytes = 0u64;
    let mut pairwise_decodes = 0u64;
    let mut pairwise_diffs: Vec<u64> = Vec::new();
    for run in &runs {
        let report = e.compare(&baseline, run, &Ctx::default()).unwrap();
        pairwise_nodes += report.stages.bfs.ops;
        pairwise_bytes += report.stats.bytes_reread;
        pairwise_decodes += 2; // each pairwise job decodes both trees
        pairwise_diffs.push(report.stats.diff_count);
    }

    let batch = e
        .compare_many(
            &baseline,
            &runs,
            &BatchConfig::default(),
            &mut MetaCache::new(),
            &Ctx::default(),
        )
        .unwrap();

    // Same verdicts first — a cheaper wrong answer would be worthless.
    let batch_diffs: Vec<u64> = batch
        .jobs
        .iter()
        .map(|j| j.report.stats.diff_count)
        .collect();
    assert_eq!(batch_diffs, pairwise_diffs);

    assert!(
        batch.total_nodes_visited() < pairwise_nodes,
        "batch visited {} node pairs, pairwise {}",
        batch.total_nodes_visited(),
        pairwise_nodes
    );
    assert!(
        batch.total_bytes_reread() < pairwise_bytes,
        "batch re-read {} bytes, pairwise {}",
        batch.total_bytes_reread(),
        pairwise_bytes
    );
    assert_eq!(batch.trees_decoded, n as u64 + 1);
    assert!(batch.trees_decoded < pairwise_decodes);

    // The ledger explains the gap exactly: nodes saved by cache hits
    // account for the full node-visit difference.
    assert_eq!(
        batch.total_nodes_visited() + batch.cache.nodes_saved,
        pairwise_nodes,
        "visited + saved must equal the uncached total"
    );
    assert_eq!(
        batch.total_bytes_reread() + batch.cache.bytes_saved,
        pairwise_bytes,
        "re-read + saved must equal the uncached total"
    );
    assert!(batch.cache.node_hits > 0, "{:?}", batch.cache);
    assert!(batch.cache.verdict_hits > 0, "{:?}", batch.cache);
}

/// Merkle construction is shard-count invariant: for any worker count
/// k, `Device::host_parallel(k)` builds a tree whose encoding is
/// byte-identical to the serial device's.
#[test]
fn tree_construction_is_identical_across_worker_counts() {
    let (base, runs) = shared_deviation_payloads(1);
    let hasher = ChunkHasher::new(Quantizer::new(BOUND).unwrap());
    for values in [&base, &runs[0]] {
        let serial = encode_tree(&MerkleTree::build_from_f32(
            values,
            CHUNK,
            &hasher,
            &Device::host_serial(),
        ));
        for k in [1usize, 2, 8, 17] {
            let parallel = encode_tree(&MerkleTree::build_from_f32(
                values,
                CHUNK,
                &hasher,
                &Device::host_parallel(k),
            ));
            assert_eq!(
                serial, parallel,
                "host_parallel({k}) built a different tree"
            );
        }
    }
}

/// The cluster flow the scheduler was built for: every rank produces
/// its own run payload, the payloads gather at rank 0 as rank-tagged
/// messages, and the root batch-compares them all
/// against the baseline with one shared metadata cache.
#[test]
fn root_rank_batch_compares_gathered_runs() {
    use reprocmp::cluster::Cluster;

    const N: usize = 1 << 14;
    let cluster = Cluster::new(2, 2);
    let results = cluster.run(|ctx| {
        // Every rank derives its payload deterministically: a shared
        // deviation over the first half (the nondeterministic
        // reduction perturbing the same region every run) plus one
        // rank-specific value.
        let mut values: Vec<f32> = (0..N).map(|i| (i as f32 * 1e-3).cos()).collect();
        for v in values.iter_mut().take(N / 2) {
            *v += 0.5;
        }
        values[N - 50 * (ctx.rank() + 1)] += 1.0;
        let mut bytes = Vec::with_capacity(N * 4);
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }

        // Gather at rank 0, each payload tagged with its sender.
        if ctx.rank() > 0 {
            let mut frame = vec![ctx.rank() as u8];
            frame.extend_from_slice(&bytes);
            ctx.send(0, frame);
            return None;
        }
        let mut gathered = vec![Vec::new(); ctx.size()];
        gathered[0] = bytes;
        for _ in 1..ctx.size() {
            let frame = ctx.recv();
            gathered[usize::from(frame[0])] = frame[1..].to_vec();
        }

        // Rank 0 reconstructs every run and batch-compares against the
        // unperturbed baseline.
        let e = engine();
        let base: Vec<f32> = (0..N).map(|i| (i as f32 * 1e-3).cos()).collect();
        let baseline = CheckpointSource::in_memory(&base, &e).unwrap();
        let runs: Vec<CheckpointSource> = gathered
            .iter()
            .map(|buf| {
                let values: Vec<f32> = buf
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                CheckpointSource::in_memory(&values, &e).unwrap()
            })
            .collect();
        let batch = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        Some(batch)
    });

    let batch = results[0].as_ref().expect("root ran the batch");
    assert!(results[1..].iter().all(Option::is_none));
    assert_eq!(batch.jobs.len(), cluster.size());
    assert_eq!(batch.trees_decoded, cluster.size() as u64 + 1);
    // Every rank's run: half the payload deviates plus its one unique
    // value.
    for job in &batch.jobs {
        assert_eq!(job.report.stats.diff_count, N as u64 / 2 + 1);
    }
    // The shared deviation is adjudicated once and reused: runs 2..N
    // hit both cache layers.
    assert!(batch.cache.node_hits > 0, "{:?}", batch.cache);
    assert!(batch.cache.verdict_hits > 0, "{:?}", batch.cache);
    assert!(batch.cache.bytes_saved > 0, "{:?}", batch.cache);
}

/// Batch reports are shard-count invariant: the serialized report —
/// every per-job verdict, counter, duration, and the cache ledger —
/// is identical for k ∈ {1, 2, 8, 17} execution shards. Runs on a
/// simulated clock so even the timing fields must agree bit-for-bit.
#[test]
fn batch_reports_are_identical_across_shard_counts() {
    let (base, run_values) = shared_deviation_payloads(3);

    let render = |shards: usize| -> String {
        let e = engine();
        let clock = SimClock::new();
        let source = |values: &[f32]| {
            CheckpointSource::in_memory_with_model(
                values,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap()
        };
        let baseline = source(&base);
        let runs: Vec<CheckpointSource> = run_values.iter().map(|v| source(v)).collect();
        let cfg = BatchConfig {
            shards: Some(shards),
            ..BatchConfig::default()
        };
        let batch = e
            .compare_many(
                &baseline,
                &runs,
                &cfg,
                &mut MetaCache::new(),
                &Ctx {
                    timeline: Timeline::sim(clock.clone()),
                    ..Ctx::default()
                },
            )
            .unwrap();
        serde_json::to_string_pretty(&batch).unwrap()
    };

    let serial = render(1);
    assert!(serial.contains("\"jobs\""));
    for k in [2usize, 8, 17] {
        let sharded = render(k);
        assert_eq!(serial, sharded, "shards={k} perturbed the batch report");
    }
}
