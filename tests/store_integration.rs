//! End-to-end integration of the persistent capture store: HACC runs
//! captured through the VELOC client flush into content-addressed
//! packs, repeat runs of the same workload dedup to near-zero physical
//! growth with an exact byte ledger, and the comparison engine reads
//! checkpoints straight back out of the store with verdicts identical
//! to the in-memory path.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::hacc::{HaccConfig, Simulation, SlabDecomposition};
use reprocmp::store::ChunkStore;
use reprocmp::veloc::client::{Client, VelocConfig};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "reprocmp-store-integration-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 512,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

/// Captures one deterministic mini-HACC run through the VELOC client
/// into `store`, checkpointing every `interval` steps.
fn capture_run(store: &Arc<ChunkStore>, base: &Path, run_name: &str, steps: u64) {
    let mut cfg = HaccConfig::small();
    cfg.particles = 512;
    let box_size = cfg.box_size;
    let mut sim = Simulation::new(cfg);
    let decomp = SlabDecomposition::new(1);
    let client = Client::new(VelocConfig {
        store: Some(Arc::clone(store)),
        store_chunk_bytes: 512,
        ..VelocConfig::rooted_at(base)
    })
    .expect("client");
    for step in 1..=steps {
        sim.step();
        if step % 5 == 0 {
            let regions = decomp.rank_regions(sim.particles(), box_size, 0);
            let borrowed: Vec<(&str, &[f32])> =
                regions.iter().map(|(n, v)| (*n, v.as_slice())).collect();
            let name = format!("{run_name}.rank0");
            client
                .checkpoint(&name, step, &borrowed)
                .expect("checkpoint");
        }
    }
    client.wait_all().expect("flush");
}

/// N runs of the same (deterministic) workload must store strictly
/// fewer physical bytes than N x the raw capture volume, and the
/// logical = physical + deduped ledger must balance exactly.
#[test]
fn repeat_runs_dedup_with_an_exact_ledger() {
    let root = temp_root("dedup");
    let store_root = root.join("store");
    let store = Arc::new(ChunkStore::open(&store_root).expect("open store"));

    capture_run(&store, &root.join("veloc1"), "run1", 15);
    let after_first = store.stats();
    assert!(after_first.bytes_physical > 0, "first run stored nothing");

    // The same deterministic workload twice more, under new run names:
    // every chunk is content-identical, so physical growth stays zero.
    capture_run(&store, &root.join("veloc2"), "run2", 15);
    capture_run(&store, &root.join("veloc3"), "run3", 15);
    let stats = store.stats();

    assert_eq!(stats.objects, 9, "3 runs x 3 checkpoints");
    assert_eq!(
        stats.bytes_logical,
        3 * after_first.bytes_logical,
        "each run captures the same logical volume"
    );
    assert_eq!(
        stats.bytes_physical, after_first.bytes_physical,
        "repeat runs must not grow the packs"
    );
    assert!(
        stats.bytes_physical < stats.bytes_logical,
        "N runs must store strictly less than N x raw"
    );
    // The ledger is exact, not approximate.
    assert_eq!(
        stats.bytes_logical,
        stats.bytes_physical + stats.bytes_deduped,
        "logical = physical + deduped"
    );

    // Reopening from disk sees the same ledger (the counts are
    // reconstructed from packs + manifests, not carried in memory).
    drop(store);
    let reopened = ChunkStore::open(&store_root).expect("reopen");
    assert_eq!(reopened.stats(), stats);
    std::fs::remove_dir_all(&root).ok();
}

/// The golden scenario generator from `golden_reports.rs`: a fixed
/// seed drives a divergent pair with perturbations straddling the
/// 1e-5 bound.
fn golden_pair(seed: u64, n: usize, perturb_prob: f64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run1 = Vec::with_capacity(n);
    for _ in 0..n {
        run1.push(rng.gen_range(-2.0f32..2.0));
    }
    let mut run2 = run1.clone();
    if perturb_prob > 0.0 {
        const TIERS: [f64; 4] = [1e-3, 1e-4, 1e-6, 1e-7];
        for v in run2.iter_mut() {
            if rng.gen_bool(perturb_prob) {
                let u: f64 = rng.gen();
                let mag = TIERS[((u * 4.0) as usize).min(3)];
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                *v += (mag * sign) as f32;
            }
        }
    }
    (run1, run2)
}

fn payload_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Store-backed comparisons must agree with the in-memory path on
/// every deterministic report field (verdicts, localized differences,
/// I/O counts); only the wall-clock stage timings and the additive
/// `store` read ledger may differ.
#[test]
fn store_backed_reports_match_in_memory_on_golden_seeds() {
    let root = temp_root("golden");
    let store = ChunkStore::open(&root).expect("open store");
    let e = engine();
    let chunk = e.config().chunk_bytes;

    for (seed, perturb) in [(1u64, 0.002), (2, 0.01), (3, 0.0)] {
        let (run1, run2) = golden_pair(seed, 16 << 10, perturb);
        let n1 = format!("seed{seed}.run1");
        let n2 = format!("seed{seed}.run2");
        store
            .ingest(&n1, 1, &[("payload", &payload_bytes(&run1))], chunk, &[])
            .expect("ingest run1");
        store
            .ingest(&n2, 1, &[("payload", &payload_bytes(&run2))], chunk, &[])
            .expect("ingest run2");

        let sa = CheckpointSource::from_store(&store, &n1, 1, &e).expect("source a");
        let sb = CheckpointSource::from_store(&store, &n2, 1, &e).expect("source b");
        let stored = e
            .compare(&sa, &sb, &Ctx::default())
            .expect("store-backed compare");

        let ma = CheckpointSource::in_memory(&run1, &e).expect("mem a");
        let mb = CheckpointSource::in_memory(&run2, &e).expect("mem b");
        let mem = e
            .compare(&ma, &mb, &Ctx::default())
            .expect("in-memory compare");

        assert_eq!(stored.stats, mem.stats, "seed {seed}: verdict drifted");
        assert_eq!(
            stored.differences, mem.differences,
            "seed {seed}: localization drifted"
        );
        assert_eq!(stored.unverified, mem.unverified, "seed {seed}");
        assert_eq!(stored.identical(), mem.identical(), "seed {seed}");
        // The store ledger is the only addition: live on the store
        // side, all-zero in memory.
        assert!(mem.store.is_zero(), "seed {seed}");
        if stored.stats.chunks_flagged > 0 {
            assert!(stored.store.bytes_read > 0, "seed {seed}: no store reads");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Scrub must catch a single flipped bit in a pack file.
#[test]
fn scrub_detects_injected_pack_corruption() {
    let root = temp_root("scrub");
    let store = ChunkStore::open(&root).expect("open store");
    let values: Vec<f32> = (0..4096).map(|i| i as f32 * 0.125).collect();
    store
        .ingest(
            "victim",
            1,
            &[("payload", &payload_bytes(&values))],
            512,
            &[],
        )
        .expect("ingest");
    assert!(store.scrub().expect("scrub").is_clean());

    let pack = std::fs::read_dir(root.join("packs"))
        .expect("packs dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "pack"))
        .expect("a pack file");
    let mut bytes = std::fs::read(&pack).expect("read pack");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&pack, &bytes).expect("write corrupted pack");

    let report = store.scrub().expect("scrub runs");
    assert_eq!(report.failures.len(), 1, "exactly one chunk is damaged");
    assert_ne!(report.failures[0].expected, report.failures[0].actual);
    std::fs::remove_dir_all(&root).ok();
}
