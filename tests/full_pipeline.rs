//! End-to-end integration: simulate → capture (VELOC) → hash to
//! metadata files on disk → compare through real-file sources,
//! cross-checked against the Direct baseline.

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, Direct, EngineConfig};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation, SlabDecomposition};
use reprocmp::veloc::{decode_checkpoint, read_region, Client, VelocConfig};
use std::path::{Path, PathBuf};

const CHUNK: usize = 512;
// Below one ulp of the O(1) position scale (ulp(1.0) ≈ 6e-8 for f32),
// so single-rounding-difference drift — the scheduling noise the paper
// targets — is already above the bound. How far ulp-level noise
// amplifies in 30 steps depends on the RNG's permutation stream, so a
// looser bound would make this test a coin flip.
const BOUND: f64 = 1e-8;

fn temp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("reprocmp-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn capture_run(base: &Path, run: &str, order: OrderPolicy, steps: u64) {
    let client = Client::new(VelocConfig::rooted_at(base)).unwrap();
    let mut cfg = HaccConfig::small();
    cfg.particles = 1_024;
    cfg.order = order;
    let box_size = cfg.box_size;
    let mut sim = Simulation::new(cfg);
    let decomp = SlabDecomposition::new(2);
    for step in 1..=steps {
        sim.step();
        if step % 10 == 0 {
            for rank in 0..2 {
                let regions = decomp.rank_regions(sim.particles(), box_size, rank);
                let borrowed: Vec<(&str, &[f32])> =
                    regions.iter().map(|(n, v)| (*n, v.as_slice())).collect();
                client
                    .checkpoint(&format!("{run}.rank{rank}"), step, &borrowed)
                    .unwrap();
            }
        }
    }
    client.wait_all().unwrap();
}

/// Loads one captured checkpoint's fields, aligned to a common prefix
/// per field with its cross-run partner.
fn aligned_values(bytes1: &[u8], bytes2: &[u8]) -> (Vec<f32>, Vec<f32>) {
    let f1 = decode_checkpoint(bytes1).unwrap();
    let f2 = decode_checkpoint(bytes2).unwrap();
    let mut v1 = Vec::new();
    let mut v2 = Vec::new();
    for field in reprocmp::hacc::CHECKPOINT_FIELDS {
        let a = read_region(bytes1, &f1, field).unwrap();
        let b = read_region(bytes2, &f2, field).unwrap();
        let common = a.len().min(b.len());
        v1.extend_from_slice(&a[..common]);
        v2.extend_from_slice(&b[..common]);
    }
    (v1, v2)
}

#[test]
fn full_pipeline_from_simulation_to_verdict() {
    let base = temp("pipeline");
    capture_run(&base, "run1", OrderPolicy::Shuffled { seed: 10 }, 30);
    capture_run(&base, "run2", OrderPolicy::Shuffled { seed: 20 }, 30);

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: BOUND,
        ..EngineConfig::default()
    });
    let direct = Direct::new(BOUND).unwrap();
    let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();

    let mut any_diffs = 0u64;
    for iter in [10u64, 20, 30] {
        for rank in 0..2usize {
            let b1 =
                std::fs::read(client.persistent_path(&format!("run1.rank{rank}"), iter)).unwrap();
            let b2 =
                std::fs::read(client.persistent_path(&format!("run2.rank{rank}"), iter)).unwrap();
            let (v1, v2) = aligned_values(&b1, &b2);

            let a = CheckpointSource::in_memory(&v1, &engine).unwrap();
            let b = CheckpointSource::in_memory(&v2, &engine).unwrap();
            let ours = engine.compare(&a, &b, &Ctx::default()).unwrap();
            let theirs = direct.compare(&a, &b, &Ctx::default()).unwrap();

            // The headline correctness property: our method finds
            // exactly what exhaustive comparison finds.
            assert_eq!(
                ours.stats.diff_count, theirs.stats.diff_count,
                "iter {iter} rank {rank}"
            );
            let oi: Vec<u64> = ours.differences.iter().map(|d| d.index).collect();
            let ti: Vec<u64> = theirs.differences.iter().map(|d| d.index).collect();
            assert_eq!(oi, ti, "difference locations must agree");

            // And it must do so while reading less data.
            assert!(ours.stats.bytes_reread <= theirs.stats.bytes_reread);
            any_diffs += ours.stats.diff_count;
        }
    }
    // Two shuffled runs over 30 steps should have drifted somewhere.
    assert!(
        any_diffs > 0,
        "no divergence found in a nondeterministic pair"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn deterministic_runs_reproduce_bitwise_through_the_whole_stack() {
    let base = temp("deterministic");
    capture_run(&base, "run1", OrderPolicy::Sequential, 20);
    capture_run(&base, "run2", OrderPolicy::Sequential, 20);

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: 1e-12, // essentially bitwise
        ..EngineConfig::default()
    });
    let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
    for iter in [10u64, 20] {
        for rank in 0..2usize {
            let b1 =
                std::fs::read(client.persistent_path(&format!("run1.rank{rank}"), iter)).unwrap();
            let b2 =
                std::fs::read(client.persistent_path(&format!("run2.rank{rank}"), iter)).unwrap();
            let (v1, v2) = aligned_values(&b1, &b2);
            assert_eq!(v1, v2, "sequential runs must be bitwise identical");
            let a = CheckpointSource::in_memory(&v1, &engine).unwrap();
            let b = CheckpointSource::in_memory(&v2, &engine).unwrap();
            let report = engine.compare(&a, &b, &Ctx::default()).unwrap();
            assert!(report.identical());
            assert_eq!(
                report.stats.chunks_flagged, 0,
                "identical data flags nothing"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn compare_through_real_files_on_disk() {
    let base = temp("files");
    // Two raw payload files + their metadata files.
    let values: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.003).cos()).collect();
    let mut tweaked = values.clone();
    tweaked[15_000] += 0.25;

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 1024,
        error_bound: 1e-5,
        ..EngineConfig::default()
    });

    let write_pair = |name: &str, vals: &[f32]| -> (PathBuf, PathBuf) {
        let data_path = base.join(format!("{name}.f32"));
        let meta_path = base.join(format!("{name}.tree"));
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&data_path, &bytes).unwrap();
        std::fs::write(&meta_path, engine.encode_metadata(vals)).unwrap();
        (data_path, meta_path)
    };

    let (d1, m1) = write_pair("run1", &values);
    let (d2, m2) = write_pair("run2", &tweaked);

    let a = CheckpointSource::from_files(&d1, 0, 80_000, &m1).unwrap();
    let b = CheckpointSource::from_files(&d2, 0, 80_000, &m2).unwrap();
    let report = engine.compare(&a, &b, &Ctx::default()).unwrap();

    assert_eq!(report.stats.diff_count, 1);
    assert_eq!(report.differences[0].index, 15_000);
    // One 1 KiB chunk re-read out of ~79.
    assert_eq!(report.stats.chunks_flagged, 1);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn restart_resumes_a_simulation_state() {
    let base = temp("restart");
    let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
    let mut cfg = HaccConfig::small();
    cfg.particles = 256;
    let mut sim = Simulation::new(cfg);
    sim.run(5);
    let p = sim.particles();
    client
        .checkpoint(
            "state",
            5,
            &[("x", p.x.as_slice()), ("vx", p.vx.as_slice())],
        )
        .unwrap();
    client.wait_all().unwrap();

    let (ver, regions) = client.restart_latest("state").unwrap().unwrap();
    assert_eq!(ver, 5);
    assert_eq!(regions["x"], sim.particles().x);
    assert_eq!(regions["vx"], sim.particles().vx);
    std::fs::remove_dir_all(&base).ok();
}
