//! The paper's conclusion sketches a CI use case: "applications with a
//! defined error bound can save a Merkle tree for the expected results
//! of a test. If the method detects any differences then the
//! developers know that the code change may introduce a
//! reproducibility issue."
//!
//! This example is that gate. A *golden* run's metadata (a few percent
//! of the data size) is stored in the repository; each candidate build
//! re-runs the test and is compared against the golden tree. When the
//! trees agree, the gate passes **without reading any golden data at
//! all** — only metadata moved.
//!
//! It also gates *performance*: the stage breakdown of a known-failing
//! comparison is diffed against the committed baseline in
//! `examples/ci_baseline_breakdown.json`, and the gate fails when
//! stage-2 bytes-read regresses by more than 10 % — the early-warning
//! signal that pruning got worse or reads stopped being targeted.
//!
//! ```sh
//! cargo run --example ci_regression_gate
//! # after an intentional engine change:
//! UPDATE_BASELINE=1 cargo run --example ci_regression_gate
//! ```

use reprocmp::core::{CheckpointSource, CompareEngine, CompareReport, Ctx, EngineConfig};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation};
use reprocmp::store::ChunkStore;
use std::path::PathBuf;

/// The "application test": a short deterministic simulation whose
/// final particle x-positions are the test's observable result.
fn run_application_test(extra_kick: f32) -> Vec<f32> {
    let mut cfg = HaccConfig::small();
    cfg.particles = 1_024;
    cfg.order = OrderPolicy::Sequential;
    let mut sim = Simulation::new(cfg);
    sim.run(10);
    let mut xs = sim.particles().x.clone();
    // `extra_kick` stands in for a code change's numerical effect.
    if extra_kick != 0.0 {
        for v in xs.iter_mut().skip(100).take(8) {
            *v = (*v + extra_kick).rem_euclid(1.0);
        }
    }
    xs
}

fn gate(
    engine: &CompareEngine,
    golden: &CheckpointSource,
    candidate: &[f32],
) -> (bool, CompareReport) {
    let cand = CheckpointSource::in_memory(candidate, engine).expect("candidate source");
    let report = engine
        .compare(golden, &cand, &Ctx::default())
        .expect("gate comparison");
    let passed = if report.identical() {
        println!(
            "  PASS — trees agree; {} bytes of checkpoint data read (metadata only)",
            report.stats.bytes_reread
        );
        true
    } else {
        println!(
            "  FAIL — {} values moved beyond the bound; first offenders:",
            report.stats.diff_count
        );
        for d in report.differences.iter().take(5) {
            println!(
                "    result[{}]: golden {:.6} vs candidate {:.6}",
                d.index, d.a, d.b
            );
        }
        false
    };
    (passed, report)
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/ci_baseline_breakdown.json")
}

/// Strips wall times from a breakdown. The gate's inputs are byte- and
/// op-deterministic (sequential order, fixed geometry) but times are
/// not; a committed baseline with zeroed times makes `diff_profiles`
/// check exactly the deterministic shape (`time` checks never fire
/// from a zero baseline).
fn without_times(stages: &reprocmp::obs::StageBreakdown) -> reprocmp::obs::StageBreakdown {
    let mut s = *stages;
    for phase in [
        &mut s.quantize,
        &mut s.leaf_hash,
        &mut s.level_build,
        &mut s.bfs,
        &mut s.stage2_stream,
        &mut s.store_read,
        &mut s.verify,
    ] {
        phase.time = std::time::Duration::ZERO;
    }
    s
}

/// The performance half of the gate: the candidate comparison's stage
/// profile against the committed baseline, through the same
/// [`diff_profiles`](reprocmp::obs::diff_profiles) engine that backs
/// `reprocmp perf-diff`. Returns `false` on a >10 % regression in any
/// phase's bytes or ops (stage-2 bytes-read blowing up — pruning got
/// worse — is the canonical trigger).
fn io_budget_gate(report: &CompareReport) -> bool {
    use reprocmp::obs::{diff_profiles, ProfileBaseline};

    let current = ProfileBaseline::new(without_times(&report.stages));
    let path = baseline_path();

    if std::env::var("UPDATE_BASELINE").is_ok_and(|v| v == "1") || !path.exists() {
        let mut json = current.to_json();
        json.push('\n');
        std::fs::write(&path, &json).expect("write baseline breakdown");
        println!("  baseline profile written to {}", path.display());
        return true;
    }
    let baseline_json = std::fs::read_to_string(&path).expect("read baseline breakdown");
    // `parse` accepts both the current `ProfileBaseline` shape and the
    // bare pre-flight-recorder `StageBreakdown` files.
    let mut baseline = ProfileBaseline::parse(&baseline_json).expect("parse baseline profile");
    baseline.stages = without_times(&baseline.stages);
    let diff = diff_profiles(&baseline, &current, 0.10);
    print!("{}", indent(&diff.render()));
    if !diff.passed() {
        println!("  (UPDATE_BASELINE=1 accepts an intentional change)");
    }
    diff.passed()
}

fn indent(text: &str) -> String {
    text.lines().fold(String::new(), |mut s, line| {
        s.push_str("  ");
        s.push_str(line);
        s.push('\n');
        s
    })
}

/// The capture half of the gate: ingesting the golden result plus two
/// candidates into the content-addressed store must stay within a
/// deterministic physical-bytes budget. An identical candidate must
/// add **zero** physical bytes; a candidate whose drift is confined to
/// one chunk may add at most that chunk. A blow-up here means chunk
/// addressing or dedup regressed, even if the verdicts are still right.
fn ingest_budget_gate(
    engine: &CompareEngine,
    golden: &[f32],
    identical: &[f32],
    drifted: &[f32],
) -> bool {
    let chunk = engine.config().chunk_bytes;
    let root = std::env::temp_dir().join(format!("reprocmp-ci-gate-store-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = ChunkStore::open(&root).expect("open gate store");

    let as_bytes = |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let base = store
        .ingest("golden", 1, &[("x", &as_bytes(golden))], chunk, &[])
        .expect("ingest golden");
    let same = store
        .ingest("candidateA", 1, &[("x", &as_bytes(identical))], chunk, &[])
        .expect("ingest candidate A");
    let drift = store
        .ingest("candidateC", 1, &[("x", &as_bytes(drifted))], chunk, &[])
        .expect("ingest candidate C");
    let totals = store.stats();
    std::fs::remove_dir_all(&root).ok();

    let mut ok = true;
    if same.bytes_physical != 0 {
        println!(
            "  FAIL — identical candidate wrote {} physical bytes (must dedup to 0)",
            same.bytes_physical
        );
        ok = false;
    }
    // Candidate C's 8 drifted values live in one chunk; its ingest may
    // write at most that one chunk of new physical bytes.
    if drift.bytes_physical > chunk as u64 {
        println!(
            "  FAIL — drifted candidate wrote {} physical bytes (> one {chunk} B chunk)",
            drift.bytes_physical
        );
        ok = false;
    }
    for (who, s) in [
        ("golden", &base),
        ("candidate A", &same),
        ("candidate C", &drift),
    ] {
        if s.bytes_logical != s.bytes_physical + s.bytes_deduped {
            println!(
                "  FAIL — {who} ledger off: logical {} != physical {} + deduped {}",
                s.bytes_logical, s.bytes_physical, s.bytes_deduped
            );
            ok = false;
        }
    }
    if totals.bytes_logical != totals.bytes_physical + totals.bytes_deduped {
        println!(
            "  FAIL — store ledger off: logical {} != physical {} + deduped {}",
            totals.bytes_logical, totals.bytes_physical, totals.bytes_deduped
        );
        ok = false;
    }
    if ok {
        println!(
            "  PASS — 3 ingests: {} logical bytes, {} physical ({} deduped; \
             identical candidate added 0)",
            totals.bytes_logical, totals.bytes_physical, totals.bytes_deduped
        );
    }
    ok
}

fn main() {
    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 512,
        error_bound: 1e-4, // the application's accepted tolerance
        ..EngineConfig::default()
    });

    println!("recording golden result + Merkle metadata…");
    let golden_values = run_application_test(0.0);
    let golden = CheckpointSource::in_memory(&golden_values, &engine).expect("golden source");
    println!(
        "  golden payload {} bytes, metadata {} bytes",
        golden.payload_len,
        golden.require_metadata("golden").expect("captured").len()
    );

    println!("\ncandidate A: refactoring with no numerical effect");
    let (ok, _) = gate(&engine, &golden, &run_application_test(0.0));
    assert!(ok);

    println!("\ncandidate B: change shifts 8 results by 5e-3 (50x the bound)");
    let (ok, report_b) = gate(&engine, &golden, &run_application_test(5e-3));
    assert!(!ok);

    println!("\ncandidate C: change shifts results by 2e-5 (within the bound)");
    let (ok, _) = gate(&engine, &golden, &run_application_test(2e-5));
    assert!(ok, "sub-tolerance drift must not fail the gate");

    // Candidate B's comparison is deterministic (sequential order,
    // fixed geometry), so its stage breakdown doubles as the I/O
    // budget fixture: if the engine starts reading more than 110 % of
    // the committed stage-2 bytes for the same divergence, pruning
    // regressed and the gate says so.
    println!("\nstage-2 I/O budget (vs examples/ci_baseline_breakdown.json):");
    if !io_budget_gate(&report_b) {
        std::process::exit(1);
    }

    println!("\ncapture-store ingest budget (physical bytes per candidate):");
    if !ingest_budget_gate(
        &engine,
        &golden_values,
        &run_application_test(0.0),
        &run_application_test(2e-5),
    ) {
        std::process::exit(1);
    }

    println!("\nOK: the gate admits tolerable drift and catches regressions.");
}
