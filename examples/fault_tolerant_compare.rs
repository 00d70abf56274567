//! Resilient comparison on unreliable storage: transient faults heal
//! through retries with zero report impact, and permanent faults
//! degrade gracefully — under the `Quarantine` policy the engine skips
//! unreadable chunks, reports them as `unverified` ranges, and still
//! delivers an exact verdict for everything it could read.
//!
//! ```sh
//! cargo run --example fault_tolerant_compare
//! ```

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig, FailurePolicy};
use reprocmp::io::{FaultPlan, FaultyStorage, RetryPolicy};
use std::sync::Arc;

fn sources(e: &CompareEngine, n: usize) -> (CheckpointSource, CheckpointSource) {
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut data2 = data.clone();
    for k in (0..n).step_by(97) {
        data2[k] += 1.0;
    }
    let a = CheckpointSource::in_memory(&data, e).unwrap();
    let b = CheckpointSource::in_memory(&data2, e).unwrap();
    (a, b)
}

fn main() {
    let n = 100_000;

    // --- Scenario 1: a transient outage, healed by retries. ---------
    // The first five reads fail with a retryable error (think: a
    // congested OST briefly refusing connections). A retry budget of
    // eight attempts per op rides it out; the report is unaffected.
    let e = CompareEngine::new(EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-5,
        io: reprocmp::io::PipelineConfig {
            retry: RetryPolicy::with_attempts(8),
            ..reprocmp::io::PipelineConfig::default()
        },
        ..EngineConfig::default()
    });
    let (a, mut b) = sources(&e, n);
    let faulty = Arc::new(FaultyStorage::new(
        Arc::clone(&b.data),
        FaultPlan::FirstN { n: 5 },
    ));
    b.data = faulty.clone();
    let report = e
        .compare(&a, &b, &Ctx::default())
        .expect("retries heal transient faults");
    println!("scenario 1: transient outage, retry budget 8");
    println!(
        "  injected faults: {}, retried ops: {}, gave up: {}",
        faulty.injected_faults(),
        report.io.retried,
        report.io.gave_up
    );
    println!(
        "  fully verified: {}, differences: {}",
        report.fully_verified(),
        report.stats.diff_count
    );
    assert!(report.fully_verified());
    assert_eq!(report.io.gave_up, 0);

    // --- Scenario 2: a bad sector, quarantined. ---------------------
    // Bytes 0..512 are permanently unreadable. Under the default Abort
    // policy the comparison fails; under Quarantine it reports every
    // difference outside the bad sector and lists the chunks it could
    // not vouch for.
    let e = CompareEngine::new(EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-5,
        failure_policy: FailurePolicy::Quarantine,
        ..EngineConfig::default()
    });
    let (a, mut b) = sources(&e, n);
    b.data = Arc::new(FaultyStorage::new(
        Arc::clone(&b.data),
        FaultPlan::Range { start: 0, end: 512 },
    ));
    let report = e
        .compare(&a, &b, &Ctx::default())
        .expect("quarantine degrades gracefully");
    println!("\nscenario 2: permanent bad sector at bytes 0..512, Quarantine policy");
    println!(
        "  differences found: {}, unverified chunks: {} in {} range(s)",
        report.stats.diff_count,
        report.unverified_chunks(),
        report.unverified.len()
    );
    for r in &report.unverified {
        println!("  quarantined chunks {}..{}", r.first, r.first + r.count);
    }
    assert!(!report.fully_verified());
    assert!(report.stats.diff_count > 0);

    println!("\nOK: transient faults are invisible, permanent faults are exact.");
}
