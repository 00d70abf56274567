//! Quickstart: compare two in-memory "runs" under an error bound.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};

fn main() {
    // A 4 MiB checkpoint payload (1 Mi f32 values).
    let n = 1 << 20;
    let run1: Vec<f32> = (0..n).map(|i| (i as f32 * 1e-4).sin() * 10.0).collect();

    // Run 2 reproduces run 1 except for a handful of values: two far
    // above the bound, one just below it.
    let mut run2 = run1.clone();
    run2[123_456] += 3e-2;
    run2[900_000] -= 1e-3;
    run2[500_000] += 4e-6; // inside the bound — must NOT be reported

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 4096,
        error_bound: 1e-5,
        ..EngineConfig::default()
    });

    let a = CheckpointSource::in_memory(&run1, &engine).expect("run 1 source");
    let b = CheckpointSource::in_memory(&run2, &engine).expect("run 2 source");
    let report = engine.compare(&a, &b, &Ctx::default()).expect("comparison");

    println!(
        "checkpoint: {} values ({} bytes)",
        report.stats.total_values, report.stats.total_bytes
    );
    println!(
        "chunks: {} total, {} flagged by the Merkle stage, {} false positives",
        report.stats.chunks_total, report.stats.chunks_flagged, report.stats.false_positive_chunks
    );
    println!(
        "stage 2 re-read {} bytes ({:.3}% of the checkpoint)",
        report.stats.bytes_reread,
        100.0 * report.stats.flagged_fraction()
    );
    println!("differences above the bound: {}", report.stats.diff_count);
    for d in &report.differences {
        println!("  value[{}]: {:>12.6} vs {:>12.6}", d.index, d.a, d.b);
    }

    assert_eq!(
        report.stats.diff_count, 2,
        "exactly the two injected changes"
    );
    println!("\nOK: localized exactly the injected differences without reading the full data.");
}
