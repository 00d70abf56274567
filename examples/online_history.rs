//! The paper's first future-work feature, online comparison: run 2
//! compares itself against run 1's stored history *as it executes*,
//! reading only run 1's flagged chunks from storage and aborting early
//! when divergence explodes.
//!
//! (The second, compacting the multi-run history, is the chunk store's
//! delta chains: `reprocmp ingest --delta`.)
//!
//! ```sh
//! cargo run --release --example online_history
//! ```

use reprocmp::core::{
    CheckpointHistory, CheckpointSource, CompareEngine, EngineConfig, OnlineComparator,
    OnlinePolicy, OnlineVerdict,
};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation};

const CAPTURE_AT: [u64; 4] = [10, 20, 30, 40];

fn engine(bound: f64) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 512,
        error_bound: bound,
        ..EngineConfig::default()
    })
}

fn positions(sim: &Simulation) -> Vec<f32> {
    let p = sim.particles();
    p.x.iter().chain(&p.y).chain(&p.z).copied().collect()
}

/// Runs the simulation, returning the captured payload per iteration.
fn capture_run(order_seed: u64) -> Vec<(u64, Vec<f32>)> {
    let mut cfg = HaccConfig::small();
    cfg.particles = 2_048;
    cfg.order = OrderPolicy::Shuffled { seed: order_seed };
    let mut sim = Simulation::new(cfg);
    let mut captures = Vec::new();
    for step in 1..=*CAPTURE_AT.last().unwrap() {
        sim.step();
        if CAPTURE_AT.contains(&step) {
            captures.push((step, positions(&sim)));
        }
    }
    captures
}

fn main() {
    println!("simulating two runs (same ICs, different schedules)…");
    let run1 = capture_run(1);
    let run2 = capture_run(2);

    // ---- Online comparison: run 2 against run 1's history ---------
    let e = engine(1e-7);
    let mut reference = CheckpointHistory::new();
    for (iter, values) in &run1 {
        reference.insert(
            0,
            *iter,
            CheckpointSource::in_memory(values, &e).expect("reference source"),
        );
    }
    println!("\nonline comparison (ε = 1e-7), run 2 observing itself against run 1:");
    let mut online = OnlineComparator::new(
        e,
        reference,
        OnlinePolicy::AbortAfter {
            max_total_diffs: 10_000,
        },
    );
    for (iter, values) in &run2 {
        match online.observe(0, *iter, values).expect("observation") {
            OnlineVerdict::Clean { bytes_read } => {
                println!("  iter {iter:>2}: clean ({bytes_read} reference bytes read)");
            }
            OnlineVerdict::Diverged {
                diff_count,
                differences,
            } => {
                let first = differences.first().map_or(0, |d| d.index);
                println!(
                    "  iter {iter:>2}: DIVERGED — {diff_count} values beyond ε (first at index {first})"
                );
            }
            OnlineVerdict::Halted => println!("  iter {iter:>2}: halted by policy"),
        }
    }
    match online.first_divergence() {
        Some((iter, _)) => println!(
            "  → first divergence at iteration {iter}, caught in-flight with only {} reference bytes read",
            online.total_bytes_read()
        ),
        None => println!("  → runs agreed within ε at every captured iteration"),
    }
}
