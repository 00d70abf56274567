//! The paper's headline scenario, end to end: two nondeterministic
//! mini-HACC runs from identical initial conditions, checkpointed
//! through the VELOC-style client at four iterations across two ranks,
//! then compared pairwise (rank × iteration) with the error-bounded
//! Merkle engine — showing *when* and *where* the runs diverged.
//!
//! ```sh
//! cargo run --release --example hacc_reproducibility
//! ```

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation, SlabDecomposition};
use reprocmp::veloc::{decode_checkpoint, read_region, Client, VelocConfig};

const RANKS: usize = 2;
const STEPS: u64 = 50;
const CAPTURE_AT: [u64; 4] = [10, 20, 30, 40];

fn simulate_and_capture(run_name: &str, order_seed: u64, client: &Client) {
    let mut cfg = HaccConfig::small();
    cfg.order = OrderPolicy::Shuffled { seed: order_seed };
    let box_size = cfg.box_size;
    let mut sim = Simulation::new(cfg);
    let decomp = SlabDecomposition::new(RANKS);

    for step in 1..=STEPS {
        sim.step();
        if CAPTURE_AT.contains(&step) {
            for rank in 0..RANKS {
                let regions = decomp.rank_regions(sim.particles(), box_size, rank);
                let borrowed: Vec<(&str, &[f32])> =
                    regions.iter().map(|(n, v)| (*n, v.as_slice())).collect();
                client
                    .checkpoint(&format!("{run_name}.rank{rank}"), step, &borrowed)
                    .expect("checkpoint capture");
            }
        }
    }
    client.wait_all().expect("background flushes");
}

fn main() {
    let base = std::env::temp_dir().join("reprocmp-example-hacc");
    std::fs::remove_dir_all(&base).ok();
    let client = Client::new(VelocConfig::rooted_at(&base)).expect("veloc client");

    println!("simulating two runs (same ICs, different execution order)…");
    simulate_and_capture("run1", 1001, &client);
    simulate_and_capture("run2", 2002, &client);

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 1024,
        error_bound: 1e-7,
        ..EngineConfig::default()
    });

    println!(
        "\n{:>5} {:>5} {:>9} {:>9} {:>10} {:>12}",
        "iter", "rank", "values", "flagged", "diffs", "max |Δ|"
    );
    for &iter in &CAPTURE_AT {
        for rank in 0..RANKS {
            let p1 = client.persistent_path(&format!("run1.rank{rank}"), iter);
            let p2 = client.persistent_path(&format!("run2.rank{rank}"), iter);
            let bytes1 = std::fs::read(&p1).expect("run1 checkpoint");
            let bytes2 = std::fs::read(&p2).expect("run2 checkpoint");
            let f1 = decode_checkpoint(&bytes1).expect("run1 header");
            let f2 = decode_checkpoint(&bytes2).expect("run2 header");

            // Diverging runs migrate particles between ranks, so slabs
            // can differ in population; compare the common prefix of
            // each field (real HACC analytics aligns by particle id —
            // see DESIGN.md).
            let mut v1 = Vec::new();
            let mut v2 = Vec::new();
            for field in reprocmp::hacc::CHECKPOINT_FIELDS {
                let a = read_region(&bytes1, &f1, field).expect("region");
                let b = read_region(&bytes2, &f2, field).expect("region");
                let common = a.len().min(b.len());
                v1.extend_from_slice(&a[..common]);
                v2.extend_from_slice(&b[..common]);
            }

            let a = CheckpointSource::in_memory(&v1, &engine).expect("source 1");
            let b = CheckpointSource::in_memory(&v2, &engine).expect("source 2");
            let report = engine.compare(&a, &b, &Ctx::default()).expect("comparison");

            let max_delta = report
                .differences
                .iter()
                .map(|d| (f64::from(d.a) - f64::from(d.b)).abs())
                .fold(0.0f64, f64::max);
            println!(
                "{:>5} {:>5} {:>9} {:>9} {:>10} {:>12.3e}",
                iter,
                rank,
                report.stats.total_values,
                report.stats.chunks_flagged,
                report.stats.diff_count,
                max_delta
            );
        }
    }

    println!("\nEarly checkpoints agree (differences below the bound);");
    println!("later ones drift — the chaotic amplification of scheduling");
    println!("nondeterminism the paper's runtime is built to catch.");
    std::fs::remove_dir_all(&base).ok();
}
