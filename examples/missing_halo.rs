//! The paper's Figure 1, reproduced end to end: two runs of the same
//! cosmological simulation from the same initial conditions disagree
//! about whether a galactic halo exists.
//!
//! Tiny scheduling-order divergence (bitwise noise in force sums) is
//! amplified by chaotic dynamics until a marginal friends-of-friends
//! group crosses the membership threshold in one run and not the
//! other — a categorical scientific difference born from sub-ε
//! numerics. The checkpoint comparator is the tool that catches the
//! drift *early*, before it becomes a missing halo.
//!
//! ```sh
//! cargo run --release --example missing_halo
//! ```

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::hacc::halo::halo_census;
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation};

const STEPS: u64 = 300;
const LINKING_LENGTH: f32 = 0.02;
const MIN_MEMBERS: usize = 12;

fn run(order_seed: u64) -> Simulation {
    let mut cfg = HaccConfig::small();
    cfg.particles = 4_096;
    cfg.order = OrderPolicy::Shuffled { seed: order_seed };
    let mut sim = Simulation::new(cfg);
    sim.run(STEPS);
    sim
}

fn main() {
    println!("running two simulations: same initial conditions, different execution order…");
    let run1 = run(1);
    let run2 = run(2);
    let box_size = run1.config().box_size;

    let census1 = halo_census(run1.particles(), box_size, LINKING_LENGTH, MIN_MEMBERS);
    let census2 = halo_census(run2.particles(), box_size, LINKING_LENGTH, MIN_MEMBERS);
    println!("\nafter {STEPS} iterations:");
    println!(
        "  run 1: {} halos, largest {:?}",
        census1.count, census1.top_sizes
    );
    println!(
        "  run 2: {} halos, largest {:?}",
        census2.count, census2.top_sizes
    );
    if census1 != census2 {
        println!("  → the science result DIFFERS between runs: the halo catalogs do not");
        println!("    match (the Figure 1 scenario — same inputs, different universe).");
    } else {
        println!("  → censuses agree this time; the drift below is how close it came.");
    }

    // What the comparator would have reported from the checkpoints,
    // at a tolerance an unaware scientist might accept (1e-6) and at
    // one tight enough to expose the drift (1e-8).
    println!("\ncheckpoint comparison of the final particle positions:");
    for bound in [1e-4f64, 1e-6, 1e-8] {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 1024,
            error_bound: bound,
            ..EngineConfig::default()
        });
        let fields1: Vec<f32> = run1
            .particles()
            .x
            .iter()
            .chain(&run1.particles().y)
            .chain(&run1.particles().z)
            .copied()
            .collect();
        let fields2: Vec<f32> = run2
            .particles()
            .x
            .iter()
            .chain(&run2.particles().y)
            .chain(&run2.particles().z)
            .copied()
            .collect();
        let a = CheckpointSource::in_memory(&fields1, &engine).expect("run 1 source");
        let b = CheckpointSource::in_memory(&fields2, &engine).expect("run 2 source");
        let report = engine.compare(&a, &b, &Ctx::default()).expect("comparison");
        println!(
            "  ε = {bound:>5.0e}: {:>6} positions beyond the bound ({} of {} chunks flagged)",
            report.stats.diff_count, report.stats.chunks_flagged, report.stats.chunks_total
        );
    }

    println!("\nThe runs' positions already disagree at tight bounds even when the halo");
    println!("census happens to survive — intermediate-result comparison sees the hazard");
    println!("iterations before the halo count flips.");
}
