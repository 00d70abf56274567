//! Figure 8 — Merkle-tree construction cost on CPU vs GPU across
//! chunk sizes (paper: 500 M-particle checkpoint, ε = 1e-7, log-scale
//! y-axis, GPU about four orders of magnitude faster, chunk size
//! irrelevant because the hashed volume is constant).
//!
//! This repository has no GPU, so the figure is reproduced from the
//! roofline timing model: construction runs on host threads either
//! way, but each kernel is charged against the single-EPYC-core model
//! (`Device::sim_cpu_core`) or the A100 model (`Device::sim_gpu`).
//! Wall-clock times on the build host are reported alongside for
//! honesty; the CPU/GPU *ratio* comes from the models, which encode
//! published hardware numbers rather than this machine.

use reprocmp_bench::{engine_for, fmt_chunk, fmt_dur, DivergenceSpec, DivergentPair, Recorder};
use reprocmp_device::{Device, TimingModel};
use reprocmp_hash::Floats;
use reprocmp_merkle::MerkleTree;
use std::time::Instant;

pub fn run() -> String {
    let mut rec = Recorder::new();
    // 500 M-particle scale stand-in (8 MiB payload).
    let n_values = 2usize << 20;
    let pair = DivergentPair::generate(n_values, DivergenceSpec::None, 0xf18);
    let engine = engine_for(4096, 1e-7);

    println!("=== Figure 8: tree construction time, CPU vs GPU (modeled), ε = 1e-7 ===");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>14} {:>14}",
        "chunk", "CPU(model)", "GPU(model)", "ratio", "wall-serial", "wall-parallel"
    );

    for chunk in [4 << 10, 8 << 10, 16 << 10, 32 << 10] {
        let hasher = reprocmp_hash::ChunkHasher::new(*engine.quantizer());

        let cpu = Device::sim_cpu_core();
        let t0 = Instant::now();
        let (tree_cpu, stages_cpu) =
            MerkleTree::build(Floats::Values(&pair.run1), chunk, &hasher, &cpu);
        let wall_serial = t0.elapsed();
        let cpu_model = cpu.modeled_time();

        let gpu = Device::sim_gpu();
        let t0 = Instant::now();
        let (tree_gpu, stages_gpu) =
            MerkleTree::build(Floats::Values(&pair.run1), chunk, &hasher, &gpu);
        let wall_parallel = t0.elapsed();
        let gpu_model = gpu.modeled_time();

        assert_eq!(tree_cpu.root(), tree_gpu.root(), "devices must agree");
        let ratio = cpu_model.as_secs_f64() / gpu_model.as_secs_f64();
        println!(
            "{:>8} {:>14} {:>14} {:>9.0}x {:>14} {:>14}",
            fmt_chunk(chunk),
            fmt_dur(cpu_model),
            fmt_dur(gpu_model),
            ratio,
            fmt_dur(wall_serial),
            fmt_dur(wall_parallel),
        );
        rec.push(
            "fig8",
            &[("chunk", fmt_chunk(chunk)), ("device", "cpu".into())],
            "modeled_secs",
            cpu_model.as_secs_f64(),
        );
        rec.push(
            "fig8",
            &[("chunk", fmt_chunk(chunk)), ("device", "gpu".into())],
            "modeled_secs",
            gpu_model.as_secs_f64(),
        );
        rec.push(
            "fig8",
            &[("chunk", fmt_chunk(chunk))],
            "cpu_gpu_ratio",
            ratio,
        );
        // Per-phase capture breakdown for both devices (quantize /
        // leaf-hash / level-build under the respective roofline model).
        rec.push_breakdown(
            "fig8",
            &[("chunk", fmt_chunk(chunk)), ("device", "cpu".into())],
            &stages_cpu,
        );
        rec.push_breakdown(
            "fig8",
            &[("chunk", fmt_chunk(chunk)), ("device", "gpu".into())],
            &stages_gpu,
        );
    }

    // Extrapolation to the paper's 7 GB checkpoint, straight from the
    // roofline models (no memory needed): the builder's own leaf
    // kernels, quantize then hash, at that size. Level builds depend
    // on the chunk size, add under 1% on either device, and are left
    // out.
    let [quantize, hash] = MerkleTree::capture_workloads((7u64 << 30) / 4);
    let leaf_time = |m: TimingModel| m.kernel_time(quantize) + m.kernel_time(hash);
    let cpu7 = leaf_time(TimingModel::cpu_single_core());
    let gpu7 = leaf_time(TimingModel::gpu_a100());
    let ratio7 = cpu7.as_secs_f64() / gpu7.as_secs_f64();
    println!("\nExtrapolated to the paper's 7 GB checkpoint:");
    println!(
        "  CPU {} vs GPU {} — ratio {:.0}x (paper: ~4 orders of magnitude)",
        fmt_dur(cpu7),
        fmt_dur(gpu7),
        ratio7
    );
    println!("  chunk size does not change the hashed volume, so rows are flat — as in the paper.");
    rec.push("fig8", &[("scale", "7GB".into())], "cpu_gpu_ratio", ratio7);
    rec.into_json()
}
