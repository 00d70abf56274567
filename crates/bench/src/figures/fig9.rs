//! Figure 9 — comparison time of the mmap vs io_uring I/O backends
//! for scattered stage-two reads (paper: 500 M particles, ε = 1e-7,
//! eight processes, chunk sizes 4–16 KiB; io_uring is >3× faster with
//! visibly less variance, and mmap's cost scales with the data
//! volume).
//!
//! Eight simulated ranks (2 nodes × 4) each compare one checkpoint
//! pair through the full engine, with stage two streaming through
//! either the mmap-style or the uring-style backend. Per-rank modeled
//! times give the mean and spread.

use reprocmp_bench::{
    fmt_chunk, fmt_dur, modeled_sources, DivergenceSpec, DivergentPair, Recorder,
};
use reprocmp_cluster::Cluster;
use reprocmp_core::{CompareEngine, EngineConfig};
use reprocmp_io::pipeline::{BackendKind, PipelineConfig};
use reprocmp_io::CostModel;
use std::time::Duration;

fn run_backend(backend: BackendKind, chunk: usize) -> Vec<Duration> {
    let cluster = Cluster::new(2, 4);
    cluster.run(move |ctx| {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: chunk,
            error_bound: 1e-7,
            io: PipelineConfig {
                backend,
                ..PipelineConfig::default()
            },
            ..EngineConfig::default()
        });
        // One pair per rank; rank-specific divergence. Each rank gets
        // its own clock: the paper reports per-process times.
        let pair = DivergentPair::generate(
            1 << 20,
            DivergenceSpec::hacc_like_late(),
            0x919 + ctx.rank() as u64,
        );
        let (a, b, sim, _) = modeled_sources(&pair, &engine, CostModel::lustre_pfs());
        engine.compare(&a, &b, &sim).unwrap().breakdown.total()
    })
}

fn stats(times: &[Duration]) -> (Duration, Duration) {
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    let var = times
        .iter()
        .map(|t| (t.as_secs_f64() - mean.as_secs_f64()).powi(2))
        .sum::<f64>()
        / times.len() as f64;
    (mean, Duration::from_secs_f64(var.sqrt()))
}

pub fn run() -> String {
    let mut rec = Recorder::new();
    println!("=== Figure 9: scattered-I/O backend, 8 processes, ε = 1e-7 ===");
    println!(
        "{:>8} {:>14} {:>12} {:>14} {:>12} {:>12}",
        "chunk", "mmap(mean)", "mmap(std)", "uring(mean)", "uring(std)", "mmap/uring"
    );
    for chunk in [4 << 10, 8 << 10, 16 << 10] {
        let t_mmap = run_backend(BackendKind::Mmap, chunk);
        let t_uring = run_backend(BackendKind::Uring, chunk);
        let (m_mean, m_std) = stats(&t_mmap);
        let (u_mean, u_std) = stats(&t_uring);
        let speedup = m_mean.as_secs_f64() / u_mean.as_secs_f64();
        println!(
            "{:>8} {:>14} {:>12} {:>14} {:>12} {:>11.1}x",
            fmt_chunk(chunk),
            fmt_dur(m_mean),
            fmt_dur(m_std),
            fmt_dur(u_mean),
            fmt_dur(u_std),
            speedup,
        );
        for (backend, mean) in [("mmap", m_mean), ("uring", u_mean)] {
            let params = [("chunk", fmt_chunk(chunk)), ("backend", backend.into())];
            rec.push("fig9", &params, "mean_secs", mean.as_secs_f64());
        }
        rec.push(
            "fig9",
            &[("chunk", fmt_chunk(chunk))],
            "mmap_over_uring",
            speedup,
        );
        assert!(
            speedup > 3.0,
            "io_uring should be >3x faster (got {speedup:.1}x)"
        );
    }
    println!("\npaper: io_uring over 3x faster than mmap, with less variance.");
    rec.into_json()
}
