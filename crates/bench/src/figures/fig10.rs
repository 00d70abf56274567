//! Figure 10 — strong scaling: total throughput and runtime of
//! comparing a fixed set of checkpoint pairs as the process count
//! grows 16 → 128 (four per node), for Our Method vs Direct, at
//! ε = 1e-7 (worst case) and ε = 1e-3 (best case).
//!
//! Expected shape (paper §3.4.6): both methods scale near-perfectly
//! (≈1.9× per process doubling); ours stays above Direct everywhere —
//! ≥1.6× at 1e-7, up to 4.6× at 1e-3.
//!
//! Scaled setup: 128 checkpoint pairs of 1 MiB each (the paper used
//! 1024 pairs of 4.4 GB). Ranks on one node share that node's PFS
//! link (one virtual clock per node); nodes proceed independently.
//! Total runtime is the slowest node's clock.

use reprocmp_bench::{
    modeled_source, sim_ctx, throughput_gbps, DivergenceSpec, DivergentPair, Recorder,
};
use reprocmp_cluster::Cluster;
use reprocmp_core::{CompareEngine, Direct, EngineConfig};
use reprocmp_io::CostModel;
use std::time::Duration;

const TOTAL_PAIRS: usize = 128;
const PAIR_VALUES: usize = 1 << 18; // 1 MiB per checkpoint

/// Runs all pairs over `procs` ranks (4 per node) with our method or
/// Direct; returns (total runtime = slowest node, aggregate GB/s).
fn run_config(ours: bool, eps: f64, procs: usize) -> (Duration, f64) {
    let nodes = procs / 4;
    let cluster = Cluster::new(nodes, 4);
    let node_times = cluster.run(move |ctx| {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 16 << 10,
            error_bound: eps,
            ..EngineConfig::default()
        });
        let direct = Direct::new(eps).unwrap();
        let clock = ctx.node_clock();
        // Static cyclic distribution of pairs over ranks. Cluster
        // length is kept well under the pair size so per-pair flagged
        // fractions concentrate (long clusters would make 1 MiB pairs
        // wildly uneven and turn the scaling study into a
        // load-imbalance study).
        let spec = DivergenceSpec::Clustered {
            tier_probs: [0.04, 0.05, 0.07, 0.09, 0.24, 0.06],
            persistence: 0.9,
            segment_values: 1024,
            per_value_prob: 1.0 / 256.0,
        };
        let mut p = ctx.rank();
        while p < TOTAL_PAIRS {
            let pair = DivergentPair::generate(PAIR_VALUES, spec, 42 + p as u64);
            let a = modeled_source(&pair.run1, &engine, CostModel::lustre_pfs(), &clock);
            let b = modeled_source(&pair.run2, &engine, CostModel::lustre_pfs(), &clock);
            let sim = sim_ctx(&clock);
            if ours {
                engine.compare(&a, &b, &sim).unwrap();
            } else {
                direct.compare(&a, &b, &sim).unwrap();
            }
            p += ctx.size();
        }
        ctx.barrier();
        clock.now()
    });
    let total = node_times.into_iter().max().unwrap_or_default();
    let bytes = (TOTAL_PAIRS * PAIR_VALUES * 4 * 2) as u64;
    (total, throughput_gbps(bytes, total))
}

pub fn run() -> String {
    let mut rec = Recorder::new();
    for (panel, eps) in [("fig10a", 1e-7f64), ("fig10b", 1e-3f64)] {
        println!("\n=== Figure 10 panel {panel}: ε = {eps:e}, {TOTAL_PAIRS} checkpoint pairs ===");
        println!(
            "{:>6} {:>14} {:>12} {:>14} {:>12} {:>9}",
            "procs", "direct-time", "direct-GB/s", "ours-time", "ours-GB/s", "speedup"
        );
        let mut prev_ours: Option<f64> = None;
        for procs in [16usize, 32, 64, 128] {
            let (dt, dagg) = run_config(false, eps, procs);
            let (ot, oagg) = run_config(true, eps, procs);
            let speedup = dt.as_secs_f64() / ot.as_secs_f64();
            println!(
                "{:>6} {:>13.2?} {:>12.2} {:>13.2?} {:>12.2} {:>8.1}x",
                procs, dt, dagg, ot, oagg, speedup
            );
            for (method, t) in [("direct", dt), ("ours", ot)] {
                let params = [("procs", procs.to_string()), ("method", method.into())];
                rec.push(panel, &params, "runtime_secs", t.as_secs_f64());
            }
            rec.push(panel, &[("procs", procs.to_string())], "speedup", speedup);
            assert!(speedup >= 1.0, "ours must not lose to direct");
            if let Some(prev) = prev_ours {
                let scaling = prev / ot.as_secs_f64();
                println!("{:>6} scaling vs previous: {scaling:.2}x per doubling", "");
                rec.push(
                    panel,
                    &[("procs", procs.to_string())],
                    "scaling_per_doubling",
                    scaling,
                );
            }
            prev_ours = Some(ot.as_secs_f64());
        }
    }
    println!("\npaper: near-perfect scaling (~1.9x per doubling); ours ≥1.6x at 1e-7, up to 4.6x at 1e-3.");
    rec.into_json()
}
