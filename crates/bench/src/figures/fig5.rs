//! Figure 5 — comparison throughput: AllClose vs Direct vs Our Method
//! across chunk sizes and error bounds, for three checkpoint sizes.
//!
//! Paper setup: HACC checkpoints of 7 / 14 / 28 GB (0.5 / 1 / 2 B
//! particles) on two Polaris nodes against Lustre. Here: the same grid
//! over scaled checkpoints (8 / 16 / 32 MiB) on the simulated PFS with
//! deterministic virtual time. Expected shape (paper §3.4.1):
//!
//! * AllClose plateaus lowest, Direct higher, both flat across ε;
//! * our method beats Direct everywhere, most at large ε (up to ~11×);
//! * at tight ε small chunks suffer from scattered I/O, larger chunks
//!   recover throughput; at loose ε small chunks win slightly.

use reprocmp_bench::{
    engine_for, fmt_chunk, modeled_sources, throughput_gbps, DivergenceSpec, DivergentPair,
    Recorder, CHUNK_SIZES, ERROR_BOUNDS,
};
use reprocmp_core::{AllClose, Direct};
use reprocmp_io::CostModel;

pub fn run() -> String {
    let mut rec = Recorder::new();
    // (panel, label, values) — scaled stand-ins for 0.5/1/2 B particles.
    let sizes = [
        (
            "fig5a",
            "500M-particle scale (8 MiB/checkpoint)",
            2usize << 20,
        ),
        (
            "fig5b",
            "1B-particle scale (16 MiB/checkpoint)",
            4usize << 20,
        ),
        (
            "fig5c",
            "2B-particle scale (32 MiB/checkpoint)",
            8usize << 20,
        ),
    ];
    let model = CostModel::lustre_pfs();
    let mut global_best_speedup: f64 = 0.0;

    for (panel, label, n_values) in sizes {
        println!("\n=== Figure 5 panel {panel}: {label} ===");
        let pair = DivergentPair::generate(n_values, DivergenceSpec::hacc_like(), 0x5eed);
        let both = 2 * pair.bytes();

        // Header.
        print!("{:>10} {:>9} {:>9} |", "eps", "AllClose", "Direct");
        for &chunk in &CHUNK_SIZES {
            print!(" {:>7}", fmt_chunk(chunk));
        }
        println!("   (Our Method by chunk size, GB/s)");

        for &eps in &ERROR_BOUNDS {
            // Baselines are chunk-independent: measure once per ε.
            let engine = engine_for(4096, eps);
            let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
            let t0 = ctx.timeline.now();
            let _ = AllClose::new(eps).unwrap().compare(&a, &b, &ctx).unwrap();
            let t_allclose = ctx.timeline.now() - t0;

            let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
            let t0 = ctx.timeline.now();
            let _ = Direct::new(eps).unwrap().compare(&a, &b, &ctx).unwrap();
            let t_direct = ctx.timeline.now() - t0;

            let gb_allclose = throughput_gbps(both, t_allclose);
            let gb_direct = throughput_gbps(both, t_direct);
            print!("{:>10.0e} {:>9.2} {:>9.2} |", eps, gb_allclose, gb_direct);
            for (method, gbps) in [("allclose", gb_allclose), ("direct", gb_direct)] {
                let params = [("eps", format!("{eps:e}")), ("method", method.into())];
                rec.push(panel, &params, "throughput_gbps", gbps);
            }

            for &chunk in &CHUNK_SIZES {
                let engine = engine_for(chunk, eps);
                let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
                let t0 = ctx.timeline.now();
                let report = engine.compare(&a, &b, &ctx).unwrap();
                let t_ours = report.breakdown.total().max(ctx.timeline.now() - t0);
                let gb_ours = throughput_gbps(both, t_ours);
                print!(" {:>7.2}", gb_ours);
                rec.push(
                    panel,
                    &[
                        ("eps", format!("{eps:e}")),
                        ("method", "ours".into()),
                        ("chunk", fmt_chunk(chunk)),
                    ],
                    "throughput_gbps",
                    gb_ours,
                );
                global_best_speedup = global_best_speedup.max(gb_ours / gb_direct);
            }
            println!();
        }
    }

    println!("\nSummary (paper §3.4.1 claims):");
    println!(
        "  max speedup of Our Method over Direct: {global_best_speedup:.1}x  (paper: up to 11x)"
    );
    rec.push("fig5", &[], "max_speedup_vs_direct", global_best_speedup);
    rec.into_json()
}
