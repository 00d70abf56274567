//! Figure 6 — comparison-runtime breakdown: the five phase timers
//! (setup / read / deserialize / compare-tree / compare-direct) across
//! chunk sizes, at a low (1e-7) and a high (1e-3) error bound.
//!
//! Expected shape (paper §3.4.2):
//!
//! * tree deserialization and tree comparison are negligible;
//! * at ε = 1e-7 the verification phase (compare-direct, which
//!   includes the scattered data reads) dominates and *shrinks* as
//!   chunks grow (better I/O pattern), levelling off near 1 MiB;
//! * at ε = 1e-3 total runtime is much shorter and flat-ish, with
//!   verification *growing* with chunk size (unnecessary data read);
//! * metadata read time falls as chunks grow (fewer hashes).

use reprocmp_bench::{
    engine_for, fmt_chunk, fmt_dur, modeled_sources, DivergenceSpec, DivergentPair, Recorder,
    CHUNK_SIZES,
};
use reprocmp_io::CostModel;

pub fn run() -> String {
    let mut rec = Recorder::new();
    let n_values = 4usize << 20; // 16 MiB checkpoint
    let pair = DivergentPair::generate(n_values, DivergenceSpec::hacc_like_late(), 0xb0b);
    let model = CostModel::lustre_pfs();

    for (panel, eps) in [("fig6a", 1e-7f64), ("fig6b", 1e-3f64)] {
        println!("\n=== Figure 6 panel {panel}: error bound {eps:e} ===");
        println!(
            "{:>8} {:>10} {:>10} {:>12} {:>13} {:>15} {:>10}",
            "chunk", "setup", "read", "deserialize", "compare-tree", "compare-direct", "total"
        );
        for &chunk in &CHUNK_SIZES {
            let engine = engine_for(chunk, eps);
            let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
            let report = engine.compare(&a, &b, &ctx).unwrap();
            let bd = report.breakdown;
            println!(
                "{:>8} {:>10} {:>10} {:>12} {:>13} {:>15} {:>10}",
                fmt_chunk(chunk),
                fmt_dur(bd.setup),
                fmt_dur(bd.read),
                fmt_dur(bd.deserialize),
                fmt_dur(bd.compare_tree),
                fmt_dur(bd.compare_direct),
                fmt_dur(bd.total()),
            );
            for (phase, dur) in bd.phases() {
                rec.push(
                    panel,
                    &[("chunk", fmt_chunk(chunk)), ("eps", format!("{eps:e}"))],
                    phase,
                    dur.as_secs_f64(),
                );
            }
            rec.push(
                panel,
                &[("chunk", fmt_chunk(chunk)), ("eps", format!("{eps:e}"))],
                "total",
                bd.total().as_secs_f64(),
            );
        }
    }

    println!("\nShape checks (paper §3.4.2): tree compare ≪ verification;");
    println!("low-ε verification shrinks with chunk size; high-ε total is far smaller.");
    rec.into_json()
}
