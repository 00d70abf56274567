//! Figure 7 — effectiveness of the error-bounded hash: (a) percentage
//! of checkpoint data flagged for re-reading and (b) false-positive
//! rate, per chunk size and error bound.
//!
//! Expected shape (paper §3.4.3):
//!
//! * flagged percentage grows with chunk size (sub-linearly: adjacent
//!   changes coalesce) and shrinks as ε grows;
//! * zero false *negatives* always (checked here against brute force);
//! * false-positive rate is small, larger for small ε (more sub-bound
//!   noise straddling grid boundaries within surviving chunks).

use reprocmp_bench::{
    engine_for, fmt_chunk, modeled_sources, DivergenceSpec, DivergentPair, Recorder, CHUNK_SIZES,
    ERROR_BOUNDS,
};
use reprocmp_io::CostModel;

pub fn run() -> String {
    let mut rec = Recorder::new();
    // 2 B-particle scale stand-in: 32 MiB payload.
    let n_values = 8usize << 20;
    let pair = DivergentPair::generate(n_values, DivergenceSpec::hacc_like_late(), 0x717);
    let model = CostModel::free(); // accuracy study, time is irrelevant

    println!("=== Figure 7a: % of checkpoint data flagged as potentially changed ===");
    print!("{:>10} |", "eps");
    for &chunk in &CHUNK_SIZES {
        print!(" {:>7}", fmt_chunk(chunk));
    }
    println!();
    let mut flagged_tbl = Vec::new();
    for &eps in &ERROR_BOUNDS {
        print!("{:>10.0e} |", eps);
        let mut row = Vec::new();
        for &chunk in &CHUNK_SIZES {
            let engine = engine_for(chunk, eps);
            let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
            let report = engine.compare(&a, &b, &ctx).unwrap();
            let pct = 100.0 * report.stats.flagged_fraction();
            print!(" {pct:>6.1}%");
            rec.push(
                "fig7a",
                &[("eps", format!("{eps:e}")), ("chunk", fmt_chunk(chunk))],
                "flagged_pct",
                pct,
            );
            row.push((report, pct));
        }
        println!();
        flagged_tbl.push((eps, row));
    }

    println!("\n=== Figure 7b: false positive rate (flagged-but-clean chunks / all chunks) ===");
    print!("{:>10} |", "eps");
    for &chunk in &CHUNK_SIZES {
        print!(" {:>7}", fmt_chunk(chunk));
    }
    println!();
    for (eps, row) in &flagged_tbl {
        print!("{:>10.0e} |", eps);
        for ((report, _), &chunk) in row.iter().zip(&CHUNK_SIZES) {
            let rate = report.stats.false_positive_rate();
            print!(" {rate:>7.4}");
            rec.push(
                "fig7b",
                &[("eps", format!("{eps:e}")), ("chunk", fmt_chunk(chunk))],
                "false_positive_rate",
                rate,
            );
        }
        println!();
    }

    // Zero-false-negative audit against brute force, per ε.
    println!("\n=== Zero-false-negative audit (hash must never miss a real diff) ===");
    for &eps in &ERROR_BOUNDS {
        let brute = pair.diffs_above(eps) as u64;
        let engine = engine_for(4096, eps);
        let (a, b, ctx, _) = modeled_sources(&pair, &engine, model);
        let diffs = engine.compare(&a, &b, &ctx).unwrap().stats.diff_count;
        assert_eq!(diffs, brute, "false negative at eps {eps:e}");
        println!("  eps {eps:>6.0e}: engine {diffs} diffs, brute force {brute} — OK");
        rec.push(
            "fig7",
            &[("eps", format!("{eps:e}"))],
            "diffs",
            diffs as f64,
        );
    }

    rec.into_json()
}
