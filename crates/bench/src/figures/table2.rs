//! Table 2 — the evaluation parameter grid, plus the metadata-size
//! worked example from §3.3.3 ("with 4 KB chunks and 16-byte digests,
//! the metadata size for a 7 GB checkpoint is ~55 MB").

use reprocmp_bench::{
    engine_for, fmt_chunk, DivergenceSpec, DivergentPair, Recorder, CHUNK_SIZES, ERROR_BOUNDS,
};
use reprocmp_hash::Floats;

pub fn run() -> String {
    let mut rec = Recorder::new();
    println!("=== Table 2: setup used to evaluate performance and scalability ===\n");
    println!("{:<18} Values", "Description");
    println!(
        "{:<18} 1, 2, 4, 8, 16, 32   (simulated; 4 ranks per node)",
        "Number of nodes"
    );
    print!("{:<18} ", "Error bounds");
    for (i, eps) in ERROR_BOUNDS.iter().enumerate() {
        print!("{}{eps:e}", if i > 0 { ", " } else { "" });
    }
    println!();
    print!("{:<18} ", "Chunk sizes");
    for (i, c) in CHUNK_SIZES.iter().enumerate() {
        print!("{}{}", if i > 0 { ", " } else { "" }, fmt_chunk(*c));
    }
    println!("\n");

    // §3.3.3 worked example at paper scale, from the exact formula the
    // serializer implements: nodes = 2 * next_pow2(ceil(N/C)) - 1,
    // 16 bytes each.
    let n: u64 = 7 << 30;
    let c: u64 = 4 << 10;
    let leaves = n.div_ceil(c);
    let nodes = 2 * leaves.next_power_of_two() - 1;
    let metadata = nodes * 16;
    println!(
        "metadata for a 7 GB checkpoint at 4 KiB chunks: {} leaves -> {:.1} MB (paper: ~55 MB)",
        leaves,
        metadata as f64 / 1e6
    );
    rec.push(
        "table2",
        &[("scale", "7GB".into())],
        "metadata_mb",
        metadata as f64 / 1e6,
    );

    // And measured on a real (scaled) tree to confirm the formula,
    // with the capture-side stage profile alongside.
    let pair = DivergentPair::generate(2 << 20, DivergenceSpec::None, 1);
    let engine = engine_for(4096, 1e-5);
    let (tree, stages) = engine.capture(Floats::Values(&pair.run1));
    let encoded = reprocmp_merkle::encode_tree(&tree);
    let ratio = encoded.len() as f64 / (pair.run1.len() * 4) as f64;
    println!(
        "measured: 8 MiB checkpoint at 4 KiB chunks -> {} B of metadata ({:.2}% of the data)",
        encoded.len(),
        100.0 * ratio
    );
    assert!(ratio < 0.02, "metadata must stay below 2% of data");
    rec.push(
        "table2",
        &[("scale", "8MiB".into())],
        "metadata_ratio",
        ratio,
    );
    rec.push_breakdown("table2", &[("scale", "8MiB".into())], &stages);
    rec.into_json()
}
