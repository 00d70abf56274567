//! Figure DD — capture-side dedup: logical versus physical bytes when
//! N runs of the same workload flow through the content-addressed
//! store.
//!
//! The paper's capture cost is N x the raw checkpoint volume: every
//! run writes its own copy of every iteration. The chunk store keys
//! chunks by raw-content digest, so across N runs that diverge in only
//! a few percent of their chunks (the nondeterministic reduction
//! perturbs the same regions every run), the physical bytes written
//! approach one run's volume plus the divergence — while the logical
//! ledger still accounts the full N x capture.

use reprocmp_bench::Recorder;
use reprocmp_store::ChunkStore;

const N_VALUES: usize = 1 << 16; // 256 KiB per checkpoint
const CHUNK: usize = 1024;
const ITERATIONS: u64 = 4;
/// Every 33rd chunk of a non-baseline run is perturbed (~3% of the
/// checkpoint diverges, the paper's "small fraction of the data").
const PERTURB_STRIDE: usize = 33;

/// One run's checkpoint at one iteration. The trajectory (shared by
/// all runs) changes every chunk every iteration, so there is no
/// cross-iteration dedup to flatter the numbers — only genuine
/// cross-run redundancy.
fn payload(run: usize, iteration: u64) -> Vec<u8> {
    let mut values: Vec<f32> = (0..N_VALUES)
        .map(|i| ((i as u64 + iteration * 7_919) as f32 * 1e-3).sin())
        .collect();
    if run > 0 {
        let values_per_chunk = CHUNK / 4;
        let chunks = N_VALUES / values_per_chunk;
        for c in (run % PERTURB_STRIDE..chunks).step_by(PERTURB_STRIDE) {
            values[c * values_per_chunk] += run as f32 * 1e-3;
        }
    }
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn capture_fleet(n_runs: usize) -> (u64, u64, u64) {
    let root = std::env::temp_dir().join(format!(
        "reprocmp-fig-dedup-{}-{n_runs}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let store = ChunkStore::open(&root).expect("open store");
    for run in 0..n_runs {
        for iteration in 1..=ITERATIONS {
            let bytes = payload(run, iteration);
            let stats = store
                .ingest(
                    &format!("run{run}"),
                    iteration,
                    &[("payload", &bytes)],
                    CHUNK,
                    &[],
                )
                .expect("ingest");
            assert_eq!(
                stats.bytes_logical,
                stats.bytes_physical + stats.bytes_deduped,
                "per-ingest ledger must balance exactly"
            );
        }
    }
    let stats = store.stats();
    assert_eq!(
        stats.bytes_logical,
        stats.bytes_physical + stats.bytes_deduped,
        "store-wide ledger must balance exactly"
    );
    std::fs::remove_dir_all(&root).ok();
    (
        stats.bytes_logical,
        stats.bytes_physical,
        stats.bytes_deduped,
    )
}

pub fn run() -> String {
    let mut rec = Recorder::new();
    println!("=== Figure DD: N-run capture, logical vs physical bytes in the chunk store ===");
    println!(
        "({} KiB/checkpoint, {ITERATIONS} iterations/run, chunk {CHUNK} B, ~3% cross-run divergence)",
        (N_VALUES * 4) >> 10,
    );
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>8}",
        "N", "logical MB", "physical MB", "deduped MB", "ratio"
    );
    let mut last_physical = 0u64;
    for n in [1usize, 2, 4, 8] {
        let (logical, physical, deduped) = capture_fleet(n);
        let ratio = logical as f64 / physical as f64;
        println!(
            "{:>4} {:>14.2} {:>14.2} {:>14.2} {:>7.2}x",
            n,
            logical as f64 / 1e6,
            physical as f64 / 1e6,
            deduped as f64 / 1e6,
            ratio,
        );
        for (metric, value) in [
            ("bytes_logical", logical as f64),
            ("bytes_physical", physical as f64),
            ("bytes_deduped", deduped as f64),
            ("dedup_ratio", ratio),
        ] {
            rec.push("fig_dedup", &[("runs", n.to_string())], metric, value);
        }
        if n > 1 {
            assert!(
                physical < logical,
                "{n} runs must store strictly fewer physical bytes than logical"
            );
            // Each added run contributes only its divergent chunks, so
            // physical growth is far below one run's full volume.
            let single_run = logical / n as u64;
            assert!(
                physical - last_physical < single_run,
                "marginal physical cost of added runs must be sublinear"
            );
        }
        last_physical = physical;
    }
    println!("\nOK: physical bytes track unique content, not N x raw capture volume.");
    rec.into_json()
}
