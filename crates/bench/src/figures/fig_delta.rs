//! Figure DC — differential capture: physical bytes versus churn at
//! chain depths 1, 4, and 16.
//!
//! Full-capture dedup already stores identical chunks once, but every
//! version still hashes and refcounts its whole payload. Differential
//! capture diffs each version against the previous manifest and writes
//! (and accounts) only the churned chunks. The headline claim this
//! figure pins: at low churn the physical bytes a delta version writes
//! track `churn x checkpoint_bytes` — within 1.2x — independent of the
//! checkpoint size and of how deep the chain is allowed to grow, while
//! the four-term ledger (`logical = physical + deduped + skipped`)
//! stays exact.
//!
//! Depth 1 (`anchor_every = 1`) is the full-capture baseline: every
//! version is an anchor, nothing is ever skipped.

use reprocmp_bench::Recorder;
use reprocmp_store::{ChunkStore, DeltaPolicy};

const CHUNK: usize = 1024;
const VALUES_PER_CHUNK: usize = CHUNK / 4;
const CHUNKS: usize = 64; // 64 KiB per checkpoint
const ITERATIONS: u64 = 17; // one anchor + 16 deltas at depth 16

/// Deterministic xorshift stream, salted so every (iteration, chunk)
/// rewrite produces globally unique bytes — dedup cannot flatter the
/// delta numbers.
fn fill_chunk(values: &mut [f32], salt: u64) {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in values {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state as f32) * 1e-9;
    }
}

/// Advances one iteration of churn: rewrites `churned` chunks, the
/// window rotating with the iteration so the same indices are not hit
/// every time.
fn churn_step(values: &mut [f32], churned: usize, iteration: u64) {
    for k in 0..churned {
        let chunk = (iteration as usize * 7 + k * 11) % CHUNKS;
        let lo = chunk * VALUES_PER_CHUNK;
        fill_chunk(
            &mut values[lo..lo + VALUES_PER_CHUNK],
            iteration * 1_000_003 + chunk as u64,
        );
    }
}

struct Cell {
    bytes_physical: u64,
    bytes_skipped: u64,
    /// Mean physical bytes per *delta* version (anchors excluded).
    delta_physical_mean: f64,
    delta_versions: u64,
}

fn capture(churn: f64, depth: u64) -> Cell {
    let root = std::env::temp_dir().join(format!(
        "reprocmp-fig-delta-{}-{churn}-{depth}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let store = ChunkStore::open(&root).expect("open store");
    let policy = DeltaPolicy {
        anchor_every: depth,
        max_depth: depth,
    };
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let churned = ((churn * CHUNKS as f64).round() as usize).min(CHUNKS);

    let mut values = vec![0f32; CHUNKS * VALUES_PER_CHUNK];
    for (chunk, window) in values.chunks_mut(VALUES_PER_CHUNK).enumerate() {
        fill_chunk(window, chunk as u64);
    }
    let mut delta_physical = 0u64;
    let mut delta_versions = 0u64;
    for iteration in 1..=ITERATIONS {
        if iteration > 1 {
            churn_step(&mut values, churned, iteration);
        }
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let stats = store
            .ingest_delta(
                "run",
                iteration,
                &[("payload", &bytes)],
                CHUNK,
                &[],
                &policy,
            )
            .expect("ingest_delta");
        assert_eq!(
            stats.bytes_logical,
            stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped,
            "per-capture ledger must balance exactly"
        );
        if stats.parent.is_some() {
            delta_physical += stats.bytes_physical;
            delta_versions += 1;
        }
    }
    let stats = store.stats();
    assert_eq!(
        stats.bytes_logical,
        stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped,
        "store-wide ledger must balance exactly"
    );
    // Spot-check restore integrity at the deepest link before tearing
    // the store down: the last version must materialize the live state.
    let tail: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(
        store.materialize("run", ITERATIONS).expect("materialize"),
        tail,
        "deepest chain link must restore byte-exactly"
    );
    std::fs::remove_dir_all(&root).ok();
    Cell {
        bytes_physical: stats.bytes_physical,
        bytes_skipped: stats.bytes_skipped,
        delta_physical_mean: if delta_versions == 0 {
            0.0
        } else {
            delta_physical as f64 / delta_versions as f64
        },
        delta_versions,
    }
}

pub fn run() -> String {
    let mut rec = Recorder::new();
    let checkpoint_bytes = (CHUNKS * CHUNK) as f64;
    println!("=== Figure DC: differential capture, physical bytes vs churn at depth 1/4/16 ===");
    println!(
        "({} KiB/checkpoint, {ITERATIONS} versions, chunk {CHUNK} B; depth 1 = full capture)",
        (CHUNKS * CHUNK) >> 10,
    );
    println!(
        "{:>7} {:>6} {:>14} {:>14} {:>16} {:>8}",
        "churn", "depth", "physical KB", "skipped KB", "KB/delta-vers", "ratio"
    );
    for churn in [0.01f64, 0.05, 0.10, 0.25, 0.50] {
        for depth in [1u64, 4, 16] {
            let cell = capture(churn, depth);
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let churn_bytes = ((churn * CHUNKS as f64).round() as usize).min(CHUNKS) * CHUNK;
            let ratio = if churn_bytes == 0 {
                0.0
            } else {
                cell.delta_physical_mean / churn_bytes as f64
            };
            println!(
                "{:>6.0}% {:>6} {:>14.1} {:>14.1} {:>16.1} {:>7.2}x",
                churn * 100.0,
                depth,
                cell.bytes_physical as f64 / 1e3,
                cell.bytes_skipped as f64 / 1e3,
                cell.delta_physical_mean / 1e3,
                ratio,
            );
            let labels = [("churn", format!("{churn}")), ("depth", depth.to_string())];
            for (metric, value) in [
                ("bytes_physical", cell.bytes_physical as f64),
                ("bytes_skipped", cell.bytes_skipped as f64),
                ("delta_physical_mean", cell.delta_physical_mean),
                ("physical_over_churn", ratio),
            ] {
                rec.push("fig_delta", &labels, metric, value);
            }
            if depth == 1 {
                assert_eq!(cell.delta_versions, 0, "depth 1 must disable deltas");
                assert_eq!(cell.bytes_skipped, 0, "full capture never skips");
            } else {
                // The acceptance bound: at <=10% churn a delta version
                // writes within 1.2x of churn x checkpoint_bytes —
                // capture cost tracks what moved, not what exists.
                if churn <= 0.10 {
                    assert!(
                        cell.delta_physical_mean <= churn_bytes as f64 * 1.2,
                        "churn {churn} depth {depth}: mean delta physical \
                         {:.0} B exceeds 1.2x churn bytes {churn_bytes}",
                        cell.delta_physical_mean
                    );
                }
                assert!(
                    cell.bytes_skipped > 0,
                    "churn {churn} depth {depth}: deltas must skip something"
                );
                // Affordability versus the full-capture column: at low
                // churn the delta store hashes far less and writes no
                // more than the full baseline.
                assert!(
                    cell.delta_physical_mean <= checkpoint_bytes,
                    "a delta version can never out-write a full one"
                );
            }
        }
    }
    println!("\nOK: delta physical bytes track churn x checkpoint volume at every depth.");
    rec.into_json()
}
