//! One oracle, every door: `CompareEngine::compare` and `Direct` over
//! every way of opening a side, paired every way, on inputs aimed at
//! the places a stage-2 path can go wrong.
//!
//! * **Ways to open a side** — a checkpoint file with its tree, the
//!   same file without one, an in-memory source, a store object
//!   ingested with ε-metadata, and one ingested without (the store's
//!   capture-on-open fallback).
//! * **Pairings** — every ordered pair of those ways, so a file side
//!   meets a memory side and a pack-reader side in both positions.
//! * **Inputs** — clustered divergence, ε-boundary pairs two `f32`
//!   ulps either side of `ε`, NaN / ±∞ / subnormals, a short tail
//!   chunk, more than 1 MiB of flagged chunks (so stage-2 slices cross
//!   the 1 MiB host slice), and a pair with nothing to flag.
//!
//! In every cell the differences, `diff_count` and `unverified` must
//! equal a brute-force `|a − b| > ε` scan, and `chunks_flagged −
//! false_positive_chunks` must count the chunks that truly differ under
//! the verb's own chunking. One `#[test]` per input, so the harness
//! runs inputs side by side.

#[path = "../crates/hash/tests/boundary/mod.rs"]
#[allow(dead_code)]
mod boundary;

use std::path::PathBuf;

use boundary::{next_down, next_up};
use reprocmp::core::ops::{self, ObjectRef};
use reprocmp::core::{CheckpointSource, CompareEngine, CompareReport, Ctx, Direct, EngineConfig};
use reprocmp::store::ChunkStore;
use reprocmp::veloc::encode_checkpoint;

const CHUNK_BYTES: usize = 4096;
const VALUES_PER_CHUNK: usize = CHUNK_BYTES / 4;
const EPS: f64 = 1e-5;
/// `Direct` compares in 1 MiB chunks whatever the sources' chunking.
const DIRECT_CHUNK_BYTES: usize = 1 << 20;
/// `Direct`'s cap on recorded differences (its engine's default).
const DIRECT_MAX_RECORDED: usize = 1024;

const WAYS: [&str; 5] = [
    "file + tree",
    "file without a tree",
    "in memory",
    "store with meta",
    "store without meta",
];

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK_BYTES,
        error_bound: EPS,
        max_recorded_diffs: usize::MAX,
        ..EngineConfig::default()
    })
}

/// The oracle: `(index, a, b)` of every value pair with `|a − b| > ε`
/// in `f64`, where NaN against NaN agrees and NaN against a number
/// does not.
fn brute_force(a: &[f32], b: &[f32]) -> Vec<(u64, f32, f32)> {
    let differs = |x: f32, y: f32| match (x.is_nan(), y.is_nan()) {
        (true, true) => false,
        (true, false) | (false, true) => true,
        (false, false) => (f64::from(x) - f64::from(y)).abs() > EPS,
    };
    let pairs = a.iter().zip(b).enumerate();
    pairs
        .filter(|(_, (&x, &y))| differs(x, y))
        .map(|(i, (&x, &y))| (i as u64, x, y))
        .collect()
}

/// Chunks of `chunk_bytes` holding at least one true difference.
fn chunks_differing(diffs: &[(u64, f32, f32)], chunk_bytes: usize) -> u64 {
    let mut chunks: Vec<u64> = diffs
        .iter()
        .map(|&(i, _, _)| i * 4 / chunk_bytes as u64)
        .collect();
    chunks.dedup();
    chunks.len() as u64
}

fn smooth(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.003 + phase).sin() * 3.0)
        .collect()
}

/// One pair of runs, as every door sees it.
struct Case {
    name: &'static str,
    a: Vec<f32>,
    b: Vec<f32>,
}

/// Writes both runs as VELOC checkpoints (two regions, so the payload
/// sits past a header), their trees, and both store objects.
struct Doors {
    dir: PathBuf,
    store: ChunkStore,
    files: [PathBuf; 2],
    trees: [PathBuf; 2],
}

impl Doors {
    fn new(case: &Case, engine: &CompareEngine) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "reprocmp-compare-doors-{}-{}",
            case.name,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let store = ChunkStore::open(&dir.join("store")).unwrap();
        let files = [0, 1].map(|i| dir.join(format!("run{i}.ckpt")));
        let trees = [0, 1].map(|i| dir.join(format!("run{i}.tree")));
        for (i, values) in [&case.a, &case.b].into_iter().enumerate() {
            let (x, y) = values.split_at(values.len() / 3);
            let bytes = encode_checkpoint(1, &[("x", x), ("y", y)]);
            std::fs::write(&files[i], &bytes).unwrap();
            let image = ops::Image::parse(&bytes).unwrap();
            std::fs::write(&trees[i], image.metadata(engine).unwrap()).unwrap();
            for (kind, meta) in [("meta", Some(engine)), ("bare", None)] {
                let name = format!("run{i}-{kind}");
                ops::ingest(&store, &name, 1, &image, CHUNK_BYTES, meta, None).unwrap();
            }
        }
        Doors {
            dir,
            store,
            files,
            trees,
        }
    }

    /// Side `i` opened the `way`-th way.
    fn open(
        &self,
        way: usize,
        i: usize,
        values: &[f32],
        engine: &CompareEngine,
    ) -> CheckpointSource {
        let stored = |kind: &str| {
            let object = ObjectRef {
                name: format!("run{i}-{kind}"),
                version: 1,
            };
            ops::open_stored(&self.store, &object, engine)
                .unwrap()
                .source
        };
        match way {
            0 => {
                ops::open_file(&self.files[i], Some(&self.trees[i]))
                    .unwrap()
                    .source
            }
            1 => ops::open_file(&self.files[i], None).unwrap().source,
            2 => CheckpointSource::in_memory(values, engine).unwrap(),
            3 => stored("meta"),
            4 => stored("bare"),
            _ => unreachable!(),
        }
    }
}

impl Drop for Doors {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Checks one cell's findings against the oracle, and its
/// flagged-minus-false-positives count under the verb's chunking.
fn check(
    cell: &str,
    report: &CompareReport,
    oracle: &[(u64, f32, f32)],
    chunk_bytes: usize,
    max_recorded: usize,
) {
    assert_eq!(
        report.stats.diff_count,
        oracle.len() as u64,
        "{cell}: diff_count"
    );
    let got: Vec<(u64, u32, u32)> = report
        .differences
        .iter()
        .map(|d| (d.index, d.a.to_bits(), d.b.to_bits()))
        .collect();
    let want: Vec<(u64, u32, u32)> = oracle
        .iter()
        .take(max_recorded)
        .map(|&(i, a, b)| (i, a.to_bits(), b.to_bits()))
        .collect();
    let first_wrong = got.iter().zip(&want).position(|(g, w)| g != w);
    assert!(
        got.len() == want.len() && first_wrong.is_none(),
        "{cell}: {} differences against {} expected, first wrong at {first_wrong:?}",
        got.len(),
        want.len()
    );
    assert_eq!(
        report.differences_truncated,
        oracle.len() > max_recorded,
        "{cell}: truncation"
    );
    assert!(report.unverified.is_empty(), "{cell}: unverified");
    assert!(
        report.stats.chunks_flagged >= report.stats.false_positive_chunks,
        "{cell}: more false positives than flagged chunks"
    );
    assert_eq!(
        report.stats.chunks_flagged - report.stats.false_positive_chunks,
        chunks_differing(oracle, chunk_bytes),
        "{cell}: flagged minus false positives is the truly differing chunks"
    );
}

/// The two verbs every cell runs.
#[derive(Debug, Clone, Copy)]
enum Verb {
    Compare,
    Direct,
}

/// Every ordered pairing of the ways under both verbs, one thread a
/// verb.
fn run_matrix(case: &Case) {
    assert_eq!(case.a.len(), case.b.len());
    let engine = engine();
    let direct = Direct::new(EPS).unwrap();
    let doors = Doors::new(case, &engine);
    let oracle = brute_force(&case.a, &case.b);
    let open_all = |i, values| -> Vec<_> {
        let ways = 0..WAYS.len();
        ways.map(|w| doors.open(w, i, values, &engine)).collect()
    };
    let (sides_a, sides_b) = (open_all(0, &case.a), open_all(1, &case.b));
    let run = |verb: Verb| {
        let ctx = Ctx::default();
        for (a, way_a) in sides_a.iter().zip(WAYS) {
            for (b, way_b) in sides_b.iter().zip(WAYS) {
                let cell = format!("{}: {way_a} vs {way_b}, {verb:?}", case.name);
                let (report, chunk_bytes, max_recorded) = match verb {
                    Verb::Compare => (engine.compare(a, b, &ctx), CHUNK_BYTES, usize::MAX),
                    Verb::Direct => (
                        direct.compare(a, b, &ctx),
                        DIRECT_CHUNK_BYTES,
                        DIRECT_MAX_RECORDED,
                    ),
                };
                let report = report.unwrap_or_else(|e| panic!("{cell}: {e}"));
                check(&cell, &report, &oracle, chunk_bytes, max_recorded);
            }
        }
    };
    std::thread::scope(|s| {
        let direct = s.spawn(|| run(Verb::Direct));
        run(Verb::Compare);
        if let Err(panic) = direct.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn clustered_divergence() {
    let a = smooth(24 * VALUES_PER_CHUNK, 0.0);
    let mut b = a.clone();
    // Three clusters spanning chunk boundaries, plus sub-ε noise that
    // the trees may flag and stage 2 must clear.
    for (start, len) in [(700, 900), (9 * VALUES_PER_CHUNK - 5, 40), (20_000, 3000)] {
        for v in &mut b[start..start + len] {
            *v += 0.25;
        }
    }
    for i in (0..b.len()).step_by(997) {
        b[i] += 2e-6;
    }
    run_matrix(&Case {
        name: "clustered",
        a,
        b,
    });
}

#[test]
fn epsilon_boundary_pairs() {
    // Pairs two ulps either side of `|a − b| = ε`, and pairs two ulps
    // apart across a quantization grid line (equal within ε, often
    // different codes: a hash false positive to clear).
    let n = 16 * VALUES_PER_CHUNK;
    let a = smooth(n, 0.7);
    let b: Vec<f32> = a
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let shifted = (f64::from(x) + EPS) as f32;
            match i % 11 {
                0 => next_up(next_up(shifted)),
                1 => next_down(next_down(shifted)),
                2 => next_up(shifted),
                3 => next_down(shifted),
                4 => next_up(next_up(x)),
                5 => next_down(next_down(x)),
                _ => x,
            }
        })
        .collect();
    run_matrix(&Case {
        name: "boundary",
        a,
        b,
    });
}

#[test]
fn nan_infinity_and_subnormals() {
    let n = 8 * VALUES_PER_CHUNK;
    let mut a = smooth(n, 1.3);
    let mut b = a.clone();
    let tiny = f32::from_bits(1);
    let specials: [(f32, f32); 10] = [
        (f32::NAN, f32::NAN),
        (f32::NAN, 1.0),
        (-2.0, f32::NAN),
        (f32::INFINITY, f32::INFINITY),
        (f32::NEG_INFINITY, f32::NEG_INFINITY),
        (f32::INFINITY, f32::NEG_INFINITY),
        (f32::INFINITY, f32::MAX),
        (tiny, -tiny),
        (f32::MIN_POSITIVE, 0.0),
        (-0.0, 0.0),
    ];
    for (k, &(x, y)) in specials.iter().enumerate() {
        // One special per chunk in the first half, a second round in
        // the last chunk.
        for i in [k * VALUES_PER_CHUNK / 2 + 3, n - 1 - k] {
            a[i] = x;
            b[i] = y;
        }
    }
    run_matrix(&Case {
        name: "specials",
        a,
        b,
    });
}

#[test]
fn short_tail_chunk() {
    let n = 6 * VALUES_PER_CHUNK + 37;
    let a = smooth(n, 2.1);
    let mut b = a.clone();
    for i in [5, 3 * VALUES_PER_CHUNK + 9, n - 30, n - 1] {
        b[i] -= 0.5;
    }
    run_matrix(&Case { name: "tail", a, b });
}

#[test]
fn more_than_a_mebibyte_flagged() {
    // Every 4 KiB chunk of a 1 MiB + 8 KiB + tail payload diverges, in
    // a different value each, so stage 2 streams several slices.
    let n = (1 << 18) + 2 * VALUES_PER_CHUNK + 5;
    let a = smooth(n, 0.4);
    let mut b = a.clone();
    for (c, i) in (0..n).step_by(VALUES_PER_CHUNK).enumerate() {
        b[(i + c * 7) % n] += 1.0;
    }
    run_matrix(&Case {
        name: "dense",
        a,
        b,
    });
}

#[test]
fn nothing_flagged() {
    let a = smooth(10 * VALUES_PER_CHUNK, 0.9);
    run_matrix(&Case {
        name: "identical",
        b: a.clone(),
        a,
    });
}

/// The oracle itself, on hand-checked pairs.
#[test]
fn the_oracle_reads_nan_and_infinity_as_documented() {
    let diffs = brute_force(
        &[f32::NAN, f32::NAN, f32::INFINITY, f32::INFINITY, 1.0, 1.0],
        &[
            f32::NAN,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0 + 2e-5,
            1.0 + 5e-6,
        ],
    );
    let at: Vec<u64> = diffs.iter().map(|d| d.0).collect();
    assert_eq!(at, [1, 3, 4]);
    assert_eq!(chunks_differing(&diffs, 16), 2);
}
