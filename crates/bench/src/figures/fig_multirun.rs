//! Figure MR — multi-run baseline comparison cost: the batch scheduler
//! with its content-addressed metadata cache versus N independent
//! pairwise comparisons.
//!
//! N runs of the same application diverge from a blessed baseline in
//! mostly the *same* places (a nondeterministic reduction perturbs the
//! same region every run), so after the first job adjudicates a
//! subtree pair or verifies a chunk pair, later jobs answer from the
//! cache. Independent pairwise comparisons redo everything: the
//! baseline's metadata is decoded N times and every job re-walks and
//! re-reads what its predecessors already proved. The batch's marginal
//! cost per added run is the per-job frontier walk plus that run's
//! unique divergence — sublinear in the work, not just the constants.

use reprocmp_bench::{fmt_dur, modeled_source, sim_ctx, Recorder};
use reprocmp_core::{BatchConfig, CheckpointSource, CompareEngine, EngineConfig, MetaCache};
use reprocmp_io::{CostModel, SimClock};
use std::time::Duration;

const N_VALUES: usize = 1 << 18; // 256 Ki f32 per run = 1 MiB
const CHUNK: usize = 1024;
const EPS: f64 = 1e-5;

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: EPS,
        // Few lanes start the pruning BFS high in the tree, so cache
        // hits skip whole subtree walks. With the default 64 Ki-lane
        // device the start level clamps to the leaves of a tree this
        // size and the subtree cache would have nothing to save.
        lane_hint: Some(8),
        ..EngineConfig::default()
    })
}

/// Baseline values plus N run payloads: every run carries the same
/// perturbation of the first half (>= 50% of chunks shared across
/// runs) plus one run-unique value near the end.
fn payloads(n_runs: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let base: Vec<f32> = (0..N_VALUES).map(|i| (i as f32 * 1e-3).sin()).collect();
    let mut shared = base.clone();
    for v in shared.iter_mut().take(N_VALUES / 2) {
        *v += 0.25;
    }
    let runs = (0..n_runs)
        .map(|r| {
            let mut values = shared.clone();
            values[N_VALUES - 64 * (r + 1)] += 0.5;
            values
        })
        .collect();
    (base, runs)
}

struct Cost {
    nodes_visited: u64,
    bytes_reread: u64,
    trees_decoded: u64,
    modeled: Duration,
}

fn source(values: &[f32], e: &CompareEngine, clock: &SimClock) -> CheckpointSource {
    modeled_source(values, e, CostModel::lustre_pfs(), clock)
}

/// The batch scheduler: one decode per source, shared cache.
fn batched(base: &[f32], runs: &[Vec<f32>]) -> Cost {
    let e = engine();
    let clock = SimClock::new();
    let baseline = source(base, &e, &clock);
    let sources: Vec<CheckpointSource> = runs.iter().map(|r| source(r, &e, &clock)).collect();
    let report = e
        .compare_many(
            &baseline,
            &sources,
            &BatchConfig::default(),
            &mut MetaCache::new(),
            &sim_ctx(&clock),
        )
        .unwrap();
    Cost {
        nodes_visited: report.total_nodes_visited(),
        bytes_reread: report.total_bytes_reread(),
        trees_decoded: report.trees_decoded,
        modeled: report.elapsed,
    }
}

/// N independent pairwise comparisons — the status quo.
fn pairwise(base: &[f32], runs: &[Vec<f32>]) -> Cost {
    let e = engine();
    let mut cost = Cost {
        nodes_visited: 0,
        bytes_reread: 0,
        trees_decoded: 0,
        modeled: Duration::ZERO,
    };
    for r in runs {
        // A fresh clock per job: each pairwise comparison re-opens the
        // baseline and decodes both trees from scratch.
        let clock = SimClock::new();
        let a = source(base, &e, &clock);
        let b = source(r, &e, &clock);
        let report = e.compare(&a, &b, &sim_ctx(&clock)).unwrap();
        cost.nodes_visited += report.stages.bfs.ops;
        cost.bytes_reread += report.stats.bytes_reread;
        cost.trees_decoded += 2;
        cost.modeled += report.breakdown.total();
    }
    cost
}

pub fn run() -> String {
    let mut rec = Recorder::new();
    println!("=== Figure MR: N-run baseline comparison, batch+cache vs independent pairwise ===");
    println!(
        "(1 MiB/run, chunk 1 KiB, eps = {EPS:e}, runs share 50% divergence from the baseline)"
    );
    println!(
        "{:>4} {:>14} {:>14} {:>12} {:>12} {:>8} {:>14} {:>14}",
        "N",
        "nodes(batch)",
        "nodes(pair)",
        "MB(batch)",
        "MB(pair)",
        "decodes",
        "time(batch)",
        "time(pair)"
    );
    for n in [2usize, 4, 8] {
        let (base, runs) = payloads(n);
        let b = batched(&base, &runs);
        let p = pairwise(&base, &runs);
        println!(
            "{:>4} {:>14} {:>14} {:>12.2} {:>12.2} {:>5}/{:<2} {:>14} {:>14}",
            n,
            b.nodes_visited,
            p.nodes_visited,
            b.bytes_reread as f64 / 1e6,
            p.bytes_reread as f64 / 1e6,
            b.trees_decoded,
            p.trees_decoded,
            fmt_dur(b.modeled),
            fmt_dur(p.modeled),
        );
        for (metric, batch_v, pair_v) in [
            (
                "nodes_visited",
                b.nodes_visited as f64,
                p.nodes_visited as f64,
            ),
            ("bytes_reread", b.bytes_reread as f64, p.bytes_reread as f64),
            (
                "trees_decoded",
                b.trees_decoded as f64,
                p.trees_decoded as f64,
            ),
            (
                "modeled_secs",
                b.modeled.as_secs_f64(),
                p.modeled.as_secs_f64(),
            ),
        ] {
            rec.push(
                "fig_multirun",
                &[("runs", n.to_string()), ("mode", "batch".into())],
                metric,
                batch_v,
            );
            rec.push(
                "fig_multirun",
                &[("runs", n.to_string()), ("mode", "pairwise".into())],
                metric,
                pair_v,
            );
        }
        assert!(
            b.nodes_visited < p.nodes_visited,
            "batch must visit strictly fewer node pairs ({} vs {})",
            b.nodes_visited,
            p.nodes_visited
        );
        assert!(
            b.bytes_reread < p.bytes_reread,
            "batch must re-read strictly fewer bytes ({} vs {})",
            b.bytes_reread,
            p.bytes_reread
        );
        assert_eq!(b.trees_decoded as usize, n + 1, "one decode per source");
    }

    // Sublinearity: going from 2 to 8 runs must grow batch bytes
    // re-read by far less than 4x (the shared divergence is read once).
    let (base2, runs2) = payloads(2);
    let (base8, runs8) = payloads(8);
    let b2 = batched(&base2, &runs2);
    let b8 = batched(&base8, &runs8);
    let growth = b8.bytes_reread as f64 / b2.bytes_reread as f64;
    rec.push("fig_multirun", &[], "bytes_growth_2_to_8", growth);
    println!(
        "\nbatch bytes re-read grow {growth:.2}x from N=2 to N=8 (pairwise: 4.00x): \
         the shared divergence streams once, later runs pay only their unique chunks."
    );
    assert!(
        growth < 2.0,
        "cached growth should be well under the 4x of pairwise (got {growth:.2}x)"
    );
    rec.into_json()
}
