//! Figure DV — divergence forensics: timeline bisection vs the linear
//! history scan as the timeline grows, M ∈ {16, 64, 256} checkpoints.
//!
//! Each grid point builds one seeded divergent history pair (divergence
//! injected at the ¾ mark, persisting and growing — the restart model),
//! then localizes the first divergent iteration both ways:
//!
//! * **linear** — `CompareEngine::compare_history`, which adjudicates
//!   all M iterations and re-reads payload at every flagged one;
//! * **bisect** — `analyze::bisect_first_divergence`, ⌈log₂ M⌉
//!   metadata-only stage-1 probes plus one stage-2 confirmation at the
//!   boundary.
//!
//! Both must name the same `(iteration, rank)` — asserted here, and
//! proven exhaustively by `tests/analyze_oracle.rs`. The figure shows
//! the cost gap: comparisons (M vs 2·⌈log₂ M⌉+1) and payload bytes
//! (every divergent iteration vs the boundary alone).
//!
//! The binary also emits `bench_results/divergence_profile.json`: the
//! boundary confirmation's compare report on a simulated Lustre
//! timeline, fully deterministic, diffed by `make perf-diff` against
//! the committed baseline in `tests/goldens/`. `--profile-only` skips
//! the sweep and writes just that file.
//!
//! ```sh
//! cargo run -p reprocmp-bench --bin fig_divergence --release
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp_analyze::bisect_first_divergence;
use reprocmp_bench::Recorder;
use reprocmp_core::{CheckpointHistory, CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp_io::{CostModel, SimClock, Timeline};
use reprocmp_obs::Observer;

const CHUNK: usize = 4096;
const VALUES: usize = 4096; // 16 KiB per checkpoint payload
const CHURN: f64 = 0.05;
const TIMELINES: [usize; 3] = [16, 64, 256];

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

/// Seeded history pair on one shared sim clock: M checkpoints,
/// divergence at the ¾ mark through a fixed churned index set whose
/// deltas grow with iteration.
fn seeded_pair(
    e: &CompareEngine,
    m: usize,
    clock: &SimClock,
) -> (CheckpointHistory, CheckpointHistory, u64) {
    let model = CostModel::lustre_pfs();
    let mut a = CheckpointHistory::new();
    let mut b = CheckpointHistory::new();
    let diverge_at = (m as u64) * 3 / 4;
    let mut rng = StdRng::seed_from_u64(0xD1);
    let n_churn = (VALUES as f64 * CHURN).ceil() as usize;
    let churned: Vec<usize> = (0..n_churn).map(|_| rng.gen_range(0..VALUES)).collect();
    for it in 0..m as u64 {
        let mut vrng = StdRng::seed_from_u64(0xFACE ^ it);
        let base: Vec<f32> = (0..VALUES).map(|_| vrng.gen_range(-1.0..1.0)).collect();
        let mut other = base.clone();
        if it >= diverge_at {
            let step = it - diverge_at + 1;
            for &ix in &churned {
                other[ix] += 0.01 * step as f32;
            }
        }
        let sa = CheckpointSource::in_memory_with_model(&base, e, model, Some(clock.clone()))
            .expect("source");
        let sb = CheckpointSource::in_memory_with_model(&other, e, model, Some(clock.clone()))
            .expect("source");
        a.insert(0, it, sa);
        b.insert(0, it, sb);
    }
    (a, b, diverge_at)
}

/// Writes the deterministic boundary-confirmation compare report that
/// `make perf-diff` gates against the committed baseline.
fn write_profile() {
    let e = engine();
    let clock = SimClock::new();
    let (a, b, _) = seeded_pair(&e, 64, &clock);
    let bis = bisect_first_divergence(&e, &a, &b, &Timeline::sim(clock), &Observer::disabled())
        .expect("bisect");
    let report = bis.boundary_report.expect("boundary report");

    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: could not create bench_results/");
        return;
    }
    let path = dir.join("divergence_profile.json");
    let mut json = serde_json::to_string_pretty(&report).expect("encode profile");
    json.push('\n');
    if std::fs::write(&path, json).is_err() {
        eprintln!("warning: could not write {}", path.display());
    } else {
        println!("divergence boundary profile written to {}", path.display());
    }
}

fn main() {
    let profile_only = std::env::args().any(|a| a == "--profile-only");
    write_profile();
    if profile_only {
        return;
    }

    let mut rec = Recorder::new();
    println!("=== Figure DV: bisection vs linear scan over M checkpoints ===");
    println!("({VALUES} f32/checkpoint, chunk {CHUNK} B, churn {CHURN}, divergence at 3M/4)");
    println!(
        "{:>6} {:>10} {:>10} {:>14} {:>14} {:>14}",
        "M", "linear", "bisect", "linear payld", "bisect payld", "bisect meta"
    );
    for &m in &TIMELINES {
        let e = engine();
        let clock = SimClock::new();
        let (a, b, diverge_at) = seeded_pair(&e, m, &clock);
        let timeline = Timeline::sim(clock);

        let linear = e
            .compare_history(&a, &b, &Ctx::default())
            .expect("linear scan");
        let bis =
            bisect_first_divergence(&e, &a, &b, &timeline, &Observer::disabled()).expect("bisect");
        assert_eq!(
            bis.first_divergence,
            linear.first_divergence(),
            "bisection disagrees with the linear scan at M={m}"
        );
        assert_eq!(
            bis.first_divergence,
            Some((diverge_at, 0)),
            "wrong boundary at M={m}"
        );

        let linear_payload = linear.total_bytes_reread();
        println!(
            "{:>6} {:>10} {:>10} {:>14} {:>14} {:>14}",
            m,
            m, // the linear scan adjudicates every iteration
            bis.comparisons(),
            linear_payload,
            bis.payload_bytes_read,
            bis.probes.metadata_bytes_read,
        );

        let params = [("m", m.to_string())];
        rec.push("fig_divergence", &params, "linear_comparisons", m as f64);
        rec.push(
            "fig_divergence",
            &params,
            "bisect_comparisons",
            bis.comparisons() as f64,
        );
        rec.push(
            "fig_divergence",
            &params,
            "linear_payload_bytes",
            linear_payload as f64,
        );
        rec.push(
            "fig_divergence",
            &params,
            "bisect_payload_bytes",
            bis.payload_bytes_read as f64,
        );
        rec.push(
            "fig_divergence",
            &params,
            "bisect_metadata_bytes",
            bis.probes.metadata_bytes_read as f64,
        );
    }
    rec.save("fig_divergence");
}
