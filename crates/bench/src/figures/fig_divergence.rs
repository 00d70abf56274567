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
//! [`profile`] is the boundary confirmation's compare report on a
//! simulated Lustre timeline: fully deterministic, so its golden in
//! `tests/goldens/` is regenerated and diffed byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp_analyze::bisect_first_divergence;
use reprocmp_bench::{modeled_source, profile_json, Recorder};
use reprocmp_core::{CheckpointHistory, CompareEngine, Ctx, EngineConfig};
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
        a.insert(0, it, modeled_source(&base, e, model, clock));
        b.insert(0, it, modeled_source(&other, e, model, clock));
    }
    (a, b, diverge_at)
}

/// The deterministic boundary-confirmation compare report.
pub fn profile() -> String {
    let e = engine();
    let clock = SimClock::new();
    let (a, b, _) = seeded_pair(&e, 64, &clock);
    let bis = bisect_first_divergence(&e, &a, &b, &Timeline::sim(clock), &Observer::disabled())
        .expect("bisect");
    let report = bis.boundary_report.expect("boundary report");
    profile_json(&report)
}

pub fn run() -> String {
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
        for (metric, value) in [
            ("linear_comparisons", m as u64),
            ("bisect_comparisons", bis.comparisons()),
            ("linear_payload_bytes", linear_payload),
            ("bisect_payload_bytes", bis.payload_bytes_read),
            ("bisect_metadata_bytes", bis.probes.metadata_bytes_read),
        ] {
            rec.push("fig_divergence", &params, metric, value as f64);
        }
    }
    rec.into_json()
}
