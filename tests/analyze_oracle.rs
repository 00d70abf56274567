//! Bisection oracle: `analyze::bisect_first_divergence` must give the
//! *same answer* as the linear `compare_history` scan — on seeded
//! HACC-style histories at every churn level, on real mini-HACC runs,
//! and on randomized schedules — while staying inside its probe
//! budget and reading no more payload bytes than the linear scan.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::analyze::bisect_first_divergence;
use reprocmp::core::{CheckpointHistory, CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation};
use reprocmp::io::Timeline;
use reprocmp::obs::Observer;

const CHUNK: usize = 64; // 16 values per chunk
const BOUND: f64 = 1e-5;

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: BOUND,
        ..EngineConfig::default()
    })
}

/// `⌈log₂ m⌉` for the comparison budget.
fn ceil_log2(m: usize) -> u64 {
    if m <= 1 {
        0
    } else {
        u64::from(m.next_power_of_two().trailing_zeros())
    }
}

/// A seeded HACC-style history pair: `values` pseudo-random positions
/// per checkpoint, `churn` = fraction of values perturbed from
/// `diverge_at` onward (the perturbed set persists and the deltas keep
/// growing — the restart-equivalence persistence model).
fn seeded_pair(
    e: &CompareEngine,
    seed: u64,
    ranks: usize,
    iterations: &[u64],
    values: usize,
    churn: f64,
    diverge_at: Option<u64>,
) -> (CheckpointHistory, CheckpointHistory) {
    let mut a = CheckpointHistory::new();
    let mut b = CheckpointHistory::new();
    let n_churn = ((values as f64 * churn).ceil() as usize).min(values);
    for rank in 0..ranks {
        // The churned index set is fixed per rank — once a value
        // diverges it stays diverged.
        let mut rng = StdRng::seed_from_u64(seed ^ (rank as u64) << 32);
        let mut indices: Vec<usize> = (0..values).collect();
        for i in (1..indices.len()).rev() {
            indices.swap(i, rng.gen_range(0..i + 1));
        }
        let churned = &indices[..n_churn];
        for &it in iterations {
            let mut vrng = StdRng::seed_from_u64(seed ^ it << 8 ^ rank as u64);
            let base: Vec<f32> = (0..values).map(|_| vrng.gen_range(-1.0..1.0)).collect();
            let mut other = base.clone();
            if diverge_at.is_some_and(|d| it >= d) {
                let step = it - diverge_at.unwrap() + 1;
                for &ix in churned {
                    other[ix] += 0.1 * step as f32;
                }
            }
            a.insert(rank, it, CheckpointSource::in_memory(&base, e).unwrap());
            b.insert(rank, it, CheckpointSource::in_memory(&other, e).unwrap());
        }
    }
    (a, b)
}

/// Oracle + budget assertions for one pair; returns (bisect payload,
/// linear payload) for the caller's strictness checks.
fn assert_oracle(
    e: &CompareEngine,
    a: &CheckpointHistory,
    b: &CheckpointHistory,
    ranks: usize,
    m: usize,
    label: &str,
) -> (u64, u64) {
    let linear = e.compare_history(a, b, &Ctx::default()).unwrap();
    let bis = bisect_first_divergence(e, a, b, &Timeline::wall(), &Observer::disabled()).unwrap();
    assert_eq!(
        bis.first_divergence,
        linear.first_divergence(),
        "{label}: bisection disagrees with the linear scan"
    );
    let budget = ranks as u64 * (2 * ceil_log2(m) + 1);
    assert!(
        bis.comparisons() <= budget,
        "{label}: {} comparisons > budget {budget}",
        bis.comparisons()
    );
    let linear_payload = linear.total_bytes_reread();
    assert!(
        bis.payload_bytes_read <= linear_payload,
        "{label}: bisection read {} payload bytes, linear {}",
        bis.payload_bytes_read,
        linear_payload
    );
    (bis.payload_bytes_read, linear_payload)
}

#[test]
fn seeded_histories_at_every_churn_level() {
    let e = engine();
    let iterations: Vec<u64> = (0..32).map(|i| i * 10).collect();
    for churn in [0.0, 0.05, 0.5, 1.0] {
        // churn 0 means no value ever moves — the clean timeline.
        let diverge_at = if churn == 0.0 { None } else { Some(150) };
        let (a, b) = seeded_pair(&e, 42, 1, &iterations, 320, churn, diverge_at);
        let label = format!("churn {churn}");
        let (bis_payload, linear_payload) = assert_oracle(&e, &a, &b, 1, 32, &label);
        if churn == 0.0 {
            assert_eq!(bis_payload, 0, "clean timelines must read zero payload");
            assert_eq!(linear_payload, 0);
        } else {
            // 17 divergent iterations but only the boundary confirmed:
            // strictly fewer payload bytes than the linear scan.
            assert!(
                bis_payload < linear_payload,
                "{label}: expected strictly fewer payload bytes \
                 ({bis_payload} vs {linear_payload})"
            );
        }
    }
}

#[test]
fn multi_rank_histories_stay_within_the_per_rank_budget() {
    let e = engine();
    let iterations: Vec<u64> = (0..16).collect();
    for ranks in [2, 3] {
        let (a, b) = seeded_pair(&e, 7, ranks, &iterations, 160, 0.25, Some(9));
        assert_oracle(&e, &a, &b, ranks, 16, &format!("{ranks} ranks"));
    }
}

#[test]
fn real_hacc_runs_bisect_to_the_linear_answer() {
    let e = engine();
    // Two mini-HACC runs from identical ICs, different interaction
    // orders: the scheduling noise the paper targets. Same particle
    // count both sides, so every checkpoint pair is comparable.
    let capture = |seed: u64| -> CheckpointHistory {
        let mut cfg = HaccConfig::small();
        cfg.particles = 512;
        cfg.order = OrderPolicy::Shuffled { seed };
        let mut sim = Simulation::new(cfg);
        let mut h = CheckpointHistory::new();
        for step in 1..=30u64 {
            sim.step();
            if step % 10 == 0 {
                let p = sim.particles();
                let values: Vec<f32> =
                    p.x.iter()
                        .chain(p.y.iter())
                        .chain(p.z.iter())
                        .copied()
                        .collect();
                h.insert(0, step, CheckpointSource::in_memory(&values, &e).unwrap());
            }
        }
        h
    };
    let a = capture(10);
    let b = capture(20);
    let (bis_payload, linear_payload) = assert_oracle(&e, &a, &b, 1, 3, "mini-HACC");
    // Shuffled orders diverge immediately at this bound; the oracle
    // above already proved both scans agree on where.
    assert!(linear_payload > 0, "expected the runs to diverge");
    assert!(bis_payload <= linear_payload);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random schedules: gappy iteration numbers, 1–3 ranks, any churn,
    /// divergence anywhere (or nowhere). Bisection must always match
    /// the linear scan and stay within the per-rank budget.
    #[test]
    fn random_schedules_agree_with_the_linear_scan(
        seed in 0u64..1_000,
        iteration_set in proptest::collection::btree_set(0u64..500, 1..10),
        ranks in 1usize..4,
        churn in 0.02f64..1.0,
        diverge in (any::<bool>(), any::<proptest::sample::Index>()),
    ) {
        let e = engine();
        let iterations: Vec<u64> = iteration_set.into_iter().collect();
        let m = iterations.len();
        let (has_divergence, at) = diverge;
        let diverge_at = has_divergence.then(|| iterations[at.index(m)]);
        let (a, b) = seeded_pair(&e, seed, ranks, &iterations, 96, churn, diverge_at);

        let linear = e.compare_history(&a, &b, &Ctx::default()).unwrap();
        let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &Observer::disabled())
            .unwrap();
        prop_assert_eq!(bis.first_divergence, linear.first_divergence());
        let budget = ranks as u64 * (2 * ceil_log2(m) + 1);
        prop_assert!(
            bis.comparisons() <= budget,
            "{} comparisons > budget {} (m={}, ranks={})",
            bis.comparisons(), budget, m, ranks
        );
        prop_assert!(bis.payload_bytes_read <= linear.total_bytes_reread());
        // The persistence model holds by construction, so the verdict
        // agrees iteration by iteration with the linear scan's.
        if diverge_at.is_none() {
            prop_assert_eq!(bis.payload_bytes_read, 0);
            // A single-iteration history skips the search; its lone
            // confirmation IS the linear scan and reads no payload.
            if m > 1 {
                prop_assert_eq!(bis.confirmations, 0);
            }
        }
    }
}
