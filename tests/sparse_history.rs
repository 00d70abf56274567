//! `HistoryReport::first_divergence` on sparse histories.
//!
//! Real campaigns rarely produce dense `(rank, iteration)` grids:
//! checkpoint intervals skip iterations, some ranks checkpoint less
//! often than others, and a failed run may leave a single iteration
//! behind. These tests pin the divergence-ordering semantics on gappy
//! iteration numbers, rank-sparse grids, and single-entry histories,
//! and close with a proptest comparing `first_divergence` (and the
//! aggregate accessors) against a brute-force reference on randomly
//! shaped histories.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use reprocmp::core::{
    CheckpointHistory, CheckpointSource, CompareEngine, CoreError, Ctx, EngineConfig,
    HistoryEntryReport, HistoryReport,
};

/// Differences summed per iteration, ascending: the divergence
/// growth curve.
fn diffs_by_iteration(report: &HistoryReport) -> BTreeMap<u64, u64> {
    let mut curve = BTreeMap::new();
    for e in &report.entries {
        *curve.entry(e.iteration).or_insert(0) += e.report.stats.diff_count;
    }
    curve
}

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 64,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

/// Deterministic payload for one `(rank, iteration)` checkpoint.
fn payload(rank: usize, iteration: u64, diverged: bool) -> Vec<f32> {
    let mut values: Vec<f32> = (0..96)
        .map(|k| (k as f32 + rank as f32 * 1000.0) * 0.01 + iteration as f32)
        .collect();
    if diverged {
        for v in values.iter_mut().take(3) {
            *v += 0.5;
        }
    }
    values
}

/// Builds the two histories over exactly `keys`; keys in `divergent`
/// differ between the runs (well above the bound).
fn history_pair(
    e: &CompareEngine,
    keys: &BTreeSet<(usize, u64)>,
    divergent: &BTreeSet<(usize, u64)>,
) -> (CheckpointHistory, CheckpointHistory) {
    let mut a = CheckpointHistory::new();
    let mut b = CheckpointHistory::new();
    for &(rank, iteration) in keys {
        let base = payload(rank, iteration, false);
        a.insert(
            rank,
            iteration,
            CheckpointSource::in_memory(&base, e).unwrap(),
        );
        let other = payload(rank, iteration, divergent.contains(&(rank, iteration)));
        b.insert(
            rank,
            iteration,
            CheckpointSource::in_memory(&other, e).unwrap(),
        );
    }
    (a, b)
}

/// Brute-force reference: the earliest `(iteration, rank)` among the
/// keys seeded divergent.
fn brute_force_first(divergent: &BTreeSet<(usize, u64)>) -> Option<(u64, usize)> {
    divergent.iter().map(|&(rank, it)| (it, rank)).min()
}

// ---------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------

/// Gappy iteration numbers: nothing assumes contiguity — the first
/// divergence is the earliest *present* iteration that diverged, even
/// across a three-orders-of-magnitude gap.
#[test]
fn gappy_iterations_order_by_value_not_position() {
    let e = engine();
    let keys: BTreeSet<_> = [(0usize, 3u64), (0, 17), (0, 1000), (0, 1001)].into();
    let divergent: BTreeSet<_> = [(0usize, 1000u64), (0, 1001)].into();
    let (a, b) = history_pair(&e, &keys, &divergent);
    let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
    assert_eq!(report.first_divergence(), Some((1000, 0)));
    let curve = diffs_by_iteration(&report);
    assert_eq!(curve[&3], 0);
    assert_eq!(curve[&17], 0);
    assert!(curve[&1000] > 0);
}

/// Rank-sparse grids: rank 1 checkpoints only occasionally (on both
/// sides, so the key sets agree). A divergence on the sparse rank at
/// an early iteration beats a dense-rank divergence at a later one,
/// and within one iteration the lowest rank wins.
#[test]
fn sparse_ranks_tiebreak_iteration_then_rank() {
    let e = engine();
    let keys: BTreeSet<_> = [
        (0usize, 10u64),
        (0, 20),
        (0, 30),
        (1, 20), // rank 1 only at iteration 20
    ]
    .into();
    // Rank 1 diverges at 20; rank 0 diverges later, at 30.
    let divergent: BTreeSet<_> = [(1usize, 20u64), (0, 30)].into();
    let (a, b) = history_pair(&e, &keys, &divergent);
    let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
    assert_eq!(report.first_divergence(), Some((20, 1)));

    // Same iteration, both ranks divergent: rank 0 wins the tie.
    let divergent: BTreeSet<_> = [(0usize, 20u64), (1, 20)].into();
    let (a, b) = history_pair(&e, &keys, &divergent);
    let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
    assert_eq!(report.first_divergence(), Some((20, 0)));
}

/// A rank present on one side but missing on the other is a hard
/// mismatch, not a silent skip: `compare_history` refuses the pair.
#[test]
fn missing_ranks_on_one_side_error_rather_than_skip() {
    let e = engine();
    let keys: BTreeSet<_> = [(0usize, 10u64), (1, 10)].into();
    let (a, _) = history_pair(&e, &keys, &BTreeSet::new());
    let solo: BTreeSet<_> = [(0usize, 10u64)].into();
    let (_, b) = history_pair(&e, &solo, &BTreeSet::new());
    assert!(matches!(
        e.compare_history(&a, &b, &Ctx::default()),
        Err(CoreError::Mismatch(_))
    ));
}

/// Single-iteration histories: divergence either is that iteration or
/// there is none.
#[test]
fn single_iteration_histories() {
    let e = engine();
    let keys: BTreeSet<_> = [(2usize, 77u64)].into();
    let (a, b) = history_pair(&e, &keys, &BTreeSet::new());
    let clean = e.compare_history(&a, &b, &Ctx::default()).unwrap();
    assert!(clean.identical());
    assert_eq!(clean.first_divergence(), None);

    let divergent: BTreeSet<_> = [(2usize, 77u64)].into();
    let (a, b) = history_pair(&e, &keys, &divergent);
    let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
    assert_eq!(report.first_divergence(), Some((77, 2)));
    assert_eq!(report.entries.len(), 1);
}

// ---------------------------------------------------------------------
// Proptest vs brute force
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On randomly shaped sparse histories, `first_divergence`,
    /// `identical`, `total_diffs`, and `diffs_by_iteration` all agree
    /// with a brute-force reference over the seeded divergent set.
    #[test]
    fn first_divergence_matches_brute_force(
        raw_keys in proptest::collection::btree_set((0usize..4, 0u64..40), 1..10),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
    ) {
        let e = engine();
        let keys: Vec<(usize, u64)> = raw_keys.iter().copied().collect();
        let divergent: BTreeSet<(usize, u64)> =
            picks.iter().map(|ix| keys[ix.index(keys.len())]).collect();
        let (a, b) = history_pair(&e, &raw_keys, &divergent);
        let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();

        prop_assert_eq!(report.first_divergence(), brute_force_first(&divergent));
        prop_assert_eq!(report.identical(), divergent.is_empty());
        // Each divergent pair differs in exactly 3 values.
        prop_assert_eq!(report.total_diffs(), divergent.len() as u64 * 3);
        for (&iteration, &diffs) in &diffs_by_iteration(&report) {
            let expected = divergent
                .iter()
                .filter(|&&(_, it)| it == iteration)
                .count() as u64
                * 3;
            prop_assert_eq!(diffs, expected);
        }
    }

    /// Constructed directly (no engine): `first_divergence` over an
    /// arbitrary entry order still returns the global
    /// iteration-major minimum.
    #[test]
    fn direct_report_minimum_is_order_independent(
        raw_keys in proptest::collection::btree_set((0usize..4, 0u64..40), 1..10),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..6),
        rotate in any::<proptest::sample::Index>(),
    ) {
        let e = engine();
        let keys: Vec<(usize, u64)> = raw_keys.iter().copied().collect();
        let divergent: BTreeSet<(usize, u64)> =
            picks.iter().map(|ix| keys[ix.index(keys.len())]).collect();

        let mut entries: Vec<HistoryEntryReport> = keys
            .iter()
            .map(|&(rank, iteration)| {
                let va = payload(rank, iteration, false);
                let vb = payload(rank, iteration, divergent.contains(&(rank, iteration)));
                let sa = CheckpointSource::in_memory(&va, &e).unwrap();
                let sb = CheckpointSource::in_memory(&vb, &e).unwrap();
                HistoryEntryReport {
                    rank,
                    iteration,
                    report: e.compare(&sa, &sb, &Ctx::default()).unwrap(),
                }
            })
            .collect();
        let mid = rotate.index(entries.len());
        entries.rotate_left(mid);
        let report = HistoryReport { entries };
        prop_assert_eq!(report.first_divergence(), brute_force_first(&divergent));
    }
}
