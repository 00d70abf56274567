//! Timeline bisection: the first divergent iteration in O(log M)
//! stage-1 probes plus one stage-2 confirmation.
//!
//! # The bisection invariant
//!
//! The linear scan (`CompareEngine::compare_history`) adjudicates all
//! M iterations; its answer is the iteration-major minimum divergent
//! `(iteration, rank)`. Bisection reaches the same answer under the
//! *persistence* model that restart-identical reproduction runs obey:
//! once real divergence appears at iteration `d`, every later
//! iteration diverges too (state evolves from state — a perturbation
//! does not heal). Under that model the per-iteration stage-1 verdict
//! is monotone: clean-prefix, flagged-suffix. Binary search over the
//! sorted iterations finds the boundary in ⌈log₂ M⌉ probes, each
//! reading **only metadata**; the conservative guarantee makes every
//! *clean* probe final, so only the boundary itself needs a stage-2
//! confirmation to (a) filter quantization-boundary false positives
//! and (b) name the divergent rank and values.
//!
//! If the boundary confirmation reveals an all-false-positive
//! iteration (possible when differences ride exactly on the ε grid),
//! the search resumes to the right — correctness never depends on the
//! persistence model, only the O(log M) bound does.

use reprocmp_core::{CheckpointHistory, CompareEngine, CompareReport, CoreError, CoreResult, Ctx};
use reprocmp_io::Timeline;
use reprocmp_obs::{EventKind, Observer};

use crate::probe::{probe_pair, ProbeStats};

/// What bisection found and what it cost.
#[derive(Debug, Clone)]
pub struct BisectionResult {
    /// The earliest truly divergent `(iteration, rank)`, or `None`
    /// when the histories agree within the bound everywhere.
    pub first_divergence: Option<(u64, usize)>,
    /// Stage-1 probe accounting (tree compares, metadata bytes).
    pub probes: ProbeStats,
    /// Full stage-2 comparisons performed at candidate boundaries.
    pub confirmations: u64,
    /// Payload bytes streamed by those confirmations (both sides).
    pub payload_bytes_read: u64,
    /// The confirming report at the divergence boundary, when any.
    pub boundary_report: Option<CompareReport>,
}

impl BisectionResult {
    /// Total pairwise comparisons: stage-1 tree compares plus stage-2
    /// confirmations — the number the oracle bounds by
    /// `2·⌈log₂ M⌉ + 1` per rank.
    #[must_use]
    pub fn comparisons(&self) -> u64 {
        self.probes.tree_compares + self.confirmations
    }
}

/// Distinct iterations of a history, ascending, with the ranks
/// present at each (ascending within the iteration).
fn iteration_groups(h: &CheckpointHistory) -> Vec<(u64, Vec<usize>)> {
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut keys = h.keys();
    keys.sort_by_key(|&(rank, iter)| (iter, rank));
    for (rank, iter) in keys {
        match groups.last_mut() {
            Some((it, ranks)) if *it == iter => ranks.push(rank),
            _ => groups.push((iter, vec![rank])),
        }
    }
    groups
}

/// Finds the first `(iteration, rank)` at which two histories truly
/// diverge — the exact answer `compare_history(...).first_divergence()`
/// gives — in O(log M) stage-1 probes and (absent ε-grid false
/// positives) a single confirmed boundary.
///
/// Emits `analyze.*` counters into `obs` and, when the journal is
/// armed, a typed `divergence` event at the confirmed boundary.
///
/// # Errors
///
/// [`CoreError::Mismatch`] when the histories cover different
/// `(rank, iteration)` sets; storage/codec errors from probing.
pub fn bisect_first_divergence(
    engine: &CompareEngine,
    a: &CheckpointHistory,
    b: &CheckpointHistory,
    timeline: &Timeline,
    obs: &Observer,
) -> CoreResult<BisectionResult> {
    if a.keys() != b.keys() {
        return Err(CoreError::Mismatch(format!(
            "histories cover different checkpoints: run 1 has {} entries, run 2 has {}",
            a.len(),
            b.len()
        )));
    }
    let groups = iteration_groups(a);
    let m = groups.len();
    let mut result = BisectionResult {
        first_divergence: None,
        probes: ProbeStats::default(),
        confirmations: 0,
        payload_bytes_read: 0,
        boundary_report: None,
    };

    // Stage-1 verdict for one iteration: flagged iff any rank's tree
    // pair mismatches (short-circuits on the first flagged rank).
    let flagged =
        |groups: &[(u64, Vec<usize>)], ix: usize, probes: &mut ProbeStats| -> CoreResult<bool> {
            let (iteration, ranks) = &groups[ix];
            for &rank in ranks {
                let sa = a.get(rank, *iteration).expect("key set verified");
                let sb = b.get(rank, *iteration).expect("key set verified");
                if !probe_pair(sa, sb, engine, probes)?.identical() {
                    return Ok(true);
                }
            }
            Ok(false)
        };

    // Leftmost stage-1-flagged iteration index in [lo, m), or m when
    // the whole suffix is clean. Single-iteration histories skip the
    // search entirely — the confirmation below IS the linear scan.
    let mut lo = 0usize;
    if m > 1 {
        let mut hi = m;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if flagged(&groups, mid, &mut result.probes)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }

    // Confirm candidate boundaries left to right until one holds a
    // real difference. With bit-identical clean prefixes (the restart
    // model) the first candidate confirms immediately.
    // Confirmations are timed on `timeline` but record into no
    // observer; only the divergence event below reaches `obs`.
    let confirm_ctx = Ctx {
        timeline: timeline.clone(),
        ..Ctx::default()
    };
    while lo < m {
        let (iteration, ranks) = &groups[lo];
        let mut iteration_diverged = false;
        for &rank in ranks {
            let sa = a.get(rank, *iteration).expect("key set verified");
            let sb = b.get(rank, *iteration).expect("key set verified");
            let report = engine.compare(sa, sb, &confirm_ctx)?;
            result.confirmations += 1;
            result.payload_bytes_read += report.stats.bytes_reread;
            if !report.identical() {
                obs.journal().emit(
                    "analyze",
                    EventKind::Divergence {
                        rank: rank as u64,
                        iteration: *iteration,
                        total_diffs: report.stats.diff_count,
                        threshold: 0,
                    },
                );
                result.first_divergence = Some((*iteration, rank));
                result.boundary_report = Some(report);
                iteration_diverged = true;
                break;
            }
        }
        if iteration_diverged {
            break;
        }
        lo += 1;
        // ε-grid false positive: this iteration was flagged but holds
        // no real difference. Later iterations may still diverge; keep
        // probing rightward (clean probes remain final).
        while lo < m && !flagged(&groups, lo, &mut result.probes)? {
            lo += 1;
        }
    }

    obs.registry
        .counter("analyze.bisect_probes")
        .add(result.probes.tree_compares);
    obs.registry
        .counter("analyze.bisect_confirmations")
        .add(result.confirmations);
    obs.registry
        .counter("analyze.bisect_payload_bytes")
        .add(result.payload_bytes_read);
    obs.registry
        .counter("analyze.bisect_metadata_bytes")
        .add(result.probes.metadata_bytes_read);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_core::{CheckpointSource, EngineConfig};

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    /// Persistence-model pair: divergence appears at `diverge_at` and
    /// grows with iteration.
    fn pair(
        e: &CompareEngine,
        ranks: usize,
        iters: &[u64],
        diverge_at: Option<u64>,
    ) -> (CheckpointHistory, CheckpointHistory) {
        let mut a = CheckpointHistory::new();
        let mut b = CheckpointHistory::new();
        for rank in 0..ranks {
            for &it in iters {
                let base: Vec<f32> = (0..200)
                    .map(|k| (k as f32 + rank as f32 * 1000.0) * 0.01 + it as f32)
                    .collect();
                let mut other = base.clone();
                if let Some(d) = diverge_at {
                    if it >= d {
                        let n = ((it - d + 1) * 2) as usize;
                        for v in other.iter_mut().take(n) {
                            *v += 0.5;
                        }
                    }
                }
                a.insert(rank, it, CheckpointSource::in_memory(&base, e).unwrap());
                b.insert(rank, it, CheckpointSource::in_memory(&other, e).unwrap());
            }
        }
        (a, b)
    }

    #[test]
    fn matches_linear_scan_and_stays_within_the_probe_budget() {
        let e = engine();
        let iters: Vec<u64> = (0..32).map(|i| i * 10).collect();
        for diverge_at in [None, Some(0), Some(150), Some(310)] {
            let (a, b) = pair(&e, 1, &iters, diverge_at);
            let linear = e.compare_history(&a, &b, &Ctx::default()).unwrap();
            let obs = Observer::disabled();
            let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &obs).unwrap();
            assert_eq!(
                bis.first_divergence,
                linear.first_divergence(),
                "diverge_at={diverge_at:?}"
            );
            let bound = 2 * 32u64.ilog2() as u64 + 1;
            assert!(
                bis.comparisons() <= bound,
                "diverge_at={diverge_at:?}: {} comparisons > {bound}",
                bis.comparisons()
            );
            assert!(bis.payload_bytes_read <= linear.total_bytes_reread());
        }
    }

    #[test]
    fn multi_rank_boundary_names_the_lowest_divergent_rank() {
        let e = engine();
        let iters: Vec<u64> = (0..8).collect();
        let (a, b) = pair(&e, 3, &iters, Some(5));
        let linear = e.compare_history(&a, &b, &Ctx::default()).unwrap();
        let obs = Observer::disabled();
        let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &obs).unwrap();
        assert_eq!(bis.first_divergence, Some((5, 0)));
        assert_eq!(bis.first_divergence, linear.first_divergence());
    }

    #[test]
    fn clean_histories_read_zero_payload_bytes() {
        let e = engine();
        let (a, b) = pair(&e, 2, &[1, 2, 3, 4, 5], None);
        let obs = Observer::disabled();
        let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &obs).unwrap();
        assert_eq!(bis.first_divergence, None);
        assert_eq!(bis.confirmations, 0);
        assert_eq!(bis.payload_bytes_read, 0);
        assert!(bis.probes.metadata_bytes_read > 0);
    }

    #[test]
    fn single_iteration_history_is_one_comparison() {
        let e = engine();
        let (a, b) = pair(&e, 1, &[42], Some(42));
        let obs = Observer::disabled();
        let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &obs).unwrap();
        assert_eq!(bis.first_divergence, Some((42, 0)));
        assert_eq!(bis.comparisons(), 1);
    }

    #[test]
    fn mismatched_key_sets_error() {
        let e = engine();
        let (a, _) = pair(&e, 1, &[1, 2], None);
        let (_, b) = pair(&e, 1, &[1], None);
        assert!(matches!(
            bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &Observer::disabled()),
            Err(CoreError::Mismatch(_))
        ));
    }

    #[test]
    fn counters_and_divergence_event_are_recorded() {
        let e = engine();
        let (a, b) = pair(&e, 1, &[0, 1, 2, 3], Some(2));
        let obs = Observer::with_journal(reprocmp_obs::ObsClock::frozen());
        let bis = bisect_first_divergence(&e, &a, &b, &Timeline::wall(), &obs).unwrap();
        assert_eq!(bis.first_divergence, Some((2, 0)));
        assert_eq!(
            obs.registry.counter("analyze.bisect_probes").get(),
            bis.probes.tree_compares
        );
        assert_eq!(
            obs.registry.counter("analyze.bisect_confirmations").get(),
            1
        );
        let divergence_events = obs
            .journal()
            .events()
            .into_iter()
            .filter(|ev| matches!(ev.kind, EventKind::Divergence { .. }))
            .count();
        assert_eq!(divergence_events, 1);
    }
}
