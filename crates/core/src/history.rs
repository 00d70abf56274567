//! History-level comparison — the paper's problem statement, as an
//! API.
//!
//! *"Given a history of checkpoints `A_i^j` generated by `0 ≤ i < N`
//! distributed processes over `0 ≤ j < M` iterations during Run 1, and
//! a corresponding history `B_i^j` during Run 2, compare `A_i^j` with
//! `B_i^j` and list all intermediate data that are different between
//! the two runs."*
//!
//! [`CheckpointHistory`] indexes one run's checkpoints by
//! `(rank, iteration)`; [`CompareEngine::compare_history`] walks two
//! histories pairwise in iteration-major order and produces a
//! [`HistoryReport`] that answers the questions the paper's
//! introduction motivates: did the runs diverge at all, *when* (the
//! first divergent iteration), *where* (which rank and which values),
//! and how the divergence grew over time.

use std::collections::BTreeMap;

use crate::ctx::Ctx;
use crate::engine::CompareEngine;
use crate::report::CompareReport;
use crate::source::CheckpointSource;
use crate::{CoreError, CoreResult};

/// One run's checkpoint history, keyed by `(rank, iteration)`.
#[derive(Debug, Clone, Default)]
pub struct CheckpointHistory {
    entries: BTreeMap<(usize, u64), CheckpointSource>,
}

impl CheckpointHistory {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        CheckpointHistory::default()
    }

    /// Registers rank `rank`'s checkpoint at `iteration`, replacing
    /// any previous entry for that key.
    pub fn insert(&mut self, rank: usize, iteration: u64, source: CheckpointSource) {
        self.entries.insert((rank, iteration), source);
    }

    /// The checkpoint for `(rank, iteration)`, if present.
    #[must_use]
    pub fn get(&self, rank: usize, iteration: u64) -> Option<&CheckpointSource> {
        self.entries.get(&(rank, iteration))
    }

    /// All `(rank, iteration)` keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<(usize, u64)> {
        self.entries.keys().copied().collect()
    }

    /// Number of checkpoints registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no checkpoints are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The comparison of one `(rank, iteration)` checkpoint pair.
#[derive(Debug, Clone)]
pub struct HistoryEntryReport {
    /// Rank that captured the pair.
    pub rank: usize,
    /// Iteration the pair was captured at.
    pub iteration: u64,
    /// The full comparison report.
    pub report: CompareReport,
}

/// The comparison of two complete histories.
#[derive(Debug, Clone, Default)]
pub struct HistoryReport {
    /// Per-pair reports in iteration-major, then rank, order.
    pub entries: Vec<HistoryEntryReport>,
}

impl HistoryReport {
    /// True when every pair agrees within the bound.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.entries.iter().all(|e| e.report.identical())
    }

    /// Total differences across the whole history.
    #[must_use]
    pub fn total_diffs(&self) -> u64 {
        self.entries.iter().map(|e| e.report.stats.diff_count).sum()
    }

    /// The earliest `(iteration, rank)` at which the runs diverged —
    /// the "when did it go wrong" answer. `None` when identical.
    #[must_use]
    pub fn first_divergence(&self) -> Option<(u64, usize)> {
        self.entries
            .iter()
            .filter(|e| !e.report.identical())
            .map(|e| (e.iteration, e.rank))
            .min()
    }

    /// Bytes re-read across all pairs (the affordability metric).
    #[must_use]
    pub fn total_bytes_reread(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.report.stats.bytes_reread)
            .sum()
    }
}

impl CompareEngine {
    /// Compares two histories pairwise, each pair under `ctx`.
    ///
    /// Pairs are processed iteration-major so that
    /// [`HistoryReport::first_divergence`] can short-circuit analyses
    /// naturally.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mismatch`] when the two histories cover different
    /// `(rank, iteration)` sets; otherwise any per-pair error.
    pub fn compare_history(
        &self,
        a: &CheckpointHistory,
        b: &CheckpointHistory,
        ctx: &Ctx,
    ) -> CoreResult<HistoryReport> {
        if a.keys() != b.keys() {
            return Err(CoreError::Mismatch(format!(
                "histories cover different checkpoints: run 1 has {} entries, run 2 has {}",
                a.len(),
                b.len()
            )));
        }
        // Iteration-major order.
        let mut keys = a.keys();
        keys.sort_by_key(|&(rank, iter)| (iter, rank));

        let mut entries = Vec::with_capacity(keys.len());
        for (rank, iteration) in keys {
            let sa = a.get(rank, iteration).expect("key set verified");
            let sb = b.get(rank, iteration).expect("key set verified");
            let report = self.compare(sa, sb, ctx)?;
            entries.push(HistoryEntryReport {
                rank,
                iteration,
                report,
            });
        }
        Ok(HistoryReport { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    /// Builds a history where rank r's iteration-j checkpoint is a
    /// deterministic function, optionally perturbed from iteration
    /// `diverge_at` onward.
    fn history(
        e: &CompareEngine,
        ranks: usize,
        iters: &[u64],
        diverge_at: Option<u64>,
    ) -> CheckpointHistory {
        let mut h = CheckpointHistory::new();
        for rank in 0..ranks {
            for &it in iters {
                let mut values: Vec<f32> = (0..200)
                    .map(|k| (k as f32 + rank as f32 * 1000.0) * 0.01 + it as f32)
                    .collect();
                if let Some(d) = diverge_at {
                    if it >= d {
                        // Divergence grows with iteration.
                        let n_changed = ((it - d + 1) * 2) as usize;
                        for slot in values.iter_mut().take(n_changed) {
                            *slot += 0.5;
                        }
                    }
                }
                let src = CheckpointSource::in_memory(&values, e).unwrap();
                h.insert(rank, it, src);
            }
        }
        h
    }

    #[test]
    fn identical_histories_report_identical() {
        let e = engine();
        let a = history(&e, 2, &[10, 20, 30], None);
        let b = history(&e, 2, &[10, 20, 30], None);
        let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
        assert!(report.identical());
        assert_eq!(report.total_diffs(), 0);
        assert_eq!(report.first_divergence(), None);
        assert_eq!(report.entries.len(), 6);
        assert_eq!(report.total_bytes_reread(), 0);
    }

    #[test]
    fn first_divergence_is_earliest_iteration() {
        let e = engine();
        let a = history(&e, 2, &[10, 20, 30, 40], None);
        let b = history(&e, 2, &[10, 20, 30, 40], Some(20));
        let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
        assert!(!report.identical());
        assert_eq!(report.first_divergence(), Some((20, 0)));
        // Divergence curve grows.
        let mut curve = std::collections::BTreeMap::new();
        for e in &report.entries {
            *curve.entry(e.iteration).or_insert(0) += e.report.stats.diff_count;
        }
        assert_eq!(curve[&10], 0);
        assert!(curve[&20] > 0);
        assert!(curve[&40] > curve[&20]);
    }

    #[test]
    fn entries_are_iteration_major() {
        let e = engine();
        let a = history(&e, 3, &[10, 20], None);
        let b = history(&e, 3, &[10, 20], None);
        let report = e.compare_history(&a, &b, &Ctx::default()).unwrap();
        let order: Vec<(u64, usize)> = report
            .entries
            .iter()
            .map(|x| (x.iteration, x.rank))
            .collect();
        assert_eq!(
            order,
            vec![(10, 0), (10, 1), (10, 2), (20, 0), (20, 1), (20, 2)]
        );
    }

    #[test]
    fn mismatched_key_sets_error() {
        let e = engine();
        let a = history(&e, 2, &[10, 20], None);
        let b = history(&e, 2, &[10], None);
        assert!(matches!(
            e.compare_history(&a, &b, &Ctx::default()),
            Err(CoreError::Mismatch(_))
        ));
        let c = history(&e, 1, &[10, 20], None);
        assert!(e.compare_history(&a, &c, &Ctx::default()).is_err());
    }

    #[test]
    fn history_accessors() {
        let e = engine();
        let h = history(&e, 2, &[10, 30], None);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert!(h.get(1, 30).is_some());
        assert!(h.get(2, 30).is_none());
        assert!(h.get(1, 40).is_none());
    }

    #[test]
    fn empty_histories_compare_trivially() {
        let e = engine();
        let report = e
            .compare_history(
                &CheckpointHistory::new(),
                &CheckpointHistory::new(),
                &Ctx::default(),
            )
            .unwrap();
        assert!(report.identical());
        assert!(report.entries.is_empty());
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let e = engine();
        let mut h = CheckpointHistory::new();
        let v1: Vec<f32> = vec![1.0; 64];
        let v2: Vec<f32> = vec![2.0; 64];
        h.insert(0, 10, CheckpointSource::in_memory(&v1, &e).unwrap());
        h.insert(0, 10, CheckpointSource::in_memory(&v2, &e).unwrap());
        assert_eq!(h.len(), 1);
        // The surviving entry is v2: comparing against a fresh v2
        // source is identical.
        let mut other = CheckpointHistory::new();
        other.insert(0, 10, CheckpointSource::in_memory(&v2, &e).unwrap());
        assert!(e
            .compare_history(&h, &other, &Ctx::default())
            .unwrap()
            .identical());
    }
}
