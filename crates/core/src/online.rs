//! Online comparison — the paper's first future-work item.
//!
//! Offline comparison reads *both* runs' flagged chunks back from the
//! PFS. When the comparison runs *inside* the second run (at
//! checkpoint time, while the data is still in memory), only the
//! first run's history ever touches the PFS: the current run's tree
//! is built in memory, the reference tree metadata streams in, and
//! stage two reads the *reference* side of each flagged chunk only —
//! halving stage-two I/O and catching divergence the moment it
//! happens instead of after both runs finish.
//!
//! [`OnlineComparator`] wraps that loop: construct it over the
//! reference run's [`CheckpointHistory`], then call
//! [`OnlineComparator::observe`] each time the live run checkpoints.
//! An [`OnlinePolicy`] can abort the analysis (e.g. stop a doomed
//! reproduction run early) once divergence crosses a threshold.

use reprocmp_hash::Floats;
use reprocmp_io::{IoError, MemStorage};
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::engine::CompareEngine;
use crate::history::CheckpointHistory;
use crate::report::{DataStats, Difference};
use crate::source::CheckpointSource;
use crate::{CoreError, CoreResult};

/// What to do as divergence accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlinePolicy {
    /// Analyze every observed checkpoint regardless.
    Continue,
    /// Refuse further observations once total differences exceed the
    /// threshold (the run is clearly not reproducing; stop paying for
    /// analysis).
    AbortAfter {
        /// Total-difference threshold.
        max_total_diffs: u64,
    },
}

/// The verdict for one observed checkpoint.
#[derive(Debug, Clone)]
pub enum OnlineVerdict {
    /// Within the bound everywhere; `bytes_read` is the reference data
    /// volume fetched (0 when the trees matched outright).
    Clean {
        /// Reference bytes fetched for verification.
        bytes_read: u64,
    },
    /// Real divergence: count plus localized samples.
    Diverged {
        /// Values beyond the bound in this checkpoint.
        diff_count: u64,
        /// Localized samples (capped by the engine config).
        differences: Vec<Difference>,
    },
    /// The abort policy has tripped; the observation was not analyzed.
    Halted,
}

/// One observation's bookkeeping entry.
#[derive(Debug, Clone)]
pub struct OnlineEntry {
    /// Rank that produced the observation.
    pub rank: usize,
    /// Iteration observed.
    pub iteration: u64,
    /// Volume/accuracy stats for this observation.
    pub stats: DataStats,
}

/// The online comparison session.
#[derive(Debug)]
pub struct OnlineComparator {
    engine: CompareEngine,
    reference: CheckpointHistory,
    policy: OnlinePolicy,
    entries: Vec<OnlineEntry>,
    total_diffs: u64,
    halted: bool,
    journal: reprocmp_obs::Journal,
}

impl OnlineComparator {
    /// Starts a session comparing live checkpoints against
    /// `reference`.
    #[must_use]
    pub fn new(engine: CompareEngine, reference: CheckpointHistory, policy: OnlinePolicy) -> Self {
        OnlineComparator {
            engine,
            reference,
            policy,
            entries: Vec::new(),
            total_diffs: 0,
            halted: false,
            journal: reprocmp_obs::Journal::disabled(),
        }
    }

    /// Routes flight-recorder events (the `divergence` event when the
    /// abort policy trips) into `journal`. Without this the comparator
    /// stays silent — a disabled journal costs one branch per observe.
    #[must_use]
    pub fn with_journal(mut self, journal: reprocmp_obs::Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Observes the live run's checkpoint for `(rank, iteration)`:
    /// hashes it in memory, compares against the reference metadata,
    /// and verifies flagged chunks against reference data only.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mismatch`] when the reference has no checkpoint
    /// for this key or geometries disagree; I/O and codec errors from
    /// the reference storage.
    pub fn observe(
        &mut self,
        rank: usize,
        iteration: u64,
        values: &[f32],
    ) -> CoreResult<OnlineVerdict> {
        if self.halted {
            return Ok(OnlineVerdict::Halted);
        }
        let reference = self.reference.get(rank, iteration).ok_or_else(|| {
            CoreError::Mismatch(format!(
                "reference history has no checkpoint for rank {rank} iteration {iteration}"
            ))
        })?;
        if reference.payload_len != (values.len() * 4) as u64 {
            return Err(CoreError::Mismatch(format!(
                "live checkpoint has {} values, reference {}",
                values.len(),
                reference.value_count()
            )));
        }

        // The live side never leaves memory: its payload bytes and the
        // tree just captured over them, so stage two reads the
        // reference side only from storage.
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (live_tree, _) = self.engine.capture(Floats::LeBytes(&payload));
        let live = CheckpointSource::new(
            Arc::new(MemStorage::free(payload)),
            0,
            reference.payload_len,
            Arc::new(MemStorage::free(reprocmp_merkle::encode_tree(&live_tree))),
        );
        let report = self.engine.compare(reference, &live, &Ctx::default())?;
        // Quarantined chunks are unverified, not clean: online stays
        // fail-fast on a failed read under every failure policy.
        if let Some(r) = report.unverified.first() {
            let what = format!("reference chunks {}.. unreadable", r.first);
            return Err(CoreError::Io(IoError::Os(std::io::Error::other(what))));
        }
        let (stats, differences) = (report.stats, report.differences);

        self.total_diffs += stats.diff_count;
        self.entries.push(OnlineEntry {
            rank,
            iteration,
            stats,
        });
        if let OnlinePolicy::AbortAfter { max_total_diffs } = self.policy {
            if self.total_diffs > max_total_diffs {
                self.halted = true;
                self.journal.emit(
                    "online",
                    reprocmp_obs::EventKind::Divergence {
                        rank: rank as u64,
                        iteration,
                        total_diffs: self.total_diffs,
                        threshold: max_total_diffs,
                    },
                );
            }
        }

        Ok(if stats.diff_count > 0 {
            OnlineVerdict::Diverged {
                diff_count: stats.diff_count,
                differences,
            }
        } else {
            OnlineVerdict::Clean {
                bytes_read: stats.bytes_reread,
            }
        })
    }

    /// All observations so far, in arrival order.
    #[must_use]
    pub fn entries(&self) -> &[OnlineEntry] {
        &self.entries
    }

    /// Total differences across the session.
    #[must_use]
    pub fn total_diffs(&self) -> u64 {
        self.total_diffs
    }

    /// The earliest `(iteration, rank)` observed to diverge.
    #[must_use]
    pub fn first_divergence(&self) -> Option<(u64, usize)> {
        self.entries
            .iter()
            .filter(|e| e.stats.diff_count > 0)
            .map(|e| (e.iteration, e.rank))
            .min()
    }

    /// True once the abort policy tripped.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reference bytes fetched across the whole session — the I/O
    /// the online mode pays (the offline mode pays roughly twice
    /// this, plus writing the live run's checkpoints first).
    #[must_use]
    pub fn total_bytes_read(&self) -> u64 {
        self.entries.iter().map(|e| e.stats.bytes_reread).sum()
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

    fn reference(e: &CompareEngine, iters: &[u64]) -> (CheckpointHistory, Vec<Vec<f32>>) {
        let mut h = CheckpointHistory::new();
        let mut payloads = Vec::new();
        for &it in iters {
            let values: Vec<f32> = (0..300).map(|k| k as f32 * 0.01 + it as f32).collect();
            h.insert(0, it, CheckpointSource::in_memory(&values, e).unwrap());
            payloads.push(values);
        }
        (h, payloads)
    }

    #[test]
    fn clean_run_reads_no_data() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10, 20]);
        let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);
        for (values, it) in payloads.iter().zip([10u64, 20]) {
            match online.observe(0, it, values).unwrap() {
                OnlineVerdict::Clean { bytes_read } => assert_eq!(bytes_read, 0),
                other => panic!("expected clean, got {other:?}"),
            }
        }
        assert_eq!(online.total_bytes_read(), 0);
        assert_eq!(online.first_divergence(), None);
    }

    #[test]
    fn divergence_detected_at_the_right_iteration_and_index() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10, 20, 30]);
        let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);

        // Iteration 10 matches; 20 diverges at value 123.
        assert!(matches!(
            online.observe(0, 10, &payloads[0]).unwrap(),
            OnlineVerdict::Clean { .. }
        ));
        let mut live = payloads[1].clone();
        live[123] += 0.25;
        match online.observe(0, 20, &live).unwrap() {
            OnlineVerdict::Diverged {
                diff_count,
                differences,
            } => {
                assert_eq!(diff_count, 1);
                assert_eq!(differences[0].index, 123);
                assert_eq!(differences[0].a, payloads[1][123]);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert_eq!(online.first_divergence(), Some((20, 0)));
        // Only flagged reference chunks were read: one 64 B chunk.
        assert_eq!(online.total_bytes_read(), 64);
    }

    #[test]
    fn within_bound_drift_is_clean_but_may_read_data() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10]);
        let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);
        // Shift everything by half the bound: possibly flagged
        // (straddles), never diverged.
        let live: Vec<f32> = payloads[0].iter().map(|v| v + 4e-6).collect();
        match online.observe(0, 10, &live).unwrap() {
            OnlineVerdict::Clean { .. } => {}
            other => panic!("expected clean, got {other:?}"),
        }
        assert_eq!(online.total_diffs(), 0);
    }

    #[test]
    fn abort_policy_halts_the_session() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10, 20]);
        let mut online =
            OnlineComparator::new(e, h, OnlinePolicy::AbortAfter { max_total_diffs: 5 });
        let live: Vec<f32> = payloads[0].iter().map(|v| v + 1.0).collect();
        match online.observe(0, 10, &live).unwrap() {
            OnlineVerdict::Diverged { diff_count, .. } => assert_eq!(diff_count, 300),
            other => panic!("{other:?}"),
        }
        assert!(online.halted());
        assert!(matches!(
            online.observe(0, 20, &payloads[1]).unwrap(),
            OnlineVerdict::Halted
        ));
        // The halted observation was not recorded.
        assert_eq!(online.entries().len(), 1);
    }

    #[test]
    fn abort_emits_a_divergence_event() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10]);
        let journal = reprocmp_obs::Journal::new(reprocmp_obs::ObsClock::wall());
        let mut online =
            OnlineComparator::new(e, h, OnlinePolicy::AbortAfter { max_total_diffs: 5 })
                .with_journal(journal.clone());
        let live: Vec<f32> = payloads[0].iter().map(|v| v + 1.0).collect();
        online.observe(0, 10, &live).unwrap();
        assert!(online.halted());
        let events: Vec<_> = journal
            .events()
            .into_iter()
            .filter(|ev| matches!(ev.kind, reprocmp_obs::EventKind::Divergence { .. }))
            .collect();
        assert_eq!(events.len(), 1, "exactly one divergence event");
        match &events[0].kind {
            reprocmp_obs::EventKind::Divergence {
                rank,
                iteration,
                total_diffs,
                threshold,
            } => {
                assert_eq!(*rank, 0);
                assert_eq!(*iteration, 10);
                assert_eq!(*total_diffs, 300);
                assert_eq!(*threshold, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_key_and_wrong_size_error() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10]);
        let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);
        assert!(matches!(
            online.observe(0, 99, &payloads[0]),
            Err(CoreError::Mismatch(_))
        ));
        assert!(matches!(
            online.observe(0, 10, &payloads[0][..100]),
            Err(CoreError::Mismatch(_))
        ));
    }

    #[test]
    fn online_agrees_with_offline_engine() {
        let e = engine();
        let (h, payloads) = reference(&e, &[10]);
        let mut live = payloads[0].clone();
        for k in [5usize, 100, 299] {
            live[k] -= 0.125;
        }
        // Offline:
        let a = h.get(0, 10).unwrap();
        let b = CheckpointSource::in_memory(&live, &e).unwrap();
        let offline = e.compare(a, &b, &Ctx::default()).unwrap();
        // Online:
        let mut online = OnlineComparator::new(e.clone(), h.clone(), OnlinePolicy::Continue);
        match online.observe(0, 10, &live).unwrap() {
            OnlineVerdict::Diverged {
                diff_count,
                differences,
            } => {
                assert_eq!(diff_count, offline.stats.diff_count);
                let on: Vec<u64> = differences.iter().map(|d| d.index).collect();
                let off: Vec<u64> = offline.differences.iter().map(|d| d.index).collect();
                assert_eq!(on, off);
            }
            other => panic!("{other:?}"),
        }
        // And the online path read at most half the offline volume.
        assert!(online.total_bytes_read() <= offline.stats.bytes_reread);
    }
}
