//! Divergence-front tracking: how far the damage has spread, per
//! iteration, from metadata alone.
//!
//! The *front* at iteration `j` is the set of `(rank, chunk)` pairs
//! whose stage-1 leaf digests disagree — the conservative footprint
//! of divergence. Tracking it across a history answers the question
//! the first-divergence number cannot: is the perturbation **contained**
//! (a stable handful of chunks), **spreading** (the chaotic growth a
//! real physics divergence shows), or **saturated** (the runs have
//! effectively nothing in common any more)? All of it reads only
//! Merkle metadata, so an N-iteration trajectory with a clean prefix
//! costs payload-zero I/O for that prefix — and for the divergent
//! suffix too; fronts never need stage 2, because over-flagging a
//! boundary-straddling chunk moves no classification by more than the
//! flagged-set slack the conservative guarantee already implies.

use std::collections::BTreeSet;

use reprocmp_core::{CheckpointHistory, CompareEngine, CoreError, CoreResult};
use reprocmp_obs::Observer;
use serde::Serialize;

use crate::probe::{probe_pair, ProbeStats};

/// Fraction of all chunks at which a front counts as saturated.
pub const SATURATION_FRACTION: f64 = 0.9;

/// How the divergence footprint evolves over the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SpreadClass {
    /// No iteration flagged any chunk.
    Clean,
    /// Flagged chunks exist but the front never grew past its first
    /// size — a localized, stable perturbation.
    Contained,
    /// The front grew across iterations but stayed below saturation.
    Spreading,
    /// The final front covers at least [`SATURATION_FRACTION`] of all
    /// `(rank, chunk)` slots.
    Saturated,
}

/// One iteration's front.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontSnapshot {
    /// Iteration number.
    pub iteration: u64,
    /// Flagged `(rank, chunk)` slots at this iteration.
    pub flagged: u64,
    /// Slots flagged here that no earlier iteration flagged.
    pub new_flagged: u64,
    /// `flagged / total_slots`.
    pub fraction: f64,
}

/// The full trajectory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontTrack {
    /// Per-iteration snapshots, iteration-ascending.
    pub snapshots: Vec<FrontSnapshot>,
    /// Total `(rank, chunk)` slots per iteration (ranks × chunks).
    pub total_slots: u64,
    /// Spread classification over the whole trajectory.
    pub classification: SpreadClass,
    /// Mean front growth between consecutive *flagged* snapshots, in
    /// slots per iteration step; 0 for clean or single-snapshot fronts.
    pub growth_per_iteration: f64,
}

fn classify(snapshots: &[FrontSnapshot]) -> (SpreadClass, f64) {
    let flagged: Vec<&FrontSnapshot> = snapshots.iter().filter(|s| s.flagged > 0).collect();
    let Some(first) = flagged.first() else {
        return (SpreadClass::Clean, 0.0);
    };
    let last = flagged.last().expect("non-empty");
    let growth = if flagged.len() > 1 {
        (last.flagged as f64 - first.flagged as f64) / (flagged.len() - 1) as f64
    } else {
        0.0
    };
    let class = if last.fraction >= SATURATION_FRACTION {
        SpreadClass::Saturated
    } else if last.flagged > first.flagged {
        SpreadClass::Spreading
    } else {
        SpreadClass::Contained
    };
    (class, growth)
}

/// Tracks the divergence front across two histories — stage-1 probes
/// only, every iteration, every rank.
///
/// Bumps `analyze.front_probes` / `analyze.front_metadata_bytes` on
/// `obs`.
///
/// # Errors
///
/// [`CoreError::Mismatch`] on differing key sets; probe errors.
pub fn track_front(
    engine: &CompareEngine,
    a: &CheckpointHistory,
    b: &CheckpointHistory,
    obs: &Observer,
) -> CoreResult<FrontTrack> {
    if a.keys() != b.keys() {
        return Err(CoreError::Mismatch(format!(
            "histories cover different checkpoints: run 1 has {} entries, run 2 has {}",
            a.len(),
            b.len()
        )));
    }
    let chunk_bytes = engine.config().chunk_bytes;
    let mut keys = a.keys();
    keys.sort_by_key(|&(rank, iter)| (iter, rank));

    // Slots are (rank, chunk) pairs; totals come from the first
    // iteration's geometry (histories are homogeneous per rank).
    let mut stats = ProbeStats::default();
    let mut seen: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut snapshots: Vec<FrontSnapshot> = Vec::new();
    let mut total_slots = 0u64;
    let mut counted_ranks: BTreeSet<usize> = BTreeSet::new();

    let mut current: Option<(u64, BTreeSet<(usize, u64)>)> = None;
    for (rank, iteration) in keys {
        let sa = a.get(rank, iteration).expect("key set verified");
        let sb = b.get(rank, iteration).expect("key set verified");
        if counted_ranks.insert(rank) {
            total_slots += sa.chunk_count(chunk_bytes);
        }
        let outcome = probe_pair(sa, sb, engine, &mut stats)?;
        let slots = outcome.mismatched_leaves.iter().map(|&c| (rank, c as u64));
        match &mut current {
            Some((it, set)) if *it == iteration => set.extend(slots),
            _ => {
                if let Some((it, set)) = current.take() {
                    snapshots.push(snapshot(it, &set, &mut seen));
                }
                current = Some((iteration, slots.collect()));
            }
        }
    }
    if let Some((it, set)) = current.take() {
        snapshots.push(snapshot(it, &set, &mut seen));
    }
    for s in &mut snapshots {
        s.fraction = if total_slots == 0 {
            0.0
        } else {
            s.flagged as f64 / total_slots as f64
        };
    }
    let (classification, growth_per_iteration) = classify(&snapshots);

    obs.registry
        .counter("analyze.front_probes")
        .add(stats.tree_compares);
    obs.registry
        .counter("analyze.front_metadata_bytes")
        .add(stats.metadata_bytes_read);
    Ok(FrontTrack {
        snapshots,
        total_slots,
        classification,
        growth_per_iteration,
    })
}

fn snapshot(
    iteration: u64,
    set: &BTreeSet<(usize, u64)>,
    seen: &mut BTreeSet<(usize, u64)>,
) -> FrontSnapshot {
    let new_flagged = set.iter().filter(|slot| !seen.contains(slot)).count() as u64;
    seen.extend(set.iter().copied());
    FrontSnapshot {
        iteration,
        flagged: set.len() as u64,
        new_flagged,
        fraction: 0.0, // filled once total_slots is known
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_core::{CheckpointSource, EngineConfig};

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64, // 16 values per chunk
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    /// `corrupt[j]` = value indices perturbed at the j-th iteration.
    fn pair(e: &CompareEngine, corrupt: &[&[usize]]) -> (CheckpointHistory, CheckpointHistory) {
        let mut a = CheckpointHistory::new();
        let mut b = CheckpointHistory::new();
        for (j, hits) in corrupt.iter().enumerate() {
            let base: Vec<f32> = (0..256).map(|k| k as f32 * 0.01 + j as f32).collect();
            let mut other = base.clone();
            for &ix in *hits {
                other[ix] += 1.0;
            }
            a.insert(0, j as u64, CheckpointSource::in_memory(&base, e).unwrap());
            b.insert(0, j as u64, CheckpointSource::in_memory(&other, e).unwrap());
        }
        (a, b)
    }

    #[test]
    fn clean_history_classifies_clean_with_zero_payload() {
        let e = engine();
        let (a, b) = pair(&e, &[&[], &[], &[]]);
        let track = track_front(&e, &a, &b, &Observer::disabled()).unwrap();
        assert_eq!(track.classification, SpreadClass::Clean);
        assert_eq!(track.growth_per_iteration, 0.0);
        assert!(track.snapshots.iter().all(|s| s.flagged == 0));
    }

    #[test]
    fn contained_front_stays_at_its_first_size() {
        let e = engine();
        // One chunk (values 0..16 → chunk 0) wrong from iteration 1 on.
        let (a, b) = pair(&e, &[&[], &[3], &[3], &[3]]);
        let track = track_front(&e, &a, &b, &Observer::disabled()).unwrap();
        assert_eq!(track.classification, SpreadClass::Contained);
        let first = track.snapshots.iter().find(|s| s.flagged > 0);
        assert_eq!(first.unwrap().iteration, 1);
        assert_eq!(track.growth_per_iteration, 0.0);
        // The chunk is new only at its first appearance.
        assert_eq!(track.snapshots[1].new_flagged, 1);
        assert_eq!(track.snapshots[2].new_flagged, 0);
    }

    #[test]
    fn growing_front_classifies_spreading() {
        let e = engine();
        let (a, b) = pair(&e, &[&[], &[0], &[0, 20], &[0, 20, 40]]);
        let track = track_front(&e, &a, &b, &Observer::disabled()).unwrap();
        assert_eq!(track.classification, SpreadClass::Spreading);
        // 1 → 3 chunks over 2 steps.
        assert!((track.growth_per_iteration - 1.0).abs() < 1e-12);
        let flagged: Vec<u64> = track.snapshots.iter().map(|s| s.flagged).collect();
        assert_eq!(flagged, vec![0, 1, 2, 3]);
    }

    #[test]
    fn total_corruption_classifies_saturated() {
        let e = engine();
        let all: Vec<usize> = (0..256).collect();
        let (a, b) = pair(&e, &[&[], &all]);
        let track = track_front(&e, &a, &b, &Observer::disabled()).unwrap();
        assert_eq!(track.classification, SpreadClass::Saturated);
        assert_eq!(track.snapshots[1].flagged, track.total_slots);
        assert!((track.snapshots[1].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_rank_fronts_count_rank_chunk_slots() {
        let e = engine();
        let mut a = CheckpointHistory::new();
        let mut b = CheckpointHistory::new();
        for rank in 0..2usize {
            for it in 0..2u64 {
                let base: Vec<f32> = (0..64).map(|k| k as f32 + rank as f32 * 100.0).collect();
                let mut other = base.clone();
                if it == 1 && rank == 1 {
                    other[0] += 1.0;
                }
                a.insert(rank, it, CheckpointSource::in_memory(&base, &e).unwrap());
                b.insert(rank, it, CheckpointSource::in_memory(&other, &e).unwrap());
            }
        }
        let track = track_front(&e, &a, &b, &Observer::disabled()).unwrap();
        assert_eq!(track.total_slots, 8); // 2 ranks × 4 chunks
        assert_eq!(track.snapshots[0].flagged, 0);
        assert_eq!(track.snapshots[1].flagged, 1);
    }
}
