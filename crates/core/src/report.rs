//! Comparison results: localized differences and volume accounting.

use reprocmp_io::RingStats;
use reprocmp_obs::{CacheStats, StageBreakdown, StoreReadStats};
use serde::Serialize;

use crate::breakdown::CostBreakdown;

/// One element-wise difference above the bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Difference {
    /// Flat `f32` index within the checkpoint payload.
    pub index: u64,
    /// The value in run 1.
    pub a: f32,
    /// The value in run 2.
    pub b: f32,
}

/// Volume and accuracy accounting for one comparison (Figure 7's raw
/// numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DataStats {
    /// `f32` values per checkpoint.
    pub total_values: u64,
    /// Payload bytes per checkpoint.
    pub total_bytes: u64,
    /// Chunks per checkpoint.
    pub chunks_total: u64,
    /// Chunks whose hashes differed (stage-two work list).
    pub chunks_flagged: u64,
    /// Bytes re-read from each checkpoint during stage two.
    pub bytes_reread: u64,
    /// Flagged chunks that turned out to contain no real difference —
    /// the conservative hash's false positives.
    pub false_positive_chunks: u64,
    /// Values whose difference exceeded the bound.
    pub diff_count: u64,
}

impl DataStats {
    /// Fraction of checkpoint data flagged for re-reading (Fig. 7a).
    #[must_use]
    pub fn flagged_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.bytes_reread as f64 / self.total_bytes as f64
        }
    }

    /// False-positive rate: flagged-but-clean chunks over all chunks
    /// (Fig. 7b).
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        if self.chunks_total == 0 {
            0.0
        } else {
            self.false_positive_chunks as f64 / self.chunks_total as f64
        }
    }
}

/// A contiguous run of chunk indices, `first..first + count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChunkRange {
    /// First chunk index in the range.
    pub first: u64,
    /// Number of consecutive chunks covered.
    pub count: u64,
}

/// Flush-time differential-capture accounting for the compared
/// objects: bytes and chunk references the capture side *skipped*
/// because they were unchanged from the parent checkpoint in the
/// chain. Summed over both sides; all-zero when neither side came out
/// of a delta chain (in-memory, file-backed, and full store objects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CaptureStats {
    /// Bytes differential capture avoided writing at flush time.
    pub bytes_skipped: u64,
    /// Chunk references borrowed from parent manifests.
    pub chunks_skipped: u64,
}

/// Delta-chain provenance of the two compared objects: how many links
/// below the full anchor each side sits (0 = full capture or not
/// store-backed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChainInfo {
    /// Chain depth of side A (0 for a full checkpoint).
    pub depth_a: u64,
    /// Chain depth of side B (0 for a full checkpoint).
    pub depth_b: u64,
}

/// The full result of comparing one checkpoint pair.
#[derive(Debug, Clone, Serialize)]
pub struct CompareReport {
    /// Phase timers.
    pub breakdown: CostBreakdown,
    /// Per-stage cost profile: capture phases (quantize, leaf-hash,
    /// level-build) summed over both runs' sources, plus the compare
    /// phases (BFS, stage-2 stream, verify). Rendered by
    /// `reprocmp compare --profile`.
    pub stages: StageBreakdown,
    /// Volume and accuracy accounting.
    pub stats: DataStats,
    /// Localized differences, capped at the engine's
    /// `max_recorded_diffs` (the count in [`DataStats::diff_count`] is
    /// exact regardless).
    pub differences: Vec<Difference>,
    /// True when the recorded list was truncated by the cap.
    pub differences_truncated: bool,
    /// I/O traffic through the stage-two pipelines: submissions,
    /// completions, in-worker retries, and exhausted ops.
    pub io: RingStats,
    /// Chunk ranges that could not be verified because their reads
    /// failed after retries (non-empty only under
    /// `FailurePolicy::Quarantine`; sorted, merged, non-overlapping).
    pub unverified: Vec<ChunkRange>,
    /// Metadata-cache accounting when this report came out of the
    /// batch scheduler (`compare_many` and friends); all-zero for
    /// plain pairwise comparisons, which consult no cache.
    pub cache: CacheStats,
    /// Chunk-store read accounting when either source is backed by a
    /// persistent capture store (`CheckpointSource::from_store`);
    /// all-zero for file- and memory-backed comparisons.
    pub store: StoreReadStats,
    /// Differential-capture savings baked into the compared objects at
    /// flush time; all-zero unless a side is a store-backed delta.
    pub capture: CaptureStats,
    /// Delta-chain depth of each side; all-zero unless a side is a
    /// store-backed delta.
    pub chain: ChainInfo,
}

impl CompareReport {
    /// Whether the two checkpoints agree everywhere within the bound.
    ///
    /// A report with quarantined chunks still answers for the data it
    /// *did* verify — check [`CompareReport::fully_verified`] before
    /// treating `identical()` as a global verdict.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.stats.diff_count == 0
    }

    /// Whether every chunk was actually compared (nothing quarantined).
    #[must_use]
    pub fn fully_verified(&self) -> bool {
        self.unverified.is_empty()
    }

    /// Total number of quarantined chunks.
    #[must_use]
    pub fn unverified_chunks(&self) -> u64 {
        self.unverified.iter().map(|r| r.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = DataStats::default();
        assert_eq!(s.flagged_fraction(), 0.0);
        assert_eq!(s.false_positive_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = DataStats {
            total_values: 1000,
            total_bytes: 4000,
            chunks_total: 10,
            chunks_flagged: 4,
            bytes_reread: 1600,
            false_positive_chunks: 1,
            diff_count: 3,
        };
        assert!((s.flagged_fraction() - 0.4).abs() < 1e-12);
        assert!((s.false_positive_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn throughput_counts_both_checkpoints() {
        let report = CompareReport {
            breakdown: CostBreakdown {
                compare_direct: std::time::Duration::from_secs(2),
                ..CostBreakdown::default()
            },
            stages: StageBreakdown::default(),
            stats: DataStats {
                total_bytes: 1_000_000,
                ..DataStats::default()
            },
            differences: Vec::new(),
            differences_truncated: false,
            io: RingStats::default(),
            unverified: Vec::new(),
            cache: CacheStats::default(),
            store: StoreReadStats::default(),
            capture: CaptureStats::default(),
            chain: ChainInfo::default(),
        };
        assert!(report.identical());
        assert!(report.fully_verified());
    }

    #[test]
    fn unverified_accounting() {
        let report = CompareReport {
            breakdown: CostBreakdown::default(),
            stages: StageBreakdown::default(),
            stats: DataStats::default(),
            differences: Vec::new(),
            differences_truncated: false,
            io: RingStats::default(),
            unverified: vec![
                ChunkRange { first: 0, count: 2 },
                ChunkRange { first: 7, count: 1 },
            ],
            cache: CacheStats::default(),
            store: StoreReadStats::default(),
            capture: CaptureStats::default(),
            chain: ChainInfo::default(),
        };
        assert!(!report.fully_verified());
        assert_eq!(report.unverified_chunks(), 3);
    }
}
