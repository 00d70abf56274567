//! Per-stage cost profile of one capture-and-compare pass.
//!
//! The pipeline has six phases the paper's cost story cares about:
//! three on the *capture* side (quantize, leaf-hash, level-build — the
//! Merkle-tree construction of Figure 8) and three on the *compare*
//! side (the pruning BFS of stage 1, the stage-2 re-read stream, and
//! the element-wise verify). [`StageBreakdown`] attributes time, bytes
//! moved, and operation counts to each; the engine emits it inside
//! `CompareReport::stages` and the CLI renders it under `--profile`.
//! A seventh, *overlapping* phase (`store_read`) accounts for the part
//! of the stage-2 stream served by the persistent capture store — its
//! time is always zero so the six exclusive phases still partition the
//! pass.
//!
//! Times here are *deterministic* under simulation: capture phases are
//! measured off the device's modeled-time accumulator and compare
//! phases off `SimClock` phase boundaries, both of which are sums of
//! per-kernel charges and therefore independent of thread interleaving.
//! Per-operation latencies are **not** deterministic and never appear
//! here — they go to registry histograms instead.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Cost of one phase: time spent, payload bytes moved, operations run.
/// Every field is required when decoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Time attributed to the phase.
    pub time: Duration,
    /// Payload bytes the phase moved (read, hashed, or written).
    pub bytes: u64,
    /// Operations (kernel launches, I/O ops, or values — see the
    /// phase's documentation in DESIGN.md).
    pub ops: u64,
}

impl PhaseCost {
    /// A cost with all fields set.
    #[must_use]
    pub fn new(time: Duration, bytes: u64, ops: u64) -> Self {
        PhaseCost { time, bytes, ops }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merged(self, other: PhaseCost) -> PhaseCost {
        PhaseCost {
            time: self.time + other.time,
            bytes: self.bytes + other.bytes,
            ops: self.ops + other.ops,
        }
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == PhaseCost::default()
    }
}

/// Per-stage profile of a capture-and-compare pass (see module docs).
/// A phase a file predates decodes as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct StageBreakdown {
    /// Capture: quantizing floats onto the ε-grid.
    pub quantize: PhaseCost,
    /// Capture: block-chained hashing of quantized chunks (leaves).
    pub leaf_hash: PhaseCost,
    /// Capture: building interior Merkle levels bottom-up.
    pub level_build: PhaseCost,
    /// Compare stage 1: the pruning breadth-first tree walk.
    pub bfs: PhaseCost,
    /// Compare stage 2: streaming flagged chunks back from storage.
    pub stage2_stream: PhaseCost,
    /// Compare stage 2: element-wise verification of streamed chunks.
    pub verify: PhaseCost,
    /// Compare stage 2: reads resolved through the persistent capture
    /// store's pack index. This traffic happens *inside* the stream
    /// phase, so its `time` is always zero (it would double-count
    /// `stage2_stream`); `bytes`/`ops` say how much of the stream was
    /// served by packfiles rather than plain files.
    pub store_read: PhaseCost,
    /// Capture side, *informational* like `store_read`: work the
    /// compared objects' differential capture avoided. `bytes` is the
    /// total bytes skipped (borrowed from parent chains) and `ops` the
    /// skipped chunk references, summed over both sides; `time` is
    /// always zero — the savings happened at flush time, not during
    /// this pass — so the six exclusive phases still partition.
    pub delta_capture: PhaseCost,
}

impl StageBreakdown {
    /// The phases in pipeline order, with their canonical names.
    #[must_use]
    pub fn phases(&self) -> [(&'static str, PhaseCost); 8] {
        [
            ("quantize", self.quantize),
            ("leaf_hash", self.leaf_hash),
            ("level_build", self.level_build),
            ("bfs", self.bfs),
            ("stage2_stream", self.stage2_stream),
            ("verify", self.verify),
            ("store_read", self.store_read),
            ("delta_capture", self.delta_capture),
        ]
    }

    /// Total time across the six *exclusive* phases. `store_read`
    /// overlaps `stage2_stream` (see its field docs) and is excluded so
    /// totals never double-count.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.capture_time() + self.compare_time()
    }

    /// Total bytes moved across the six exclusive phases (`store_read`
    /// excluded; see [`StageBreakdown::total_time`]).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.quantize.bytes
            + self.leaf_hash.bytes
            + self.level_build.bytes
            + self.bfs.bytes
            + self.stage2_stream.bytes
            + self.verify.bytes
    }

    /// Time in the capture phases (tree construction).
    #[must_use]
    pub fn capture_time(&self) -> Duration {
        self.quantize.time + self.leaf_hash.time + self.level_build.time
    }

    /// Time in the compare phases (BFS + stream + verify).
    #[must_use]
    pub fn compare_time(&self) -> Duration {
        self.bfs.time + self.stage2_stream.time + self.verify.time
    }

    /// Component-wise sum (e.g. merging both runs' capture profiles).
    #[must_use]
    pub fn merged(self, other: StageBreakdown) -> StageBreakdown {
        StageBreakdown {
            quantize: self.quantize.merged(other.quantize),
            leaf_hash: self.leaf_hash.merged(other.leaf_hash),
            level_build: self.level_build.merged(other.level_build),
            bfs: self.bfs.merged(other.bfs),
            stage2_stream: self.stage2_stream.merged(other.stage2_stream),
            verify: self.verify.merged(other.verify),
            store_read: self.store_read.merged(other.store_read),
            delta_capture: self.delta_capture.merged(other.delta_capture),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(ms: u64, bytes: u64, ops: u64) -> PhaseCost {
        PhaseCost::new(Duration::from_millis(ms), bytes, ops)
    }

    #[test]
    fn phase_cost_merges_component_wise() {
        let merged = cost(5, 100, 2).merged(cost(7, 50, 3));
        assert_eq!(merged, cost(12, 150, 5));
    }

    #[test]
    fn default_is_zero() {
        assert!(PhaseCost::default().is_zero());
        assert!(!cost(1, 0, 0).is_zero());
        assert_eq!(StageBreakdown::default().total_time(), Duration::ZERO);
    }

    #[test]
    fn totals_cover_the_six_exclusive_phases() {
        let b = StageBreakdown {
            quantize: cost(1, 10, 1),
            leaf_hash: cost(2, 20, 1),
            level_build: cost(3, 30, 1),
            bfs: cost(4, 40, 1),
            stage2_stream: cost(5, 50, 1),
            verify: cost(6, 60, 1),
            // Overlap/informational phases: excluded from every total.
            store_read: PhaseCost::new(Duration::ZERO, 25, 3),
            delta_capture: PhaseCost::new(Duration::ZERO, 17, 2),
        };
        assert_eq!(b.total_time(), Duration::from_millis(21));
        assert_eq!(b.total_bytes(), 210);
        assert_eq!(b.capture_time(), Duration::from_millis(6));
        assert_eq!(b.compare_time(), Duration::from_millis(15));
        assert_eq!(b.capture_time() + b.compare_time(), b.total_time());
        assert_eq!(b.phases().len(), 8);
        assert_eq!(b.phases()[0].0, "quantize");
        assert_eq!(b.phases()[6].0, "store_read");
        assert_eq!(b.phases()[7].0, "delta_capture");
    }

    #[test]
    fn breakdown_merge_is_per_phase() {
        let a = StageBreakdown {
            quantize: cost(1, 8, 1),
            ..StageBreakdown::default()
        };
        let b = StageBreakdown {
            quantize: cost(2, 8, 1),
            verify: cost(3, 4, 1),
            ..StageBreakdown::default()
        };
        let m = a.merged(b);
        assert_eq!(m.quantize, cost(3, 16, 2));
        assert_eq!(m.verify, cost(3, 4, 1));
        assert_eq!(m.bfs, PhaseCost::default());
    }

    #[test]
    fn serializes_with_named_phases() {
        use serde::{Serialize, Value};
        let b = StageBreakdown {
            bfs: cost(1, 32, 9),
            ..StageBreakdown::default()
        };
        let Value::Object(fields) = b.to_value() else {
            panic!("breakdown must serialize as an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "quantize",
                "leaf_hash",
                "level_build",
                "bfs",
                "stage2_stream",
                "verify",
                "store_read",
                "delta_capture"
            ]
        );
    }
}
