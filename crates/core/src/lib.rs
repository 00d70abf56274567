//! The error-bounded Merkle checkpoint-comparison runtime — the
//! paper's primary contribution.
//!
//! Given the checkpoint histories of two runs of the same application,
//! this crate answers, fast: *do any intermediate values differ by more
//! than the user's error bound `ε`, and if so, which ones?*
//!
//! # The two-stage pipeline
//!
//! **Capture side.** At checkpoint time, [`CompareEngine::build_metadata`]
//! hashes the checkpoint's `f32` payload in chunks under `ε`
//! ([`reprocmp_hash`]), builds the Merkle tree ([`reprocmp_merkle`]),
//! and the encoded tree is stored next to the checkpoint — a few
//! percent of the data size.
//!
//! **Compare side.** [`CompareEngine::compare`], timed and observed
//! through a [`Ctx`]:
//!
//! 1. *Setup* — buffers and validation.
//! 2. *Read* — both runs' tree metadata streams in (sequential, cheap).
//! 3. *Deserialize* — decode and cross-validate the trees.
//! 4. *Compare tree* — pruning BFS from mid-tree; matching subtrees
//!    are proven equal-within-`ε` and never touched again.
//! 5. *Compare direct* — only the flagged chunks stream back from both
//!    checkpoints (io_uring-style scattered reads, double-buffered
//!    with the comparison kernel) and are verified element-wise.
//!
//! The five phases are timed separately ([`CostBreakdown`], the
//! paper's Figure 6) and the report carries the flagged/false-positive
//! accounting of Figure 7. When either side has no ε-metadata, phases
//! 2–4 do not run and phase 5 verifies every chunk.
//!
//! # Baselines
//!
//! [`baseline::AllClose`] (NumPy-style whole-buffer boolean, blocking
//! I/O, no localization) and [`baseline::Direct`] (phase 5 over every
//! chunk, the engine's compare without metadata) — the two comparison
//! points of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use reprocmp_core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
//! use reprocmp_io::MemStorage;
//!
//! // Two "runs" of 64 Ki floats that disagree in one place.
//! let run1: Vec<f32> = (0..65_536).map(|i| (i as f32).sin()).collect();
//! let mut run2 = run1.clone();
//! run2[40_000] += 0.125;
//!
//! let engine = CompareEngine::new(EngineConfig {
//!     chunk_bytes: 4096,
//!     error_bound: 1e-5,
//!     ..EngineConfig::default()
//! });
//!
//! let a = CheckpointSource::in_memory(&run1, &engine).unwrap();
//! let b = CheckpointSource::in_memory(&run2, &engine).unwrap();
//! let report = engine.compare(&a, &b, &Ctx::default()).unwrap();
//!
//! assert_eq!(report.stats.diff_count, 1);
//! assert_eq!(report.differences[0].index, 40_000);
//! // One 4 KiB chunk out of 64 was re-read:
//! assert_eq!(report.stats.chunks_flagged, 1);
//! assert_eq!(report.stats.chunks_total, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod baseline;
pub mod breakdown;
mod ctx;
pub mod engine;
pub mod history;
pub mod metacache;
pub mod online;
pub mod ops;
pub mod regions;
pub mod report;
pub mod schedule;
pub mod source;
pub mod storesrc;

pub use baseline::{AllClose, AllCloseReport, Direct};
pub use breakdown::CostBreakdown;
pub use ctx::Ctx;
pub use engine::{CompareEngine, EngineConfig, FailurePolicy};
pub use history::{CheckpointHistory, HistoryEntryReport, HistoryReport};
pub use metacache::{ChunkVerdict, MetaCache, SubtreeEntry, SubtreeKey};
pub use online::{OnlineComparator, OnlinePolicy, OnlineVerdict};
pub use regions::{LocatedDifference, RegionMap, RegionSpan};
pub use report::{CaptureStats, ChainInfo, ChunkRange, CompareReport, DataStats, Difference};
pub use schedule::{BatchConfig, BatchJobReport, BatchReport};
pub use source::{ChainProvenance, CheckpointSource};

/// Everything that can go wrong while comparing two checkpoint
/// histories.
#[derive(Debug)]
pub enum CoreError {
    /// Storage / streaming failure.
    Io(reprocmp_io::IoError),
    /// Tree metadata would not parse.
    Metadata(reprocmp_merkle::TreeCodecError),
    /// The two trees cannot be compared node-for-node.
    Incomparable(reprocmp_merkle::TreeCompareError),
    /// The metadata disagrees with the engine configuration or with the
    /// checkpoint payload it claims to describe.
    Mismatch(String),
    /// The engine configuration is invalid (bad bound or chunk size).
    Config(String),
    /// A verb that needs a tree on every side met a source opened
    /// without ε-metadata; names the source.
    NoMetadata(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Io(e) => write!(f, "i/o failure during comparison: {e}"),
            CoreError::Metadata(e) => write!(f, "bad tree metadata: {e}"),
            CoreError::Incomparable(e) => write!(f, "{e}"),
            CoreError::Mismatch(what) => write!(f, "metadata/config mismatch: {what}"),
            CoreError::Config(what) => write!(f, "invalid engine config: {what}"),
            CoreError::NoMetadata(what) => write!(f, "{what} has no ε-metadata"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io(e) => Some(e),
            CoreError::Metadata(e) => Some(e),
            CoreError::Incomparable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<reprocmp_io::IoError> for CoreError {
    fn from(e: reprocmp_io::IoError) -> Self {
        CoreError::Io(e)
    }
}

impl From<reprocmp_merkle::TreeCodecError> for CoreError {
    fn from(e: reprocmp_merkle::TreeCodecError) -> Self {
        CoreError::Metadata(e)
    }
}

impl From<reprocmp_merkle::TreeCompareError> for CoreError {
    fn from(e: reprocmp_merkle::TreeCompareError) -> Self {
        CoreError::Incomparable(e)
    }
}

/// Crate-wide result alias.
pub type CoreResult<T> = Result<T, CoreError>;
