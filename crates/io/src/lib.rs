//! Storage and asynchronous I/O substrate.
//!
//! The paper's runtime reads checkpoint data from a Lustre parallel file
//! system through io_uring and overlaps those reads with GPU compute.
//! This crate rebuilds that stack at laptop scale:
//!
//! * [`clock::SimClock`] / [`clock::Timeline`] — a shared virtual clock,
//!   so experiments measure *modeled* storage time deterministically
//!   (real wall-clock timing is available through the same interface).
//! * [`cost::CostModel`] — a parallel-file-system cost model: per-op
//!   submission latency, seek latency for discontiguous access, device
//!   bandwidth, and a queue depth over which asynchronous backends
//!   amortize seeks. Presets exist for a Lustre-like PFS and a node-local
//!   NVMe tier.
//! * [`storage::Storage`] — positioned-read/write storage; implemented by
//!   [`storage::MemStorage`] (in-memory, cost-charged through the model +
//!   clock) and [`storage::StdFsStorage`] (real files, for the CLI).
//! * [`pipeline::StreamPipeline`] — the double-buffered I/O ⇄ compute
//!   overlap of the paper's Figure 3. One reader fills every slice with
//!   positioned reads; on simulated storage its [`BackendKind`] decides
//!   what those reads cost: `Uring` charges one batch per slice at the
//!   configured queue depth, amortizing seek latency across it — the
//!   property the paper's Figure 9 measures — while `Blocking` charges
//!   the batch synchronously and `Mmap` charges each op's page faults
//!   ([`mmap::MmapSim`]).
//! * [`retry::RetryPolicy`] — bounded retries with exponential,
//!   jittered backoff (charged to the virtual clock) and per-op
//!   deadlines, so transient device faults heal inside the I/O layer
//!   instead of aborting a whole comparison.
//!
//! # Example
//!
//! ```
//! use reprocmp_io::cost::CostModel;
//! use reprocmp_io::pipeline::read_all;
//! use reprocmp_io::{BackendKind, MemStorage, PipelineConfig, Storage};
//! use std::sync::Arc;
//!
//! // A 1 MiB "checkpoint" on the simulated PFS.
//! let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
//! let storage = MemStorage::with_model(data.clone(), CostModel::lustre_pfs());
//!
//! let config = PipelineConfig { backend: BackendKind::Uring, ..PipelineConfig::default() };
//! let got = read_all(Arc::new(storage.clone()), &[(4096, 64), (900_000, 64)], config).unwrap();
//! assert_eq!(&got[..64], &data[4096..4096 + 64]);
//! assert!(storage.elapsed() > std::time::Duration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod clock;
pub mod cost;
pub mod fault;
pub mod mmap;
pub mod pipeline;
pub mod retry;
pub mod storage;
pub mod striped;

/// The `Uring` backend's behaviours, checked through the pipeline.
#[cfg(test)]
mod uring {
    mod tests;
}

pub use clock::{SimClock, Timeline};
pub use cost::CostModel;
pub use fault::{CrashDecision, CrashMode, CrashPlan, FaultPlan, FaultyStorage, MutationKind};
pub use mmap::MmapSim;
pub use pipeline::{BackendKind, OpFailure, PipelineConfig, PipelineMetrics, StreamPipeline};
pub use retry::{ErrorClass, RetryPolicy, RingCounters, RingStats};
pub use storage::{MemStorage, StdFsStorage, Storage};
pub use striped::StripedStorage;

/// Crate-wide I/O error type.
#[derive(Debug)]
pub enum IoError {
    /// A read or write fell outside the storage object's bounds.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Storage size.
        size: u64,
    },
    /// The underlying operating-system file operation failed.
    Os(std::io::Error),
    /// The pipeline's reader stopped before delivering every op.
    EngineShutDown,
}

impl IoError {
    /// Whether this error is worth retrying.
    ///
    /// Interrupted / timed-out / would-block / connection-level OS
    /// errors are transient (the canonical "device hiccup" kinds);
    /// bounds violations, engine shutdown, and every other OS kind are
    /// permanent — re-issuing the identical request cannot help.
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        match self {
            IoError::Os(e) => match e.kind() {
                std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe => ErrorClass::Transient,
                _ => ErrorClass::Permanent,
            },
            IoError::OutOfBounds { .. } | IoError::EngineShutDown => ErrorClass::Permanent,
        }
    }

    /// Shorthand for `class() == ErrorClass::Transient`.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfBounds { offset, len, size } => write!(
                f,
                "read of {len} bytes at offset {offset} exceeds storage size {size}"
            ),
            IoError::Os(e) => write!(f, "os i/o error: {e}"),
            IoError::EngineShutDown => write!(f, "i/o engine has shut down"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Os(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Os(e)
    }
}

/// Crate-wide result alias.
pub type IoResult<T> = Result<T, IoError>;
