//! # reprocmp
//!
//! A Rust reproduction of *"Towards Affordable Reproducibility Using
//! Scalable Capture and Comparison of Intermediate Multi-Run Results"*
//! (MIDDLEWARE '24): an error-bounded, Merkle-tree-accelerated runtime
//! for comparing the checkpoint histories of two runs of a
//! nondeterministic HPC application.
//!
//! This façade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `reprocmp-core` | the comparison engine, baselines, reports |
//! | [`hash`] | `reprocmp-hash` | Murmur3F + error-bounded quantization |
//! | [`merkle`] | `reprocmp-merkle` | flattened Merkle trees + pruning BFS |
//! | [`io`] | `reprocmp-io` | uring-sim, mmap-sim, simulated PFS, pipelines |
//! | [`device`] | `reprocmp-device` | host/sim-GPU data-parallel executor |
//! | [`store`] | `reprocmp-store` | persistent content-addressed chunk store: dedup packs, GC, scrub |
//! | [`veloc`] | `reprocmp-veloc` | async two-tier checkpointing client |
//! | [`hacc`] | `reprocmp-hacc` | mini-HACC P³M simulator (the workload) |
//! | [`cluster`] | `reprocmp-cluster` | multi-rank execution harness |
//! | [`obs`] | `reprocmp-obs` | tracing spans, metrics registry, stage breakdowns |
//! | [`server`] | `reprocmp-server` | comparison-as-a-service daemon + wire protocol + client |
//! | [`analyze`] | `reprocmp-analyze` | divergence forensics: timeline bisection, front tracking, TUI explorer |
//!
//! ## Quickstart
//!
//! ```
//! use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
//!
//! let engine = CompareEngine::new(EngineConfig {
//!     chunk_bytes: 4096,
//!     error_bound: 1e-5,
//!     ..EngineConfig::default()
//! });
//!
//! let run1: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
//! let mut run2 = run1.clone();
//! run2[7_777] += 0.01;
//!
//! let a = CheckpointSource::in_memory(&run1, &engine).unwrap();
//! let b = CheckpointSource::in_memory(&run2, &engine).unwrap();
//! let report = engine.compare(&a, &b, &Ctx::default()).unwrap();
//! assert_eq!(report.differences[0].index, 7_777);
//! ```
//!
//! See `examples/` for complete scenarios (two diverging HACC runs, a
//! CI regression gate, I/O backend tuning) and `DESIGN.md` for the
//! paper-to-module map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use reprocmp_analyze as analyze;
pub use reprocmp_cluster as cluster;
pub use reprocmp_core as core;
pub use reprocmp_device as device;
pub use reprocmp_hacc as hacc;
pub use reprocmp_hash as hash;
pub use reprocmp_io as io;
pub use reprocmp_merkle as merkle;
pub use reprocmp_obs as obs;
pub use reprocmp_server as server;
pub use reprocmp_store as store;
pub use reprocmp_veloc as veloc;
