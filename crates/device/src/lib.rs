//! Data-parallel execution backends.
//!
//! The paper implements its kernels with Kokkos so the same code runs on
//! CPUs and NVIDIA A100 GPUs. This crate plays that role for the Rust
//! reproduction: every data-parallel kernel in the repository (quantize,
//! hash leaves, build a Merkle level, BFS a level, compare elements) is
//! expressed against [`Device`], which can execute it
//!
//! * serially ([`Device::host_serial`]),
//! * across host threads ([`Device::host_parallel`]), or
//! * on a *simulated GPU* ([`Device::sim_gpu`]) — host threads for the
//!   actual work plus an A100-like [`TimingModel`] that accrues *modeled*
//!   kernel time, which is what the paper's Figure 8 (CPU-vs-GPU tree
//!   construction, four orders of magnitude apart) is reproduced from.
//!
//! # Why modeled time?
//!
//! This reproduction has no GPU. Wall-clock ratios between serial and
//! threaded execution would reflect the host's core count, not HBM2
//! bandwidth. The timing model charges each kernel
//! `launch_latency + max(bytes/bandwidth, ops/throughput) / lanes-factor`,
//! which preserves exactly the quantities the paper's figures depend on.
//! Wall-clock time is still measured and reported alongside.
//!
//! # Example
//!
//! ```
//! use reprocmp_device::{Device, Workload};
//!
//! let dev = Device::host_parallel(4);
//! let squares = dev.parallel_map(16, Workload::new(0, 16), |i| i * i);
//! assert_eq!(squares[5], 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod model;
mod runner;

pub use model::{TimingModel, Workload};
pub use runner::Device;
