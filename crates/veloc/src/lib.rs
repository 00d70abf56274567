//! A VELOC-style asynchronous multi-level checkpointing client.
//!
//! The paper captures HACC's particle data "asynchronously … using the
//! VELOC checkpointing library": each process writes its protected
//! memory regions to fast node-local storage and a background thread
//! flushes the file to the durable parallel file system while the
//! simulation continues. This crate reproduces that capture path:
//!
//! * [`mod@format`] — the on-disk checkpoint format: a validated header, a
//!   region table, and one contiguous little-endian `f32` payload (the
//!   part the comparison engine later reads back in chunks).
//! * [`client::Client`] — protect named regions, [`client::Client::checkpoint`]
//!   them synchronously to the local tier, flush asynchronously to the
//!   PFS tier, [`client::Client::wait`] for durability, and
//!   [`client::Client::restart_latest`] from the newest flushed version.
//!
//! # Example
//!
//! ```
//! use reprocmp_veloc::client::{Client, VelocConfig};
//!
//! let dir = std::env::temp_dir().join("veloc-doc-example");
//! let cfg = VelocConfig {
//!     flush_threads: 1,
//!     ..VelocConfig::rooted_at(&dir)
//! };
//! let client = Client::new(cfg).unwrap();
//! let xs: Vec<f32> = (0..128).map(|i| i as f32).collect();
//! client.checkpoint("run1.rank0", 10, &[("x", &xs)]).unwrap();
//! client.wait("run1.rank0", 10).unwrap();
//! let (version, regions) = client.restart_latest("run1.rank0").unwrap().unwrap();
//! assert_eq!(version, 10);
//! assert_eq!(regions["x"], xs);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod format;

pub use client::{CaptureMode, CheckpointState, Client, ClientStats, VelocConfig, VelocError};
pub use format::{
    decode_checkpoint, decode_header, encode_checkpoint, read_region, CheckpointFile,
    CkptCodecError, Region,
};
