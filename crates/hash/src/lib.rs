//! Error-bounded hashing primitives for checkpoint comparison.
//!
//! This crate provides the two low-level building blocks of the
//! MIDDLEWARE '24 *affordable reproducibility* runtime:
//!
//! 1. [`Murmur3x64_128`] — an implementation of the 128-bit MurmurHash3
//!    x64 variant ("Murmur3F" in SMHasher terminology), the hash the paper
//!    selects for its collision resistance.
//! 2. [`bounded::Quantizer`] — the *conservative rounding* transform that
//!    maps every `f32` onto an `ε`-spaced grid so that two values whose
//!    quantized representations agree are guaranteed to differ by less
//!    than the user-supplied absolute error bound `ε`.
//! 3. [`chunk::ChunkHasher`] — the block-chained chunk digest: a chunk of
//!    quantized floats is processed in 128-bit blocks, each block hashed
//!    with the digest of the previous block as seed, so the final digest
//!    reflects every value in the chunk.
//!
//! # The conservative guarantee
//!
//! The whole comparison pipeline rests on one inequality. With grid step
//! `ε`, `quantize(a) == quantize(b)` implies `|a − b| < ε`. Therefore a
//! *matching* chunk digest can never hide a difference that exceeds the
//! bound (no false negatives). The converse does not hold: `|a − b| ≤ ε`
//! can still straddle a grid boundary and produce differing digests —
//! a *false positive* that the second (element-wise) comparison stage
//! filters out. The paper's Figure 7b measures exactly this false
//! positive rate.
//!
//! # Example
//!
//! ```
//! use reprocmp_hash::{bounded::Quantizer, chunk::ChunkHasher};
//!
//! let q = Quantizer::new(1e-5).unwrap();
//! let run1: Vec<f32> = (0..1024).map(|i| i as f32 * 0.25).collect();
//! let mut run2 = run1.clone();
//! run2[37] += 3e-3; // a real difference, far above the bound
//!
//! let hasher = ChunkHasher::new(q);
//! let d1 = hasher.hash_chunk(&run1);
//! let d2 = hasher.hash_chunk(&run2);
//! assert_ne!(d1, d2, "a change above the bound must change the digest");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bounded;
pub mod chunk;
pub mod murmur3;

pub use bounded::{Quantizer, QuantizerF64};
pub use chunk::{ChunkHasher, Floats};
pub use murmur3::{Digest128, Murmur3x64_128};

/// Seed for *raw-content* chunk digests — the content addresses used by
/// the batch scheduler's stage-2 verdict cache and the persistent
/// capture store. Distinct from the quantized leaf-digest chain so the
/// two keyspaces can never collide by construction, and shared here so
/// every layer that fingerprints raw chunk bytes (capture, store
/// ingest, scrub) produces the same address for the same bytes.
pub const RAW_CHUNK_SEED: u32 = 0x5eed_0b0e;

/// Digest of one raw (unquantized) chunk of bytes under
/// [`RAW_CHUNK_SEED`] — the store's content address for that chunk.
#[must_use]
pub fn raw_chunk_digest(bytes: &[u8]) -> Digest128 {
    murmur3::murmur3_x64_128(bytes, RAW_CHUNK_SEED)
}
