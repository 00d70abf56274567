//! Block-chained error-bounded chunk hashing.
//!
//! A checkpoint is split into fixed-size *chunks* (the Merkle-tree
//! leaves). Inside a chunk the paper serializes hashing at the
//! granularity of 128-bit blocks: block *k* is hashed with the digest of
//! block *k−1* as seed, so the final digest reflects every quantized
//! value in the chunk while the hash primitive only ever sees small,
//! fixed-size inputs. Across chunks everything is embarrassingly
//! parallel.
//!
//! # The leaf kernel
//!
//! One chain is a sequence of dependent Murmur3F rounds, so a single
//! chunk is latency-bound no matter how fast the core is. The kernel
//! ([`ChunkHasher::hash_leaves_into`]) therefore quantizes [`LANES`]
//! whole chunks at a time into a small reused `i64` tile and advances
//! their chains in lockstep, one block of each per step: the rounds of
//! different chains are independent, so the core overlaps them. Fewer
//! than [`LANES`] remaining chunks run the same code one lane wide, and
//! non-default block sizes take the plain byte path.

use std::ops::Range;

use crate::bounded::Quantizer;
use crate::murmur3::{finish, mix_block, mix_k1, Digest128, Murmur3x64_128};

/// Default block size in bytes (128 bits, the paper's granularity).
pub const DEFAULT_BLOCK_BYTES: usize = 16;

/// Chunks whose chains one kernel step advances together. Four keeps
/// the multiply units busy; two and eight both measured slower.
pub const LANES: usize = 4;

/// Codes per lane held in the tile at once: `LANES × STRIP` codes is
/// 32 KiB, so the tile stays in L1 between quantizing and hashing.
const STRIP: usize = 1024;

/// `f32` values as the leaf kernel reads them: a float slice, or the
/// little-endian bytes of a checkpoint payload exactly as they sit in
/// the file, so a payload is hashed in place rather than first copied
/// into a `Vec<f32>`.
#[derive(Debug, Clone, Copy)]
pub enum Floats<'a> {
    /// Native floats.
    Values(&'a [f32]),
    /// Little-endian `f32` bytes; a trailing partial value is ignored.
    LeBytes(&'a [u8]),
}

impl<'a> Floats<'a> {
    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Floats::Values(v) => v.len(),
            Floats::LeBytes(b) => b.len() / 4,
        }
    }

    /// True when there are no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values in `range` (value indices, not bytes).
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> Floats<'a> {
        match *self {
            Floats::Values(v) => Floats::Values(&v[range]),
            Floats::LeBytes(b) => Floats::LeBytes(&b[range.start * 4..range.end * 4]),
        }
    }

    /// Quantizes the first `out.len()` values into `out`.
    fn quantize_into(&self, q: &Quantizer, out: &mut [i64]) {
        match *self {
            Floats::Values(v) => q.quantize_run(v.iter().copied(), out),
            Floats::LeBytes(b) => q.quantize_run(
                b.chunks_exact(4)
                    .map(|x| f32::from_le_bytes(x.try_into().expect("4 bytes"))),
                out,
            ),
        }
    }
}

/// Hashes chunks of `f32` data under an error bound.
///
/// The hasher owns a [`Quantizer`]; two `ChunkHasher`s built from equal
/// quantizers produce identical digests for inputs that agree within the
/// bound's grid.
///
/// ```
/// use reprocmp_hash::{bounded::Quantizer, chunk::ChunkHasher};
/// let hasher = ChunkHasher::new(Quantizer::new(1e-4).unwrap());
/// let a = vec![1.0f32; 256];
/// let mut b = a.clone();
/// b[200] += 5e-5; // inside the bound and inside the same grid cell
/// assert_eq!(hasher.hash_chunk(&a), hasher.hash_chunk(&a));
/// ```
#[derive(Debug, Clone)]
pub struct ChunkHasher {
    quantizer: Quantizer,
    block_bytes: usize,
}

impl ChunkHasher {
    /// Creates a hasher with the default 128-bit block size.
    #[must_use]
    pub fn new(quantizer: Quantizer) -> Self {
        ChunkHasher {
            quantizer,
            block_bytes: DEFAULT_BLOCK_BYTES,
        }
    }

    /// Creates a hasher with a custom block size in bytes.
    ///
    /// The block-based scheme "allows integration with any hashing
    /// algorithm, as the block size is variable" — larger blocks trade
    /// chain length for per-call throughput. `block_bytes` is clamped to
    /// at least 8 (one quantized code).
    #[must_use]
    pub fn with_block_bytes(quantizer: Quantizer, block_bytes: usize) -> Self {
        ChunkHasher {
            quantizer,
            block_bytes: block_bytes.max(8),
        }
    }

    /// The quantizer (and thus the error bound) in use.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The chaining block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Hashes one chunk of floats: quantize, then chain 128-bit blocks.
    #[must_use]
    pub fn hash_chunk(&self, chunk: &[f32]) -> Digest128 {
        if chunk.is_empty() {
            return self.hash_quantized_bytes(&[]);
        }
        let mut digest = [Digest128::ZERO];
        self.hash_leaves_into(Floats::Values(chunk), chunk.len(), &mut digest);
        digest[0]
    }

    /// Hashes pre-quantized little-endian code bytes with block chaining.
    #[must_use]
    pub fn hash_quantized_bytes(&self, bytes: &[u8]) -> Digest128 {
        let mut digest = Digest128::ZERO;
        if bytes.is_empty() {
            // An empty chunk gets a defined digest distinct from the zero
            // sentinel. The single marker byte cannot collide with real
            // chunks, whose quantized byte length is always a multiple of 8.
            return Murmur3x64_128::with_digest_seed(digest).hash(&[0x45]);
        }
        for block in bytes.chunks(self.block_bytes) {
            digest = Murmur3x64_128::with_digest_seed(digest).hash(block);
        }
        digest
    }

    /// Hashes an entire buffer split into `chunk_len`-value chunks,
    /// returning one digest per chunk (the Merkle leaves).
    ///
    /// The final chunk may be short. `chunk_len` must be non-zero.
    #[must_use]
    pub fn hash_leaves(&self, data: &[f32], chunk_len: usize) -> Vec<Digest128> {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        let mut leaves = vec![Digest128::ZERO; data.len().div_ceil(chunk_len)];
        self.hash_leaves_into(Floats::Values(data), chunk_len, &mut leaves);
        leaves
    }

    /// The leaf kernel: hashes `data` split into `chunk_len`-value
    /// chunks (the final one may be short) into `out`, one digest per
    /// chunk, [`LANES`] chains at a time.
    ///
    /// # Panics
    ///
    /// If `chunk_len` is zero or `out` does not hold exactly one slot
    /// per chunk.
    pub fn hash_leaves_into(&self, data: Floats<'_>, chunk_len: usize, out: &mut [Digest128]) {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        assert_eq!(
            out.len(),
            data.len().div_ceil(chunk_len),
            "one digest slot per chunk"
        );
        let chunk = |i: usize| data.slice(i * chunk_len..((i + 1) * chunk_len).min(data.len()));
        if self.block_bytes != DEFAULT_BLOCK_BYTES {
            let mut codes = Vec::new();
            for (i, slot) in out.iter_mut().enumerate() {
                let c = chunk(i);
                codes.resize(c.len(), 0);
                c.quantize_into(&self.quantizer, &mut codes);
                *slot = self.hash_codes_bytewise(&codes);
            }
            return;
        }
        // Strips hold whole blocks; only a chunk's last strip can end
        // on a lone 8-byte code.
        let strip = STRIP.min(chunk_len).next_multiple_of(2);
        let mut tile = vec![0i64; LANES * strip];
        let grouped = data.len() / chunk_len / LANES * LANES;
        for (g, slots) in out[..grouped].chunks_exact_mut(LANES).enumerate() {
            let lanes = data.slice(g * LANES * chunk_len..(g + 1) * LANES * chunk_len);
            slots.copy_from_slice(&self.chain_lanes::<LANES>(lanes, chunk_len, &mut tile));
        }
        for (i, slot) in out.iter_mut().enumerate().skip(grouped) {
            let c = chunk(i);
            *slot = self.chain_lanes::<1>(c, c.len(), &mut tile)[0];
        }
    }

    /// `W` chunks of `chunk_len` values, back to back in `data`, hashed
    /// as `W` chains in lockstep through `tile` strip by strip.
    fn chain_lanes<const W: usize>(
        &self,
        data: Floats<'_>,
        chunk_len: usize,
        tile: &mut [i64],
    ) -> [Digest128; W] {
        let strip = tile.len() / LANES;
        let mut state = [[0u64; 2]; W];
        let mut done = 0;
        while done < chunk_len {
            let n = strip.min(chunk_len - done);
            for (l, codes) in tile.chunks_exact_mut(strip).take(W).enumerate() {
                let at = l * chunk_len + done;
                data.slice(at..at + n)
                    .quantize_into(&self.quantizer, &mut codes[..n]);
            }
            advance(
                &mut state,
                std::array::from_fn(|l| &tile[l * strip..l * strip + n]),
            );
            done += n;
        }
        state.map(Digest128)
    }

    /// The path for non-default block sizes: codes to bytes, then one
    /// Murmur3F call per block.
    fn hash_codes_bytewise(&self, codes: &[i64]) -> Digest128 {
        let bytes: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
        self.hash_quantized_bytes(&bytes)
    }
}

/// Advances `W` chains over equal-length code runs, one 16-byte block
/// of each per step. `state[l]` is chain `l`'s digest so far (the seed
/// of its next block); a run of odd length ends on an 8-byte block,
/// which only a chunk's final run may do.
#[inline(always)]
fn advance<const W: usize>(state: &mut [[u64; 2]; W], lanes: [&[i64]; W]) {
    let n = lanes[0].len();
    let pairs = n / 2;
    for b in 0..pairs {
        for l in 0..W {
            let (h1, h2) = mix_block(
                state[l][0],
                state[l][1],
                lanes[l][2 * b] as u64,
                lanes[l][2 * b + 1] as u64,
            );
            state[l] = finish(h1, h2, 16).0;
        }
    }
    if n % 2 == 1 {
        for l in 0..W {
            let k1 = lanes[l][n - 1] as u64;
            state[l] = finish(state[l][0] ^ mix_k1(k1), state[l][1], 8).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher(bound: f64) -> ChunkHasher {
        ChunkHasher::new(Quantizer::new(bound).unwrap())
    }

    #[test]
    fn deterministic() {
        let h = hasher(1e-5);
        let data: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        assert_eq!(h.hash_chunk(&data), h.hash_chunk(&data));
    }

    #[test]
    fn change_above_bound_changes_digest() {
        let h = hasher(1e-5);
        let a: Vec<f32> = (0..512).map(|i| i as f32 * 0.1).collect();
        let mut b = a.clone();
        b[511] += 1e-3;
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn first_element_change_propagates_through_chain() {
        let h = hasher(1e-5);
        let a: Vec<f32> = vec![0.0; 1024];
        let mut b = a.clone();
        b[0] = 1.0;
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn same_grid_cell_same_digest() {
        let h = hasher(1e-2);
        // 0.105 and 0.1075 both land in cell floor(x/0.01) = 10.
        let a = vec![0.105f32; 64];
        let b = vec![0.1075f32; 64];
        assert_eq!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn block_size_changes_digest_but_not_equality_semantics() {
        let q = Quantizer::new(1e-4).unwrap();
        let h16 = ChunkHasher::with_block_bytes(q, 16);
        let h64 = ChunkHasher::with_block_bytes(q, 64);
        let data: Vec<f32> = (0..256).map(|i| i as f32 * 0.3).collect();
        // Different block sizes give different digests…
        assert_ne!(h16.hash_chunk(&data), h64.hash_chunk(&data));
        // …but each is self-consistent.
        assert_eq!(h64.hash_chunk(&data), h64.hash_chunk(&data));
    }

    #[test]
    fn empty_and_singleton_chunks_are_defined_and_distinct() {
        let h = hasher(1e-3);
        let empty = h.hash_chunk(&[]);
        let one = h.hash_chunk(&[0.0]);
        assert_ne!(empty, one);
        assert_ne!(empty, Digest128::ZERO);
    }

    #[test]
    fn hash_leaves_counts_and_tail() {
        let h = hasher(1e-3);
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let leaves = h.hash_leaves(&data, 30);
        assert_eq!(leaves.len(), 4); // 30+30+30+10
                                     // Tail chunk digest must differ from a full chunk of same prefix.
        let full = h.hash_chunk(&data[90..100]);
        assert_eq!(leaves[3], full);
    }

    #[test]
    fn order_matters_within_chunk() {
        let h = hasher(1e-3);
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![4.0f32, 3.0, 2.0, 1.0];
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_len_panics() {
        let h = hasher(1e-3);
        let _ = h.hash_leaves(&[1.0], 0);
    }
}
