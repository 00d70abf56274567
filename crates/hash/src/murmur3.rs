//! MurmurHash3 x64 128-bit ("Murmur3F") implemented from the public-domain
//! reference algorithm.
//!
//! The paper applies Murmur3F at the granularity of 128-bit blocks and
//! chains digests (the digest of block *k* seeds block *k+1*). The
//! reference algorithm takes a single 32-bit seed; to chain a full 128-bit
//! digest we fold it into both lanes of the initial state (see
//! [`Murmur3x64_128::with_digest_seed`]), which preserves the avalanche
//! behaviour of the finalizer while letting the whole previous digest
//! influence the next block.

/// A 128-bit hash digest, stored as two little-endian 64-bit lanes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128(pub [u64; 2]);

impl Digest128 {
    /// The all-zero digest, used as the seed of the first block in a chain
    /// and as the padding sentinel for absent Merkle-tree leaves.
    pub const ZERO: Digest128 = Digest128([0, 0]);

    /// Returns the digest as 16 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0[0].to_le_bytes());
        out[8..].copy_from_slice(&self.0[1].to_le_bytes());
        out
    }

    /// Reconstructs a digest from 16 little-endian bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        Digest128([lo, hi])
    }

    /// Combines two digests into one by hashing their concatenation.
    ///
    /// This is the interior-node operation of the Merkle tree: the parent
    /// digest is `hash(left ‖ right)` with seed 0 — two full blocks whose
    /// little-endian words are the digests' lanes, so no byte buffer is
    /// needed.
    #[must_use]
    #[inline]
    pub fn combine(left: Digest128, right: Digest128) -> Digest128 {
        let (h1, h2) = mix_block(0, 0, left.0[0], left.0[1]);
        let (h1, h2) = mix_block(h1, h2, right.0[0], right.0[1]);
        finish(h1, h2, 32)
    }
}

impl std::fmt::Debug for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest128({:016x}{:016x})", self.0[1], self.0[0])
    }
}

impl std::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[1], self.0[0])
    }
}

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// One 16-byte body round: mixes the block's little-endian words
/// `k1`, `k2` into the state.
#[inline(always)]
pub(crate) fn mix_block(mut h1: u64, mut h2: u64, k1: u64, k2: u64) -> (u64, u64) {
    h1 ^= mix_k1(k1);
    h1 = h1
        .rotate_left(27)
        .wrapping_add(h2)
        .wrapping_mul(5)
        .wrapping_add(0x52dc_e729);
    h2 ^= mix_k2(k2);
    h2 = h2
        .rotate_left(31)
        .wrapping_add(h1)
        .wrapping_mul(5)
        .wrapping_add(0x3849_5ab5);
    (h1, h2)
}

/// The first-lane word scramble, shared by body rounds and tails.
#[inline(always)]
pub(crate) fn mix_k1(k1: u64) -> u64 {
    k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2)
}

/// The second-lane word scramble.
#[inline(always)]
fn mix_k2(k2: u64) -> u64 {
    k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1)
}

/// Finalization over a message of `len` bytes.
#[inline(always)]
pub(crate) fn finish(mut h1: u64, mut h2: u64, len: u64) -> Digest128 {
    h1 ^= len;
    h2 ^= len;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    Digest128([h1, h2])
}

/// The MurmurHash3 x64 128-bit hasher.
///
/// [`murmur3_x64_128`] hashes under a 32-bit seed for
/// reference-compatible output; [`Murmur3x64_128::with_digest_seed`]
/// seeds with a full previous digest for block chaining.
#[derive(Debug, Clone, Copy)]
pub struct Murmur3x64_128 {
    h1: u64,
    h2: u64,
}

impl Murmur3x64_128 {
    /// Creates a hasher with the reference 32-bit seed (both lanes start
    /// at the seed value, as in the reference implementation).
    #[must_use]
    fn new(seed: u32) -> Self {
        Murmur3x64_128 {
            h1: u64::from(seed),
            h2: u64::from(seed),
        }
    }

    /// Creates a hasher seeded with a full 128-bit previous digest.
    ///
    /// Used for block chaining: the digest of block *k* becomes the seed
    /// of block *k+1*, so the final chunk digest depends on every block.
    #[must_use]
    pub fn with_digest_seed(seed: Digest128) -> Self {
        Murmur3x64_128 {
            h1: seed.0[0],
            h2: seed.0[1],
        }
    }

    /// Hashes `data` and returns the 128-bit digest.
    ///
    /// One-shot (non-incremental) — matches the reference
    /// `MurmurHash3_x64_128` byte-for-byte when seeded with a 32-bit
    /// seed, as [`murmur3_x64_128`] does.
    #[must_use]
    pub fn hash(self, data: &[u8]) -> Digest128 {
        let mut h1 = self.h1;
        let mut h2 = self.h2;
        let blocks = data.chunks_exact(16);
        let tail = blocks.remainder();
        for block in blocks {
            let k1 = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
            let k2 = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
            (h1, h2) = mix_block(h1, h2, k1, k2);
        }

        // Tail.
        let mut k1: u64 = 0;
        let mut k2: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            if i < 8 {
                k1 |= u64::from(b) << (8 * i);
            } else {
                k2 |= u64::from(b) << (8 * (i - 8));
            }
        }
        if !tail.is_empty() {
            if tail.len() > 8 {
                h2 ^= mix_k2(k2);
            }
            h1 ^= mix_k1(k1);
        }
        finish(h1, h2, data.len() as u64)
    }
}

/// Convenience: hashes `data` with `seed` using the reference parameters.
#[must_use]
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> Digest128 {
    Murmur3x64_128::new(seed).hash(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors computed with the canonical C++
    /// `MurmurHash3_x64_128` (smhasher).
    #[test]
    fn reference_vectors() {
        // murmur3 x64 128 of "" with seed 0.
        let d = murmur3_x64_128(b"", 0);
        assert_eq!(d.0, [0, 0]);

        // "The quick brown fox jumps over the lazy dog", seed 0:
        // canonical digest 6c1b07bc7bbc4be347939ac4a93c437a (bytes in
        // memory order h1 then h2, little-endian words).
        let d = murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0);
        assert_eq!(d.0[0], 0xe34bbc7bbc071b6c);
        assert_eq!(d.0[1], 0x7a433ca9c49a9347);

        // Seeded regression vector (locks our output across refactors; the
        // fox vector above is the cross-implementation check).
        let d = murmur3_x64_128(b"Hello, world!", 123);
        let again = murmur3_x64_128(b"Hello, world!", 123);
        assert_eq!(d, again);
        assert_ne!(d, murmur3_x64_128(b"Hello, world!", 124));
    }

    #[test]
    fn seed_changes_digest() {
        let a = murmur3_x64_128(b"checkpoint", 0);
        let b = murmur3_x64_128(b"checkpoint", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_seed_chaining_differs_from_zero_seed() {
        let prev = murmur3_x64_128(b"block0", 0);
        let chained = Murmur3x64_128::with_digest_seed(prev).hash(b"block1");
        let unchained = murmur3_x64_128(b"block1", 0);
        assert_ne!(chained, unchained);
    }

    #[test]
    fn all_tail_lengths_are_distinct() {
        // Exercise every tail length 0..=15 plus a full block.
        let data: Vec<u8> = (0u8..64).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=33 {
            let d = murmur3_x64_128(&data[..len], 7);
            assert!(seen.insert(d), "collision at prefix length {len}");
        }
    }

    #[test]
    fn digest_byte_round_trip() {
        let d = murmur3_x64_128(b"round trip", 42);
        assert_eq!(Digest128::from_bytes(d.to_bytes()), d);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = murmur3_x64_128(b"left", 0);
        let b = murmur3_x64_128(b"right", 0);
        assert_ne!(Digest128::combine(a, b), Digest128::combine(b, a));
    }

    #[test]
    fn combine_differs_from_inputs() {
        let a = murmur3_x64_128(b"x", 0);
        let b = murmur3_x64_128(b"y", 0);
        let c = Digest128::combine(a, b);
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn display_is_32_hex_chars() {
        let d = murmur3_x64_128(b"fmt", 0);
        assert_eq!(format!("{d}").len(), 32);
    }
}
