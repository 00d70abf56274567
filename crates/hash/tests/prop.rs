//! Property tests of the hashing primitives.

use proptest::prelude::*;
use reprocmp_hash::{murmur3::murmur3_x64_128, ChunkHasher, Quantizer};

proptest! {
    /// Flipping any single input bit changes the digest (avalanche,
    /// probabilistically certain for a 128-bit hash).
    #[test]
    fn murmur_bit_flip_changes_digest(
        mut data in proptest::collection::vec(any::<u8>(), 1..200),
        byte_pick in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let before = murmur3_x64_128(&data, 7);
        let idx = byte_pick.index(data.len());
        data[idx] ^= 1 << bit;
        let after = murmur3_x64_128(&data, 7);
        prop_assert_ne!(before, after);
    }

    /// Digests are length-sensitive: a strict prefix never collides
    /// with the full input.
    #[test]
    fn murmur_prefix_never_collides(
        data in proptest::collection::vec(any::<u8>(), 2..200),
        cut in any::<proptest::sample::Index>(),
    ) {
        let cut = 1 + cut.index(data.len() - 1);
        prop_assume!(cut < data.len());
        prop_assert_ne!(murmur3_x64_128(&data[..cut], 0), murmur3_x64_128(&data, 0));
    }

    /// Quantization is monotone: a ≤ b ⇒ q(a) ≤ q(b) for finite inputs.
    #[test]
    fn quantizer_is_monotone(
        a in -1e6f32..1e6,
        b in -1e6f32..1e6,
        bound_pow in 1i32..7,
    ) {
        let q = Quantizer::new(10f64.powi(-bound_pow)).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    /// `differs` is symmetric and irreflexive for finite values.
    #[test]
    fn differs_is_symmetric(
        a in -1e6f32..1e6,
        b in -1e6f32..1e6,
        bound_pow in 1i32..7,
    ) {
        let q = Quantizer::new(10f64.powi(-bound_pow)).unwrap();
        prop_assert_eq!(q.differs(a, b), q.differs(b, a));
        prop_assert!(!q.differs(a, a));
    }

    /// The verify kernel lists exactly the pairs `differs` flags, in
    /// order and at their value offsets; a trailing partial value is
    /// not compared.
    #[test]
    fn diff_le_bytes_lists_exactly_the_differing_pairs(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..3), 0..300),
        tail in 0usize..4,
    ) {
        let q = Quantizer::new(1e-3).unwrap();
        // Equal, one ulp apart, or unrelated bits (NaNs and infinities
        // included).
        let pairs: Vec<(f32, f32)> = pairs
            .iter()
            .map(|&(x, y, how)| {
                let y = [x, x ^ 1, y][usize::from(how)];
                (f32::from_bits(x), f32::from_bits(y))
            })
            .collect();
        let a: Vec<u8> = pairs.iter().flat_map(|p| p.0.to_le_bytes()).collect();
        let mut b: Vec<u8> = pairs.iter().flat_map(|p| p.1.to_le_bytes()).collect();
        b.extend(std::iter::repeat_n(0xff, tail));
        let mut got = vec![(u32::MAX, 0.0, 0.0)];
        q.diff_le_bytes(&a, &b, &mut got);
        let want = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.differs(x, y))
            .map(|(j, &(x, y))| (j as u32, x.to_bits(), y.to_bits()));
        let bits = |&(j, x, y): &(u32, f32, f32)| (j, x.to_bits(), y.to_bits());
        prop_assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            // Appended after what `out` already held.
            std::iter::once((u32::MAX, 0, 0)).chain(want).collect::<Vec<_>>()
        );
    }

    /// Chunk digests are a pure function of the quantized codes: two
    /// inputs with identical code sequences always hash identically.
    #[test]
    fn chunk_digest_depends_only_on_codes(
        values in proptest::collection::vec(-1e3f32..1e3, 1..300),
        bound_pow in 1i32..6,
        nudge_scale in 0.0f64..0.45,
    ) {
        let bound = 10f64.powi(-bound_pow);
        let q = Quantizer::new(bound).unwrap();
        let h = ChunkHasher::new(q);
        // Nudge every value within its own grid cell (toward the cell
        // center, by less than half a cell).
        let nudged: Vec<f32> = values
            .iter()
            .map(|&v| {
                let code = q.quantize(v);
                let cell_mid = (code as f64 + 0.5) * bound;
                let moved = f64::from(v) + (cell_mid - f64::from(v)) * nudge_scale;
                moved as f32
            })
            .collect();
        let codes_equal = values
            .iter()
            .zip(&nudged)
            .all(|(a, b)| q.quantize(*a) == q.quantize(*b));
        if codes_equal {
            prop_assert_eq!(h.hash_chunk(&values), h.hash_chunk(&nudged));
        }
    }

    /// hash_leaves tiling: concatenating per-chunk digests equals
    /// hashing each chunk independently, regardless of tail length.
    #[test]
    fn hash_leaves_matches_manual_chunking(
        values in proptest::collection::vec(-1e3f32..1e3, 1..500),
        chunk_len in 1usize..64,
    ) {
        let h = ChunkHasher::new(Quantizer::new(1e-4).unwrap());
        let leaves = h.hash_leaves(&values, chunk_len);
        let manual: Vec<_> = values.chunks(chunk_len).map(|c| h.hash_chunk(c)).collect();
        prop_assert_eq!(leaves, manual);
    }
}
