//! The tiled leaf kernel against the scalar kernel it replaced.
//!
//! `oracle/` holds the pre-tiling quantizer and chain verbatim; every
//! property here says the kernel computes exactly what it did, over
//! arbitrary bit patterns (NaNs, infinities, subnormals and saturating
//! magnitudes included), every remainder of the four-chunk groups,
//! odd-length and short tail chunks, non-default block sizes, the
//! pre-quantized half on its own, and payload bytes read in place at
//! every alignment.

mod oracle;

use oracle::Oracle;
use proptest::prelude::*;
use reprocmp_hash::{ChunkHasher, Digest128, Floats, Quantizer};

/// Bounds from coarse to far below f32 resolution at unit magnitude.
const EPS: [f64; 5] = [1e-1, 1e-3, 1e-5, 1e-7, 1e-9];

fn floats(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn leaves(h: &ChunkHasher, data: Floats<'_>, chunk_len: usize) -> Vec<[u64; 2]> {
    let mut out = vec![Digest128::ZERO; data.len().div_ceil(chunk_len)];
    h.hash_leaves_into(data, chunk_len, &mut out);
    out.into_iter().map(|d| d.0).collect()
}

/// Random bit patterns are mostly huge magnitudes and NaNs at these
/// bounds; mixing in small values keeps the fast path exercised too.
fn mixed(bits: &[u32]) -> Vec<f32> {
    bits.iter()
        .enumerate()
        .map(|(i, &b)| match i % 3 {
            0 => f32::from_bits(b),
            1 => (b as f32 / u32::MAX as f32 - 0.5) * 2000.0,
            _ => (b % 4096) as f32 * 0.001 - 2.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The quantizer's branch-free floor agrees with libm `floor` on
    /// every bit pattern, at every bound.
    #[test]
    fn quantizer_matches_the_oracle_on_any_bits(
        bits in proptest::collection::vec(any::<u32>(), 1..300),
        eps_pick in 0usize..5,
    ) {
        let eps = EPS[eps_pick];
        let q = Quantizer::new(eps).unwrap();
        let o = Oracle::new(eps, 16);
        for x in mixed(&bits) {
            prop_assert_eq!((x.to_bits(), q.quantize(x)), (x.to_bits(), o.quantize(x)));
        }
        let data = mixed(&bits);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        q.quantize_to_bytes(&data, &mut got);
        o.quantize_to_bytes(&data, &mut want);
        prop_assert_eq!(got, want);
    }

    /// Leaves equal the oracle's for any chunk count (so every
    /// remainder mod 4), any chunk length (odd ones end on an 8-byte
    /// block) and any short tail.
    #[test]
    fn leaves_match_the_oracle(
        bits in proptest::collection::vec(any::<u32>(), 1..1200),
        chunk_len in 1usize..70,
        eps_pick in 0usize..5,
    ) {
        let eps = EPS[eps_pick];
        let h = ChunkHasher::new(Quantizer::new(eps).unwrap());
        let data = mixed(&bits);
        let want = Oracle::new(eps, 16).hash_leaves(&data, chunk_len);
        let got: Vec<[u64; 2]> = h.hash_leaves(&data, chunk_len).into_iter().map(|d| d.0).collect();
        prop_assert_eq!(got, want);
    }

    /// The same at page-sized chunks, where a chunk spans more than
    /// one strip of the tile.
    #[test]
    fn multi_strip_chunks_match_the_oracle(
        n_chunks in 1usize..10,
        tail in 0usize..3,
        chunk_len in 1020usize..1030,
        seed in any::<u32>(),
    ) {
        let n = n_chunks * chunk_len + tail;
        let bits: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9) ^ seed).collect();
        let data = mixed(&bits);
        let h = ChunkHasher::new(Quantizer::new(1e-5).unwrap());
        let want = Oracle::new(1e-5, 16).hash_leaves(&data, chunk_len);
        prop_assert_eq!(leaves(&h, Floats::Values(&data), chunk_len), want);
    }

    /// Non-default block sizes keep the byte path and its digests.
    #[test]
    fn other_block_sizes_match_the_oracle(
        bits in proptest::collection::vec(any::<u32>(), 1..400),
        chunk_len in 1usize..40,
        wide in any::<bool>(),
    ) {
        let block = if wide { 64 } else { 8 };
        let q = Quantizer::new(1e-4).unwrap();
        let h = ChunkHasher::with_block_bytes(q, block);
        let data = mixed(&bits);
        let want = Oracle::new(1e-4, block).hash_leaves(&data, chunk_len);
        prop_assert_eq!(leaves(&h, Floats::Values(&data), chunk_len), want);
    }

    /// Payload bytes hashed in place equal the decoded floats, at every
    /// offset a header can leave them: 0–3 bytes past alignment.
    #[test]
    fn le_bytes_at_any_offset_equal_the_floats(
        bits in proptest::collection::vec(any::<u32>(), 1..600),
        chunk_len in 1usize..40,
        offset in 0usize..4,
    ) {
        let h = ChunkHasher::new(Quantizer::new(1e-5).unwrap());
        let data = floats(&bits);
        let mut file = vec![0xa5u8; offset];
        file.extend(le_bytes(&data));
        prop_assert_eq!(
            leaves(&h, Floats::LeBytes(&file[offset..]), chunk_len),
            leaves(&h, Floats::Values(&data), chunk_len)
        );
    }

    /// Interior nodes: combining two digests as words equals hashing
    /// their 32-byte concatenation.
    #[test]
    fn combine_matches_the_byte_buffer_form(a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()) {
        prop_assert_eq!(
            Digest128::combine(Digest128([a, b]), Digest128([c, d])).0,
            oracle::combine([a, b], [c, d])
        );
    }
}

/// The fast floor's range edge: just inside and outside 2^51, both
/// signs, and the half-integers around them.
#[test]
fn values_around_the_fast_range_edge_match_the_oracle() {
    let edge = 2f64.powi(51);
    for eps in [1.0, 0.5, 0.25, 1e-3] {
        let q = Quantizer::new(eps).unwrap();
        let o = Oracle::new(eps, 16);
        for target in [edge, edge / 2.0, 2.0 * edge, 4.0 * edge] {
            for sign in [1.0, -1.0] {
                let x = (sign * target * eps) as f32;
                let mut probe = x;
                for _ in 0..8 {
                    assert_eq!(q.quantize(probe), o.quantize(probe), "x = {probe:e}");
                    probe = f32::from_bits(probe.to_bits() + 1);
                }
                let mut probe = x;
                for _ in 0..8 {
                    assert_eq!(q.quantize(probe), o.quantize(probe), "x = {probe:e}");
                    probe = f32::from_bits(probe.to_bits() - 1);
                }
            }
        }
        for x in [0.5f32, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0, 0.0, -1e-30, 1e-30] {
            assert_eq!(q.quantize(x), o.quantize(x), "x = {x:e}");
        }
    }
}

/// The empty chunk keeps its marker digest.
#[test]
fn the_empty_chunk_keeps_its_marker() {
    let h = ChunkHasher::new(Quantizer::new(1e-3).unwrap());
    assert_eq!(h.hash_chunk(&[]).0, Oracle::new(1e-3, 16).hash_chunk(&[]));
}

// ---------------------------------------------------------------------
// ε-grid boundaries through the tile
// ---------------------------------------------------------------------

/// The next f32 toward +∞ (as in `eps_grid.rs`).
fn next_up(x: f32) -> f32 {
    let bits = x.to_bits();
    f32::from_bits(if x == 0.0 {
        1
    } else if bits >> 31 == 0 {
        bits + 1
    } else if bits == 0x8000_0001 {
        0x8000_0000
    } else {
        bits - 1
    })
}

/// An f32 on the grid line `k·ε`, nudged −1, 0 or +1 ulp.
fn boundary_value(k: i64, eps: f64, ulps: i32) -> f32 {
    let v = (k as f64 * eps) as f32;
    match ulps {
        -1 => -next_up(-v),
        1 => next_up(v),
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `eps_grid.rs`'s zero-false-negative property with the pair
    /// placed inside a five-chunk payload: the chunk holding the pair
    /// runs through a four-lane group or the one-lane remainder, and
    /// its leaf must split exactly when the values truly differ, with
    /// every other leaf untouched.
    #[test]
    fn boundary_neighbours_split_their_leaf_inside_the_tile(
        bound_pow in 3i32..8,
        k1 in -(1i64 << 20)..(1i64 << 20),
        k2 in -(1i64 << 20)..(1i64 << 20),
        ulps1 in -1i32..2,
        ulps2 in -1i32..2,
        chunk in 0usize..5,
        at in 0usize..7,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q = Quantizer::new(eps).unwrap();
        let a = boundary_value(k1, eps, ulps1);
        let b = boundary_value(k2, eps, ulps2);
        prop_assume!(q.differs(a, b));

        let h = ChunkHasher::new(q);
        let base: Vec<f32> = (0..5 * 7).map(|i| i as f32 * 0.37).collect();
        let (mut with_a, mut with_b) = (base.clone(), base);
        with_a[chunk * 7 + at] = a;
        with_b[chunk * 7 + at] = b;
        let (la, lb) = (h.hash_leaves(&with_a, 7), h.hash_leaves(&with_b, 7));
        for i in 0..5 {
            if i == chunk {
                prop_assert!(la[i] != lb[i], "false negative: {} vs {} at ε={}", a, b, eps);
            } else {
                prop_assert_eq!(la[i], lb[i]);
            }
        }
    }
}
