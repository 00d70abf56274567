//! Zero-false-negative at the ε-grid boundaries.
//!
//! The conservative-hash argument (paper §3.2) rests on one fact:
//! whenever two values really differ by more than ε, their grid codes
//! — and therefore their chunk hashes — differ too. The adversarial
//! inputs for that claim are floats sitting exactly *on* a grid
//! boundary `k·ε` and their ±1-ulp neighbours, where `floor(x/ε)` is
//! one double-rounding away from landing in the wrong cell. This
//! suite aims the property precisely there.

mod boundary;

use boundary::boundary_value;
use proptest::prelude::*;
use reprocmp_hash::{ChunkHasher, Quantizer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For any two boundary-straddling values that *really* differ by
    /// more than ε (the paper's ground-truth predicate, checked in
    /// f64), the quantizer assigns different codes and the chunk
    /// hasher different digests: no false negatives at the grid's
    /// most fragile points.
    #[test]
    fn boundary_neighbours_never_hash_equal_when_truly_different(
        bound_pow in 3i32..8,                  // ε ∈ {1e-3 … 1e-7}
        k1 in -(1i64 << 20)..(1i64 << 20),     // |x|/ε bounded: codes stay
        k2 in -(1i64 << 20)..(1i64 << 20),     // far from the saturation range
        ulps1 in -1i32..2,
        ulps2 in -1i32..2,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q = Quantizer::new(eps).unwrap();
        let a = boundary_value(k1, eps, ulps1);
        let b = boundary_value(k2, eps, ulps2);

        // Gate on the ground truth the engine must never miss.
        prop_assume!(q.differs(a, b));

        prop_assert!(
            q.quantize(a) != q.quantize(b),
            "false negative: {a} and {b} differ by more than ε={eps} yet share a code"
        );
        let hasher = ChunkHasher::new(q);
        prop_assert_ne!(hasher.hash_chunk(&[a]), hasher.hash_chunk(&[b]));
    }

    /// The ±1-ulp band around a single boundary is itself safe: the
    /// two sides of `k·ε` may or may not share a code (that is the
    /// allowed ≤ε slack), but they are never reported different by
    /// the hash while agreeing under the direct predicate *in a way
    /// that loses data* — i.e. equal codes always imply |a−b| ≤ ε.
    #[test]
    fn equal_codes_imply_within_bound_at_boundaries(
        bound_pow in 3i32..8,
        k in -(1i64 << 20)..(1i64 << 20),
        ulps1 in -1i32..2,
        ulps2 in -1i32..2,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q = Quantizer::new(eps).unwrap();
        let a = boundary_value(k, eps, ulps1);
        let b = boundary_value(k, eps, ulps2);
        if q.quantize(a) == q.quantize(b) {
            prop_assert!(
                !q.differs(a, b),
                "values {} and {} share a code but differ by more than ε={}",
                a, b, eps
            );
        }
    }
}

// ---------------------------------------------------------------------
// The saturation threshold: |x/ε| ≈ 2^63
// ---------------------------------------------------------------------

/// Every 2^8-th f32 bit pattern of the binade below the one holding
/// `|x/ε| = 2^63`, that binade and the one above, on both signs, each
/// paired with its next value away from zero. Codes are monotone, so
/// adjacent pairs are where equal codes would hide a difference. The
/// number of pairs that share a code yet differ by more than ε.
fn false_negatives_around_saturation(eps: f64) -> usize {
    let q = Quantizer::new(eps).unwrap();
    let exponent = (2f64.powi(63) * eps).log2().floor() as i32;
    let mut misses = 0;
    for e in exponent - 1..=exponent + 1 {
        let first = 2f32.powi(e).to_bits();
        for bits in (first..first + (1 << 23)).step_by(1 << 8) {
            for sign in [0, 1 << 31] {
                let a = f32::from_bits(bits | sign);
                let b = f32::from_bits((bits + 1) | sign);
                if q.quantize(a) == q.quantize(b) && q.differs(a, b) {
                    misses += 1;
                }
            }
        }
    }
    misses
}

#[test]
#[ignore = "item 24: grid codes saturate past |x/ε| ≈ 2^63"]
fn equal_codes_imply_within_bound_around_saturation_at_1e_3() {
    assert_eq!(false_negatives_around_saturation(1e-3), 0);
}

#[test]
#[ignore = "item 24: grid codes saturate past |x/ε| ≈ 2^63"]
fn equal_codes_imply_within_bound_around_saturation_at_1e_5() {
    assert_eq!(false_negatives_around_saturation(1e-5), 0);
}

#[test]
#[ignore = "item 24: grid codes saturate past |x/ε| ≈ 2^63"]
fn equal_codes_imply_within_bound_around_saturation_at_1e_7() {
    assert_eq!(false_negatives_around_saturation(1e-7), 0);
}
