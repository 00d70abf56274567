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

use boundary::{boundary_value, next_down_f64, next_up_f64};
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
// The f64 grid: same adversarial ±1-ulp probing, double precision
// ---------------------------------------------------------------------

use reprocmp_hash::QuantizerF64;

/// An f64 on (or as near as representable to) the grid boundary
/// `k·ε`, nudged `ulps` steps: −1, 0, or +1. At f64 precision a ±1-ulp
/// nudge sits ~16 orders of magnitude inside the cell, which is
/// exactly why these are the fragile inputs for `floor(x/ε)`.
fn boundary_value_f64(k: i64, eps: f64, ulps: i32) -> f64 {
    let v = k as f64 * eps;
    match ulps {
        -1 => next_down_f64(v),
        1 => next_up_f64(v),
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// f64 twin of the zero-false-negative property: boundary
    /// values (±1 ulp) that really differ by more than ε under the
    /// direct predicate always receive different codes. Bounds reach
    /// down to 1e-12 — far below anything the f32 grid can resolve.
    #[test]
    fn f64_boundary_neighbours_never_share_a_code_when_truly_different(
        bound_pow in 3i32..13,                 // ε ∈ {1e-3 … 1e-12}
        k1 in -(1i64 << 20)..(1i64 << 20),
        k2 in -(1i64 << 20)..(1i64 << 20),
        ulps1 in -1i32..2,
        ulps2 in -1i32..2,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q = QuantizerF64::new(eps).unwrap();
        let a = boundary_value_f64(k1, eps, ulps1);
        let b = boundary_value_f64(k2, eps, ulps2);

        prop_assume!(q.differs(a, b));

        prop_assert!(
            q.quantize(a) != q.quantize(b),
            "false negative: {a} and {b} differ by more than ε={eps} yet share a code"
        );
    }

    /// f64 twin of the conservative direction: equal codes at the
    /// boundary always mean the pair agrees under the direct
    /// predicate — the ≤ε slack never loses a real difference.
    #[test]
    fn f64_equal_codes_imply_within_bound_at_boundaries(
        bound_pow in 3i32..13,
        k in -(1i64 << 20)..(1i64 << 20),
        ulps1 in -1i32..2,
        ulps2 in -1i32..2,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q = QuantizerF64::new(eps).unwrap();
        let a = boundary_value_f64(k, eps, ulps1);
        let b = boundary_value_f64(k, eps, ulps2);
        if q.quantize(a) == q.quantize(b) {
            prop_assert!(
                !q.differs(a, b),
                "values {} and {} share a code but differ by more than ε={}",
                a, b, eps
            );
        }
    }

    /// The two grids agree wherever both can see: for values exactly
    /// representable in f32 and bounds within f32 reach, the f64
    /// quantizer assigns the same code as the f32 one.
    #[test]
    fn f64_grid_is_a_refinement_of_the_f32_grid(
        bound_pow in 3i32..8,
        k in -(1i64 << 20)..(1i64 << 20),
        ulps in -1i32..2,
    ) {
        let eps = 10f64.powi(-bound_pow);
        let q32 = Quantizer::new(eps).unwrap();
        let q64 = QuantizerF64::new(eps).unwrap();
        let v32 = boundary_value(k, eps, ulps);
        prop_assert_eq!(q32.quantize(v32), q64.quantize(f64::from(v32)));
    }
}
