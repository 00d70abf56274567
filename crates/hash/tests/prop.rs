//! Property tests of the hashing primitives.

mod boundary;

use boundary::{boundary_value, next_down, next_down_f64, next_up, next_up_f64};
use proptest::prelude::*;
use reprocmp_hash::{murmur3::murmur3_x64_128, ChunkHasher, Quantizer};

/// Values per strip of the verify kernel.
const STRIP: usize = 8;

/// The bounds the verify kernel is checked at. 0.1's nearest `f32` is
/// above it, so the kernel's `f32` bound steps down; 1e-46 is below
/// every positive `f32`, so that bound is 0; 1e300 is above `f32::MAX`.
const KERNEL_BOUNDS: [f64; 6] = [1e-3, 1e-5, 1e-7, 0.1, 1e-46, 1e300];

/// Values where an `f32` pre-filter could part from the `f64` predicate:
/// NaNs of both signs with payloads, both infinities, both zeros,
/// subnormals, and `±f32::MAX`, whose difference overflows `f32`.
const SPECIAL: [f32; 16] = [
    f32::NAN,
    f32::from_bits(0x7fc0_0001),
    f32::from_bits(0xffc0_0002),
    f32::from_bits(0x7f80_0001),
    f32::from_bits(0xff80_1234),
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::from_bits(1),
    f32::from_bits(0x8000_0001),
    f32::from_bits(0x007f_ffff),
    f32::MIN_POSITIVE,
    f32::MAX,
    -f32::MAX,
    1.0,
];

/// `bits` as a finite `f32`: an all-ones exponent loses its top bit.
fn finite(bits: u32) -> f32 {
    let x = f32::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f32::from_bits(bits & !0x4000_0000)
    }
}

/// `x` moved `steps` ulps; non-finite values stay put.
fn step_f32(mut x: f32, steps: i32) -> f32 {
    for _ in 0..steps.unsigned_abs() {
        if !x.is_finite() {
            break;
        }
        x = if steps < 0 { next_down(x) } else { next_up(x) };
    }
    x
}

/// What the verify kernel appends after an entry `out` already held,
/// as bits.
fn kernel(q: &Quantizer, a: &[u8], b: &[u8]) -> Vec<(u32, u32, u32)> {
    let mut got = vec![(u32::MAX, 0.0, 0.0)];
    q.diff_le_bytes(a, b, &mut got);
    assert_eq!(got[0].0, u32::MAX, "the kernel appends");
    got[1..]
        .iter()
        .map(|&(j, x, y)| (j, x.to_bits(), y.to_bits()))
        .collect()
}

/// The pairs the scalar predicate `differs` flags, as bits.
fn oracle(q: &Quantizer, pairs: &[(f32, f32)]) -> Vec<(u32, u32, u32)> {
    pairs
        .iter()
        .enumerate()
        .filter(|(_, &(x, y))| q.differs(x, y))
        .map(|(j, &(x, y))| (j as u32, x.to_bits(), y.to_bits()))
        .collect()
}

/// Every ordered pair of [`SPECIAL`] values, laid across strips, at
/// every bound: the kernel flags exactly what `differs` flags.
#[test]
fn diff_le_bytes_is_exact_on_special_values() {
    let pairs: Vec<(f32, f32)> = SPECIAL
        .iter()
        .flat_map(|&x| SPECIAL.iter().map(move |&y| (x, y)))
        .collect();
    let a: Vec<u8> = pairs.iter().flat_map(|p| p.0.to_le_bytes()).collect();
    let b: Vec<u8> = pairs.iter().flat_map(|p| p.1.to_le_bytes()).collect();
    for eps in KERNEL_BOUNDS {
        let q = Quantizer::new(eps).unwrap();
        assert_eq!(kernel(&q, &a, &b), oracle(&q, &pairs), "ε = {eps:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The verify kernel lists exactly the pairs `differs` flags, in
    /// order and at their value offsets; a trailing partial value is
    /// not compared. Each case runs at every bound of [`KERNEL_BOUNDS`]
    /// and at one bound within ±4 f64 ulps of a pair's own difference,
    /// over runs of up to three strips and a partial one.
    #[test]
    fn diff_le_bytes_lists_exactly_the_differing_pairs(
        raw in proptest::collection::vec(
            (
                (any::<u32>(), any::<u32>()),
                (0u8..6, -(1i64 << 20)..(1i64 << 20)),
                (-1i32..2, -2i32..3),
            ),
            0..3 * STRIP + 4,
        ),
        edge in (any::<u32>(), any::<u32>(), -4i32..5),
        tail in 0usize..4,
    ) {
        // The pair whose difference the last bound sits on.
        let (ea, eb) = (finite(edge.0), finite(edge.1));
        let mut eps = (f64::from(ea) - f64::from(eb)).abs();
        for _ in 0..edge.2.unsigned_abs() {
            eps = if edge.2 < 0 { next_down_f64(eps) } else { next_up_f64(eps) };
        }
        let edge_bound = (eps > 0.0 && eps.is_finite()).then_some(eps);
        for eps in KERNEL_BOUNDS.into_iter().chain(edge_bound) {
            let q = Quantizer::new(eps).unwrap();
            let pairs: Vec<(f32, f32)> = raw
                .iter()
                .map(|&((x, y), (how, k), (ulps, steps))| match how {
                    // Equal, one ulp apart, or unrelated bits (NaNs and
                    // infinities included).
                    0 => (f32::from_bits(x), f32::from_bits(x)),
                    1 => (f32::from_bits(x), f32::from_bits(x ^ 1)),
                    2 => (f32::from_bits(x), f32::from_bits(y)),
                    3 => (SPECIAL[x as usize % SPECIAL.len()], SPECIAL[y as usize % SPECIAL.len()]),
                    // A grid boundary and the value ε away, ±2 f32 ulps.
                    4 => {
                        let k = if (k as f64 * eps).abs() < f64::from(f32::MAX) { k } else { 0 };
                        let a = boundary_value(k, eps, ulps);
                        let sign = if x & 1 == 0 { 1.0 } else { -1.0 };
                        (a, step_f32((f64::from(a) + sign * eps) as f32, steps))
                    }
                    _ => (ea, eb),
                })
                .collect();
            let a: Vec<u8> = pairs.iter().flat_map(|p| p.0.to_le_bytes()).collect();
            let mut b: Vec<u8> = pairs.iter().flat_map(|p| p.1.to_le_bytes()).collect();
            b.extend(std::iter::repeat_n(0xff, tail));
            let (got, want) = (kernel(&q, &a, &b), oracle(&q, &pairs));
            prop_assert!(got == want, "ε = {:e}: got {:?}, want {:?}", eps, got, want);
        }
    }
}

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
