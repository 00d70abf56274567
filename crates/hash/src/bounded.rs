//! Conservative error-bounded quantization of floating-point values.
//!
//! The paper's rounding method has three steps — normalize to a standard
//! range, round to reduced precision, rescale — whose net effect is to
//! snap every value onto a uniform grid with step equal to the absolute
//! error bound `ε`. We implement the equivalent direct form: the
//! quantized code of `x` is `floor(x / ε)` as a 64-bit integer.
//!
//! # Guarantee (no false negatives)
//!
//! If `quantize(a) == quantize(b)` then both values lie inside the same
//! half-open grid cell of width `ε`, hence `|a − b| < ε` and the pair can
//! never be a *real* difference under the bound. Conversely values with
//! `|a − b| ≤ ε` may land in adjacent cells (a false positive), which the
//! element-wise verification stage later discards.
//!
//! Non-finite values are canonicalized so that every NaN quantizes to the
//! same code (two NaNs compare "equal within any bound" for
//! reproducibility purposes — the run reproduced the NaN), while `+∞` and
//! `−∞` map to distinct dedicated codes.

/// Errors arising when constructing a [`Quantizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantizerError {
    /// The error bound was zero, negative, NaN, or infinite.
    InvalidBound,
}

impl std::fmt::Display for QuantizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizerError::InvalidBound => {
                write!(f, "error bound must be a finite positive number")
            }
        }
    }
}

impl std::error::Error for QuantizerError {}

/// Dedicated quantization codes for non-finite values, chosen far outside
/// the range reachable by finite `f32` inputs divided by any sane bound.
const CODE_NAN: i64 = i64::MAX;
const CODE_POS_INF: i64 = i64::MAX - 1;
const CODE_NEG_INF: i64 = i64::MIN + 1;

/// `|x / ε|` below this (2^51) takes the fast `floor`.
const FAST_RANGE: f64 = 2_251_799_813_685_248.0;

/// 1.5 × 2^52: adding it to any `|s| < 2^51` rounds `s` to the nearest
/// integer and leaves that integer in the sum's low mantissa bits.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// `floor(s)` for `|s| < 2^51`, without libm, integer conversions or
/// branches: round to nearest through [`ROUNDER`], read the integer
/// straight out of the bits, and subtract one where rounding went up.
/// Every operation is exact in that range — the sum lies in
/// `[2^52, 2^53]`, where consecutive `f64`s are one apart and the bit
/// pattern is linear in the value. Outside the range the result is
/// garbage, never a panic.
#[inline(always)]
fn fast_floor(s: f64) -> i64 {
    let m = s + ROUNDER;
    let nearest = (m.to_bits() as i64).wrapping_sub(ROUNDER.to_bits() as i64);
    nearest.wrapping_sub(i64::from(m - ROUNDER > s))
}

/// The grid code of `x`, given `scaled = x × 1/ε`: [`fast_floor`] in
/// range; NaN, ±∞ and large magnitudes fail the range test and take
/// [`grid_code_cold`].
#[inline(always)]
fn grid_code(x: f64, scaled: f64) -> i64 {
    if scaled.abs() < FAST_RANGE {
        fast_floor(scaled)
    } else {
        grid_code_cold(x, scaled)
    }
}

/// Non-finite values and magnitudes at or beyond 2^51.
#[cold]
#[inline(never)]
fn grid_code_cold(x: f64, scaled: f64) -> i64 {
    if x.is_nan() {
        return CODE_NAN;
    }
    if x.is_infinite() {
        return if x > 0.0 { CODE_POS_INF } else { CODE_NEG_INF };
    }
    // f32::MAX / 1e-7 ≈ 3.4e45 overflows i64; saturate just inside the
    // sentinel codes so finite values can never collide with them.
    if scaled >= (CODE_POS_INF - 1) as f64 {
        CODE_POS_INF - 1
    } else if scaled <= (CODE_NEG_INF + 1) as f64 {
        CODE_NEG_INF + 1
    } else {
        scaled.floor() as i64
    }
}

/// Values per strip of the verify kernel ([`Quantizer::diff_le_bytes`]).
const STRIP: usize = 8;

/// Snaps `f32` values onto an `ε`-spaced grid.
///
/// Cloning is cheap; the quantizer is just the bound, its reciprocal
/// and the verify kernel's `f32` bound.
///
/// ```
/// use reprocmp_hash::bounded::Quantizer;
/// let q = Quantizer::new(1e-4).unwrap();
/// // Values within the same grid cell share a code…
/// assert_eq!(q.quantize(0.50001), q.quantize(0.50004));
/// // …values more than ε apart never do.
/// assert_ne!(q.quantize(0.5), q.quantize(0.5005));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bound: f64,
    inv_bound: f64,
    /// The largest `f32` ≤ `bound`: the verify kernel's pre-filter.
    bound_f32: f32,
}

impl Quantizer {
    /// Creates a quantizer for absolute error bound `bound`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantizerError::InvalidBound`] unless `bound` is finite
    /// and strictly positive.
    pub fn new(bound: f64) -> Result<Self, QuantizerError> {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(QuantizerError::InvalidBound);
        }
        // `as` rounds to nearest (∞ above f32::MAX); step down one ulp
        // where that went above the bound.
        let nearest = bound as f32;
        let bound_f32 = if f64::from(nearest) > bound {
            f32::from_bits(nearest.to_bits() - 1)
        } else {
            nearest
        };
        Ok(Quantizer {
            bound,
            inv_bound: 1.0 / bound,
            bound_f32,
        })
    }

    /// The absolute error bound `ε` this quantizer was built with.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Quantizes one value to its grid code.
    ///
    /// Finite values map to `floor(x / ε)`; NaN, `+∞` and `−∞` map to
    /// dedicated sentinel codes (all NaNs share one code).
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f32) -> i64 {
        let x = f64::from(x);
        grid_code(x, x * self.inv_bound)
    }

    /// Quantizes a slice into a caller-provided buffer of codes.
    ///
    /// `out` is resized to `data.len()`.
    pub fn quantize_into(&self, data: &[f32], out: &mut Vec<i64>) {
        out.resize(data.len(), 0);
        self.quantize_run(data.iter().copied(), out);
    }

    /// Quantizes `values` into `out`, pairwise. The loop has no branch
    /// on the values: every code takes [`fast_floor`] while one flag
    /// records whether all were in its range, and only a run that held
    /// a non-finite or huge value is redone value by value.
    #[inline(always)]
    pub(crate) fn quantize_run<I>(&self, values: I, out: &mut [i64])
    where
        I: Iterator<Item = f32> + Clone,
    {
        let mut in_range = true;
        for (code, x) in out.iter_mut().zip(values.clone()) {
            let scaled = f64::from(x) * self.inv_bound;
            in_range &= scaled.abs() < FAST_RANGE;
            *code = fast_floor(scaled);
        }
        if !in_range {
            for (code, x) in out.iter_mut().zip(values) {
                *code = self.quantize(x);
            }
        }
    }

    /// Quantizes a slice directly into little-endian code bytes, the form
    /// consumed by the chunk hasher.
    pub fn quantize_to_bytes(&self, data: &[f32], out: &mut Vec<u8>) {
        out.resize(data.len() * 8, 0);
        for (code, &x) in out.chunks_exact_mut(8).zip(data) {
            code.copy_from_slice(&self.quantize(x).to_le_bytes());
        }
    }

    /// Returns `true` when `a` and `b` count as *different* under this
    /// bound, i.e. `|a − b| > ε` — the exact predicate the paper's direct
    /// comparison applies.
    ///
    /// NaN-vs-NaN is *not* a difference (both runs produced NaN); NaN vs a
    /// number is.
    #[must_use]
    #[inline]
    pub fn differs(&self, a: f32, b: f32) -> bool {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => false,
            (true, false) | (false, true) => true,
            (false, false) => {
                let d = (f64::from(a) - f64::from(b)).abs();
                d > self.bound
            }
        }
    }

    /// The verify kernel: appends `(index, a, b)` to `out` for every
    /// value pair of two little-endian `f32` runs that
    /// [`Quantizer::differs`], `index` counting values from the start
    /// of the runs. A trailing partial value, and values past the end
    /// of the shorter run, are not compared.
    ///
    /// The runs are walked in strips of [`STRIP`] values. Every lane of
    /// a strip runs a branch-free `f32` pre-filter,
    /// `!(|a − b| < ε₃₂)` with `ε₃₂` the largest `f32` ≤ `ε`; a strip
    /// where no lane fires is done, and in any other only the lanes
    /// that fired run the exact `differs`. The filter never
    /// drops a pair `differs` flags: if the `f64` difference exceeds
    /// `ε`, the exact `|a − b|` exceeds `ε₃₂` (rounding to `f64` is
    /// monotone and `ε₃₂ ≤ ε` is an `f64`), so its rounding to `f32` is
    /// at least `ε₃₂`. NaN and an `f32` overflow to ∞ pass the filter
    /// as well.
    pub fn diff_le_bytes(&self, a: &[u8], b: &[u8], out: &mut Vec<(u32, f32, f32)>) {
        let len = a.len().min(b.len()) / 4 * 4;
        let (a, b) = (&a[..len], &b[..len]);
        let strip_bytes = STRIP * 4;
        let strips = a.chunks_exact(strip_bytes).zip(b.chunks_exact(strip_bytes));
        for (s, (sa, sb)) in strips.enumerate() {
            let va: [f32; STRIP] = std::array::from_fn(|l| le_f32(sa, l));
            let vb: [f32; STRIP] = std::array::from_fn(|l| le_f32(sb, l));
            // `<` is false for NaN, so a NaN lane is never within.
            let within = |l: usize| (va[l] - vb[l]).abs() < self.bound_f32;
            let mut all_within = true;
            for l in 0..STRIP {
                all_within &= within(l);
            }
            if all_within {
                continue;
            }
            for l in 0..STRIP {
                if !within(l) && self.differs(va[l], vb[l]) {
                    out.push(((s * STRIP + l) as u32, va[l], vb[l]));
                }
            }
        }
        let done = len / strip_bytes * STRIP;
        let (ta, tb) = (&a[done * 4..], &b[done * 4..]);
        for l in 0..ta.len() / 4 {
            let (xa, xb) = (le_f32(ta, l), le_f32(tb, l));
            if self.differs(xa, xb) {
                out.push(((done + l) as u32, xa, xb));
            }
        }
    }
}

/// The `i`-th little-endian `f32` of `bytes`.
#[inline(always)]
fn le_f32(bytes: &[u8], i: usize) -> f32 {
    f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
}

/// Snaps `f64` values onto an `ε`-spaced grid — the double-precision
/// twin of [`Quantizer`], for checkpoints (or checkpoint *regions*)
/// whose payload is stored as `f64`.
///
/// The conservative guarantee is identical: if
/// `quantize(a) == quantize(b)` both values share one half-open grid
/// cell of width `ε`, hence `|a − b| < ε` — equal codes can never hide
/// a real difference. Values within the bound may still straddle a
/// grid line (a false positive), which element-wise verification
/// discards via [`QuantizerF64::differs`].
///
/// Non-finite handling matches the `f32` path exactly: all NaNs share
/// one sentinel code, `+∞`/`−∞` get dedicated codes, and extreme
/// finite magnitudes saturate strictly inside the sentinels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizerF64 {
    bound: f64,
    inv_bound: f64,
}

impl QuantizerF64 {
    /// Creates a quantizer for absolute error bound `bound`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantizerError::InvalidBound`] unless `bound` is
    /// finite and strictly positive.
    pub fn new(bound: f64) -> Result<Self, QuantizerError> {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(QuantizerError::InvalidBound);
        }
        Ok(QuantizerF64 {
            bound,
            inv_bound: 1.0 / bound,
        })
    }

    /// The absolute error bound `ε` this quantizer was built with.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Quantizes one value to its grid code.
    ///
    /// Finite values map to `floor(x / ε)`; NaN, `+∞` and `−∞` map to
    /// the same dedicated sentinel codes as the `f32` quantizer.
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f64) -> i64 {
        grid_code(x, x * self.inv_bound)
    }

    /// Quantizes a slice into a caller-provided buffer of codes.
    ///
    /// `out` is resized to `data.len()`.
    pub fn quantize_into(&self, data: &[f64], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(data.len());
        out.extend(data.iter().map(|&x| self.quantize(x)));
    }

    /// Quantizes a slice directly into little-endian code bytes, the
    /// form consumed by the chunk hasher.
    pub fn quantize_to_bytes(&self, data: &[f64], out: &mut Vec<u8>) {
        out.resize(data.len() * 8, 0);
        for (code, &x) in out.chunks_exact_mut(8).zip(data) {
            code.copy_from_slice(&self.quantize(x).to_le_bytes());
        }
    }

    /// Returns `true` when `a` and `b` count as *different* under this
    /// bound, i.e. `|a − b| > ε`.
    ///
    /// NaN-vs-NaN is *not* a difference (both runs produced NaN);
    /// NaN vs a number is.
    #[must_use]
    #[inline]
    pub fn differs(&self, a: f64, b: f64) -> bool {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => false,
            (true, false) | (false, true) => true,
            (false, false) => (a - b).abs() > self.bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_bounds() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Quantizer::new(bad), Err(QuantizerError::InvalidBound));
        }
    }

    #[test]
    fn equal_codes_imply_within_bound() {
        let q = Quantizer::new(1e-3).unwrap();
        let pairs = [
            (0.1004f32, 0.1006f32),
            (-3.0001, -3.0004),
            (1000.0001, 1000.0004),
        ];
        for (a, b) in pairs {
            if q.quantize(a) == q.quantize(b) {
                assert!((f64::from(a) - f64::from(b)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn difference_above_bound_changes_code() {
        let q = Quantizer::new(1e-5).unwrap();
        let a = 0.5f32;
        let b = 0.5f32 + 5e-4;
        assert_ne!(q.quantize(a), q.quantize(b));
    }

    #[test]
    fn straddling_grid_boundary_is_a_false_positive() {
        // |a-b| well under the bound, but on either side of a grid line.
        let q = Quantizer::new(1e-3).unwrap();
        let a = 0.000_999_9f32; // cell 0
        let b = 0.001_000_1f32; // cell 1
        assert_ne!(q.quantize(a), q.quantize(b));
        assert!(!q.differs(a, b), "but the direct predicate says equal");
    }

    #[test]
    fn nan_canonicalization() {
        let q = Quantizer::new(1e-6).unwrap();
        let nan1 = f32::NAN;
        let nan2 = f32::from_bits(0x7fc0_0001); // a different NaN payload
        assert_eq!(q.quantize(nan1), q.quantize(nan2));
        assert!(!q.differs(nan1, nan2));
        assert!(q.differs(nan1, 0.0));
    }

    #[test]
    fn infinities_are_distinct_codes() {
        let q = Quantizer::new(1e-6).unwrap();
        assert_ne!(q.quantize(f32::INFINITY), q.quantize(f32::NEG_INFINITY));
        assert_ne!(q.quantize(f32::INFINITY), q.quantize(f32::NAN));
        assert_ne!(q.quantize(f32::MAX), q.quantize(f32::INFINITY));
    }

    #[test]
    fn extreme_magnitudes_saturate_without_sentinel_collision() {
        let q = Quantizer::new(1e-7).unwrap();
        let big = q.quantize(f32::MAX);
        let small = q.quantize(f32::MIN);
        assert_ne!(big, CODE_POS_INF);
        assert_ne!(big, CODE_NAN);
        assert_ne!(small, CODE_NEG_INF);
        assert_ne!(big, small);
    }

    #[test]
    fn quantize_to_bytes_layout() {
        let q = Quantizer::new(1.0).unwrap();
        let mut buf = Vec::new();
        q.quantize_to_bytes(&[2.5, -1.5], &mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(
            i64::from_le_bytes(buf[..8].try_into().unwrap()),
            2,
            "floor(2.5/1.0)"
        );
        assert_eq!(
            i64::from_le_bytes(buf[8..].try_into().unwrap()),
            -2,
            "floor(-1.5/1.0)"
        );
    }

    #[test]
    fn differs_matches_absolute_predicate() {
        let q = Quantizer::new(1e-2).unwrap();
        assert!(!q.differs(1.0, 1.0 + 9e-3));
        assert!(q.differs(1.0, 1.0 + 2e-2));
        assert!(!q.differs(-1.0, -1.0));
    }

    #[test]
    fn fast_floor_is_floor_across_its_whole_range() {
        // At ε = 1 the code is floor(x) itself; walk every binade up to
        // and past the 2^51 edge with quarter, half and ulp fractions.
        let q = QuantizerF64::new(1.0).unwrap();
        for exp in 0..56 {
            let base = 2f64.powi(exp);
            for frac in [0.0, 0.25, 0.5, 0.75, -0.25, -0.5] {
                for x in [base + frac, -(base + frac), base - base * f64::EPSILON] {
                    assert_eq!(q.quantize(x), x.floor() as i64, "x = {x}");
                    assert_eq!(q.quantize(-x), (-x).floor() as i64, "x = {}", -x);
                }
            }
        }
    }

    #[test]
    fn f64_rejects_bad_bounds() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(QuantizerF64::new(bad), Err(QuantizerError::InvalidBound));
        }
    }

    #[test]
    fn f64_resolves_below_f32_precision() {
        // The whole point of the f64 path: differences far below f32's
        // resolution at this magnitude still split codes.
        let q = QuantizerF64::new(1e-12).unwrap();
        let a = 1.0f64;
        let b = 1.0f64 + 5e-12;
        assert_ne!(q.quantize(a), q.quantize(b));
        assert!(q.differs(a, b));
        // The same pair collapses to one f32, so the f32 quantizer is
        // structurally blind to it.
        assert_eq!(a as f32, b as f32);
    }

    #[test]
    fn f64_equal_codes_imply_within_bound() {
        let q = QuantizerF64::new(1e-9).unwrap();
        let pairs = [
            (0.100_000_000_1f64, 0.100_000_000_4f64),
            (-3.000_000_000_1, -3.000_000_000_4),
        ];
        for (a, b) in pairs {
            if q.quantize(a) == q.quantize(b) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn f64_nan_and_infinities_mirror_f32_semantics() {
        let q = QuantizerF64::new(1e-6).unwrap();
        let nan2 = f64::from_bits(0x7ff8_0000_0000_0001); // distinct payload
        assert_eq!(q.quantize(f64::NAN), q.quantize(nan2));
        assert!(!q.differs(f64::NAN, nan2));
        assert!(q.differs(f64::NAN, 0.0));
        assert_ne!(q.quantize(f64::INFINITY), q.quantize(f64::NEG_INFINITY));
        assert_ne!(q.quantize(f64::INFINITY), q.quantize(f64::NAN));
        assert_ne!(q.quantize(f64::MAX), q.quantize(f64::INFINITY));
    }

    #[test]
    fn f64_extreme_magnitudes_saturate_without_sentinel_collision() {
        let q = QuantizerF64::new(1e-7).unwrap();
        let big = q.quantize(f64::MAX);
        let small = q.quantize(f64::MIN);
        assert_ne!(big, CODE_POS_INF);
        assert_ne!(big, CODE_NAN);
        assert_ne!(small, CODE_NEG_INF);
        assert_ne!(big, small);
    }

    #[test]
    fn f64_quantize_to_bytes_layout() {
        let q = QuantizerF64::new(1.0).unwrap();
        let mut buf = Vec::new();
        q.quantize_to_bytes(&[2.5, -1.5], &mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(i64::from_le_bytes(buf[..8].try_into().unwrap()), 2);
        assert_eq!(i64::from_le_bytes(buf[8..].try_into().unwrap()), -2);
        let mut codes = Vec::new();
        q.quantize_into(&[2.5, -1.5], &mut codes);
        assert_eq!(codes, vec![2, -2]);
    }

    #[test]
    fn f64_differs_matches_absolute_predicate() {
        let q = QuantizerF64::new(1e-2).unwrap();
        assert!(!q.differs(1.0, 1.0 + 9e-3));
        assert!(q.differs(1.0, 1.0 + 2e-2));
        assert!(!q.differs(-1.0, -1.0));
        assert_eq!(q.bound(), 1e-2);
    }
}
