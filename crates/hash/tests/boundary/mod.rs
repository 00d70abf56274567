//! Float neighbours of the ε-grid boundaries, shared by the suites that
//! aim at them: `eps_grid.rs` (the quantizer) and `prop.rs` (the verify
//! kernel).

/// The next f32 toward +∞ (stable `f32::next_up` postdates our MSRV).
pub fn next_up(x: f32) -> f32 {
    assert!(x.is_finite());
    let bits = x.to_bits();
    let next = if x == 0.0 {
        1 // +0 and -0 both step to the smallest positive subnormal
    } else if bits >> 31 == 0 {
        bits + 1
    } else if bits == 0x8000_0001 {
        0x8000_0000 // -min_subnormal steps to -0
    } else {
        bits - 1
    };
    f32::from_bits(next)
}

/// The next f32 toward −∞.
pub fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// An f32 on (or, after rounding, as near as representable to) the
/// grid boundary `k·ε`, nudged `ulps` steps: −1, 0, or +1.
pub fn boundary_value(k: i64, eps: f64, ulps: i32) -> f32 {
    let v = (k as f64 * eps) as f32;
    match ulps {
        -1 => next_down(v),
        1 => next_up(v),
        _ => v,
    }
}

/// The next f64 toward +∞.
pub fn next_up_f64(x: f64) -> f64 {
    assert!(x.is_finite());
    let bits = x.to_bits();
    let next = if x == 0.0 {
        1 // +0 and -0 both step to the smallest positive subnormal
    } else if bits >> 63 == 0 {
        bits + 1
    } else if bits == 0x8000_0000_0000_0001 {
        0x8000_0000_0000_0000 // -min_subnormal steps to -0
    } else {
        bits - 1
    };
    f64::from_bits(next)
}

/// The next f64 toward −∞.
pub fn next_down_f64(x: f64) -> f64 {
    -next_up_f64(-x)
}
