//! A self-contained radix-2 complex FFT.
//!
//! The PM solver needs a 3-D Fourier transform for the k-space Poisson
//! solve. Rather than pulling in an FFT dependency, this module
//! implements the iterative Cooley–Tukey algorithm in `f64` (the
//! transform is deterministic — nondeterminism is injected only in the
//! particle-order accumulations, never here).

/// A complex number in `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Constructs `re + im·i`.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    #[must_use]
    fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// In-place forward FFT. `data.len()` must be a power of two.
///
/// # Panics
///
/// If the length is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (including the 1/N normalization).
///
/// # Panics
///
/// If the length is not a power of two.
fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for v in data.iter_mut() {
        *v = *v * scale;
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// In-place 3-D FFT over an `n×n×n` cube stored x-fastest
/// (`index = (z*n + y)*n + x`).
///
/// # Panics
///
/// If `data.len() != n³` or `n` is not a power of two.
pub fn fft3(data: &mut [Complex], n: usize, inverse: bool) {
    assert_eq!(data.len(), n * n * n, "cube size mismatch");
    assert!(n.is_power_of_two(), "grid size must be a power of two");
    let mut line = vec![Complex::ZERO; n];

    // X lines.
    for z in 0..n {
        for y in 0..n {
            let base = (z * n + y) * n;
            line.copy_from_slice(&data[base..base + n]);
            if inverse {
                ifft(&mut line);
            } else {
                fft(&mut line);
            }
            data[base..base + n].copy_from_slice(&line);
        }
    }
    // Y lines.
    for z in 0..n {
        for x in 0..n {
            for (y, slot) in line.iter_mut().enumerate() {
                *slot = data[(z * n + y) * n + x];
            }
            if inverse {
                ifft(&mut line);
            } else {
                fft(&mut line);
            }
            for (y, &v) in line.iter().enumerate() {
                data[(z * n + y) * n + x] = v;
            }
        }
    }
    // Z lines.
    for y in 0..n {
        for x in 0..n {
            for (z, slot) in line.iter_mut().enumerate() {
                *slot = data[(z * n + y) * n + x];
            }
            if inverse {
                ifft(&mut line);
            } else {
                fft(&mut line);
            }
            for (z, &v) in line.iter().enumerate() {
                data[(z * n + y) * n + x] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn forward_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data);
        for v in &data {
            assert!(close(v.re, 1.0) && close(v.im, 0.0));
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let mut data: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let orig = data.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert!(close(a.re, b.re) && close(a.im, b.im));
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin() {
        let n = 32;
        let k = 5;
        let mut data: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::from_angle(2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64)
            })
            .collect();
        fft(&mut data);
        for (i, v) in data.iter().enumerate() {
            if i == k {
                assert!(close(v.re, n as f64));
            } else {
                assert!(v.norm_sq() < 1e-16, "leakage at bin {i}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128usize;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|v| v.norm_sq()).sum();
        let mut freq = data.clone();
        fft(&mut freq);
        let freq_energy: f64 = freq.iter().map(|v| v.norm_sq()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn fft3_round_trip() {
        let n = 8;
        let mut cube: Vec<Complex> = (0..n * n * n)
            .map(|i| Complex::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        let orig = cube.clone();
        fft3(&mut cube, n, false);
        fft3(&mut cube, n, true);
        for (a, b) in cube.iter().zip(&orig) {
            assert!(close(a.re, b.re) && close(a.im, b.im));
        }
    }

    #[test]
    fn fft3_of_constant_is_dc_only() {
        let n = 4;
        let mut cube = vec![Complex::new(2.5, 0.0); n * n * n];
        fft3(&mut cube, n, false);
        assert!(close(cube[0].re, 2.5 * (n * n * n) as f64));
        for v in &cube[1..] {
            assert!(v.norm_sq() < 1e-18);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex::ZERO; 12];
        fft(&mut data);
    }

    #[test]
    fn fft_is_deterministic() {
        let mk = || {
            let mut d: Vec<Complex> = (0..256)
                .map(|i| Complex::new((i as f64).cos(), 0.0))
                .collect();
            fft(&mut d);
            d
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }
}
