//! Scientific observables of a particle snapshot.
//!
//! Reproducibility studies need *science-level* quantities, not just
//! raw arrays: the paper's related work discusses validating runs via
//! derived quantities, and cosmology's workhorse derived quantity is
//! the matter power spectrum. This module folds it into one number,
//! [`clustering_strength`], so a test can ask "did the physics
//! change?" alongside "did the bytes change?".

use crate::fft::{fft3, Complex};
use crate::mesh::{cic_deposit, Grid3};
use crate::nondet::OrderPolicy;
use crate::particles::ParticleSet;

/// One shell of the isotropic power spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PowerShell {
    /// Mean wavenumber of the shell (in units of the fundamental,
    /// `2π / box_size`).
    k: f64,
    /// Shell-averaged power `⟨|δ_k|²⟩`.
    power: f64,
    /// Modes averaged in this shell.
    modes: usize,
}

/// Computes the isotropic matter power spectrum of a snapshot on an
/// `n×n×n` mesh: CIC density, overdensity contrast `δ = ρ/ρ̄ − 1`,
/// FFT, then shell-average `|δ_k|²` over integer-`k` bins.
///
/// Deterministic (deposit runs in `Sequential` order — the observable
/// must not itself be a nondeterminism source).
///
/// # Panics
///
/// If `n` is not a power of two or the snapshot is empty.
#[must_use]
fn power_spectrum(particles: &ParticleSet, n: usize, box_size: f32) -> Vec<PowerShell> {
    assert!(n.is_power_of_two(), "mesh size must be a power of two");
    assert!(!particles.is_empty(), "need particles to measure");

    // Density contrast on the mesh.
    let mut rho = Grid3::zeros(n);
    cic_deposit(
        &mut rho,
        particles,
        box_size,
        1.0, // mass normalization cancels in the contrast
        &OrderPolicy::Sequential,
        0,
    );
    let mean = rho.total() / (n * n * n) as f64;
    let mut field: Vec<Complex> = rho
        .data
        .iter()
        .map(|&v| Complex::new(f64::from(v) / mean - 1.0, 0.0))
        .collect();
    fft3(&mut field, n, false);

    // Shell average by integer wavenumber magnitude.
    let half = n as isize / 2;
    let max_shell = (3f64.sqrt() * half as f64).ceil() as usize + 1;
    let mut power = vec![0.0f64; max_shell];
    let mut counts = vec![0usize; max_shell];
    let norm = 1.0 / ((n * n * n) as f64).powi(2);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                // Signed frequencies.
                let f = |m: usize| -> isize {
                    let m = m as isize;
                    if m <= half {
                        m
                    } else {
                        m - n as isize
                    }
                };
                let (kx, ky, kz) = (f(x), f(y), f(z));
                if kx == 0 && ky == 0 && kz == 0 {
                    continue; // DC carries no structure information
                }
                let kmag = ((kx * kx + ky * ky + kz * kz) as f64).sqrt();
                let shell = kmag.round() as usize;
                let idx = (z * n + y) * n + x;
                power[shell] += field[idx].norm_sq() * norm;
                counts[shell] += 1;
            }
        }
    }

    (1..max_shell)
        .filter(|&s| counts[s] > 0)
        .map(|s| PowerShell {
            k: s as f64,
            power: power[s] / counts[s] as f64,
            modes: counts[s],
        })
        .collect()
}

/// Total power summed over all shells — a one-number clustering
/// strength, rising as structure forms.
#[must_use]
pub fn clustering_strength(particles: &ParticleSet, n: usize, box_size: f32) -> f64 {
    power_spectrum(particles, n, box_size)
        .iter()
        .map(|s| s.power * s.modes as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{HaccConfig, Simulation};

    /// Uniform lattice: essentially zero power everywhere.
    #[test]
    fn uniform_lattice_has_negligible_power() {
        let side = 16usize;
        let mut p = ParticleSet::with_len(side * side * side);
        for i in 0..p.len() {
            p.x[i] = ((i % side) as f32 + 0.5) / side as f32;
            p.y[i] = (((i / side) % side) as f32 + 0.5) / side as f32;
            p.z[i] = ((i / (side * side)) as f32 + 0.5) / side as f32;
        }
        let strength = clustering_strength(&p, 16, 1.0);
        assert!(strength < 1e-6, "lattice power {strength}");
    }

    /// A single dense clump has strong large-scale power.
    #[test]
    fn clumped_matter_has_power() {
        let mut p = ParticleSet::with_len(1_000);
        for i in 0..1_000 {
            let t = i as f32 * 0.777;
            p.x[i] = 0.5 + 0.03 * t.sin();
            p.y[i] = 0.5 + 0.03 * t.cos();
            p.z[i] = 0.5 + 0.03 * (t * 1.3).sin();
        }
        let spectrum = power_spectrum(&p, 16, 1.0);
        let low_k = spectrum.iter().find(|s| s.k == 1.0).unwrap();
        assert!(low_k.power > 1e-3, "clump low-k power {}", low_k.power);
    }

    /// Gravity grows structure: clustering strength increases as the
    /// simulation evolves.
    #[test]
    fn gravity_grows_clustering_strength() {
        let mut cfg = HaccConfig::small();
        cfg.particles = 2_048;
        let mut sim = Simulation::new(cfg);
        let before = clustering_strength(sim.particles(), 16, 1.0);
        sim.run(40);
        let after = clustering_strength(sim.particles(), 16, 1.0);
        assert!(
            after > before,
            "clustering should grow: {before} -> {after}"
        );
    }

    #[test]
    fn power_spectrum_is_deterministic() {
        let p = ParticleSet::initial_conditions(1_000, 1.0, 3);
        assert_eq!(power_spectrum(&p, 16, 1.0), power_spectrum(&p, 16, 1.0));
    }

    #[test]
    fn shells_cover_expected_k_range() {
        let p = ParticleSet::initial_conditions(500, 1.0, 1);
        let spectrum = power_spectrum(&p, 8, 1.0);
        assert!(spectrum.iter().any(|s| s.k == 1.0));
        let max_k = spectrum.iter().map(|s| s.k).fold(0.0, f64::max);
        assert!(max_k <= (3f64.sqrt() * 4.0).ceil());
        let total_modes: usize = spectrum.iter().map(|s| s.modes).sum();
        assert_eq!(total_modes, 8 * 8 * 8 - 1, "every non-DC mode binned once");
    }

    /// Two nondeterministic runs agree on the physics (power spectrum)
    /// to high precision even when bitwise different — the "results
    /// are scientifically fine, just not reproducible" regime.
    #[test]
    fn nondeterministic_runs_agree_on_the_spectrum() {
        use crate::nondet::OrderPolicy;
        let run = |seed| {
            let mut cfg = HaccConfig::small();
            cfg.particles = 1_024;
            cfg.order = OrderPolicy::Shuffled { seed };
            let mut sim = Simulation::new(cfg);
            sim.run(15);
            clustering_strength(sim.particles(), 16, 1.0)
        };
        let a = run(1);
        let b = run(2);
        assert!(
            (a - b).abs() / a.max(b) < 1e-3,
            "spectra diverged: {a} vs {b}"
        );
    }
}
