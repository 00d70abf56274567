//! The particle phase-space state, structure-of-arrays.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All particle state, SoA layout — one `Vec<f32>` per Table 1 field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParticleSet {
    /// x coordinate, in `[0, box_size)`.
    pub x: Vec<f32>,
    /// y coordinate.
    pub y: Vec<f32>,
    /// z coordinate.
    pub z: Vec<f32>,
    /// x velocity.
    pub vx: Vec<f32>,
    /// y velocity.
    pub vy: Vec<f32>,
    /// z velocity.
    pub vz: Vec<f32>,
    /// Gravitational potential at the particle (filled by the solver).
    pub phi: Vec<f32>,
}

impl ParticleSet {
    /// `n` particles, all state zeroed.
    #[must_use]
    pub fn with_len(n: usize) -> Self {
        ParticleSet {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            vz: vec![0.0; n],
            phi: vec![0.0; n],
        }
    }

    /// Particle count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when there are no particles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Seeded initial conditions: particles start on a uniform lattice
    /// perturbed by small random displacements (a crude Zel'dovich
    /// setup), with small random velocities. Two simulations built from
    /// the same seed start *bitwise identical* — the paper's "same
    /// input data" premise.
    #[must_use]
    pub fn initial_conditions(n: usize, box_size: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = ParticleSet::with_len(n);
        let side = (n as f64).cbrt().ceil() as usize;
        let spacing = box_size / side as f32;
        for i in 0..n {
            let gx = (i % side) as f32;
            let gy = ((i / side) % side) as f32;
            let gz = (i / (side * side)) as f32;
            let jitter = 0.3 * spacing;
            let wrap = |v: f32| v.rem_euclid(box_size);
            p.x[i] = wrap(gx * spacing + rng.gen_range(-jitter..jitter));
            p.y[i] = wrap(gy * spacing + rng.gen_range(-jitter..jitter));
            p.z[i] = wrap(gz * spacing + rng.gen_range(-jitter..jitter));
            let vscale = 0.02 * box_size;
            p.vx[i] = rng.gen_range(-vscale..vscale);
            p.vy[i] = rng.gen_range(-vscale..vscale);
            p.vz[i] = rng.gen_range(-vscale..vscale);
        }
        p
    }

    /// Borrow a Table 1 field by name (`x|y|z|vx|vy|vz|phi`).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&[f32]> {
        match name {
            "x" => Some(&self.x),
            "y" => Some(&self.y),
            "z" => Some(&self.z),
            "vx" => Some(&self.vx),
            "vy" => Some(&self.vy),
            "vz" => Some(&self.vz),
            "phi" => Some(&self.phi),
            _ => None,
        }
    }

    /// Kinetic energy in f64 (diagnostic; mass-weighted by `mass`).
    #[cfg(test)]
    fn kinetic_energy(&self, mass: f32) -> f64 {
        let m = f64::from(mass);
        (0..self.len())
            .map(|i| {
                let v2 = f64::from(self.vx[i]).powi(2)
                    + f64::from(self.vy[i]).powi(2)
                    + f64::from(self.vz[i]).powi(2);
                0.5 * m * v2
            })
            .sum()
    }

    /// Total momentum vector in f64 (diagnostic).
    #[cfg(test)]
    pub(crate) fn momentum(&self, mass: f32) -> [f64; 3] {
        let m = f64::from(mass);
        let mut p = [0.0f64; 3];
        for i in 0..self.len() {
            p[0] += m * f64::from(self.vx[i]);
            p[1] += m * f64::from(self.vy[i]);
            p[2] += m * f64::from(self.vz[i]);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_conditions_deterministic_per_seed() {
        let a = ParticleSet::initial_conditions(500, 1.0, 42);
        let b = ParticleSet::initial_conditions(500, 1.0, 42);
        let c = ParticleSet::initial_conditions(500, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn initial_positions_inside_box() {
        let p = ParticleSet::initial_conditions(1000, 2.0, 7);
        for i in 0..p.len() {
            assert!((0.0..2.0).contains(&p.x[i]), "x[{i}] = {}", p.x[i]);
            assert!((0.0..2.0).contains(&p.y[i]));
            assert!((0.0..2.0).contains(&p.z[i]));
        }
    }

    #[test]
    fn field_lookup_covers_table1() {
        let p = ParticleSet::with_len(3);
        for name in crate::CHECKPOINT_FIELDS {
            assert!(p.field(name).is_some(), "missing field {name}");
            assert_eq!(p.field(name).unwrap().len(), 3);
        }
        assert!(p.field("mass").is_none());
    }

    #[test]
    fn diagnostics_on_known_state() {
        let mut p = ParticleSet::with_len(2);
        p.vx[0] = 3.0;
        p.vx[1] = -3.0;
        p.vy[0] = 4.0;
        let m = 2.0;
        assert!((p.kinetic_energy(m) - (0.5 * 2.0 * 25.0 + 0.5 * 2.0 * 9.0)).abs() < 1e-9);
        let mom = p.momentum(m);
        assert!((mom[0] - 0.0).abs() < 1e-9);
        assert!((mom[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn with_len_zero_is_empty() {
        let p = ParticleSet::with_len(0);
        assert!(p.is_empty());
        assert_eq!(p.kinetic_energy(1.0), 0.0);
    }
}
