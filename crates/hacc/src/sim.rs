//! The simulation driver: P³M forces + leapfrog integration.

use crate::gravity::{pp_accelerations, PmSolver};
use crate::mesh::{cic_deposit, cic_interpolate, Grid3};
use crate::nondet::OrderPolicy;
use crate::particles::ParticleSet;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct HaccConfig {
    /// Particle count.
    pub particles: usize,
    /// PM grid resolution per axis (power of two).
    pub grid: usize,
    /// Periodic box edge length.
    pub box_size: f32,
    /// Timestep.
    pub dt: f32,
    /// Plummer softening length for PP.
    pub softening: f32,
    /// PP interaction cutoff radius.
    pub pp_cutoff: f32,
    /// Initial-conditions seed — the "same input data" both runs share.
    pub ic_seed: u64,
    /// Execution-order policy — where runs differ.
    pub order: OrderPolicy,
}

impl HaccConfig {
    /// A quick configuration for tests and examples: 2 048 particles
    /// on a 16³ grid.
    #[must_use]
    pub fn small() -> Self {
        HaccConfig {
            particles: 2_048,
            grid: 16,
            box_size: 1.0,
            dt: 0.01,
            softening: 0.02,
            pp_cutoff: 0.12,
            ic_seed: 0xC05_0C0DE,
            order: OrderPolicy::Sequential,
        }
    }
}

/// A running mini-HACC simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: HaccConfig,
    particles: ParticleSet,
    solver: PmSolver,
    mass: f32,
    step: u64,
}

impl Simulation {
    /// Builds the simulation from seeded initial conditions. Two
    /// simulations with equal configs start bitwise identical.
    #[must_use]
    pub fn new(config: HaccConfig) -> Self {
        let particles =
            ParticleSet::initial_conditions(config.particles, config.box_size, config.ic_seed);
        let solver = PmSolver::new(config.grid, config.box_size);
        // Unit total mass.
        let mass = 1.0 / config.particles as f32;
        Simulation {
            particles,
            solver,
            mass,
            config,
            step: 0,
        }
    }

    /// Resumes a simulation from restored state: the particle set and
    /// the step counter replace the seeded initial conditions.
    /// Restart-then-run reproduces continuous runs bitwise under a
    /// deterministic [`OrderPolicy`] whose shuffles are salted by the
    /// step counter — which is why the salt is the *global* step, not
    /// steps-since-restart.
    ///
    /// # Panics
    ///
    /// If `particles` is empty or its length disagrees with
    /// `config.particles`.
    #[cfg(test)]
    fn from_state(config: HaccConfig, particles: ParticleSet, step: u64) -> Self {
        assert!(!particles.is_empty(), "cannot resume with no particles");
        assert_eq!(
            particles.len(),
            config.particles,
            "restored particle count disagrees with the configuration"
        );
        let solver = PmSolver::new(config.grid, config.box_size);
        let mass = 1.0 / config.particles as f32;
        Simulation {
            particles,
            solver,
            mass,
            config,
            step,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &HaccConfig {
        &self.config
    }

    /// Steps taken so far (the "iteration" of checkpoint naming).
    #[cfg(test)]
    fn step_count(&self) -> u64 {
        self.step
    }

    /// Read access to the particle state.
    #[must_use]
    pub fn particles(&self) -> &ParticleSet {
        &self.particles
    }

    /// Advances one timestep: deposit → Poisson solve → PM + PP forces
    /// → leapfrog kick+drift → periodic wrap → record φ.
    pub fn step(&mut self) {
        let cfg = &self.config;
        let np = self.particles.len();

        // 1. Order-sensitive CIC density deposit.
        let mut density = Grid3::zeros(cfg.grid);
        cic_deposit(
            &mut density,
            &self.particles,
            cfg.box_size,
            self.mass,
            &cfg.order,
            self.step * 2,
        );
        // Convert mass to density (divide by cell volume).
        let cell_vol = (cfg.box_size / cfg.grid as f32).powi(3);
        for v in &mut density.data {
            *v /= cell_vol;
        }

        // 2. PM potential and acceleration grids.
        let phi_grid = self.solver.solve_potential(&density);
        let acc_grids = self.solver.accelerations(&phi_grid);

        // 3. Per-particle accelerations: PM interpolation + PP.
        let mut ax = vec![0.0f32; np];
        let mut ay = vec![0.0f32; np];
        let mut az = vec![0.0f32; np];
        for i in 0..np {
            let (x, y, z) = (
                self.particles.x[i],
                self.particles.y[i],
                self.particles.z[i],
            );
            ax[i] = cic_interpolate(&acc_grids[0], x, y, z, cfg.box_size);
            ay[i] = cic_interpolate(&acc_grids[1], x, y, z, cfg.box_size);
            az[i] = cic_interpolate(&acc_grids[2], x, y, z, cfg.box_size);
        }
        pp_accelerations(
            &self.particles,
            cfg.box_size,
            self.mass,
            cfg.pp_cutoff,
            cfg.softening,
            &cfg.order,
            self.step * 2 + 1,
            (&mut ax, &mut ay, &mut az),
        );

        // 4. Leapfrog (kick then drift) and periodic wrap; record φ.
        let dt = cfg.dt;
        let l = cfg.box_size;
        for i in 0..np {
            self.particles.vx[i] += ax[i] * dt;
            self.particles.vy[i] += ay[i] * dt;
            self.particles.vz[i] += az[i] * dt;
            self.particles.x[i] = (self.particles.x[i] + self.particles.vx[i] * dt).rem_euclid(l);
            self.particles.y[i] = (self.particles.y[i] + self.particles.vy[i] * dt).rem_euclid(l);
            self.particles.z[i] = (self.particles.z[i] + self.particles.vz[i] * dt).rem_euclid(l);
            self.particles.phi[i] = cic_interpolate(
                &phi_grid,
                self.particles.x[i],
                self.particles.y[i],
                self.particles.z[i],
                cfg.box_size,
            );
        }
        self.step += 1;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_with(order: OrderPolicy) -> Simulation {
        let mut cfg = HaccConfig::small();
        cfg.particles = 512;
        cfg.order = order;
        Simulation::new(cfg)
    }

    #[test]
    fn sequential_runs_are_bitwise_reproducible() {
        let mut a = small_with(OrderPolicy::Sequential);
        let mut b = small_with(OrderPolicy::Sequential);
        a.run(5);
        b.run(5);
        assert_eq!(a.particles(), b.particles());
    }

    #[test]
    fn same_shuffle_seed_is_reproducible() {
        let mut a = small_with(OrderPolicy::Shuffled { seed: 77 });
        let mut b = small_with(OrderPolicy::Shuffled { seed: 77 });
        a.run(5);
        b.run(5);
        assert_eq!(a.particles(), b.particles());
    }

    #[test]
    fn different_shuffle_seeds_diverge() {
        let mut a = small_with(OrderPolicy::Shuffled { seed: 1 });
        let mut b = small_with(OrderPolicy::Shuffled { seed: 2 });
        // Identical at t=0: same ICs.
        assert_eq!(a.particles(), b.particles());
        // How many steps the first rounding difference needs depends on
        // the RNG's permutation stream, so run in bursts until the runs
        // split rather than hard-coding a step count.
        let mut diffs = 0;
        for _ in 0..5 {
            a.run(10);
            b.run(10);
            diffs = a
                .particles()
                .x
                .iter()
                .zip(&b.particles().x)
                .filter(|(p, q)| p.to_bits() != q.to_bits())
                .count();
            if diffs > 0 {
                break;
            }
        }
        assert!(diffs > 0, "50 shuffled steps produced bitwise-equal runs");
    }

    #[test]
    fn divergence_grows_with_iterations() {
        let max_dx = |steps: u64| {
            let mut a = small_with(OrderPolicy::Shuffled { seed: 1 });
            let mut b = small_with(OrderPolicy::Shuffled { seed: 2 });
            a.run(steps);
            b.run(steps);
            a.particles()
                .x
                .iter()
                .zip(&b.particles().x)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f32, f32::max)
        };
        let early = max_dx(2);
        let late = max_dx(30);
        assert!(
            late >= early,
            "divergence should not shrink: early {early}, late {late}"
        );
    }

    #[test]
    fn positions_stay_in_the_box() {
        let mut sim = small_with(OrderPolicy::Shuffled { seed: 5 });
        sim.run(20);
        let l = sim.config().box_size;
        for i in 0..sim.particles().len() {
            let p = sim.particles();
            assert!((0.0..l).contains(&p.x[i]), "x[{i}] = {}", p.x[i]);
            assert!((0.0..l).contains(&p.y[i]));
            assert!((0.0..l).contains(&p.z[i]));
        }
    }

    #[test]
    fn velocities_stay_finite_and_bounded() {
        let mut sim = small_with(OrderPolicy::Sequential);
        sim.run(30);
        let p = sim.particles();
        for i in 0..p.len() {
            assert!(p.vx[i].is_finite() && p.vy[i].is_finite() && p.vz[i].is_finite());
            assert!(p.vx[i].abs() < 10.0, "vx[{i}] = {} (blow-up)", p.vx[i]);
        }
    }

    #[test]
    fn phi_is_populated_after_stepping() {
        let mut sim = small_with(OrderPolicy::Sequential);
        assert!(sim.particles().phi.iter().all(|&v| v == 0.0));
        sim.run(1);
        assert!(
            sim.particles().phi.iter().any(|&v| v != 0.0),
            "φ never written"
        );
        assert!(sim.particles().phi.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn momentum_roughly_conserved_over_short_runs() {
        let mut sim = small_with(OrderPolicy::Sequential);
        let m0 = sim.particles().momentum(sim.mass);
        sim.run(10);
        let m1 = sim.particles().momentum(sim.mass);
        for k in 0..3 {
            assert!(
                (m1[k] - m0[k]).abs() < 0.05,
                "momentum {k} drifted {} -> {}",
                m0[k],
                m1[k]
            );
        }
    }

    #[test]
    fn restart_reproduces_a_continuous_run_bitwise() {
        // Continuous: 10 steps straight through.
        let mut continuous = small_with(OrderPolicy::Shuffled { seed: 4 });
        continuous.run(10);

        // Restarted: 6 steps, snapshot, resume for 4 more.
        let mut first_leg = small_with(OrderPolicy::Shuffled { seed: 4 });
        first_leg.run(6);
        let snapshot = first_leg.particles().clone();
        let mut resumed =
            Simulation::from_state(first_leg.config().clone(), snapshot, first_leg.step_count());
        resumed.run(4);

        assert_eq!(resumed.step_count(), 10);
        assert_eq!(resumed.particles(), continuous.particles());
    }

    #[test]
    fn restart_through_veloc_checkpoint_files() {
        // The full resilience loop: simulate, capture, restore, resume.
        let base =
            std::env::temp_dir().join(format!("reprocmp-hacc-restart-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();

        let mut cfg = HaccConfig::small();
        cfg.particles = 256;
        let mut sim = Simulation::new(cfg.clone());
        sim.run(5);

        // Capture all seven fields by hand (avoiding a veloc dev-dep
        // cycle, fields are written/read through plain vectors here;
        // the integration tests exercise the real client).
        let saved = sim.particles().clone();
        let saved_step = sim.step_count();
        sim.run(5); // the "lost" leg

        let mut resumed = Simulation::from_state(cfg, saved, saved_step);
        resumed.run(5);
        assert_eq!(resumed.particles(), sim.particles());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    #[should_panic(expected = "particle count disagrees")]
    fn restart_with_wrong_population_panics() {
        let cfg = HaccConfig::small();
        let _ = Simulation::from_state(cfg, ParticleSet::with_len(3), 0);
    }

    #[test]
    fn step_counter_advances() {
        let mut sim = small_with(OrderPolicy::Sequential);
        sim.run(3);
        assert_eq!(sim.step_count(), 3);
    }
}
