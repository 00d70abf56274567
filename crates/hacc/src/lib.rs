//! Mini-HACC: a laptop-scale stand-in for the HACC cosmology code.
//!
//! The paper's evaluation data is particle checkpoints (coordinates,
//! velocities, gravitational potential — Table 1) captured from HACC
//! running the P³M (particle-particle-particle-mesh) algorithm, whose
//! concurrency makes runs nondeterministic. This crate reproduces that
//! *input distribution* from scratch:
//!
//! * [`fft`] — a self-contained radix-2 complex FFT (1-D and 3-D).
//! * [`mesh`] — periodic 3-D grids with cloud-in-cell (CIC) deposit and
//!   interpolation.
//! * [`gravity`] — the PM (particle-mesh) solver: CIC density, k-space
//!   Poisson solve, finite-difference forces; and the PP short-range
//!   correction via cell lists — together, P³M.
//! * [`nondet`] — the [`nondet::OrderPolicy`] that makes runs diverge:
//!   floating-point accumulations execute in a seeded shuffled order,
//!   modelling the scheduling nondeterminism of the real code (the
//!   paper's Figure 1 motivation). `Sequential` order gives bitwise
//!   reproducible runs.
//! * [`sim`] — the kick-drift-kick integrator and [`sim::Simulation`].
//! * [`decomp`] — slab domain decomposition: which rank owns which
//!   particles, and per-rank Table 1 checkpoint fields.
//!
//! The physics is simplified (single species, fixed timestep, unit
//! box) but the data is genuinely dynamical and genuinely
//! order-sensitive: two runs from identical initial conditions with
//! different shuffle seeds produce checkpoints that agree early and
//! drift apart over iterations — exactly what the comparison runtime
//! is built to detect.
//!
//! # Example
//!
//! ```
//! use reprocmp_hacc::nondet::OrderPolicy;
//! use reprocmp_hacc::sim::{HaccConfig, Simulation};
//!
//! let mut cfg = HaccConfig::small();
//! cfg.order = OrderPolicy::Shuffled { seed: 1 };
//! let mut run1 = Simulation::new(cfg.clone());
//! cfg.order = OrderPolicy::Shuffled { seed: 2 };
//! let mut run2 = Simulation::new(cfg);
//!
//! run1.run(5);
//! run2.run(5);
//! // Same initial conditions, different execution order: the runs are
//! // no longer bitwise identical.
//! let x1 = &run1.particles().x;
//! let x2 = &run2.particles().x;
//! assert!(x1.iter().zip(x2).any(|(a, b)| a != b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod decomp;
pub mod fft;
pub mod gravity;
pub mod halo;
pub mod mesh;
pub mod nondet;
pub mod observables;
pub mod particles;
pub mod sim;

pub use decomp::SlabDecomposition;
pub use halo::{find_halos, halo_census, Halo, HaloCensus};
pub use nondet::OrderPolicy;
pub use observables::clustering_strength;
pub use particles::ParticleSet;
pub use sim::{HaccConfig, Simulation};

/// The seven Table 1 checkpoint fields, in canonical order.
pub const CHECKPOINT_FIELDS: [&str; 7] = ["x", "y", "z", "vx", "vy", "vz", "phi"];
