//! Slab domain decomposition and per-rank checkpoint extraction.
//!
//! HACC distributes particles over MPI ranks; each rank checkpoints
//! only the particles it owns, producing the "N distributed processes
//! × M iterations" checkpoint history of the paper's problem
//! statement. Mini-HACC runs the dynamics globally (the box is small)
//! and imposes the decomposition only at capture time: rank `r` owns
//! the x-slab `[r·L/R, (r+1)·L/R)`.
//!
//! One subtlety matters for comparison fidelity: two diverging runs
//! may disagree about which slab a particle near a boundary falls in.
//! Real HACC has the same property (particles migrate between ranks),
//! which is why the paper compares checkpoints *pairwise by rank and
//! iteration* — we reproduce the layout, and the comparison engine
//! sees whatever rank-local field arrays each run captured. For
//! stable cross-run indexing, extraction orders each rank's particles
//! by global particle id.

use crate::particles::ParticleSet;
use crate::CHECKPOINT_FIELDS;

/// An x-axis slab decomposition over `ranks` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabDecomposition {
    ranks: usize,
}

impl SlabDecomposition {
    /// A decomposition over `ranks` slabs.
    ///
    /// # Panics
    ///
    /// If `ranks == 0`.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        SlabDecomposition { ranks }
    }

    /// The rank owning x-coordinate `x` in a box of size `box_size`.
    #[must_use]
    fn rank_of(&self, x: f32, box_size: f32) -> usize {
        let u = (x / box_size * self.ranks as f32).floor() as isize;
        u.clamp(0, self.ranks as isize - 1) as usize
    }

    /// Global particle ids owned by `rank`, ascending.
    #[must_use]
    fn owned_ids(&self, particles: &ParticleSet, box_size: f32, rank: usize) -> Vec<u32> {
        (0..particles.len() as u32)
            .filter(|&i| self.rank_of(particles.x[i as usize], box_size) == rank)
            .collect()
    }

    /// Extracts rank-local Table 1 checkpoint regions: the seven
    /// fields, each gathered over the rank's particles in ascending
    /// global-id order.
    #[must_use]
    pub fn rank_regions(
        &self,
        particles: &ParticleSet,
        box_size: f32,
        rank: usize,
    ) -> Vec<(&'static str, Vec<f32>)> {
        let ids = self.owned_ids(particles, box_size, rank);
        CHECKPOINT_FIELDS
            .iter()
            .map(|&name| {
                let src = particles.field(name).expect("canonical field");
                let vals: Vec<f32> = ids.iter().map(|&i| src[i as usize]).collect();
                (name, vals)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread_particles(n: usize) -> ParticleSet {
        let mut p = ParticleSet::with_len(n);
        for i in 0..n {
            p.x[i] = (i as f32 + 0.5) / n as f32;
            p.y[i] = 0.5;
            p.z[i] = 0.5;
            p.vx[i] = i as f32;
            p.phi[i] = -(i as f32);
        }
        p
    }

    #[test]
    fn every_particle_owned_by_exactly_one_rank() {
        let p = spread_particles(1000);
        let d = SlabDecomposition::new(7);
        let mut seen = vec![0u32; 1000];
        for r in 0..7 {
            for id in d.owned_ids(&p, 1.0, r) {
                seen[id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn rank_of_handles_edges() {
        let d = SlabDecomposition::new(4);
        assert_eq!(d.rank_of(0.0, 1.0), 0);
        assert_eq!(d.rank_of(0.2499, 1.0), 0);
        assert_eq!(d.rank_of(0.25, 1.0), 1);
        assert_eq!(d.rank_of(0.999_999, 1.0), 3);
        // Defensive clamp for values at/above the box edge.
        assert_eq!(d.rank_of(1.0, 1.0), 3);
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = spread_particles(64);
        let d = SlabDecomposition::new(1);
        assert_eq!(d.owned_ids(&p, 1.0, 0).len(), 64);
    }

    #[test]
    fn rank_regions_carry_all_seven_fields_in_order() {
        let p = spread_particles(100);
        let d = SlabDecomposition::new(4);
        let regions = d.rank_regions(&p, 1.0, 2);
        assert_eq!(regions.len(), 7);
        let names: Vec<&str> = regions.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, CHECKPOINT_FIELDS.to_vec());
        // All regions in one rank have equal length.
        let len = regions[0].1.len();
        assert!(regions.iter().all(|(_, v)| v.len() == len));
        // Rank 2 spans x in [0.5, 0.75): ids 50..74.
        assert_eq!(len, 25);
        assert_eq!(regions[3].1[0], 50.0, "vx of first owned particle");
        assert_eq!(regions[6].1[0], -50.0, "phi of first owned particle");
    }

    #[test]
    fn extraction_order_is_global_id_order() {
        let mut p = spread_particles(10);
        // Scramble x so ownership is interleaved between 2 ranks.
        for i in 0..10 {
            p.x[i] = if i % 2 == 0 { 0.2 } else { 0.8 };
        }
        let d = SlabDecomposition::new(2);
        let ids = d.owned_ids(&p, 1.0, 0);
        assert_eq!(ids, vec![0, 2, 4, 6, 8]);
        let regions = d.rank_regions(&p, 1.0, 0);
        let vx = &regions[3].1;
        assert_eq!(vx, &vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }
}
