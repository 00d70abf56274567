//! Injectable execution-order nondeterminism.
//!
//! Floating-point addition is not associative; the order in which a
//! parallel code folds contributions into an accumulator changes the
//! low-order bits of the result. On real machines that order depends
//! on scheduling, atomics, and reduction-tree shape — the paper's core
//! motivation (Figure 1's missing galactic halo) is exactly this class
//! of nondeterminism.
//!
//! [`OrderPolicy`] makes the effect *controllable*: `Sequential` runs
//! every accumulation in a fixed order (bitwise-reproducible runs for
//! testing), while `Shuffled { seed }` permutes each accumulation with
//! a per-call-site salt, so two runs with different seeds model two
//! nondeterministic executions of the same program.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The order in which order-sensitive loops execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Fixed ascending order: bitwise reproducible.
    Sequential,
    /// Seeded pseudo-random order per call site: models scheduling
    /// nondeterminism. Two runs with equal seeds are identical; two
    /// runs with different seeds diverge in low-order floating-point
    /// bits that chaotic dynamics then amplify.
    Shuffled {
        /// The run's scheduling seed.
        seed: u64,
    },
}

impl OrderPolicy {
    /// The visit order for a loop of `n` items at call site `salt`
    /// (callers pass a distinct salt per loop and timestep so shuffles
    /// decorrelate).
    #[must_use]
    pub fn permutation(&self, n: usize, salt: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        if let OrderPolicy::Shuffled { seed } = self {
            let mut rng = StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            order.shuffle(&mut rng);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `values` summed in `policy`'s order, in `f32`.
    fn sum_f32(policy: OrderPolicy, values: &[f32], salt: u64) -> f32 {
        let order = policy.permutation(values.len(), salt);
        order.iter().map(|&i| values[i as usize]).sum()
    }

    #[test]
    fn sequential_is_identity_permutation() {
        let p = OrderPolicy::Sequential.permutation(10, 99);
        assert_eq!(p, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let p = OrderPolicy::Shuffled { seed: 7 }.permutation(1000, 3);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn same_seed_same_salt_same_order() {
        let a = OrderPolicy::Shuffled { seed: 5 }.permutation(100, 1);
        let b = OrderPolicy::Shuffled { seed: 5 }.permutation(100, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_or_salt_changes_order() {
        let base = OrderPolicy::Shuffled { seed: 5 }.permutation(100, 1);
        assert_ne!(OrderPolicy::Shuffled { seed: 6 }.permutation(100, 1), base);
        assert_ne!(OrderPolicy::Shuffled { seed: 5 }.permutation(100, 2), base);
    }

    #[test]
    fn f32_sum_is_order_sensitive() {
        // Values spanning many magnitudes so rounding differs by order.
        let values: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2654435761u64 % 1000) as f32 - 500.0) * 1.0e-3 + 1.0)
            .collect();
        let seq = sum_f32(OrderPolicy::Sequential, &values, 0);
        let mut any_differs = false;
        for seed in 0..20 {
            let shuffled = sum_f32(OrderPolicy::Shuffled { seed }, &values, 0);
            // Always close…
            assert!((f64::from(seq) - f64::from(shuffled)).abs() < 1e-1);
            // …but not always bitwise equal.
            if shuffled.to_bits() != seq.to_bits() {
                any_differs = true;
            }
        }
        assert!(any_differs, "no reordering changed the f32 sum");
    }

    #[test]
    fn empty_and_singleton_sums() {
        assert_eq!(sum_f32(OrderPolicy::Sequential, &[], 0), 0.0);
        assert_eq!(sum_f32(OrderPolicy::Shuffled { seed: 1 }, &[4.25], 0), 4.25);
    }
}
