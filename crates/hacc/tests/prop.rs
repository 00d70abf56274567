//! Property tests of the simulator substrate.

use proptest::prelude::*;
use reprocmp_hacc::fft::{fft, fft3, Complex};
use reprocmp_hacc::halo::find_halos;
use reprocmp_hacc::mesh::{cic_deposit, cic_interpolate, Grid3};
use reprocmp_hacc::nondet::OrderPolicy;
use reprocmp_hacc::particles::ParticleSet;

proptest! {
    /// FFT round trip is the identity for arbitrary signals.
    #[test]
    fn fft_round_trip(
        re in proptest::collection::vec(-100.0f64..100.0, 1..5)
    ) {
        // A 4×4×4 grid, filled from the seed data.
        let mut data: Vec<Complex> = (0..64)
            .map(|i| Complex::new(re[i % re.len()] * ((i as f64) * 0.1).sin(), 0.0))
            .collect();
        let orig = data.clone();
        fft3(&mut data, 4, false);
        fft3(&mut data, 4, true);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    /// Linearity: FFT(x + y) = FFT(x) + FFT(y).
    #[test]
    fn fft_is_linear(
        seed_x in -10.0f64..10.0,
        seed_y in -10.0f64..10.0,
    ) {
        let n = 32;
        let x: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64 * seed_x).sin(), 0.0)).collect();
        let y: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64 * seed_y).cos(), 0.0)).collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fxy: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        fft(&mut fx);
        fft(&mut fy);
        fft(&mut fxy);
        for ((a, b), s) in fx.iter().zip(&fy).zip(&fxy) {
            prop_assert!(((a.re + b.re) - s.re).abs() < 1e-8);
            prop_assert!(((a.im + b.im) - s.im).abs() < 1e-8);
        }
    }

    /// 3-D FFT round trip.
    #[test]
    fn fft3_round_trip(scale in -5.0f64..5.0) {
        let n = 8;
        let mut cube: Vec<Complex> = (0..n * n * n)
            .map(|i| Complex::new((i as f64 * scale * 0.01).sin(), 0.0))
            .collect();
        let orig = cube.clone();
        fft3(&mut cube, n, false);
        fft3(&mut cube, n, true);
        for (a, b) in cube.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
        }
    }

    /// CIC deposit conserves total mass for arbitrary particle sets
    /// and execution orders.
    #[test]
    fn cic_conserves_mass(
        positions in proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 1..300),
        shuffled_seed in any::<u64>(),
        grid_pow in 2u32..5,
    ) {
        let mut p = ParticleSet::with_len(positions.len());
        for (i, &(x, y, z)) in positions.iter().enumerate() {
            p.x[i] = x;
            p.y[i] = y;
            p.z[i] = z;
        }
        let mass = 1.0 / positions.len() as f32;
        let mut grid = Grid3::zeros(1 << grid_pow);
        cic_deposit(&mut grid, &p, 1.0, mass, &OrderPolicy::Shuffled { seed: shuffled_seed }, 0);
        prop_assert!((grid.total() - 1.0).abs() < 1e-3, "total mass {}", grid.total());
    }

    /// Interpolating a constant field returns the constant anywhere.
    #[test]
    fn cic_interpolates_constants_exactly(
        x in 0.0f32..1.0,
        y in 0.0f32..1.0,
        z in 0.0f32..1.0,
        c in -100.0f32..100.0,
    ) {
        let mut grid = Grid3::zeros(8);
        for v in &mut grid.data {
            *v = c;
        }
        let v = cic_interpolate(&grid, x, y, z, 1.0);
        prop_assert!((v - c).abs() <= c.abs() * 1e-5 + 1e-4);
    }

    /// Halo finding is invariant under particle relabeling: the
    /// multiset of halo sizes does not depend on input order.
    #[test]
    fn halos_invariant_under_relabeling(
        positions in proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 10..120),
        perm_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let build = |pts: &[(f32, f32, f32)]| {
            let mut p = ParticleSet::with_len(pts.len());
            for (i, &(x, y, z)) in pts.iter().enumerate() {
                p.x[i] = x;
                p.y[i] = y;
                p.z[i] = z;
            }
            let mut sizes: Vec<usize> = find_halos(&p, 1.0, 0.08, 2)
                .iter()
                .map(|h| h.size())
                .collect();
            sizes.sort_unstable();
            sizes
        };

        let mut shuffled = positions.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        shuffled.shuffle(&mut rng);
        prop_assert_eq!(build(&positions), build(&shuffled));
    }

    /// Order policies always produce genuine permutations, and
    /// shuffled sums stay within accumulation noise of the exact sum.
    #[test]
    fn policy_sum_stays_close(
        values in proptest::collection::vec(-10.0f32..10.0, 1..500),
        seed in any::<u64>(),
    ) {
        let exact: f64 = values.iter().map(|&v| f64::from(v)).sum();
        let order = OrderPolicy::Shuffled { seed }.permutation(values.len(), 1);
        let shuffled: f32 = order.iter().map(|&i| values[i as usize]).sum();
        prop_assert!((f64::from(shuffled) - exact).abs() < 1e-2 * (1.0 + exact.abs()));
    }
}
