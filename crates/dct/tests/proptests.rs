//! Property-based tests of the transform substrate.

use dp_dct::dct2d::{Dct1dTier, RowColumnDct2d};
use dp_dct::{Dct2dPlan, FftPlan, RfftPlan};
use dp_num::Complex;
use proptest::prelude::*;

fn signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

fn pow2(max_log: u32) -> impl Strategy<Value = usize> {
    (2u32..=max_log).prop_map(|k| 1usize << k)
}

/// Row counts for the direct 2-D plan: fewer than one lane sweep, exactly
/// one, and several — 32 is the bin-grid edge `auto_bins` picks for the
/// 420-cell golden design.
fn plan_rows() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [2usize, 4, 8, 32][i])
}

/// Column counts for the direct 2-D plan, from its minimum of 4.
fn plan_cols() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [4usize, 8, 32][i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Complex FFT round-trips for any power-of-two length and data.
    #[test]
    fn fft_round_trip(n in pow2(8), seed in any::<u64>()) {
        let data: Vec<Complex<f64>> = (0..n)
            .map(|i| {
                let v = (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)) as f64;
                Complex::new((v % 1000.0) / 10.0, ((v / 7.0) % 1000.0) / 10.0)
            })
            .collect();
        let plan = FftPlan::new(n).expect("pow2");
        let mut work = data.clone();
        plan.forward(&mut work);
        plan.inverse(&mut work);
        for (a, b) in data.iter().zip(&work) {
            prop_assert!((*a - *b).abs() < 1e-8 * n as f64);
        }
    }

    /// Real FFT is linear: rfft(a*x + y) = a*rfft(x) + rfft(y).
    #[test]
    fn rfft_linearity(x in signal(64), y in signal(64), a in -5.0f64..5.0) {
        let plan = RfftPlan::new(64).expect("pow2");
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let fx = plan.forward(&x);
        let fy = plan.forward(&y);
        let fc = plan.forward(&combo);
        for k in 0..fc.len() {
            let want = fx[k].scale(a) + fy[k];
            prop_assert!((fc[k] - want).abs() < 1e-7);
        }
    }

    /// idct(dct(x)) == x through every tier, including the direct 2-D plan.
    #[test]
    fn dct2_round_trip_all_tiers(seed in 0u64..1000) {
        let (n1, n2) = (16usize, 8usize);
        let x: Vec<f64> = (0..n1 * n2)
            .map(|i| (((seed + i as u64) * 31) % 199) as f64 / 10.0 - 9.0)
            .collect();
        for plan in [
            RowColumnDct2d::new(n1, n2, Dct1dTier::TwoN).expect("pow2"),
            RowColumnDct2d::new(n1, n2, Dct1dTier::NPoint).expect("pow2"),
        ] {
            let back = plan.idct2(&plan.dct2(&x));
            for (a, b) in x.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
        let d2d = Dct2dPlan::new(n1, n2).expect("pow2");
        let back = d2d.idct2(&d2d.dct2(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// The direct 2-D transform is linear on every shape in the ladder:
    /// dct2(a*x + y) = a*dct2(x) + dct2(y).
    #[test]
    fn direct_dct2_linearity(
        n1 in plan_rows(),
        n2 in plan_cols(),
        a in -5.0f64..5.0,
        seed in any::<u64>(),
    ) {
        let len = n1 * n2;
        let x = pseudo(seed, len);
        let y = pseudo(seed ^ 0x5bd1e995, len);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let plan = Dct2dPlan::new(n1, n2).expect("supported shape");
        let fx = plan.dct2(&x);
        let fy = plan.dct2(&y);
        let fc = plan.dct2(&combo);
        for k in 0..len {
            let want = a * fx[k] + fy[k];
            prop_assert!((fc[k] - want).abs() < 1e-7 * want.abs().max(1.0));
        }
    }

    /// idct2(dct2(x)) == x on every shape in the ladder.
    #[test]
    fn direct_round_trip(n1 in plan_rows(), n2 in plan_cols(), seed in any::<u64>()) {
        let x = pseudo(seed, n1 * n2);
        let plan = Dct2dPlan::new(n1, n2).expect("supported shape");
        let back = plan.idct2(&plan.dct2(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// Parseval-style energy bound: under the library's `2/N`-per-axis
    /// normalization the 2-D coefficient energy (with the 1-D identity's
    /// DC weights applied per axis) equals the sample energy.
    #[test]
    fn direct_energy_identity(n1 in plan_rows(), n2 in plan_cols(), seed in any::<u64>()) {
        let x = pseudo(seed, n1 * n2);
        let plan = Dct2dPlan::new(n1, n2).expect("supported shape");
        let c = plan.dct2(&x);
        let time: f64 = x.iter().map(|v| v * v).sum();
        let (m1, m2) = (n1 as f64, n2 as f64);
        let mut freq = 0.0;
        for k1 in 0..n1 {
            let w1 = if k1 == 0 { m1 / 4.0 } else { m1 / 2.0 };
            for k2 in 0..n2 {
                let w2 = if k2 == 0 { m2 / 4.0 } else { m2 / 2.0 };
                let v = c[k1 * n2 + k2];
                freq += w1 * w2 * v * v;
            }
        }
        prop_assert!((time - freq).abs() < 1e-6 * time.max(1.0));
    }
}

/// Deterministic pseudo-random fill so shrinking stays meaningful for the
/// shape parameters.
fn pseudo(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let v = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            ((v % 2000) as f64) / 10.0 - 100.0
        })
        .collect()
}
